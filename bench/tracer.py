"""Span tracing of qvar from outside: each layer's public functions are
wrapped at every name a caller binds them to, and each call records a span
(name, start, end, parent, thread) in memory.  `metrics` turns the spans of
one pass into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field


def _iterations(report) -> dict:
    return {"iterations": report.iterations, "dofs": report.solution.values.size}


def _outer(report) -> dict:
    return {"outer": report.outer_iterations, "inner": report.inner_iterations}


def _points(result) -> dict:
    return {"points": len(result.reports)}


# (module, function, span name, extractor of counts from the return value)
TARGETS = (
    ("qvar.cli", "run_command", "cli.command", None),
    ("qvar.problems", "builtin_problem", "problems.build", None),
    ("qvar.obstacle", "eval_obstacle", "obstacle.eval", None),
    ("qvar.obstacle", "lipschitz_bound", "obstacle.lipschitz", None),
    ("qvar.operators", "estimate_constants", "operators.constants", None),
    ("qvar.operators", "solve_unconstrained", "operators.unconstrained", None),
    ("qvar.vi_solver", "solve_vi", "vi_solver.solve", _iterations),
    ("qvar.vi_solver", "solve_vi_psor", "vi_solver.solve", _iterations),
    ("qvar.vi_solver", "solve_vi_projected", "vi_solver.solve", _iterations),
    ("qvar.qvi_solver", "solve_qvi_fixed_point", "qvi_solver.solve", _outer),
    ("qvar.qvi_solver", "solve_qvi_minimal", "qvi_solver.solve", _outer),
    ("qvar.qvi_solver", "solve_qvi_maximal", "qvi_solver.solve", _outer),
    ("qvar.qvi_solver", "solve_qvi_regularized", "qvi_solver.solve", _outer),
    ("qvar.qvi_solver", "unconstrained_supersolution", "qvi_solver.supersolution", None),
    ("qvar.qvi_solver", "problem_certificate", "qvi_solver.certificate", None),
    ("qvar.qvi_solver", "operator_structural_constants", "qvi_solver.certificate", None),
    ("qvar.studies", "run_regularization_path", "studies.run", _points),
    ("qvar.studies", "run_operator_perturbation", "studies.run", _points),
    ("qvar.studies", "run_mesh_refinement", "studies.run", _points),
    ("qvar.studies", "run_data_robustness", "studies.run", _points),
)
# ObstacleMap.kernel is a classmethod: wrapped on the class
KERNEL_BUILD = "obstacle.kernel_build"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans; the parent of a span is the innermost open span of its
    thread, or for the first span of a worker thread the innermost open span
    of the main thread (the study that started the pool)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._undo: list = []

    def _wrap(self, fn, name: str, extract):
        tracer = self

        def traced(*args, **kwargs):
            thread = threading.get_ident()
            with tracer._lock:
                stack = tracer._stacks.setdefault(thread, [])
                if stack:
                    parent = stack[-1]
                else:
                    main = tracer._stacks.get(tracer._main)
                    parent = main[-1] if main and thread != tracer._main else None
                index = len(tracer.spans)
                span = Span(name, 0.0, parent=parent, thread=thread)
                tracer.spans.append(span)
                stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                with tracer._lock:
                    stack.pop()
            if extract is not None:
                span.info = extract(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target in the loaded qvar modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "qvar" or key.startswith("qvar."))]
        for module_name, attr, name, extract in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, extract)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        omap = sys.modules["qvar.obstacle"].ObstacleMap
        original = omap.__dict__["kernel"]
        omap.kernel = classmethod(self._wrap(original.__func__, KERNEL_BUILD, None))
        self._undo.append((omap, "kernel", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        self._stacks.clear()
        return spans


def _union_length(intervals) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = [(max(c.start, span.start), min(c.end, span.end)) for c in children.get(index, ())]
        out.append(span.end - span.start - _union_length([iv for iv in covered if iv[1] > iv[0]]))
    return out


def metrics(spans: list[Span]) -> dict:
    """Per-layer counts and times of one traced pass: name -> (value, unit)."""
    self_t = self_times(spans)

    def layer(span):
        return span.name.split(".")[0]

    def under(span, predicate) -> bool:
        parent = span.parent
        while parent is not None:
            if predicate(spans[parent]):
                return True
            parent = spans[parent].parent
        return False

    def top(name_or_layer: str, by_layer: bool = False):
        if by_layer:
            return [s for s in spans if layer(s) == name_or_layer
                    and not under(s, lambda p: layer(p) == name_or_layer)]
        return [s for s in spans if s.name == name_or_layer
                and not under(s, lambda p: p.name == name_or_layer)]

    def total(selected) -> float:
        return sum(s.end - s.start for s in selected)

    def self_sum(predicate) -> float:
        return sum(t for s, t in zip(spans, self_t) if predicate(s))

    vi = top("vi_solver", by_layer=True)
    work = sum(s.info["iterations"] * s.info["dofs"] for s in vi)
    vi_self = self_sum(lambda s: layer(s) == "vi_solver")
    qvi = top("qvi_solver.solve")
    outer = sum(s.info["outer"] for s in qvi)
    inner = sum(s.info["inner"] for s in qvi)
    constants = [s for s in spans if s.name == "operators.constants"]
    evals = [s for s in spans if s.name == "obstacle.eval"]
    counts = {
        "vi_solver.calls": len(vi),
        "vi_solver.iterations": sum(s.info["iterations"] for s in vi),
        "vi_solver.constant_estimates": sum(
            1 for s in constants if under(s, lambda p: layer(p) == "vi_solver")),
        "qvi_solver.solves": len(qvi),
        "qvi_solver.outer_iterations": outer,
        "qvi_solver.inner_per_outer": inner / outer if outer else 0.0,
        "obstacle.eval_calls": len(evals),
        "operators.constants_calls": len(constants),
        "studies.points": sum(s.info["points"] for s in top("studies.run")),
    }
    seconds = {
        "vi_solver.busy_s": total(vi),
        "qvi_solver.self_s": self_sum(lambda s: s.name in ("qvi_solver.solve", "qvi_solver.supersolution")),
        "qvi_solver.certificate_s": total(top("qvi_solver.certificate")),
        "obstacle.eval_s": total(evals),
        "obstacle.kernel_build_s": total(top(KERNEL_BUILD)),
        "obstacle.lipschitz_s": total(top("obstacle.lipschitz")),
        "operators.constants_s": total(top("operators.constants")),
        "operators.unconstrained_s": total(top("operators.unconstrained")),
        "problems.build_s": total(top("problems.build")),
        "studies.self_s": self_sum(lambda s: layer(s) == "studies"),
        "cli.self_s": self_sum(lambda s: layer(s) == "cli"),
    }
    out = {name: (value, "count") for name, value in counts.items()}
    out.update((name, (float(value), "s")) for name, value in seconds.items())
    out["vi_solver.ns_per_dof_iter"] = (1e9 * vi_self / work if work else 0.0, "ns")
    return out


def dump(path: str, passes: list[list[Span]]) -> None:
    """Write every span as one JSON line, tagged with its pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for index, s in enumerate(spans):
                fh.write(json.dumps({"pass": number, "index": index, "name": s.name,
                                     "start": s.start, "end": s.end, "parent": s.parent,
                                     "thread": s.thread, **s.info}) + "\n")
