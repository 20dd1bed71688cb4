"""Command-line front end: INI-style experiment configs, named built-in
problems, study execution, CSV emission, and exit-code contracts.

Exit codes: 0 success with all verdicts true; 2 verdict failure; 3 solver
non-convergence; 4 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    GridMismatchError,
    InsufficientDataError,
    NestingError,
    OrderingViolationError,
    QvarError,
    SolverError,
)
from .grid import DIRICHLET, GridFunction, make_mesh, to_csv
from .obstacle import _coupling
from .operators import _exponent, _regularization, assemble_linear
from .problems import _TAKES, BUILTINS, _resolve_kernel, builtin_problem
from .qvi_solver import (
    OuterParams,
    QVIProblem,
    problem_certificate,
    solve_qvi_fixed_point,
    solve_qvi_minimal,
)
from .studies import (
    _check_family,
    _check_levels,
    _check_path,
    run_data_robustness,
    run_mesh_refinement,
    run_operator_perturbation,
    run_regularization_path,
)
from .vi_solver import VIParams, kkt_residual, solve_vi, solve_vi_active_set_oracle

# [problem] key -> builder keyword of the overrides only some builtins take
_BUILDER_KEYS = {
    "p": "p", "eps_op": "eps_op", "lambda": "lam", "alpha": "alpha", "c0": "c0",
    "kernel": "kernel", "psi": "psi_level", "psi_file": "psi_file",
}
# [problem] key -> builtin_problem keyword; every builtin takes n, bc, f and F
_PROBLEM_KEYS = {"n": "n", "bc": "bc", "f": "f_level", "F": "F_level", **_BUILDER_KEYS}
# [problem] key -> the library call that owns its range rule (make_mesh's for n and bc)
_PROBLEM_CHECKS = {
    "n": lambda n: make_mesh(n, DIRICHLET), "bc": lambda bc: make_mesh(2, bc),
    "p": _exponent, "eps_op": _regularization, "alpha": _coupling, "kernel": _resolve_kernel,
}

_STUDY_KINDS = ("regpath", "perturb", "refine", "robust")


@dataclass
class ExperimentConfig:
    problem_name: str = "example1d"
    overrides: dict = field(default_factory=dict)
    outer: OuterParams = field(default_factory=OuterParams)
    inner: VIParams = field(default_factory=VIParams)
    study: dict = field(default_factory=dict)
    seed: int = 42
    out: str = "."
    lines: dict = field(default_factory=dict)  # [problem] key -> its line in the config

    def build_problem(self, n: int | None = None) -> QVIProblem:
        """The named builtin with the [problem] overrides, on n cells if given;
        a mesh its builder refuses is reported at the line of `bc`, which picked it."""
        overrides = self.overrides if n is None else {**self.overrides, "n": n}
        try:
            return builtin_problem(self.problem_name, **overrides)
        except GridMismatchError as exc:
            if "bc" not in self.lines:  # built in code, not parsed
                raise
            raise ConfigError(f"line {self.lines['bc']}: key 'bc' {exc}") from None


def _parse_float(raw: str, line_no: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' expects a number, got {raw!r}") from None
    _require_range(np.isfinite(value), line_no, key, f"must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, line_no: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' expects an integer, got {raw!r}") from None


def _parse_list(raw: str, line_no: int, key: str, cast) -> list:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    try:
        values = [cast(part) for part in parts]
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' expects a comma-separated list, got {raw!r}") from None
    for value, part in zip(values, parts):
        _require_range(np.isfinite(value), line_no, key, f"must be finite, got {part!r}")
    return values


def _require_range(ok: bool, line_no: int, key: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"line {line_no}: key '{key}' {message}")


def _checked(line_no: int, key: str, check, *args, **kwargs):
    """check(*args, **kwargs), with its error reported after the line and key."""
    try:
        return check(*args, **kwargs)
    except (ValueError, QvarError) as exc:
        raise ConfigError(f"line {line_no}: key '{key}' {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-based `key = value` configuration document.

    Sections are [problem], [solver] and [study]; `seed` and `out` may appear
    before the first section.  Unknown sections, unknown keys, malformed and
    out-of-range values all raise a ConfigError naming line and key, and so
    does a [problem] key the named builtin does not take.
    """
    cfg = ExperimentConfig()
    apply = _apply_top_key
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            apply = _SECTION_PARSERS.get(section)
            if apply is None:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        apply(cfg, key, raw.strip(), line_no)
        if apply is _apply_problem_key:
            cfg.lines[key] = line_no
    # checked once the whole document is read: `name` may follow the key
    takes = _TAKES[cfg.problem_name]
    foreign = [(line_no, key) for key, line_no in cfg.lines.items()
               if key in _BUILDER_KEYS and _BUILDER_KEYS[key] not in takes]
    if foreign:
        line_no, key = min(foreign)
        spelled = ", ".join(k for k, name in _BUILDER_KEYS.items() if name in takes)
        raise ConfigError(
            f"line {line_no}: key '{key}' does not apply to problem "
            f"'{cfg.problem_name}'; its overrides are {spelled}"
        )
    return cfg


def _apply_top_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    if key == "seed":
        cfg.seed = _parse_int(raw, line_no, key)
    elif key == "out":
        cfg.out = raw
    else:
        raise ConfigError(f"line {line_no}: unknown top-level key '{key}'")


def _apply_problem_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    if key == "name":
        _require_range(raw in BUILTINS, line_no, key,
                       f"must be one of {', '.join(BUILTINS)}, got {raw!r}")
        cfg.problem_name = raw
        return
    if key not in _PROBLEM_KEYS:
        raise ConfigError(f"line {line_no}: unknown key '{key}' in [problem]")
    if key == "n":
        value = _parse_int(raw, line_no, key)
    elif key in ("bc", "kernel", "psi_file"):
        value = raw
    else:  # p, eps_op, lambda, alpha, c0, psi, f and F
        value = _parse_float(raw, line_no, key)
    if key in _PROBLEM_CHECKS:
        _checked(line_no, key, _PROBLEM_CHECKS[key], value)
    cfg.overrides[_PROBLEM_KEYS[key]] = value


def _apply_solver_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    targets = {
        "tol_outer": ("outer", "tol", _parse_float),
        "tol_inner": ("inner", "tol", _parse_float),
        "max_outer": ("outer", "max_iter", _parse_int),
        "max_inner": ("inner", "max_iter", _parse_int),
    }
    if key not in targets:
        raise ConfigError(f"line {line_no}: unknown key '{key}' in [solver]")
    which, attr, parse = targets[key]
    # a new parameter set, so that its own checks run on the value
    changed = {attr: parse(raw, line_no, key)}
    setattr(cfg, which, _checked(line_no, key, replace, getattr(cfg, which), **changed))


def _apply_study_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    value = raw
    if key == "kind":
        # the subcommand picks the study; the key is checked, not used
        _require_range(raw in _STUDY_KINDS, line_no, key,
                       f"must be one of {', '.join(_STUDY_KINDS)}, got {raw!r}")
    elif key in ("eps_list", "delta_list"):
        value = _parse_list(raw, line_no, key, float)
        _checked(line_no, key, _check_path, value, key)
    elif key in ("f_deltas", "phi_deltas"):
        value = _parse_list(raw, line_no, key, float)
        _require_range(all(v > 0 for v in value), line_no, key, "entries must be positive")
    elif key == "n_list":
        value = _parse_list(raw, line_no, key, int)
        _checked(line_no, key, _check_levels, value)
    elif key == "family":
        _checked(line_no, key, _check_family, raw)
    elif key == "reference":
        # smallest-eps, an eps >= 0, or const:<level> as a function of the mesh
        if raw.startswith("const:"):
            value = functools.partial(GridFunction.constant, c=_parse_float(raw[6:], line_no, key))
        elif raw != "smallest-eps":
            value = _checked(line_no, key, _regularization, _parse_float(raw, line_no, key))
    else:
        raise ConfigError(f"line {line_no}: unknown key '{key}' in [study]")
    cfg.study[key] = value


_SECTION_PARSERS = {
    "problem": _apply_problem_key,
    "solver": _apply_solver_key,
    "study": _apply_study_key,
}


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _make_out_dir(out: str) -> None:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None


def _cmd_solve(cfg: ExperimentConfig, problem: QVIProblem, trace_mode: bool) -> int:
    if trace_mode or np.min(problem.f.values) < 0:
        report = solve_qvi_fixed_point(problem, outer=cfg.outer, inner=cfg.inner)
    else:
        report = solve_qvi_minimal(problem, cfg.outer, cfg.inner)
    sol_path, rep_path = (
        os.path.join(cfg.out, f"{cfg.problem_name}_{kind}.csv") for kind in ("solution", "report")
    )
    _write(sol_path, to_csv(report.solution))
    _write(rep_path, report.csv_text())
    print(
        f"{cfg.problem_name}: converged={report.converged} "
        f"outer_iterations={report.outer_iterations} rho_observed={report.rho_observed:.6g}"
    )
    print(f"wrote {sol_path} and {rep_path}")
    return 0 if report.converged else 3


def _cmd_certify(problem: QVIProblem) -> int:
    cert = problem_certificate(problem)
    print("c,L_A,L_N,gamma,L_phi,rho,smallness_ok")
    print(cert.csv_row())
    print(f"rho = {cert.rho:.6g} ({'ok' if cert.smallness_ok else 'smallness violated'})")
    return 0 if cert.smallness_ok else 2


def _cmd_study(cfg: ExperimentConfig, problem: QVIProblem, kind: str) -> int:
    if kind == "regpath":
        reference = cfg.study.get("reference", "smallest-eps")
        result = run_regularization_path(
            problem,
            cfg.study.get("eps_list", [0.5 / 2**k for k in range(6)]),
            reference(problem.f.mesh) if callable(reference) else reference,
            cfg.outer, cfg.inner,
        )
    elif kind == "perturb":
        result = run_operator_perturbation(
            problem,
            cfg.study.get("family", "scaled_identity"),
            cfg.study.get("delta_list", [0.4, 0.2, 0.1, 0.05, 0.025]),
            cfg.outer, cfg.inner,
        )
    elif kind == "refine":
        result = run_mesh_refinement(
            lambda n: cfg.build_problem(n=n),
            cfg.study.get("n_list", [8, 16, 32, 64, 128, 256]),
            cfg.outer, cfg.inner,
        )
    else:  # robust
        result = run_data_robustness(
            problem,
            cfg.study.get("f_deltas", [0.2, 0.1, 0.05, 0.025]),
            cfg.study.get("phi_deltas"),
            cfg.outer, cfg.inner,
        )
    result.seed = cfg.seed
    path = os.path.join(cfg.out, f"{result.name}.csv")
    result.write(path)
    print(f"wrote {path}")
    if result.fit is not None:
        print(f"fit: slope={result.fit.slope:.6g} r2={result.fit.r2:.6g}")
    for name, value in result.verdicts.items():
        print(f"verdict {name}={value}")
    if any(not rep.converged for rep in result.reports):
        return 3
    if not all(result.verdicts.values()):
        return 2
    return 0


def _cmd_oracle_check(trials: int, ndof: int, seed: int) -> int:
    if trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {trials}")
    if ndof < 1 or ndof > 16:
        raise ConfigError(f"--ndof must lie in [1, 16], got {ndof}")
    try:
        rng = np.random.default_rng(seed)
    except ValueError as exc:
        raise ConfigError(f"--seed {exc}") from None
    params = VIParams(tol=1e-11, max_iter=20000)
    max_dev = 0.0
    max_kkt = 0.0
    for _ in range(trials):
        mesh = make_mesh(ndof + 1, "dirichlet")
        a = rng.uniform(0.5, 2.0, mesh.n)
        a0 = rng.uniform(0.0, 1.0, mesh.dof_count)
        op = assemble_linear(mesh, a, a0)
        f = GridFunction(mesh, rng.standard_normal(mesh.dof_count))
        psi = GridFunction(mesh, rng.uniform(-0.5, 1.0, mesh.dof_count))
        ref = solve_vi_active_set_oracle(op, f, psi)
        rep = solve_vi(op, f, psi, params)
        if not rep.converged:
            print(f"Newton failed to converge (kkt={rep.kkt_residual:.3e})")
            return 3
        max_dev = max(max_dev, float(np.max(np.abs(ref.values - rep.solution.values))))
        max_kkt = max(max_kkt, kkt_residual(op, f, psi, rep.solution))
    print(f"oracle-check: trials={trials} ndof={ndof} seed={seed}")
    print(f"max deviation = {max_dev:.3e}, max kkt residual = {max_kkt:.3e}")
    ok = max_dev <= 1e-8 and max_kkt <= 1e-9
    print("verdict oracle_equivalence=" + str(ok))
    return 0 if ok else 2


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qvar",
        description="Obstacle problems with solution-dependent constraints: "
        "solves, contraction traces, certificates, and convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("-c", "--config", metavar="FILE", help="experiment configuration file")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out", metavar="DIR", help="output directory (default from config)")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; parameter points always run in list order")

    for name, help_text in (
        ("solve", "one solve, writes solution and report CSV"),
        ("trace", "fixed-point iteration trace from y0=0 with observed contraction ratio"),
        ("certify", "contraction certificate from structural bounds"),
        ("regpath", "regularization-path study"),
        ("perturb", "operator-perturbation study"),
        ("refine", "mesh-refinement study"),
        ("robust", "data-robustness study"),
    ):
        add_common(sub.add_parser(name, help=help_text))

    oc = sub.add_parser(
        "oracle-check", help="projected Newton vs active-set enumeration on random instances"
    )
    oc.add_argument("--trials", type=int, default=100)
    oc.add_argument("--ndof", type=int, default=8)
    oc.add_argument("--seed", type=int, default=None)
    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 4 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(getattr(args, "config", None))
        if args.seed is not None:
            cfg.seed = args.seed
        if args.command == "oracle-check":
            return _cmd_oracle_check(args.trials, args.ndof, cfg.seed)
        if args.out is not None:
            cfg.out = args.out
        # built for every command, refine included, so a bad [problem] fails
        # before any solve; so does an output directory that cannot be made
        problem = cfg.build_problem()
        if args.command == "certify":
            return _cmd_certify(problem)
        _make_out_dir(cfg.out)
        if args.command in ("solve", "trace"):
            return _cmd_solve(cfg, problem, trace_mode=args.command == "trace")
        return _cmd_study(cfg, problem, args.command)
    except (ConfigError, InsufficientDataError, NestingError, GridMismatchError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except (SolverError, OrderingViolationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except QvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
