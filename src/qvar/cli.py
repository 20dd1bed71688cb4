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
from dataclasses import dataclass, field

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
from .grid import GridFunction, make_mesh, to_csv
from .operators import assemble_linear
from .problems import BUILTINS, builtin_problem
from .qvi_solver import (
    OuterParams,
    QVIProblem,
    problem_certificate,
    solve_qvi_fixed_point,
    solve_qvi_minimal,
)
from .studies import (
    run_data_robustness,
    run_mesh_refinement,
    run_operator_perturbation,
    run_regularization_path,
)
from .vi_solver import VIParams, kkt_residual, solve_vi, solve_vi_active_set_oracle

# keys of inner solvers qvar no longer has (SOR relaxation, projected damping)
_REMOVED_SOLVER_KEYS = {"omega", "tau"}

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

    def build_problem(self, n: int | None = None) -> QVIProblem:
        """The named builtin with the [problem] overrides, on n cells if given."""
        overrides = dict(self.overrides)
        kind = overrides.pop("obstacle_kind", None)
        if n is not None:
            overrides["n"] = n
        problem = builtin_problem(self.problem_name, **overrides)
        variant = problem.obstacle_map.variant
        if kind is not None and kind != variant:
            raise ConfigError(
                f"problem '{self.problem_name}' uses the {variant} obstacle; "
                f"got obstacle.kind = {kind}"
            )
        return problem


def _parse_float(raw: str, line_no: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' expects a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"line {line_no}: key '{key}' must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, line_no: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' expects an integer, got {raw!r}") from None


def _parse_list(raw: str, line_no: int, key: str, cast) -> list:
    try:
        return [cast(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"line {line_no}: key '{key}' expects a comma-separated list, got {raw!r}") from None


def _require_range(ok: bool, line_no: int, key: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"line {line_no}: key '{key}' {message}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-based `key = value` configuration document.

    Sections are [problem], [solver] and [study]; `seed` and `out` may appear
    before the first section.  Unknown sections, unknown keys, malformed and
    out-of-range values all raise a ConfigError naming line and key.
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
        apply(cfg, key.strip(), raw.strip(), line_no)
    return cfg


def _apply_top_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    if key == "seed":
        cfg.seed = _parse_int(raw, line_no, key)
    elif key == "out":
        cfg.out = raw
    else:
        raise ConfigError(f"line {line_no}: unknown top-level key '{key}'")


def _apply_problem_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    ov = cfg.overrides
    if key == "name":
        if raw not in BUILTINS:
            raise ConfigError(
                f"line {line_no}: key 'name' must be one of {', '.join(BUILTINS)}, got {raw!r}"
            )
        cfg.problem_name = raw
    elif key == "n":
        n = _parse_int(raw, line_no, key)
        _require_range(n >= 2, line_no, key, f"must be >= 2, got {n}")
        ov["n"] = n
    elif key == "bc":
        _require_range(raw in ("dirichlet", "neumann"), line_no, key,
                       f"must be dirichlet or neumann, got {raw!r}")
        ov["bc"] = raw
    elif key == "p":
        p = _parse_float(raw, line_no, key)
        _require_range(p >= 2, line_no, key, f"must be >= 2, got {p}")
        ov["p"] = p
    elif key == "eps_op":
        e = _parse_float(raw, line_no, key)
        _require_range(e >= 0, line_no, key, f"must be nonnegative, got {e}")
        ov["eps_op"] = e
    elif key == "lambda":
        ov["lam"] = _parse_float(raw, line_no, key)
    elif key in ("alpha", "obstacle.alpha"):
        a = _parse_float(raw, line_no, key)
        _require_range(a >= 0, line_no, key, f"must be nonnegative (increasing map), got {a}")
        ov["alpha"] = a
    elif key in ("c0", "obstacle.c0"):
        ov["c0"] = _parse_float(raw, line_no, key)
    elif key in ("kernel", "obstacle.kernel"):
        _require_range(raw == "one" or (raw.startswith("gauss(") and raw.endswith(")")),
                       line_no, key, f"must be 'one' or 'gauss(sigma)', got {raw!r}")
        if raw != "one":
            try:  # nan, inf and too small widths fail later, in gauss_kernel
                float(raw[6:-1])
            except ValueError:
                raise ConfigError(
                    f"line {line_no}: key '{key}' expects a number as the gauss width, got {raw!r}"
                ) from None
        ov["kernel"] = raw
    elif key == "psi":
        ov["psi_level"] = _parse_float(raw, line_no, key)
    elif key in ("psi_file", "obstacle.psi_file"):
        ov["psi_file"] = raw
    elif key == "obstacle.kind":
        _require_range(raw in ("constant_mean", "kernel", "fixed"), line_no, key,
                       f"must be constant_mean, kernel or fixed, got {raw!r}")
        # the named problems already fix the kind; accept matching values only
        ov["obstacle_kind"] = raw
    elif key == "f":
        ov["f_level"] = _parse_float(raw, line_no, key)
    elif key == "F":
        ov["F_level"] = _parse_float(raw, line_no, key)
    else:
        raise ConfigError(f"line {line_no}: unknown key '{key}' in [problem]")


def _apply_solver_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    if key in _REMOVED_SOLVER_KEYS:
        raise ConfigError(
            f"line {line_no}: key '{key}' in [solver] was removed; "
            "the inner solver is projected Newton for every operator"
        )
    targets = {
        "tol_outer": (cfg.outer, "tol", _parse_float),
        "tol_inner": (cfg.inner, "tol", _parse_float),
        "max_outer": (cfg.outer, "max_iter", _parse_int),
        "max_inner": (cfg.inner, "max_iter", _parse_int),
    }
    if key not in targets:
        raise ConfigError(f"line {line_no}: unknown key '{key}' in [solver]")
    params, attr, parse = targets[key]
    value = parse(raw, line_no, key)
    _require_range(value > 0, line_no, key, "must be positive")
    setattr(params, attr, value)


def _apply_study_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    if key == "kind":
        # the subcommand picks the study; the key is checked, not used
        _require_range(raw in _STUDY_KINDS, line_no, key,
                       f"must be one of {', '.join(_STUDY_KINDS)}, got {raw!r}")
        return
    value = raw
    if key in ("eps_list", "delta_list", "f_deltas", "phi_deltas"):
        value = _parse_list(raw, line_no, key, float)
        _require_range(all(v > 0 for v in value), line_no, key, "entries must be positive")
    elif key == "n_list":
        value = _parse_list(raw, line_no, key, int)
        _require_range(all(v >= 2 for v in value), line_no, key, "entries must be >= 2")
    elif key == "family":
        _require_range(raw in ("scaled_identity", "coefficient"), line_no, key,
                       f"must be scaled_identity or coefficient, got {raw!r}")
    elif key == "reference":
        # smallest-eps, const:<finite number>, or the eps >= 0 of a reference solve
        if raw.startswith("const:"):
            _parse_float(raw[6:], line_no, key)
        elif raw != "smallest-eps":
            eps = _parse_float(raw, line_no, key)
            _require_range(eps >= 0, line_no, key, f"must be nonnegative, got {eps}")
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


def _resolve_seed(cfg: ExperimentConfig, args) -> None:
    env = os.environ.get("QVAR_SEED")
    if env is not None:
        try:
            cfg.seed = int(env)
        except ValueError:
            raise ConfigError(f"QVAR_SEED must be an integer, got {env!r}") from None
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _make_out_dir(out: str) -> None:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None


def _study_reference(cfg: ExperimentConfig, problem: QVIProblem):
    raw = cfg.study.get("reference", "smallest-eps")
    if isinstance(raw, str) and raw.startswith("const:"):
        return GridFunction.constant(problem.f.mesh, float(raw[6:]))
    return raw


def _cmd_solve(cfg: ExperimentConfig, problem: QVIProblem, trace_mode: bool) -> int:
    if trace_mode or np.min(problem.f.values) < 0:
        y0 = GridFunction.zeros(problem.operator.mesh)
        report = solve_qvi_fixed_point(problem, y0, cfg.outer, cfg.inner)
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
    cert = problem_certificate(problem, "h1")
    print("c,L_A,L_N,gamma,L_phi,rho,smallness_ok")
    print(cert.csv_row())
    print(f"rho = {cert.rho:.6g} ({'ok' if cert.smallness_ok else 'smallness violated'})")
    return 0 if cert.smallness_ok else 2


def _cmd_study(cfg: ExperimentConfig, problem: QVIProblem, kind: str) -> int:
    outer, inner = cfg.outer, cfg.inner
    if kind == "regpath":
        result = run_regularization_path(
            problem,
            cfg.study.get("eps_list", [0.5 / 2**k for k in range(6)]),
            _study_reference(cfg, problem),
            outer, inner,
        )
    elif kind == "perturb":
        result = run_operator_perturbation(
            problem,
            cfg.study.get("family", "scaled_identity"),
            cfg.study.get("delta_list", [0.4, 0.2, 0.1, 0.05, 0.025]),
            outer, inner,
        )
    elif kind == "refine":
        result = run_mesh_refinement(
            lambda n: cfg.build_problem(n=n),
            cfg.study.get("n_list", [8, 16, 32, 64, 128, 256]),
            outer, inner,
        )
    else:  # robust
        result = run_data_robustness(
            problem,
            cfg.study.get("f_deltas", [0.2, 0.1, 0.05, 0.025]),
            cfg.study.get("phi_deltas"),
            outer, inner,
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
    rng = np.random.default_rng(seed)
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
        _resolve_seed(cfg, args)
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
