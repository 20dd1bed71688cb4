"""Command-line front end: INI-style experiment configs, named built-in
problems, study execution, CSV emission, and exit-code contracts.

Exit codes: 0 success with all verdicts true; 2 verdict failure; 3 solver
non-convergence; 4 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
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
from .problems import _TAKES, BUILTINS, _read_text, _resolve_kernel, builtin_problem
from .qvi_solver import (
    OuterParams,
    QVIProblem,
    problem_certificate,
    solve_qvi_fixed_point,
    solve_qvi_minimal,
)
from .studies import STUDIES, _number
from .vi_solver import VIParams, kkt_residual, solve_vi, solve_vi_active_set_oracle

# [problem] key -> (its builtin_problem keyword, value type, the library call
# that owns its range rule or None); make_mesh owns the rules of n and bc
_PROBLEM_KEYS = {
    "name": ("name", str, lambda name: _one_of(name, BUILTINS)),
    "n": ("n", int, lambda n: make_mesh(n, DIRICHLET)),
    "bc": ("bc", str, lambda bc: make_mesh(2, bc)),
    "f": ("f_level", float, None),
    "F": ("F_level", float, None),
    "p": ("p", float, _exponent),
    "eps_op": ("eps_op", float, _regularization),
    "lambda": ("lam", float, None),
    "alpha": ("alpha", float, _coupling),
    "c0": ("c0", float, None),
    "kernel": ("kernel", str, _resolve_kernel),
    "psi": ("psi_level", float, None),
    "psi_file": ("psi_file", str, None),
}
# [solver] key -> (parameter set, its field, value type)
_SOLVER_KEYS = {
    "tol_outer": ("outer", "tol", float),
    "tol_inner": ("inner", "tol", float),
    "max_outer": ("outer", "max_iter", int),
    "max_inner": ("inner", "max_iter", int),
}
# top-level key -> value type
_TOP_KEYS = {"seed": int, "out": str}
# the keywords that only some builders take; every builtin takes the rest
_OVERRIDES = set().union(*_TAKES.values())


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


def _integer(text: str) -> int:
    """The integer that text spells."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expects an integer, got {text!r}") from None


# value type -> the parser of one value, or of one entry of a list
_PARSERS = {int: _integer, float: _number, str: str}


def _one_of(value: str, choices) -> str:
    if value not in choices:
        raise ValueError(f"must be one of {', '.join(choices)}, got {value!r}")
    return value


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
               if _PROBLEM_KEYS[key][0] in _OVERRIDES.difference(takes)]
    if foreign:
        line_no, key = min(foreign)
        spelled = ", ".join(k for k, (keyword, _, _) in _PROBLEM_KEYS.items() if keyword in takes)
        raise ConfigError(
            f"line {line_no}: key '{key}' does not apply to problem "
            f"'{cfg.problem_name}'; its overrides are {spelled}"
        )
    return cfg


def _apply_top_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    if key not in _TOP_KEYS:
        raise ConfigError(f"line {line_no}: unknown top-level key '{key}'")
    setattr(cfg, key, _checked(line_no, key, _PARSERS[_TOP_KEYS[key]], raw))


def _apply_problem_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    if key not in _PROBLEM_KEYS:
        raise ConfigError(f"line {line_no}: unknown key '{key}' in [problem]")
    keyword, kind, check = _PROBLEM_KEYS[key]
    value = _checked(line_no, key, _PARSERS[kind], raw)
    if check is not None:
        _checked(line_no, key, check, value)
    if keyword == "name":
        cfg.problem_name = value
    else:
        cfg.overrides[keyword] = value


def _apply_solver_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    if key not in _SOLVER_KEYS:
        raise ConfigError(f"line {line_no}: unknown key '{key}' in [solver]")
    which, attr, kind = _SOLVER_KEYS[key]
    # a new parameter set, so that its own checks run on the value
    changed = {attr: _checked(line_no, key, _PARSERS[kind], raw)}
    setattr(cfg, which, _checked(line_no, key, replace, getattr(cfg, which), **changed))


def _apply_study_key(cfg: ExperimentConfig, key: str, raw: str, line_no: int) -> None:
    # every study command accepts every kind's keys, so one config serves them
    # all; `kind` is checked but not used, as the subcommand picks the study
    keys = {"kind": (str, lambda kind: _one_of(kind, STUDIES), None)}
    for _, kind_keys, _ in STUDIES.values():
        keys.update(kind_keys)
    if key not in keys:
        raise ConfigError(f"line {line_no}: unknown key '{key}' in [study]")
    entry, check, _ = keys[key]
    parse = functools.partial(_checked, line_no, key, _PARSERS[entry])
    parts = [part.strip() for part in raw.split(",")]  # a list's entries parse as values do
    value = parse(raw) if entry is str else [parse(part) for part in parts if part]
    cfg.study[key] = _checked(line_no, key, check, value)


_SECTION_PARSERS = {
    "problem": _apply_problem_key,
    "solver": _apply_solver_key,
    "study": _apply_study_key,
}


def _load_config(path: str | None) -> ExperimentConfig:
    return ExperimentConfig() if path is None else parse_config(_read_text(path))


# no O_TRUNC: see _write_text; O_BINARY exists, and matters, on Windows only
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write_text(path, text: str) -> None:
    """Write text, UTF-8 encoded, to the file at path in place: an existing
    file is overwritten from its start and cut to the new length, so it keeps
    its inode, mode and links; a missing one is made as open(path, "w") makes
    it.  Not truncating to zero first saves the writeback that ext4 starts
    at close for a file truncated to zero and then written.  No fsync.  An
    OSError is raised as a ConfigError naming the path."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
        try:
            view = memoryview(data)
            while view:  # os.write may write less than it is given
                view = view[os.write(fd, view):]
            # a device or pipe, such as a link to /dev/null, has no length to cut
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _check_writable(path) -> None:
    """Raise the ConfigError of _write_text for a regular file or directory
    at path that cannot be opened for writing, and change nothing: it is
    opened without being created, cut or written.  A pipe or device is not
    opened, since opening one is seen at its other end."""
    try:
        if stat.S_IFMT(os.stat(path).st_mode) in (stat.S_IFREG, stat.S_IFDIR):
            os.close(os.open(path, _WRITE_FLAGS & ~os.O_CREAT))
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _targets(out: str, stems) -> list:
    """The paths out/<stem>.csv, out made and each checked: every command
    that writes calls this before it solves, and writes only these."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    paths = [os.path.join(out, f"{stem}.csv") for stem in stems]
    for path in paths:
        _check_writable(path)
    return paths


def _cmd_solve(cfg: ExperimentConfig, problem: QVIProblem, command: str) -> int:
    name = cfg.problem_name
    sol_path, rep_path = _targets(cfg.out, (f"{name}_solution", f"{name}_report"))
    if command == "trace" or np.min(problem.f.values) < 0:
        report = solve_qvi_fixed_point(problem, outer=cfg.outer, inner=cfg.inner)
    else:
        report = solve_qvi_minimal(problem, cfg.outer, cfg.inner)
    _write_text(sol_path, to_csv(report.solution))
    _write_text(rep_path, report.csv_text())
    print(
        f"{name}: converged={report.converged} "
        f"outer_iterations={report.outer_iterations} rho_observed={report.rho_observed:.6g}"
    )
    print(f"wrote {sol_path} and {rep_path}")
    return 0 if report.converged else 3


def _cmd_certify(cfg: ExperimentConfig, problem: QVIProblem, command: str) -> int:
    cert = problem_certificate(problem)
    print("c,L_A,L_N,gamma,L_phi,rho,smallness_ok")
    print(cert.csv_row())
    print(f"rho = {cert.rho:.6g} ({'ok' if cert.smallness_ok else 'smallness violated'})")
    return 0 if cert.smallness_ok else 2


def _cmd_study(cfg: ExperimentConfig, problem: QVIProblem, kind: str) -> int:
    (path,) = _targets(cfg.out, (kind,))  # the kind is the result's name
    _, keys, run = STUDIES[kind]
    values = {key: cfg.study.get(key, default) for key, (_, _, default) in keys.items()}
    # the problem built already serves its own mesh, so it is not built twice
    result = run(
        problem,
        lambda n: problem if n == problem.f.mesh.n else cfg.build_problem(n=n),
        values, cfg.outer, cfg.inner,
    )
    result.seed = cfg.seed
    _write_text(path, result.to_csv())
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


# subcommand -> (help line, handler(cfg, problem, command)), in help order
_COMMANDS = {
    "solve": ("one solve, writes solution and report CSV", _cmd_solve),
    "trace": ("fixed-point iteration trace from y0=0 with observed contraction ratio", _cmd_solve),
    "certify": ("contraction certificate from structural bounds", _cmd_certify),
}


def _subcommands() -> dict:
    """_COMMANDS and one row per study kind, read from STUDIES when called."""
    return {**_COMMANDS, **{kind: (row[0], _cmd_study) for kind, row in STUDIES.items()}}


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

    for name, (help_text, _) in _subcommands().items():
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
        # before any solve; so does an output target that cannot be written
        problem = cfg.build_problem()
        _, handler = _subcommands()[args.command]
        return handler(cfg, problem, args.command)
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
