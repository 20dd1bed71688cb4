"""The benchmark workloads: inputs made from a seed, the qvar calls that make
up one pass, and the checks on every output.

An operation is one `qvar` command (through `qvar.cli.run_command`) or one
library call, together with the checks on what it produced.  Only the call
is timed; the checks run afterwards against `checker`, which shares no code
with qvar.  Every config states each overridable level explicitly, so the
checker rebuilds the same problem from the same numbers.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checker as ck

WORKLOADS = ("solve", "studies", "certify-fine")

# the default stated accuracy of qvar, written into every config
TOL_INNER = 1e-10
TOL_OUTER = 1e-8
# error bound on a solution at tol_outer with contraction 1/4: 1e-8 / (1 - 1/4)
_VALUE_TOL = 1e-7
# relative tolerance on eigenvalue-accurate certificate constants
_CONST_RTOL = 1e-4
# sizes of the certify ladder; kernel_qvi certificates from n=256 up hit the
# early stop of estimate_constants and are counted as failed
_CERTIFY_N = (64, 128, 256, 512, 1024, 2048)


class KnownFault(ck.CheckError):
    """A check failed in the way a known fault of qvar predicts: the
    operation counts as failed, the run stays correct."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # "jobs1"/"jobs2" marks the two runs of one study whose ratio is the pool speed-up
    pool: str | None = None


def _jitter(rng: np.random.Generator, base: float, rel: float) -> float:
    """base * (1 + u), u uniform in [-rel, rel]: the seed moves the inputs
    without moving the amount of work."""
    return float(base * (1.0 + rel * (2.0 * rng.random() - 1.0)))


# -------------------------------------------------------------- problems


def _problem(rng, name: str, n: int, f: float | None = None) -> dict:
    """One builtin problem with every overridable level written out."""
    spec = {"name": name, "n": n, "f": f if f is not None else _jitter(rng, 1.0, 0.005)}
    if name in ("example1d", "nonmonotone_sine"):
        # c0 / (1 - alpha) = 2/3 is the golden value
        spec.update(c0=0.5, alpha=0.25)
        if name == "nonmonotone_sine":
            spec["lambda"] = 0.1
    elif name == "kernel_qvi":
        spec.update(psi=_jitter(rng, 0.05, 0.02), alpha=0.25, sigma=0.25)
    elif name == "fixed_obstacle":
        spec["psi"] = _jitter(rng, 0.05, 0.02)
    elif name == "plaplacian":
        # fixed obstacle level: the projected iteration needs 43 % more
        # iterations at psi = 0.0505 than at 0.05
        spec.update(psi=0.05, p=3.0, eps_op=1e-3)
    return spec


_CONFIG_KEYS = ("f", "F", "psi", "c0", "alpha", "p", "eps_op", "lambda")
_LIBRARY_KEYS = {"f": "f_level", "F": "F_level", "psi": "psi_level", "c0": "c0",
                 "alpha": "alpha", "p": "p", "eps_op": "eps_op", "lambda": "lam"}


def _config_text(spec: dict, seed: int, study: dict | None = None) -> str:
    lines = [f"seed = {seed}", "", "[problem]", f"name = {spec['name']}", f"n = {spec['n']}"]
    lines += [f"{k} = {v!r}" for k, v in spec.items() if k in _CONFIG_KEYS]
    if "sigma" in spec:
        lines.append(f"kernel = gauss({spec['sigma']!r})")
    lines += ["", "[solver]", f"tol_inner = {TOL_INNER!r}", f"tol_outer = {TOL_OUTER!r}"]
    if study:
        lines += ["", "[study]"] + [f"{k} = {v}" for k, v in study.items()]
    return "\n".join(lines) + "\n"


def _library_kwargs(spec: dict) -> dict:
    kw = {_LIBRARY_KEYS[k]: v for k, v in spec.items() if k in _LIBRARY_KEYS}
    if "sigma" in spec:
        kw["kernel"] = f"gauss({spec['sigma']!r})"
    return kw


def _checker_problem(spec: dict):
    return ck.builtin(spec["name"], spec["n"], spec)


def _golden(spec: dict) -> float:
    """Minimal solution of the constant-mean problems with constant force:
    the constant min(f, c0 / (1 - alpha))."""
    return min(spec["f"], spec["c0"] / (1.0 - spec["alpha"]))


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ------------------------------------------------------------- operations


class Builder:
    """Writes the configs of one workload and returns its operations."""

    def __init__(self, qvar_cli, qvar_pkg, workdir: str, seed: int):
        self.cli = qvar_cli
        self.qvar = qvar_pkg
        self.workdir = workdir
        self.rng = np.random.default_rng(seed % 2**64)
        self.ops: list[Op] = []

    def _qvar_seed(self) -> int:
        return int(self.rng.integers(1, 2**31 - 1))

    def command(self, name: str, command: str, spec: dict, study: dict | None = None,
                jobs: int = 1, seed: int | None = None):
        """Write the config of one `qvar` command; return its output directory
        and a call that runs it, returning (exit code, stdout, stderr)."""
        out = os.path.join(self.workdir, name)
        os.makedirs(out, exist_ok=True)
        config = os.path.join(out, "experiment.cfg")
        with open(config, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_config_text(spec, self._qvar_seed() if seed is None else seed, study))
        argv = [command, "-c", config, "--out", out, "--jobs", str(jobs)]
        cli = self.cli

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run_command(argv)
            return code, stdout.getvalue(), stderr.getvalue()

        return out, run

    def cli_op(self, name: str, command: str, spec: dict, check, pool: str | None = None,
               **command_kw) -> str:
        out, run = self.command(name, command, spec, **command_kw)
        self.ops.append(Op(name, run, lambda result: check(*result, out), pool=pool))
        return out

    # ---------------------------------------------------------- workloads

    def solve(self) -> None:
        rng = self.rng
        for name, n in (("example1d", 128), ("fixed_obstacle", 128), ("kernel_qvi", 64),
                        ("plaplacian", 64), ("nonmonotone_sine", 24)):
            spec = _problem(rng, name, n)
            self.cli_op(f"solve-{name}-{n}", "solve", spec, _solve_check(spec))
        spec = _problem(rng, "example1d", 64)
        self.cli_op("trace-example1d-64", "trace", spec, _solve_check(spec))
        for name, n, F in (("example1d", 64, 1.1), ("plaplacian", 32, 1.05)):
            spec = _problem(rng, name, n)
            spec["F"] = _jitter(rng, F, 0.005)
            self._pair_op(f"minmax-{name}-{n}", spec)

    def _pair_op(self, name: str, spec: dict) -> None:
        """Library minimal and maximal solves of one problem (ascending from
        0, descending from the unconstrained supersolution A^{-1} F)."""
        qvar = self.qvar
        kwargs = _library_kwargs(spec)

        def run():
            problem = qvar.builtin_problem(spec["name"], n=spec["n"], **kwargs)
            low = qvar.solve_qvi_minimal(problem)
            high = qvar.solve_qvi_maximal(problem, minimal=low.solution)
            return low, high

        def check(result):
            low, high = result
            op, f, omap = _checker_problem(spec)
            for rep, trace in ((low, "increasing"), (high, "decreasing")):
                ck.require(rep.converged, f"{trace} solve did not converge")
                ck.require(rep.monotone_trace == trace,
                           f"iterates are {rep.monotone_trace}, expected {trace}")
                ck.check_qvi(op, f, omap, rep.solution.values, TOL_INNER, TOL_OUTER)
            gap = high.solution.values - low.solution.values
            ck.require(float(np.min(gap)) >= -_VALUE_TOL, f"minimal exceeds maximal by {-np.min(gap):.3e}")
            # both problems are in the unique regime: contraction, or a fixed obstacle
            ck.require(float(np.max(np.abs(gap))) <= _VALUE_TOL,
                       f"minimal and maximal differ by {np.max(np.abs(gap)):.3e}")

        self.ops.append(Op(name, run, check))

    def studies(self) -> None:
        rng = self.rng
        # regpath: two eps above 1/2, where 1/(1+eps) < 2/3 sets the solution
        eps = [_jitter(rng, e, 0.01) for e in (1.0, 0.7, 0.4, 0.2, 0.1, 0.05)]
        spec = _problem(rng, "example1d", 32, f=1.0)
        study = {"kind": "regpath", "eps_list": _csv_list(eps), "reference": "smallest-eps"}
        seed = self._qvar_seed()
        jobs1 = self.cli_op("regpath-jobs1", "regpath", spec, _regpath_check(spec, eps),
                            study=study, seed=seed, pool="jobs1")
        self.cli_op("regpath-jobs2", "regpath", spec, _regpath_check(spec, eps, same_as=jobs1),
                    study=study, seed=seed, jobs=2, pool="jobs2")

        spec = _problem(rng, "fixed_obstacle", 64)
        deltas = [_jitter(rng, d, 0.01) for d in (0.4, 0.2, 0.1, 0.05, 0.025)]
        study = {"kind": "perturb", "family": "coefficient", "delta_list": _csv_list(deltas)}
        self.cli_op("perturb-fixed_obstacle-64", "perturb", spec,
                    _rate_check("perturb", 5, slope_min=0.9, r2_min=0.98), study=study)

        spec = _problem(rng, "kernel_qvi", 128)
        study = {"kind": "refine", "n_list": "8,16,32,64,128"}
        self.cli_op("refine-kernel_qvi", "refine", spec,
                    _rate_check("refine", 4, slope_min=1.0), study=study)

        spec = _problem(rng, "example1d", 32)
        f_deltas = [_jitter(rng, d, 0.01) for d in (0.2, 0.1, 0.05, 0.025)]
        phi_deltas = [_jitter(rng, d, 0.01) for d in (0.08, 0.04, 0.02, 0.01)]
        study = {"kind": "robust", "f_deltas": _csv_list(f_deltas),
                 "phi_deltas": _csv_list(phi_deltas)}
        self.cli_op("robust-example1d-32", "robust", spec,
                    _robust_check(spec, f_deltas, phi_deltas), study=study)

    def certify_fine(self) -> None:
        rng = self.rng
        # One operation per rung: certify kernel_qvi at n, then the example1d
        # control at the same n.  Pairing them keeps the median operation a
        # real certificate rather than a 4 ms control.  The config seed starts
        # the power iteration of estimate_constants: it is fixed so that the
        # seed does not move the amount of work.
        for n in _CERTIFY_N:
            if n < 256:
                kernel = _problem(rng, "kernel_qvi", n)
            else:
                # fixed inputs: this rung fails on every seed until the fault is mended
                kernel = {"name": "kernel_qvi", "n": n, "f": 1.0, "psi": 0.05, "alpha": 0.25,
                          "sigma": 0.25}
            control = _problem(rng, "example1d", n)
            control.update(c0=_jitter(rng, 0.5, 0.1), alpha=_jitter(rng, 0.25, 0.1))
            runs = [self.command(f"certify-{spec['name']}-{n}", "certify", spec, seed=42)[1]
                    for spec in (kernel, control)]
            kernel_check = _certify_check(kernel, fault_expected=n >= 256)
            control_check = _certify_check(control)

            def run(runs=runs):
                return [call() for call in runs]

            def check(results, kernel_check=kernel_check, control_check=control_check):
                kernel_out, control_out = results
                # the control first, so that a fault in it is never excused
                control_check(*control_out)
                kernel_check(*kernel_out)

            self.ops.append(Op(f"certify-{n}", run, check))


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Import qvar, write the workload's configs under workdir and return its
    operations in pass order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    builder = Builder(importlib.import_module("qvar.cli"), importlib.import_module("qvar"),
                      workdir, seed)
    {"solve": builder.solve, "studies": builder.studies,
     "certify-fine": builder.certify_fine}[workload]()
    return builder.ops


# ----------------------------------------------------------------- checks


def _require_exit(code: int, expected: int, stderr: str) -> None:
    ck.require(code == expected, f"exit code {code}, expected {expected}: {stderr.strip()}")


def _solve_check(spec: dict):
    name = spec["name"]

    def check(code, stdout, stderr, out):
        _require_exit(code, 0, stderr)
        op, f, omap = _checker_problem(spec)
        y = ck.read_grid_csv(os.path.join(out, f"{name}_solution.csv"), op.mesh)
        ck.check_qvi(op, f, omap, y, TOL_INNER, TOL_OUTER)
        summary = ck.read_summary(os.path.join(out, f"{name}_report.csv"))
        ck.require(summary["converged"] == "True", "report says not converged")
        ck.require(summary["monotone_trace"] == "increasing",
                   f"iterates from 0 are {summary['monotone_trace']}, expected increasing")
        if name == "example1d":
            dist = float(np.max(np.abs(y - _golden(spec))))
            ck.require(dist <= _VALUE_TOL, f"distance {dist:.3e} from the golden value 2/3")
            # the outer map is y -> c0 + alpha * y on constants: every ratio is alpha
            rho = float(summary["rho_observed"])
            ck.require(abs(rho - spec["alpha"]) <= 1e-6, f"rho_observed {rho} is not {spec['alpha']}")

    return check


def _study(out: str, kind: str) -> dict:
    return ck.read_study_csv(os.path.join(out, f"{kind}.csv"))


def _check_fit(table: dict) -> tuple[float, float] | None:
    """The reported fit must be the least-squares fit of the reported rows."""
    mine = ck.fit_slope([(row[0], row[1]) for row in table["rows"]])
    slope, r2 = table["fit"]["slope"], table["fit"]["r2"]
    if mine is None:
        ck.require(math.isnan(slope), f"fit slope {slope} reported for fewer than 3 usable points")
        return None
    ck.require(abs(slope - mine[0]) <= 1e-9 * max(1.0, abs(mine[0])),
               f"reported slope {slope} differs from the rows' fit {mine[0]}")
    ck.require(abs(r2 - mine[1]) <= 1e-9, f"reported r2 {r2} differs from the rows' fit {mine[1]}")
    return slope, r2


def _regpath_check(spec: dict, eps_list, same_as: str | None = None):
    def check(code, stdout, stderr, out):
        _require_exit(code, 0, stderr)
        table = _study(out, "regpath")
        ck.require(len(table["rows"]) == len(eps_list), f"{len(table['rows'])} rows for {len(eps_list)} eps")
        obstacle = spec["c0"] / (1.0 - spec["alpha"])
        reference = min(spec["f"] / (1.0 + eps_list[-1]), obstacle)
        for eps, row in zip(eps_list, table["rows"]):
            # branch formula: the solution is the constant min{f/(1+eps), c0/(1-alpha)}
            expected = min(spec["f"] / (1.0 + eps), obstacle)
            ck.require(row[0] == eps, f"row parameter {row[0]} is not eps {eps}")
            ck.require(abs(row[2] - expected) <= _VALUE_TOL,
                       f"eps={eps}: solution {row[2]} off the branch formula {expected}")
            # h1 norm of a constant on (0,1) is its absolute value
            ck.require(abs(row[1] - abs(expected - reference)) <= _VALUE_TOL,
                       f"eps={eps}: error {row[1]} is not |{expected} - {reference}|")
        ck.require(all(table["verdicts"].values()) and len(table["verdicts"]) == 2,
                   f"verdicts {table['verdicts']}")
        _check_fit(table)
        if same_as is not None:
            with open(os.path.join(out, "regpath.csv"), "rb") as a, \
                    open(os.path.join(same_as, "regpath.csv"), "rb") as b:
                ck.require(a.read() == b.read(), "--jobs 2 output differs from --jobs 1")

    return check


def _rate_check(kind: str, rows: int, slope_min: float, r2_min: float | None = None):
    def check(code, stdout, stderr, out):
        _require_exit(code, 0, stderr)
        table = _study(out, kind)
        ck.require(len(table["rows"]) == rows, f"{len(table['rows'])} rows, expected {rows}")
        ck.require(all(row[1] > 0 for row in table["rows"]), "an error is not positive")
        fit = _check_fit(table)
        ck.require(fit is not None, "no rate fit")
        ck.require(fit[0] >= slope_min, f"slope {fit[0]:.4g} < {slope_min}")
        if r2_min is not None:
            ck.require(fit[1] >= r2_min, f"r2 {fit[1]:.4g} < {r2_min}")

    return check


def _robust_check(spec: dict, f_deltas, phi_deltas):
    def check(code, stdout, stderr, out):
        _require_exit(code, 0, stderr)
        table = _study(out, "robust")
        base = _golden(spec)
        ck.require(len(table["rows"]) == len(f_deltas), "row count")
        for df, dphi, row in zip(f_deltas, phi_deltas, table["rows"]):
            moved = dict(spec, f=spec["f"] + df, c0=spec["c0"] + dphi)
            expected = abs(_golden(moved) - base)
            ck.require(row[2] == df and row[3] == dphi, f"row deltas {row[2:4]} are not {df, dphi}")
            ck.require(abs(row[1] - expected) <= _VALUE_TOL,
                       f"df={df} dphi={dphi}: error {row[1]} is not {expected}")
        ck.require(table["verdicts"] == {"monotone_in_f": True}, f"verdicts {table['verdicts']}")
        _check_fit(table)

    return check


def _certify_check(spec: dict, fault_expected: bool = False):
    """Checks on one `qvar certify` output.  With fault_expected, a c above
    its closed form -- the early stop of estimate_constants -- is a known
    fault; it is tested last, so any other discrepancy still counts."""
    name, n = spec["name"], spec["n"]

    def check(code, stdout, stderr):
        lines = stdout.splitlines()
        ck.require(len(lines) >= 2 and lines[0] == "c,L_A,L_N,gamma,L_phi,rho,smallness_ok",
                   f"unexpected certify output {stdout[:200]!r} {stderr.strip()}")
        fields = lines[1].split(",")
        c, L_A, L_N, gamma, L_phi, rho = (float(v) for v in fields[:6])
        ok = fields[6] == "True"
        c_exact, L_exact = ck.h1_constants(name, n)
        ck.require(abs(L_A + L_N - L_exact) <= _CONST_RTOL * L_exact,
                   f"L = {L_A + L_N!r}, closed form {L_exact!r}")
        ck.require(L_N == 0.0 and gamma == 0.0, f"linear operator with L_N={L_N}, gamma={gamma}")
        _, _, omap = _checker_problem(spec)
        sampled = ck.lipschitz_samples(omap, np.random.default_rng(n), 8)
        ck.require(L_phi >= sampled * (1.0 - 1e-12), f"L_phi = {L_phi!r} below a sampled ratio {sampled!r}")
        ck.require(abs(rho - (L_A + L_N) * L_phi / c) <= 1e-12 * rho, f"rho = {rho!r} is not L L_phi / c")
        ck.require(ok == (rho < 1.0), f"smallness_ok={ok} with rho={rho}")
        ck.require(ok == (L_exact * L_phi / c_exact < 1.0), "verdict flips with the exact constants")
        _require_exit(code, 0 if ok else 2, stderr)
        if abs(c - c_exact) > _CONST_RTOL * c_exact:
            error = KnownFault if fault_expected and c > c_exact else ck.CheckError
            raise error(f"{name} n={n}: c = {c!r}, closed form {c_exact!r}")

    return check
