import errno
import os
import pathlib
import threading

import numpy as np
import pytest

from qvar.cli import ExperimentConfig, parse_config, run_command
from qvar.errors import ConfigError
from qvar.grid import from_csv
from qvar.problems import builtin_problem
from qvar.qvi_solver import problem_certificate
from qvar.studies import run_mesh_refinement


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_minimal_document_defaults(self):
        cfg = parse_config("[problem]\nname = example1d\n")
        assert cfg.problem_name == "example1d"
        assert cfg.outer.tol == 1e-8
        assert cfg.inner.tol == 1e-10
        assert cfg.outer.max_iter == 200
        assert cfg.inner.max_iter == 10000
        assert cfg.seed == 42
        assert cfg.overrides == {}

    def test_list_value(self):
        cfg = parse_config("[study]\nkind = regpath\neps_list = 1,0.5,0.25,0.1\n")
        assert cfg.study["eps_list"] == [1.0, 0.5, 0.25, 0.1]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("[problem]\nname = example1d\nalpha = -0.5\n")

    def test_unknown_key_names_line(self):
        cases = {
            "bogus = 1\n": "line 1: unknown top-level key 'bogus'",
            "[problem]\nbogus = 1\n": "line 2: unknown key 'bogus' in [problem]",
            "[solver]\ntol_outer = 1e-6\nbogus = abc\n": "line 3: unknown key 'bogus' in [solver]",
            "seed = 1\n[study]\n\nbogus = 1\n": "line 4: unknown key 'bogus' in [study]",
        }
        for text, message in cases.items():
            with pytest.raises(ConfigError) as info:
                parse_config(text)
            assert str(info.value) == message

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[extras]\nx = 1\n")

    def test_malformed_value(self):
        with pytest.raises(ConfigError, match="'n' expects an integer"):
            parse_config("[problem]\nn = abc\n")

    def test_out_of_range(self):
        # the library's rule and message, after the line and key
        with pytest.raises(ConfigError) as info:
            parse_config("[problem]\nn = 1\n")
        assert str(info.value) == "line 2: key 'n' cell count must be >= 2, got 1"
        with pytest.raises(ConfigError) as info:
            parse_config("[problem]\np = 1.5\n")
        assert str(info.value) == "line 2: key 'p' exponent must satisfy p >= 2, got 1.5"
        with pytest.raises(ConfigError, match="omega"):
            parse_config("[solver]\nomega = 2.5\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\n[problem]\nname = fixed_obstacle  # builtin\n")
        assert cfg.problem_name == "fixed_obstacle"

    def test_top_level_seed_and_out(self):
        cfg = parse_config("seed = 9\nout = results\n[problem]\nname = example1d\n")
        assert cfg.seed == 9
        assert cfg.out == "results"

    def test_kernel_obstacle_keys(self):
        cfg = parse_config("[problem]\nname = kernel_qvi\nalpha = 0.1\nkernel = gauss(0.3)\n")
        assert cfg.overrides["alpha"] == 0.1
        assert cfg.overrides["kernel"] == "gauss(0.3)"

    def test_solver_overrides(self):
        cfg = parse_config("[solver]\ntol_outer = 1e-6\nmax_inner = 500\nmax_outer = 50\n")
        assert cfg.outer.tol == 1e-6
        assert cfg.inner.max_iter == 500
        assert cfg.outer.max_iter == 50

    def test_reference_forms(self):
        # each form is parsed once, into the value run_regularization_path takes
        for raw, want in (("smallest-eps", "smallest-eps"), ("1e-6", 1e-6), ("0", 0.0)):
            assert parse_config(f"[study]\nreference = {raw}\n").study["reference"] == want
        mesh = builtin_problem("example1d", n=8).f.mesh
        for raw, level in (("const:0.5", 0.5), ("const:-1", -1.0)):
            reference = parse_config(f"[study]\nreference = {raw}\n").study["reference"]
            assert _uniform(reference(mesh)) == (level,)
        cases = {
            "abc": "line 2: key 'reference' expects a number, got 'abc'",
            "const:abc": "line 2: key 'reference' expects a number, got 'abc'",
            "const:inf": "line 2: key 'reference' must be finite, got 'inf'",
            "-1e-3": "line 2: key 'reference' regularization eps must be nonnegative, got -0.001",
        }
        for raw, message in cases.items():
            with pytest.raises(ConfigError) as info:
                parse_config(f"[study]\nreference = {raw}\n")
            assert str(info.value) == message

    @pytest.mark.parametrize("key", ["omega", "tau"])
    def test_removed_solver_keys(self, tmp_path, key):
        # keys of the deleted SOR and damped projected solvers are unknown keys
        with pytest.raises(ConfigError) as info:
            parse_config(f"[solver]\n{key} = auto\n")
        assert str(info.value) == f"line 2: unknown key '{key}' in [solver]"
        cfg = write_cfg(tmp_path, f"[problem]\nname = example1d\n[solver]\n{key} = 0.5\n")
        assert run_command(["solve", "-c", cfg]) == 4

    @pytest.mark.parametrize(
        "key, value",
        [
            ("obstacle.alpha", "0.1"),
            ("obstacle.c0", "0.4"),
            ("obstacle.kernel", "one"),
            ("obstacle.psi_file", "psi.csv"),
            ("obstacle.kind", "kernel"),
        ],
    )
    def test_dotted_obstacle_keys_are_unknown(self, tmp_path, capsys, key, value):
        # every [problem] setting has one spelling, and the builtin fixes its obstacle
        cfg = write_cfg(
            tmp_path, f"out = {tmp_path}\n[problem]\nname = kernel_qvi\n{key} = {value}\n"
        )
        assert run_command(["solve", "-c", cfg]) == 4
        err = capsys.readouterr().err
        assert err == f"config error: line 4: unknown key '{key}' in [problem]\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_readme_config_block_parses(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(block)
        assert (cfg.seed, cfg.out, cfg.problem_name) == (42, "results", "example1d")
        assert cfg.overrides == {"n": 64}
        assert cfg.study["eps_list"] == [0.5, 0.25, 0.125, 0.0625, 0.03125]


# the overrides each builtin reads, besides n, bc, f_level and F_level
BUILTIN_OVERRIDES = {
    "example1d": ("alpha", "c0"),
    "plaplacian": ("p", "eps_op", "psi_level", "psi_file"),
    "kernel_qvi": ("alpha", "kernel", "psi_level", "psi_file"),
    "nonmonotone_sine": ("lam", "alpha", "c0"),
    "fixed_obstacle": ("psi_level", "psi_file"),
}
OVERRIDE_VALUES = {
    "alpha": 0.2, "c0": 0.4, "p": 2.5, "eps_op": 1e-2, "psi_level": 0.04,
    "psi_file": "/nonexistent/psi.csv", "kernel": "one", "lam": 0.2,
}
_OWN = [(name, key) for name, own in BUILTIN_OVERRIDES.items() for key in own]
_FOREIGN = [
    (name, key) for name, own in BUILTIN_OVERRIDES.items() for key in OVERRIDE_VALUES if key not in own
]


class TestBuiltinOverrides:
    @pytest.mark.parametrize("name, key", _OWN)
    def test_own_override_is_read(self, tmp_path, name, key):
        value = OVERRIDE_VALUES[key]
        if key == "psi_file":
            value = tmp_path / "psi.csv"
            value.write_text("".join(f"{i / 8!r},0.03\n" for i in range(9)), encoding="utf-8")
        prob = builtin_problem(name, n=8, **{key: value})
        op, omap = prob.operator, prob.obstacle_map
        seen = {
            "alpha": lambda: omap.alpha,
            "c0": lambda: omap.c0,
            "p": lambda: op.p,
            "eps_op": lambda: op.eps,
            "psi_level": lambda: _uniform(omap.psi_base),
            "psi_file": lambda: _uniform(omap.psi_base),
            "kernel": lambda: tuple(np.unique(omap.kernel_column)),
            "lam": lambda: op.lam,
        }[key]()
        expected = {"psi_level": (0.04,), "psi_file": (0.03,), "kernel": (1.0,)}
        assert seen == expected.get(key, value)

    @pytest.mark.parametrize("name, key", _FOREIGN)
    def test_foreign_override_rejected(self, name, key):
        with pytest.raises(ValueError) as info:
            builtin_problem(name, n=8, **{key: OVERRIDE_VALUES[key]})
        message = str(info.value)
        assert f"problem {name!r} does not take {key};" in message
        assert message.endswith(f"its overrides are {', '.join(BUILTIN_OVERRIDES[name])}")

    @pytest.mark.parametrize(
        "name, line, key",
        [
            ("example1d", "kernel = one", "kernel"),
            ("example1d", "psi_file = /nonexistent/psi.csv", "psi_file"),
            ("example1d", "lambda = 0.2", "lambda"),
            ("kernel_qvi", "c0 = 9", "c0"),
            ("nonmonotone_sine", "psi = 0.1", "psi"),
        ],
    )
    def test_foreign_config_key_is_config_error(self, tmp_path, capsys, name, line, key):
        # reported by its config key and line, before any solve
        cfg = write_cfg(tmp_path, f"out = {tmp_path}\n[problem]\nname = {name}\n{line}\n")
        assert run_command(["solve", "-c", cfg]) == 4
        err = capsys.readouterr().err
        spelling = {"lam": "lambda", "psi_level": "psi"}
        own = ", ".join(spelling.get(k, k) for k in BUILTIN_OVERRIDES[name])
        assert err == (
            f"config error: line 4: key '{key}' does not apply to problem '{name}'; "
            f"its overrides are {own}\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    def test_foreign_key_checked_against_the_final_name(self):
        # the name may follow the override; the first foreign line is named
        text = "[problem]\nalpha = 0.2\np = 4\nlambda = 0.3\nname = plaplacian\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == (
            "line 2: key 'alpha' does not apply to problem 'plaplacian'; "
            "its overrides are p, eps_op, psi, psi_file"
        )
        cfg = parse_config("[problem]\nlambda = 0.3\nname = nonmonotone_sine\n")
        assert cfg.build_problem().operator.lam == 0.3
        # with no name, the problem is example1d
        with pytest.raises(ConfigError, match="^line 2: key 'p' does not apply to .*'example1d'"):
            parse_config("[problem]\np = 4\n")


class TestSolveCommand:
    def test_golden_solution_written(self, tmp_path):
        cfg = write_cfg(tmp_path, f"out = {tmp_path}\n[problem]\nname = example1d\n")
        rc = run_command(["solve", "-c", cfg])
        assert rc == 0
        sol = from_csv((tmp_path / "example1d_solution.csv").read_text(), "neumann")
        assert np.max(np.abs(sol.values - 2.0 / 3.0)) <= 1e-6
        report = (tmp_path / "example1d_report.csv").read_text()
        assert "converged=True" in report

    def test_solution_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, f"out = {tmp_path}\n[problem]\nname = fixed_obstacle\n")
        assert run_command(["solve", "-c", cfg]) == 0
        text = (tmp_path / "fixed_obstacle_solution.csv").read_text()
        sol = from_csv(text, "dirichlet")
        from qvar.grid import to_csv

        assert to_csv(sol) == text

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = example1d\n[solver]\nmax_outer = 2\n",
        )
        assert run_command(["solve", "-c", cfg]) == 3

    def test_plaplacian_fine_mesh(self, tmp_path):
        cfg = write_cfg(
            tmp_path, f"out = {tmp_path}\n[problem]\nname = plaplacian\nn = 256\n"
        )
        assert run_command(["solve", "-c", cfg]) == 0
        assert "converged=True" in (tmp_path / "plaplacian_report.csv").read_text()

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[problem]\nalpha = -1\n")
        assert run_command(["solve", "-c", cfg]) == 4

    def test_missing_config_file(self):
        assert run_command(["solve", "-c", "/nonexistent/path.cfg"]) == 4

    def test_singular_newton_system(self, tmp_path, capsys):
        # the a0 = 0 stiffness on a neumann mesh is singular with no node
        # held; the step to the obstacle puts every node on it
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = fixed_obstacle\nbc = neumann\nn = 16\n",
        )
        assert run_command(["solve", "-c", cfg]) == 0
        assert capsys.readouterr().err == ""
        sol = from_csv((tmp_path / "fixed_obstacle_solution.csv").read_text(), "neumann")
        assert np.all(sol.values == 0.05)

    def test_strong_sine_fine_mesh(self, tmp_path, capsys):
        # near the solution the energy's round-off exceeds 1e-14 (|e| + 1), so a
        # full Newton step can read higher than the current energy
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = nonmonotone_sine\nlambda = 0.9\nn = 1024\n",
        )
        assert run_command(["solve", "-c", cfg]) == 0
        assert capsys.readouterr().err == ""
        assert "converged=True" in (tmp_path / "nonmonotone_sine_report.csv").read_text()

    def test_singular_stiffness_negative_force(self, tmp_path, capsys):
        # with f < 0 the energy falls without bound below the obstacle: no solution
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = fixed_obstacle\nbc = neumann\nn = 16\n"
            "f = -1\n",
        )
        assert run_command(["solve", "-c", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: Newton step underflowed at residual ")

    def test_overflowing_start_warns_nothing(self, tmp_path, capsys):
        # the merit of the start overflows to inf; no RuntimeWarning escapes
        cfg = write_cfg(tmp_path, f"out = {tmp_path}\n[problem]\nname = example1d\nalpha = 1e300\n")
        assert run_command(["solve", "-c", cfg]) == 3
        err = capsys.readouterr().err
        assert err == "solver error: Newton step underflowed at residual 5.000e+299\n"
        # the targets are checked before the solve without creating either
        assert not list(tmp_path.glob("*.csv"))


class TestTraceAndCertify:
    def test_trace_reports_quarter_ratio(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"out = {tmp_path}\n[problem]\nname = example1d\n")
        assert run_command(["trace", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert "rho_observed=0.25" in out

    def test_certify_golden(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[problem]\nname = example1d\n")
        assert run_command(["certify", "-c", cfg]) == 0
        out = capsys.readouterr().out
        rho = float(out.splitlines()[1].split(",")[5])
        assert rho == pytest.approx(0.25, abs=0.01)

    def test_certify_prints_problem_certificate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "seed = 3\n[problem]\nname = plaplacian\nn = 16\n")
        run_command(["certify", "-c", cfg])
        row = capsys.readouterr().out.splitlines()[1]
        cert = problem_certificate(builtin_problem("plaplacian", n=16))
        assert row == cert.csv_row()

    def test_certify_unregularized_plaplacian(self, tmp_path, capsys):
        # eps_op = 0: the linear part of the flux is zero, so c = 0
        cfg = write_cfg(tmp_path, "[problem]\nname = plaplacian\nn = 16\neps_op = 0\n")
        assert run_command(["certify", "-c", cfg]) == 2
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:2] == ["0", "inf"]

    def test_certify_dirichlet_constant_mean(self, tmp_path, capsys):
        # on a dirichlet mesh L_phi counts the jump of the constant obstacle
        # to the boundary zeros, which breaks smallness at n = 64
        cfg = write_cfg(tmp_path, "[problem]\nname = example1d\nbc = dirichlet\nn = 64\n")
        assert run_command(["certify", "-c", cfg]) == 2
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(2.817, abs=1e-3)
        assert row[6] == "False"

    def test_certify_smallness_failure(self, tmp_path):
        cfg = write_cfg(tmp_path, "[problem]\nname = example1d\nalpha = 1.5\n")
        assert run_command(["certify", "-c", cfg]) == 2

    @pytest.mark.parametrize("command", ["certify", "solve"])
    @pytest.mark.parametrize("sigma", ["nan", "1e-200", "inf", "-1"])
    def test_invalid_gauss_width_is_config_error(self, tmp_path, capsys, command, sigma):
        # the width is checked where the key is read, so the error names its line
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = kernel_qvi\nn = 16\nkernel = gauss({sigma})\n",
        )
        assert run_command([command, "-c", cfg]) == 4
        assert capsys.readouterr().err == (
            "config error: line 5: key 'kernel' gauss kernel width must be positive with "
            f"2*sigma^2 finite and >= 2.23e-308, got {float(sigma)}\n"
        )


class TestStudies:
    def test_malformed_reference_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, f"out = {tmp_path}\n[study]\nkind = regpath\nreference = const:abc\n"
        )
        assert run_command(["regpath", "-c", cfg]) == 4
        err = capsys.readouterr().err
        assert err == "config error: line 4: key 'reference' expects a number, got 'abc'\n"
        assert not (tmp_path / "regpath.csv").exists()

    def test_regpath_writes_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = fixed_obstacle\n"
            "[study]\nkind = regpath\neps_list = 0.5,0.25,0.125,0.0625,0.03125\nreference = 1e-6\n",
        )
        assert run_command(["regpath", "-c", cfg]) == 0
        text = (tmp_path / "regpath.csv").read_text()
        assert text.startswith("# study=regpath seed=42 reference=eps=1e-06")
        assert "# verdict eps_monotone=True" in text

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = example1d\n"
            "[study]\nkind = perturb\ndelta_list = 0.4,0.2,0.1,0.05\n",
        )
        assert run_command(["perturb", "-c", cfg]) == 0
        first = (tmp_path / "perturb.csv").read_bytes()
        assert run_command(["perturb", "-c", cfg]) == 0
        assert (tmp_path / "perturb.csv").read_bytes() == first

    def test_jobs_flag_same_bytes(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = example1d\n"
            "[study]\nkind = regpath\neps_list = 0.5,0.25,0.125,0.0625\n",
        )
        assert run_command(["regpath", "-c", cfg]) == 0
        seq = (tmp_path / "regpath.csv").read_bytes()
        assert run_command(["regpath", "-c", cfg, "--jobs", "4"]) == 0
        assert (tmp_path / "regpath.csv").read_bytes() == seq

    def test_jobs_starts_no_thread(self, tmp_path, monkeypatch):
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = example1d\nn = 32\n"
            "[study]\nkind = regpath\neps_list = 0.5,0.25,0.125,0.0625\n",
        )
        assert run_command(["regpath", "-c", cfg, "--jobs", "1"]) == 0
        seq = (tmp_path / "regpath.csv").read_bytes()
        n_list = [8, 16, 32, 64]
        refine_seq = run_mesh_refinement(lambda n: builtin_problem("kernel_qvi", n=n), n_list)

        def no_threads(self):
            raise RuntimeError("a study started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        assert run_command(["regpath", "-c", cfg, "--jobs", "2"]) == 0
        assert (tmp_path / "regpath.csv").read_bytes() == seq
        refine = run_mesh_refinement(lambda n: builtin_problem("kernel_qvi", n=n), n_list)
        assert refine.to_csv() == refine_seq.to_csv()

    def test_refine_on_builtin(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = kernel_qvi\n"
            "[study]\nkind = refine\nn_list = 8,16,32,64\n",
        )
        assert run_command(["refine", "-c", cfg]) == 0
        assert (tmp_path / "refine.csv").exists()

    def test_robust_on_builtin(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = example1d\n"
            "[study]\nkind = robust\nf_deltas = 0.2,0.1,0.05,0.025\n",
        )
        assert run_command(["robust", "-c", cfg]) == 0
        assert "# verdict monotone_in_f=True" in (tmp_path / "robust.csv").read_text()

    def test_unconverged_point_exits_3(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = example1d\nn = 32\n[solver]\nmax_outer = 1\n",
        )
        assert run_command(["regpath", "-c", cfg]) == 3
        assert (tmp_path / "regpath.csv").exists()

    def test_failed_verdict_exits_2(self, tmp_path, capsys):
        # the error against the reference 0 is the norm of the solution, which grows as eps falls
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = fixed_obstacle\nn = 32\n"
            "[study]\nreference = const:0\n",
        )
        assert run_command(["regpath", "-c", cfg]) == 2
        assert "verdict errors_nonincreasing=False" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["regpath", "perturb", "refine", "robust"])
    def test_negative_force_is_config_error(self, tmp_path, capsys, command):
        # every study solves the minimal branch, whose hypothesis is f >= 0
        cfg = write_cfg(
            tmp_path, f"out = {tmp_path}\n[problem]\nname = example1d\nn = 32\nf = -0.5\n"
        )
        assert run_command([command, "-c", cfg]) == 4
        err = capsys.readouterr().err
        assert err == "config error: the monotone modes require a nonnegative force\n"


class TestOutputFiles:
    """Outputs are rewritten in place: a rerun over longer files leaves the
    bytes of a fresh run, and an output that cannot be written exits 4."""

    _EPS = "[study]\neps_list = 0.5,0.25,0.125,0.0625\n"

    def _run(self, tmp_path, command, out, n, study=""):
        cfg = write_cfg(tmp_path, f"[problem]\nname = example1d\nn = {n}\n{study}", f"{out}.cfg")
        return run_command([command, "-c", cfg, "--out", str(tmp_path / out)])

    @pytest.mark.parametrize(
        "command, files",
        [
            ("solve", ("example1d_solution.csv", "example1d_report.csv")),
            ("regpath", ("regpath.csv",)),
        ],
    )
    def test_rerun_over_longer_outputs_gives_fresh_bytes(self, tmp_path, command, files):
        # the longer files: a finer mesh, and for regpath two more eps
        longer = "[study]\neps_list = 0.5,0.25,0.125,0.0625,0.03125,0.015625\n"
        assert self._run(tmp_path, command, "used", 64, longer) == 0
        old = {name: (tmp_path / "used" / name).read_bytes() for name in files}
        assert self._run(tmp_path, command, "used", 8, self._EPS) == 0
        assert self._run(tmp_path, command, "fresh", 8, self._EPS) == 0
        # example1d's report does not depend on n; its solution does
        assert len(old[files[0]]) > len((tmp_path / "fresh" / files[0]).read_bytes())
        for name in files:
            assert (tmp_path / "used" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize("command, name", [("solve", "example1d_solution.csv"),
                                               ("regpath", "regpath.csv")])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, command, name):
        path = tmp_path / "out" / name
        path.mkdir(parents=True)
        assert self._run(tmp_path, command, "out", 8, self._EPS) == 4
        assert capsys.readouterr().err == (
            f"config error: cannot write {path}: {os.strerror(errno.EISDIR)}\n"
        )

    @pytest.mark.parametrize("old", [b"old solution\n", None])
    def test_unwritable_report_leaves_the_solution_alone(self, tmp_path, capsys, old):
        solution = tmp_path / "out" / "example1d_solution.csv"
        report = tmp_path / "out" / "example1d_report.csv"
        report.mkdir(parents=True)
        if old is not None:
            solution.write_bytes(old)
        assert self._run(tmp_path, "solve", "out", 8) == 4
        assert capsys.readouterr().err == (
            f"config error: cannot write {report}: {os.strerror(errno.EISDIR)}\n"
        )
        # an old solution keeps its bytes, and a missing one is not created
        assert (solution.read_bytes() if solution.exists() else None) == old

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_output_is_opened_once(self, tmp_path):
        # the check before the solve leaves a pipe alone: opening it would
        # hand its reader an empty file
        fifo = tmp_path / "out" / "example1d_report.csv"
        fifo.parent.mkdir()
        os.mkfifo(fifo)
        sessions = []

        def read():
            while not sessions or sessions[-1] == b"":
                with open(fifo, "rb") as fh:
                    sessions.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        assert self._run(tmp_path, "solve", "out", 8) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert len(sessions) == 1
        assert sessions[0].startswith(b"outer_iter,step_norm,ratio\n")

    def test_rerun_keeps_permission_bits(self, tmp_path):
        assert self._run(tmp_path, "solve", "out", 8) == 0
        path = tmp_path / "out" / "example1d_solution.csv"
        os.chmod(path, 0o600)
        assert self._run(tmp_path, "solve", "out", 8) == 0
        assert path.stat().st_mode & 0o777 == 0o600


def _uniform(gf):
    return tuple(np.unique(gf.values))


class TestConfigKeysReachTheRun:
    @pytest.mark.parametrize(
        "text, command, seen, expected",
        [
            (
                "[problem]\nname = plaplacian\np = 4.5",
                "perturb",
                lambda prob, a: prob.operator.p,
                4.5,
            ),
            (
                "[problem]\nname = plaplacian\neps_op = 0.02",
                "perturb",
                lambda prob, a: prob.operator.eps,
                0.02,
            ),
            (
                "[problem]\nname = nonmonotone_sine\nlambda = 0.3",
                "perturb",
                lambda prob, a: prob.operator.lam,
                0.3,
            ),
            (
                "[problem]\nname = example1d\nc0 = 0.7",
                "perturb",
                lambda prob, a: prob.obstacle_map.c0,
                0.7,
            ),
            (
                "[problem]\nname = fixed_obstacle\npsi = 0.03",
                "perturb",
                lambda prob, a: _uniform(prob.obstacle_map.psi_base),
                (0.03,),
            ),
            (
                "[problem]\nname = example1d\nf = 0.8",
                "perturb",
                lambda prob, a: _uniform(prob.f),
                (0.8,),
            ),
            (
                "[problem]\nname = example1d\nF = 1.5",
                "perturb",
                lambda prob, a: _uniform(prob.F),
                (1.5,),
            ),
            (
                "[problem]\nname = kernel_qvi\nn = 16\nkernel = one",
                "perturb",
                lambda prob, a: tuple(np.unique(prob.obstacle_map.kernel_column)),
                (1.0,),
            ),
            ("[study]\nfamily = coefficient", "perturb", lambda prob, a: a[0], "coefficient"),
            ("[study]\nreference = const:0.25", "regpath", lambda prob, a: _uniform(a[1]), (0.25,)),
        ],
    )
    def test_value_reaches_problem_or_study(
        self, tmp_path, monkeypatch, text, command, seen, expected
    ):
        from qvar import studies
        from qvar.studies import StudyResult

        calls = []

        def record(problem, *args, **kwargs):
            calls.append((problem, args))
            return StudyResult(command, [], (), None, {})

        # the study table's runners call these through the studies module
        monkeypatch.setattr(studies, "run_operator_perturbation", record)
        monkeypatch.setattr(studies, "run_regularization_path", record)
        cfg = write_cfg(tmp_path, f"out = {tmp_path}\n{text}\n")
        assert run_command([command, "-c", cfg]) == 0
        [(problem, args)] = calls
        assert seen(problem, args) == expected


# one entry for every [study] key of every kind, and kind
ALL_STUDY_KEYS = {
    "kind": "regpath",
    "eps_list": "0.5,0.25,0.125,0.0625",
    "reference": "1e-6",
    "family": "coefficient",
    "delta_list": "0.4,0.2,0.1,0.05",
    "n_list": "4,8,16,32",
    "f_deltas": "0.2,0.1,0.05,0.025",
    "phi_deltas": "0.02,0.01,0.005,0.0025",
}


class TestStudyTable:
    """The CLI derives its study subcommands, [study] keys and dispatch from
    qvar.studies.STUDIES."""

    @pytest.fixture
    def fresh_parser(self):
        from qvar import cli

        cli._build_parser.cache_clear()
        yield
        cli._build_parser.cache_clear()

    def _study(self, tmp_path, kind, keys, out):
        study = "".join(f"{key} = {value}\n" for key, value in keys.items())
        cfg = write_cfg(tmp_path, f"[problem]\nname = example1d\nn = 16\n[study]\n{study}", f"{out}.cfg")
        code = run_command([kind, "-c", cfg, "--out", str(tmp_path / out)])
        return code, (tmp_path / out / f"{kind}.csv").read_bytes()

    def test_all_keys_config_serves_every_study(self, tmp_path):
        from qvar.studies import STUDIES

        own = {kind: set(keys) for kind, (_, keys, _) in STUDIES.items()}
        assert set(ALL_STUDY_KEYS) == {"kind"}.union(*own.values())
        for kind, keys in own.items():
            code, shared = self._study(tmp_path, kind, ALL_STUDY_KEYS, f"{kind}-all")
            assert code == 0
            only = {key: ALL_STUDY_KEYS[key] for key in keys}
            assert self._study(tmp_path, kind, only, f"{kind}-own") == (0, shared)

    def test_refine_builds_each_level_once(self, tmp_path, monkeypatch):
        from qvar import cli

        built = []

        def counted(name, **overrides):
            built.append(overrides["n"])
            return builtin_problem(name, **overrides)

        monkeypatch.setattr(cli, "builtin_problem", counted)
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = kernel_qvi\nn = 128\n"
            "[study]\nn_list = 8,16,32,64,128\n",
        )
        assert run_command(["refine", "-c", cfg]) == 0
        # the config's problem serves the finest level
        assert built == [128, 8, 16, 32, 64]

    def test_new_kind_is_one_table_entry(self, tmp_path, monkeypatch, capsys, fresh_parser):
        from qvar import studies
        from qvar.studies import StudyResult

        def increasing(values):
            if values != sorted(values):
                raise ValueError("must increase")
            return values

        seen = []

        def run(problem, problem_on, values, outer, inner):
            seen.append((problem.f.mesh.n, values))
            return StudyResult("toy", [(1.0, 0.5, 3)], ("count",), None, {"toy_ok": True})

        toy = ("toy study", {"toy_list": (int, increasing, (2, 4))}, run)
        monkeypatch.setitem(studies.STUDIES, "toy", toy)
        assert run_command(["--help"]) == 0
        assert "toy study" in capsys.readouterr().out
        base = f"out = {tmp_path}\n[problem]\nn = 8\n[study]\nkind = toy\n"
        assert run_command(["toy", "-c", write_cfg(tmp_path, base)]) == 0
        assert run_command(["toy", "-c", write_cfg(tmp_path, base + "toy_list = 1,3\n")]) == 0
        assert seen == [(8, {"toy_list": (2, 4)}), (8, {"toy_list": [1, 3]})]
        assert (tmp_path / "toy.csv").read_text().splitlines()[:3] == [
            "# study=toy seed=42 reference=none", "parameter,error,count", "1,0.5,3"
        ]
        capsys.readouterr()
        assert run_command(["toy", "-c", write_cfg(tmp_path, base + "toy_list = 3,1\n")]) == 4
        assert capsys.readouterr().err == "config error: line 6: key 'toy_list' must increase\n"
        assert len(seen) == 2


class TestCrossProcessDeterminism:
    def test_study_bytes_identical_across_processes(self, tmp_path):
        import subprocess
        import sys

        cfg = write_cfg(
            tmp_path,
            "[problem]\nname = example1d\n"
            "[study]\nkind = regpath\neps_list = 0.5,0.25,0.125,0.0625\n",
        )
        outputs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            proc = subprocess.run(
                [sys.executable, "-m", "qvar.cli", "regpath", "-c", cfg, "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append((out / "regpath.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestSeedPrecedence:
    @pytest.mark.parametrize("env", ["77", "abc"])
    def test_environment_seed_is_ignored(self, tmp_path, monkeypatch, capsys, env):
        monkeypatch.setenv("QVAR_SEED", env)
        cfg = write_cfg(
            tmp_path,
            f"seed = 1\nout = {tmp_path}\n[problem]\nname = example1d\n"
            "[study]\nkind = regpath\neps_list = 0.5,0.25,0.125,0.0625\n",
        )
        assert run_command(["regpath", "-c", cfg]) == 0
        assert "seed=1" in (tmp_path / "regpath.csv").read_text()
        assert run_command(["oracle-check", "--trials", "2", "--ndof", "3"]) == 0
        out, err = capsys.readouterr()
        assert "seed=42" in out
        assert err == ""

    def test_oracle_check_seed_precedence(self, capsys):
        argv = ["oracle-check", "--trials", "2", "--ndof", "3"]
        assert run_command(argv) == 0
        assert "seed=42" in capsys.readouterr().out
        assert run_command(argv + ["--seed", "5"]) == 0
        assert "seed=5" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            f"seed = 1\nout = {tmp_path}\n[problem]\nname = example1d\n"
            "[study]\nkind = regpath\neps_list = 0.5,0.25,0.125,0.0625\n",
        )
        assert run_command(["regpath", "-c", cfg, "--seed", "5"]) == 0
        assert "seed=5" in (tmp_path / "regpath.csv").read_text()


class TestParserReuse:
    """run_command reuses one parser; each call must still parse as a fresh one would."""

    def test_parser_built_once(self):
        from qvar import cli

        assert cli._build_parser() is cli._build_parser()

    def test_seed_flag_does_not_persist(self, capsys):
        argv = ["oracle-check", "--trials", "2", "--ndof", "3"]
        assert run_command(argv + ["--seed", "5"]) == 0
        assert "seed=5" in capsys.readouterr().out
        assert run_command(argv) == 0
        assert "seed=42" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad", [["frobnicate"], ["solve", "--seed", "abc"], ["oracle-check", "--bogus"]]
    )
    def test_rejected_argv_leaves_no_trace(self, tmp_path, capsys, bad):
        cfg = write_cfg(tmp_path, f"out = {tmp_path}\n[problem]\nname = example1d\nn = 8\n")
        assert run_command(bad) == 4
        capsys.readouterr()
        assert run_command(["solve", "-c", cfg]) == 0
        assert (tmp_path / "example1d_solution.csv").exists()
        assert capsys.readouterr().err == ""


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        assert run_command(["oracle-check", "--trials", "25", "--ndof", "6", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "verdict oracle_equivalence=True" in out

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_is_config_error(self, trials, capsys):
        assert run_command(["oracle-check", "--trials", str(trials)]) == 4
        assert capsys.readouterr().err == f"config error: --trials must be >= 1, got {trials}\n"

    def test_bad_argv_is_config_error(self):
        assert run_command(["frobnicate"]) == 4

    def test_bad_study_list_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            f"out = {tmp_path}\n[problem]\nname = kernel_qvi\n[study]\nkind = refine\nn_list = 8,12\n",
            encoding="utf-8",
        )
        assert run_command(["refine", "-c", str(cfg)]) == 4


class TestConfigErrorMessages:
    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (
                "[study]\neps_list = 0.5,abc\n",
                ["regpath"],
                "line 2: key 'eps_list' expects a comma-separated list, got '0.5,abc'",
            ),
            ("[problem]\nn 64\n", ["solve"], "line 2: expected 'key = value', got 'n 64'"),
            (
                "[problem]\nname = bogus\n",
                ["solve"],
                "line 2: key 'name' must be one of example1d, plaplacian, kernel_qvi, "
                "nonmonotone_sine, fixed_obstacle, got 'bogus'",
            ),
            (None, ["oracle-check", "--ndof", "0"], "--ndof must lie in [1, 16], got 0"),
            (None, ["oracle-check", "--ndof", "17"], "--ndof must lie in [1, 16], got 17"),
            (
                "[problem]\nname = kernel_qvi\nkernel = gauss()\n",
                ["solve"],
                "line 3: key 'kernel' expects a number as the gauss width, got 'gauss()'",
            ),
            (
                "[problem]\nname = kernel_qvi\nkernel = gauss(abc)\n",
                ["certify"],
                "line 3: key 'kernel' expects a number as the gauss width, got 'gauss(abc)'",
            ),
            # range rules the library owns: its message after the line and key
            ("[problem]\nn = 1\n", ["solve"], "line 2: key 'n' cell count must be >= 2, got 1"),
            (
                "[problem]\nbc = periodic\n",
                ["solve"],
                "line 2: key 'bc' boundary tag must be one of ('dirichlet', 'neumann'), "
                "got 'periodic'",
            ),
            (
                "[problem]\nname = plaplacian\np = 1.5\n",
                ["certify"],
                "line 3: key 'p' exponent must satisfy p >= 2, got 1.5",
            ),
            (
                "[problem]\nname = plaplacian\neps_op = -1\n",
                ["certify"],
                "line 3: key 'eps_op' regularization eps must be nonnegative, got -1.0",
            ),
            (
                "[problem]\nalpha = -0.5\n",
                ["certify"],
                "line 2: key 'alpha' coupling weight alpha must be finite and nonnegative, "
                "got -0.5",
            ),
            (
                "[solver]\ntol_outer = 0\n",
                ["solve"],
                "line 2: key 'tol_outer' tolerance must be positive, got 0.0",
            ),
            (
                "[solver]\ntol_inner = -1e-3\n",
                ["solve"],
                "line 2: key 'tol_inner' tolerance must be positive, got -0.001",
            ),
            (
                "[solver]\nmax_outer = 0\n",
                ["solve"],
                "line 2: key 'max_outer' max_iter must be positive, got 0",
            ),
            (
                "[solver]\nmax_inner = -5\n",
                ["solve"],
                "line 2: key 'max_inner' max_iter must be positive, got -5",
            ),
            (
                "[study]\neps_list = 0.5,0.25\n",
                ["regpath"],
                "line 2: key 'eps_list' eps_list needs at least 4 entries, got 2",
            ),
            (
                "[study]\neps_list = 0.5,0.25,0.125,0\n",
                ["regpath"],
                "line 2: key 'eps_list' eps_list must be positive",
            ),
            (
                "[study]\ndelta_list = 0.4,0.2,0.2,0.1\n",
                ["perturb"],
                "line 2: key 'delta_list' delta_list must be strictly decreasing",
            ),
            (
                "[study]\nn_list = 1,2,4,8\n",
                ["refine"],
                "line 2: key 'n_list' cell count must be >= 2, got 1",
            ),
            (
                "[study]\nfamily = rotation\n",
                ["perturb"],
                "line 2: key 'family' perturbation family must be one of "
                "('scaled_identity', 'coefficient'), got 'rotation'",
            ),
            (None, ["oracle-check", "--seed", "-3"], "--seed expected non-negative integer"),
            # list entries are finite, as every number is
            (
                "[problem]\nn = 8\n[study]\neps_list = inf,1,0.5,0.25\n",
                ["regpath"],
                "line 4: key 'eps_list' must be finite, got 'inf'",
            ),
            (
                "[problem]\nn = 8\n[study]\neps_list = 1,nan,0.5,0.25\n",
                ["regpath"],
                "line 4: key 'eps_list' must be finite, got 'nan'",
            ),
            (
                "[problem]\nn = 8\n[study]\nf_deltas = inf,1,0.5,0.25\n",
                ["robust"],
                "line 4: key 'f_deltas' must be finite, got 'inf'",
            ),
            # the builder's refusal of the mesh that bc picked
            (
                "[problem]\nname = plaplacian\nbc = neumann\nn = 8\n",
                ["certify"],
                "line 3: key 'bc' the p-Laplacian is assembled on dirichlet meshes only",
            ),
            # refine's rules on n_list, checked on its line
            (
                "[study]\nn_list = 16,8,32,64\n",
                ["refine"],
                "line 2: key 'n_list' n_list must be strictly increasing",
            ),
            (
                "[study]\nn_list = 8,12,32,64\n",
                ["refine"],
                "line 2: key 'n_list' 12 does not divide the reference cell count 64",
            ),
            (
                "[study]\nn_list = 8,16,32\n",
                ["refine"],
                "line 2: key 'n_list' n_list needs at least 4 entries, got 3",
            ),
            # the choices of kind are the study table's kinds
            (
                "[study]\nkind = stability\n",
                ["regpath"],
                "line 2: key 'kind' must be one of regpath, perturb, refine, robust, "
                "got 'stability'",
            ),
            (
                "[study]\nphi_deltas = 0.02,0.01,0,0.005\n",
                ["robust"],
                "line 2: key 'phi_deltas' entries must be positive",
            ),
        ],
    )
    def test_message_and_exit_code(self, tmp_path, capsys, text, argv, message):
        if text is not None:
            argv = argv + ["-c", write_cfg(tmp_path, text)]
        assert run_command(argv) == 4
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "regpath"])
    @pytest.mark.parametrize("below, reason", [("", "File exists"), ("/sub", "Not a directory")])
    def test_unusable_out_dir_fails_before_solving(
        self, tmp_path, monkeypatch, capsys, command, below, reason
    ):
        from qvar import cli, studies

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output directory was checked")

        monkeypatch.setattr(cli, "solve_qvi_minimal", no_solve)
        monkeypatch.setattr(studies, "run_regularization_path", no_solve)
        (tmp_path / "taken").write_text("", encoding="utf-8")
        out = f"{tmp_path}/taken{below}"
        cfg = write_cfg(tmp_path, "[problem]\nname = example1d\nn = 8\n")
        assert run_command([command, "-c", cfg, "--out", out]) == 4
        assert capsys.readouterr().err == (
            f"config error: cannot create output directory {out}: {reason}\n"
        )


class TestExperimentConfigHelpers:
    def test_build_problem_with_overrides(self):
        cfg = ExperimentConfig(problem_name="example1d", overrides={"n": 16})
        prob = cfg.build_problem()
        assert prob.f.mesh.n == 16

    def test_psi_file_override(self, tmp_path):
        from qvar.grid import GridFunction, make_mesh, to_csv

        mesh = make_mesh(16, "dirichlet")
        psi_path = tmp_path / "psi.csv"
        psi_path.write_text(to_csv(GridFunction.constant(mesh, 0.07)), encoding="utf-8")
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = fixed_obstacle\nn = 16\n"
            f"psi_file = {psi_path}\n",
        )
        assert run_command(["solve", "-c", cfg]) == 0
        sol = from_csv((tmp_path / "fixed_obstacle_solution.csv").read_text(), "dirichlet")
        assert np.max(sol.values) <= 0.07 + 1e-9
        assert np.max(sol.values) >= 0.07 - 1e-9  # obstacle binds in the middle

    def test_psi_file_missing_is_config_error(self, tmp_path, capsys):
        psi_path = tmp_path / "absent.csv"
        cfg = write_cfg(
            tmp_path, f"[problem]\nname = fixed_obstacle\nn = 16\npsi_file = {psi_path}\n"
        )
        assert run_command(["solve", "-c", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read psi_file {psi_path}: ")
        assert "No such file" in err

    def test_psi_file_wrong_resolution_is_config_error(self, tmp_path, capsys):
        from qvar.grid import GridFunction, make_mesh, to_csv

        psi_path = tmp_path / "psi.csv"
        psi_path.write_text(
            to_csv(GridFunction.constant(make_mesh(8, "dirichlet"), 0.07)), encoding="utf-8"
        )
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = fixed_obstacle\nn = 16\n"
            f"psi_file = {psi_path}\n",
        )
        assert run_command(["solve", "-c", cfg]) == 4
        assert capsys.readouterr().err == (
            f"config error: psi_file {psi_path} has 9 nodes, the mesh has 17\n"
        )

    def test_psi_file_malformed_row_is_config_error(self, tmp_path, capsys):
        psi_path = tmp_path / "psi.csv"
        psi_path.write_text("x,value\n0,0\n0.5,0.07,1\n1,0\n", encoding="utf-8")
        cfg = write_cfg(
            tmp_path, f"[problem]\nname = fixed_obstacle\nn = 2\npsi_file = {psi_path}\n"
        )
        assert run_command(["solve", "-c", cfg]) == 4
        assert capsys.readouterr().err == (
            f"config error: psi_file {psi_path}: line 3: expected two numbers x,value, "
            "got '0.5,0.07,1'\n"
        )
