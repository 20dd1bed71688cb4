import numpy as np
import pytest

from qvar.cli import ExperimentConfig, parse_config, run_command
from qvar.errors import ConfigError
from qvar.grid import from_csv


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_minimal_document_defaults(self):
        cfg = parse_config("[problem]\nname = example1d\n")
        assert cfg.problem_name == "example1d"
        assert cfg.tol_outer == 1e-8
        assert cfg.tol_inner == 1e-10
        assert cfg.max_outer == 200
        assert cfg.max_inner == 10000
        assert cfg.seed == 42
        assert cfg.overrides == {}

    def test_list_value(self):
        cfg = parse_config("[study]\nkind = regpath\neps_list = 1,0.5,0.25,0.1\n")
        assert cfg.study["eps_list"] == [1.0, 0.5, 0.25, 0.1]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("[problem]\nname = example1d\nalpha = -0.5\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[problem]\nbogus = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[extras]\nx = 1\n")

    def test_malformed_value(self):
        with pytest.raises(ConfigError, match="'n' expects an integer"):
            parse_config("[problem]\nn = abc\n")

    def test_out_of_range(self):
        with pytest.raises(ConfigError, match="'n' must be >= 2"):
            parse_config("[problem]\nn = 1\n")
        with pytest.raises(ConfigError, match="'p'"):
            parse_config("[problem]\np = 1.5\n")
        with pytest.raises(ConfigError, match="omega"):
            parse_config("[solver]\nomega = 2.5\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\n[problem]\nname = fixed_obstacle  # builtin\n")
        assert cfg.problem_name == "fixed_obstacle"

    def test_top_level_seed_and_out(self):
        cfg = parse_config("seed = 9\nout = results\n[problem]\nname = example1d\n")
        assert cfg.seed == 9
        assert cfg.out == "results"

    def test_dotted_obstacle_keys(self):
        cfg = parse_config(
            "[problem]\nname = kernel_qvi\nobstacle.alpha = 0.1\nobstacle.kernel = gauss(0.3)\n"
        )
        assert cfg.overrides["alpha"] == 0.1
        assert cfg.overrides["kernel"] == "gauss(0.3)"

    def test_solver_overrides(self):
        cfg = parse_config("[solver]\ntol_outer = 1e-6\nmax_inner = 500\nmax_outer = 50\n")
        assert cfg.tol_outer == 1e-6
        assert cfg.max_inner == 500
        assert cfg.max_outer == 50

    @pytest.mark.parametrize("key", ["omega", "tau"])
    def test_removed_solver_keys(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"'{key}' in \\[solver\\] was removed"):
            parse_config(f"[solver]\n{key} = auto\n")
        cfg = write_cfg(tmp_path, f"[problem]\nname = example1d\n[solver]\n{key} = 0.5\n")
        assert run_command(["solve", "-c", cfg]) == 4

    def test_obstacle_kind_mismatch(self):
        cfg = parse_config("[problem]\nname = example1d\nobstacle.kind = kernel\n")
        with pytest.raises(ConfigError, match="constant_mean"):
            cfg.build_problem()


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

    def test_certify_smallness_failure(self, tmp_path):
        cfg = write_cfg(tmp_path, "[problem]\nname = example1d\nalpha = 1.5\n")
        assert run_command(["certify", "-c", cfg]) == 2


class TestStudies:
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
    def test_env_overrides_config(self, tmp_path, monkeypatch):
        cfg = write_cfg(
            tmp_path,
            f"seed = 1\nout = {tmp_path}\n[problem]\nname = example1d\n"
            "[study]\nkind = regpath\neps_list = 0.5,0.25,0.125,0.0625\n",
        )
        monkeypatch.setenv("QVAR_SEED", "77")
        assert run_command(["regpath", "-c", cfg]) == 0
        assert "seed=77" in (tmp_path / "regpath.csv").read_text()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = example1d\n"
            "[study]\nkind = regpath\neps_list = 0.5,0.25,0.125,0.0625\n",
        )
        monkeypatch.setenv("QVAR_SEED", "77")
        assert run_command(["regpath", "-c", cfg, "--seed", "5"]) == 0
        assert "seed=5" in (tmp_path / "regpath.csv").read_text()


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        assert run_command(["oracle-check", "--trials", "25", "--ndof", "6", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "verdict oracle_equivalence=True" in out

    def test_bad_argv_is_config_error(self):
        assert run_command(["frobnicate"]) == 4

    def test_bad_study_list_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            f"out = {tmp_path}\n[problem]\nname = kernel_qvi\n[study]\nkind = refine\nn_list = 8,12\n",
            encoding="utf-8",
        )
        assert run_command(["refine", "-c", str(cfg)]) == 4


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
            f"obstacle.psi_file = {psi_path}\n",
        )
        assert run_command(["solve", "-c", cfg]) == 0
        sol = from_csv((tmp_path / "fixed_obstacle_solution.csv").read_text(), "dirichlet")
        assert np.max(sol.values) <= 0.07 + 1e-9
        assert np.max(sol.values) >= 0.07 - 1e-9  # obstacle binds in the middle

    def test_psi_file_wrong_resolution_is_config_error(self, tmp_path):
        from qvar.grid import GridFunction, make_mesh, to_csv

        psi_path = tmp_path / "psi.csv"
        psi_path.write_text(
            to_csv(GridFunction.constant(make_mesh(8, "dirichlet"), 0.07)), encoding="utf-8"
        )
        cfg = write_cfg(
            tmp_path,
            f"out = {tmp_path}\n[problem]\nname = fixed_obstacle\nn = 16\n"
            f"obstacle.psi_file = {psi_path}\n",
        )
        assert run_command(["solve", "-c", cfg]) == 4
