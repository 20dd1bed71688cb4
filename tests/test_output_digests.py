import ast
import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", _TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

STUDY = """# study=perturb seed=42 reference=delta=0
parameter,error,solution_sup,outer_iterations
0.40000000000000002,0.0013846708906605153,0.050000000000000003,2
0.20000000000000001,0,0.050000000000000003,2
# fit slope=0.99386586265583077 r2=0.99999457880872511 exact_hits=1
# verdict ordered_solutions=True
"""


def _dump(root, files):
    for path, text in files.items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


def _compare(tmp_path, old, new):
    _dump(tmp_path / "a", old)
    _dump(tmp_path / "b", new)
    return digests.compare(str(tmp_path / "a"), str(tmp_path / "b"))


class TestCompare:
    def test_numeric_moves_are_measured(self, tmp_path, capsys):
        # a last-digit move, and an error of exactly 0 that becomes round-off
        moved = STUDY.replace("0.0013846708906605153", "0.0013846708907662812").replace(
            ",0,0.05", ",1e-17,0.05"
        )
        code = _compare(tmp_path, {"c/out/perturb.csv": STUDY}, {"c/out/perturb.csv": moved})
        out = capsys.readouterr().out
        assert code == 0
        assert "c/out/perturb.csv: max_abs=1.06e-13 max_rel=1" in out.splitlines()
        assert "FLAG" not in out
        assert out.splitlines()[-1] == "1 files, 1 moved, 0 flagged"

    @pytest.mark.parametrize(
        "old, new, flag",
        [
            (",2\n0.2", ",3\n0.2", "line 3: integer 2 -> 3"),
            ("exact_hits=1", "exact_hits=0", "line 5: integer 1 -> 0"),
            ("ordered_solutions=True", "ordered_solutions=False", "line 6: token True -> False"),
            ("# verdict ordered_solutions=True\n", "", "line count 6 -> 5"),
        ],
    )
    def test_changes_that_are_flagged(self, tmp_path, capsys, old, new, flag):
        changed = STUDY.replace(old, new, 1)
        assert changed != STUDY
        code = _compare(tmp_path, {"c/out/perturb.csv": STUDY}, {"c/out/perturb.csv": changed})
        assert code == 1
        assert f"  FLAG {flag}" in capsys.readouterr().out.splitlines()

    def test_exit_code_and_missing_file(self, tmp_path, capsys):
        code = _compare(
            tmp_path,
            {"c/exit_code": "0\n", "c/out/perturb.csv": STUDY},
            {"c/exit_code": "3\n"},
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "  FLAG line 1: integer 0 -> 3" in out.splitlines()
        assert "c/out/perturb.csv: only in" in out


def test_matrix_runs_every_study_kind():
    # checked here rather than in the tool: CI runs this tool on the base
    # commit's source, so it may import nothing from qvar but run_command
    from qvar.studies import STUDIES

    commands = {argv[0] for _, argv, *_ in digests._matrix()}
    assert set(STUDIES) <= commands


def test_psi_file_rows_solve_and_refuse():
    from qvar.cli import run_command

    refusals = {
        "missing": "cannot read psi.csv: No such file or directory",
        "nodes=9": "psi_file psi.csv has 9 nodes, the mesh has 17",
        "bad_row": "psi_file psi.csv: line 10: expected two numbers x,value, got '0.5,high'",
        "not_utf8": "cannot read psi.csv: not UTF-8 text",
        "rows=2": "psi_file psi.csv: expected at least three x,value rows",
    }
    rows = [row for row in digests._matrix() if "psi_file" in row[0]]
    assert len(rows) == 9
    for label, argv, config, inputs in rows:
        code, out, err, files = digests._run(run_command, argv, config, inputs)
        if inputs.get("psi.csv") == digests._psi_file(16):
            assert (code, err) == (0, b"")
            name = label.split()[1]
            assert sorted(files) == [f"out/{name}_report.csv", f"out/{name}_solution.csv"]
        else:
            assert code == 4 and files == {}
            assert err.decode() == f"config error: {refusals.pop(label.split()[-1])}\n"
    assert refusals == {}


def test_matrix_asks_for_the_help_of_every_subcommand():
    import argparse

    from qvar.cli import _build_parser

    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {tuple(argv) for _, argv, *_ in digests._matrix() if argv[-1] == "--help"}
    assert helps == {("--help",)} | {(cmd, "--help") for cmd in sub.choices}


def test_tool_imports_only_run_command_from_qvar():
    tree = ast.parse(_TOOL.read_text(encoding="utf-8"))
    imported = [
        (getattr(node, "module", None), [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert [entry for entry in imported if "qvar" in str(entry)] == [("qvar.cli", ["run_command"])]
