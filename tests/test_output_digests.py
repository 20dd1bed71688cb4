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

    commands = {argv[0] for _, argv, _ in digests._matrix()}
    assert set(STUDIES) <= commands


def test_tool_imports_only_run_command_from_qvar():
    tree = ast.parse(_TOOL.read_text(encoding="utf-8"))
    imported = [
        (getattr(node, "module", None), [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert [entry for entry in imported if "qvar" in str(entry)] == [("qvar.cli", ["run_command"])]
