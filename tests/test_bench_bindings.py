"""The benchmark's span tracer binds qvar functions by module and name; a
rename or deletion in qvar must fail here, not in a traced benchmark run."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

import qvar
import qvar.cli

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracing = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracing  # its dataclasses look their module up there
_spec.loader.exec_module(tracing)


def _bindings() -> dict:
    """{(module name, attribute): object} of every loaded qvar module."""
    out = {}
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "qvar" or key.startswith("qvar.")):
            out.update(((key, attr), value) for attr, value in vars(module).items())
    out[("ObstacleMap", "kernel")] = sys.modules["qvar.obstacle"].ObstacleMap.__dict__["kernel"]
    return out


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracing.TARGETS])
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_traced_solve_records_spans(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[problem]\nname = fixed_obstacle\nn = 16\n", encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = qvar.cli.run_command(["solve", "-c", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.take()
    names = [span.name for span in spans]
    assert names[0] == "cli.command"
    assert "qvi_solver.solve" in names
    assert "vi_solver.solve" in names
    metrics = tracing.metrics(spans)
    assert metrics["vi_solver.calls"][0] >= 1
    assert metrics["vi_solver.iterations"][0] >= 1


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qvar.cli.run_command is not before[("qvar.cli", "run_command")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
