"""The benchmark's tracer against the package: every function it wraps is
found, a shipped config run under it counts target resolutions, and
uninstall restores every binding.  This is the Tier-1 twin of the
`untraced_layers` gate of the traced benchmark pass."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import targetmd.cli
from targetmd.harness import OUTPUT_DIR_ENV

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("problems", "geometry", "targets", "dynamics", "ensemble", "checks",
           "reference", "config", "harness")


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmarks" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every targetmd module, and the recorder's push."""
    tm = SimpleNamespace(**{m: importlib.import_module(f"targetmd.{m}") for m in MODULES})
    bound = {(name, key): value for name, mod in sys.modules.items()
             if name == "targetmd" or name.startswith("targetmd.")
             for key, value in list(vars(mod).items())}
    bound[("_Recorder", "push")] = tm.dynamics._Recorder.push
    return tm, bound


def test_tracer_finds_every_layer_and_uninstalls(tmp_path, monkeypatch):
    tm, before = _bindings()
    tracer = _tracing().Tracer()
    tracer.install(tm)
    try:
        assert tracer.missing == []
        assert tm.targets.resolve_target is not before[("targetmd.targets",
                                                          "resolve_target")]
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        config = ROOT / "configs" / "compare_dr.cfg"
        assert targetmd.cli.main(["compare", str(config)]) == 0
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["targets.resolve.calls"] > 0
    after = _bindings()[1]
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


def test_tracer_sees_the_inner_solver_of_an_implicit_target(tmp_path, monkeypatch):
    # twin of the traced step's inner_iters_per_target gate on `implicit`:
    # proximal point on rps_game under entropy resolves its targets by the
    # mirror-map fixed point, whose Phi calls the tracer counts
    tm, _ = _bindings()
    tracer = _tracing().Tracer()
    tracer.install(tm)
    try:
        assert tracer.missing == []
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        config = tmp_path / "ppa_rps.cfg"
        config.write_text("seed = 0\nproblem.name = rps_game\ngeometry.name = entropy\n"
                          "preset.name = ppa\npreset.eta = 1.0\nmode = discrete\n"
                          "budget.steps = 200\nstop.residual = 1e-6\n"
                          f"x0 = 0.5, 0.3, 0.2\noutput.dir = {tmp_path}\n")
        assert targetmd.cli.main(["solve", str(config)]) == 0
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["targets.resolve.calls"] > 0
    assert metrics["targets.inner_iters_per_target"] > 0
