"""The benchmark's workloads against the package: `benchmarks/workloads.py`,
loaded unedited, builds each workload's inputs, runs its set-up and one
pass of `implicit`.  The set-ups make the library calls the benchmark
makes (`harness.build_problem` unpacked as `(problem, pair)`,
`build_geometry`, `build_spec`, `_build_members`,
`ensemble.synthesized_geometry`, the presets called as
`(geometry, problem, eta)`), and the pass makes `run_discrete` and
`write_trajectory_csv`'s, so a change to one of them fails here.  This is
the Tier-1 twin of the benchmark's own run."""

import contextlib
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("errors", "problems", "geometry", "targets", "dynamics", "ensemble",
           "checks", "reference", "config", "harness", "cli")


class _Untraced:
    @staticmethod
    def op(name):
        return contextlib.nullcontext()


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_sets_up_and_implicit_runs_a_pass(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    tm = SimpleNamespace(**{m: importlib.import_module(f"targetmd.{m}") for m in MODULES})
    states = {}
    for workload in (workloads.Configs, workloads.Scale, workloads.Implicit):
        workdir = tmp_path / workload.name
        workdir.mkdir()
        built = workload(ROOT, 1, workdir)
        states[workload.name] = (built, built.setup(tm))
    implicit, state = states["implicit"]
    out = tmp_path / "pass"
    out.mkdir()
    items = implicit.run_pass(tm, state, out, _Untraced)
    assert [item.name for item in items] == [solve.name for solve in implicit.solves]
    assert [item.failure for item in items] == [None] * len(items)
    assert all(item.csv and item.steps > 0 for item in items)
