"""targetmd benchmark: one workload per process, closed loop, one caller.

    python3 benchmarks/run.py --workload configs --seed 1 --seconds 15 --trace 0

Run from the repository root.  The package is imported from ./src of the
checkout this file sits in.  With --trace 0 the last stdout line holds the
end-to-end metrics (setup_s, wall_s, time_to_solution_s, peak_rss_mb) of
untraced passes; with --trace 1 it holds the per-layer metrics of traced
passes, measured after one untraced pass.  The line before it is the run
record: seed, nproc, versions, BLAS threads, commit, sample counts, CSV
fingerprints and failures.  See benchmarks/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so that dense matvecs at
# dim 2000 measure the program rather than thread scheduling.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3          # untraced passes per run, at least
MIN_TRACED_PASSES = 2   # so that counts can be compared exactly

MODULES = ("errors", "problems", "geometry", "targets", "dynamics", "ensemble",
           "checks", "reference", "config", "harness", "cli")
IMPORT_PROBE = ("import time, numpy; start = time.perf_counter(); "
                "import targetmd, targetmd.cli; print(time.perf_counter() - start)")


def import_targetmd():
    """The package and its CLI, as a namespace of modules."""
    importlib.import_module("targetmd")
    importlib.import_module("targetmd.cli")
    return SimpleNamespace(**{m: sys.modules[f"targetmd.{m}"] for m in MODULES})


def time_import():
    """Seconds to import targetmd and its CLI in a fresh interpreter that
    has numpy loaded already, so that every set-up pays a cold import."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                           env=dict(os.environ, PYTHONPATH=path),
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class _Untraced:
    @staticmethod
    def op(name):
        return contextlib.nullcontext()


def _pass(workload, tm, state, workdir, index, observer=_Untraced):
    out = workdir / f"pass-{index}"
    out.mkdir()
    try:
        return workload.run_pass(tm, state, out, observer)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _fingerprints(items):
    return {k: v for item in items for k, v in item.csv.items()}


def run_untraced(workload, seconds, workdir, record):
    tm = import_targetmd()
    setups, passes, start = [], [], time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        # one set-up before each pass, so that set-ups sample the whole run
        import_s = time_import()
        began = time.perf_counter()
        state = workload.setup(tm)
        setups.append(import_s + time.perf_counter() - began)
        passes.append(_pass(workload, tm, state, workdir, len(passes)))
    items = [item for p in passes for item in p]
    problems = _check_passes(workload, state, passes, record)
    walls = [sum(i.seconds for i in p) for p in passes]
    solutions = [workload.time_to_solution(p) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "time_to_solution_s": (statistics.median(solutions), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record["samples"] = {"setup_s": len(setups), "wall_s": len(passes),
                         "time_to_solution_s": len(passes), "peak_rss_mb": 1}
    record["all"] = {"setup_s": setups, "wall_s": walls,
                     "time_to_solution_s": solutions,
                     "items_s": {i.name: [j.seconds for j in items if j.name == i.name]
                                 for i in passes[0]}}
    return items, problems, metrics


def _check_passes(workload, state, passes, record):
    """Failures beyond per-item verdicts: every pass must write the same
    CSV bytes, and scale must agree with its numpy baseline."""
    problems = []
    first = _fingerprints(passes[0])
    record["fingerprints"] = first
    for k, p in enumerate(passes[1:], start=1):
        if _fingerprints(p) != first:
            problems.append(f"pass {k} wrote different CSV bytes than pass 0")
    if hasattr(workload, "numpy_baseline"):
        baseline, disagree = workload.numpy_baseline(state, passes[0])
        record["baseline.eg_numpy_step_us"] = baseline
        if disagree:
            problems.append(f"library EG disagrees with numpy EG on {disagree}")
    return problems


def run_traced(workload, seconds, workdir, record):
    import tracing

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tm = import_targetmd()
    state = workload.setup(tm)
    untraced = _pass(workload, tm, state, workdir, 0)
    problems = _check_passes(workload, state, [untraced], record)
    untraced_wall = sum(i.seconds for i in untraced)

    tracer = tracing.Tracer()
    tracer.install(tm)
    record["untraced_layers"] = tracer.missing
    traced, layer_runs, counts, start = [], [], [], time.perf_counter()
    try:
        while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
            tracer.reset()
            state = workload.setup(tm)
            traced.append(_pass(workload, tm, state, workdir, len(traced) + 1, tracer))
            layer_runs.append(tracer.layer_metrics())
            counts.append(tracer.counts())
    finally:
        tracer.uninstall()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{workload.name}.npz")

    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced passes")
    for k, p in enumerate(traced, start=1):
        if _fingerprints(p) != record["fingerprints"]:
            problems.append(f"traced pass {k} wrote different CSV bytes than the untraced pass")
    record["counts"] = counts[0]
    record["samples"] = {"traced_passes": len(traced), "untraced_passes": 1}

    values = {name: statistics.median(run[name] for run in layer_runs)
              for name in layer_runs[0]}
    traced_wall = statistics.median(sum(i.seconds for i in p) for p in traced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    step_us = workload.step_us(untraced) if hasattr(workload, "step_us") else {}
    baseline = record.get("baseline.eg_numpy_step_us", {})
    for metric in per_layer:
        name = metric["name"]
        if name.startswith("dynamics.step_us."):
            values[name] = step_us.get(name.rsplit(".", 1)[1], 0.0)
        elif name.startswith("baseline.eg_numpy_step_us."):
            values[name] = baseline.get(name.rsplit(".", 1)[1], 0.0)
        elif name.startswith("cli.") and name.endswith("_s"):
            config = name[len("cli."):-len("_s")]
            values[name] = sum(i.seconds for i in untraced if i.name == config)
        elif name == "harness.csv_bytes":
            values[name] = sum(i.csv_bytes for i in untraced)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in per_layer}
    return untraced + [i for p in traced for i in p], problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "targetmd" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no targetmd sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "commit": git_commit(), "load": "closed loop, 1 caller",
    }
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        run = run_traced if args.trace else run_untraced
        items, problems, metrics = run(workload, args.seconds, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{i.name}: {i.failure}" for i in items if i.failure]
    record["failures"] = failures + problems
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
