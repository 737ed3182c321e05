"""Span tracer for the benchmark's traced run.

The tracer wraps targetmd's public functions where the package binds them
(every ``targetmd`` module attribute that is the original function object)
and the callables stored on objects those functions build (``VIProblem.F``,
``TargetSpec.Phi``, ``MirrorGeometry.grad_h_conj``).  Nothing inside
``src/`` is edited; the wrappers live only in the benchmark's process and
are removed again by ``uninstall``.

Every wrapped call records a span: name (its layer group), start, end,
parent span and the benchmark op it belongs to.  Spans of one traced pass
stay in memory in typed arrays and are written once, at the end, by
``write``.  Self time (span duration minus the time its child spans cover),
the time of outermost spans per group, call counts, and the calls of
watched groups made inside a group's outermost spans are accumulated as
spans close, so metrics need no second walk over the spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# Layer groups whose calls are counted inside other groups' spans.
F = "problems.F"
PHI = "targets.Phi"
CONJ = "geometry.grad_h_conj"
RESOLVE_SOLVE = "targets.resolve.solve"
RESOLVE_CLOSED = "targets.resolve.closed"
LOOP = "dynamics.loop"
ENS_RUN = "ensemble.run"
ENS_VERIFY = "ensemble.verify"
LOOPS = (LOOP, ENS_RUN, ENS_VERIFY)

_WATCHES = {
    RESOLVE_SOLVE: (F, PHI),
    RESOLVE_CLOSED: (F,),
    LOOP: (F, CONJ),
    ENS_RUN: (F, CONJ),
    ENS_VERIFY: (F, CONJ),
}

# Runners that drive a trajectory, as named in targetmd.dynamics.
DYNAMICS_LOOPS = ("run_discrete", "flow", "run_dmd", "run_vanilla_dmd",
                  "run_higher_order")


def _record_steps(record):
    return int(record.final_state.step_index)


def _report_steps(report):
    return len(report.deviations) - 1


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.groups = []
        self._gid = {}
        self._patches = []
        self.missing = []
        self.reset()

    # -- bookkeeping -------------------------------------------------------

    def _group(self, name):
        gid = self._gid.get(name)
        if gid is None:
            gid = len(self.groups)
            self._gid[name] = gid
            self.groups.append(name)
            for column in (self.calls, self.self_ns, self.outer_ns,
                           self.depth, self.steps):
                column.append(0)
            self.inside.append({})
        return gid

    def reset(self):
        """Forget the previous pass's spans and counters."""
        n = len(self.groups)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.outer_ns = [0] * n
        self.depth = [0] * n
        self.steps = [0] * n
        self.inside = [{} for _ in range(n)]
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []
        self.op_id = 0

    def _open(self, gid):
        stack = self._stack
        idx = len(self.span_start)
        self.span_group.append(gid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0)
        self.calls[gid] += 1
        depth = self.depth[gid]
        self.depth[gid] = depth + 1
        snapshot = None
        if depth == 0 and self.groups[gid] in _WATCHES:
            snapshot = list(self.calls)
        stack.append([idx, 0, snapshot])
        self.span_start.append(time.perf_counter_ns())

    def _close(self, gid):
        now = time.perf_counter_ns()
        idx, child_ns, snapshot = self._stack.pop()
        self.span_end[idx] = now
        duration = now - self.span_start[idx]
        self.self_ns[gid] += duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration
        depth = self.depth[gid] - 1
        self.depth[gid] = depth
        if depth == 0:
            self.outer_ns[gid] += duration
            if snapshot is not None:
                inside = self.inside[gid]
                for name in _WATCHES[self.groups[gid]]:
                    w = self._group(name)
                    seen = snapshot[w] if w < len(snapshot) else 0
                    inside[name] = inside.get(name, 0) + self.calls[w] - seen

    @contextlib.contextmanager
    def op(self, name):
        """Span around one benchmark op; spans opened inside share its id."""
        self.op_id += 1
        gid = self._group(name)
        self._open(gid)
        try:
            yield
        finally:
            self._close(gid)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, group, on_result=None, steps=None):
        """Return fn wrapped in a span of `group` (a name, or a function of
        the call's arguments returning one).  on_result sees each result;
        steps(result) adds to the group's step count."""
        if getattr(fn, "_bench_traced", False):
            return fn
        choose = group if callable(group) else None
        fixed = None if choose else self._group(group)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gid = fixed if choose is None else tracer._group(choose(args))
            tracer._open(gid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(gid)
            if steps is not None:
                tracer.steps[gid] += steps(result)
            if on_result is not None:
                on_result(result)
            return result

        traced._bench_traced = True
        return traced

    def _wrap_problem(self, problem):
        problem.F = self.wrap(problem.F, F)

    def _wrap_spec(self, spec):
        if spec is not None and spec.Phi is not None:
            spec.Phi = self.wrap(spec.Phi, PHI)

    def _wrap_geometry(self, geometry):
        geometry.grad_h_conj = self.wrap(geometry.grad_h_conj, CONJ)

    def _patch(self, module, attr, group, on_result=None, steps=None):
        """Replace every binding of module.attr inside the package."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self.wrap(original, group, on_result, steps)
        for name, mod in list(sys.modules.items()):
            if name != "targetmd" and not name.startswith("targetmd."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def install(self, tm):
        """Wrap the layer boundaries of the targetmd modules in `tm`."""
        solve_strategy = tm.targets.ResolventSolve

        def resolve_group(args):
            return (RESOLVE_SOLVE if isinstance(args[0].target, solve_strategy)
                    else RESOLVE_CLOSED)

        self._patch(tm.problems, "library_problem", "problems.build",
                    on_result=self._wrap_problem)
        self._patch(tm.targets, "affine_box_split", "problems.build",
                    on_result=lambda r: self._wrap_problem(r[1]))
        self._patch(tm.harness, "build_problem", "problems.build")
        self._patch(tm.problems, "natural_residual", "problems.natural_residual")
        for name in ("euclidean_geometry", "entropy_geometry",
                     "weighted_quadratic_geometry"):
            self._patch(tm.geometry, name, "geometry.build",
                        on_result=self._wrap_geometry)
        self._patch(tm.geometry, "bregman", "geometry.bregman")
        for name in sorted(vars(tm.targets)):
            if name.startswith("preset_"):
                self._patch(tm.targets, name, "targets.preset_build",
                            on_result=self._wrap_spec)
        self._patch(tm.harness, "build_spec", "targets.preset_build")
        self._patch(tm.targets, "resolve_target", resolve_group)
        self._patch(tm.dynamics, "dual_rate", "dynamics.dual_rate")
        for name in DYNAMICS_LOOPS:
            self._patch(tm.dynamics, name, LOOP, steps=_record_steps)
        self._patch(tm.dynamics, "lyapunov_series", "dynamics.lyapunov_series")
        recorder = getattr(tm.dynamics, "_Recorder", None)
        if recorder is None or not hasattr(recorder, "push"):
            self.missing.append("targetmd.dynamics._Recorder.push")
        else:
            self._patches.append((recorder, "push", recorder.push))
            recorder.push = self.wrap(recorder.push, "dynamics.diag")
        self._patch(tm.ensemble, "run_ensemble", ENS_RUN, steps=_record_steps)
        self._patch(tm.ensemble, "verify_ensemble_reduction", ENS_VERIFY,
                    steps=_report_steps)
        self._patch(tm.ensemble, "synthesized_geometry", "ensemble.synth_build",
                    on_result=self._wrap_geometry)
        self._patch(tm.checks, "run_condition_checks", "checks.run")
        for name, value in sorted(vars(tm.reference).items()):
            if callable(value) and getattr(value, "__module__", "") == tm.reference.__name__:
                self._patch(tm.reference, name, "reference")
        self._patch(tm.harness, "write_trajectory_csv", "harness.csv_write")
        self._patch(tm.harness, "write_json", "harness.json_write")
        self._patch(tm.config, "load_config", "config.load")

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def counts(self):
        """Every count of the pass; two traced passes over the same inputs
        must produce the same dictionary."""
        out = {}
        for gid, name in enumerate(self.groups):
            if self.calls[gid]:
                out[f"{name}.calls"] = self.calls[gid]
            if self.steps[gid]:
                out[f"{name}.steps"] = self.steps[gid]
            for watched, n in sorted(self.inside[gid].items()):
                out[f"{name}.{watched}.inside"] = n
        return out

    def layer_metrics(self):
        """Per-layer metrics of the pass: seconds, counts and ratios."""
        def get(column, group):
            gid = self._gid.get(group)
            return 0 if gid is None else column[gid]

        def self_s(group):
            return get(self.self_ns, group) / 1e9

        def outer_s(group):
            return get(self.outer_ns, group) / 1e9

        def inside(group, watched):
            gid = self._gid.get(group)
            return 0 if gid is None else self.inside[gid].get(watched, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        loop_steps = sum(get(self.steps, g) for g in LOOPS)
        resolves = get(self.calls, RESOLVE_SOLVE) + get(self.calls, RESOLVE_CLOSED)
        return {
            "problems.build_s": outer_s("problems.build"),
            "problems.F.calls_per_step": ratio(
                sum(inside(g, F) for g in LOOPS), loop_steps),
            "problems.F.self_s": self_s(F),
            "problems.natural_residual_s": outer_s("problems.natural_residual"),
            "geometry.grad_h_conj.calls_per_step": ratio(
                sum(inside(g, CONJ) for g in LOOPS), loop_steps),
            "geometry.grad_h_conj.self_s": self_s(CONJ),
            "geometry.bregman_s": outer_s("geometry.bregman"),
            "targets.preset_build_s": outer_s("targets.preset_build"),
            "targets.resolve.calls": resolves,
            "targets.resolve.self_s": self_s(RESOLVE_SOLVE) + self_s(RESOLVE_CLOSED),
            "targets.resolve.f_calls_per_target": ratio(
                inside(RESOLVE_SOLVE, F) + inside(RESOLVE_CLOSED, F), resolves),
            "targets.inner_iters_per_target": ratio(
                inside(RESOLVE_SOLVE, PHI), get(self.calls, RESOLVE_SOLVE)),
            "dynamics.steps": get(self.steps, LOOP),
            "dynamics.loop_self_s": self_s(LOOP),
            "dynamics.dual_rate.self_s": self_s("dynamics.dual_rate"),
            "dynamics.diag_s": outer_s("dynamics.diag"),
            "dynamics.lyapunov_series_s": outer_s("dynamics.lyapunov_series"),
            "ensemble.run_s": outer_s(ENS_RUN),
            "ensemble.verify_s": outer_s(ENS_VERIFY),
            "ensemble.steps": get(self.steps, ENS_RUN) + get(self.steps, ENS_VERIFY),
            "ensemble.synth_build_s": outer_s("ensemble.synth_build"),
            "checks.run_s": outer_s("checks.run"),
            "reference.s": outer_s("reference"),
            "harness.csv_write_s": outer_s("harness.csv_write"),
            "harness.json_write_s": outer_s("harness.json_write"),
            "config.load_s": outer_s("config.load"),
        }

    def write(self, path):
        """Write the current pass's spans (one row per span)."""
        np.savez(path,
                 groups=np.array(self.groups),
                 group=np.frombuffer(self.span_group, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64))
