"""The benchmark's three workloads and the output checks behind `failed`.

Each workload draws its inputs from the seed when it is created, builds
what the program needs in `setup` (the part reported as `setup_s`), and
runs one closed-loop pass over its items in `run_pass`: one caller, each
item started when the previous one has returned.  A pass returns one
`Item` per op with its program time, the verdict of its output check and
the SHA-256 of every CSV it wrote.

- configs:  every shipped configuration through `targetmd.cli.main`, the
            runs users make.  Dimensions are at most 3, so per-step Python
            overhead, diagnostics, CSV writing, ensemble verification and
            sampled checks dominate.
- scale:    extragradient (closed-form target) on `skew_bilinear` at dims
            2, 200 and 2000 with fixed budgets, plus `linear_monotone` at
            dim 2000 solved to 1e-8.  Problem construction and F matvecs
            dominate; recorder and inner solver are nearly idle.
- implicit: proximal point on `rps_game` under the entropy geometry (no
            known inner constants) and on `linear_monotone` under the
            Euclidean geometry (exact inner constants).  The inner
            resolvent solver does almost all the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

OUTPUT_DIR_ENV = "TARGETMD_OUT_DIR"


@dataclass
class Item:
    """One op of a pass: program seconds, output verdict, CSV hashes."""

    name: str
    seconds: float
    failure: Optional[str] = None
    csv: dict = field(default_factory=dict)
    csv_bytes: int = 0
    converged: bool = False
    steps: int = 0
    step_seconds: float = 0.0
    final_x: Optional[np.ndarray] = None


def hash_csvs(directory: Path, prefix: str = ""):
    """(name -> sha256, total bytes) for every CSV directly in directory."""
    hashes, size = {}, 0
    for path in sorted(directory.glob("*.csv")):
        data = path.read_bytes()
        hashes[prefix + path.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return hashes, size


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _last_row(csv_path: Path):
    """Final x of a trajectory CSV, as floats."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = lines[-1].split(",")
    return np.array([float(v) for k, v in zip(header, row) if k.startswith("x_")])


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

CONFIG_NAMES = (
    "bnn_rps_flow", "check_eg", "compare_bnn", "compare_dr", "compare_eg",
    "dmd_calibrated_scalar", "dmd_vanilla_scalar", "eg_skew_solve",
    "ensemble_entropy", "ensemble_quadratic", "higher_order_vertex",
    "vanilla_md_skew",
)
# Budget-limited by design: 2 = budget exhausted.  Every other config exits 0.
EXPECTED_EXIT = {"bnn_rps_flow": 2, "vanilla_md_skew": 2}
# The uncalibrated discounted baseline settles at x = 1, not at the solution.
MISALIGNED_EQUILIBRIUM = {"dmd_vanilla_scalar": 1.0}
SIMPLEX_PROBLEMS = ("rps_game", "vertex_cost_simplex")


def command_for(name: str) -> str:
    for command in ("check", "compare", "ensemble"):
        if name.startswith(command):
            return command
    return "solve"


def _draw_x0(rng, x0, problem):
    """A seeded initial point at the shipped point's distance from the
    set's center (uniform point on the simplex, origin elsewhere), in a
    random direction of the set's tangent space.  The step counts of the
    shipped runs depend on that distance only, so every seed does the
    same work."""
    x0 = np.asarray(x0, dtype=float)
    simplex = problem in SIMPLEX_PROBLEMS
    center = np.full(x0.size, 1.0 / x0.size) if simplex else np.zeros(x0.size)
    radius = np.linalg.norm(x0 - center)
    direction = rng.standard_normal(x0.size)
    if simplex:
        direction -= direction.mean()
    return center + radius * direction / np.linalg.norm(direction)


def generate_config(text: str, seed: int, rng) -> str:
    """The shipped configuration with its seed line replaced by `seed` and
    its x0 line, if any, replaced by a point drawn from rng."""
    problem = None
    for line in text.splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if key.strip() == "problem.name":
            problem = value.strip()
    out, has_seed = [], False
    for line in text.splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        key = key.strip()
        if key == "seed":
            line, has_seed = f"seed = {seed}", True
        elif key == "x0":
            shipped = [float(v) for v in value.split(",")]
            point = _draw_x0(rng, shipped, problem)
            line = "x0 = " + ", ".join(repr(float(v)) for v in point)
        out.append(line)
    if not has_seed:
        out.insert(0, f"seed = {seed}")
    return "\n".join(out) + "\n"


class Configs:
    name = "configs"

    def __init__(self, root: Path, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        inputs = workdir / "configs"
        inputs.mkdir()
        self.paths = {}
        for name in CONFIG_NAMES:
            text = (root / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
            path = inputs / f"{name}.cfg"
            path.write_text(generate_config(text, seed, rng), encoding="utf-8")
            self.paths[name] = path

    def setup(self, tm):
        """load_config and the harness build steps for every config."""
        harness = tm.harness
        for path in self.paths.values():
            cfg = tm.config.load_config(path)
            problem, pair = harness.build_problem(cfg)
            geometry = harness.build_geometry(cfg, problem)
            harness.build_spec(cfg, geometry, problem, pair)
            if cfg.ensemble_members:
                members = harness._build_members(cfg, problem)
                tm.ensemble.synthesized_geometry(members)
        return None

    def run_pass(self, tm, state, out_dir: Path, observer):
        items = []
        for name, path in self.paths.items():
            command = command_for(name)
            target = out_dir / name
            os.environ[OUTPUT_DIR_ENV] = str(target)
            log = io.StringIO()
            with observer.op(f"cli.{name}"):
                start = time.perf_counter()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = tm.cli.main([command, str(path)])
                seconds = time.perf_counter() - start
            item = Item(name, seconds)
            item.failure = self._check(name, command, code, target, log.getvalue())
            if target.is_dir():
                item.csv, item.csv_bytes = hash_csvs(target, f"{name}/")
            items.append(item)
            if item.failure is None and command == "solve":
                summary = json.loads((target / "summary.json").read_text())
                item.converged = summary["termination"] == "converged"
        os.environ.pop(OUTPUT_DIR_ENV, None)
        return items

    @staticmethod
    def time_to_solution(items):
        """Summed time of the solve configs that end converged."""
        return sum(item.seconds for item in items if item.converged)

    @staticmethod
    def _check(name, command, code, out: Path, log: str):
        expected = EXPECTED_EXIT.get(name, 0)
        if code != expected:
            return f"exit code {code}, expected {expected}: {log.strip()[-200:]}"
        report = out / ("check_report.json" if command == "check" else "summary.json")
        if not report.is_file():
            return f"no {report.name} written"
        summary = json.loads(report.read_text(encoding="utf-8"))
        if command == "compare":
            if not summary["count"] or not summary["max_deviation"] <= summary["tolerance"]:
                return (f"max deviation {summary['max_deviation']} over "
                        f"tolerance {summary['tolerance']}")
            return None
        if command == "check":
            return "obligation check refuted" if summary["refuted"] else None
        if command == "ensemble":
            dev = summary.get("reduction_max_deviation")
            if dev is None or not dev <= summary["reduction_tolerance"]:
                return f"reduction deviation {dev} over {summary['reduction_tolerance']}"
            x = _last_row(out / "ensemble_trajectory.csv")
            return None if np.all(np.isfinite(x)) else "non-finite final state"
        want = "converged" if expected == 0 else "budget_exhausted"
        if summary["termination"] != want:
            return f"termination {summary['termination']}, expected {want}"
        x = _last_row(out / "trajectory.csv")
        if not np.all(np.isfinite(x)):
            return "non-finite final state"
        if expected == 0:
            natural = summary["final_natural_residual"]
            if natural is None or not math.isfinite(natural):
                return f"natural residual {natural} is not finite"
            if name in MISALIGNED_EQUILIBRIUM:
                gap = float(np.max(np.abs(x - MISALIGNED_EQUILIBRIUM[name])))
                if gap > 1e-6:
                    return f"final x {x} is not at the documented equilibrium"
        return None


# ---------------------------------------------------------------------------
# scale and implicit: direct library calls
# ---------------------------------------------------------------------------

@dataclass
class Solve:
    """A discrete run through the library API: fixed budget when stop is
    0, otherwise solved to `stop` within `budget` steps."""

    name: str
    problem: str
    dim: int
    geometry: str
    preset: str
    eta: float
    budget: int
    stop: float
    stride: int


def _build(tm, solve: Solve):
    if solve.problem == "rps_game":
        problem = tm.problems.library_problem(solve.problem)
    else:
        problem = tm.problems.library_problem(solve.problem, dim=solve.dim)
    if solve.geometry == "entropy":
        geometry = tm.geometry.entropy_geometry(solve.dim)
    else:
        geometry = tm.geometry.euclidean_geometry(problem.feasible_set)
    preset = getattr(tm.targets, f"preset_{solve.preset}")
    return problem, geometry, preset(geometry, problem, solve.eta)


def _run_solve(tm, solve: Solve, built, x0, out_dir: Path) -> Item:
    problem, geometry, spec = built
    item = Item(solve.name, 0.0)
    path = out_dir / f"{solve.name}.csv"
    start = time.perf_counter()
    try:
        record = tm.dynamics.run_discrete(
            geometry, spec, problem=problem, x0=x0, n_steps=solve.budget,
            stop_residual=solve.stop, stride=solve.stride,
            reference=problem.known_solution)
        item.step_seconds = time.perf_counter() - start
        tm.harness.write_trajectory_csv(path, record)
    except tm.errors.TargetMDError as exc:
        item.seconds = time.perf_counter() - start
        item.failure = f"{type(exc).__name__}: {exc}"
        return item
    item.seconds = time.perf_counter() - start
    item.steps = int(record.final_state.step_index)
    item.final_x = record.final_state.x.copy()
    data = path.read_bytes()
    item.csv = {path.name: hashlib.sha256(data).hexdigest()}
    item.csv_bytes = len(data)
    item.failure = _check_solve(solve, record, item.final_x)
    return item


def _check_solve(solve: Solve, record, x):
    if not np.all(np.isfinite(x)):
        return "non-finite final state"
    if solve.stop == 0.0:
        if record.termination != "budget_exhausted" or record.final_state.step_index != solve.budget:
            return f"{record.termination} after {record.final_state.step_index} steps"
        return None
    target = float(record.target_residuals[-1])
    natural = float(record.natural_residuals[-1])
    if record.termination != "converged" or not target <= solve.stop:
        return f"{record.termination} at target residual {target:.3e}"
    if not math.isfinite(natural):
        return "non-finite natural residual"
    return None


class _LibraryWorkload:
    """Items run straight through the library API with seeded x0."""

    solves: tuple = ()

    def __init__(self, root: Path, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.offsets = [self.draw_offset(rng, s) for s in self.solves]

    @staticmethod
    def draw_offset(rng, solve):
        return _unit(rng, solve.dim)

    def setup(self, tm):
        built = {}
        state = []
        for solve, offset in zip(self.solves, self.offsets):
            key = (solve.problem, solve.dim, solve.geometry, solve.preset, solve.eta)
            if key not in built:
                built[key] = _build(tm, solve)
            problem = built[key][0]
            state.append((solve, built[key], problem.known_solution + offset))
        return state

    def run_pass(self, tm, state, out_dir: Path, observer):
        items = []
        for solve, built, x0 in state:
            with observer.op(f"op.{solve.name}"):
                items.append(_run_solve(tm, solve, built, x0, out_dir))
        return items


class Scale(_LibraryWorkload):
    name = "scale"
    solves = (
        Solve("eg_skew_d2", "skew_bilinear", 2, "euclidean", "eg", 0.1, 20000, 0.0, 2000),
        Solve("eg_skew_d200", "skew_bilinear", 200, "euclidean", "eg", 0.1, 4000, 0.0, 400),
        Solve("eg_skew_d2000", "skew_bilinear", 2000, "euclidean", "eg", 0.1, 250, 0.0, 25),
        Solve("eg_linear_d2000", "linear_monotone", 2000, "euclidean", "eg", 0.1, 5000, 1e-8, 50),
    )

    @staticmethod
    def time_to_solution(items):
        return next(i.seconds for i in items if i.name == "eg_linear_d2000")

    @staticmethod
    def step_us(items):
        """Microseconds per EG step on skew_bilinear, by dimension."""
        return {f"d{i.name.rsplit('_d', 1)[1]}": 1e6 * i.step_seconds / i.steps
                for i in items if i.name.startswith("eg_skew_") and i.steps}

    def numpy_baseline(self, state, items):
        """Hand-coded EG on the same skew_bilinear instances at dims 2 and
        2000: microseconds per step, and whether the library's final
        state agrees with it."""
        results, disagree = {}, []
        finals = {i.name: i.final_x for i in items}
        for solve, (problem, _, _), x0 in state:
            if solve.name not in ("eg_skew_d2", "eg_skew_d2000"):
                continue
            m, eta = problem.linear_terms[0], solve.eta
            x = np.array(x0, dtype=float)
            start = time.perf_counter()
            for _ in range(solve.budget):
                w = x - eta * (m @ x)
                x = x - eta * (m @ w)
            seconds = time.perf_counter() - start
            results[f"d{solve.dim}"] = 1e6 * seconds / solve.budget
            ours = finals.get(solve.name)
            if ours is None or not np.linalg.norm(ours - x) <= 1e-9 * (1.0 + np.linalg.norm(x)):
                disagree.append(solve.name)
        return results, disagree


RPS_RADIUS = 0.2  # distance of x0 from the uniform point


class Implicit(_LibraryWorkload):
    name = "implicit"
    solves = (
        Solve("ppa_rps_entropy_a", "rps_game", 3, "entropy", "ppa", 1.0, 2000, 1e-6, 1),
        Solve("ppa_rps_entropy_b", "rps_game", 3, "entropy", "ppa", 1.0, 2000, 1e-6, 1),
        Solve("ppa_linear_d200_a", "linear_monotone", 200, "euclidean", "ppa", 1.0, 2000, 1e-8, 1),
        Solve("ppa_linear_d200_b", "linear_monotone", 200, "euclidean", "ppa", 1.0, 2000, 1e-8, 1),
    )

    @staticmethod
    def draw_offset(rng, solve):
        if solve.problem != "rps_game":
            return _unit(rng, solve.dim)
        # same distance from the solution, random direction on the simplex
        direction = rng.standard_normal(solve.dim)
        direction -= direction.mean()
        return RPS_RADIUS * direction / np.linalg.norm(direction)

    @staticmethod
    def time_to_solution(items):
        rps = [i.seconds for i in items if i.name.startswith("ppa_rps_entropy")]
        return sum(rps) / len(rps)


WORKLOADS = {w.name: w for w in (Configs, Scale, Implicit)}
