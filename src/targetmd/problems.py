"""Variational inequality problems, feasible sets, and the built-in library
of small monotone test instances.

A problem couples a cost operator F with a closed convex feasible set X;
solving it means finding x* in X with <F(x*), u - x*> >= 0 for every
feasible u.  The library instances below are deliberately tiny, with known
solutions and analytically known constants, so solver behavior can be
checked against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError

Vector = np.ndarray

WHOLE_SPACE = "whole_space"
SIMPLEX = "simplex"
BOX = "box"


SIMPLEX_MASS_TOL = 1e-9
# sampled_monotonicity evaluates its operator on blocks of at most this many
# entries a side, and the presets draw their pairs in such blocks.  Arrays of
# 128 KiB keep the peak memory of a dim-2000 preset build within 1 MB of one
# pair at a time; blocks four times larger would add about 4 MB.
MONOTONICITY_BLOCK = 1 << 14
WHOLE_SPACE_SCALE = 1.5  # standard deviation of the whole space's samples


def project_simplex(v: Vector) -> Vector:
    """Euclidean projection onto the probability simplex, of one point or of
    each row of a stack of points.

    Sorted-threshold method: sort descending, find the largest support
    size whose renormalizing shift keeps every surviving entry positive,
    then clip at that shift.  Output is nonnegative and sums to one within
    SIMPLEX_MASS_TOL for every finite input.
    """
    v = np.asarray(v, dtype=float)
    if np.any(np.isnan(v)):
        raise DomainError("simplex projection rejects NaN input")
    rows = v.reshape(-1, v.shape[-1])
    x, found = _simplex_threshold(rows)
    lost = ~found | ~(np.abs(x.sum(axis=1) - 1.0) <= SIMPLEX_MASS_TOL)
    if lost.any():
        # far from the origin the unit mass is lost to rounding (the support
        # can even come out empty); the projection is invariant under a
        # shift along the ones vector, and shifting by the largest entry
        # puts the support within 1 of zero (entries that overflow to -inf
        # on the way lie far outside it)
        far = rows[lost]
        with np.errstate(over="ignore", invalid="ignore"):
            x[lost], found = _simplex_threshold(far - far.max(axis=1, keepdims=True))
        if not found.all():  # only an entry of +inf leaves the support empty here
            raise DomainError("simplex projection rejects infinite input")
    return x.reshape(v.shape)


def _simplex_threshold(rows: Vector):
    """(projections, found) of the rows of a 2-D array; found is False
    where the support comes out empty, and that row's projection is void."""
    u = np.sort(rows, axis=1)[:, ::-1]
    shifted = np.cumsum(u, axis=1) - 1.0
    positive = u - shifted / np.arange(1, rows.shape[1] + 1) > 0.0
    k = rows.shape[1] - np.argmax(positive[:, ::-1], axis=1)
    theta = shifted[np.arange(rows.shape[0]), k - 1] / k
    found = positive.any(axis=1)
    return np.maximum(rows - np.where(found, theta, 0.0)[:, None], 0.0), found


@dataclass(eq=False)
class FeasibleSet:
    """A closed convex set with projection, membership, and sampling.

    project and contains take one point or a stack of points (rows of an
    array) and act on each row: project returns an array of the input's
    shape, contains a bool for one point and a bool array for a stack.
    On the whole space project is the identity and returns its float
    input itself, not a copy; it still rejects NaN with DomainError.
    """

    dim: int
    kind: str
    lower: Optional[Vector] = None
    upper: Optional[Vector] = None

    def project(self, v: Vector) -> Vector:
        v = np.asarray(v, dtype=float)
        if self.kind == SIMPLEX:
            return project_simplex(v)
        if self.kind not in (WHOLE_SPACE, BOX):
            raise ValueError(f"unknown set kind {self.kind!r}")
        # a NaN entry, and nothing else, makes the sum of squares NaN
        if math.isnan(np.vdot(v, v)):
            raise DomainError("cannot project NaN")
        return v if self.kind == WHOLE_SPACE else np.clip(v, self.lower, self.upper)

    def contains(self, v: Vector, tol: float = 1e-9):
        v = np.asarray(v, dtype=float)
        inside = np.all(np.isfinite(v), axis=-1)
        if self.kind == SIMPLEX:
            inside &= np.all(v >= -tol, axis=-1) & (np.abs(v.sum(axis=-1) - 1.0) <= tol)
        elif self.kind == BOX:
            inside &= (np.all(v >= self.lower - tol, axis=-1)
                       & np.all(v <= self.upper + tol, axis=-1))
        return bool(inside) if v.ndim == 1 else inside

    def center(self) -> Vector:
        """Analytic center used as the default initial point."""
        if self.kind == WHOLE_SPACE:
            return np.zeros(self.dim)
        if self.kind == SIMPLEX:
            return np.full(self.dim, 1.0 / self.dim)
        return self.lower + 0.5 * (self.upper - self.lower)  # finite at any finite width

    def sample(self, rng: np.random.Generator, n: int) -> Vector:
        """Draw n feasible points; rows of the returned array."""
        if self.kind == WHOLE_SPACE:
            return WHOLE_SPACE_SCALE * rng.standard_normal((n, self.dim))
        if self.kind == SIMPLEX:
            return rng.dirichlet(np.ones(self.dim), size=n)
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def sample_interior(self, rng: np.random.Generator, n: int,
                        margin: float = 1e-3) -> Vector:
        """Like sample, but bounded away from the boundary by mixing each
        draw toward the analytic center."""
        pts = self.sample(rng, n)
        if self.kind == WHOLE_SPACE:
            return pts
        return (1.0 - margin) * pts + margin * self.center()


def whole_space(dim: int) -> FeasibleSet:
    return FeasibleSet(dim=dim, kind=WHOLE_SPACE)


def simplex(dim: int) -> FeasibleSet:
    return FeasibleSet(dim=dim, kind=SIMPLEX)


def box(lower, upper) -> FeasibleSet:
    try:
        lower, upper = (np.atleast_1d(np.asarray(b, dtype=float)) for b in (lower, upper))
    except (TypeError, ValueError):
        lower = upper = np.full(1, math.nan)  # not numbers: fails below, as NaN bounds do
    with np.errstate(over="ignore", invalid="ignore"):
        width = upper - lower if lower.shape == upper.shape else np.nan
    # NaN or infinite bounds fail, and so does a width past what sample can draw from
    if not np.all((0.0 < width) & (width < math.inf)):
        raise ConfigurationError("box bounds must be finite with lower < upper entrywise")
    return FeasibleSet(dim=lower.size, kind=BOX, lower=lower, upper=upper)


@dataclass(eq=False)
class VIProblem:
    """A variational inequality instance.

    F takes one point or a stack of points (rows of an array) and returns
    an array of the same shape, row i being F of row i.

    linear_terms holds (M, q) when F(x) = M x + q, which lets constants be
    computed exactly instead of estimated.  M is an ndarray or a
    Tridiagonal; both take M @ x and M.T, and callers that need an array
    call to_dense() on the latter.  F may be omitted when linear_terms is
    given: it is then M x + q, row by row (_linear).

    The contract is checked once, here, and trusted downstream: at two
    interior points of the feasible set, drawn with default_rng(0), F must
    not raise, must return the 2-point stack's shape, with each row equal
    to F of that point alone within 1e-12 of the largest |entry| (NaN
    equals NaN), and, given linear_terms, equal M x + q within 1e-9 of
    the largest |entry|.  A breach is a ConfigurationError.
    """

    feasible_set: FeasibleSet
    F: Optional[Callable[[Vector], Vector]] = None
    name: str = "custom"
    lipschitz_hint: Optional[float] = None
    strong_modulus: Optional[float] = None
    known_solution: Optional[Vector] = None
    linear_terms: Optional[tuple] = None

    def __post_init__(self):
        if self.F is None:
            if self.linear_terms is None:
                raise ConfigurationError(f"problem {self.name!r} needs F or linear_terms")
            self.F = _linear(*self.linear_terms)
        _check_operator(self)


def _check_operator(problem: VIProblem):
    """Raise ConfigurationError at the first rule of VIProblem's contract that F breaks."""
    def broken(rule):
        return ConfigurationError(f"problem {problem.name!r} breaks the operator "
                                  f"contract at two sampled points: {rule}")

    points = problem.feasible_set.sample_interior(np.random.default_rng(0), 2)
    terms = problem.linear_terms
    try:
        stacked = problem.F(points)
        rows = np.array([problem.F(x) for x in points])
        affine = None if terms is None else _linear(*terms)(points)
    except Exception as exc:  # F is the caller's code: any raise breaks the contract
        raise broken(f"F must not raise, and raised {type(exc).__name__}: {exc}") from exc
    if np.shape(stacked) != points.shape or rows.shape != points.shape:
        raise broken(f"F returned shape {np.shape(stacked)} for points of shape "
                     f"{points.shape} and {rows.shape[1:]} for one point; F must map "
                     "each row of a stack")
    if not _agree(stacked, rows, 1e-12):
        raise broken("F of a stack must have, in each row, F of that row alone")
    if affine is not None and not _agree(stacked, affine, 1e-9):
        raise broken("F must equal M x + q of its linear_terms")


def _agree(f, reference, rel: float) -> bool:
    """f == reference within rel times its largest finite |entry|, NaN matching NaN."""
    f, reference = np.asarray(f, dtype=float), np.asarray(reference, dtype=float)
    if np.array_equal(f, reference):  # the common case, at a fraction of the cost
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        bound = rel * np.max(np.abs(reference), initial=0.0, where=np.isfinite(reference))
        return bool(np.all((np.abs(f - reference) <= bound) | (f == reference)
                           | (np.isnan(f) & np.isnan(reference))))


def natural_residual(problem: VIProblem, x: Vector):
    """|| x - P(x - F(x)) ||; zero exactly at solutions.  A float for one
    point, an array of one residual per row for a stack of points.  Only
    rows whose plain sum of squares overflows are recomputed, scaled.  On
    the whole space P is the identity and is not called: r = x - (x - F(x))
    has the projection's bits, and a NaN point (or F NaN at it) reads a NaN
    residual instead of the projection's DomainError."""
    x = np.asarray(x, dtype=float)
    f = problem.F(x)
    feasible_set = problem.feasible_set
    r = x - (x - f if feasible_set.kind == WHOLE_SPACE else feasible_set.project(x - f))
    norms = np.sqrt(np.vecdot(r, r))
    if x.ndim == 1:
        return _overflowed_norm(problem, f, r) if norms == math.inf else float(norms)
    for i in np.flatnonzero(norms == math.inf):
        norms[i] = _overflowed_norm(problem, f[i], r[i])
    return norms


def _overflowed_norm(problem: VIProblem, f: Vector, r: Vector) -> float:
    """||r|| where r.r overflows.  On the whole space r = x - (x - f) is f,
    which stays finite where x - f overflows."""
    return _scaled_norm(f if problem.feasible_set.kind == WHOLE_SPACE else r)


def _scaled_norm(v: Vector) -> float:
    """||v|| of a 1-D array whose v.v overflows (|v| past about 1.3e154):
    peak * ||v / peak||, peak the largest |entry|, or inf if that is."""
    peak = float(np.max(np.abs(v)))
    if peak == math.inf:
        return peak
    return peak * math.sqrt(float(np.vecdot(v / peak, v / peak)))


# ---------------------------------------------------------------------------
# Library problems
# ---------------------------------------------------------------------------

def _dimension(dim, least: int, name: str) -> int:
    """dim as an int, or ConfigurationError unless it is an integer >= least."""
    try:
        n = int(dim)
        whole = n == dim
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or n < least:
        raise ConfigurationError(
            f"{name} needs an integer dim >= {least}, got {dim!r}")
    return n


def _parameter(value, name: str, param: str, scalar: bool = True):
    """value as a float (scalar) or a float array, or ConfigurationError
    unless it is one finite number (scalar) or finite numbers."""
    try:
        values = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        values = np.full(1, math.nan)
    if (isinstance(value, bool) or not np.all(np.isfinite(values))
            or (scalar and values.size != 1)):
        raise ConfigurationError(f"{name} needs {'a finite number' if scalar else 'finite'} "
                                 f"{param}, got {value!r}")
    return values.item() if scalar else values


class Tridiagonal:
    """diag*I + off*K, K the banded skew matrix (K[i, i+1] = 1 = -K[i+1, i]),
    held as two scalars: O(n) products and solves, no n x n array outside
    to_dense().  It is normal, with a closed-form norm, and its symmetric
    part is diag*I, so diag is that part's least eigenvalue."""

    def __init__(self, dim: int, diag: float, off: float):
        self.dim, self.diag, self.off = int(dim), float(diag), float(off)
        self.shape = (self.dim, self.dim)
        self._spectrum = self._phase = None  # solve's factors, made on first use

    def __matmul__(self, x):
        # off*(x[i+1] - x[i-1]) first, then + diag*x[i]: on the library
        # matrices this is the dense product's bits, or within 2 ulp of them.
        # Indexing the transposes walks the last axis, so a stack of points
        # is one product per row with each row's bits; one point needs none.
        x = np.asarray(x, dtype=float)
        y = np.empty_like(x)
        xt, yt = (x, y) if x.ndim == 1 else (x.T, y.T)
        if self.dim > 2:
            np.subtract(xt[2:], xt[:-2], out=yt[1:-1])
        yt[0] = xt[1]
        yt[-1] = -xt[-2]
        if self.off != 1.0:
            y *= self.off
        if self.diag == 1.0:
            y += x
        elif self.diag:
            y += self.diag * x
        return y

    @property
    def T(self) -> "Tridiagonal":
        return Tridiagonal(self.dim, self.diag, -self.off)

    def shifted(self, eta: float) -> "Tridiagonal":
        """I + eta*self."""
        return Tridiagonal(self.dim, 1.0 + eta * self.diag, eta * self.off)

    def norm(self) -> float:
        """Spectral norm: K's eigenvalues are +-2i*cos(k*pi/(dim + 1)); at
        dim 2, where 2*cos(pi/3) rounds above 1, K is the unit rotation."""
        k = 1.0 if self.dim == 2 else 2.0 * float(np.cos(np.pi / (self.dim + 1)))
        return float(np.hypot(self.diag, abs(self.off) * k))

    def solve(self, b: Vector) -> Vector:
        """x with self @ x = b, for one point or each row of a stack, by the
        sine eigenbasis: with D = diag(i^j), D^-1 K D = i*T, T = tridiag(1, 0, 1),
        whose eigenvectors form the type-I sine transform S (orthogonal,
        S = S^-1) with eigenvalues lam_k = 2cos(k*pi/(n + 1)); so
        x = D S diag(1/(diag + i*off*lam)) S D^-1 b.  Needs diag != 0,
        which bounds the condition number by norm()/|diag|."""
        if self._spectrum is None:
            if self.diag == 0.0:
                raise DomainError("Tridiagonal.solve needs diag != 0 "
                                  "(K alone is singular at odd dim)")
            n1 = self.dim + 1
            lam = 2.0 * np.cos(np.arange(1, n1) * (np.pi / n1))
            # S is sqrt(2/(n + 1)) / (-2i) times _sine_transform: the two
            # transforms' factor 2/(n + 1) / (-2i)^2 is folded in here
            self._spectrum = (-0.5 / n1) / (self.diag + 1j * self.off * lam)
            self._phase = np.array([1.0, 1j, -1.0, -1j])[np.arange(self.dim) % 4]
        w = _sine_transform(np.asarray(b, dtype=float), self._phase.conj())
        # a contiguous copy, not a strided .real view holding the complex buffer
        return (_sine_transform(w, self._spectrum) * self._phase).real.copy()

    def to_dense(self) -> Vector:
        n = self.dim
        return self.diag * np.eye(n) + self.off * (np.eye(n, k=1) - np.eye(n, k=-1))


def _sine_transform(v: Vector, weights: Vector) -> Vector:
    """-2i * sum_j w[j] * sin((j + 1)*k*pi/(n + 1)) for k = 1..n, along the
    last axis, with w = weights * v: the FFT of the odd extension
    (0, w, 0, -reversed w) at 1..n.  numpy.fft loads on first use, so
    importing the package does not pay for it."""
    n1 = v.shape[-1] + 1
    u = np.zeros(v.shape[:-1] + (2 * n1,), dtype=complex)
    w = np.multiply(v, weights, out=u[..., 1:n1])
    np.negative(w, out=u[..., :n1:-1])
    return np.fft.fft(u)[..., 1:n1]


def _linear(m, q: Vector) -> Callable[[Vector], Vector]:
    """x -> M x + q, row by row on a stack: matvec gives each row the bits
    of M @ row, which a stack's X @ M.T does not.  Both products convert
    x to floats themselves.  With q all zero F is the product itself, whose
    entries equal M x + q's; only a -0.0 entry of M x stays -0.0."""
    product = m.__matmul__ if isinstance(m, Tridiagonal) else partial(np.matvec, m)
    if not np.any(q):
        return product

    def F(x):
        return product(x) + q
    return F


def _make_skew_bilinear(dim: int = 2) -> VIProblem:
    dim = _dimension(dim, 2, "skew_bilinear")
    return VIProblem(whole_space(dim), name="skew_bilinear", known_solution=np.zeros(dim),
                     linear_terms=(Tridiagonal(dim, 0.0, 1.0), np.zeros(dim)))


def _make_linear_monotone(dim: int = 2) -> VIProblem:
    dim = _dimension(dim, 2, "linear_monotone")
    m = Tridiagonal(dim, 1.0, 1.0)
    q = 0.5 * np.array([(-1.0) ** i for i in range(dim)])
    return VIProblem(whole_space(dim), name="linear_monotone", strong_modulus=m.diag,
                     known_solution=m.solve(-q), linear_terms=(m, q))


def _make_rps_game() -> VIProblem:
    m = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    return VIProblem(simplex(3), name="rps_game", known_solution=np.full(3, 1.0 / 3.0),
                     linear_terms=(m, np.zeros(3)))


def _make_constrained_quadratic(dim: int = 2) -> VIProblem:
    dim = _dimension(dim, 1, "constrained_quadratic")
    q_diag = np.arange(2.0, dim + 2.0)
    center = np.linspace(0.25, 0.75, dim)  # the solution, inside the box
    m = np.diag(q_diag)
    return VIProblem(box(np.zeros(dim), np.ones(dim)), name="constrained_quadratic",
                     lipschitz_hint=float(q_diag.max()), strong_modulus=float(q_diag.min()),
                     known_solution=center, linear_terms=(m, -m @ center))


def _constant(c: Vector, x: Vector) -> Vector:
    """c at every row of x."""
    f = np.empty(np.shape(x))
    f[:] = c
    return f


def _make_vertex_cost_simplex(costs=(1.0, 2.0)) -> VIProblem:
    c = _parameter(costs, "vertex_cost_simplex", "costs", scalar=False)
    if c.size < 2 or len(set(c.tolist())) != c.size:
        raise ConfigurationError("vertex_cost_simplex needs >= 2 distinct costs")
    solution = np.zeros(c.size)
    solution[int(np.argmin(c))] = 1.0
    return VIProblem(simplex(c.size), F=partial(_constant, c), name="vertex_cost_simplex",
                     known_solution=solution, linear_terms=(np.zeros((c.size, c.size)), c))


def _make_scalar_shift(a: float = 2.0) -> VIProblem:
    a = _parameter(a, "scalar_shift", "a")
    return VIProblem(whole_space(1), F=lambda x: np.asarray(x, dtype=float) - a,
                     name="scalar_shift", strong_modulus=1.0, known_solution=np.array([a]),
                     linear_terms=(np.eye(1), np.array([-a])))


LIBRARY = {
    "skew_bilinear": (_make_skew_bilinear, ("dim",),
                      "F = M x with skew-symmetric M; merely monotone, solution 0"),
    "linear_monotone": (_make_linear_monotone, ("dim",),
                        "F = M x + q with positive-definite symmetric part"),
    "rps_game": (_make_rps_game, (),
                 "cyclic three-strategy game on the simplex; uniform solution"),
    "constrained_quadratic": (_make_constrained_quadratic, ("dim",),
                              "strongly monotone diagonal quadratic on the unit box"),
    "vertex_cost_simplex": (_make_vertex_cost_simplex, ("costs",),
                            "constant costs on the simplex; vertex solution"),
    "scalar_shift": (_make_scalar_shift, ("a",),
                     "F(x) = x - a on the line; solution a"),
}


def library_problem(name: str, **params) -> VIProblem:
    """Construct a named library problem; unknown names or params error."""
    if name not in LIBRARY:
        raise ConfigurationError(
            f"unknown problem {name!r}; available: {', '.join(sorted(LIBRARY))}")
    builder, allowed, _ = LIBRARY[name]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"problem {name!r} does not accept parameter(s) {sorted(unknown)}")
    return builder(**params)


# ---------------------------------------------------------------------------
# Sampled checks and constant estimation
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityReport:
    min_inner: float
    min_ratio: float
    classification: str
    witness: Optional[tuple] = None
    n_samples: int = 0
    rng_seed: int = 0


def sampled_monotonicity(op, xs, ys):
    """Minimum of <op(x) - op(y), x - y> / ||x - y||^2 over the sampled
    pairs (xs[i], ys[i]), rows of two stacks, with its pair and the minimum
    of the inner product itself.  op is evaluated on row blocks of at most
    MONOTONICITY_BLOCK entries and must map each row of a stack; each pair
    has the bits of its own single-point evaluation.  Its shape check stays
    though VIProblem checks F where it is built: op is also a preset's
    S = grad_h - eta*F or grad_h + eta*F, and a hand-built spec.S or a
    custom grad_h is seen by no problem's check.  Pairs with
    ||x - y||^2 < 1e-16 are skipped; with none left it is (inf, None, inf).
    A non-finite inner product (op NaN or overflowing at the pair) refutes:
    it counts as -inf."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nn, inner = np.empty(len(xs)), np.empty(len(xs))
    rows = max(1, MONOTONICITY_BLOCK // xs.shape[-1])
    for start in range(0, len(xs), rows):
        block = slice(start, start + rows)
        x, y = xs[block], ys[block]
        fx, fy = op(x), op(y)
        if np.shape(fx) != x.shape or np.shape(fy) != y.shape:
            raise ConfigurationError(
                f"the operator returned shapes {np.shape(fx)} and {np.shape(fy)} "
                f"for points of shape {x.shape}; it must map each row of a stack")
        d = x - y
        nn[block] = np.vecdot(d, d)
        inner[block] = np.vecdot(fx - fy, d)
    kept = ~(nn < 1e-16)
    if not kept.any():
        return math.inf, None, math.inf
    inner[~np.isfinite(inner)] = -math.inf
    # silent, as a division of floats is, where inner / nn overflows or is
    # -inf / inf; a NaN ratio, like a skipped pair's, never wins a scan with <
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.divide(inner, nn, out=np.full(len(xs), math.inf), where=kept)
    ratios[np.isnan(ratios)] = math.inf
    i = int(np.argmin(ratios))
    min_ratio = float(ratios[i])
    witness = (xs[i], ys[i]) if min_ratio < math.inf else None
    return min_ratio, witness, min(inner[kept].tolist())


def check_monotonicity(problem: VIProblem, n_samples: int = 200,
                       rng_seed: int = 0) -> MonotonicityReport:
    """Sampled monotonicity spot-check; refutes but never certifies.

    Reports the minimum of <F(x) - F(y), x - y> over sampled feasible
    pairs, and of that quantity divided by ||x - y||^2.
    """
    if n_samples < 2:
        raise ConfigurationError("need at least 2 samples")
    rng = np.random.default_rng(rng_seed)
    xs = problem.feasible_set.sample(rng, n_samples)
    ys = problem.feasible_set.sample(rng, n_samples)
    min_ratio, witness, min_inner = sampled_monotonicity(problem.F, xs, ys)
    tol = 1e-9
    if min_ratio < -tol:
        label = f"not monotone (witness ratio {min_ratio:.3e})"
    elif min_ratio <= tol:
        label = "consistent with monotone (no strong-monotonicity margin)"
        witness = None
    else:
        label = f"consistent with strongly monotone (modulus estimate {min_ratio:.6g})"
        witness = None
    return MonotonicityReport(min_inner=min_inner, min_ratio=min_ratio,
                              classification=label, witness=witness,
                              n_samples=n_samples, rng_seed=rng_seed)


def estimate_lipschitz(problem: VIProblem) -> float:
    """An upper bound on the Lipschitz constant of F: the user hint when
    present, else the exact spectral norm of M for linear operators.  A
    sampled difference quotient is only a lower bound (it reads 8.33 for
    tanh(1000x), whose constant is 1000), so any other problem raises
    ConfigurationError."""
    if problem.lipschitz_hint is not None:
        return float(problem.lipschitz_hint)
    if problem.linear_terms is None:
        raise ConfigurationError(
            f"problem {problem.name!r} needs a lipschitz_hint: its F is not linear, "
            "and sampling gives no upper bound on its Lipschitz constant")
    m, _ = problem.linear_terms
    return m.norm() if isinstance(m, Tridiagonal) else float(np.linalg.norm(m, 2))
