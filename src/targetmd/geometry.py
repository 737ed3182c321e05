"""Mirror maps, their conjugates, and Bregman divergences.

A geometry bundles a strictly convex potential h with its gradient and the
gradient of the convex conjugate (the mirror map).  The mirror map carries
arbitrary dual vectors into the domain, so iterates pulled back through it
are feasible by construction.  Each built-in geometry stores its strong
convexity modulus analytically rather than estimating it, since step-size
rules and descent diagnostics consume it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError
from .problems import (BOX, SIMPLEX, WHOLE_SPACE, FeasibleSet, _dimension, simplex,
                       whole_space)

Vector = np.ndarray

# grad_h of the entropy geometry rejects coordinates below this floor;
# clamping instead would silently distort dual states near the boundary.
INTERIOR_FLOOR = 1e-12


def softmax(z: Vector) -> Vector:
    """Normalized exponential with max-subtraction for overflow safety,
    row by row: a stack of dual points maps to the stack of their images,
    each row with the bits of its own call.  The reductions are the ufuncs'
    own (what ndarray.max and ndarray.sum call), without the method layer,
    and the exponentials and the division work in place, in the one new
    array z - max."""
    z = np.asarray(z, dtype=float)
    # one point reduces to scalars; the same bits as its one-row keepdims form
    axis, keep = (None, False) if z.ndim == 1 else (-1, True)
    e = z - np.maximum.reduce(z, axis=axis, keepdims=keep)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=keep)
    return e


@dataclass(eq=False)
class MirrorGeometry:
    """Primal-dual geometry bundle.

    eval_h and grad_h take one point or a stack of points (rows of an
    array) and act on each row: eval_h returns a float for one point and
    one value per row for a stack, grad_h an array of the input's shape.
    The grad_h_conj of the geometries built here maps each row of a stack
    the same way, each row with the bits of its own call (the ensemble
    maps rely on this).  grad_h and grad_h_conj may return their input
    itself where they are the identity (the whole-space Euclidean geometry
    does), so callers must not write into what they return, nor into what
    they pass in.  grad_h_conj need not reject a NaN dual point: the
    stepping loop tests each dual point for finiteness itself.

    conj_jacobian_times, when available, maps a primal point x and an
    array a of shape (d,) or (k, d), in any memory order, to a @ H without
    forming H, the Jacobian of grad_h_conj at the dual image of x.  Every
    H built here is symmetric, so a rate's product is also H @ rate (the
    primal vector field), and J_Phi's gives the Newton matrix of implicit
    targets.  Where grad_h_conj projects onto a box or the simplex, H is an
    element of the projection's generalized Jacobian, read from x.  The
    product may return a itself.  quadratic_weights marks
    members of the pure quadratic family (h = 0.5 * sum w_i x_i^2 on the
    whole space), for which ensemble synthesis has a closed form.  dim is
    the domain's dimension.  The presets trust strong_convexity_modulus as declared.
    """

    eval_h: Callable[[Vector], float]
    grad_h: Callable[[Vector], Vector]
    grad_h_conj: Callable[[Vector], Vector]
    strong_convexity_modulus: float
    domain: FeasibleSet
    name: str = "custom"
    conj_jacobian_times: Optional[Callable[[Vector, Vector], Vector]] = None
    quadratic_weights: Optional[Vector] = None

    dim = property(lambda self: self.domain.dim)


def euclidean_geometry(feasible_set: FeasibleSet) -> MirrorGeometry:
    """Half squared norm restricted to a set.

    grad_h is the identity on the set and the mirror map is the Euclidean
    projection, so dual vectors land back in the set.  On the whole space
    the projection is the identity, and grad_h_conj is grad_h itself: both
    return their float input, not a copy, and neither scans it for NaN (a
    NaN dual point pulls back to a NaN point, which the stepping loop's
    finiteness test ends as diverged).  H in conj_jacobian_times is I, on a
    box the 0/1 diagonal of x's free coordinates, on the simplex
    I_S - 1_S 1_S^T / |S| on the support S of x.
    """

    def eval_h(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.vecdot(x, x)

    def grad_h(x):
        return np.asarray(x, dtype=float)

    times = weights = None
    if feasible_set.kind == WHOLE_SPACE:
        # Projection is the identity; the conjugate is globally smooth.
        def times(x, a):
            return a

        weights = np.ones(feasible_set.dim)
    elif feasible_set.kind == BOX:
        def times(x, a):
            return a * ((x > feasible_set.lower) & (x < feasible_set.upper))
    elif feasible_set.kind == SIMPLEX:
        def times(x, a):
            support = (x > 0.0) * 1.0
            return (a - (a @ support)[..., None] / support.sum()) * support

    return MirrorGeometry(
        eval_h=eval_h,
        grad_h=grad_h,
        grad_h_conj=grad_h if feasible_set.kind == WHOLE_SPACE else feasible_set.project,
        strong_convexity_modulus=1.0,
        domain=feasible_set,
        name="euclidean",
        conj_jacobian_times=times,
        quadratic_weights=weights,
    )


def entropy_geometry(dim: int) -> MirrorGeometry:
    """Negative entropy on the probability simplex; the mirror map is
    softmax, whose image lies in the interior of the simplex.

    grad_h rejects inputs with any coordinate below INTERIOR_FLOOR rather
    than clamping; iterates produced via grad_h_conj are automatically
    interior, so the rejection only bites on user-supplied points.  The
    modulus is 1 in the Euclidean norm because the Hessian diag(1/x)
    dominates the identity whenever all coordinates are at most 1.
    H = diag(x) - x x^T, so a @ H is (a - a @ x) * x row by row.
    """
    dim = _dimension(dim, 2, "entropy geometry")
    domain = simplex(dim)

    def eval_h(x):
        x = np.asarray(x, dtype=float)
        if np.any(x < -INTERIOR_FLOOR):
            raise DomainError("negative coordinate outside the simplex")
        x = np.maximum(x, 0.0)
        safe = np.where(x > 0.0, x, 1.0)
        return np.sum(x * np.log(safe), axis=-1)

    def grad_h(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (dim,):
            raise DomainError(f"expected points of dimension {dim}, got shape {x.shape}")
        least = np.minimum.reduce(x, axis=None)
        if least < INTERIOR_FLOOR:
            raise DomainError(
                f"entropy gradient needs every coordinate >= {INTERIOR_FLOOR:g}; "
                f"got min {least:.3e}")
        return np.log(x) + 1.0

    def times(x, a):
        return (a - (a @ x)[..., None]) * x

    return MirrorGeometry(
        eval_h=eval_h,
        grad_h=grad_h,
        grad_h_conj=softmax,
        strong_convexity_modulus=1.0,
        domain=domain,
        name="entropy",
        conj_jacobian_times=times,
    )


def weighted_quadratic_geometry(weights) -> MirrorGeometry:
    """h = 0.5 * sum w_i x_i^2 on the whole space, w_i > 0.

    Mostly useful for building geometrically diverse ensembles; the mirror
    map is entrywise division by the weights, and H = diag(1/w).
    """
    try:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
    except (TypeError, ValueError):
        raise ConfigurationError(f"weights must be numbers, got {weights!r}") from None
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ConfigurationError("weights must be strictly positive and finite")
    domain = whole_space(w.size)
    inv_w = 1.0 / w

    def eval_h(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(w * x * x, axis=-1)

    def grad_h(x):
        return w * np.asarray(x, dtype=float)

    def grad_h_conj(z):
        return np.asarray(z, dtype=float) * inv_w

    def times(x, a):
        return a * inv_w

    return MirrorGeometry(
        eval_h=eval_h,
        grad_h=grad_h,
        grad_h_conj=grad_h_conj,
        strong_convexity_modulus=float(w.min()),
        domain=domain,
        name="weighted_quadratic",
        conj_jacobian_times=times,
        quadratic_weights=w.copy(),
    )


def bregman(geometry: MirrorGeometry, x: Vector, y: Vector):
    """h(x) - h(y) - <grad_h(y), x - y>.

    Nonnegative by convexity, zero iff x = y for strictly convex h.  The
    second argument must lie where grad_h is defined (the interior, for
    the entropy geometry).  y may be a stack of points: the result is then
    one value per row, each with the bits of that row's own call.  Under a
    quadratic potential, rows where h(y) overflows and that form is NaN at
    a finite y are 0.5 * sum w (x - y)^2, scaled by the largest |x - y|.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if geometry.domain.kind != WHOLE_SPACE and not np.all(
            geometry.domain.contains(y, tol=1e-9)):
        raise DomainError("second Bregman argument lies outside the domain")
    gy = geometry.grad_h(y)
    hx, hy = geometry.eval_h(x), geometry.eval_h(y)
    if y.ndim > 1 and (np.shape(hy) != y.shape[:-1] or np.shape(gy) != y.shape):
        raise ConfigurationError(
            f"geometry {geometry.name!r} returned shapes {np.shape(hy)} and "
            f"{np.shape(gy)} from eval_h and grad_h for points of shape {y.shape}; "
            "they must map each row of a stack")
    value = np.asarray(hx - hy - np.vecdot(gy, x - y), dtype=float)
    w = geometry.quadratic_weights
    if w is not None:
        flat, rows = value.reshape(-1), y.reshape(-1, y.shape[-1])
        for i in np.flatnonzero(np.isnan(flat) & np.isfinite(rows).all(axis=-1)):
            d = x - rows[i]
            peak = float(np.max(np.abs(d)))
            flat[i] = peak if peak in (0.0, math.inf) else (
                0.5 * float(np.vecdot(w * (d / peak), d / peak)) * peak * peak)
    return float(value) if y.ndim == 1 else value
