"""Directly coded landmark iterations and vector fields.

These are comparison baselines for the `compare` harness: each is written
from the named method's own formula, without going through any design
tuple or target machinery, so agreement with the preset-driven steppers is
an end-to-end consistency check rather than a tautology.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .problems import WHOLE_SPACE, Tridiagonal, VIProblem
from .targets import SplitPair

Vector = np.ndarray


def ppa_step(problem: VIProblem, eta: float, x: Vector) -> Vector:
    """Proximal-point step for a linear operator on the whole space under
    the Euclidean potential: solve (I + eta*M) y = x - eta*q exactly.  A
    Tridiagonal M shifts to d*I + o*K, solved by elimination: its pivots
    p_i = d + o^2/p_{i-1}, p_0 = d, keep |p_i| >= |d| > 0."""
    if problem.linear_terms is None:
        raise ConfigurationError("reference proximal step needs a linear operator")
    if problem.feasible_set.kind != WHOLE_SPACE:
        raise ConfigurationError("reference proximal step needs a whole-space set")
    m, q = problem.linear_terms
    b = np.asarray(x, dtype=float) - eta * q
    if not isinstance(m, Tridiagonal):
        return np.linalg.solve(np.eye(m.shape[0]) + eta * m, b)
    a = m.shifted(eta)
    d, o = a.diag, a.off
    b = [float(v) for v in b]
    p, r = [d], [b[0]]
    for i in range(1, len(b)):
        p.append(d + o * o / p[-1])
        r.append(b[i] + o * r[-1] / p[-2])
    y = [r[-1] / p[-1]]
    for i in range(len(b) - 2, -1, -1):
        y.append((r[i] - o * y[-1]) / p[i])
    return np.array(y[::-1])


def eg_step_euclidean(problem: VIProblem, eta1: float, eta2: float,
                      x: Vector) -> Vector:
    """Two projected half-steps: probe with eta1, move with eta2."""
    x = np.asarray(x, dtype=float)
    p = problem.feasible_set.project
    w = p(x - eta1 * problem.F(x))
    return p(x - eta2 * problem.F(w))


def eg_step_entropy(problem: VIProblem, eta1: float, eta2: float,
                    x: Vector) -> Vector:
    """Multiplicative-weights form of the same two half-steps on the
    simplex: reweight by exp(-eta*F) and renormalize."""
    x = np.asarray(x, dtype=float)
    w = x * np.exp(-eta1 * problem.F(x))
    w = w / w.sum()
    y = x * np.exp(-eta2 * problem.F(w))
    return y / y.sum()


def dr_step(pair: SplitPair, eta: float, x: Vector) -> Vector:
    """Douglas-Rachford governing update from the resolvents."""
    x = np.asarray(x, dtype=float)
    rb = pair.resolvent_B(eta, x)
    return pair.resolvent_A(eta, 2.0 * rb - x) + x - rb


def fb_step(pair: SplitPair, eta: float, x: Vector) -> Vector:
    """Forward step on B, backward (resolvent) step on A."""
    x = np.asarray(x, dtype=float)
    return pair.resolvent_A(eta, x - eta * pair.B_forward(x))


def bnn_field(problem: VIProblem, x: Vector) -> Vector:
    """Excess-payoff dynamics on the simplex, coded entrywise:
    growth by own excess payoff, decay by the population total."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(problem.F(x), dtype=float)
    centered = f - float(np.dot(x, f))
    gain = np.maximum(-centered, 0.0)
    return gain - x * gain.sum()


def fbf_field(problem: VIProblem, eta: float, x: Vector) -> Vector:
    """Forward-backward-forward vector field: move to the projected probe
    point, then correct by the operator drift between x and the probe."""
    x = np.asarray(x, dtype=float)
    y = problem.feasible_set.project(x - eta * problem.F(x))
    return y + eta * (problem.F(x) - problem.F(y)) - x

