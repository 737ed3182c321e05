"""Independent implementations of the landmark iterations, coded from
their own defining formulas for use as comparison oracles in the tests.

Deliberately separate from the package (including its own reference
module): these share no code with the preset/target machinery they check.
"""

import numpy as np


def ppa_step_linear(m, q, eta, x):
    """Proximal-point step for F(x) = M x + q on the whole space under the
    Euclidean potential: exact linear solve of (I + eta M) y = x - eta q."""
    a = np.eye(m.shape[0]) + eta * m
    return np.linalg.solve(a, np.asarray(x, dtype=float) - eta * q)


def eg_step_euclidean(F, project, eta1, eta2, x):
    """Probe with eta1, move with eta2, both projected."""
    x = np.asarray(x, dtype=float)
    w = project(x - eta1 * F(x))
    return project(x - eta2 * F(w))


def eg_step_entropy(F, eta1, eta2, x):
    """Multiplicative-weights double step on the simplex."""
    x = np.asarray(x, dtype=float)
    w = x * np.exp(-eta1 * F(x))
    w = w / w.sum()
    y = x * np.exp(-eta2 * F(w))
    return y / y.sum()


def dr_step(ja, jb, x):
    """Douglas-Rachford governing update built from the two resolvents."""
    x = np.asarray(x, dtype=float)
    rb = jb(x)
    return ja(2.0 * rb - x) + x - rb


def fb_step(ja, b, eta, x):
    """Forward step on B, resolvent step on A."""
    x = np.asarray(x, dtype=float)
    return ja(x - eta * b(x))


def bnn_field(F, x):
    """Excess-payoff dynamics, entrywise: grow by own excess payoff,
    shrink by the population total."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(F(x), dtype=float)
    fhat = f - float(np.dot(x, f))
    gain = np.maximum(-fhat, 0.0)
    return gain - x * gain.sum()


def bnn_rk4(F, x0, dt, t_end):
    """Classical fixed-step RK4 of bnn_field in primal coordinates from x0
    to t_end; returns the final point."""
    x = np.asarray(x0, dtype=float)
    for _ in range(int(round(t_end / dt))):
        k1 = bnn_field(F, x)
        k2 = bnn_field(F, x + 0.5 * dt * k1)
        k3 = bnn_field(F, x + 0.5 * dt * k2)
        k4 = bnn_field(F, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def bnn_lyapunov(F, x):
    """Lyapunov function of the excess-payoff dynamics on a stable game,
    Gamma(x) = 1/2 ||[-(F(x) - <x, F(x)>)]_+||^2."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(F(x), dtype=float)
    fhat = f - float(np.dot(x, f))
    gain = np.maximum(-fhat, 0.0)
    return 0.5 * float(np.dot(gain, gain))


def bnn_log_gap(F, eta, x):
    """Dual gap S(T(x)) - S(x) of the excess-payoff target, written out:
    the dual shift eta * [-(F(x) - <x, F(x)>)]_+ / x minus its log-sum-exp
    normalizer (with log x) times the all-ones vector."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(F(x), dtype=float)
    shift = eta * (np.maximum(-(f - float(np.dot(x, f))), 0.0) / x)
    shifted = np.log(x) + shift
    peak = shifted.max()
    log_z = peak + np.log(np.exp(shifted - peak).sum())
    return shift - log_z


def fbf_field(F, project, eta, x):
    """Forward-backward-forward vector field."""
    x = np.asarray(x, dtype=float)
    y = project(x - eta * F(x))
    return y + eta * (F(x) - F(y)) - x


def md2_rates(F, eta, gamma1, gamma2, x, xi):
    """Second-order mirror descent right-hand sides (z rate, xi rate)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return -eta * F(x) - gamma1 * (x - xi), gamma2 * (x - xi)


def brute_force_simplex_projection_2d(v, resolution=1e-3):
    """Grid minimizer of ||x - v|| over the 2-simplex parametrized by its
    first coordinate."""
    v = np.asarray(v, dtype=float)
    x1 = np.arange(0.0, 1.0 + resolution / 2, resolution)
    pts = np.stack([x1, 1.0 - x1], axis=1)
    return pts[np.argmin(np.sum((pts - v) ** 2, axis=1))]
