"""Monodromy matrix and Hill discriminant of y'' + q(x) y = E y over [0, 1].

The fundamental pair (c, s) with c(0) = s'(0) = 1, c'(0) = s(0) = 0 is
transported across one period by an adaptive embedded Runge-Kutta 7(8)
(Fehlberg's 13-stage pair).  The integrator is batched: a whole vector of
E values advances in lockstep with a shared adaptive step, which is what
makes dense eigenvalue scans and stability-region grids affordable.  A
fixed-step variant with precomputed stage potentials serves large grids
where per-point adaptivity would be wasted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotAnEigenvalue, StepLimitExceeded, TolFailure
from .potential import PotentialSpec, evaluate_potential

__all__ = [
    "IntegratorSettings",
    "Monodromy",
    "EigenvalueHit",
    "monodromy",
    "monodromy_batch",
    "discriminant",
    "discriminant_batch",
    "discriminant_derivative",
    "multiplicity_estimate",
    "periodic_eigenvalues_on_interval",
]

# ---------------------------------------------------------------------------
# Fehlberg RK7(8) tableau (13 stages).  b7 propagates the 7th-order solution,
# the classical error estimate is h * 41/840 * (k0 + k10 - k11 - k12).
# ---------------------------------------------------------------------------

_C = np.array([
    0.0, 2.0 / 27.0, 1.0 / 9.0, 1.0 / 6.0, 5.0 / 12.0, 0.5, 5.0 / 6.0,
    1.0 / 6.0, 2.0 / 3.0, 1.0 / 3.0, 1.0, 0.0, 1.0,
])

_A_ROWS = [
    [],
    [2.0 / 27.0],
    [1.0 / 36.0, 1.0 / 12.0],
    [1.0 / 24.0, 0.0, 1.0 / 8.0],
    [5.0 / 12.0, 0.0, -25.0 / 16.0, 25.0 / 16.0],
    [1.0 / 20.0, 0.0, 0.0, 1.0 / 4.0, 1.0 / 5.0],
    [-25.0 / 108.0, 0.0, 0.0, 125.0 / 108.0, -65.0 / 27.0, 125.0 / 54.0],
    [31.0 / 300.0, 0.0, 0.0, 0.0, 61.0 / 225.0, -2.0 / 9.0, 13.0 / 900.0],
    [2.0, 0.0, 0.0, -53.0 / 6.0, 704.0 / 45.0, -107.0 / 9.0, 67.0 / 90.0, 3.0],
    [-91.0 / 108.0, 0.0, 0.0, 23.0 / 108.0, -976.0 / 135.0, 311.0 / 54.0,
     -19.0 / 60.0, 17.0 / 6.0, -1.0 / 12.0],
    [2383.0 / 4100.0, 0.0, 0.0, -341.0 / 164.0, 4496.0 / 1025.0, -301.0 / 82.0,
     2133.0 / 4100.0, 45.0 / 82.0, 45.0 / 164.0, 18.0 / 41.0],
    [3.0 / 205.0, 0.0, 0.0, 0.0, 0.0, -6.0 / 41.0, -3.0 / 205.0, -3.0 / 41.0,
     3.0 / 41.0, 6.0 / 41.0, 0.0],
    [-1777.0 / 4100.0, 0.0, 0.0, -341.0 / 164.0, 4496.0 / 1025.0, -289.0 / 82.0,
     2193.0 / 4100.0, 51.0 / 82.0, 33.0 / 164.0, 12.0 / 41.0, 0.0, 1.0],
]

_B8 = np.array([
    0.0, 0.0, 0.0, 0.0, 0.0, 34.0 / 105.0, 9.0 / 35.0, 9.0 / 35.0,
    9.0 / 280.0, 9.0 / 280.0, 0.0, 41.0 / 840.0, 41.0 / 840.0,
])

_ERR_WEIGHT = 41.0 / 840.0  # error = h * w * (k0 + k10 - k11 - k12)

_NSTAGES = 13


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_steps: int = 10**6

    def __post_init__(self) -> None:
        if self.rel_tol < 1e-13:
            raise ValueError("rel_tol below 1e-13 is not resolvable in doubles")
        if self.max_steps < 10**3:
            raise ValueError("max_steps must be >= 1000")

    def halved(self) -> "IntegratorSettings":
        return IntegratorSettings(
            rel_tol=max(self.rel_tol / 2.0, 1e-13),
            abs_tol=self.abs_tol / 2.0,
            max_steps=self.max_steps,
        )


DEFAULT_SETTINGS = IntegratorSettings()


@dataclass(frozen=True)
class Monodromy:
    """Transport matrix of (c, s) over one period: rows (value, derivative)."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    @property
    def trace(self) -> complex:
        return self.m11 + self.m22

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class EigenvalueHit:
    """One (anti)periodic eigenvalue on the real line."""

    E: float
    parity: int  # +2 or -2, the value of Delta
    order_d: int  # estimated ord of Delta^2 - 4
    residual: float  # |Delta(E) - parity| as measured


def _line_potential(spec: PotentialSpec) -> Callable[[np.ndarray], np.ndarray]:
    z0 = spec.z0

    def q(x: np.ndarray) -> np.ndarray:
        return evaluate_potential(spec, z0 + x)

    return q


def _rk_step(qs: np.ndarray, x: float, h: float, y: np.ndarray,
             E: np.ndarray, variational: bool) -> tuple[np.ndarray, np.ndarray]:
    """One RK7(8) step for the batched fundamental system.

    y has shape (4, K) or (8, K); qs holds the 13 stage potentials.  Returns
    (y_new, err_vector).
    """
    ks = []
    for i in range(_NSTAGES):
        yi = y
        if i > 0:
            acc = np.zeros_like(y)
            row = _A_ROWS[i]
            for j, a in enumerate(row):
                if a != 0.0:
                    acc += a * ks[j]
            yi = y + h * acc
        w = E - qs[i]
        f = np.empty_like(yi)
        f[0] = yi[1]
        f[1] = w * yi[0]
        f[2] = yi[3]
        f[3] = w * yi[2]
        if variational:
            f[4] = yi[5]
            f[5] = w * yi[4] + yi[0]
            f[6] = yi[7]
            f[7] = w * yi[6] + yi[2]
        ks.append(f)
    acc = np.zeros_like(y)
    for i in range(_NSTAGES):
        b = _B8[i]
        if b != 0.0:
            acc += b * ks[i]
    y_new = y + h * acc
    err = h * _ERR_WEIGHT * (ks[0] + ks[10] - ks[11] - ks[12])
    return y_new, err


def _transport(qfun, E: np.ndarray, settings: IntegratorSettings,
               variational: bool) -> np.ndarray:
    """Adaptive transport of the fundamental system from x=0 to x=1.

    Returns the final state, shape (4, K) or (8, K) with rows
    (c, c', s, s'[, dc/dE, dc'/dE, ds/dE, ds'/dE]).
    """
    E = np.asarray(E, dtype=complex).ravel()
    K = E.size
    rows = 8 if variational else 4
    y = np.zeros((rows, K), dtype=complex)
    y[0] = 1.0
    y[3] = 1.0
    if K == 0:
        return y

    x = 0.0
    h = 0.01
    nsteps = 0
    rtol, atol = settings.rel_tol, settings.abs_tol
    while x < 1.0:
        if nsteps >= settings.max_steps:
            raise StepLimitExceeded(f"exceeded {settings.max_steps} steps at x={x:.6f}")
        h = min(h, 1.0 - x)
        qs = qfun(x + _C * h)
        y_new, err = _rk_step(qs, x, h, y, E, variational)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = np.abs(err) / scale
        # worst column governs the shared step
        norm = float(np.sqrt(np.mean(ratio * ratio, axis=0)).max())
        nsteps += 1
        if norm <= 1.0:
            x += h
            y = y_new
            factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** (-0.125)))
        else:
            factor = max(0.1, 0.9 * norm ** (-0.125))
        h *= factor
        if h < 1e-13:
            raise TolFailure("step size underflow in adaptive transport")
    return y


def _transport_fixed(qfun, E: np.ndarray, nsteps: int,
                     variational: bool = False) -> np.ndarray:
    """Fixed-step transport using the 8th-order weights.

    Stage potentials for all steps are precomputed in one vectorized call,
    which is the fast path for large E grids (stability regions).
    """
    E = np.asarray(E, dtype=complex).ravel()
    K = E.size
    rows = 8 if variational else 4
    y = np.zeros((rows, K), dtype=complex)
    y[0] = 1.0
    y[3] = 1.0
    h = 1.0 / nsteps
    xs = (np.arange(nsteps)[:, None] + _C[None, :]) * h
    qs_all = qfun(xs.ravel()).reshape(nsteps, _NSTAGES)
    for step in range(nsteps):
        y, _ = _rk_step(qs_all[step], step * h, h, y, E, variational)
    return y


def monodromy_batch(spec: PotentialSpec, E, settings: Optional[IntegratorSettings] = None,
                    variational: bool = False) -> np.ndarray:
    """Final fundamental-system states for a vector of E values."""
    settings = settings or DEFAULT_SETTINGS
    return _transport(_line_potential(spec), E, settings, variational)


def monodromy(spec: PotentialSpec, E: complex,
              settings: Optional[IntegratorSettings] = None) -> Monodromy:
    """Monodromy matrix M(E) with columns (c, s) evaluated at x = 1."""
    y = monodromy_batch(spec, [E], settings)
    return Monodromy(m11=complex(y[0, 0]), m12=complex(y[2, 0]),
                     m21=complex(y[1, 0]), m22=complex(y[3, 0]))


def discriminant_batch(spec: PotentialSpec, E, settings: Optional[IntegratorSettings] = None,
                       derivative: bool = False):
    """Delta(E) (and optionally dDelta/dE) for a vector of E values."""
    y = monodromy_batch(spec, E, settings, variational=derivative)
    delta = y[0] + y[3]
    if derivative:
        return delta, y[4] + y[7]
    return delta


def discriminant(spec: PotentialSpec, E: complex,
                 settings: Optional[IntegratorSettings] = None) -> complex:
    """Hill discriminant Delta(E) = tr M(E)."""
    return complex(discriminant_batch(spec, [E], settings)[0])


def discriminant_derivative(spec: PotentialSpec, E: complex,
                            settings: Optional[IntegratorSettings] = None) -> complex:
    """dDelta/dE via the variational system integrated with the pair."""
    _, d = discriminant_batch(spec, [E], settings, derivative=True)
    return complex(d[0])


def multiplicity_estimate(spec: PotentialSpec, E: complex,
                          settings: Optional[IntegratorSettings] = None) -> int:
    """Estimate ord_E(Delta^2 - 4) at the root nearest to E.

    Fits a quartic to Delta^2 - 4 on a circle of radius 1e-2 around E and
    returns the lowest order whose scaled Taylor coefficient dominates.
    Estimates of 3 and above are reported but not certified.
    """
    settings = settings or DEFAULT_SETTINGS
    d0 = discriminant(spec, E, settings)
    if min(abs(d0 - 2.0), abs(d0 + 2.0)) > 1e-4:
        raise NotAnEigenvalue(f"Delta(E) = {d0} is not within 1e-4 of +-2")
    r = 1e-2
    npts = 12
    theta = 2.0 * math.pi * np.arange(npts) / npts
    pts = E + r * np.exp(1j * theta)
    vals = discriminant_batch(spec, pts, settings) ** 2 - 4.0
    w = (pts - E) / r
    design = np.vander(w, 5, increasing=True)  # columns w^0 .. w^4
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    scaled = np.abs(coef)  # |a_k| r^k since the fit is in w = (E'-E)/r
    top = scaled[1:].max()
    for k in range(1, 5):
        if scaled[k] >= 0.05 * top:
            return k
    return 4


def _polish_tangencies(spec, E0: np.ndarray, target: float,
                       settings: IntegratorSettings) -> tuple[np.ndarray, np.ndarray]:
    """Newton on Delta'(E) = 0 for tangential hits (Delta touching +-2)."""
    E = E0.astype(float).copy()
    h = 1e-5 * (1.0 + np.abs(E))
    for _ in range(10):
        pts = np.concatenate([E, E + h, E - h])
        _, dall = discriminant_batch(spec, pts, settings, derivative=True)
        n = E.size
        d1 = dall[:n].real
        d2 = (dall[n:2 * n].real - dall[2 * n:].real) / (2.0 * h)
        step = np.where(np.abs(d2) > 1e-300, d1 / d2, 0.0)
        step = np.clip(step, -10.0 * h, 10.0 * h)
        E = E - step
        if np.all(np.abs(step) <= 1e-13 * (1.0 + np.abs(E))):
            break
    delta = discriminant_batch(spec, E, settings)
    return E, np.abs(delta.real - target)


def periodic_eigenvalues_on_interval(spec: PotentialSpec, a: float, b: float,
                                     settings: Optional[IntegratorSettings] = None,
                                     ) -> list[EigenvalueHit]:
    """All real solutions of Delta = +2 and Delta = -2 in [a, b].

    Dense sampling (64 points per unit, refined where |Delta| is within
    [1.8, 2.2]) catches transversal crossings by sign change and tangential
    touch points as local extrema; both are polished and tagged with parity
    and an order estimate.  Requires Delta real on [a, b] (tau on the
    imaginary axis, trig-limit, or real constant mode).
    """
    if not a < b:
        raise ValueError("need a < b")
    settings = settings or DEFAULT_SETTINGS
    if spec.mode == "elliptic" and abs(spec.torus.tau.real) > 1e-12:
        raise ValueError("real-line eigenvalue search requires tau in i*R")

    npts = max(65, int(math.ceil(64.0 * (b - a))) + 1)
    grid = np.linspace(a, b, npts)
    delta = discriminant_batch(spec, grid, settings).real

    # refine where |Delta| sits in the tangency band
    for _ in range(2):
        near = np.abs(np.abs(delta) - 2.0) <= 0.2
        flag = near[:-1] | near[1:]
        if not flag.any():
            break
        newpts = []
        for i in np.nonzero(flag)[0]:
            newpts.extend(np.linspace(grid[i], grid[i + 1], 6)[1:-1])
        newpts = np.array(newpts)
        newdelta = discriminant_batch(spec, newpts, settings).real
        grid = np.concatenate([grid, newpts])
        delta = np.concatenate([delta, newdelta])
        order = np.argsort(grid)
        grid, delta = grid[order], delta[order]

    raw_hits: list[tuple[float, float, float]] = []  # (E, target, residual)
    for target in (2.0, -2.0):
        f = delta - target
        # roots landing exactly on sample points defeat the sign-change test
        on_grid = np.nonzero(np.abs(f) <= 1e-12)[0]
        for i in on_grid:
            raw_hits.append((float(grid[i]), target, float(abs(f[i]))))
        cross = np.nonzero(f[:-1] * f[1:] < 0.0)[0]
        if cross.size:
            # Newton from the secant seed, clamped to the sampling bracket
            lo = grid[cross].copy()
            hi = grid[cross + 1].copy()
            flo = f[cross].copy()
            E = lo - flo * (hi - lo) / (f[cross + 1] - flo)
            res = np.full(E.shape, np.inf)
            for _ in range(10):
                dval, dder = discriminant_batch(spec, E, settings, derivative=True)
                fe = dval.real - target
                res = np.abs(fe)
                if np.all(res <= 1e-10):
                    break
                # shrink the bracket around the sign change
                same_side = fe * flo > 0.0
                lo = np.where(same_side, E, lo)
                flo = np.where(same_side, fe, flo)
                hi = np.where(same_side, hi, E)
                step = np.where(np.abs(dder.real) > 1e-300, fe / dder.real, 0.0)
                E_new = E - step
                escaped = (E_new <= lo) | (E_new >= hi)
                E = np.where(escaped, 0.5 * (lo + hi), E_new)
            res = np.abs(discriminant_batch(spec, E, settings).real - target)
            for e_val, r_val in zip(E, res):
                if r_val > 1e-6:
                    raise TolFailure(
                        f"crossing polish stalled at E={e_val} (|Delta-target|={r_val:.2e})")
                raw_hits.append((float(e_val), target, float(r_val)))

        # tangential candidates: interior extrema of Delta near the target
        sgn = 1.0 if target > 0 else -1.0
        g = sgn * delta
        idx = np.nonzero((g[1:-1] >= g[:-2]) & (g[1:-1] >= g[2:])
                         & (np.abs(delta[1:-1] - target) <= 0.4))[0] + 1
        if idx.size:
            E_t, res_t = _polish_tangencies(spec, grid[idx], target, settings)
            for e_val, r_val in zip(E_t, res_t):
                if a < e_val < b and r_val <= 1e-7:
                    raw_hits.append((float(e_val), target, float(r_val)))

    # merge duplicates (tangency + crossing pairs, refined-grid repeats)
    raw_hits.sort(key=lambda t: t[0])
    merged: list[tuple[float, float, float]] = []
    for e_val, target, r_val in raw_hits:
        if merged and abs(e_val - merged[-1][0]) <= 1e-8 * (1.0 + abs(e_val)) \
                and merged[-1][1] == target:
            if r_val < merged[-1][2]:
                merged[-1] = (e_val, target, r_val)
            continue
        merged.append((e_val, target, r_val))

    hits = []
    for e_val, target, r_val in merged:
        try:
            order_d = multiplicity_estimate(spec, e_val, settings)
        except NotAnEigenvalue:
            continue
        hits.append(EigenvalueHit(E=e_val, parity=int(target), order_d=order_d,
                                  residual=r_val))
    hits.sort(key=lambda hit: hit.E)
    return hits
