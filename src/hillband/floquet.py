"""Monodromy matrix, Hill discriminant and real (anti)periodic eigenvalues.

The fundamental pair (c, s) of y'' + q(x) y = E y with c(0) = s'(0) = 1,
c'(0) = s(0) = 0 is transported across one period [0, 1] by an adaptive
embedded Runge-Kutta 7(8) (Fehlberg's 13-stage pair), batched: a vector of
E values advances in lockstep with a shared step.  Each stage potential is
the sum of the closed-form Fourier modes of q on the sampling line (the
modes Hill's method below reads), never a wp series.  Large E grids are not
transported point by point: spectrum.stability_region fits a guarded
Chebyshev proxy of Delta to a few hundred adaptive samples.

Real solutions of Delta = +-2 are not searched for on Delta: they are the
real eigenvalues of the Floquet-Fourier-Hill matrices H_0 and H_pi built from
the closed-form Fourier modes of the potential (Deconinck & Kutz, J. Comput.
Phys. 219, 2006; Curtis & Deconinck, Math. Comp. 79, 2010), and Delta only
certifies them.  One batched Newton polisher (_polish) serves every point
that is certified on Delta: these eigenvalues, and the band edges that
spectrum's adjudication of near-real Q root clusters recovers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NotAnEigenvalue,
    ResolutionError,
    StepLimitExceeded,
    TolFailure,
    TransportOverflow,
)
from .kdv_spectral import _line_modes, _mode_cutoff
from .potential import PotentialSpec

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

_CLUSTER_TOL = 1e-6  # relative spread of Hill eigenvalues forming one hit
_MAX_LINE_MODES = 2**15  # ceiling on the transport's potential mode cutoff


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_steps: int = 10**6

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 1e-13):
            raise ValueError("rel_tol must be finite and >= 1e-13 (below that "
                             "it is not resolvable in doubles)")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError("abs_tol must be finite and > 0")
        if (isinstance(self.max_steps, bool)
                or not isinstance(self.max_steps, numbers.Integral)
                or self.max_steps < 10**3):
            raise ValueError("max_steps must be an integer >= 1000")

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


def _line_potential(spec: PotentialSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fourier modes (2 pi i k, q_hat_k), |k| <= K, of q on the sampling line,
    K doubled from the Hill cutoff while an end mode exceeds 1e-16 of the largest."""
    K = _mode_cutoff(spec, 0)
    while True:
        q = _line_modes(spec, K)
        if not np.isfinite(q).all():
            raise TransportOverflow("Fourier modes of the potential are not finite")
        if max(abs(q[0]), abs(q[-1])) <= 1e-16 * np.abs(q).max():
            return 2j * math.pi * np.arange(-K, K + 1), q.astype(complex)
        K *= 2
        if K > _MAX_LINE_MODES:
            raise ResolutionError(f"potential modes do not decay to 1e-16 by cutoff "
                                  f"{K // 2} (pole too close to the sampling line)")


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


@np.errstate(over="ignore", invalid="ignore")
def _transport(ik: np.ndarray, q_hat: np.ndarray, E: np.ndarray,
               settings: IntegratorSettings, variational: bool) -> np.ndarray:
    """Adaptive transport of the fundamental system from x=0 to x=1.

    Returns the final state, shape (4, K) or (8, K) with rows
    (c, c', s, s'[, dc/dE, dc'/dE, ds/dE, ds'/dE]).  A trial step that
    overflows has a non-finite error norm and is rejected, so overflow ends
    in step size underflow; it is raised there as TransportOverflow, and
    the float warnings of the rejected trials are not printed.
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
        qs = np.exp(np.multiply.outer(x + _C * h, ik)) @ q_hat
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
            if not math.isfinite(norm):
                raise TransportOverflow(
                    f"fundamental solutions overflow double precision at x={x:.6f} "
                    f"(|E| up to {float(np.abs(E).max()):.3g})")
            raise TolFailure("step size underflow in adaptive transport")
    return y


def _transport_fixed(qfun, E: np.ndarray, nsteps: int,
                     variational: bool = False) -> np.ndarray:
    """Fixed-step transport using the 8th-order weights.

    Stage potentials for all steps are precomputed in one vectorized call.
    No library code calls it any more; bench/layers.json still traces it by
    name, and it goes when that file drops the entry.
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
    return _transport(*_line_potential(spec), E, settings, variational)


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


def _hill_clusters(spec: PotentialSpec, K: int, lo: float,
                   hi: float) -> list[tuple[float, int, int]]:
    """Real (anti)periodic eigenvalues in [lo, hi] from the truncated Hill matrix.

    H_mu = Toeplitz(q_hat) - diag((2 pi k + mu)^2), k = -K..K: eigenvalues of
    H_0 solve Delta = +2 and those of H_pi solve Delta = -2.  Eigenvalues with
    |Im E| <= _CLUSTER_TOL * (1 + |E|) count as real (a double root may split
    off the axis by that much), and those of one parity that close to each
    other form one cluster.  Returns
    (centre, parity, size) triples sorted by centre.
    """
    q = _line_modes(spec, 2 * K).astype(complex)
    k = np.arange(-K, K + 1)
    toeplitz = q[2 * K + k[:, None] - k[None, :]]
    clusters = []
    for mu, parity in ((0.0, 2), (math.pi, -2)):
        ev = np.linalg.eigvals(toeplitz - np.diag((2.0 * math.pi * k + mu) ** 2))
        tol = _CLUSTER_TOL * (1.0 + np.abs(ev.real))
        real = np.sort(ev.real[(np.abs(ev.imag) <= tol) & (ev.real >= lo)
                               & (ev.real <= hi)])
        breaks = np.nonzero(np.diff(real) > _CLUSTER_TOL * (1.0 + np.abs(real[1:])))[0]
        for part in np.split(real, breaks + 1):
            if part.size:
                clusters.append((float(part.mean()), parity, part.size))
    return sorted(clusters)


def _polish(spec: PotentialSpec, E0: np.ndarray, target: np.ndarray,
            double: np.ndarray, settings: IntegratorSettings
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched Newton polish of real points on Delta.

    Every pass is one Delta, Delta' call over the points still moving.  A
    crossing runs Newton on Delta = target and stops once its step is at
    most 1e-8 (1 + |E|): Newton converges quadratically, so the next step
    would be negligible.  A double (``double`` true; target unused) runs
    Newton on an extremum of Delta^2 - 4, i.e. on Delta Delta' = 0 with
    derivative Delta'^2 + Delta Delta'', and stops at a step of
    1e-13 (1 + |E|).  The extremum objective also finds a minimum where
    Delta = 0 inside a band, which Newton on Delta' = 0 would miss.
    Delta'' is a central difference of Delta' at E +- h,
    h = 1e-5 (1 + |E0|), and every step is clipped to +-10 h, so callers
    check their own window afterwards.  Returns the points with Delta,
    Delta' and Delta'' (0 for crossings) from each point's last pass.
    """
    E = E0.astype(float).copy()
    h = 1e-5 * (1.0 + np.abs(E))
    delta, d1, d2 = np.zeros((3, E.size))
    live = np.ones(E.size, dtype=bool)
    for _ in range(10):
        idx = np.nonzero(live)[0]
        if not idx.size:
            break
        dbl = double[idx]
        tan = idx[dbl]
        pts = np.concatenate([E[idx], E[tan] + h[tan], E[tan] - h[tan]])
        dval, dder = discriminant_batch(spec, pts, settings, derivative=True)
        n, m = idx.size, tan.size
        delta[idx], d1[idx] = dval[:n].real, dder[:n].real
        d2[tan] = (dder[n:n + m].real - dder[n + m:].real) / (2.0 * h[tan])
        f = np.where(dbl, delta[idx] * d1[idx], delta[idx] - target[idx])
        fp = np.where(dbl, d1[idx] ** 2 + delta[idx] * d2[idx], d1[idx])
        step = np.divide(f, fp, out=np.zeros(n), where=np.abs(fp) > 1e-300)
        E[idx] -= np.clip(step, -10.0 * h[idx], 10.0 * h[idx])
        stop = np.where(dbl, 1e-13, 1e-8) * (1.0 + np.abs(E[idx]))
        live[idx] = np.abs(step) > stop
    return E, delta, d1, d2


def periodic_eigenvalues_on_interval(spec: PotentialSpec, a: float, b: float,
                                     settings: Optional[IntegratorSettings] = None,
                                     ) -> list[EigenvalueHit]:
    """All real solutions of Delta = +2 and Delta = -2 in [a, b].

    Candidates are the eigenvalues of the Floquet-Fourier-Hill matrices H_0
    and H_pi (see _hill_clusters), built from the closed-form Fourier modes of
    the sampled potential.  The truncation K comes from the potential's mode
    decay, raised so that (2 pi K)^2 >= 16 max(|a|, |b|); the candidates at K
    and at 2K must agree in a slightly widened window, or ResolutionError is
    raised.  The cluster size is the order estimate (2 for a tangential
    touch, 1 for a crossing), and Delta certifies every hit: each is
    polished (see _polish), and a closing residual |Delta - parity| above
    1e-6 raises TolFailure.  Requires Delta real on [a, b] (tau on the
    imaginary axis, trig-limit, or real constant mode).
    """
    if not a < b:
        raise ValueError("need a < b")
    settings = settings or DEFAULT_SETTINGS
    if spec.mode == "elliptic" and abs(spec.torus.tau.real) > 1e-12:
        raise ValueError("real-line eigenvalue search requires tau in i*R")

    reach = max(abs(a), abs(b))
    K = max(_mode_cutoff(spec, 0), math.ceil(2.0 * math.sqrt(reach) / math.pi))
    pad = 1e-3 * (1.0 + reach)  # keeps edges just outside [a, b] comparable
    coarse = _hill_clusters(spec, K, a - pad, b + pad)
    fine = _hill_clusters(spec, 2 * K, a - pad, b + pad)
    if len(coarse) != len(fine) or any(
            (c[1:] != f[1:]) or abs(c[0] - f[0]) > _CLUSTER_TOL * (1.0 + abs(c[0]))
            for c, f in zip(coarse, fine)):
        raise ResolutionError(
            f"Hill truncations K = {K} and {2 * K} disagree on [{a}, {b}] "
            f"({len(coarse)} vs {len(fine)} eigenvalue clusters)")

    found = [c for c in coarse if a <= c[0] <= b]
    if not found:
        return []
    E0 = np.array([c[0] for c in found])
    target = np.array([float(c[1]) for c in found])
    order = np.array([c[2] for c in found])
    E = _polish(spec, E0, target, order >= 2, settings)[0]
    residual = np.abs(discriminant_batch(spec, E, settings).real - target)
    worst = int(np.argmax(residual))
    if residual[worst] > 1e-6:
        raise TolFailure(f"Hill eigenvalue E={E[worst]} fails the Delta check "
                         f"(|Delta-target|={residual[worst]:.2e})")
    hits = [EigenvalueHit(E=float(e), parity=int(t), order_d=int(o),
                          residual=float(r))
            for e, t, o, r in zip(E, target, order, residual)]
    return sorted(hits, key=lambda hit: hit.E)
