"""Monodromy matrix, Hill discriminant and real (anti)periodic eigenvalues.

The fundamental pair (c, s) of y'' + q(x) y = E y, normalized at a start
point, is transported by an adaptive embedded Runge-Kutta 7(8) (Fehlberg's
13-stage pair), batched: K values of E advance with a shared step.  Only
half a period is transported.  Like every engine it runs on the sampling
line tau/4 + [0, 1] (see kdv_spectral._line_modes),
whatever the spec's base point z0.  With tau in iR that line is
PT-symmetric about x_c = 0 (and about x_c = 1/2):
q(x_c - t) = conj q(x_c + t).  One transport over E u conj(E) (real E
once), from whichever centre has the smaller |q|, gives the fundamental
matrix Phi_+ at x_c + 1/2; the one at x_c - 1/2 is
Phi_-(E) = S conj(Phi_+(conj E)) S with S = diag(1, -1), and
M = adj(Phi_-) Phi_+ (Magnus & Winkler, Hill's Equation, 1966, ch. 1-2).
For real E, Delta = 2 Re(c conj s' + s conj c').
Lines that are not PT-symmetric (tau off iR, a complex constant) transport
the reflected line q(x_c - t), the reversed modes, for Phi_- instead, at
the cost of one full period.

A step on a few points costs numpy's per-call overhead, not arithmetic,
and a monodromy is an ordered product of transfer matrices.  So K points go
in windows of W = _WINDOW // K equal steps (fewer where the modes doubled,
see _transport): one pass over the dense 13 x 13 tableau (each stage one
matrix product over those before it) gives every step's map from the
identity and its error estimate, and the steps before the first rejected
one are multiplied onto the state pairwise in log2 W levels.  A large
batch amortises the calls itself, so there W is 1: a plain adaptive step
from the state, wasting no steps past a rejection.  Stage
potentials sum the closed-form Fourier modes of q on the sampling line (the
modes Hill's method reads) with z = exp(2 pi i x) and its powers, never a
wp series.  Large E grids are not transported point by point:
spectrum.stability_region reads every arc point from a guarded Chebyshev
proxy of Delta fit to a few hundred adaptive samples.

Real solutions of Delta = +-2 are not searched for on Delta: they are the
real eigenvalues of the Floquet-Fourier-Hill matrices H_0 and H_pi built from
the closed-form Fourier modes of the potential (Deconinck & Kutz, J. Comput.
Phys. 219, 2006; Curtis & Deconinck, Math. Comp. 79, 2010), real matrices
on a PT-symmetric line, and one plain Delta call certifies them where
Hill's matrices put them.
"""

from __future__ import annotations

import math
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
from .potential import PotentialSpec, _pt_symmetric

__all__ = [
    "IntegratorSettings",
    "Monodromy",
    "EigenvalueHit",
    "monodromy",
    "monodromy_batch",
    "discriminant",
    "discriminant_batch",
    "multiplicity_estimate",
    "periodic_eigenvalues_on_interval",
]

# ---------------------------------------------------------------------------
# Fehlberg RK7(8) tableau (13 stages; NASA TR R-287, 1968).  _B8 propagates
# the 8th-order solution; the classical error estimate is
# h * 41/840 * (k0 + k10 - k11 - k12).
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

_NSTAGES = 13
_EYE = np.array([1, 0, 0, 1], dtype=complex)  # identity state, rows (c, c', s, s')

# dense strictly lower-triangular stage matrix, and the rows (_B8, error)
_A = np.array([row + [0.0] * (_NSTAGES - len(row)) for row in _A_ROWS])
_B_ERR = np.zeros((2, _NSTAGES))
_B_ERR[0] = _B8
_B_ERR[1, [0, 10, 11, 12]] = np.array([1.0, 1.0, -1.0, -1.0]) * 41.0 / 840.0

_CLUSTER_TOL = 1e-6  # relative spread of Hill eigenvalues forming one hit
_MAX_LINE_MODES = 2**15  # ceiling on the transport's potential mode cutoff
_MAX_STEPS = 10**6  # step maps per adaptive transport
_WINDOW = 128  # (step, point) pairs per window of the adaptive transport


@dataclass(frozen=True, slots=True)
class IntegratorSettings:
    """Relative tolerance of the adaptive transport; the absolute tolerance
    is 1e-2 of it."""

    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 1e-13):
            raise ValueError("rel_tol must be finite and >= 1e-13 (below that "
                             "it is not resolvable in doubles)")


DEFAULT_SETTINGS = IntegratorSettings()


@dataclass(frozen=True, slots=True)
class Monodromy:
    """Transport matrix of (c, s) over one period from the symmetry centre
    x_c the transport starts at (see _half_periods): rows (value, derivative)."""

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


@dataclass(frozen=True, slots=True)
class EigenvalueHit:
    """One (anti)periodic eigenvalue on the real line."""

    E: float
    parity: int  # +2 or -2, the value of Delta
    order_d: int  # estimated ord of Delta^2 - 4
    residual: float  # |Delta(E) - parity| as measured


def _line_potential(spec: PotentialSpec) -> np.ndarray:
    """Fourier modes q_hat_k, |k| <= K, of q on the sampling line, K doubled
    from the Hill cutoff while an end mode exceeds 1e-16 of the largest (only
    below Im tau ~ 0.15)."""
    K = _mode_cutoff(spec, 0)
    while True:
        q = _line_modes(spec, K)
        if not np.isfinite(q).all():
            raise TransportOverflow("Fourier modes of the potential are not finite")
        if max(abs(q[0]), abs(q[-1])) <= 1e-16 * np.abs(q).max():
            return q.astype(complex)
        K *= 2
        if K > _MAX_LINE_MODES:
            raise ResolutionError(f"potential modes do not decay to 1e-16 by cutoff "
                                  f"{K // 2} (Im tau = {spec.torus.tau.imag:.3g} too small)")


def _line_q(q_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """q at real points x of the line with modes q_hat: z = exp(2 pi i x) once
    per point, z^k by running products, and mode -k takes conj(z^k)."""
    K = q_hat.size // 2
    zk = np.repeat(np.exp(2j * math.pi * x)[..., None], K, axis=-1)
    np.multiply.accumulate(zk, axis=-1, out=zk)
    return q_hat[K] + zk @ q_hat[K + 1:] + (zk @ q_hat[:K][::-1].conj()).conj()


def _step_maps(q_hat: np.ndarray, x: np.ndarray, h: float, E: np.ndarray,
               y0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RK7(8) steps [x_j, x_j + h] for every point of E, all in one pass.

    y0 broadcasts to (4, W, K), rows (c, c', s, s'), and holds each step's
    start state: the identity, so that a step returns its step map, or the
    running state.  Each stage is one product with a row of h _A over the
    stages before it, and the new states and their error estimates are one
    product with h _B_ERR.  Returns (y_new, err).
    """
    shape = (y0.shape[0], x.size, E.size)
    w = E - _line_q(q_hat, x[:, None] + _C * h).T[..., None]  # (stage, W, K)
    hA = h * _A
    ks = np.empty((_NSTAGES,) + shape, dtype=complex)
    flat = ks.reshape(_NSTAGES, -1)
    yi = y0
    for i in range(_NSTAGES):
        if i:
            yi = y0 + (hA[i, :i] @ flat[:i]).reshape(shape)
        # (u, u')' = (u', w u) for each row pair
        ks[i, ::2] = yi[1::2]
        ks[i, 1::2] = w[i] * yi[::2]
    step, err = (h * _B_ERR @ flat).reshape((2,) + shape)
    return y0 + step, err


def _compose(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """T P for fundamental matrices in row form (c, c', s, s'),
    T = [[c, s], [c', s']] applied after P."""
    return np.array([t[0] * p[0] + t[2] * p[1], t[1] * p[0] + t[3] * p[1],
                     t[0] * p[2] + t[2] * p[3], t[1] * p[2] + t[3] * p[3]])


def _tree_product(maps: np.ndarray) -> np.ndarray:
    """T_{n-1} ... T_1 T_0 of maps (rows, n, K), neighbours multiplied
    pairwise in ceil(log2 n) levels."""
    while maps.shape[1] > 1:
        m = maps.shape[1] // 2 * 2
        maps = np.concatenate([_compose(maps[:, 1:m:2], maps[:, 0:m:2]), maps[:, m:]],
                              axis=1)
    return maps[:, 0]


@np.errstate(over="ignore", invalid="ignore")
def _transport(q_hat: np.ndarray, E: np.ndarray, settings: IntegratorSettings,
               x0: float) -> np.ndarray:
    """Adaptive transport of the fundamental system over [x0, x0 + 1/2].

    Returns the final state, shape (4, K) with rows (c, c', s, s') of the
    solutions normalized at x0.  Steps go in windows (see the module
    docstring); a window of one step starts from the state.  A trial step
    that overflows has a non-finite error norm and is rejected, so overflow
    ends in step size underflow; it is raised there as TransportOverflow, as
    is a window whose product overflows, and the float warnings of the
    rejected trials are not printed.
    """
    E = np.asarray(E, dtype=complex).ravel()
    K = E.size
    y = _EYE[:, None] * np.ones(K)
    if K == 0:
        return y
    # a window's stage potentials take no more memory than a lone step's at
    # the mode ceiling
    width = max(1, min(_WINDOW // K, 2 * _MAX_LINE_MODES // q_hat.size))
    t, h, nsteps = 0.0, 0.01, 0  # distance travelled from x0, step, step maps
    rtol = settings.rel_tol
    atol = 1e-2 * rtol
    while t < 0.5:
        if nsteps >= _MAX_STEPS:
            raise StepLimitExceeded(f"exceeded {_MAX_STEPS} steps at x={x0 + t:.6f}")
        n = min(width, math.ceil((0.5 - t) / h))
        end = n * h >= 0.5 - t
        if end:
            h = (0.5 - t) / n
        y0 = y[:, None] if n == 1 else _EYE[:, None, None]
        y_new, err = _step_maps(q_hat, x0 + t + h * np.arange(n), h, E, y0)
        ratio = np.abs(err) / (atol + rtol * np.maximum(np.abs(y0), np.abs(y_new)))
        # RMS over the rows; the worst column governs the shared step
        norms = np.sqrt((ratio * ratio).sum(axis=0).max(axis=1) / 4)
        nsteps += n
        ok = norms <= 1.0
        good = n if ok.all() else int(np.argmin(ok))
        if good:
            y = y_new[:, 0] if n == 1 else _tree_product(
                np.concatenate([y[:, None], y_new[:, :good]], axis=1))
            t = 0.5 if end and good == n else t + good * h
        norm = float(norms.max() if good == n else norms[good])
        if good == n:
            h *= 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** (-0.125)))
        else:
            h *= max(0.1, 0.9 * norm ** (-0.125))
        finite = n == 1 or bool(np.isfinite(y).all())  # a lone step rejects overflow
        if h < 1e-13 or not finite:
            if finite and math.isfinite(norm):
                raise TolFailure("step size underflow in adaptive transport")
            raise TransportOverflow(
                f"fundamental solutions overflow double precision at x={x0 + t:.6f} "
                f"(|E| up to {float(np.abs(E).max()):.3g})")
    return y


def _half_periods(spec: PotentialSpec, E: np.ndarray,
                  settings: IntegratorSettings) -> tuple[np.ndarray, np.ndarray]:
    """States at t = 1/2 of the line from x_c and of the reflected line.

    The line's potential is q(x_c + t), the reflected line's q(x_c - t); both
    start normalized at t = 0.  x_c is 0 or 1/2, both centres of a
    PT-symmetric line, whichever has the smaller |q|: a pole next to the
    start of a half period costs accuracy.  On a PT-symmetric line the
    reflected line at E is the conjugate of the line at conj(E), so one
    transport over E u conj(E) (each value once) serves both.  Otherwise the
    reflected line is transported on its own: its modes are the line's
    reversed, from -x_c.
    """
    q_hat = _line_potential(spec)
    centres = np.array([0.0, 0.5])
    xc = float(centres[np.argmin(np.abs(_line_q(q_hat, centres)))])
    E = np.asarray(E, dtype=complex).ravel()
    if _pt_symmetric(spec):
        pts, inv = np.unique(np.concatenate([E, E.conj()]), return_inverse=True)
        y = _transport(q_hat, pts, settings, xc)
        return y[:, inv[:E.size]], y[:, inv[E.size:]].conj()
    return (_transport(q_hat, E, settings, xc),
            _transport(q_hat[::-1], E, settings, -xc))


def _monodromy_rows(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows (m11, m21, m12, m22) of M = adj(Phi_-) Phi_+.

    Phi_+ (rows f = (c, c', s, s')) is the fundamental matrix at
    x_c + 1/2 and Phi_- = S B S, S = diag(1, -1), the one at x_c - 1/2, where
    B (rows b) is the reflected line's; adj(S B S) = [[b22, b12], [b21, b11]].
    """
    return _compose(b[[3, 1, 2, 0]], f)


def _transport_fixed(q_hat: np.ndarray, E: np.ndarray, nsteps: int) -> np.ndarray:
    """Transport over [0, 1] of the line with modes q_hat in nsteps equal
    steps: one window of step maps and their product tree.

    No library code calls it any more; bench/layers.json still traces it by
    name, and it goes when that file drops the entry.
    """
    E = np.asarray(E, dtype=complex).ravel()
    maps, _ = _step_maps(q_hat, np.arange(nsteps) / nsteps, 1.0 / nsteps, E,
                         _EYE[:, None, None])
    return _tree_product(maps)


def monodromy_batch(spec: PotentialSpec, E,
                    settings: Optional[IntegratorSettings] = None) -> np.ndarray:
    """Monodromy matrices over one period from x_c, for a vector of E.

    Rows (m11, m21, m12, m22): the columns (c, s) of the fundamental system
    normalized at x_c, one period on.  Each is built from two half periods
    about x_c (see _half_periods, _monodromy_rows).
    """
    settings = settings or DEFAULT_SETTINGS
    f, b = _half_periods(spec, E, settings)
    with np.errstate(over="ignore", invalid="ignore"):
        m = _monodromy_rows(f, b)
    if not np.isfinite(m).all():
        raise TransportOverflow(
            f"monodromy overflows double precision "
            f"(|E| up to {float(np.abs(np.asarray(E)).max()):.3g})")
    return m


def monodromy(spec: PotentialSpec, E: complex,
              settings: Optional[IntegratorSettings] = None) -> Monodromy:
    """Monodromy matrix M(E) with columns (c, s) evaluated at x = x_c + 1."""
    y = monodromy_batch(spec, [E], settings)
    return Monodromy(m11=complex(y[0, 0]), m12=complex(y[2, 0]),
                     m21=complex(y[1, 0]), m22=complex(y[3, 0]))


def discriminant_batch(spec: PotentialSpec, E,
                       settings: Optional[IntegratorSettings] = None) -> np.ndarray:
    """Delta(E) for a vector of E values."""
    y = monodromy_batch(spec, E, settings)
    return y[0] + y[3]


def discriminant(spec: PotentialSpec, E: complex,
                 settings: Optional[IntegratorSettings] = None) -> complex:
    """Hill discriminant Delta(E) = tr M(E)."""
    return complex(discriminant_batch(spec, [E], settings)[0])


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

    The line must be PT-symmetric.  It is symmetric about x = 0, so its
    modes are real and H_mu is a real matrix.
    """
    q = _line_modes(spec, 2 * K).real.astype(float)
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


def periodic_eigenvalues_on_interval(spec: PotentialSpec, a: float, b: float,
                                     settings: Optional[IntegratorSettings] = None,
                                     ) -> list[EigenvalueHit]:
    """All real solutions of Delta = +2 and Delta = -2 in [a, b].

    The solutions are the centres of the real eigenvalue clusters of the
    Floquet-Fourier-Hill matrices H_0 and H_pi (see _hill_clusters), built
    from the closed-form Fourier modes of the sampled potential.  The
    truncation K comes from the potential's mode decay, raised so that
    (2 pi K)^2 >= 16 max(|a|, |b|); the clusters at K and at 2K must agree
    in a slightly widened window, or ResolutionError is raised.  The cluster
    size is the order estimate (2 for a tangential touch, 1 for a crossing).
    One plain Delta call certifies every hit where Hill put it, or raises
    TolFailure: a double needs |Delta - parity| <= 1e-6 at its centre, a
    crossing a sign change of Delta - parity across E -+ h,
    h = _CLUSTER_TOL (1 + |E|) / 4 (other solutions of its parity are at
    least 4 h away, or they would share its cluster).  A solution within
    1e-9 (1 + max(|a|, |b|)) of an end counts as on it.  Requires Delta real
    on [a, b], i.e. a PT-symmetric line (tau on the imaginary axis, trig
    limit, or real constant; see _pt_symmetric).
    """
    if not a < b:
        raise ValueError("need a < b")
    settings = settings or DEFAULT_SETTINGS
    if not _pt_symmetric(spec):
        raise ValueError("real-line eigenvalue search requires tau in i*R "
                         "(or the trig limit, or a real constant)")

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

    # Hill's rounding varies with the BLAS thread count: a solution on an
    # end of [a, b] may land either side of it
    slack = 1e-9 * (1.0 + reach)
    E, target, order = np.array(
        [c for c in coarse if a - slack <= c[0] <= b + slack]).reshape(-1, 3).T
    if not E.size:
        return []
    cross = order == 1
    h = 0.25 * _CLUSTER_TOL * (1.0 + np.abs(E[cross]))
    n, m = E.size, h.size
    delta = discriminant_batch(
        spec, np.concatenate([E, E[cross] - h, E[cross] + h]), settings).real
    residual = np.abs(delta[:n] - target)
    f = delta[n:] - np.tile(target[cross], 2)
    ok = residual <= 1e-6
    ok[cross] = f[:m] * f[m:] < 0.0
    if not ok.all():
        bad = int(np.argmin(ok))
        kind = "crossing" if cross[bad] else "double"
        raise TolFailure(f"Hill eigenvalue E={E[bad]} ({kind}) fails the Delta check "
                         f"(|Delta-target|={residual[bad]:.2e})")
    # _hill_clusters sorts by centre
    return [EigenvalueHit(E=float(e), parity=int(t), order_d=int(o), residual=float(r))
            for e, t, o, r in zip(E, target, order, residual)]
