"""Spectral polynomial of the DTV potential via the stationary-KdV chain.

The chain is the zero-mean-antiderivative form of the recursion

    u_0 = 1,   r_l = 1/4 u_{l-1}''' + q u_{l-1}' + 1/2 q' u_{l-1},
    u_l = zero-mean antiderivative of r_l,

with the free integration constants entering affinely through
f_l = sum_j d_j u_{l-j} (d_0 = 1) and solved by least squares against the
termination condition sum_{j=0}^{g} d_j u_{g+1-j}' = 0.  From f_0..f_g the
product solution F(E, z) = sum_l f_{g-l} E^l satisfies
F''' = 4 (E - q) F' - 2 q' F, and the Wronskian-square identity

    Q(E) = 1/4 F'^2 - 1/2 F F'' + (E - q) F^2

is independent of z; it is the monic spectral polynomial of degree 2g + 1
whose roots are the band edges.  Q is recovered from 2g + 2 Chebyshev-placed
E samples by interpolation on the scaled domain.

Numerical layout: the repeated third derivatives amplify mode-k roundoff by
(2 pi k)^2 per chain step, which in double precision caps the achievable
termination residual near 1e-7 for genus 3-4 potentials.  The chain therefore
runs in extended precision on truncated Fourier coefficient vectors: the
sampled line potential has closed-form coefficients (geometric csc^2 sums,
no FFT), products are exact convolutions truncated at a content-based
cutoff, and only final results are cast back to doubles.  A derivative is
the factor i w on mode k, w = 2 pi k, so the chain runs for r_l = i rho_l,
rho_l = -1/4 w^3 u + q * (w u) + 1/2 (w q) * u (* the mode convolution),
u_l = rho_l / w, and Q for F' = i w F: q's modes are the only complex numbers.
On a PT-symmetric line (q(-x) = conj q(x), as for tau in i R) they are real up to
extended roundoff (below 1e-17 of the largest), which is dropped, and every
u_l, F at the real nodes and Q value is exactly real, so the work runs in
numpy.longdouble, a quarter of clongdouble's multiplies; else in clongdouble.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elliptic import invariants
from .errors import (
    ConstancyFailure,
    DiscriminantOverflow,
    IllConditioned,
    NotNormalized,
    RankDeficiency,
    ResolutionError,
    UnsupportedMultiplicity,
)
from .potential import (
    CONSTANT,
    ELLIPTIC,
    TRIG_LIMIT,
    MultiplicityVector,
    PotentialSpec,
    _pt_symmetric,
    genus,
    trig_constant,
)

__all__ = [
    "KdVChain",
    "SpectralPolynomial",
    "RootCluster",
    "kdv_chain",
    "product_solution",
    "product_ode_residual",
    "spectral_polynomial",
    "spectral_roots",
    "trig_spectral_polynomial",
    "poly_discriminant",
]

_TOP_MODE_TOL = 1e-10
_CONSTANCY_TOL = 1e-6
_ROOT_MERGE_TOL = 1e-6
_ROOT_COND_LIMIT = 1e8
_MAX_N0 = 8

_LD = np.float128
_CLD = np.complex256
_PI_LD = _LD("3.14159265358979323846264338327950288")


@dataclass(frozen=True, slots=True)
class KdVChain:
    """Recursion basis u_0..u_{g+1}, solved constants, and diagnostics.

    basis_modes holds u_0..u_{g+1} as extended-precision centered
    coefficient vectors (modes -k_cut..k_cut), real on a PT-symmetric line.
    """

    spec: PotentialSpec
    genus_g: int
    k_cut: int
    constants: np.ndarray  # d_0 = 1, d_1 .. d_g
    termination_residual: float
    basis_modes: tuple[np.ndarray, ...]
    q_modes: np.ndarray


@dataclass(frozen=True, slots=True)
class SpectralPolynomial:
    """Monic polynomial Q(E), coefficients in descending powers.

    Both copies are real on a PT-symmetric line (see the module notes), else
    complex: coefficients in float64 or complex128, and coefficients_extended
    in extended precision, which polishes the roots; near-degenerate band
    edges split by less than sqrt(double eps) would otherwise surface as
    spurious conjugate pairs.  spectral_roots casts coefficients to complex.
    """

    coefficients: np.ndarray  # (2g+2,), coefficients[0] == 1
    z_constancy_diag: float
    tau: Optional[complex]
    n: MultiplicityVector
    coefficients_extended: Optional[np.ndarray] = None

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, E):
        return np.polyval(self.coefficients, E)

    def to_json_dict(self) -> dict:
        d = {
            "n": list(self.n.as_tuple()),
            "tau_im": self.tau.imag if self.tau is not None else None,
        }
        if self.tau is not None and abs(self.tau.real) > 0:
            d["tau_re"] = self.tau.real
        d.update({
            "degree": self.degree,
            "coeffs": [[c.real, c.imag] for c in self.coefficients],
            "z_constancy": self.z_constancy_diag,
        })
        return d


@dataclass(frozen=True, slots=True)
class RootCluster:
    value: complex
    multiplicity: int
    is_real: bool


# -- extended-precision coefficient-space helpers ----------------------------
# centered layout: array index j holds the coefficient of exp(2 pi i (j-K) x)

def _wavenumbers(arr: np.ndarray) -> np.ndarray:
    """w = 2 pi k of each mode; a derivative multiplies mode k by i w."""
    k = len(arr) // 2
    return 2 * _PI_LD * np.arange(-k, k + 1, dtype=_LD)


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two centered mode vectors, truncated to the window."""
    return np.convolve(a, b, "same")


def _norm(arr: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(arr) ** 2)))


def _solve_extended(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Square solve (Gaussian elimination, partial pivoting) in a, b's dtype."""
    dtype = np.result_type(a, b)
    a, b = a.astype(dtype), b.astype(dtype)
    m = len(b)
    for col in range(m):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        f = a[col + 1:, col] / a[col, col]
        a[col + 1:, col:] -= f[:, None] * a[col, col:]
        b[col + 1:] -= f * b[col]
    x = np.zeros(m, dtype=dtype)
    for row in range(m - 1, -1, -1):
        x[row] = (b[row] - np.sum(a[row, row + 1:] * x[row + 1:])) / a[row, row]
    return x


def _lstsq_extended(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares in extended precision via MGS QR with reorthogonalization.

    The termination columns become nearly parallel near the trig limit
    (condition numbers up to ~1e13), which double-precision solvers cannot
    resolve; a tall-skinny QR in extended precision keeps the residual
    meaningful.  Returns (solution, |R| diagonal).
    """
    m, k = a.shape
    dtype = np.result_type(a, b)
    qmat = np.zeros((m, k), dtype=dtype)
    rmat = np.zeros((k, k), dtype=dtype)
    for j in range(k):
        v = a[:, j].copy()
        for _ in range(2):
            for i in range(j):
                proj = np.sum(np.conj(qmat[:, i]) * v)
                rmat[i, j] += proj
                v -= proj * qmat[:, i]
        rjj = np.sqrt(np.sum(np.abs(v) ** 2))
        rmat[j, j] = rjj
        if float(rjj) > 0.0:
            qmat[:, j] = v / rjj
    rhs = np.array([np.sum(np.conj(qmat[:, i]) * b) for i in range(k)], dtype=dtype)
    sol = np.zeros(k, dtype=dtype)
    for i in range(k - 1, -1, -1):
        acc = rhs[i] - np.sum(rmat[i, i + 1:] * sol[i + 1:])
        sol[i] = acc / rmat[i, i] if float(np.abs(rmat[i, i])) > 0.0 else 0.0
    return sol, np.abs(np.diag(rmat)).astype(_LD)


def _mode_cutoff(spec: PotentialSpec, g: int) -> int:
    """Highest mode carrying chain content above the extended-precision floor.

    Chain element u_l has poles of order 2l, hence mode-k content of order
    k^(2l) exp(-2 pi k d) with d = Im tau / 4 the distance from the sampling
    line tau/4 + [0, 1] to the pole rows; the cutoff is where that drops
    below ~1e-21 of its peak for l = g + 1.
    """
    if spec.mode == CONSTANT:
        return 8
    d = spec.torus.tau.imag / 4.0
    p = 2 * (g + 1)
    k_peak = max(1.0, p / (2.0 * math.pi * d))
    target = 21.0 * math.log(10.0)
    k = k_peak
    for _ in range(40):
        k = k_peak + (target + p * math.log(k / k_peak)) / (2.0 * math.pi * d)
    k = math.ceil(k)
    return min(max(16, k), 220)


def _line_modes(spec: PotentialSpec, k_cut: int) -> np.ndarray:
    """Closed-form Fourier coefficients of q(tau/4 + x) on the sampling line.

    Every engine samples this line, whatever the spec's z0: sigma(L), Delta,
    Q and Hill's matrices depend on (n, tau) only, and at Im tau / 4 from
    both pole rows (Im 0 and Im tau/2) it is the farthest from the poles.
    For 0 < Im s < Im tau the Weierstrass term wp(s + x) expands as
      mode  0:  -2 eta1  (= -pi^2/3 + 8 pi^2 sum m q^m/(1-q^m))
      mode +m:  -4 pi^2 m exp(2 pi i m s) / (1 - q^m)
      mode -m:  -4 pi^2 m q^m exp(-2 pi i m s) / (1 - q^m)
    with q = exp(2 pi i tau) and s = tau/4 + w_k/2 (Im s is Im tau / 4 or
    3 Im tau / 4); the trig limit keeps only the upper series.
    """
    if spec.mode == CONSTANT:
        out = np.zeros(2 * k_cut + 1, dtype=_CLD)
        out[k_cut] = _CLD(spec.constant)
        return out

    m = np.arange(1, k_cut + 1, dtype=_LD)
    pi2 = _PI_LD * _PI_LD
    out = np.zeros(2 * k_cut + 1, dtype=_CLD)
    tau = spec.torus.tau
    line = tau / 4.0

    def expi(w: complex, mm: np.ndarray) -> np.ndarray:
        # exp(2 pi i m w) in extended precision
        base = 2j * _PI_LD * (_LD(w.real) + 1j * _LD(w.imag))
        return np.exp(mm * base.astype(_CLD))

    if spec.mode == TRIG_LIMIT:
        out[k_cut] = _LD(trig_constant(spec.n))
        for weight, shift in ((spec.n.n0 * (spec.n.n0 + 1), 0.0),
                              (spec.n.n1 * (spec.n.n1 + 1), 0.5)):
            if weight == 0:
                continue
            out[k_cut + 1:] += weight * 4.0 * pi2 * m * expi(line + shift, m)
        return out

    qm = expi(tau, m)  # q^m
    half = (0.0, 0.5, tau / 2.0, (1 + tau) / 2.0)
    for k, nk in enumerate(spec.n.as_tuple()):
        if nk < 1:
            continue
        w = nk * (nk + 1)
        s = line + half[k]
        es_p = expi(s, m)
        es_m = expi(tau - s, m)  # q^m exp(-2 pi i m s), bounded at large Im tau
        # -w * wp(s + x)
        out[k_cut] += w * (pi2 / 3.0 - 8.0 * pi2 * np.sum(m * qm / (1.0 - qm)))
        out[k_cut + 1:] += w * 4.0 * pi2 * m * es_p / (1.0 - qm)
        out[:k_cut] += (w * 4.0 * pi2 * m * es_m / (1.0 - qm))[::-1]
    return out


# -- chain construction ------------------------------------------------------

def kdv_chain(spec: PotentialSpec, g: int) -> KdVChain:
    """Build the recursion basis and solve the termination constants."""
    if max(spec.n.as_tuple()) > _MAX_N0:
        raise UnsupportedMultiplicity(
            f"max n_k = {max(spec.n.as_tuple())} > {_MAX_N0}: chain magnitudes "
            "exceed what the extended-precision window can certify to 1e-9")
    k_cut = _mode_cutoff(spec, g)
    q = _line_modes(spec, k_cut)
    qtail = float(np.max(np.abs(q[[0, -1]])) / np.max(np.abs(q)))
    if qtail > _TOP_MODE_TOL:
        raise ResolutionError(
            f"potential top-mode ratio {qtail:.2e} exceeds {_TOP_MODE_TOL:.0e} "
            f"at cutoff {k_cut} (Im tau = {spec.torus.tau.imag:.3g} too small "
            "for the mode window)")
    if _pt_symmetric(spec):
        q = q.real.copy()  # the imaginary parts are extended roundoff
    w = _wavenumbers(q)

    u = [np.zeros(2 * k_cut + 1, dtype=q.dtype)]
    u[0][k_cut] = 1.0
    rho: list[Optional[np.ndarray]] = [None]
    for _ in range(1, g + 2):
        prev = u[-1]
        rho_l = -0.25 * w**3 * prev + _conv(q, w * prev) + 0.5 * _conv(w * q, prev)
        rho.append(rho_l)
        u.append(np.divide(rho_l, w, out=np.zeros_like(rho_l), where=w != 0))

    # termination: rho_{g+1} + sum_{j=1..g} d_j rho_{g+1-j} = 0, least squares
    norms = [_norm(rho_l) for rho_l in rho[1:]]
    scale = max(max(norms), 1e-300)
    if g >= 1:
        cols = np.stack([rho[g + 1 - j] for j in range(1, g + 1)], axis=1)
        col_norms = np.array([max(_norm(cols[:, j]), 1e-300) for j in range(g)])
        a_scaled = cols / col_norms.astype(_LD)
        rhs = -rho[g + 1]
        sol, rdiag = _lstsq_extended(a_scaled, rhs)
        # near the trig limit the genus-carrying directions shrink like
        # exp(-pi Im tau) but stay far above the extended-precision floor;
        # genuine deficiency collapses the QR diagonal to roundoff
        if float(min(rdiag)) < 1e-16:
            raise RankDeficiency(
                f"termination QR diagonal {float(min(rdiag)):.2e} signals rank "
                f"< g = {g}: wrong genus or degenerate tau")
        resid_vec = rhs - a_scaled @ sol
        d = sol / col_norms.astype(_LD)
        d = d.astype(complex if np.iscomplexobj(d) else float)
        resid = _norm(resid_vec) / scale
    else:
        d = np.zeros(0)
        resid = _norm(rho[g + 1]) / scale

    constants = np.concatenate([[1.0], d])
    return KdVChain(spec=spec, genus_g=g, k_cut=k_cut, constants=constants,
                    termination_residual=float(resid),
                    basis_modes=tuple(u), q_modes=q)


def _f_modes(chain: KdVChain) -> list[np.ndarray]:
    """f_l = sum_{j=0..l} d_j u_{l-j} for l = 0..g (extended precision)."""
    d = chain.constants.astype(chain.q_modes.dtype)
    fs = []
    for ell in range(chain.genus_g + 1):
        f = np.zeros_like(chain.q_modes)
        for j in range(ell + 1):
            f += d[j] * chain.basis_modes[ell - j]
        fs.append(f)
    return fs


def _assemble_f(fs: list[np.ndarray], E: complex) -> np.ndarray:
    """F(E) = sum_l f_{g-l} E^l from f_0..f_g (extended precision)."""
    g = len(fs) - 1
    e_ld = _CLD(E) if np.iscomplexobj(E) else _LD(E)
    out = np.zeros_like(fs[0], dtype=np.result_type(fs[0], e_ld))
    for ell in range(g + 1):
        out += fs[g - ell] * e_ld**ell
    return out


def product_solution(chain: KdVChain, E: complex) -> np.ndarray:
    """F(E, z) = sum_l f_{g-l}(z) E^l as centered modes -k_cut..k_cut."""
    return _assemble_f(_f_modes(chain), E).astype(complex)


def product_ode_residual(chain: KdVChain, E: complex) -> float:
    """Relative residual of F''' = 4 (E - q) F' - 2 q' F at this E."""
    f = _assemble_f(_f_modes(chain), E)
    q = chain.q_modes
    w = _wavenumbers(f)
    # both sides divided by i: -w^3 F = 4 (E wF - q * wF) - 2 (w q) * F
    lhs = -w**3 * f
    rhs = 4.0 * (E * w * f - _conv(q, w * f)) - 2.0 * _conv(w * q, f)
    denom = max(_norm(lhs), _norm(rhs), 1e-300)
    return _norm(lhs - rhs) / denom


def spectral_polynomial(spec: PotentialSpec) -> SpectralPolynomial:
    """Monic spectral polynomial Q(E) of degree 2g + 1.

    Raises ConstancyFailure when the Wronskian-square values vary along z
    beyond 1e-6 relative (wrong genus, unresolved modes, or bad convention).
    """
    if spec.mode != ELLIPTIC:
        raise ValueError("spectral_polynomial requires an elliptic-mode spec")
    g = genus(spec.n)
    chain = kdv_chain(spec, g)
    fs = _f_modes(chain)
    k_cut = chain.k_cut
    q = chain.q_modes
    w = _wavenumbers(q)

    inv = invariants(spec.torus)
    emax = max(abs(inv.e1), abs(inv.e2), abs(inv.e3))
    radius = 2.0 * (1.0 + emax * spec.n.weight_sum())
    m = 2 * g + 2
    nodes = radius * np.cos(math.pi * (2.0 * np.arange(m) + 1.0) / (2.0 * m))

    q_means_ld = np.empty(m, dtype=q.dtype)
    diag = 0.0
    for j, E in enumerate(nodes):
        F = _assemble_f(fs, E)
        wF = w * F
        FF = _conv(F, F)
        qz = -0.25 * _conv(wF, wF) + 0.5 * _conv(F, w * wF) + _LD(E) * FF \
            - _conv(q, FF)
        q_means_ld[j] = qz[k_cut]
        qz[k_cut] = 0.0  # what remains is the z-dependence
        diag = max(diag, _norm(qz) / (1.0 + float(abs(q_means_ld[j]))))
    if diag > _CONSTANCY_TOL:
        raise ConstancyFailure(
            f"z-constancy diagnostic {diag:.2e} > {_CONSTANCY_TOL:.0e}")

    # interpolate on the scaled domain, then restore powers of the radius
    x_ld = (nodes / radius).astype(_LD)
    vand = np.zeros((m, m), dtype=_LD)
    vand[:, m - 1] = 1.0
    for j in range(m - 2, -1, -1):
        vand[:, j] = vand[:, j + 1] * x_ld
    c_scaled = _solve_extended(vand, q_means_ld)
    coeffs_ld = c_scaled / _LD(radius) ** np.arange(m - 1, -1, -1)
    coeffs_ld = coeffs_ld / coeffs_ld[0]
    coeffs = coeffs_ld.astype(complex if np.iscomplexobj(coeffs_ld) else float)
    return SpectralPolynomial(coefficients=coeffs, z_constancy_diag=diag,
                              tau=spec.torus.tau, n=spec.n,
                              coefficients_extended=coeffs_ld)


def _heun_blocks(spec: PotentialSpec) -> list[np.ndarray]:
    """Eigenvalues of the operator on each of Takemura's invariant spaces.

    With t = wp(x), alpha_i in {-n_i/2, (n_i + 1)/2} (i = 1..3), sigma in
    {n_0/2, -(n_0 + 1)/2} and d = sigma - sum alpha_i a non-negative integer,
    y = prod (t - e_i)^alpha_i Z(t), deg Z <= d, is invariant (Heun polynomials;
    Takemura, Commun. Math. Phys. 235 (2003) 467-494): y'' = (E - q) y becomes
    P Z'' + B Z' + (r1 t + r0) Z = E Z, P = 4 prod (t - e_i) = 4 t^3 + p1 t + p0,
    B = sum (8 alpha_i + 2)(t^2 + e_i t + e_j e_k), a four-diagonal block on
    the basis t^j.  The sizes sum to 2g + 1 and the eigenvalues are the band
    edges, the roots of Q; on a PT-symmetric line every block is real.
    """
    inv = invariants(spec.torus)
    e = np.array([inv.e1, inv.e2, inv.e3])
    if _pt_symmetric(spec):
        e = e.real
    n0, *ns = spec.n.as_tuple()
    big_n = np.array([k * (k + 1) for k in ns], dtype=float)
    jj, kk = [1, 0, 0], [2, 2, 1]  # the pair (j, k) beside each i
    ee = e[jj] * e[kk]
    p1, p0 = 4.0 * ee.sum(), -4.0 * e.prod()
    blocks = []
    for alpha in itertools.product(*((-k / 2, (k + 1) / 2) for k in ns)):
        a = np.array(alpha)
        aa = a[jj] * a[kk]
        b = 8.0 * a + 2.0
        r1 = (big_n + 4.0 * a).sum() + 8.0 * aa.sum() - n0 * (n0 + 1)
        r0 = ((big_n + 2.0 * a) * e).sum() - 8.0 * (aa * e).sum()
        for sigma in (n0 / 2, -(n0 + 1) / 2):
            d = sigma - a.sum()
            if d < 0 or d % 1:
                continue
            j = np.arange(int(d) + 1)
            jj1 = j * (j - 1)
            m = np.zeros((j.size, j.size), dtype=e.dtype)
            m[j, j] = b @ e * j + r0
            m[j[1:], j[:-1]] = (4 * jj1 + b.sum() * j + r1)[:-1]
            m[j[:-1], j[1:]] = (p1 * jj1 + b @ ee * j)[1:]
            m[j[:-2], j[2:]] = (p0 * jj1)[2:]
            blocks.append(np.linalg.eigvals(m))
    return blocks


def _polish_roots(coeffs_ld: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Newton-polish companion-matrix roots against extended coefficients.

    Companion eigenvalues carry double-rounding of the coefficients, which
    splits tightly clustered real band edges into spurious conjugate pairs
    at the sqrt(eps) level; a few Newton steps with clongdouble Horner
    evaluation pull them back below the 1e-6-scale reality threshold.
    """
    dcoeffs = coeffs_ld[:-1] * np.arange(len(coeffs_ld) - 1, 0, -1, dtype=_LD)
    roots = approx.astype(_CLD)
    for _ in range(8):
        p = np.zeros_like(roots)
        for c in coeffs_ld:
            p = p * roots + c
        dp = np.zeros_like(roots)
        for c in dcoeffs:
            dp = dp * roots + c
        step = np.where(np.abs(dp) > 0, p / dp, 0.0)
        # clamp to stay within the cluster the estimate came from
        lim = (1e-4 * (1.0 + np.abs(roots))).astype(_LD)
        mag = np.maximum(np.abs(step), _LD(1e-300))
        step = np.where(mag > lim, step * (lim / mag).astype(_CLD), step)
        roots = roots - step
    return roots.astype(complex)


def spectral_roots(poly: SpectralPolynomial) -> list[RootCluster]:
    """Roots of Q with multiplicity clustering and reality flags.

    Roots closer than 1e-6 * scale are merged; a root is real when
    |Im E| <= 1e-6 * scale.  Ordering: descending real part, then descending
    imaginary part, so an all-real spectrum lists E_0 > E_1 > ... > E_2g.
    """
    coeffs = poly.coefficients.astype(complex)
    raw = np.roots(coeffs)
    if poly.coefficients_extended is not None:
        raw = _polish_roots(poly.coefficients_extended, raw)
    scale = 1.0 + float(np.abs(raw).max()) if raw.size else 1.0
    order = np.lexsort((-raw.imag, -raw.real))
    raw = raw[order]

    clusters: list[list[complex]] = []
    for r in raw:
        if clusters and abs(r - np.mean(clusters[-1])) <= _ROOT_MERGE_TOL * scale:
            clusters[-1].append(r)
        else:
            clusters.append([r])

    vals = np.array([np.mean(grp) for grp in clusters], dtype=complex)
    mults = [len(grp) for grp in clusters]
    cond = (np.polyval(np.abs(coeffs), np.abs(vals))
            / np.maximum(np.abs(np.polyval(np.polyder(coeffs), vals)), 1e-300)
            / np.maximum(np.abs(vals), 1.0))
    out = []
    for val, mult, c in zip(vals.tolist(), mults, cond):
        if mult == 1 and c > _ROOT_COND_LIMIT:
            raise IllConditioned(f"root {val} condition number {c:.2e} > {_ROOT_COND_LIMIT:.0e}")
        is_real = abs(val.imag) <= _ROOT_MERGE_TOL * scale
        if is_real:
            val = complex(val.real, 0.0)
        out.append(RootCluster(value=val, multiplicity=mult, is_real=is_real))
    # a conjugate pair straddling the reality threshold flattens onto the
    # same real value; fold such duplicates into one even-order cluster
    folded: list[RootCluster] = []
    for r in out:
        if (folded and r.is_real and folded[-1].is_real
                and abs(r.value - folded[-1].value) <= 1e-12 * scale):
            folded[-1] = RootCluster(
                value=folded[-1].value,
                multiplicity=folded[-1].multiplicity + r.multiplicity,
                is_real=True)
        else:
            folded.append(r)
    return folded


def trig_spectral_polynomial(n: MultiplicityVector) -> SpectralPolynomial:
    """Closed-form trig-limit polynomial Q_T(E), degree 2 n0 + 1.

    (E - C) prod_{j=1}^{n0-n1} (E - C + j^2 pi^2)^2
            prod_{j=n0-n1+1}^{n0} (E - C + (2j - n0 + n1)^2 pi^2)^2
    with C = C_T(n); requires n0 >= n1.
    """
    if n.n0 < n.n1:
        raise NotNormalized(f"trig polynomial needs n0 >= n1, got {n.as_tuple()}")
    c = trig_constant(n)
    roots = [c]
    for j in range(1, n.n0 - n.n1 + 1):
        roots += [c - j**2 * math.pi**2] * 2
    for j in range(n.n0 - n.n1 + 1, n.n0 + 1):
        roots += [c - (2 * j - n.n0 + n.n1) ** 2 * math.pi**2] * 2
    coeffs = np.poly(np.array(roots, dtype=complex))
    return SpectralPolynomial(coefficients=coeffs, z_constancy_diag=0.0,
                              tau=None, n=n)


def poly_discriminant(poly: SpectralPolynomial) -> complex:
    """Discriminant via the Sylvester resultant of (Q, Q').

    disc = (-1)^(d(d-1)/2) Res(Q, Q') for monic Q.  Coefficients are
    rescaled (E -> s E) before the determinant and the scaling restored in
    log space, so intermediate overflow is avoided; a magnitude above e^700
    raises DiscriminantOverflow.
    """
    c = np.asarray(poly.coefficients, dtype=complex)
    d = len(c) - 1
    # scale from the coefficient magnitudes: |c_k|^(1/k) bounds the root size
    mags = [abs(c[k]) ** (1.0 / k) for k in range(1, d + 1) if abs(c[k]) > 0]
    s = max(mags) if mags else 1.0
    cs = c / s ** np.arange(d + 1)
    dcs = np.polyder(cs)

    size = 2 * d - 1
    syl = np.zeros((size, size), dtype=complex)
    for i in range(d - 1):
        syl[i, i: i + d + 1] = cs
    for i in range(d):
        syl[d - 1 + i, i: i + d] = dcs
    sign, logdet = np.linalg.slogdet(syl)
    if sign == 0:
        return 0j
    log_mag = logdet + d * (d - 1) * math.log(s)
    phase = sign * (-1.0) ** (d * (d - 1) // 2)
    if log_mag > 700.0:
        raise DiscriminantOverflow(f"|disc Q| = e^{log_mag:.1f} exceeds double precision")
    return complex(phase * math.exp(log_mag))
