"""Spectral picture assembly: bands, gap eigenvalue counts, stability arcs.

Ties the other modules together: roots of the spectral polynomial give the
band edges (when real and distinct; for root clusters too close to the real
axis for Q's coefficients to resolve, Takemura's Heun blocks propose the
two edges and one plain Delta call certifies them), Hill's method finds the
interior (anti)periodic eigenvalues of each bounded band interval
(E_{2j-1}, E_{2j-2}) and the discriminant certifies them, and a
marching-squares pass over Im Delta = 0, on a guarded Chebyshev proxy of
Delta, recovers the conditional stability set as polylines in the complex E
plane; their points are polished and kept on the same proxy, so Delta is
read once per window.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebgrid2d, chebpts1, chebval2d, chebvander

from .errors import BandStructureMissing, HillbandError, ResolutionError
from .floquet import (
    DEFAULT_SETTINGS,
    EigenvalueHit,
    IntegratorSettings,
    discriminant_batch,
    periodic_eigenvalues_on_interval,
)
from .kdv_spectral import (
    RootCluster,
    SpectralPolynomial,
    _heun_blocks,
    spectral_polynomial,
    spectral_roots,
    trig_spectral_polynomial,
)
from .potential import (
    PotentialSpec,
    _pt_symmetric,
    classify,
    gap_conditions,
    genus,
    mean_potential,
)

__all__ = [
    "SpectrumReport",
    "GapInterval",
    "GapReport",
    "ArcSet",
    "classify_spectrum",
    "gap_eigenvalue_report",
    "stability_region",
    "verify_theorems",
]

@dataclass(frozen=True, slots=True)
class SpectrumReport:
    """Q's coefficients and roots, and what follows from them: the band
    intervals or the complex pairs.

    Only what a caller cannot recompute cheaply is stored (a sweep keeps one
    report per vector); the polynomial, the ray asymptote and the gap
    conditions' prediction are derived from the fields.
    """

    spec: PotentialSpec
    coefficients: np.ndarray  # Q's, descending; float64 on a PT-symmetric line
    z_constancy_diag: float
    root_values: np.ndarray  # repeated by multiplicity; Im is 0.0 for real roots

    @property
    def polynomial(self) -> SpectralPolynomial:
        return SpectralPolynomial(coefficients=self.coefficients,
                                  z_constancy_diag=self.z_constancy_diag,
                                  tau=self.spec.torus.tau, n=self.spec.n)

    @property
    def ray_asymptote(self) -> float:
        return float(mean_potential(self.spec).real)

    @property
    def predicted_by_conditions(self) -> bool:
        return any(gap_conditions(self.spec.n))

    @property
    def roots(self) -> tuple[RootCluster, ...]:
        """Runs of equal root values as clusters."""
        return tuple(RootCluster(value=v, multiplicity=len(list(run)), is_real=v.imag == 0.0)
                     for v, run in itertools.groupby(self.root_values.tolist()))

    @property
    def all_real_distinct(self) -> bool:
        return all(r.is_real and r.multiplicity == 1 for r in self.roots)

    @property
    def bands(self) -> tuple[tuple[Optional[float], float], ...]:
        """(lo, hi) band intervals, lo None = -inf, if all_real_distinct."""
        if not self.all_real_distinct:
            return ()
        vals = sorted(self.root_values.real.tolist(), reverse=True)  # E_0 > ...
        g = (len(vals) - 1) // 2
        return ((None, vals[2 * g]),) + tuple(
            (vals[2 * j - 1], vals[2 * j - 2]) for j in range(g, 0, -1))

    @property
    def complex_pairs(self) -> tuple[tuple[complex, complex], ...]:
        """Each root above the axis with the nearest to its conjugate below."""
        lower = [r.value for r in self.roots if not r.is_real and r.value.imag < 0]
        return tuple((r.value, min(lower, key=lambda s: abs(s - r.value.conjugate())))
                     for r in self.roots
                     if lower and not r.is_real and r.value.imag > 0)

    @property
    def matches_prediction(self) -> bool:
        """Theorem 1.1: the conditions hold iff Q has a non-real root.

        An unresolved real multiplicity-2 cluster is a band edge pair below
        the discriminant's resolution, not a departure from the real axis.
        """
        return self.predicted_by_conditions == bool(self.root_values.imag.any())

    def to_json_dict(self) -> dict:
        d = self.polynomial.to_json_dict()
        d["roots"] = [
            {"re": r.value.real, "im": r.value.imag, "mult": r.multiplicity,
             "real": r.is_real}
            for r in self.roots
        ]
        d["all_real_distinct"] = self.all_real_distinct
        d["predicted_complex_by_conditions"] = self.predicted_by_conditions
        d["thm_1_1_consistent"] = self.matches_prediction
        d["bands"] = [[lo, hi] for lo, hi in self.bands]
        d["ray"] = self.ray_asymptote
        d["complex_pairs"] = [
            [[a.real, a.imag], [b.real, b.imag]] for a, b in self.complex_pairs
        ]
        return d


@dataclass(frozen=True, slots=True)
class GapInterval:
    index: int  # j in 1..g
    lo: float  # E_{2j-1}
    hi: float  # E_{2j-2}
    interior_hits: tuple[EigenvalueHit, ...]
    edge_parities: tuple[int, int]  # (Delta at E_{2j-1}, Delta at E_{2j-2})
    edge_values: tuple[float, float]  # measured Delta at the edges


@dataclass(frozen=True, slots=True)
class GapReport:
    spec: PotentialSpec
    genus_g: int
    m_used: int
    gaps: tuple[GapInterval, ...]
    edge_deltas: tuple[float, ...]  # measured Delta at E_0 > E_1 > ... > E_2g

    def counts(self) -> list[int]:
        return [len(gap.interior_hits) for gap in self.gaps]

    def to_json_dict(self) -> dict:
        return {
            "n": list(self.spec.n.as_tuple()),
            "tau_im": self.spec.torus.tau.imag,
            "g": self.genus_g,
            "m": self.m_used,
            "gaps": [
                {
                    "interval": [gap.lo, gap.hi],
                    "hits": [{"E": h.E, "parity": h.parity, "order_d": h.order_d}
                             for h in gap.interior_hits],
                    "edge_parities": list(gap.edge_parities),
                    "edge_deltas": list(gap.edge_values),
                }
                for gap in self.gaps
            ],
        }


@dataclass(frozen=True, eq=False)
class ArcSet:
    """Polylines tracing Delta^-1([-2, 2]) inside a window."""

    polylines: tuple[np.ndarray, ...]  # read-only (n, 3): re E, im E, re Delta
    window: tuple[float, float, float, float]
    resolution: int
    arc_tol: float

    def num_points(self) -> int:
        return sum(len(p) for p in self.polylines)

    def to_csv_rows(self) -> list[tuple[int, float, float, float]]:
        return [(i, *p) for i, poly in enumerate(self.polylines) for p in poly.tolist()]


def _resolve_ambiguous_pairs(spec, roots, settings):
    """Band edges for root clusters hugging the real axis, certified by Delta.

    Exponentially narrow bands split band-edge pairs by less than the
    spectral polynomial's coefficient accuracy can resolve, so such pairs
    surface as conjugate pairs with a spurious small imaginary part, or as
    real doubles.  Pairs with |Im| > 1e-4 * scale are far above coefficient
    noise and are never touched.  Every edge is an eigenvalue of one of
    Takemura's Heun blocks (kdv_spectral._heun_blocks), and the two edges of
    a near-double pair come from different blocks, so each is simple there.
    A cluster whose window holds exactly two block eigenvalues, both real,
    takes them as its candidate edges lo < hi.  One plain Delta call at lo,
    hi and mid = (lo + hi) / 2 of every candidate pair certifies them: the
    cluster splits iff ||Delta| - 2| is larger at mid than at either edge
    (a band or a gap lies between them) and |Delta(mid)^2 - 4| >= 1e-8.
    Any other cluster stays as it was.  Delta certifies; it does not search.
    """
    if not _pt_symmetric(spec):
        return roots
    scale = 1.0 + max(abs(r.value) for r in roots)

    # (indices of the roots a cluster replaces, centre, window)
    clusters = []
    ambiguous = [
        i for i, r in enumerate(roots)
        if not r.is_real and r.multiplicity == 1
        and 0.0 < abs(r.value.imag) <= 1e-4 * scale
    ]
    handled: set[int] = set()
    for i in ambiguous:
        if i in handled:
            continue
        mate = None
        for j in ambiguous:
            if j != i and j not in handled and \
                    abs(roots[j].value - roots[i].value.conjugate()) <= 1e-6 * scale:
                mate = j
                break
        if mate is None:
            continue
        handled.update((i, mate))
        clusters.append(((i, mate), roots[i].value.real,
                         max(16.0 * abs(roots[i].value.imag), 1e-6 * scale)))
    # real doubles whose splitting fell below the merge resolution
    clusters += [((i,), r.value.real, 2e-5 * scale) for i, r in enumerate(roots)
                 if r.is_real and r.multiplicity == 2]
    if not clusters:
        return roots

    eig = np.concatenate(_heun_blocks(spec))
    owner, pairs = [], []
    for c, (_, centre, window) in enumerate(clusters):
        near = eig[np.abs(eig - centre) <= window]
        if near.size == 2 and not near.imag.any():
            owner.append(c)
            pairs.append(np.sort(near.real))
    if not pairs:
        return roots
    lo, hi = np.array(pairs).T
    d_lo, d_hi, d_mid = discriminant_batch(
        spec, np.concatenate([lo, hi, 0.5 * (lo + hi)]), settings).real.reshape(3, -1)
    dist_lo, dist_hi, dist_mid = np.abs(np.abs([d_lo, d_hi, d_mid]) - 2.0)
    split = (dist_mid > np.maximum(dist_lo, dist_hi)) & (np.abs(d_mid ** 2 - 4.0) >= 1e-8)
    edges = {c: pair for c, pair, ok in zip(owner, pairs, split) if ok}
    if not edges:
        return roots

    out = list(roots)
    for c, (lo, hi) in edges.items():
        first, *rest = clusters[c][0]
        out[first] = RootCluster(value=complex(lo, 0.0), multiplicity=1,
                                 is_real=True)
        edge = RootCluster(value=complex(hi, 0.0), multiplicity=1, is_real=True)
        if rest:
            out[rest[0]] = edge
        else:
            out.append(edge)
    order = sorted(range(len(out)),
                   key=lambda k: (-out[k].value.real, -out[k].value.imag))
    return [out[k] for k in order]


def classify_spectrum(spec: PotentialSpec,
                      settings: Optional[IntegratorSettings] = None) -> SpectrumReport:
    """Roots of Q, band intervals per the real-distinct case, complex pairs.

    Near-real conjugate pairs within coefficient noise of the axis, and real
    doubles, take their edges from the Heun blocks when one plain Delta call
    certifies them (see _resolve_ambiguous_pairs); at most one Delta call
    per spec, none for a spec without such clusters.
    """
    settings = settings or DEFAULT_SETTINGS
    poly = spectral_polynomial(spec)
    roots = _resolve_ambiguous_pairs(spec, spectral_roots(poly), settings)
    values = np.repeat([r.value for r in roots], [r.multiplicity for r in roots])
    return SpectrumReport(spec=spec, coefficients=poly.coefficients,
                          z_constancy_diag=poly.z_constancy_diag, root_values=values)


def gap_eigenvalue_report(spec: PotentialSpec,
                          settings: Optional[IntegratorSettings] = None,
                          report: Optional[SpectrumReport] = None) -> GapReport:
    """Interior (anti)periodic eigenvalues of every bounded band interval.

    One search over (E_{2g-1} + delta, E_0 - delta), delta = 1e-6 * scale,
    finds every solution of Delta = +-2 there (none when that interval is
    empty: one band narrower than 2 delta); a hit belongs to the band
    (E_{2j-1}, E_{2j-2}) when it lies more than 2 delta inside it, so the
    inner band edges (which satisfy Delta = +-2 themselves) drop out.
    """
    settings = settings or DEFAULT_SETTINGS
    if report is None:
        report = classify_spectrum(spec, settings)
    if not report.all_real_distinct:
        raise BandStructureMissing(
            "spectrum is not of real band form; no gap report")
    cls = classify(spec.n)
    if cls.case_label == "NONE":
        raise BandStructureMissing(
            "conditions hold for this n; the gap-count structure is undefined")

    vals = sorted(report.root_values.real.tolist(), reverse=True)
    g = (len(vals) - 1) // 2
    scale = 1.0 + max(abs(v) for v in vals)
    delta = 1e-6 * scale

    edge_deltas = discriminant_batch(spec, np.array(vals), settings).real

    a, b = vals[2 * g - 1] + delta, vals[0] - delta
    found = periodic_eigenvalues_on_interval(spec, a, b, settings) if a < b else []
    gaps = []
    for j in range(1, g + 1):
        lo, hi = vals[2 * j - 1], vals[2 * j - 2]
        hits = tuple(h for h in found
                     if lo + 2 * delta < h.E < hi - 2 * delta)
        e_lo, e_hi = float(edge_deltas[2 * j - 1]), float(edge_deltas[2 * j - 2])
        gaps.append(GapInterval(
            index=j, lo=lo, hi=hi, interior_hits=hits,
            edge_parities=(2 if e_lo > 0 else -2, 2 if e_hi > 0 else -2),
            edge_values=(e_lo, e_hi),
        ))
    return GapReport(spec=spec, genus_g=g, m_used=cls.gap_m, gaps=tuple(gaps),
                     edge_deltas=tuple(float(v) for v in edge_deltas))


# -- stability region (marching squares on Im Delta) -------------------------

def _marching_segments(xs, ys, im_grid, re_grid):
    """Segments of the Im Delta = 0 level set, keyed by global cell edges.

    Returns a list of ((key_a, pt_a), (key_b, pt_b)), cell by cell in
    row-major order, where keys identify grid edges ('h'/'v', iy, ix) and
    pts are (x, y, re_delta) from linear interpolation along the edge from
    its left or lower corner.  Within a cell the crossed edges are taken in
    the order bottom, right, top, left; a cell crossed on all four (a
    saddle) is resolved by the sign of its corner mean.
    """
    pos = im_grid > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        th = im_grid[:, :-1] / (im_grid[:, :-1] - im_grid[:, 1:])
        tv = im_grid[:-1] / (im_grid[:-1] - im_grid[1:])
    # (x, y, re_delta) of the crossing on every horizontal and vertical edge,
    # with the per-cell interpolation's arithmetic (t * 0.0 included), so the
    # points do not depend on which cell an edge is reached from
    xh, yh = xs[None, :-1] + th * (xs[1:] - xs[:-1]), ys[:, None] + th * 0.0
    xv, yv = xs[None, :] + tv * 0.0, ys[:-1, None] + tv * (ys[1:] - ys[:-1])[:, None]
    edge_pts = {
        "h": np.stack([xh, yh, re_grid[:, :-1] + th * (re_grid[:, 1:] - re_grid[:, :-1])], -1),
        "v": np.stack([xv, yv, re_grid[:-1] + tv * (re_grid[1:] - re_grid[:-1])], -1),
    }

    # per cell: crossings on its bottom, right, top and left edges
    cross = np.stack([pos[:-1, :-1] != pos[:-1, 1:], pos[:-1, 1:] != pos[1:, 1:],
                      pos[1:, :-1] != pos[1:, 1:], pos[:-1, :-1] != pos[1:, :-1]],
                     -1).reshape(-1, 4)
    count = cross.sum(axis=1)
    pair = np.nonzero(count == 2)[0]
    first = np.argmax(cross[pair], axis=1)
    last = 3 - np.argmax(cross[pair, ::-1], axis=1)
    saddle = np.nonzero(count == 4)[0]
    v0, v1 = im_grid[:-1, :-1].ravel()[saddle], im_grid[:-1, 1:].ravel()[saddle]
    v2, v3 = im_grid[1:, 1:].ravel()[saddle], im_grid[1:, :-1].ravel()[saddle]
    joins_left = (0.25 * (((v0 + v1) + v2) + v3) > 0.0) == (v0 > 0.0)
    # saddle segments: (bottom, left) and (right, top), else (bottom, right)
    # and (top, left)
    cell = np.concatenate([pair, saddle, saddle])
    rank = np.concatenate([np.zeros(pair.size + saddle.size, dtype=int),
                           np.ones(saddle.size, dtype=int)])
    edge_a = np.concatenate([first, np.zeros(saddle.size, dtype=int),
                             np.where(joins_left, 1, 2)])
    edge_b = np.concatenate([last, np.where(joins_left, 3, 1),
                             np.where(joins_left, 2, 3)])
    order = np.lexsort((rank, cell))
    iy, ix = np.divmod(cell[order], xs.size - 1)

    def ends(edge):
        kinds = np.where(edge % 2 == 0, "h", "v")
        rows, cols = iy + (edge == 2), ix + (edge == 1)
        keys = list(zip(kinds.tolist(), rows.tolist(), cols.tolist()))
        pts = np.empty((edge.size, 3))
        for kind in ("h", "v"):
            sel = kinds == kind
            pts[sel] = edge_pts[kind][rows[sel], cols[sel]]
        return list(zip(keys, map(tuple, pts.tolist())))

    return list(zip(ends(edge_a[order]), ends(edge_b[order])))


# -- Delta proxy: guarded tensor Chebyshev series on panels of the window ----

_PROXY_START = 16  # Chebyshev nodes per axis of a panel's first fit
_PROXY_TAIL = 1e-13  # trailing coefficients below this share of the largest
_PROXY_GUARD = 1e-8  # off-node check: |proxy - Delta| <= this * max(1, |Delta|)
_PROXY_MAX_NODES = 1 << 16  # nodes per window, also at most max(res, 16)^2
# off-node check abscissae on [-1, 1], used on both axes of a panel: the ends
# carry the largest interpolation error, and where |Delta| grows like
# exp(sqrt(E)) along Re it is smallest, relative to the panel, at the left end
_GUARD_T = np.array([-1.0, -0.83, -0.41, 0.07, 0.56, 0.92, 1.0])


def _affine(lo: float, hi: float) -> tuple[float, float]:
    """Centre and half-width of [lo, hi]; a zero width maps [lo - 1, lo + 1]."""
    return 0.5 * (lo + hi), 0.5 * (hi - lo) or 1.0


def _cheb_weights(n: int) -> np.ndarray:
    """Map from values at n first-kind Chebyshev points to coefficients."""
    w = (2.0 / n) * chebvander(chebpts1(n), n - 1).T
    w[0] *= 0.5
    return w


def _delta_proxy(spec: PotentialSpec, xs: np.ndarray, ys: np.ndarray,
                 settings: IntegratorSettings):
    """Delta on the grid xs + i ys from guarded tensor Chebyshev fits.

    Delta is entire in E, so its tensor Chebyshev series on a rectangle
    converges geometrically.  A panel [lo, hi] x [Im window] starts at
    16 x 16 first-kind nodes; an axis doubles its node count while its three
    trailing coefficient columns exceed 1e-13 of the largest coefficient.
    Each round samples the nodes of every open panel in one adaptive Delta
    call.  A converged panel is checked against direct Delta at 7 x 7 fixed
    off-node points: each must satisfy
    |proxy - Delta| <= 1e-8 max(1, |Delta|), or the panel is split in two
    along Re and both halves are refitted, since |Delta| grows like
    exp(sqrt(E)) along Re and one panel's relative accuracy is spent on its
    largest values.  A window that needs more nodes than the grid has
    points (or than one first round, 16^2, on grids coarser than that), or
    more than 2^16, raises ResolutionError: no unchecked proxy reaches the
    grid.

    Returns the grid and E -> (Delta, dDelta/dE) at scattered points of the
    window on the same panels (dDelta/dE is the series' d/d(Im E) over i).
    """
    lo, hi = sorted((float(xs[0]), float(xs[-1])))
    ylo, yhi = sorted((float(ys[0]), float(ys[-1])))
    ymid, yhalf = _affine(ylo, yhi)
    cap = min(_PROXY_MAX_NODES,
              max(xs.size, _PROXY_START) * max(ys.size, _PROXY_START))

    def tensor(a, b, tx, ty):
        mid, half = _affine(a, b)
        return ((mid + half * tx)[None, :] + 1j * (ymid + yhalf * ty)[:, None]).ravel()

    pending = [(lo, hi, _PROXY_START, _PROXY_START)]
    fits = []  # (lo, hi, coefficients)
    used = 0
    while pending:
        used += sum(nx * ny for _, _, nx, ny in pending)
        if used > cap:
            raise ResolutionError(
                f"Delta proxy needs more than {cap} Chebyshev nodes on "
                f"[{lo}, {hi}] x [{ylo}, {yhi}]")
        vals = discriminant_batch(spec, np.concatenate(
            [tensor(a, b, chebpts1(nx), chebpts1(ny))
             for a, b, nx, ny in pending]), settings)
        refine, fitted = [], []
        start = 0
        for a, b, nx, ny in pending:
            f = vals[start:start + nx * ny].reshape(ny, nx)
            start += nx * ny
            c = _cheb_weights(ny) @ f @ _cheb_weights(nx).T
            floor = _PROXY_TAIL * np.abs(c).max()
            grow_x = np.abs(c[:, -3:]).max() > floor
            grow_y = np.abs(c[-3:]).max() > floor
            if grow_x or grow_y:
                refine.append((a, b, 2 * nx if grow_x else nx,
                               2 * ny if grow_y else ny))
            else:
                fitted.append((a, b, c))
        if fitted:
            direct = discriminant_batch(spec, np.concatenate(
                [tensor(a, b, _GUARD_T, _GUARD_T) for a, b, _ in fitted]),
                settings).reshape(len(fitted), _GUARD_T.size, _GUARD_T.size)
            for (a, b, c), d in zip(fitted, direct):
                proxy = chebgrid2d(_GUARD_T, _GUARD_T, c)
                if np.all(np.abs(proxy - d) <= _PROXY_GUARD * np.maximum(1.0, np.abs(d))):
                    fits.append((a, b, c))
                else:
                    mid = 0.5 * (a + b)
                    refine += [(a, mid, _PROXY_START, _PROXY_START),
                               (mid, b, _PROXY_START, _PROXY_START)]
        pending = refine

    fits.sort(key=lambda fit: fit[0])
    starts = [a for a, _, _ in fits[1:]]
    grid = np.empty((ys.size, xs.size), dtype=complex)
    owner = np.searchsorted(starts, xs, side="right")
    for p, (a, b, c) in enumerate(fits):
        cols = owner == p
        mid, half = _affine(a, b)
        grid[:, cols] = chebgrid2d((ys - ymid) / yhalf, (xs[cols] - mid) / half, c)

    def evaluate(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        val, der = np.empty_like(E), np.empty_like(E)
        owner = np.searchsorted(starts, E.real, side="right")
        for p, (a, b, c) in enumerate(fits):
            sel = owner == p
            mid, half = _affine(a, b)
            tx, ty = (E.real[sel] - mid) / half, (E.imag[sel] - ymid) / yhalf
            val[sel] = chebval2d(ty, tx, c)
            der[sel] = chebval2d(ty, tx, chebder(c, axis=0)) / (1j * yhalf)
        return val, der

    return grid, evaluate


def _chain_polylines(segments, keep):
    """Join kept segments into polylines over shared edge keys."""
    adjacency: dict = {}
    seg_kept = []
    for (ka, pa), (kb, pb) in segments:
        if not (keep.get(ka, False) and keep.get(kb, False)):
            continue
        idx = len(seg_kept)
        seg_kept.append((ka, kb))
        adjacency.setdefault(ka, []).append((idx, kb))
        adjacency.setdefault(kb, []).append((idx, ka))

    used = [False] * len(seg_kept)
    polylines = []

    def walk(start_key):
        line = [start_key]
        current = start_key
        while True:
            nxt = None
            for idx, other in adjacency.get(current, ()):
                if not used[idx]:
                    used[idx] = True
                    nxt = other
                    break
            if nxt is None:
                return line
            line.append(nxt)
            current = nxt

    # open chains first (degree-1 endpoints), then remaining loops
    deg1 = sorted(k for k, v in adjacency.items()
                  if sum(1 for idx, _ in v if not used[idx]) == 1)
    for key in deg1:
        if any(not used[idx] for idx, _ in adjacency[key]):
            polylines.append(walk(key))
    for key in sorted(adjacency.keys()):
        if any(not used[idx] for idx, _ in adjacency[key]):
            polylines.append(walk(key))
    return polylines


def _is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and strings."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def stability_region(spec: PotentialSpec, window: tuple[float, float, float, float],
                     resolution: int = 512,
                     settings: Optional[IntegratorSettings] = None) -> ArcSet:
    """Conditional stability set Delta^-1([-2, 2]) inside a window.

    Delta comes from a guarded tensor Chebyshev proxy (see _delta_proxy):
    adaptive Delta samples at Chebyshev nodes, checked against direct Delta
    off the nodes, on panels split along Re until every check holds.  The
    Im Delta = 0 level set of the resolution^2 grid is extracted by marching
    squares; every crossing point is Newton-polished in the vertical
    direction on the proxy, with Im E kept inside the window where the proxy
    is certified, and kept when its polished Delta value lies within
    arc_tol * max(1, |Delta|) of the real interval [-2, 2].  Near tangential
    touch points (Delta' = 0 on the real axis) the set legitimately grows
    short vertical whiskers where Delta is real and barely outside [-2, 2];
    they satisfy the same tolerance and are reported as arc points.
    """
    if not _is_integer(resolution) or not 2 <= resolution <= 2048:
        raise ValueError("resolution must be an integer in [2, 2048] per side")
    if len(window) != 4:
        raise ValueError("window must be (re0, re1, im0, im1)")
    if not np.all(np.isfinite(window)):
        raise ValueError("window bounds must be finite")
    settings = settings or DEFAULT_SETTINGS
    re0, re1, im0, im1 = window
    xs = np.linspace(re0, re1, resolution)
    ys = np.linspace(im0, im1, resolution)
    polish_settings = IntegratorSettings(rel_tol=min(settings.rel_tol, 1e-10))
    delta_grid, delta = _delta_proxy(spec, xs, ys, polish_settings)

    segments = _marching_segments(xs, ys, delta_grid.imag, delta_grid.real)

    # polish unique crossing points vertically toward Im Delta = 0 (an edge
    # shared by two cells has the same point in both)
    points = dict(end for segment in segments for end in segment)
    keys = sorted(points)
    ee = np.array([points[k][0] + 1j * points[k][1] for k in keys], dtype=complex)
    cell = abs(ys[1] - ys[0])
    for _ in range(3):
        dval, dder = delta(ee)
        denom = dder.real
        step = np.where(np.abs(denom) > 1e-9, dval.imag / denom, 0.0)
        step = np.clip(step, -2 * cell, 2 * cell)
        ee = ee.real + 1j * np.clip(ee.imag - step, min(im0, im1), max(im0, im1))
    dval, _ = delta(ee)

    arc_tol = 1e-3
    scale = np.maximum(1.0, np.abs(dval))
    dist = np.where(np.abs(dval.real) <= 2.0, np.abs(dval.imag),
                    np.abs(dval - np.sign(dval.real) * 2.0))
    keep = dict(zip(keys, (dist <= arc_tol * scale).tolist()))
    row = {k: i for i, k in enumerate(keys)}
    polished = np.column_stack([ee.real, ee.imag, dval.real])

    # every chain joins at least one segment, so it has two points or more
    polylines = tuple(polished[[row[k] for k in chain]]
                      for chain in _chain_polylines(segments, keep))
    for line in polylines:
        line.flags.writeable = False
    return ArcSet(polylines=polylines, window=window, resolution=resolution,
                  arc_tol=arc_tol)


_TRIG_TAU_IM = 5.0  # Im tau at which verify compares Q with the trig limit Q_T


def verify_theorems(spec: PotentialSpec,
                    settings: Optional[IntegratorSettings] = None) -> dict:
    """Run the full verification pipeline and report measured values.

    Returns a dict with boolean verdicts (None where not applicable) plus
    the measured quantities backing each verdict; theorem violations show
    up as False verdicts, never as silent passes.
    """
    settings = settings or DEFAULT_SETTINGS
    cls = classify(spec.n)
    report = classify_spectrum(spec, settings)

    out: dict = {
        "n": list(spec.n.as_tuple()),
        "tau_im": spec.torus.tau.imag,
        "classification": cls.to_json_dict(spec.n),
        "thm11_consistent": report.matches_prediction,
        "thm12_counts_match": None,
        "edge_signs_match": None,
        "duality_match": None,
        "trig_limit_match": None,
        "details": {
            "all_real_distinct": report.all_real_distinct,
            "predicted_complex": report.predicted_by_conditions,
            "num_complex_pairs": len(report.complex_pairs),
            "z_constancy": report.polynomial.z_constancy_diag,
        },
    }

    if report.all_real_distinct and cls.case_label != "NONE":
        gaps = gap_eigenvalue_report(spec, settings, report)
        m, g = gaps.m_used, gaps.genus_g
        expected = [0] * m + [1] * (g - m)
        counts = gaps.counts()
        out["thm12_counts_match"] = counts == expected
        out["details"]["gap_counts"] = counts
        out["details"]["gap_counts_expected"] = expected

        # Delta(E_0) = +2, alternating down to E_{2m-1}, then (-1)^m 2
        edge = np.array(gaps.edge_deltas)
        expected_signs = _expected_edge_signs(g, m)
        measured = [2 if v > 0 else -2 for v in edge]
        deviation = float(np.max(np.abs(edge - np.array(measured))))
        out["edge_signs_match"] = (measured == expected_signs
                                   and deviation <= 1e-6)
        out["details"]["edge_deltas"] = [float(v) for v in edge]
        out["details"]["edge_signs_expected"] = expected_signs
        interior = [int(h.parity) for gap in gaps.gaps for h in gap.interior_hits]
        out["details"]["interior_parities"] = interior
        expected_parity = -2 if m % 2 == 0 else 2  # (-1)^(m+1) * 2
        out["details"]["interior_parity_expected"] = expected_parity
        if interior:
            out["thm12_counts_match"] = bool(out["thm12_counts_match"]) and all(
                p == expected_parity for p in interior)

    if cls.dual is not None:
        # the dual potential has its own pole set; use its default line
        dual_spec = PotentialSpec.elliptic(cls.dual, spec.torus.tau)
        qd = spectral_polynomial(dual_spec)
        qn = report.polynomial
        rel = float(np.max(np.abs(qn.coefficients - qd.coefficients))
                    / np.max(np.abs(qd.coefficients)))
        out["duality_match"] = rel <= 1e-8
        out["details"]["duality_rel_diff"] = rel

    trig_target = None
    if cls.case_label in ("A",) or (cls.case_label == "NONE"
                                    and genus(spec.n) == spec.n.n0):
        trig_target = spec.n
    elif cls.case_label in ("B", "C"):
        trig_target = cls.dual
    if trig_target is not None and max(trig_target.as_tuple()) <= 8:
        # for cases B/C the chain runs on the dual (the same polynomial by
        # isomonodromy, checked above), whose genus survives the cusp.  Deep
        # genera degenerate past b = 5: at 8i the chain returns a wrong Q for
        # (3,3,k,k) with no error, and at 6i it is already 3e-5 off
        try:
            qb = spectral_polynomial(PotentialSpec.elliptic(trig_target, 1j * _TRIG_TAU_IM))
            qt = trig_spectral_polynomial(trig_target)
            rel = float(np.max(np.abs(qb.coefficients - qt.coefficients))
                        / np.max(np.abs(qt.coefficients)))
            out["trig_limit_match"] = rel <= 1e-3
            out["details"]["trig_limit_rel_diff"] = rel
            out["details"]["trig_limit_tau_im"] = _TRIG_TAU_IM
        except HillbandError as exc:
            out["details"]["trig_limit_error"] = f"{type(exc).__name__}: {exc}"

    out["all_pass"] = all(v is not False for k, v in out.items()
                          if k in ("thm11_consistent", "thm12_counts_match",
                                   "edge_signs_match", "duality_match",
                                   "trig_limit_match"))
    return out


def _expected_edge_signs(g: int, m: int) -> list[int]:
    """Delta signs at E_0 .. E_{2g} per the gap-count theorem."""
    signs = [2]  # E_0
    for j in range(1, m + 1):
        s = 2 if j % 2 == 0 else -2
        signs.append(s)  # E_{2j-1}
        signs.append(s)  # E_{2j}
    tail = 2 if m % 2 == 0 else -2
    while len(signs) < 2 * g + 1:
        signs.append(tail)
    return signs