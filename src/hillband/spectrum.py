"""Spectral picture assembly: bands, gap eigenvalue counts, stability arcs.

Ties the other modules together: roots of the spectral polynomial give the
band edges (when real and distinct; for root clusters too close to the real
axis for Q's coefficients to resolve, Takemura's Heun blocks propose the
two edges and one plain Delta call certifies them), Hill's method finds the
interior (anti)periodic eigenvalues of each bounded band interval
(E_{2j-1}, E_{2j-2}) and the discriminant certifies them, and a
marching-squares pass over Im Delta = 0, on a guarded Chebyshev proxy of
Delta, recovers the conditional stability set as polylines in the complex E
plane; their points are polished and kept on the same proxy.  Delta is read
only to fit and check the proxy, one call per refinement round carrying each
open panel's nodes and off-node guard points; the grid and the polish evaluate
the proxy by matrix products.  A window of zero width or height is refused.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebpts1, chebvander

from .errors import BandStructureMissing, ResolutionError
from .floquet import (
    DEFAULT_SETTINGS,
    EigenvalueHit,
    IntegratorSettings,
    _certify,
    _hill_search,
    discriminant_batch,
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
    """Interior hits of the bounded band intervals; genus_g and gaps derive from edges."""

    spec: PotentialSpec
    m_used: int
    edges: tuple[float, ...]  # E_0 > E_1 > ... > E_2g
    edge_deltas: tuple[float, ...]  # measured Delta at the edges
    hits: tuple[EigenvalueHit, ...]  # interior hits of all intervals, by E

    @property
    def genus_g(self) -> int:
        return (len(self.edges) - 1) // 2

    @property
    def gaps(self) -> tuple[GapInterval, ...]:
        e, d = self.edges, self.edge_deltas
        return tuple(GapInterval(
            index=j, lo=lo, hi=hi, interior_hits=tuple(h for h in self.hits if lo < h.E < hi),
            edge_parities=(2 if d_lo > 0 else -2, 2 if d_hi > 0 else -2), edge_values=(d_lo, d_hi),
        ) for j, (lo, hi, d_lo, d_hi) in enumerate(zip(e[1::2], e[::2], d[1::2], d[::2]), 1))

    def counts(self) -> list[int]:
        return [len(gap.interior_hits) for gap in self.gaps]

    def to_json_dict(self) -> dict:
        gaps = [{"interval": [gap.lo, gap.hi],
                 "hits": [{"E": h.E, "parity": h.parity, "order_d": h.order_d}
                          for h in gap.interior_hits],
                 "edge_parities": list(gap.edge_parities), "edge_deltas": list(gap.edge_values)}
                for gap in self.gaps]
        return {"n": list(self.spec.n.as_tuple()), "tau_im": self.spec.torus.tau.imag,
                "g": self.genus_g, "m": self.m_used, "gaps": gaps}


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

    One Hill search over (E_{2g-1} + delta, E_0 - delta), delta = 1e-6 *
    scale, finds every solution of Delta = +-2 there (none when that interval
    is empty: one band narrower than 2 delta); a hit belongs to the band
    (E_{2j-1}, E_{2j-2}) when it lies more than 2 delta inside it, so the
    inner band edges (which satisfy Delta = +-2 themselves) drop out.  One
    plain Delta call reads the edges, and one more certifies every other
    solution (floquet._certify): a crossing within 2 delta of an edge is
    that edge, and the edge's Delta stands for its certificate.
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

    vals = tuple(sorted(report.root_values.real.tolist(), reverse=True))
    g = (len(vals) - 1) // 2
    scale = 1.0 + max(abs(v) for v in vals)
    delta = 1e-6 * scale
    # edge Delta is checked to 1e-6, whatever rel_tol classified the spectrum
    settings = IntegratorSettings(rel_tol=min(settings.rel_tol, 1e-10))
    edge_deltas = tuple(discriminant_batch(spec, np.array(vals), settings).real.tolist())

    a, b = vals[2 * g - 1] + delta, vals[0] - delta
    E, target, order = _hill_search(spec, a, b) if a < b else np.empty((3, 0))
    # a crossing within 2 delta of an edge is that edge: its Delta is the edge Delta
    keep = (order != 1) | (np.abs(np.subtract.outer(E, vals)).min(axis=1) > 2 * delta)
    found = _certify(spec, E[keep], target[keep], order[keep], settings)
    hits = tuple(h for h in found if any(lo + 2 * delta < h.E < hi - 2 * delta
                                         for lo, hi in zip(vals[1::2], vals[::2])))
    return GapReport(spec=spec, m_used=cls.gap_m, edges=vals, edge_deltas=edge_deltas,
                     hits=hits)


# -- stability region (marching squares on Im Delta) -------------------------

def _marching_segments(xs, ys, im_grid, re_grid):
    """Segments of the Im Delta = 0 level set, cell by cell in row-major order.

    Returns (ids, pts) of shapes (segments, 2) and (segments, 2, 3): the ids
    of the two grid edges a segment joins and their crossing points
    (x, y, re_delta), interpolated along each edge from its left or lower
    corner.  On ny x nx grid points horizontal edge (iy, ix) has id
    iy*nx + ix and vertical edge (iy, ix) has id ny*nx + iy*nx + ix, so ids
    sort like ('h'|'v', iy, ix).  Within a cell the crossed edges are taken
    in the order bottom, right, top, left; a cell crossed on all four (a
    saddle) is resolved by the sign of its corner mean.
    """
    pos = im_grid > 0.0
    # per cell: crossings on its bottom, right, top and left edges
    sides = (pos[:-1, :-1] != pos[:-1, 1:], pos[:-1, 1:] != pos[1:, 1:],
             pos[1:, :-1] != pos[1:, 1:], pos[:-1, :-1] != pos[1:, :-1])
    count = sum(side.view(np.uint8) for side in sides).ravel()
    pair = np.flatnonzero(count == 2)
    cross = np.stack([side.ravel()[pair] for side in sides], -1)
    first = np.argmax(cross, axis=1)
    last = 3 - np.argmax(cross[:, ::-1], axis=1)
    saddle = np.flatnonzero(count == 4)
    sy, sx = np.divmod(saddle, xs.size - 1)
    v0, v1 = im_grid[sy, sx], im_grid[sy, sx + 1]
    v2, v3 = im_grid[sy + 1, sx + 1], im_grid[sy + 1, sx]
    joins_left = (0.25 * (((v0 + v1) + v2) + v3) > 0.0) == (v0 > 0.0)
    # saddle segments: (bottom, left) and (right, top), else (bottom, right)
    # and (top, left)
    cell = np.concatenate([pair, saddle, saddle])
    edge_a = np.concatenate([first, np.zeros(saddle.size, dtype=int),
                             np.where(joins_left, 1, 2)])
    edge_b = np.concatenate([last, np.where(joins_left, 3, 1),
                             np.where(joins_left, 2, 3)])
    order = np.argsort(cell, kind="stable")  # a saddle's first segment first
    iy, ix = np.divmod(cell[order, None], xs.size - 1)
    edge = np.stack([edge_a, edge_b], axis=1)[order]
    # one arithmetic for both edge kinds (t * 0.0 included), so a point does
    # not depend on its cell; a crossed edge has a - b != 0
    horizontal = edge % 2 == 0
    rows, cols = iy + (edge == 2), ix + (edge == 1)
    rows1, cols1 = rows + ~horizontal, cols + horizontal
    a, b = im_grid[rows, cols], im_grid[rows1, cols1]
    t, r = a / (a - b), re_grid[rows, cols]
    pts = np.stack([xs[cols] + t * (xs[cols1] - xs[cols]),
                    ys[rows] + t * (ys[rows1] - ys[rows]),
                    r + t * (re_grid[rows1, cols1] - r)], axis=-1)
    return np.where(horizontal, 0, im_grid.size) + rows * xs.size + cols, pts


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
    """Centre and half-width of [lo, hi]."""
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _cheb_weights(n: int) -> np.ndarray:
    """Map from values at n first-kind Chebyshev points to coefficients."""
    w = (2.0 / n) * chebvander(chebpts1(n), n - 1).T
    w[0] *= 0.5
    return w


def _chebgrid(ty: np.ndarray, tx: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Tensor Chebyshev series c[k, l] T_k(ty) T_l(tx) on the grid ty x tx."""
    return chebvander(ty, c.shape[0] - 1) @ c @ chebvander(tx, c.shape[1] - 1).T


def _delta_proxy(spec: PotentialSpec, xs: np.ndarray, ys: np.ndarray,
                 settings: IntegratorSettings):
    """Delta on the grid xs + i ys from guarded tensor Chebyshev fits.

    Delta is entire in E, so its tensor Chebyshev series on a rectangle
    converges geometrically.  A panel [lo, hi] x [Im window] starts at
    16 x 16 first-kind nodes; an axis doubles its node count while its three
    trailing coefficient columns exceed 1e-13 of the largest coefficient.
    Each round samples, in one adaptive Delta call, the nodes of every open
    panel and its 7 x 7 fixed off-node guard points.  A converged panel is
    checked against direct Delta at its guard points: each must satisfy
    |proxy - Delta| <= 1e-8 max(1, |Delta|), or the panel is split in two
    along Re and both halves are refitted, since |Delta| grows like
    exp(sqrt(E)) along Re and one panel's relative accuracy is spent on its
    largest values; a panel that still needs more nodes drops its guard
    values.  The proxy is evaluated by matrix products with Chebyshev
    Vandermonde matrices.  A window that needs more nodes than the grid has
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
        # each panel's nodes, then its guard points, in one Delta call
        points = [tensor(a, b, tx, ty) for a, b, nx, ny in pending
                  for tx, ty in ((chebpts1(nx), chebpts1(ny)), (_GUARD_T, _GUARD_T))]
        vals = np.split(discriminant_batch(spec, np.concatenate(points), settings),
                        np.cumsum([E.size for E in points[:-1]]))
        refine = []
        for (a, b, nx, ny), f, d in zip(pending, vals[::2], vals[1::2]):
            c = _cheb_weights(ny) @ f.reshape(ny, nx) @ _cheb_weights(nx).T
            floor = _PROXY_TAIL * np.abs(c).max()
            grow_x = np.abs(c[:, -3:]).max() > floor
            grow_y = np.abs(c[-3:]).max() > floor
            if grow_x or grow_y:
                refine.append((a, b, 2 * nx if grow_x else nx,
                               2 * ny if grow_y else ny))
            elif np.all(np.abs(_chebgrid(_GUARD_T, _GUARD_T, c).ravel() - d)
                        <= _PROXY_GUARD * np.maximum(1.0, np.abs(d))):
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
        cols = np.flatnonzero(owner == p)  # one run of columns: xs is monotone
        cols = slice(cols[0], cols[-1] + 1) if cols.size else slice(0)
        mid, half = _affine(a, b)
        grid[:, cols] = _chebgrid((ys - ymid) / yhalf, (xs[cols] - mid) / half, c)

    def evaluate(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        val, der = np.empty_like(E), np.empty_like(E)
        owner = np.searchsorted(starts, E.real, side="right")
        for p, (a, b, c) in enumerate(fits):
            sel = owner == p
            mid, half = _affine(a, b)
            vy = chebvander((E.imag[sel] - ymid) / yhalf, c.shape[0] - 1)
            vx = chebvander((E.real[sel] - mid) / half, c.shape[1] - 1)
            val[sel] = ((vy @ c) * vx).sum(axis=1)
            der[sel] = ((vy[:, :-1] @ chebder(c, axis=0)) * vx).sum(axis=1) / (1j * yhalf)
        return val, der

    return grid, evaluate


def _chain_polylines(ends, keep):
    """Join the kept segments into chains of point indices.

    ends[s] holds segment s's two point indices; a segment is kept when keep
    holds at both.  A point's grid edge borders at most two cells, so the
    point ends at most two segments.  Open chains come first, each from its
    lower end, in the order of those ends; closed loops follow, each from
    its lowest point along its earlier segment, repeating that point last.
    """
    flat = ends[keep[ends].all(axis=1)].ravel()
    # per point, the other ends (half ^ 1) of its first and second segments, or -1
    half = np.argsort(flat, kind="stable")
    point = flat[half]
    slot = np.arange(flat.size) - np.searchsorted(point, point)
    neighbours = np.full((2, keep.size), -1)
    neighbours[slot, point] = flat[half ^ 1]
    degree = (neighbours >= 0).sum(axis=0)
    (first, second), chains, walked = neighbours.tolist(), [], degree == 0
    # chain ends (degree 1) before loop points (degree 2), each in index order
    for start in np.argsort(degree, kind="stable").tolist():
        if walked[start]:
            continue
        line, prev, p = [start], start, first[start]
        while p >= 0 and p != start:
            line.append(p)
            prev, p = p, second[p] if first[p] == prev else first[p]
        walked[line] = True
        chains.append(line + [p] if p == start else line)
    return chains


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
    squares, one point per crossed grid edge id; each point is Newton-polished
    vertically on the proxy, with Im E kept inside the window where the proxy
    is certified, and kept when its polished Delta value lies within
    arc_tol * max(1, |Delta|) of the real interval [-2, 2].  Segments with
    both ends kept are chained in _chain_polylines' order.  Near tangential
    touch points (Delta' = 0 on the real axis) the set legitimately grows
    short vertical whiskers where Delta is real and barely outside [-2, 2];
    they satisfy the same tolerance and are reported as arc points.  A window
    of zero width or height raises ValueError.
    """
    if not _is_integer(resolution) or not 2 <= resolution <= 2048:
        raise ValueError("resolution must be an integer in [2, 2048] per side")
    if len(window) != 4:
        raise ValueError("window must be (re0, re1, im0, im1)")
    if not np.all(np.isfinite(window)):
        raise ValueError("window bounds must be finite")
    re0, re1, im0, im1 = window
    if re0 == re1 or im0 == im1:
        raise ValueError("window must have nonzero width and height")
    settings = settings or DEFAULT_SETTINGS
    xs = np.linspace(re0, re1, resolution)
    ys = np.linspace(im0, im1, resolution)
    polish_settings = IntegratorSettings(rel_tol=min(settings.rel_tol, 1e-10))
    delta_grid, delta = _delta_proxy(spec, xs, ys, polish_settings)

    ids, pts = _marching_segments(xs, ys, delta_grid.imag, delta_grid.real)

    # polish unique crossing points vertically toward Im Delta = 0 (an edge
    # shared by two cells has the same point in both)
    _, first, ends = np.unique(ids, return_index=True, return_inverse=True)
    points = pts.reshape(-1, 3)[first]
    ee = points[:, 0] + 1j * points[:, 1]
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
    keep = dist <= arc_tol * scale
    polished = np.column_stack([ee.real, ee.imag, dval.real])

    # every chain joins at least one segment, so it has two points or more
    polylines = tuple(polished[chain]
                      for chain in _chain_polylines(ends.reshape(ids.shape), keep))
    for line in polylines:
        line.flags.writeable = False
    return ArcSet(polylines=polylines, window=window, resolution=resolution,
                  arc_tol=arc_tol)


_TRIG_TAU_IM = 5.0  # Im tau at which verify compares Q with the trig limit Q_T


def _block_coefficients(spec: PotentialSpec) -> np.ndarray:
    """Coefficients of Q = prod (E - lambda) over the Heun blocks' eigenvalues."""
    return np.poly(np.concatenate(_heun_blocks(spec)))


def _rel_coeff_diff(q: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(q - ref)) / np.max(np.abs(ref)))


def verify_theorems(spec: PotentialSpec,
                    settings: Optional[IntegratorSettings] = None) -> dict:
    """Run the full verification pipeline and report measured values.

    Returns a dict with boolean verdicts (None where not applicable) plus
    the measured quantities backing each verdict; theorem violations show
    up as False verdicts, never as silent passes.  Duality and the trig limit
    read Q from the Heun blocks; the KdV chain runs only in classify_spectrum.
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
        out["details"]["edge_deltas"] = list(gaps.edge_deltas)
        out["details"]["edge_signs_expected"] = expected_signs
        interior = [int(h.parity) for gap in gaps.gaps for h in gap.interior_hits]
        out["details"]["interior_parities"] = interior
        expected_parity = -2 if m % 2 == 0 else 2  # (-1)^(m+1) * 2
        out["details"]["interior_parity_expected"] = expected_parity
        if interior:
            out["thm12_counts_match"] = bool(out["thm12_counts_match"]) and all(
                p == expected_parity for p in interior)

    if cls.dual is not None:
        qd = _block_coefficients(PotentialSpec.elliptic(cls.dual, spec.torus.tau))
        rel = _rel_coeff_diff(_block_coefficients(spec), qd)
        out["duality_match"] = rel <= 1e-8
        out["details"]["duality_rel_diff"] = rel

    trig_target = {"A": spec.n, "B": cls.dual, "C": cls.dual}.get(cls.case_label)
    if cls.case_label == "NONE" and genus(spec.n) == spec.n.n0:
        trig_target = spec.n
    if trig_target is not None:
        qb = _block_coefficients(PotentialSpec.elliptic(trig_target, 1j * _TRIG_TAU_IM))
        rel = _rel_coeff_diff(qb, trig_spectral_polynomial(trig_target).coefficients)
        out["trig_limit_match"] = rel <= 1e-3
        out["details"]["trig_limit_rel_diff"] = rel
        out["details"]["trig_limit_tau_im"] = _TRIG_TAU_IM

    out["all_pass"] = all(v is not False for k, v in out.items()
                          if k in ("thm11_consistent", "thm12_counts_match",
                                   "edge_signs_match", "duality_match",
                                   "trig_limit_match"))
    return out


def _expected_edge_signs(g: int, m: int) -> list[int]:
    """Delta signs at E_0 .. E_{2g} per the gap-count theorem: E_0 takes +2,
    E_{2j-1} and E_{2j} take (-1)^j 2 for j <= m, and every later edge (-1)^m 2."""
    return [2 * (-1) ** min((i + 1) // 2, m) for i in range(2 * g + 1)]
