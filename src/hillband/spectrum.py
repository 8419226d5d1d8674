"""Spectral picture assembly: bands, gap eigenvalue counts, stability arcs.

Ties the other modules together: roots of the spectral polynomial give the
band edges (when real and distinct; root clusters too close to the real
axis for Q's coefficients to resolve are adjudicated against Delta with
the shared batched polisher floquet._polish), Hill's method finds the interior
(anti)periodic eigenvalues of each bounded band interval (E_{2j-1}, E_{2j-2})
and the discriminant certifies them, and a marching-squares pass over
Im Delta = 0 recovers the conditional stability set as polylines in the
complex E plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BandStructureMissing, HillbandError
from .floquet import (
    DEFAULT_SETTINGS,
    EigenvalueHit,
    IntegratorSettings,
    _line_potential,
    _polish,
    _transport_fixed,
    discriminant_batch,
    periodic_eigenvalues_on_interval,
)
from .kdv_spectral import (
    RootCluster,
    SpectralPolynomial,
    spectral_polynomial,
    spectral_roots,
    trig_spectral_polynomial,
)
from .potential import (
    PotentialSpec,
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

@dataclass(frozen=True)
class SpectrumReport:
    spec: PotentialSpec
    polynomial: SpectralPolynomial
    roots: tuple[RootCluster, ...]
    all_real_distinct: bool
    bands: tuple[tuple[Optional[float], float], ...]  # (lo, hi); lo None = -inf
    ray_asymptote: float
    complex_pairs: tuple[tuple[complex, complex], ...]
    predicted_by_conditions: bool

    @property
    def matches_prediction(self) -> bool:
        """Theorem 1.1: the conditions hold iff Q has a non-real root.

        An unresolved real multiplicity-2 cluster is a band edge pair below
        the discriminant's resolution, not a departure from the real axis.
        """
        has_complex = any(not r.is_real for r in self.roots)
        return self.predicted_by_conditions == has_complex

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


@dataclass(frozen=True)
class GapInterval:
    index: int  # j in 1..g
    lo: float  # E_{2j-1}
    hi: float  # E_{2j-2}
    interior_hits: tuple[EigenvalueHit, ...]
    edge_parities: tuple[int, int]  # (Delta at E_{2j-1}, Delta at E_{2j-2})
    edge_values: tuple[float, float]  # measured Delta at the edges


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ArcSet:
    """Polylines tracing Delta^-1([-2, 2]) inside a window."""

    polylines: tuple[tuple[tuple[float, float, float], ...], ...]  # (re, im, re_delta)
    window: tuple[float, float, float, float]
    resolution: int
    arc_tol: float

    def num_points(self) -> int:
        return sum(len(p) for p in self.polylines)

    def to_csv_rows(self) -> list[tuple[int, float, float, float]]:
        rows = []
        for i, poly in enumerate(self.polylines):
            for re, im, rd in poly:
                rows.append((i, re, im, rd))
        return rows


def _resolve_ambiguous_pairs(spec, roots, settings):
    """Let the discriminant adjudicate root clusters hugging the real axis.

    Exponentially narrow bands split band-edge pairs by less than the
    spectral polynomial's coefficient accuracy can resolve, so such pairs
    surface as conjugate pairs with a spurious small imaginary part, or as
    real doubles.  Pairs with |Im| > 1e-4 * scale are far above coefficient
    noise and are never touched.  All clusters of one call share one
    batched Delta, Delta' call at their centres and one batched polish (see
    floquet._polish):

    * |Delta(centre)| < 1.9: the cluster straddles a band whose edges are
      transversal crossings of Delta = -+2, steep for narrow bands.  Each
      is polished from its linear prediction and certified by a sign
      change of Delta - target across E -+ 0.1 / |Delta'|; the 0.1 margin
      matches the 1.9 threshold that certified Delta(centre).
    * otherwise the extremum f* of f = Delta^2 - 4 near the centre decides:
      f* < 0 with f'' = 2 Delta'^2 + 2 Delta Delta'' > 0 is a band of
      half-width sqrt(-2 f* / f''), f* > 0 with f'' < 0 a gap, which
      confirms the complex pair.

    A cluster whose polished points leave its window, whose |f*| is below
    1e-8, or whose split is below float resolution stays as it was.
    """
    if spec.mode == "elliptic" and abs(spec.torus.tau.real) > 1e-12:
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

    centre = np.array([c[1] for c in clusters])
    window = np.array([c[2] for c in clusters])
    d0, slope = discriminant_batch(spec, centre, settings, derivative=True)
    d0, slope = d0.real, slope.real
    crossing = (np.abs(d0) < 1.9) & (np.abs(slope) > 1e-300)
    cross, ext = np.nonzero(crossing)[0], np.nonzero(~crossing)[0]
    nc = 2 * cross.size
    # a straddled band has Delta = lower_t below its centre and -lower_t above
    owner = np.concatenate([cross, cross, ext])
    oc = owner[:nc]
    lower_t = -2.0 * np.sign(slope[cross])
    target = np.concatenate([lower_t, -lower_t, np.zeros(ext.size)])
    start = np.concatenate([centre[oc] - (d0[oc] - target[:nc]) / slope[oc],
                            centre[ext]])
    E, dval, dder, d2 = _polish(spec, start, target, np.arange(owner.size) >= nc,
                                settings)
    ok = np.abs(E - centre[owner]) <= window[owner]
    if nc:
        margin = np.minimum(0.1 / np.maximum(np.abs(dder[:nc]), 1e-300),
                            window[oc])
        f_pm = discriminant_batch(spec, np.concatenate([E[:nc] - margin,
                                                        E[:nc] + margin]),
                                  settings).real - np.tile(target[:nc], 2)
        ok[:nc] &= f_pm[:nc] * f_pm[nc:] < 0.0
    f_star = dval[nc:] ** 2 - 4.0
    f2 = 2.0 * dder[nc:] ** 2 + 2.0 * dval[nc:] * d2[nc:]
    half = np.sqrt(np.divide(-2.0 * f_star, f2, out=np.zeros(ext.size),
                             where=f_star * f2 < 0.0))
    ok[nc:] &= ((np.abs(f_star) >= 1e-8) & (f_star * f2 < 0.0)
                & (half > 1e-12 * (1.0 + np.abs(E[nc:]))))

    edges = {}
    for k, c in enumerate(cross):
        if ok[k] and ok[cross.size + k]:
            edges[c] = sorted((E[k], E[cross.size + k]))
    for k, c in enumerate(ext):
        if ok[nc + k]:
            edges[c] = [E[nc + k] - half[k], E[nc + k] + half[k]]
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
    doubles, are adjudicated against the discriminant (see
    _resolve_ambiguous_pairs).
    """
    settings = settings or DEFAULT_SETTINGS
    poly = spectral_polynomial(spec)
    roots = spectral_roots(poly)
    roots = _resolve_ambiguous_pairs(spec, roots, settings)
    all_real = all(r.is_real for r in roots)
    all_simple = all(r.multiplicity == 1 for r in roots)
    all_real_distinct = all_real and all_simple

    bands: tuple = ()
    complex_pairs: list[tuple[complex, complex]] = []
    if all_real_distinct:
        vals = sorted((r.value.real for r in roots), reverse=True)  # E_0 > ...
        g = (len(vals) - 1) // 2
        intervals = [(None, vals[2 * g])]
        for j in range(g, 0, -1):
            intervals.append((vals[2 * j - 1], vals[2 * j - 2]))
        bands = tuple(intervals)
    else:
        upper = [r for r in roots if not r.is_real and r.value.imag > 0]
        lower = [r for r in roots if not r.is_real and r.value.imag < 0]
        for r in upper:
            mate = min(lower, key=lambda s: abs(s.value - r.value.conjugate()),
                       default=None)
            if mate is not None:
                complex_pairs.append((r.value, mate.value))

    c1, c2 = gap_conditions(spec.n)
    ray = mean_potential(spec)
    return SpectrumReport(
        spec=spec, polynomial=poly, roots=tuple(roots),
        all_real_distinct=all_real_distinct, bands=bands,
        ray_asymptote=float(ray.real),
        complex_pairs=tuple(complex_pairs),
        predicted_by_conditions=c1 or c2,
    )


def gap_eigenvalue_report(spec: PotentialSpec,
                          settings: Optional[IntegratorSettings] = None,
                          report: Optional[SpectrumReport] = None) -> GapReport:
    """Interior (anti)periodic eigenvalues of every bounded band interval.

    One search over (E_{2g-1} + delta, E_0 - delta), delta = 1e-6 * scale,
    finds every solution of Delta = +-2 there; a hit belongs to the band
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

    vals = sorted((r.value.real for r in report.roots), reverse=True)
    g = (len(vals) - 1) // 2
    scale = 1.0 + max(abs(v) for v in vals)
    delta = 1e-6 * scale

    edge_deltas = discriminant_batch(spec, np.array(vals), settings).real

    found = periodic_eigenvalues_on_interval(
        spec, vals[2 * g - 1] + delta, vals[0] - delta, settings)
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

    Returns a list of ((key_a, pt_a), (key_b, pt_b)) where keys identify
    grid edges ('h'/'v', iy, ix) and pts are (x, y, re_delta) from linear
    interpolation.
    """

    def interp(v0, v1, p0, p1, r0, r1):
        t = v0 / (v0 - v1)
        return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]),
                r0 + t * (r1 - r0))

    nrows, ncols = im_grid.shape
    segments = []
    for iy in range(nrows - 1):
        for ix in range(ncols - 1):
            v = (im_grid[iy, ix], im_grid[iy, ix + 1],
                 im_grid[iy + 1, ix + 1], im_grid[iy + 1, ix])
            sgn = tuple(x > 0.0 for x in v)
            if all(sgn) or not any(sgn):
                continue
            corners = ((xs[ix], ys[iy]), (xs[ix + 1], ys[iy]),
                       (xs[ix + 1], ys[iy + 1]), (xs[ix], ys[iy + 1]))
            rvals = (re_grid[iy, ix], re_grid[iy, ix + 1],
                     re_grid[iy + 1, ix + 1], re_grid[iy + 1, ix])
            # edge id, corner index pair
            edges = (
                (("h", iy, ix), 0, 1),
                (("v", iy, ix + 1), 1, 2),
                (("h", iy + 1, ix), 3, 2),
                (("v", iy, ix), 0, 3),
            )
            crossings = []
            for key, a, b in edges:
                if sgn[a] != sgn[b]:
                    pt = interp(v[a], v[b], corners[a], corners[b],
                                rvals[a], rvals[b])
                    crossings.append((key, pt))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                # saddle: resolve by the center sign
                center = 0.25 * sum(v)
                if (center > 0.0) == sgn[0]:
                    segments.append((crossings[0], crossings[3]))
                    segments.append((crossings[1], crossings[2]))
                else:
                    segments.append((crossings[0], crossings[1]))
                    segments.append((crossings[2], crossings[3]))
    return segments


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


def stability_region(spec: PotentialSpec, window: tuple[float, float, float, float],
                     resolution: int = 512,
                     settings: Optional[IntegratorSettings] = None) -> ArcSet:
    """Conditional stability set Delta^-1([-2, 2]) inside a window.

    Delta is sampled on a resolution^2 grid with the fixed-step transport
    (stage potentials precomputed), the Im Delta = 0 level set is extracted
    by marching squares, and every crossing point is Newton-polished in the
    vertical direction and kept when its polished Delta value lies within
    arc_tol * max(1, |Delta|) of the real interval [-2, 2].  Near tangential
    touch points (Delta' = 0 on the real axis) the set legitimately grows
    short vertical whiskers where Delta is real and barely outside [-2, 2];
    they satisfy the same tolerance and are reported as arc points.
    """
    if not 2 <= resolution <= 2048:
        raise ValueError("resolution must lie in [2, 2048] per side")
    settings = settings or DEFAULT_SETTINGS
    re0, re1, im0, im1 = window
    xs = np.linspace(re0, re1, resolution)
    ys = np.linspace(im0, im1, resolution)

    qfun = _line_potential(spec)
    # step count from the stiffest point of the window; the grid only feeds
    # the 1e-3-level membership test, polishing reruns adaptively
    probe = np.abs(qfun(np.linspace(0.0, 1.0, 257)))
    omega = math.sqrt(max(abs(re0), abs(re1)) + max(abs(im0), abs(im1))
                      + float(probe.max()))
    nsteps = max(96, int(math.ceil(6.0 * omega)))

    delta_grid = np.empty((resolution, resolution), dtype=complex)
    chunk = max(1, (1 << 15) // resolution)
    for start in range(0, resolution, chunk):
        rows = ys[start: start + chunk]
        ee = (xs[None, :] + 1j * rows[:, None]).ravel()
        y = _transport_fixed(qfun, ee, nsteps)
        delta_grid[start: start + chunk, :] = (y[0] + y[3]).reshape(len(rows),
                                                                    resolution)

    segments = _marching_segments(xs, ys, delta_grid.imag, delta_grid.real)

    # polish unique crossing points vertically toward Im Delta = 0
    points: dict = {}
    for (ka, pa), (kb, pb) in segments:
        points.setdefault(ka, pa)
        points.setdefault(kb, pb)
    keys = sorted(points.keys())
    if not keys:
        return ArcSet(polylines=(), window=window, resolution=resolution,
                      arc_tol=1e-3)
    ee = np.array([points[k][0] + 1j * points[k][1] for k in keys])
    polish_settings = IntegratorSettings(rel_tol=min(settings.rel_tol, 1e-10),
                                         abs_tol=1e-13,
                                         max_steps=settings.max_steps)
    for _ in range(3):
        dval, dder = discriminant_batch(spec, ee, polish_settings,
                                        derivative=True)
        denom = dder.real
        step = np.where(np.abs(denom) > 1e-9, dval.imag / denom, 0.0)
        cell = abs(ys[1] - ys[0])
        step = np.clip(step, -2 * cell, 2 * cell)
        ee = ee - 1j * step
    dval = discriminant_batch(spec, ee, polish_settings)

    arc_tol = 1e-3
    scale = np.maximum(1.0, np.abs(dval))
    dist = np.where(np.abs(dval.real) <= 2.0, np.abs(dval.imag),
                    np.abs(dval - np.sign(dval.real) * 2.0))
    keep_arr = dist <= arc_tol * scale
    keep = {k: bool(keep_arr[i]) for i, k in enumerate(keys)}
    polished = {k: (float(ee[i].real), float(ee[i].imag), float(dval[i].real))
                for i, k in enumerate(keys)}

    chains = _chain_polylines(segments, keep)
    polylines = tuple(tuple(polished[k] for k in chain) for chain in chains
                      if len(chain) >= 2)
    return ArcSet(polylines=polylines, window=window, resolution=resolution,
                  arc_tol=arc_tol)


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
        # isomonodromy, checked above), whose genus survives the cusp; deep
        # genera degenerate earlier, so fall back from b = 8 toward b = 5
        for b_lim in (8.0, 6.0, 5.0):
            try:
                q8 = spectral_polynomial(PotentialSpec.elliptic(trig_target,
                                                                1j * b_lim))
                qt = trig_spectral_polynomial(trig_target)
                rel = float(np.max(np.abs(q8.coefficients - qt.coefficients))
                            / np.max(np.abs(qt.coefficients)))
                out["trig_limit_match"] = rel <= 1e-3
                out["details"]["trig_limit_rel_diff"] = rel
                out["details"]["trig_limit_tau_im"] = b_lim
                break
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