"""Band assembly, gap reports, stability arcs, theorem verdicts."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillband.elliptic import invariants
from hillband import spectrum
from hillband.errors import BandStructureMissing, ResolutionError, TolFailure
from hillband.floquet import IntegratorSettings, discriminant_batch
from hillband.kdv_spectral import RootCluster, spectral_polynomial, spectral_roots
from hillband.potential import MultiplicityVector, PotentialSpec
from hillband.spectrum import (
    _marching_segments,
    classify_spectrum,
    gap_eigenvalue_report,
    stability_region,
    verify_theorems,
)

from oracles import marching_segments_loop


# the verify bench's vectors: cases A, B and C, gap counts 0 and 1, both parities
_VERIFY_VECTORS = ((1, 0, 0, 0), (2, 1, 1, 0), (1, 1, 1, 0),
                   (2, 1, 1, 1), (3, 0, 0, 0), (2, 2, 1, 0))
_GOLDEN = Path(__file__).parent / "golden"


def mv(*ns):
    return MultiplicityVector(*ns)


def as_floats(segments):
    return [tuple((key, tuple(float(c) for c in pt)) for key, pt in seg)
            for seg in segments]


class TestClassifySpectrum:
    def test_lame_bands(self, lame_spec):
        rep = classify_spectrum(lame_spec)
        e1 = invariants(lame_spec.torus).e1.real
        assert rep.all_real_distinct
        assert len(rep.bands) == 2
        lo_band, top_band = rep.bands
        assert lo_band[0] is None and abs(lo_band[1] + e1) < 1e-6 * (1 + e1)
        assert abs(top_band[0]) < 1e-6 and abs(top_band[1] - e1) < 1e-6 * (1 + e1)
        assert abs(rep.ray_asymptote - 2.0 * math.pi) < 1e-8
        assert not rep.predicted_by_conditions and rep.matches_prediction

    def test_2210_four_bands(self, spec_2210):
        rep = classify_spectrum(spec_2210)
        assert rep.all_real_distinct
        assert len(rep.bands) == 4  # semi-infinite ray plus g = 3 bounded

    def test_condition_vector_complex(self, spec_1221):
        rep = classify_spectrum(spec_1221)
        assert not rep.all_real_distinct
        assert rep.bands == ()
        assert len(rep.complex_pairs) >= 1
        assert rep.predicted_by_conditions and rep.matches_prediction

    def test_json_shape(self, lame_spec):
        d = classify_spectrum(lame_spec).to_json_dict()
        assert d["all_real_distinct"] is True
        assert d["bands"][0][0] is None
        assert "ray" in d and "coeffs" in d


class TestAdjudication:
    """Each outcome of the block-and-Delta adjudication of near-real Q clusters.

    Reference roots (re, im, multiplicity) are recorded to 13 digits; every
    root must keep its multiplicity and reality and stay within 1e-9 * scale.
    """

    CASES = [
        # a real double at E ~ 768 straddles a micro band: two block edges,
        # Delta at their midpoint well inside (-2, 2)
        ((3, 0, 3, 0), 0.6, [
            (767.7849887457, 0.0, 1), (767.7849887421, 0.0, 1),
            (219.4736964487, 0.0, 1), (219.4736120208, 0.0, 1),
            (-109.3641526796, 0.0, 1), (-109.6622837894, 0.0, 1),
            (-219.1755653428, 0.0, 1)]),
        # a micro band at E ~ 713 split by two block edges (a condition
        # vector, so C3/C4 do not check it; test_extremum_through_delta_zero
        # moves the cluster centre there)
        ((3, 0, 3, 2), 0.6, [
            (713.0805624241, 0.0, 1), (713.0805624141, 0.0, 1),
            (164.8143078433, 0.0, 1), (164.813885659, 0.0, 1),
            (-160.6189801185, 18.72060092394, 1),
            (-160.6189801185, -18.72060092394, 1),
            (-222.3948888264, 0.0, 1), (-271.4207382136, 0.0, 1),
            (-282.3148950008, 0.0, 1)]),
        # the conjugate pair 55.823 +- 0.0035i becomes two real edges
        ((3, 2, 3, 3), 0.6, [
            (603.7164072928, 0.0, 1), (603.7164071273, 0.0, 1),
            (302.2916829768, 0.0, 1), (302.2856556722, 0.0, 1),
            (55.82730824806, 0.0, 1), (55.81849053686, 0.0, 1),
            (-135.1944647202, 0.0, 1), (-135.6869627516, 0.0, 1),
            (-265.8121376653, 0.0, 1), (-275.4559000846, 0.0, 1),
            (-334.6204579875, 0.0, 1), (-383.15428246, 0.0, 1),
            (-393.7317462159, 0.0, 1)]),
        # |Delta| - 2 at E ~ -118 is below float64 resolution: stays double
        ((2, 2, 0, 0), 1.7, [
            (39.45666047501, 0.0, 1), (9.986172629107e-11, 0.0, 1),
            (-0.04352325552041, 0.0, 1), (-118.4570179395, 0.0, 2)]),
    ]

    @pytest.mark.parametrize("tup,b,expected", CASES)
    def test_outcome(self, tup, b, expected):
        rep = classify_spectrum(PotentialSpec.elliptic(mv(*tup), 1j * b))
        got = [(r.value.real, r.value.imag, r.multiplicity, r.is_real)
               for r in rep.roots]
        assert [g[2:] for g in got] == [(m, im == 0.0) for _, im, m in expected]
        scale = 1.0 + max(abs(complex(re, im)) for re, im, _ in expected)
        for (re, im, _, _), (re0, im0, _) in zip(got, expected):
            assert abs(complex(re - re0, im - im0)) <= 1e-9 * scale

    @pytest.mark.parametrize("offset", [3e-8, -3e-8, 1e-7])
    def test_extremum_through_delta_zero(self, offset):
        # a real double placed where Delta reads +11.9, -12.0 or +39.8 is
        # split all the same: its window holds the same two block edges, and
        # Delta near 0 at their midpoint, inside the micro band at E ~ 713,
        # is farther from +-2 than at either edge
        spec = PotentialSpec.elliptic(mv(3, 0, 3, 2), 0.6j)
        roots = [r for r in spectral_roots(spectral_polynomial(spec))
                 if abs(r.value - 713.08) > 1.0]
        roots.append(RootCluster(value=complex(713.0805624191 + offset, 0.0),
                                 multiplicity=2, is_real=True))
        out = spectrum._resolve_ambiguous_pairs(spec, roots, IntegratorSettings())
        scale = 1.0 + max(abs(r.value) for r in out)
        top = [r for r in out if abs(r.value - 713.08) < 1.0]
        assert [(r.multiplicity, r.is_real) for r in top] == [(1, True)] * 2
        for r, edge in zip(top, (713.0805624241, 713.0805624141)):
            assert abs(r.value - edge) <= 1e-9 * scale

    @pytest.mark.parametrize("tup,b", [((3, 0, 3, 0), 0.6), ((3, 3, 1, 0), 1.7),
                                       ((2, 2, 0, 0), 1.7)])
    def test_delta_calls_bounded(self, tup, b, monkeypatch):
        # the Heun blocks propose the edges and one plain Delta call at the
        # edges and midpoints of every candidate pair certifies them
        from hillband import floquet, spectrum

        calls = []
        original = floquet.discriminant_batch

        def counting(*args, **kwargs):
            calls.append(np.size(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(floquet, "discriminant_batch", counting)
        monkeypatch.setattr(spectrum, "discriminant_batch", counting)
        classify_spectrum(PotentialSpec.elliptic(mv(*tup), 1j * b))
        assert len(calls) == 1


class TestGapReport:
    def test_2210_counts_and_parities(self, gap_report_2210):
        rep = gap_report_2210
        assert rep.genus_g == 3 and rep.m_used == 2
        assert rep.counts() == [0, 0, 1]
        hit = rep.gaps[2].interior_hits[0]
        assert hit.parity == -2
        # edge pattern: Delta(E_3..E_6) = +2, Delta(E_1) = -2, Delta(E_0) = +2
        assert rep.gaps[0].edge_parities == (-2, 2)
        assert rep.gaps[1].edge_parities == (2, -2)
        assert rep.gaps[2].edge_parities == (2, 2)
        for gap in rep.gaps:
            for edge in gap.edge_values:
                assert abs(abs(edge) - 2.0) < 1e-6

    def test_interior_hit_is_local_extremum(self, spec_2210, gap_report_2210):
        # a tangential touch: Delta at hit -+ h lies on one side of the
        # parity, farther from it than at the hit
        hit = gap_report_2210.gaps[2].interior_hits[0]
        h = 1e-4 * (1.0 + abs(hit.E))
        left, mid, right = discriminant_batch(
            spec_2210, [hit.E - h, hit.E, hit.E + h]).real - hit.parity
        assert left * right > 0.0
        assert min(abs(left), abs(right)) > abs(mid)

    def test_steep_crossings_answer(self):
        # (2,1,2,2) at 0.35i: the inner edges near 187.9932 are crossings
        # where |Delta'| is large, so |Delta - parity| at Hill's centres is
        # 5e-5 and 1e-4, yet Delta - parity changes sign across each.  A
        # Newton polish that stops at a step of 1e-8 (1 + |E|) left 1e-5
        # there and failed a 1e-6 residual check with TolFailure
        rep = gap_eigenvalue_report(PotentialSpec.elliptic(mv(2, 1, 2, 2), 0.35j))
        assert rep.genus_g == 4 and len(rep.counts()) == 4

    def test_band_narrower_than_the_margin(self):
        # (1,0,1,0) at 0.35i: the only bounded band is 8.2e-5 wide, less than
        # the 2 delta the search interval leaves out, so it holds no hits
        rep = gap_eigenvalue_report(PotentialSpec.elliptic(mv(1, 0, 1, 0), 0.35j))
        assert rep.counts() == [0]
        assert rep.gaps[0].hi - rep.gaps[0].lo < 1e-4

    def test_gaps_derived_gap_by_gap(self):
        # (3,3,3,3) at 0.6i has one hit in each bounded band.  The report
        # stores the hits by E; gaps, to_json_dict and verify's
        # interior_parities list them from the top band down, and every
        # GapInterval shares the report's edges and Delta values
        rep = gap_eigenvalue_report(PotentialSpec.elliptic(mv(3, 3, 3, 3), 0.6j))
        assert [h.E for h in rep.hits] == sorted(h.E for h in rep.hits)
        listed = [h["E"] for gap in rep.to_json_dict()["gaps"] for h in gap["hits"]]
        want = [549.0567472977091, 1.5009956459562872, -322.3816457299648]
        assert np.allclose(listed, want, rtol=1e-10)
        assert [h.E for gap in rep.gaps for h in gap.interior_hits] == listed
        for j, gap in enumerate(rep.gaps, start=1):
            assert (gap.lo, gap.hi) == (rep.edges[2 * j - 1], rep.edges[2 * j - 2])
            assert gap.edge_values[0] is rep.edge_deltas[2 * j - 1]
            assert gap.edge_values[1] is rep.edge_deltas[2 * j - 2]

    def test_band_structure_missing(self, spec_1221):
        with pytest.raises(BandStructureMissing):
            gap_eigenvalue_report(spec_1221)

    def test_json_shape(self, gap_report_2210):
        d = gap_report_2210.to_json_dict()
        assert d["m"] == 2 and d["g"] == 3
        assert len(d["gaps"]) == 3
        assert d["gaps"][2]["hits"][0]["parity"] == -2

    def test_delta_points_bounded(self, spec_2210, monkeypatch):
        # Delta only certifies the Hill eigenvalues; a return to scanning
        # Delta on a grid costs tens of thousands of points
        from hillband import floquet, spectrum

        points = []
        original = floquet.discriminant_batch

        def counting(spec, E, *args, **kwargs):
            points.append(np.size(E))
            return original(spec, E, *args, **kwargs)

        monkeypatch.setattr(floquet, "discriminant_batch", counting)
        monkeypatch.setattr(spectrum, "discriminant_batch", counting)
        rep = gap_eigenvalue_report(spec_2210)
        assert rep.counts() == [0, 0, 1]
        assert 0 < sum(points) <= 500

    def test_delta_budget_on_verify_vectors(self, monkeypatch):
        # one Delta call reads the edges, and one more certifies what the
        # report can keep: the two doubles, never a crossing on an edge.
        # Certifying every inner edge as well took 11 calls and 84 points
        from hillband import floquet

        specs = [PotentialSpec.elliptic(mv(*n), 1j) for n in _VERIFY_VECTORS]
        reports = [classify_spectrum(spec) for spec in specs]
        calls = {}
        original = floquet.discriminant_batch

        def counting(spec, E, *args, **kwargs):
            calls.setdefault(spec.n.as_tuple(), []).append(np.size(E))
            return original(spec, E, *args, **kwargs)

        monkeypatch.setattr(floquet, "discriminant_batch", counting)
        monkeypatch.setattr(spectrum, "discriminant_batch", counting)
        for spec, report in zip(specs, reports):
            gap_eigenvalue_report(spec, report=report)
        assert sum(len(c) for c in calls.values()) == 8
        assert sum(sum(c) for c in calls.values()) == 36
        # (2,1,1,1): every Hill solution is an inner edge, so only the edge call
        assert calls[(2, 1, 1, 1)] == [7]

    @pytest.mark.parametrize("kind, size, shift", [("crossing", 1, 1e-3), ("double", 2, 0.1)])
    def test_certificate_still_bites(self, spec_2210, gap_report_2210, monkeypatch,
                                     kind, size, shift):
        # (2,2,1,0) at i: the crossing at E_3 moved 1e-3 into the band above
        # it is no longer on an edge (2 delta = 2.3e-4), and the double moved
        # 0.1 off its touch point leaves |Delta + 2| near 3e-5; each takes the
        # certificate and fails it
        from hillband import floquet

        original = floquet._hill_clusters
        e3 = gap_report_2210.edges[3]

        def moved(spec, K, lo, hi):
            clusters = original(spec, K, lo, hi)
            i = min((i for i, c in enumerate(clusters) if c[2] == size),
                    key=lambda i: abs(clusters[i][0] - e3))
            clusters[i] = (clusters[i][0] + shift,) + clusters[i][1:]
            return clusters

        monkeypatch.setattr(floquet, "_hill_clusters", moved)
        with pytest.raises(TolFailure, match=f"\\({kind}\\)"):
            gap_eigenvalue_report(spec_2210)

    def test_json_matches_golden(self):
        # recorded while every inner band edge still took a certificate
        golden = json.loads((_GOLDEN / "gap_reports_tau1.json").read_text())
        assert len(golden) == len(_VERIFY_VECTORS)
        for n in _VERIFY_VECTORS:
            rep = gap_eigenvalue_report(PotentialSpec.elliptic(mv(*n), 1j))
            assert rep.to_json_dict() == golden["%d,%d,%d,%d" % n], n


class TestResultSlots:
    def test_results_have_no_instance_dict(self, lame_spec, gap_report_2210):
        # callers keep many results (a sweep keeps one report per vector);
        # slotted dataclasses carry no per-instance __dict__
        from hillband.floquet import monodromy
        from hillband.kdv_spectral import kdv_chain

        report = classify_spectrum(lame_spec)
        gap = gap_report_2210.gaps[2]
        results = (report, report.polynomial, report.roots[0], kdv_chain(lame_spec, 1),
                   gap_report_2210, gap, gap.interior_hits[0],
                   IntegratorSettings(), monodromy(lame_spec, 2.0))
        assert len({type(r) for r in results}) == 9
        for result in results:
            assert not hasattr(result, "__dict__"), type(result).__name__

    def test_sweep_report_retains_little(self):
        # a sweep keeps one report per vector: Q's float64 coefficients on
        # the PT line, its root values, the spec it shares with the caller
        # and one float, 530-550 bytes a report as measured here; keeping the
        # SpectralPolynomial and complex coefficients read 716-725.  The
        # first pass fills every cache; the collector runs only between the
        # passes, so the freed buffers of both are traced alike
        import gc
        import tracemalloc

        specs = [PotentialSpec.elliptic(mv(*tup), 1j * b) for b in (1.0, 1.7)
                 for tup in itertools.product(range(4), repeat=4)
                 if max(tup) >= 1 and tup[0] == max(tup)]
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            warm = [classify_spectrum(spec) for spec in specs]
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            kept = [classify_spectrum(spec) for spec in specs]
            gc.collect()
            per_report = (tracemalloc.get_traced_memory()[0] - base) / len(kept)
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert len(warm) == len(kept) == 198
        assert per_report <= 600.0, per_report


class TestStabilityRegion:
    def test_lame_small_window(self, lame_spec):
        arcs = stability_region(lame_spec, (-10.0, 10.0, -1.0, 1.0), 128)
        pts = [p for poly in arcs.polylines for p in poly]
        assert pts
        assert max(abs(p[1]) for p in pts) < 1e-3
        for _, _, rd in pts:
            assert abs(rd) <= 2.0 + arcs.arc_tol * max(1.0, abs(rd))

    def test_complex_arcs_where_they_live(self, spec_1221):
        # the (1,2,2,1) complex roots sit near +-38.9 +- 13.75i at tau = i;
        # a window around the right pair recovers conjugation-symmetric arcs
        arcs = stability_region(spec_1221, (25.0, 50.0, -16.0, 16.0), 192)
        pts = [p for poly in arcs.polylines for p in poly]
        assert pts
        off = [p for p in pts if abs(p[1]) > 1e-2]
        assert off, "expected off-axis arc points near the complex roots"
        arr = np.array([(p[0], p[1]) for p in pts])
        cell = 32.0 / 191
        for x, y in arr[np.abs(arr[:, 1]) > 1e-2]:
            d = np.min(np.abs(arr[:, 0] - x) + np.abs(arr[:, 1] + y))
            assert d < 4 * cell

    def test_wide_window_splits_panels(self, lame_spec, monkeypatch):
        # |Delta| reaches 5e13 at E = 1000, so one panel's relative accuracy
        # does not resolve the arcs near E = 0; the panels split along Re.
        # The arcs must cover the closed-form Lame bands (-inf, -e1], [0, e1]
        # at the grid spacing, and stay on the real axis.
        guards = []
        original = spectrum._chebgrid

        def spy(ty, tx, c):
            guards.append(ty is spectrum._GUARD_T)
            return original(ty, tx, c)

        monkeypatch.setattr(spectrum, "_chebgrid", spy)
        re0, re1, res = -30.0, 1000.0, 256
        arcs = stability_region(lame_spec, (re0, re1, -2.0, 2.0), res)
        assert sum(guards) >= 3 and guards.count(False) >= 2
        pts = np.array([(p[0], p[1]) for poly in arcs.polylines for p in poly])
        assert len(pts) and np.abs(pts[:, 1]).max() <= arcs.arc_tol
        e1 = invariants(lame_spec.torus).e1.real
        h = (re1 - re0) / (res - 1)
        bands = [(re0, -e1), (0.0, e1)]
        assert all(any(lo - h <= x <= hi + h for lo, hi in bands) for x in pts[:, 0])
        xs = np.linspace(re0, re1, res)
        for lo, hi in bands:
            for col in xs[(xs >= lo + h) & (xs <= hi - h)]:
                assert np.abs(pts[:, 0] - col).min() <= 0.5 * h

    @pytest.mark.parametrize("window, res", [((30.0, 45.0, 5.0, 14.0), 7),
                                             ((30.0, 45.0, -14.0, -5.0), 48)])
    def test_points_stay_in_window(self, spec_1221, window, res):
        # the vertical polish used to carry one point of each window past
        # its Im edge, where the proxy is not certified
        arcs = stability_region(spec_1221, window, res)
        pts = np.concatenate(arcs.polylines)
        assert len(pts)
        lo, hi = sorted(window[2:])
        assert np.all((lo <= pts[:, 1]) & (pts[:, 1] <= hi))
        assert np.all((window[0] <= pts[:, 0]) & (pts[:, 0] <= window[1]))

    @pytest.mark.parametrize("n, window, res", [
        ((1, 2, 2, 1), (-50.0, 50.0, -16.0, 16.0), 512),
        ((1, 0, 0, 0), (-30.0, 1000.0, -2.0, 2.0), 256)])
    def test_direct_delta_oracle(self, n, window, res):
        # every returned point, polished and kept on the proxy, holds on
        # direct Delta: re_delta to 1e-8 of scale, and the keep rule within
        # arc_tol + 1e-8 of scale
        spec = PotentialSpec.elliptic(mv(*n), 1j)
        arcs = stability_region(spec, window, res)
        assert not any(poly.flags.writeable for poly in arcs.polylines)
        pts = np.concatenate(arcs.polylines)
        assert len(pts) >= 8
        d = discriminant_batch(spec, pts[:, 0] + 1j * pts[:, 1],
                               IntegratorSettings(rel_tol=1e-11))
        scale = np.maximum(1.0, np.abs(d))
        assert np.all(np.abs(d.real - pts[:, 2]) <= 1e-8 * scale)
        dist = np.where(np.abs(d.real) <= 2.0, np.abs(d.imag),
                        np.abs(d - np.sign(d.real) * 2.0))
        assert np.all(dist <= (arcs.arc_tol + 1e-8) * scale)

    def test_one_delta_call_on_the_bench_window(self, lame_spec, monkeypatch):
        # the bench's Lame window converges in the first round, and its
        # guard points ride in the node call: Delta is read once
        sizes = []
        original = spectrum.discriminant_batch

        def counting(spec, E, settings):
            sizes.append(E.size)
            return original(spec, E, settings)

        monkeypatch.setattr(spectrum, "discriminant_batch", counting)
        stability_region(lame_spec, (-15.0, 15.0, -3.0, 3.0), 256)
        assert sizes == [16 * 16 + 7 * 7]

    def test_traced_peak_at_res_512(self, lame_spec):
        # the grid (4 MB) is the largest array; marching squares reads the
        # crossed edges only
        import tracemalloc

        window = (-15.0, 15.0, -3.0, 3.0)
        stability_region(lame_spec, window, 16)
        tracemalloc.start()
        try:
            stability_region(lame_spec, window, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, peak

    def test_zero_width_window(self, lame_spec):
        for window in ((5.0, 5.0, -1.0, 1.0), (-5.0, 5.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="window"):
                stability_region(lame_spec, window, 16)

    def test_node_cap_raises(self, lame_spec, monkeypatch):
        # the window works with the default cap; below one 16 x 16 round the
        # proxy must refuse rather than return an unchecked grid
        monkeypatch.setattr(spectrum, "_PROXY_MAX_NODES", 200)
        with pytest.raises(ResolutionError):
            stability_region(lame_spec, (-10.0, 10.0, -1.0, 1.0), 128)

    def test_guard_alone_keeps_answers(self, lame_spec, monkeypatch):
        # with the degree test disabled every panel stops at 16 x 16 nodes;
        # the off-node check then splits panels until the proxy holds, and
        # the arcs match the converged run
        window = (-15.0, 15.0, -3.0, 3.0)
        want = stability_region(lame_spec, window, 128)
        monkeypatch.setattr(spectrum, "_PROXY_TAIL", 1.0)
        got = stability_region(lame_spec, window, 128)
        a = np.array([p for poly in want.polylines for p in poly])
        b = np.array([p for poly in got.polylines for p in poly])
        assert a.shape == b.shape and np.abs(a - b).max() <= 1e-6

    def test_resolution_cap(self, lame_spec):
        with pytest.raises(ValueError):
            stability_region(lame_spec, (-1, 1, -1, 1), 4096)

    @pytest.mark.parametrize("window, resolution", [
        pytest.param((-1, 1, -1, 1), 0, id="0"),
        pytest.param((-1, 1, -1, 1), 1, id="1"),
        pytest.param((-1, 1, -1, 1), 32.0, id="32.0"),
        pytest.param((-1, 1, -1, 1), "32", id="'32'"),
        pytest.param((-1, 1, -1), 32, id="window3"),
        pytest.param((-1, 1, -1, 1, 0), 32, id="window5"),
    ])
    def test_resolution_floor(self, lame_spec, window, resolution):
        # 0 used to divide by zero and 1 to return an empty ArcSet; a float
        # or string resolution and a window of the wrong length used to
        # raise a raw TypeError or an unpacking ValueError
        with pytest.raises(ValueError, match="resolution|window"):
            stability_region(lame_spec, window, resolution)

    def test_window_must_be_finite(self, lame_spec):
        with pytest.raises(ValueError):
            stability_region(lame_spec, (-1.0, math.nan, -1.0, 1.0), 8)


_GRID_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(-4.0, 4.0))


class TestMarchingSegments:
    XS = np.array([0.0, 1.0, 2.0])
    YS = np.array([0.0, 1.0, 2.0])

    @pytest.mark.parametrize("middle,saddle", [
        # corner mean +0.25 has the sign of the lower-left corner: the
        # segments cut off the bottom-left and top-right corners
        (2.0, [(("h", 0, 0), ("v", 0, 0)), (("v", 0, 1), ("h", 1, 0))]),
        # corner mean -0.125: they cut off the bottom-right and top-left
        (0.5, [(("h", 0, 0), ("v", 0, 1)), (("h", 1, 0), ("v", 0, 0))]),
    ])
    def test_saddle_cell(self, middle, saddle):
        im = np.array([[1.0, -1.0, -2.0],
                       [-1.0, middle, -3.0],
                       [-2.0, -3.0, -4.0]])
        re = self.XS[None, :] + 10.0 * self.YS[:, None]
        segs = _marching_segments(self.XS, self.YS, im, re)
        assert [(a[0], b[0]) for a, b in segs] == saddle + [
            (("h", 1, 1), ("v", 0, 1)),
            (("h", 1, 0), ("v", 1, 1)),
            (("h", 1, 1), ("v", 1, 1)),
        ]
        points = {key: pt for seg in segs for key, pt in seg}
        assert points[("h", 0, 0)] == (0.5, 0.0, 0.5)
        assert points[("v", 0, 0)] == (0.0, 0.5, 5.0)
        assert as_floats(segs) == as_floats(
            marching_segments_loop(self.XS, self.YS, im, re))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), ny=st.integers(2, 9), nx=st.integers(2, 9),
           checkerboard=st.booleans(),
           x_ends=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           y_ends=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
    def test_matches_cell_loop(self, data, ny, nx, checkerboard, x_ends, y_ends):
        # same segments, order, keys and interpolated points as the per-cell
        # loop, on grids with exact zeros and either axis reversed; a
        # checkerboard of signs makes every cell without a zero corner a saddle
        def grid():
            values = data.draw(st.lists(_GRID_VALUES, min_size=ny * nx, max_size=ny * nx))
            return np.array(values).reshape(ny, nx)

        im, re = grid(), grid()
        if checkerboard:
            im = np.abs(im) * (-1.0) ** np.add.outer(np.arange(ny), np.arange(nx))
        xs, ys = np.linspace(*x_ends, nx), np.linspace(*y_ends, ny)
        assert as_floats(_marching_segments(xs, ys, im, re)) == as_floats(
            marching_segments_loop(xs, ys, im, re))


class TestVerifyTheorems:
    def test_lame_all_pass(self, lame_spec):
        v = verify_theorems(lame_spec)
        assert v["thm11_consistent"] is True
        assert v["thm12_counts_match"] is True
        assert v["edge_signs_match"] is True
        assert v["duality_match"] is True  # (1,0,0,0) is self-dual
        assert v["trig_limit_match"] is True
        assert v["all_pass"] is True

    def test_2210_counts(self, spec_2210):
        v = verify_theorems(spec_2210)
        assert v["thm12_counts_match"] is True
        assert v["details"]["gap_counts"] == [0, 0, 1]
        assert v["details"]["interior_parities"] == [-2]
        assert v["edge_signs_match"] is True
        assert v["all_pass"] is True

    def test_condition_vector_complex_branch(self, spec_1221):
        v = verify_theorems(spec_1221)
        assert v["thm11_consistent"] is True
        assert v["thm12_counts_match"] is None
        assert v["details"]["num_complex_pairs"] >= 1
        assert v["all_pass"] is True

    def test_case_c_all_pass(self):
        from hillband.potential import PotentialSpec

        v = verify_theorems(PotentialSpec.elliptic(mv(3, 2, 1, 1), 1j))
        assert v["all_pass"] is True
        assert v["details"]["gap_counts"] == [0, 0, 0, 1]
        # the trig limit is read from the dual's blocks at b = 5
        assert v["trig_limit_match"] is True
        assert v["details"]["trig_limit_tau_im"] == 5.0

    def test_chain_runs_once(self, monkeypatch):
        # duality and the trig limit read the Heun blocks, so the only chain
        # run is classify_spectrum's, never one on the dual or at b = 5
        calls = []
        chain_q = spectrum.spectral_polynomial

        def counting(spec):
            calls.append(spec.n.as_tuple())
            return chain_q(spec)

        monkeypatch.setattr(spectrum, "spectral_polynomial", counting)
        v = verify_theorems(PotentialSpec.elliptic(mv(2, 1, 1, 1), 1j))
        assert v["classification"]["case"] == "C"
        assert v["duality_match"] is True and v["trig_limit_match"] is True
        assert calls == [(2, 1, 1, 1)]

    def test_c3c4_vectors_all_pass_at_tau_1_7(self):
        # every n with n_k <= 3 and n0 = max: the reality dichotomy, the gap
        # counts and edge signs, duality and the trig limit (Q from the Heun
        # blocks, against Q_T at b = 5)
        failed = [
            tup for tup in itertools.product(range(4), repeat=4)
            if max(tup) >= 1 and tup[0] == max(tup)
            and not verify_theorems(PotentialSpec.elliptic(mv(*tup), 1.7j))["all_pass"]]
        assert failed == []
