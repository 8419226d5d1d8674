"""Band assembly, gap reports, stability arcs, theorem verdicts."""

import math

import numpy as np
import pytest

from hillband.elliptic import invariants
from hillband.errors import BandStructureMissing
from hillband.floquet import discriminant_derivative
from hillband.potential import MultiplicityVector, PotentialSpec
from hillband.spectrum import (
    classify_spectrum,
    gap_eigenvalue_report,
    stability_region,
    verify_theorems,
)


def mv(*ns):
    return MultiplicityVector(*ns)


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
    """Each outcome of the Delta adjudication of near-real Q clusters.

    Reference roots (re, im, multiplicity) are recorded to 13 digits; every
    root must keep its multiplicity and reality and stay within 1e-9 * scale.
    """

    CASES = [
        # a real double at E ~ 768 straddles a micro band: crossing split
        ((3, 0, 3, 0), 0.6, [
            (767.7849887457, 0.0, 1), (767.7849887421, 0.0, 1),
            (219.4736964487, 0.0, 1), (219.4736120208, 0.0, 1),
            (-109.3641526796, 0.0, 1), (-109.6622837894, 0.0, 1),
            (-219.1755653428, 0.0, 1)]),
        # Delta(centre) ~ 9.8 at E ~ 713: split through a Delta = 0 minimum
        # of Delta^2 - 4 (a condition vector, so C3/C4 do not check it)
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

    @pytest.mark.parametrize("tup,b", [((3, 0, 3, 0), 0.6), ((3, 3, 1, 0), 1.7)])
    def test_delta_calls_bounded(self, tup, b, monkeypatch):
        # one batched call at the cluster centres, the shared polish passes
        # and one bracket call; per-cluster scalar Newton loops made 8 to 16
        from hillband import floquet, spectrum

        calls = []
        original = floquet.discriminant_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(floquet, "discriminant_batch", counting)
        monkeypatch.setattr(spectrum, "discriminant_batch", counting)
        classify_spectrum(PotentialSpec.elliptic(mv(*tup), 1j * b))
        assert 0 < len(calls) <= 6


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
        hit = gap_report_2210.gaps[2].interior_hits[0]
        h = 1e-4 * (1.0 + abs(hit.E))
        left = discriminant_derivative(spec_2210, hit.E - h).real
        right = discriminant_derivative(spec_2210, hit.E + h).real
        assert left * right < 0.0

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

    def test_resolution_cap(self, lame_spec):
        with pytest.raises(ValueError):
            stability_region(lame_spec, (-1, 1, -1, 1), 4096)

    @pytest.mark.parametrize("resolution", [0, 1])
    def test_resolution_floor(self, lame_spec, resolution):
        # 0 used to divide by zero and 1 to return an empty ArcSet
        with pytest.raises(ValueError):
            stability_region(lame_spec, (-1, 1, -1, 1), resolution)


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
        # the cusp degenerates at b = 8 for genus 4; the verdict falls back
        assert v["trig_limit_match"] is True
        assert v["details"]["trig_limit_tau_im"] == 6.0
