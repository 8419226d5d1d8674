"""Weierstrass kernel: special values, identities, and oracle agreement."""

import math

import numpy as np
import pytest

from hillband.elliptic import TorusParam, invariants, wp, wp_prime
from hillband.errors import PoleProximity, SeriesDivergence

from oracles import e_theta_nulls, legendre_defect, wp_lattice_sum, wp_trig

TAUS = [0.8j, 1j, 2j, 6j]


def rng():
    return np.random.default_rng(20240817)


def sample_strip(tau, count, margin=0.06):
    r = rng()
    x = r.uniform(-0.5, 0.5, count)
    y = r.uniform(margin, 1.0 - margin, count) * tau.imag
    return x + 1j * y


class TestSpecialValues:
    def test_wp_half_period_square_lattice(self):
        t = TorusParam.from_tau(1j)
        expected = math.gamma(0.25) ** 4 / (8.0 * math.pi)
        assert abs(wp(0.5, t) - expected) < 1e-8

    def test_wp_center_vanishes_square_lattice(self):
        t = TorusParam.from_tau(1j)
        assert abs(wp((1 + 1j) / 2, t)) < 1e-12

    def test_wp_large_b_matches_trig(self):
        t = TorusParam.from_tau(6j)
        assert abs(wp(0.3, t) - wp_trig(0.3)) < 1e-6

    def test_wp_prime_vanishes_at_half_period(self):
        t = TorusParam.from_tau(1j)
        assert abs(wp_prime(0.5, t)) < 1e-10

    def test_wp_prime_odd(self):
        t = TorusParam.from_tau(1j)
        z = 0.23 + 0.31j
        assert abs(wp_prime(-z, t) + wp_prime(z, t)) < 1e-10


class TestInvariants:
    def test_square_lattice_values(self):
        inv = invariants(TorusParam.from_tau(1j))
        e1 = math.gamma(0.25) ** 4 / (8.0 * math.pi)
        assert abs(inv.e1 - e1) < 1e-8
        assert abs(inv.e2 + e1) < 1e-8
        assert abs(inv.e3) < 1e-10
        assert abs(inv.g3) < 1e-10
        assert abs(inv.g2 - 4.0 * e1**2) < 1e-8 * e1**2
        assert abs(inv.eta1 - math.pi / 2.0) < 1e-8

    @pytest.mark.parametrize("tau", TAUS)
    def test_algebraic_relations(self, tau):
        inv = invariants(TorusParam.from_tau(tau))
        es = (inv.e1, inv.e2, inv.e3)
        scale = max(abs(e) for e in es)
        assert abs(sum(es)) <= 1e-12 * scale
        assert abs(inv.g2 - 2.0 * sum(e**2 for e in es)) <= 1e-12 * abs(inv.g2)
        g3 = 4.0 * inv.e1 * inv.e2 * inv.e3
        assert abs(inv.g3 - g3) <= 1e-12 * max(abs(inv.g3), abs(inv.g2))
        # reality on the imaginary axis
        for v in (inv.g2, inv.g3, inv.eta1, *es):
            assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))

    @pytest.mark.parametrize("tau", TAUS)
    def test_eta1_legendre(self, tau):
        inv = invariants(TorusParam.from_tau(tau))
        assert legendre_defect(inv.eta1, tau) < 1e-10

    @pytest.mark.parametrize("tau", [0.8j, 1.5j])
    def test_eta1_matches_wp_mean(self, tau):
        # integral of wp over one real period equals -2 eta1
        t = TorusParam.from_tau(tau)
        inv = invariants(t)
        n = 512
        vals = wp(tau / 4.0 + np.arange(n) / n, t)
        assert abs(np.mean(vals) + 2.0 * inv.eta1) < 1e-10 * max(1.0, abs(inv.eta1))


class TestFunctionalIdentities:
    @pytest.mark.parametrize("tau", TAUS)
    def test_periodicity_and_evenness(self, tau):
        t = TorusParam.from_tau(tau)
        z = sample_strip(tau, 100)
        w = wp(z, t)
        scale = np.maximum(1.0, np.abs(w))
        assert np.max(np.abs(wp(z + 1.0, t) - w) / scale) < 1e-10
        assert np.max(np.abs(wp(z + tau, t) - w) / scale) < 1e-10
        assert np.max(np.abs(wp(-z, t) - w) / scale) < 1e-10

    @pytest.mark.parametrize("tau", TAUS)
    def test_differential_identity(self, tau):
        t = TorusParam.from_tau(tau)
        inv = invariants(t)
        z = sample_strip(tau, 200)
        w = wp(z, t)
        resid = wp_prime(z, t) ** 2 - (4.0 * w**3 - inv.g2 * w - inv.g3)
        assert np.max(np.abs(resid) / np.maximum(1.0, np.abs(w)) ** 3) < 1e-10

    def test_differential_identity_spec_point(self):
        t = TorusParam.from_tau(1.5j)
        inv = invariants(t)
        z = 0.2 + 0.1j
        w = wp(z, t)
        resid = wp_prime(z, t) ** 2 - (4.0 * w**3 - inv.g2 * w - inv.g3)
        assert abs(resid) / max(1.0, abs(w) ** 3) < 1e-10

    def test_trig_limit_bounds(self):
        for b in (6.0, 8.0):
            t = TorusParam.from_tau(1j * b)
            x = np.linspace(-0.45, 0.45, 41)
            for y in (b / 8.0, b / 4.0):
                z = x + 1j * y
                assert np.max(np.abs(wp(z, t) - np.array([wp_trig(v) for v in z]))) < 1e-5

    def test_large_b_series_bounded(self):
        # at tau = 40i the lattice corrections are below double precision, so
        # wp is its trig limit; q^k underflows and cos(2 pi k z) overflows
        # there unless each product is formed as one exponential
        t = TorusParam.from_tau(40j)
        z = np.array([0.3, 0.1 + 0.3j, 0.37 - 2.0j, 0.25 + 19.8j, 0.5 - 20.0j])
        trig = math.pi**2 / np.sin(math.pi * z) ** 2 - math.pi**2 / 3.0
        trig_prime = -2.0 * math.pi**3 * np.cos(math.pi * z) / np.sin(math.pi * z) ** 3
        assert np.max(np.abs(wp(z, t) - trig) / np.abs(trig)) < 1e-14
        assert np.max(np.abs(wp_prime(z, t) - trig_prime)) < 1e-13
        inv = invariants(t)
        assert abs(inv.e2 + math.pi**2 / 3.0) < 1e-14
        assert abs(inv.e3 + math.pi**2 / 3.0) < 1e-14

    def test_trig_limit_shifted_half_periods(self):
        # wp(z + w_k/2) -> -pi^2/3 for k = 2, 3 uniformly on fixed compact
        # strips; the deviation is ~4 pi^2 exp(-2 pi d) with d the distance
        # of the shifted line to the nearest pole row, so the 1e-5 level
        # needs d >= 2.4 (satisfied at b = 8 with Im z in [0.5, 1.5])
        b = 8.0
        t = TorusParam.from_tau(1j * b)
        x = np.linspace(-0.45, 0.45, 41)
        for shift in (t.tau / 2.0, (1 + t.tau) / 2.0):
            for y in (0.5, 1.0, 1.5):
                z = x + 1j * y + shift
                assert np.max(np.abs(wp(z, t) + math.pi**2 / 3.0)) < 1e-5


class TestOracle:
    @pytest.mark.parametrize("tau", [0.8j, 1j, 2j])
    def test_lattice_sum_agreement(self, tau):
        t = TorusParam.from_tau(tau)
        z = sample_strip(tau, 50)
        vals = wp(z, t)
        oracle = np.array([wp_lattice_sum(complex(v), tau) for v in z])
        assert np.max(np.abs(vals - oracle)) < 1e-8

    @pytest.mark.parametrize("tau", [0.6j, 1j, 1.7j, 5j, 0.3 + 1j])
    def test_half_period_values_match_theta_nulls(self, tau):
        # the e_k are the Heun blocks' only transcendental input
        inv = invariants(TorusParam.from_tau(tau))
        got = np.array([inv.e1, inv.e2, inv.e3])
        oracle = np.array(e_theta_nulls(tau))
        assert np.max(np.abs(got - oracle)) <= 1e-15 * np.max(np.abs(oracle))


class TestErrors:
    def test_pole_guard(self):
        t = TorusParam.from_tau(1j)
        with pytest.raises(PoleProximity):
            wp(1e-9, t)
        with pytest.raises(PoleProximity):
            wp(1.0 + 1j + 1e-9, t)

    def test_series_divergence(self):
        with pytest.raises(SeriesDivergence):
            TorusParam.from_tau(-0.5j)
        with pytest.raises(SeriesDivergence):
            TorusParam.from_tau(1.0 + 0j)

    def test_invariants_json_dump(self):
        d = invariants(TorusParam.from_tau(1j)).to_json_dict()
        assert set(d) == {"g2", "g3", "e", "eta1"}
        assert len(d["e"]) == 3
        assert abs(d["eta1"][0] - math.pi / 2.0) < 1e-10

    def test_truncation_bound_documented(self):
        # |nome|^(2*series_terms) below 1e-14 across the supported range
        for b in (0.3, 0.5, 1.0, 8.0):
            t = TorusParam.from_tau(1j * b)
            assert abs(t.nome) ** (2 * t.series_terms) < 1e-14
