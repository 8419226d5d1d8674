"""Monodromy transport, discriminant properties, and eigenvalue search."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hillband import floquet
from hillband.errors import (
    HillbandError,
    NotAnEigenvalue,
    ResolutionError,
    StepLimitExceeded,
    TransportOverflow,
)
from hillband.floquet import (
    IntegratorSettings,
    discriminant,
    discriminant_batch,
    discriminant_derivative,
    monodromy,
    multiplicity_estimate,
    periodic_eigenvalues_on_interval,
)
from hillband.elliptic import invariants
from hillband.potential import MultiplicityVector, PotentialSpec, evaluate_potential

from oracles import delta_constant, monodromy_scipy


def mv(*ns):
    return MultiplicityVector(*ns)


@pytest.fixture(scope="module")
def const_spec():
    return PotentialSpec.constant_potential(0.0)


class TestConstantOracle:
    def test_trace_closed_form_point(self, const_spec):
        m = monodromy(const_spec, 1.0)
        assert abs(m.trace - 2.0 * math.cosh(1.0)) < 1e-10
        assert abs(m.det - 1.0) < 1e-9

    def test_grid_against_closed_form(self, const_spec):
        e_grid = np.linspace(-50.0, 40.0, 91)
        delta = discriminant_batch(const_spec, e_grid)
        assert np.max(np.abs(delta - delta_constant(0.0, e_grid))) < 1e-9

    def test_nonzero_constant(self):
        spec = PotentialSpec.constant_potential(3.0 + 1.5j)
        e_val = -7.0 + 2.0j
        expected = complex(delta_constant(3.0 + 1.5j, np.array([e_val]))[0])
        assert abs(discriminant(spec, e_val) - expected) < 1e-10


class TestMonodromy:
    def test_det_is_one_complex_energy(self, spec_2210):
        m = monodromy(spec_2210, 1.0 + 2.0j)
        assert abs(m.det - 1.0) < 1e-9

    def test_z0_independence_lame(self):
        a = PotentialSpec.elliptic(mv(1, 0, 0, 0), 1j, z0=0.25j)
        b = PotentialSpec.elliptic(mv(1, 0, 0, 0), 1j, z0=1j / 3.0)
        assert abs(monodromy(a, 2.0).trace - monodromy(b, 2.0).trace) < 1e-8

    @pytest.mark.parametrize("tup,tau,e_val", [
        ((2, 2, 1, 0), 1j, -3.0 + 1.0j),
        ((1, 1, 1, 1), 0.8j, 5.0),
        ((2, 1, 0, 0), 1.5j, -20.0),
    ])
    def test_z0_independence_random(self, tup, tau, e_val):
        a = PotentialSpec.elliptic(mv(*tup), tau, z0=tau / 4.0)
        b = PotentialSpec.elliptic(mv(*tup), tau, z0=tau / 3.0)
        ta = monodromy(a, e_val).trace
        tb = monodromy(b, e_val).trace
        assert abs(ta - tb) < 1e-8 * max(1.0, abs(ta))

    def test_scipy_oracle_agreement(self, spec_2210):
        for e_val in (1.0 + 2.0j, -30.0):
            mine = discriminant(spec_2210, e_val)
            ref = monodromy_scipy(spec_2210, e_val)
            assert abs(mine - ref) < 1e-8 * max(1.0, abs(ref))

    def test_conjugation_symmetry(self, spec_2210):
        for e_val in (1.0 + 2.0j, -5.0 + 0.7j):
            a = discriminant(spec_2210, e_val)
            b = discriminant(spec_2210, e_val.conjugate())
            assert abs(b - a.conjugate()) < 1e-8 * max(1.0, abs(a))

    def test_reality_on_real_axis(self, spec_2210):
        delta = discriminant_batch(spec_2210, np.array([-30.0, -5.0, 3.0]))
        assert np.max(np.abs(delta.imag)) < 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 1e-14}, {"rel_tol": math.inf}, {"rel_tol": math.nan},
        {"abs_tol": -1.0}, {"abs_tol": 0.0}, {"abs_tol": math.inf},
        {"abs_tol": math.nan}, {"max_steps": math.nan}, {"max_steps": math.inf},
        {"max_steps": 2500.0}, {"max_steps": True}, {"max_steps": 999},
    ])
    def test_bad_tolerance_rejected(self, kwargs):
        # abs_tol = -1 and rel_tol = inf used to return a wrong Delta, NaN a
        # misleading step size underflow; max_steps = nan switched the step
        # limit off
        with pytest.raises(ValueError):
            IntegratorSettings(**kwargs)

    def test_step_limit(self, const_spec):
        settings = IntegratorSettings(max_steps=1000)
        with pytest.raises(StepLimitExceeded):
            discriminant(const_spec, -1e8, settings)


class TestLinePotential:
    """The transport reads q from the closed-form modes of the sampling line."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ns=st.tuples(*[st.integers(0, 3)] * 4).filter(lambda t: max(t) >= 1),
           b=st.floats(0.3, 3.0), re_z0=st.floats(0.0, 1.0),
           im_frac=st.floats(0.05, 0.45))
    def test_stage_potential_matches_wp(self, monkeypatch, ns, b, re_z0, im_frac):
        # every stage potential of an adaptive transport against the nome
        # series of evaluate_potential, which the transport no longer calls
        spec = PotentialSpec.elliptic(mv(*ns), 1j * b, complex(re_z0, im_frac * b))
        seen = []
        rk_step = floquet._rk_step

        def recording(qs, x, h, *rest):
            seen.append((x + floquet._C * h, qs))
            return rk_step(qs, x, h, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(floquet, "_rk_step", recording)
            discriminant(spec, 1.0, IntegratorSettings(rel_tol=1e-6))
        x = np.concatenate([xs for xs, _ in seen])
        got = np.concatenate([qs for _, qs in seen])
        want = evaluate_potential(spec, spec.z0 + x)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_trig_line_below_axis(self):
        # the trig-limit potential is even, so below the real axis its modes
        # are those of q(-z0 - x) reversed; Delta does not depend on the line
        above = PotentialSpec.trig_limit(mv(1, 1, 0, 0), z0=0.25j)
        below = PotentialSpec.trig_limit(mv(1, 1, 0, 0), z0=0.3 - 0.25j)
        for e_val in (3.0, -20.0 + 1.0j):
            ref = monodromy_scipy(above, e_val)
            assert abs(discriminant(below, e_val) - ref) < 1e-8 * max(1.0, abs(ref))
            assert abs(discriminant(above, e_val) - ref) < 1e-8 * max(1.0, abs(ref))

    def test_near_pole_line_doubles_modes(self, lame_spec):
        # z0 = 0.3 + 0.002i passes 0.002 from the pole at 0: the modes decay
        # like exp(-2 pi k 0.002), so the cutoff must double several times
        near = PotentialSpec.elliptic(mv(1, 0, 0, 0), 1j, z0=0.3 + 0.002j)
        ik, _ = floquet._line_potential(near)
        assert ik.size > 8 * (2 * floquet._mode_cutoff(near, 0) + 1)
        # Delta does not depend on z0; this close to a pole the adaptive
        # transport carries ~5e-7 of noise at the default tolerance
        for e_val in (3.0, -5.0):
            assert abs(discriminant(near, e_val) - discriminant(lame_spec, e_val)) < 1e-6

    def test_mode_ceiling_raises(self, monkeypatch):
        near = PotentialSpec.elliptic(mv(1, 0, 0, 0), 1j, z0=0.3 + 0.002j)
        monkeypatch.setattr(floquet, "_MAX_LINE_MODES", 256)
        with pytest.raises(ResolutionError):
            discriminant(near, 3.0)

    def test_non_finite_modes_raise_at_once(self, lame_spec, monkeypatch):
        calls = []

        def broken(spec, k_cut):
            calls.append(k_cut)
            return np.full(2 * k_cut + 1, np.nan, dtype=complex)

        monkeypatch.setattr(floquet, "_line_modes", broken)
        with pytest.raises(TransportOverflow):
            discriminant(lame_spec, 3.0)
        assert len(calls) == 1


class TestDerivative:
    def test_against_finite_difference(self, spec_2210):
        e_val = 1.0
        dd = discriminant_derivative(spec_2210, e_val)
        h = 1e-5
        fd = (discriminant(spec_2210, e_val + h)
              - discriminant(spec_2210, e_val - h)) / (2.0 * h)
        assert abs(dd - fd) < 1e-6 * abs(fd)

    def test_constant_double_point(self, const_spec):
        # E = C - pi^2 is the antiperiodic double point of 2cos sqrt(C - E)
        assert abs(discriminant_derivative(const_spec, -math.pi**2)) < 1e-9

    def test_lame_simple_edge_nonzero(self, lame_spec):
        e1 = invariants(lame_spec.torus).e1.real
        assert abs(discriminant_derivative(lame_spec, e1)) > 1e-4


class TestMultiplicity:
    def test_lame_simple_edge(self, lame_spec):
        e1 = invariants(lame_spec.torus).e1.real
        assert multiplicity_estimate(lame_spec, e1) == 1

    def test_constant_double_point(self, const_spec):
        assert multiplicity_estimate(const_spec, -math.pi**2) == 2

    def test_interior_band_point_rejected(self, lame_spec):
        with pytest.raises(NotAnEigenvalue):
            multiplicity_estimate(lame_spec, 3.0)


class TestEigenvalueSearch:
    def test_constant_potential(self, const_spec):
        hits = periodic_eigenvalues_on_interval(const_spec, -12.0, 1.0)
        assert [h.parity for h in hits] == [-2, 2]
        assert abs(hits[0].E + math.pi**2) < 1e-8
        assert abs(hits[1].E) < 1e-8
        assert hits[0].order_d == 2
        assert hits[1].order_d == 1

    def test_lame_band_edges(self, lame_spec):
        e1 = invariants(lame_spec.torus).e1.real
        hits = periodic_eigenvalues_on_interval(lame_spec, -8.0, 8.0)
        got = [(round(h.E, 4), h.parity) for h in hits]
        assert got == [(-round(e1, 4), -2), (0.0, -2), (round(e1, 4), 2)]
        assert all(h.order_d == 1 for h in hits)

    def test_stability_under_halved_tolerance(self, const_spec):
        settings = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)
        a = periodic_eigenvalues_on_interval(const_spec, -12.0, 1.0, settings)
        b = periodic_eigenvalues_on_interval(const_spec, -12.0, 1.0,
                                             settings.halved())
        for ha, hb in zip(a, b):
            assert abs(ha.E - hb.E) <= 10 * settings.rel_tol * (1.0 + abs(ha.E)) + 1e-9

    def test_constant_closed_form_completeness(self, const_spec):
        # q = 0: Delta(E) = 2 cos sqrt(-E) meets +-2 exactly at E = -(pi j)^2,
        # with parity (-1)^j 2; every such point but E = 0 is a double root
        hits = periodic_eigenvalues_on_interval(const_spec, -200.0, 1.0)
        js = range(4, -1, -1)
        assert len(hits) == len(js)
        for hit, j in zip(hits, js):
            exact = -(math.pi * j) ** 2
            assert abs(hit.E - exact) <= 1e-9 * (1.0 + abs(exact))
            assert hit.parity == (-1) ** j * 2
            assert hit.order_d == (1 if j == 0 else 2)

    def test_lame_against_independent_integrator(self, lame_spec):
        e1 = invariants(lame_spec.torus).e1.real
        hits = periodic_eigenvalues_on_interval(lame_spec, -60.0, e1)
        for hit in hits:
            assert abs(monodromy_scipy(lame_spec, hit.E) - hit.parity) <= 1e-6
        # brute-force count on a dense grid (reaching just past the crossing
        # at e1): crossings are sign changes of Delta -+ 2, tangential hits
        # are local extrema of +-Delta touching +-2
        grid = np.linspace(-60.0, e1 + 0.05, 6001)
        delta = discriminant_batch(lame_spec, grid).real
        for parity in (2, -2):
            f = delta - parity
            crossings = int(np.sum(f[:-1] * f[1:] < 0.0))
            g = np.sign(parity) * delta
            touches = int(np.sum((g[1:-1] >= g[:-2]) & (g[1:-1] >= g[2:])
                                 & (np.abs(f[1:-1]) <= 1e-2)))
            mine = [h for h in hits if h.parity == parity]
            assert sum(h.order_d == 1 for h in mine) == crossings
            assert sum(h.order_d == 2 for h in mine) == touches
            assert len(mine) == crossings + touches
        assert len(hits) == 4

    def test_unconverged_truncation_raises(self, spec_2210, monkeypatch):
        # a cutoff far below the potential's mode decay: K = 2 and 4 disagree
        monkeypatch.setattr(floquet, "_mode_cutoff", lambda spec, g: 1)
        with pytest.raises(HillbandError):
            periodic_eigenvalues_on_interval(spec_2210, -5.0, 5.0)
