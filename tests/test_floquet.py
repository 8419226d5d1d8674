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
    TolFailure,
    TransportOverflow,
)
from hillband.floquet import (
    IntegratorSettings,
    discriminant,
    discriminant_batch,
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

    # the engine samples tau/4 + [0, 1] whatever z0 is; scipy integrates
    # the caller's line z0 + [0, 1], kept 0.15 Im tau from the pole rows
    # (nearer, the oracle itself is ~1e-9 off)
    def test_z0_independence_lame(self):
        for z0 in (0.25j, 0.3 + 1j / 3.0, 0.7 + 0.18j):
            spec = PotentialSpec.elliptic(mv(1, 0, 0, 0), 1j, z0=z0)
            ref = monodromy_scipy(spec, 2.0)
            assert abs(discriminant(spec, 2.0) - ref) < 1e-8 * max(1.0, abs(ref))

    @pytest.mark.parametrize("tup,tau,e_val", [
        ((2, 2, 1, 0), 1j, -3.0 + 1.0j),
        ((1, 1, 1, 1), 0.8j, 5.0),
        ((2, 1, 0, 0), 1.5j, -20.0),
    ])
    def test_z0_independence_random(self, tup, tau, e_val):
        for z0 in (tau / 3.0, 0.4 + 0.2 * tau):
            spec = PotentialSpec.elliptic(mv(*tup), tau, z0=z0)
            ref = monodromy_scipy(spec, e_val)
            assert abs(discriminant(spec, e_val) - ref) < 1e-8 * max(1.0, abs(ref))

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
        {"rel_tol": -1.0}, {"rel_tol": 0.0}, {"rel_tol": -math.inf},
        {"rel_tol": math.nextafter(1e-13, 0.0)}, {"rel_tol": 5e-324},
        {"rel_tol": -1e-12}, {"rel_tol": -0.0}, {"rel_tol": 1e-100},
        {"rel_tol": -1e300},
    ])
    def test_bad_tolerance_rejected(self, kwargs):
        # rel_tol = inf used to return a wrong Delta, NaN a misleading step
        # size underflow; a negative one would flip the error test, and one
        # below 1e-13 cannot be met in doubles
        with pytest.raises(ValueError):
            IntegratorSettings(**kwargs)

    def test_step_limit(self, const_spec, monkeypatch):
        monkeypatch.setattr(floquet, "_MAX_STEPS", 1000)
        with pytest.raises(StepLimitExceeded):
            discriminant(const_spec, -1e8)


class TestTableau:
    """The dense Fehlberg 7(8) tableau.  A mistyped entry lowers the order of
    the pair, and the adaptive controller can still pass the Delta-vs-scipy
    checks at 1e-8 by taking more steps; these checks do not adapt."""

    def test_rows_sum_to_nodes(self):
        assert np.abs(floquet._A.sum(axis=1) - floquet._C).max() <= 1e-14

    def test_weights_integrate_degree_seven(self):
        b, c = floquet._B_ERR[0], floquet._C
        for k in range(8):
            assert abs(b @ c**k - 1.0 / (k + 1)) <= 1e-14

    def test_error_row_sums_to_zero(self):
        assert abs(floquet._B_ERR[1].sum()) <= 1e-14

    def test_constant_potential_step(self):
        # y'' = w y with w = E - q: from the identity every step of a window
        # is the exact propagator (cosh, sinh of sqrt(w) h), for windows of
        # either step size; a lone step from another state is that
        # propagator times the state
        q = 1.5 + 0.5j
        E = np.array([-100.0, -3.0 + 2.0j, 0.5, 40.0 - 10.0j])
        r = np.sqrt(E - q)
        for h, x in ((0.01, np.array([0.3, 0.31, 0.32])), (0.004, np.array([0.7, 0.704]))):
            ch, sh = np.cosh(r * h), np.sinh(r * h)
            want = np.array([ch, r * sh, sh / r, ch])
            got, _ = floquet._step_maps(np.array([q]), x, h, E, floquet._EYE[:, None, None])
            assert got.shape == (4, x.size, E.size)
            assert np.all(np.abs(got - want[:, None])
                          <= 1e-13 * np.maximum(1.0, np.abs(want[:, None])))
        rng = np.random.default_rng(5)
        state = rng.normal(size=(4, 1, E.size)) + 1j * rng.normal(size=(4, 1, E.size))
        got, _ = floquet._step_maps(np.array([q]), x[:1], h, E, state)
        expect = _blocks(want[:, None]) @ _blocks(state)
        assert np.abs(_blocks(got) - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("tau,windows,maps", [(1j, 2, 49), (0.3 + 1j, 4, 98)])
    def test_step_count(self, monkeypatch, tau, windows, maps):
        # windows and step maps on Lame for three points: one half period
        # over E u conj(E) on the PT-symmetric line at tau = i; the line's
        # and the reflected line's half periods at tau = 0.3 + i.  A change
        # to the step, its controller or the window width that costs steps
        # shows here, and so does a reflected transport that runs a full period
        calls = []
        step_maps = floquet._step_maps

        def counting(q_hat, x, *rest):
            calls.append(x.size)
            return step_maps(q_hat, x, *rest)

        monkeypatch.setattr(floquet, "_step_maps", counting)
        spec = PotentialSpec.elliptic(mv(1, 0, 0, 0), tau)
        discriminant_batch(spec, np.array([-5.0, 2.0, 30.0]))
        assert len(calls) == windows
        assert abs(sum(calls) - maps) <= 0.02 * maps


def _blocks(y):
    """States in row form (c, c', s, s') as 2 x 2 matrices
    Phi = [[c, s], [c', s']] over the trailing axes."""
    return np.moveaxis(np.array([[y[0], y[2]], [y[1], y[3]]]), (0, 1), (-2, -1))


class TestWindows:
    """The transport advances a small batch in windows of step maps from the
    identity, multiplied in a tree, and a large batch in lone steps from the
    running state."""

    def test_tree_product_is_the_ordered_product(self, spec_2210):
        q_hat = floquet._line_potential(spec_2210)
        E = np.array([-30.0, 3.0 + 1.0j, 25.0])
        maps, _ = floquet._step_maps(q_hat, 0.1 + 0.02 * np.arange(7), 0.02, E,
                                     floquet._EYE[:, None, None])
        want = _blocks(maps[:, 0])
        for j in range(1, 7):
            want = _blocks(maps[:, j]) @ want
        got = _blocks(floquet._tree_product(maps))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_window_and_lone_steps_agree(self, spec_2210):
        # each point alone takes windows (W = 128); inside 300 points W = 1
        E = np.array([-30.0, -5.0, 3.0, 17.5, 40.0])
        crowd = np.concatenate([E, np.linspace(-60.0, 120.0, 295)])
        big = discriminant_batch(spec_2210, crowd)
        for k, e_val in enumerate(E):
            d = discriminant(spec_2210, e_val)
            assert abs(d - big[k]) <= 1e-10 * max(1.0, abs(d))


class TestLinePotential:
    """The transport reads q from the closed-form modes of the sampling line."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ns=st.tuples(*[st.integers(0, 3)] * 4).filter(lambda t: max(t) >= 1),
           b=st.floats(0.3, 3.0), re_z0=st.floats(0.0, 1.0),
           im_frac=st.floats(0.05, 0.45))
    def test_stage_potential_matches_wp(self, monkeypatch, ns, b, re_z0, im_frac):
        # every potential value a transport reads (the stage potentials of
        # _step_maps, and the two symmetry centres) against the nome series
        # of evaluate_potential, which the transport does not call, on the
        # sampling line tau/4 + x whatever z0 the spec carries
        spec = PotentialSpec.elliptic(mv(*ns), 1j * b, complex(re_z0, im_frac * b))
        seen = []
        line_q = floquet._line_q

        def recording(q_hat, x):
            q = line_q(q_hat, x)
            seen.append((x.ravel(), q.ravel()))
            return q

        with monkeypatch.context() as patch:
            patch.setattr(floquet, "_line_q", recording)
            discriminant(spec, 1.0, IntegratorSettings(rel_tol=1e-6))
        x = np.concatenate([xs for xs, _ in seen])
        got = np.concatenate([qs for _, qs in seen])
        want = evaluate_potential(spec, spec.torus.tau / 4.0 + x)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_trig_line_below_axis(self):
        # a base point below the real axis names the same operator; both
        # specs are sampled on tau/4 + [0, 1], and Delta matches scipy's
        # transport of the line above the axis
        above = PotentialSpec.trig_limit(mv(1, 1, 0, 0), z0=0.25j)
        below = PotentialSpec.trig_limit(mv(1, 1, 0, 0), z0=0.3 - 0.25j)
        for e_val in (3.0, -20.0 + 1.0j):
            ref = monodromy_scipy(above, e_val)
            assert abs(discriminant(below, e_val) - ref) < 1e-8 * max(1.0, abs(ref))
            assert abs(discriminant(above, e_val) - ref) < 1e-8 * max(1.0, abs(ref))

    def test_near_pole_z0_keeps_the_default_line(self, lame_spec):
        # z0 = 0.3 + 0.002i passes 0.002 from the pole at 0, but the
        # engines sample tau/4 + [0, 1]: the default line's modes and Delta
        near = PotentialSpec.elliptic(mv(1, 0, 0, 0), 1j, z0=0.3 + 0.002j)
        q_hat = floquet._line_potential(near)
        q_ref = floquet._line_potential(lame_spec)
        assert q_hat.size == q_ref.size == 2 * floquet._mode_cutoff(lame_spec, 0) + 1
        assert np.array_equal(q_hat, q_ref)
        for e_val in (3.0, -5.0):
            assert discriminant(near, e_val) == discriminant(lame_spec, e_val)

    def test_near_pole_line_doubles_modes(self):
        # at Im tau = 0.1 the line sits 0.025 from both pole rows: the modes
        # decay like exp(-2 pi k 0.025), so the cutoff must double
        spec = PotentialSpec.elliptic(mv(1, 0, 0, 0), 0.1j)
        q_hat = floquet._line_potential(spec)
        assert q_hat.size == 2 * (2 * floquet._mode_cutoff(spec, 0)) + 1

    def test_near_pole_windows_stay_small(self, monkeypatch):
        # 881 modes at Im tau = 0.1: a window of one point takes fewer
        # steps than _WINDOW, so its stage potentials (a row of z^k per
        # node) are no larger than a lone step's at the mode ceiling
        spec = PotentialSpec.elliptic(mv(1, 0, 0, 0), 0.1j)
        sizes = []
        step_maps = floquet._step_maps

        def recording(q_hat, x, *rest):
            sizes.append(x.size * q_hat.size)
            return step_maps(q_hat, x, *rest)

        monkeypatch.setattr(floquet, "_step_maps", recording)
        discriminant(spec, 3.0)
        assert floquet._MAX_LINE_MODES < max(sizes) <= 2 * floquet._MAX_LINE_MODES

    def test_mode_ceiling_raises(self, monkeypatch):
        spec = PotentialSpec.elliptic(mv(1, 0, 0, 0), 0.05j)
        monkeypatch.setattr(floquet, "_MAX_LINE_MODES", 256)
        with pytest.raises(ResolutionError, match="Im tau = 0.05"):
            discriminant(spec, 3.0)

    def test_non_finite_modes_raise_at_once(self, lame_spec, monkeypatch):
        calls = []

        def broken(spec, k_cut):
            calls.append(k_cut)
            return np.full(2 * k_cut + 1, np.nan, dtype=complex)

        monkeypatch.setattr(floquet, "_line_modes", broken)
        with pytest.raises(TransportOverflow):
            discriminant(lame_spec, 3.0)
        assert len(calls) == 1


def _mirror(spec):
    """The conjugate potential's spec: conj q(z0 + x; tau) = q(conj z0 + x; -conj tau),
    so Delta(conj E) on it is conj Delta(E) on spec."""
    z0 = spec.z0.conjugate()
    if spec.mode == "constant":
        return PotentialSpec.constant_potential(spec.constant.conjugate(), z0)
    return PotentialSpec.elliptic(spec.n, -spec.torus.tau.conjugate(), z0)


def _check_half_period_invariants(spec, e_val):
    """Delta against scipy's full-period DOP853 run on the spec's line
    z0 + [0, 1], det M = 1 and conjugation symmetry, at 1e-9 relative."""
    delta = discriminant(spec, e_val)
    ref = monodromy_scipy(spec, e_val)
    assert abs(delta - ref) <= 1e-9 * max(1.0, abs(ref))
    m = monodromy(spec, e_val)
    size = max(1.0, abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22))
    assert abs(m.det - 1.0) <= 1e-9 * size**2
    mirrored = discriminant(_mirror(spec), e_val.conjugate())
    assert abs(mirrored - delta.conjugate()) <= 1e-9 * max(1.0, abs(delta))


def _complex_hill_clusters(spec, K, lo, hi):
    """_hill_clusters on the complex Toeplitz matrix of the line's modes,
    their rounding-level imaginary parts kept."""
    q = floquet._line_modes(spec, 2 * K).astype(complex)
    k = np.arange(-K, K + 1)
    tol = floquet._CLUSTER_TOL
    clusters = []
    for mu, parity in ((0.0, 2), (math.pi, -2)):
        ev = np.linalg.eigvals(q[2 * K + k[:, None] - k[None, :]]
                               - np.diag((2.0 * math.pi * k + mu) ** 2))
        real = np.sort(ev.real[(np.abs(ev.imag) <= tol * (1.0 + np.abs(ev.real)))
                               & (ev.real >= lo) & (ev.real <= hi)])
        breaks = np.nonzero(np.diff(real) > tol * (1.0 + np.abs(real[1:])))[0]
        clusters += [(part.mean(), parity, part.size)
                     for part in np.split(real, breaks + 1) if part.size]
    return sorted(clusters)


class TestHalfPeriod:
    """Delta from the half periods about a symmetry centre of the line:
    one transport over E u conj(E) on a PT-symmetric line, the reflected
    line's own transport otherwise (tau off the imaginary axis, a complex
    constant)."""

    # the line keeps 0.15 Im tau from the poles, and Im tau >= 0.8: the
    # scipy oracle integrates the caller's line, and nearer a pole it
    # carries more noise than the check allows; at Im tau = 0.5 the
    # entries of M reach 1e6 where Delta = 2, so any transport's Delta
    # carries ~1e-13 |M| (1e-7 there)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ns=st.tuples(*[st.integers(0, 3)] * 4).filter(lambda t: max(t) >= 1),
           tau_re=st.sampled_from([0.0, 0.3]), b=st.floats(0.8, 3.0),
           re_z0=st.floats(0.0, 1.0), im_frac=st.floats(0.15, 0.35),
           re_e=st.floats(-40.0, 30.0), im_e=st.sampled_from([0.0, 3.0, -2.5]))
    def test_elliptic_invariants(self, ns, tau_re, b, re_z0, im_frac, re_e, im_e):
        spec = PotentialSpec.elliptic(mv(*ns), complex(tau_re, b),
                                      complex(re_z0, im_frac * b))
        _check_half_period_invariants(spec, complex(re_e, im_e))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(re_z0=st.floats(-1.0, 1.0), re_e=st.floats(-40.0, 30.0),
           im_e=st.sampled_from([0.0, 3.0, -2.5]))
    def test_complex_constant_invariants(self, re_z0, re_e, im_e):
        spec = PotentialSpec.constant_potential(3.0 + 1.5j, complex(re_z0, 0.0))
        _check_half_period_invariants(spec, complex(re_e, im_e))

    def test_pt_symmetry_read_from_spec(self):
        assert floquet._pt_symmetric(PotentialSpec.elliptic(mv(2, 1, 0, 0), 1.3j, 0.4 + 0.2j))
        assert floquet._pt_symmetric(PotentialSpec.trig_limit(mv(1, 1, 0, 0), z0=0.3 - 0.25j))
        assert floquet._pt_symmetric(PotentialSpec.constant_potential(2.0))
        assert not floquet._pt_symmetric(PotentialSpec.elliptic(mv(1, 0, 0, 0), 0.3 + 1j))
        assert not floquet._pt_symmetric(PotentialSpec.constant_potential(3.0 + 1.5j))

    @pytest.mark.parametrize("tup,tau,z0", [
        ((2, 2, 1, 0), 1j, None), ((3, 2, 1, 1), 1j, 0.37 + 0.3j)])
    def test_real_hill_matrix_keeps_clusters(self, tup, tau, z0):
        spec = PotentialSpec.elliptic(mv(*tup), tau, z0)
        K = floquet._mode_cutoff(spec, 0) + 8
        real = floquet._hill_clusters(spec, K, -300.0, 800.0)
        reference = _complex_hill_clusters(spec, K, -300.0, 800.0)
        assert len(real) >= 6 and len(real) == len(reference)
        for (c, parity, size), (c0, parity0, size0) in zip(real, reference):
            assert (parity, size) == (parity0, size0)
            assert abs(c - c0) <= floquet._CLUSTER_TOL * (1.0 + abs(c0))


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
        settings = IntegratorSettings(rel_tol=1e-10)
        a = periodic_eigenvalues_on_interval(const_spec, -12.0, 1.0, settings)
        b = periodic_eigenvalues_on_interval(const_spec, -12.0, 1.0,
                                             IntegratorSettings(rel_tol=5e-11))
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

    @pytest.mark.parametrize("shift", [-1e-12, 1e-12])
    def test_endpoint_hit_survives_candidate_rounding(self, lame_spec, monkeypatch,
                                                      shift):
        # the band edge e1 solves Delta = 2 on the end of [-60, e1]; Hill's
        # candidate for it moves by ~1e-12 with the BLAS thread count, and
        # the hit must not come and go with it
        e1 = invariants(lame_spec.torus).e1.real
        original = floquet._hill_clusters

        def rounded(*args):
            return [(c + shift, parity, size) for c, parity, size in original(*args)]

        monkeypatch.setattr(floquet, "_hill_clusters", rounded)
        hits = periodic_eigenvalues_on_interval(lame_spec, -60.0, e1)
        assert len(hits) == 4 and abs(hits[-1].E - e1) <= 1e-9

    def test_unconverged_truncation_raises(self, spec_2210, monkeypatch):
        # a cutoff far below the potential's mode decay: K = 2 and 4 disagree
        monkeypatch.setattr(floquet, "_mode_cutoff", lambda spec, g: 1)
        with pytest.raises(HillbandError):
            periodic_eigenvalues_on_interval(spec_2210, -5.0, 5.0)


class TestCertificate:
    """Delta certifies Hill's cluster centres where they are: one plain call,
    no search on Delta."""

    def test_one_delta_call(self, lame_spec, monkeypatch):
        calls = []
        original = floquet.discriminant_batch

        def counting(*args, **kwargs):
            calls.append(np.size(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(floquet, "discriminant_batch", counting)
        e1 = invariants(lame_spec.torus).e1.real
        hits = periodic_eigenvalues_on_interval(lame_spec, -60.0, e1)
        assert len(hits) == 4 and len(calls) == 1

    @pytest.mark.parametrize("size,shift,kind", [(1, 1e-6, "crossing"),
                                                 (2, 0.05, "double")])
    def test_moved_hit_raises(self, const_spec, monkeypatch, size, shift, kind):
        # q = 0 on [-12, 1]: the double at -pi^2 and the crossing at 0.  A
        # crossing moved 4 h keeps the sign of Delta - 2 across E -+ h; the
        # double moved 0.05 leaves |Delta + 2| at 6e-5
        original = floquet._hill_clusters

        def moved(*args):
            return [(c + shift if n == size else c, parity, n)
                    for c, parity, n in original(*args)]

        monkeypatch.setattr(floquet, "_hill_clusters", moved)
        with pytest.raises(TolFailure, match=kind):
            periodic_eigenvalues_on_interval(const_spec, -12.0, 1.0)
