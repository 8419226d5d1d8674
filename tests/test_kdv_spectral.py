"""Spectral polynomial construction, roots, duality, and discriminants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillband import kdv_spectral, spectrum
from hillband.elliptic import invariants, wp
from hillband.errors import (
    NotNormalized,
    RankDeficiency,
    ResolutionError,
    UnsupportedMultiplicity,
)
from hillband.floquet import DEFAULT_SETTINGS, discriminant_batch
from hillband.kdv_spectral import (
    SpectralPolynomial,
    kdv_chain,
    poly_discriminant,
    product_ode_residual,
    product_solution,
    spectral_polynomial,
    spectral_roots,
    trig_spectral_polynomial,
)
from hillband.potential import MultiplicityVector, PotentialSpec, genus, takemura_dual


def mv(*ns):
    return MultiplicityVector(*ns)


def spec_of(tup, tau):
    return PotentialSpec.elliptic(mv(*tup), tau)


X256 = np.arange(256) / 256


def on_points(modes, x=X256):
    """Direct Fourier sum of a centered mode vector c_{-K..K} at the points x."""
    modes = np.asarray(modes).astype(complex)
    k = len(modes) // 2
    return np.exp(2j * np.pi * np.outer(x, np.arange(-k, k + 1))) @ modes


def rel_coeff_diff(a, b):
    return float(np.max(np.abs(a.coefficients - b.coefficients))
                 / np.max(np.abs(b.coefficients)))


class TestChain:
    def test_lame_zero_mode_is_two_eta1(self, lame_spec):
        chain = kdv_chain(lame_spec, 1)
        assert abs(chain.constants[1] - math.pi) < 1e-12
        assert chain.termination_residual < 1e-9

    def test_lame_f1_is_half_q(self, lame_spec):
        # u1 + d1 = f1 = q/2 = -wp pointwise
        chain = kdv_chain(lame_spec, 1)
        f1 = on_points(chain.basis_modes[1]) + chain.constants[1]
        target = -wp(lame_spec.z0 + X256, lame_spec.torus)
        assert np.max(np.abs(f1 - target)) < 1e-9

    def test_termination_residual_2210(self, spec_2210):
        chain = kdv_chain(spec_2210, 3)
        assert chain.termination_residual < 1e-9

    def test_u0_is_one(self, spec_2210):
        chain = kdv_chain(spec_2210, 3)
        assert np.allclose(on_points(chain.basis_modes[0]), 1.0)

    def test_rank_deficiency_on_wrong_genus(self, lame_spec):
        with pytest.raises(RankDeficiency):
            kdv_chain(lame_spec, 2)

    def test_unsupported_multiplicity(self):
        with pytest.raises(UnsupportedMultiplicity):
            kdv_chain(spec_of((9, 0, 0, 0), 1j), 9)

    def test_resolution_error_near_pole(self):
        # at Im tau = 0.05 the sampling line is 0.0125 from both pole rows,
        # too close for the 220-mode window
        spec = PotentialSpec.elliptic(mv(1, 0, 0, 0), 0.05j)
        with pytest.raises(ResolutionError, match="Im tau = 0.05"):
            kdv_chain(spec, 1)


class TestProductSolution:
    def test_lame_closed_form(self, lame_spec):
        chain = kdv_chain(lame_spec, 1)
        e_val = 5.0
        f = on_points(product_solution(chain, e_val))
        target = e_val - wp(lame_spec.z0 + X256, lame_spec.torus)
        assert np.max(np.abs(f - target)) < 1e-9

    def test_ode_residual(self, spec_2210):
        chain = kdv_chain(spec_2210, 3)
        for e_val in (0.7, -12.0 + 3.0j):
            assert product_ode_residual(chain, e_val) < 1e-8

    def test_leading_coefficient_is_one(self, spec_2210):
        # f_0 = 1, so F's E^g coefficient is 1 at every z
        chain = kdv_chain(spec_2210, 3)
        assert np.allclose(on_points(chain.basis_modes[0]), 1.0)
        assert chain.constants[0] == 1.0


class TestSpectralPolynomial:
    def test_lame_cubic(self, lame_spec):
        q = spectral_polynomial(lame_spec)
        inv = invariants(lame_spec.torus)
        expected = np.array([1.0, 0.0, -inv.e1.real**2, 0.0])
        assert q.degree == 3
        assert np.max(np.abs(q.coefficients - expected)) < 1e-6 * inv.e1.real**2
        assert q.z_constancy_diag <= 1e-9

    def test_2210_real_degree7(self, spec_2210):
        q = spectral_polynomial(spec_2210)
        assert q.degree == 7
        assert abs(q.coefficients[0] - 1.0) == 0.0
        scale = np.max(np.abs(q.coefficients))
        assert np.max(np.abs(q.coefficients.imag)) <= 1e-9 * scale

    def test_z_constancy_1111(self):
        q = spectral_polynomial(spec_of((1, 1, 1, 1), 1.5j))
        assert q.z_constancy_diag <= 1e-9

    def test_cutoff_doubling_stability(self, monkeypatch):
        # doubling the mode cutoff moves the truncation; Q must not notice
        specs = [spec_of((2, 2, 1, 0), 1j), spec_of((3, 3, 3, 2), 0.6j)]
        polys = [spectral_polynomial(spec) for spec in specs]
        base = kdv_spectral._mode_cutoff
        monkeypatch.setattr(kdv_spectral, "_mode_cutoff",
                            lambda spec, g: min(2 * base(spec, g), 220))
        for spec, qa in zip(specs, polys):
            assert rel_coeff_diff(qa, spectral_polynomial(spec)) <= 1e-9


class TestRealPath:
    """On a PT-symmetric line the chain and Q run in real extended precision."""

    def test_dtype_follows_the_line(self):
        for tau, dtype in ((1j, np.float128), (1.7j, np.float128),
                           (0.3 + 1j, np.complex256)):
            spec = spec_of((2, 1, 1, 0), tau)
            chain = kdv_chain(spec, genus(spec.n))
            assert {u.dtype for u in chain.basis_modes} == {np.dtype(dtype)}, tau
            assert spectral_polynomial(spec).coefficients_extended.dtype == dtype

    def test_complex_path_gives_the_same_q(self, monkeypatch):
        # measured gap 3.4e-12 at (3,3,2,3), tau = 1.7i, where the node
        # interpolation amplifies extended roundoff; 6.6e-15 or less elsewhere
        cases = [((2, 2, 1, 0), 1j), ((1, 2, 2, 1), 1j), ((3, 3, 2, 3), 1.7j),
                 ((3, 0, 0, 3), 0.6j), ((2, 1, 1, 1), 0.6j), ((3, 2, 1, 1), 1.7j)]
        real = [spectral_polynomial(spec_of(tup, tau)) for tup, tau in cases]
        monkeypatch.setattr(kdv_spectral, "_pt_symmetric", lambda spec: False)
        for (tup, tau), qr in zip(cases, real):
            qc = spectral_polynomial(spec_of(tup, tau))
            assert qc.coefficients_extended.dtype == np.complex256
            assert rel_coeff_diff(qr, qc) <= 3.4e-11, (tup, tau)

    def test_line_modes_are_real_on_pt_lines(self):
        specs = [spec_of(tup, tau) for tup in ((1, 0, 0, 0), (2, 2, 1, 0), (3, 3, 2, 3))
                 for tau in (0.6j, 1j, 1.7j)]
        specs.append(PotentialSpec.trig_limit(mv(2, 1, 0, 0)))
        for spec in specs:
            q = kdv_spectral._line_modes(spec, kdv_spectral._mode_cutoff(spec, 3))
            assert np.max(np.abs(q.imag)) <= 1e-17 * np.max(np.abs(q)), spec.n

    def test_double_cluster_round_trips_through_the_report(self):
        # (2,2,0,0) at tau = 1.7i keeps a real double Delta cannot split
        spec = spec_of((2, 2, 0, 0), 1.7j)
        clusters = spectrum._resolve_ambiguous_pairs(
            spec, spectral_roots(spectral_polynomial(spec)), DEFAULT_SETTINGS)
        report = spectrum.classify_spectrum(spec)
        assert report.roots == tuple(clusters)
        assert any(r.multiplicity == 2 and r.is_real for r in report.roots)
        assert report.root_values.size == 2 * genus(spec.n) + 1
        assert report.to_json_dict()["roots"] == [
            {"re": r.value.real, "im": r.value.imag, "mult": r.multiplicity,
             "real": r.is_real} for r in clusters]


class TestRoots:
    def test_lame_roots(self, lame_spec):
        roots = spectral_roots(spectral_polynomial(lame_spec))
        inv = invariants(lame_spec.torus)
        e1 = inv.e1.real
        expected = [e1, 0.0, -e1]
        assert [r.is_real for r in roots] == [True] * 3
        assert [r.multiplicity for r in roots] == [1] * 3
        for r, want in zip(roots, expected):
            assert abs(r.value.real - want) < 1e-6 * (1.0 + abs(want))

    def test_descending_order(self, spec_2210):
        roots = spectral_roots(spectral_polynomial(spec_2210))
        vals = [r.value.real for r in roots]
        assert vals == sorted(vals, reverse=True)

    def test_complex_pair_for_condition_vector(self, spec_1221):
        roots = spectral_roots(spectral_polynomial(spec_1221))
        scale = 1.0 + max(abs(r.value) for r in roots)
        cplx = [r for r in roots if not r.is_real]
        assert cplx and max(abs(r.value.imag) for r in cplx) > 1e-3 * scale

    def test_complex_pair_persists_in_tau(self):
        # statements (1) <=> (2): a pair at one tau means a pair at every tau
        for b in (0.5, 0.8, 1.0, 1.5, 2.5, 4.0):
            roots = spectral_roots(spectral_polynomial(spec_of((1, 2, 2, 1), 1j * b)))
            scale = 1.0 + max(abs(r.value) for r in roots)
            cplx = [r for r in roots if not r.is_real]
            assert sum(r.multiplicity for r in cplx) >= 2, b
            assert max(abs(r.value.imag) for r in cplx) > 1e-6 * scale

    def test_conjugation_closure(self, spec_1221):
        roots = spectral_roots(spectral_polynomial(spec_1221))
        vals = [r.value for r in roots]
        scale = 1.0 + max(abs(v) for v in vals)
        for v in vals:
            assert min(abs(v.conjugate() - w) for w in vals) < 1e-6 * scale

    def test_distinctness_when_all_real(self):
        # all-real spectra stay real across the tau grid, and distinct
        # whenever the splitting is resolvable: gaps close exponentially
        # (observed down to ~1.3e-6*scale, and below every achievable
        # resolution for (2,2,1,0) at tau = 2i where Delta's near-touch
        # sits 4e-13 under 2), so unresolvable clusters may report
        # multiplicity 2 but never a spurious complex pair
        from hillband.spectrum import classify_spectrum

        for tup in ((2, 2, 1, 0), (3, 0, 0, 0), (2, 1, 1, 1)):
            for tau in (0.5j, 0.7j, 1j, 1.4j, 2j):
                rep = classify_spectrum(spec_of(tup, tau))
                assert all(r.is_real for r in rep.roots), (tup, tau)
                singles = [r.value.real for r in rep.roots if r.multiplicity == 1]
                vals = sorted(singles)
                if len(vals) > 1:
                    assert min(b - a for a, b in zip(vals, vals[1:])) > 0.0


class TestDuality:
    @pytest.mark.parametrize("tau", [1j, 1.3j])
    def test_2111_vs_3000(self, tau):
        qa = spectral_polynomial(spec_of((2, 1, 1, 1), tau))
        qb = spectral_polynomial(spec_of((3, 0, 0, 0), tau))
        assert rel_coeff_diff(qa, qb) <= 1e-8

    def test_2210_vs_3100(self):
        qa = spectral_polynomial(spec_of((2, 2, 1, 0), 1j))
        qb = spectral_polynomial(spec_of((3, 1, 0, 0), 1j))
        assert rel_coeff_diff(qa, qb) <= 1e-8

    def test_small_odd_vectors(self):
        import itertools
        seen = 0
        for tup in itertools.product(range(4), repeat=4):
            n_sum = sum(tup)
            if max(tup) < 1 or tup[0] != max(tup) or n_sum % 2 == 0 or n_sum > 5:
                continue
            n = mv(*tup)
            dual = takemura_dual(n)
            if max(dual.as_tuple()) > 8:
                continue
            qa = spectral_polynomial(PotentialSpec.elliptic(n, 1j))
            qb = spectral_polynomial(PotentialSpec.elliptic(dual, 1j))
            assert rel_coeff_diff(qa, qb) <= 1e-8, (tup, dual.as_tuple())
            seen += 1
        assert seen >= 5


class TestTrigPolynomial:
    def test_lame_form(self):
        c = 2.0 * math.pi**2 / 3.0
        q = trig_spectral_polynomial(mv(1, 0, 0, 0))
        expected = np.poly([c, c - math.pi**2, c - math.pi**2])
        assert np.max(np.abs(q.coefficients - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_2100_form(self):
        c = 8.0 * math.pi**2 / 3.0
        q = trig_spectral_polynomial(mv(2, 1, 0, 0))
        expected = np.poly([c, c - math.pi**2, c - math.pi**2,
                            c - 9 * math.pi**2, c - 9 * math.pi**2])
        assert np.max(np.abs(q.coefficients - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_3000_form(self):
        c = 4.0 * math.pi**2
        roots = [c]
        for j in (1, 2, 3):
            roots += [c - j**2 * math.pi**2] * 2
        q = trig_spectral_polynomial(mv(3, 0, 0, 0))
        expected = np.poly(roots)
        assert np.max(np.abs(q.coefficients - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_requires_n0_ge_n1(self):
        with pytest.raises(NotNormalized):
            trig_spectral_polynomial(mv(1, 2, 0, 0))

    def test_trig_limit_case_a(self):
        qa = spectral_polynomial(spec_of((1, 0, 0, 0), 8j))
        qt = trig_spectral_polynomial(mv(1, 0, 0, 0))
        assert rel_coeff_diff(qa, qt) <= 1e-3

    def test_trig_limit_case_b_dual(self):
        qa = spectral_polynomial(spec_of((2, 2, 1, 0), 8j))
        qt = trig_spectral_polynomial(mv(3, 1, 0, 0))
        assert rel_coeff_diff(qa, qt) <= 1e-3

    def test_trig_limit_case_c_dual(self):
        qa = spectral_polynomial(spec_of((2, 1, 1, 1), 8j))
        qt = trig_spectral_polynomial(mv(3, 0, 0, 0))
        assert rel_coeff_diff(qa, qt) <= 1e-3


class TestModularTransform:
    def test_root_scaling_under_inversion(self):
        # swapping n1 <-> n2 and tau -> -1/tau multiplies the roots by tau^2
        tau = 2j
        ra = spectral_roots(spectral_polynomial(spec_of((2, 2, 1, 0), tau)))
        rb = spectral_roots(spectral_polynomial(spec_of((2, 1, 2, 0), -1.0 / tau)))
        a = sorted((tau**2).real * r.value.real for r in ra)
        b = sorted(r.value.real for r in rb)
        scale = 1.0 + max(abs(v) for v in b)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-6 * scale


class TestDiscriminant:
    def test_lame_cubic_formula(self, lame_spec):
        q = spectral_polynomial(lame_spec)
        inv = invariants(lame_spec.torus)
        expected = 4.0 * inv.e1.real**6  # -4 p^3 with p = -e1^2, q-term 0
        disc = poly_discriminant(q)
        assert abs(disc - expected) < 1e-6 * expected
        assert abs(disc.imag) < 1e-6 * expected

    def test_double_root_vanishes(self):
        poly = SpectralPolynomial(
            coefficients=np.poly([1.0, 1.0, -1.0]).astype(complex),
            z_constancy_diag=0.0, tau=None, n=mv(1, 0, 0, 0))
        assert abs(poly_discriminant(poly)) < 1e-12

    def test_real_for_imaginary_tau(self, spec_2210):
        disc = poly_discriminant(spectral_polynomial(spec_2210))
        assert abs(disc.imag) <= 1e-6 * abs(disc)


def hill_eigenvalues(spec, reach):
    """Every eigenvalue of Hill's truncated H_0 and H_pi (Delta = +2, -2),
    built here from the line's Fourier modes; Q and the blocks play no part."""
    K = 2 * max(kdv_spectral._mode_cutoff(spec, 0), math.ceil(2.0 * math.sqrt(reach) / math.pi))
    q = kdv_spectral._line_modes(spec, 2 * K).real.astype(float)
    k = np.arange(-K, K + 1)
    toeplitz = q[2 * K + k[:, None] - k[None, :]]
    return np.concatenate([np.linalg.eigvals(toeplitz - np.diag((2.0 * math.pi * k + mu) ** 2))
                           for mu in (0.0, math.pi)])


# the C3/C4 classification set: n_k <= 3, normalised n0 = max(n) >= 1
_C3C4_VECTORS = [t for t in itertools.product(range(4), repeat=4)
                 if max(t) >= 1 and t[0] == max(t)]
_EDGE_CASES = [
    ((3, 3, 2, 3), 1.7), ((3, 2, 3, 3), 0.6), ((3, 3, 3, 2), 1.7), ((3, 0, 3, 0), 0.6),
    ((2, 2, 0, 0), 1.7), ((3, 3, 1, 0), 1.7), ((2, 2, 1, 0), 1.0), ((1, 0, 0, 0), 1.0),
    ((2, 0, 0, 0), 1.0), ((3, 2, 2, 2), 0.6), ((3, 1, 1, 0), 1.0), ((1, 2, 2, 1), 1.0),
    ((3, 0, 3, 2), 0.6)]


class TestHeunBlocks:
    """Band edges as eigenvalues of Takemura's invariant-space blocks."""

    @pytest.mark.parametrize("b", [0.6, 1.0, 1.7])
    def test_lame_edges_are_the_half_period_values(self, b):
        spec = spec_of((1, 0, 0, 0), 1j * b)
        inv = invariants(spec.torus)
        blocks = kdv_spectral._heun_blocks(spec)
        assert [blk.size for blk in blocks] == [1, 1, 1]
        assert sorted(np.concatenate(blocks).tolist()) == sorted(
            [inv.e1.real, inv.e2.real, inv.e3.real])

    @pytest.mark.parametrize("b", [0.6, 1.0, 1.7])
    def test_2000_closed_form(self, b):
        # n0 = 2: the edges -3 e_i (y = sqrt((wp - e_j)(wp - e_k)), with the
        # operator's y'' = (E - q) y, q = -6 wp) and +-sqrt(3 g2)
        spec = spec_of((2, 0, 0, 0), 1j * b)
        inv = invariants(spec.torus)
        got = np.sort(np.concatenate(kdv_spectral._heun_blocks(spec)).real)
        root = math.sqrt(3.0 * inv.g2.real)
        expected = np.sort([-3.0 * inv.e1.real, -3.0 * inv.e2.real, -3.0 * inv.e3.real,
                            root, -root])
        assert np.max(np.abs(got - expected)) <= 1e-12 * (1.0 + root)

    def test_sizes_sum_to_degree_on_c3c4_runs(self):
        for tup, b in itertools.product(_C3C4_VECTORS, (0.6, 1.0, 1.7)):
            blocks = kdv_spectral._heun_blocks(spec_of(tup, 1j * b))
            assert sum(blk.size for blk in blocks) == 2 * genus(mv(*tup)) + 1, (tup, b)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ns=st.tuples(*[st.integers(0, 3)] * 4).filter(
               lambda t: max(t) >= 1 and sum(t) % 2 == 1),
           b=st.floats(0.6, 2.0))
    def test_dual_has_the_same_spectrum(self, ns, b):
        # Takemura duality: n and its dual share the spectral curve; measured
        # at most 1.3e-14 * scale over this range (29 values of b)
        a = np.concatenate(kdv_spectral._heun_blocks(spec_of(ns, 1j * b)))
        d = np.concatenate(kdv_spectral._heun_blocks(
            PotentialSpec.elliptic(takemura_dual(mv(*ns)), 1j * b)))
        assert a.size == d.size
        # each eigenvalue of either side within the bound of one of the other
        dist = np.abs(a[:, None] - d[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12 * (1.0 + np.abs(a).max())

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ns=st.tuples(*[st.integers(0, 3)] * 4).filter(lambda t: max(t) >= 1),
           b=st.floats(0.6, 1.7))
    def test_block_parity_is_the_sign_of_delta(self, ns, b):
        # a block's functions prod (t - e_i)^alpha_i Z(t) are antiperiodic
        # over the period 1 exactly when one of alpha_2, alpha_3 (not both)
        # is a half-integer (sqrt(t - e_i) changes sign over it for i = 2, 3
        # only), so Delta = -2 at its real eigenvalues, else +2.  The blocks
        # come in the order of _heun_blocks' (alpha, sigma) loop; a complex
        # eigenvalue has a complex Delta, with no sign to compare
        spec = spec_of(ns, 1j * b)
        n0, *rest = ns
        labels = [alpha for alpha in itertools.product(*((-k / 2, (k + 1) / 2) for k in rest))
                  for sigma in (n0 / 2, -(n0 + 1) / 2)
                  if sigma - sum(alpha) >= 0 and (sigma - sum(alpha)) % 1 == 0]
        blocks = kdv_spectral._heun_blocks(spec)
        assert len(blocks) == len(labels)
        for alpha, eig in zip(labels, blocks):
            real = eig[eig.imag == 0.0].real
            if real.size:
                parity = -1.0 if (alpha[1] % 1 != 0) != (alpha[2] % 1 != 0) else 1.0
                assert (np.sign(discriminant_batch(spec, real).real) == parity).all(), alpha

    @pytest.mark.parametrize("tup,b", _EDGE_CASES + [
        (tup, b) for b in (1.0, 1.7) for tup in _C3C4_VECTORS if (tup, b) not in _EDGE_CASES])
    def test_edges_match_hill(self, tup, b):
        # every block eigenvalue, real or not, is an eigenvalue of H_0 or
        # H_pi, on the listed cases and on the C3/C4 vectors at i and 1.7i;
        # the largest gap measured is 1.9e-9 * scale at (3,2,2,1), 1.7i, where
        # Hill's nonsymmetric matrices resolve near-double eigenvalues worst
        spec = spec_of(tup, 1j * b)
        edges = np.concatenate(kdv_spectral._heun_blocks(spec))
        reach = float(np.abs(edges).max())
        hill = hill_eigenvalues(spec, reach)
        gap = np.abs(edges[:, None] - hill[None, :]).min(axis=1).max()
        assert gap <= 5e-9 * (1.0 + reach)

    @pytest.mark.parametrize("tau", [0.3 + 1j, 0.5 + 0.9j])
    @pytest.mark.parametrize("tup", [(2, 2, 1, 0), (1, 2, 2, 1), (3, 1, 1, 0), (0, 1, 2, 3)])
    def test_off_axis_tau_matches_q(self, tup, tau):
        # complex e_i and complex blocks off the imaginary axis, against the
        # KdV chain's Q; measured at most 1.1e-12 * scale, at (3,1,1,0)
        spec = spec_of(tup, tau)
        edges = np.concatenate(kdv_spectral._heun_blocks(spec))
        roots = np.array([r.value for r in spectral_roots(spectral_polynomial(spec))
                          for _ in range(r.multiplicity)])
        dist = np.abs(edges[:, None] - roots[None, :])
        assert edges.size == roots.size
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1.1e-11 * (
            1.0 + np.abs(roots).max())
