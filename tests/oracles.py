"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the production code paths: the lattice sum is the
defining series of wp summed column-by-column in closed form (csc^2 along
the tau direction, the modular dual of the production row/nome expansion),
eta comes from the Legendre relation, the constant-potential discriminant
from its cosine closed form, monodromy cross-checks ride on scipy's
DOP853 rather than the in-tree integrator, and the half-period values e_k
come from Jacobi theta nulls summed by mpmath, Takemura's Heun blocks are
rebuilt and solved in mpmath at 40 digits, marching squares is a plain loop
over grid cells, and the arc chaining walks a dict keyed by edge tuples.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np


def wp_lattice_sum(z: complex, tau: complex) -> complex:
    """wp(z; tau) = 1/z^2 + sum'[1/(z-w)^2 - 1/w^2] summed by columns.

    Grouping the absolutely convergent sum by the real-direction index m and
    evaluating each column sum_n 1/(w + n*tau)^2 = (pi/tau)^2 csc^2(pi w/tau)
    in closed form gives spectral accuracy with explicit truncation.
    """
    b = tau.imag
    terms = max(12, math.ceil(6.5 * b) + 6)
    pref = (math.pi / tau) ** 2

    def csc2(w: complex) -> complex:
        s = cmath.sin(w)
        return 1.0 / (s * s)

    total = csc2(math.pi * z / tau) - 1.0 / 3.0
    for m in range(1, terms + 1):
        total += (csc2(math.pi * (z - m) / tau) + csc2(math.pi * (z + m) / tau)
                  - 2.0 * csc2(math.pi * m / tau))
    return pref * total


def eisenstein_e2(tau: complex, terms: int = 400) -> complex:
    q = cmath.exp(2j * math.pi * tau)
    n = np.arange(1, terms + 1)
    qn = q**n
    return 1.0 - 24.0 * complex(np.sum(n * qn / (1.0 - qn)))


def eta2_from_modular(tau: complex) -> complex:
    """Quasi-period along tau: eta2 = (pi^2/6) E2(-1/tau) / tau."""
    return (math.pi**2 / 6.0) * eisenstein_e2(-1.0 / tau) / tau


def legendre_defect(eta1: complex, tau: complex) -> float:
    """|eta1 * tau - eta2 - i pi| with eta2 from the modular route."""
    return abs(eta1 * tau - eta2_from_modular(tau) - 1j * math.pi)


def e_theta_nulls(tau: complex) -> tuple[complex, complex, complex]:
    """wp(1/2), wp(tau/2), wp((1 + tau)/2) from theta nulls at 40 digits.

    e1 = (pi^2/3)(th3^4 + th4^4), e2 = -(pi^2/3)(th2^4 + th3^4) and
    e3 = (pi^2/3)(th2^4 - th4^4), with nome q = exp(i pi tau).
    """
    import mpmath

    with mpmath.workdps(40):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        th2, th3, th4 = (mpmath.jtheta(k, 0, q) ** 4 for k in (2, 3, 4))
        c = mpmath.pi**2 / 3
        return tuple(complex(v) for v in (c * (th3 + th4), -c * (th2 + th3),
                                          c * (th2 - th4)))


def heun_blocks_mp(n, tau: complex) -> list[list[complex]]:
    """Eigenvalues of Takemura's Heun blocks, built and solved at 40 digits.

    The same four-diagonal matrices on the basis t^j as
    kdv_spectral._heun_blocks, block for block in the same order, with the
    e_i of e_theta_nulls, assembled in mpmath and solved by mpmath.eig.
    """
    import mpmath

    n0, *ns = n
    with mpmath.workdps(40):
        e = [mpmath.mpc(v) for v in e_theta_nulls(tau)]
        ee = [e[1] * e[2], e[0] * e[2], e[0] * e[1]]
        p1, p0 = 4 * sum(ee), -4 * e[0] * e[1] * e[2]
        blocks = []
        for a in itertools.product(*((mpmath.mpf(-k) / 2, mpmath.mpf(k + 1) / 2)
                                     for k in ns)):
            aa = [a[1] * a[2], a[0] * a[2], a[0] * a[1]]
            b = [8 * ai + 2 for ai in a]
            r1 = (sum(k * (k + 1) + 4 * ai for k, ai in zip(ns, a)) + 8 * sum(aa)
                  - n0 * (n0 + 1))
            r0 = (sum((k * (k + 1) + 2 * ai) * ei for k, ai, ei in zip(ns, a, e))
                  - 8 * sum(x * ei for x, ei in zip(aa, e)))
            be = sum(bi * ei for bi, ei in zip(b, e))
            bee = sum(bi * x for bi, x in zip(b, ee))
            for sigma in (mpmath.mpf(n0) / 2, -mpmath.mpf(n0 + 1) / 2):
                d = sigma - sum(a)
                if d < 0 or d % 1:
                    continue
                size = int(d) + 1
                m = mpmath.zeros(size, size)
                for j in range(size):
                    m[j, j] = be * j + r0
                    if j + 1 < size:
                        m[j + 1, j] = 4 * j * (j - 1) + sum(b) * j + r1
                        m[j, j + 1] = p1 * (j + 1) * j + bee * (j + 1)
                    if j + 2 < size:
                        m[j, j + 2] = p0 * (j + 2) * (j + 1)
                # eigenvalues and right eigenvectors: the one form that
                # mpmath 1.3 returns the same way for 1 x 1 blocks
                blocks.append([complex(v) for v in mpmath.eig(m)[0]])
        return blocks


def wp_trig(z: complex) -> complex:
    """tau -> i*inf limit of wp."""
    return math.pi**2 / cmath.sin(math.pi * z) ** 2 - math.pi**2 / 3.0


def delta_constant(c: complex, e) -> np.ndarray:
    """Hill discriminant of q = c: Delta(E) = 2 cos sqrt(c - E)."""
    e = np.asarray(e, dtype=complex)
    return 2.0 * np.cos(np.sqrt(c - e))


def monodromy_scipy(spec, e_value: complex, rtol: float = 1e-12):
    """Monodromy trace via scipy DOP853 (independent integrator route).

    Transports (c, s) over the full period [0, 1] of the line z0 + x.
    """
    from scipy.integrate import solve_ivp

    from hillband.potential import evaluate_potential

    def rhs(x, y):
        w = e_value - evaluate_potential(spec, spec.z0 + x)
        return [y[1], w * y[0], y[3], w * y[2]]

    y0 = np.array([1, 0, 0, 1], dtype=complex)
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=rtol, atol=1e-14,
                    dense_output=False)
    assert sol.success
    yf = sol.y[:, -1]
    return yf[0] + yf[3]


def marching_segments_loop(xs, ys, im_grid, re_grid):
    """Im = 0 segments of a grid by a loop over its cells: marching squares.

    A cell's crossed edges are taken in the order bottom, right, top, left,
    each point interpolated from the edge's left or lower corner; a saddle
    joins the lower-left corner's side when the corner mean has its sign.
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
            edges = (
                (("h", iy, ix), 0, 1),
                (("v", iy, ix + 1), 1, 2),
                (("h", iy + 1, ix), 3, 2),
                (("v", iy, ix), 0, 3),
            )
            crossings = [(key, interp(v[a], v[b], corners[a], corners[b],
                                      rvals[a], rvals[b]))
                         for key, a, b in edges if sgn[a] != sgn[b]]
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                center = 0.25 * sum(v)
                if (center > 0.0) == sgn[0]:
                    segments.append((crossings[0], crossings[3]))
                    segments.append((crossings[1], crossings[2]))
                else:
                    segments.append((crossings[0], crossings[1]))
                    segments.append((crossings[2], crossings[3]))
    return segments


def chain_polylines_dict(segments, keep):
    """Chains of kept segments over shared edge keys, by dict adjacency.

    segments as from marching_segments_loop, keep a dict from edge key to
    bool.  Open chains come first, each walked from its lower end key in key
    order; the remaining loops follow, each walked from its lowest key.
    """
    adjacency: dict = {}
    seg_kept = []
    for (ka, _), (kb, _) in segments:
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
