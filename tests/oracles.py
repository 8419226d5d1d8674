"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the production code paths: the lattice sum is the
defining series of wp summed column-by-column in closed form (csc^2 along
the tau direction, the modular dual of the production row/nome expansion),
eta comes from the Legendre relation, the constant-potential discriminant
from its cosine closed form, monodromy cross-checks ride on scipy's
DOP853 rather than the in-tree integrator, and the half-period values e_k
come from Jacobi theta nulls summed by mpmath, and marching squares is a
plain loop over grid cells.
"""

from __future__ import annotations

import cmath
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
