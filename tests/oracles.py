"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the production code paths: the lattice sum is the
defining series of wp summed column-by-column in closed form (csc^2 along
the tau direction, the modular dual of the production row/nome expansion),
eta comes from the Legendre relation, the constant-potential discriminant
from its cosine closed form, and monodromy cross-checks ride on scipy's
DOP853 rather than the in-tree integrator.
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


def wp_trig(z: complex) -> complex:
    """tau -> i*inf limit of wp."""
    return math.pi**2 / cmath.sin(math.pi * z) ** 2 - math.pi**2 / 3.0


def delta_constant(c: complex, e) -> np.ndarray:
    """Hill discriminant of q = c: Delta(E) = 2 cos sqrt(c - E)."""
    e = np.asarray(e, dtype=complex)
    return 2.0 * np.cos(np.sqrt(c - e))


def monodromy_scipy(spec, e_value: complex, rtol: float = 1e-12,
                    derivative: bool = False):
    """Monodromy trace via scipy DOP853 (independent integrator route).

    Transports (c, s) over the full period [0, 1] of the line z0 + x; with
    ``derivative`` the variational system rides along and (Delta, dDelta/dE)
    is returned.
    """
    from scipy.integrate import solve_ivp

    from hillband.potential import evaluate_potential

    def rhs(x, y):
        w = e_value - evaluate_potential(spec, spec.z0 + x)
        out = [y[1], w * y[0], y[3], w * y[2]]
        if derivative:
            out += [y[5], w * y[4] + y[0], y[7], w * y[6] + y[2]]
        return out

    y0 = np.zeros(8 if derivative else 4, dtype=complex)
    y0[0] = y0[3] = 1.0
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=rtol, atol=1e-14,
                    dense_output=False)
    assert sol.success
    yf = sol.y[:, -1]
    if derivative:
        return yf[0] + yf[3], yf[4] + yf[7]
    return yf[0] + yf[3]
