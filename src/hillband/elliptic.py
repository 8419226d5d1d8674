"""Weierstrass elliptic functions on the lattice Z + tau*Z via nome series.

Everything here is specialized to the rectangular-torus workflow used by the
rest of the package (tau = i*b with b bounded away from 0), but the series are
valid for any tau in the upper half plane.  Arguments are reduced to the
fundamental cell |Re z'| <= 1/2, |Im z'| <= Im(tau)/2 before summation, so the
effective expansion parameter is the nome p = exp(i*pi*tau) and the series
length is chosen automatically from |p|.

Conventions
-----------
* periods 1 and tau; half-period values e1 = wp(1/2), e2 = wp(tau/2),
  e3 = wp((1+tau)/2),
* eta1 is the zeta quasi-period along the real period:
  zeta(z + 1) = zeta(z) + 2*eta1, so the mean of wp over one real period
  equals -2*eta1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximity, SeriesDivergence

__all__ = ["TorusParam", "LatticeInvariants", "wp", "wp_prime", "invariants"]

_POLE_GUARD = 1e-8


@dataclass(frozen=True)
class TorusParam:
    """Torus modulus tau, its nome p = exp(i*pi*tau), and series truncation."""

    tau: complex
    nome: complex
    series_terms: int

    @classmethod
    def from_tau(cls, tau: complex) -> "TorusParam":
        """Build a TorusParam with the series length chosen from |nome|.

        The truncation keeps the dropped tail below 1e-14 of the leading term
        even on the cell boundary |Im z| = Im(tau)/2, where the k-th term is
        O(|p|^k); the looser interior bound |p|^(2*series_terms) is then
        satisfied with a wide margin.
        """
        tau = complex(tau)
        if tau.imag <= 0.0:
            raise SeriesDivergence(f"Im tau must be positive, got tau={tau}")
        nome = np.exp(1j * math.pi * tau)
        terms = max(12, math.ceil(16.0 * math.log(10.0) / (math.pi * tau.imag)) + 8)
        return cls(tau=tau, nome=complex(nome), series_terms=terms)

    def __post_init__(self) -> None:
        if abs(self.nome) >= 1.0:
            raise SeriesDivergence(f"|nome| >= 1 for tau={self.tau}")


@dataclass(frozen=True)
class LatticeInvariants:
    """g2, g3, half-period values e_k and the quasi-period eta1."""

    g2: complex
    g3: complex
    e1: complex
    e2: complex
    e3: complex
    eta1: complex

    def to_json_dict(self) -> dict:
        return {
            "g2": [self.g2.real, self.g2.imag],
            "g3": [self.g3.real, self.g3.imag],
            "e": [[e.real, e.imag] for e in (self.e1, self.e2, self.e3)],
            "eta1": [self.eta1.real, self.eta1.imag],
        }


def _reduce(z: np.ndarray, tau: complex) -> np.ndarray:
    """Translate z by lattice vectors into |Re| <= ~1/2, |Im| <= Im(tau)/2."""
    n = np.round(z.imag / tau.imag)
    z1 = z - n * tau
    a = z1.real - z1.imag * (tau.real / tau.imag)
    return z1 - np.round(a)


def _check_poles(z: np.ndarray, tau: complex) -> None:
    dmin = np.full(z.shape, np.inf)
    for lam in (0.0, 1.0, -1.0, tau, -tau, 1 + tau, -1 - tau, 1 - tau, -1 + tau):
        dmin = np.minimum(dmin, np.abs(z - lam))
    if np.any(dmin < _POLE_GUARD):
        worst = np.min(dmin)
        raise PoleProximity(f"z within {worst:.3e} of a lattice point")


def wp(z, torus: TorusParam):
    """Weierstrass wp(z; tau) by the nome/Fourier series.

    Accepts scalars or arrays of z and broadcasts.  Raises PoleProximity when
    any reduced point is within 1e-8 of the lattice.
    """
    zr = _reduce(np.asarray(z, dtype=complex), torus.tau)
    scalar = zr.ndim == 0
    zr = np.atleast_1d(zr)
    _check_poles(zr, torus.tau)

    q = torus.nome**2
    k = np.arange(1, torus.series_terms + 1)
    qk = q**k
    coef = k / (1.0 - qk)
    s = np.sin(math.pi * zr)
    out = (math.pi / s) ** 2 - math.pi**2 / 3.0
    # q^k cos(2 pi k z) = (e^{2 pi i k (tau+z)} + e^{2 pi i k (tau-z)})/2: bounded at large Im tau
    up, down = (np.exp(2j * math.pi * np.multiply.outer(k, torus.tau + sg * zr)) for sg in (1, -1))
    out = out - 8.0 * math.pi**2 * np.tensordot(coef, 0.5 * (up + down) - qk[:, None], axes=(0, 0))
    return complex(out[0]) if scalar else out


def wp_prime(z, torus: TorusParam):
    """Derivative wp'(z; tau); same reduction, guard, truncation and exponentials as wp."""
    zr = _reduce(np.asarray(z, dtype=complex), torus.tau)
    scalar = zr.ndim == 0
    zr = np.atleast_1d(zr)
    _check_poles(zr, torus.tau)

    q = torus.nome**2
    k = np.arange(1, torus.series_terms + 1)
    qk = q**k
    coef = k * k / (1.0 - qk)
    s = np.sin(math.pi * zr)
    out = -2.0 * math.pi * (np.cos(math.pi * zr) / s) * (math.pi / s) ** 2
    up, down = (np.exp(2j * math.pi * np.multiply.outer(k, torus.tau + sg * zr)) for sg in (1, -1))
    out = out + 16.0 * math.pi**3 * np.tensordot(coef, (up - down) / 2j, axes=(0, 0))
    return complex(out[0]) if scalar else out


def _eisenstein_sum(q: complex, power: int, terms: int) -> complex:
    n = np.arange(1, terms + 1)
    qn = q**n
    return complex(np.sum(n**power * qn / (1.0 - qn)))


def invariants(torus: TorusParam) -> LatticeInvariants:
    """Lattice invariants g2, g3, half-period values and eta1.

    g2, g3, eta1 come from the Eisenstein series E4, E6, E2 in q = nome^2;
    the e_k are direct wp evaluations at the half periods.  eta1 uses
    eta1 = (pi^2/6) * E2(tau); tests cross-check it against the Legendre
    relation and against the mean of wp over a period line.
    """
    tau = torus.tau
    q = torus.nome**2
    terms = max(8, math.ceil(16.0 * math.log(10.0) / (2.0 * math.pi * tau.imag)) + 8)
    e2_series = 1.0 - 24.0 * _eisenstein_sum(q, 1, terms)
    e4_series = 1.0 + 240.0 * _eisenstein_sum(q, 3, terms)
    e6_series = 1.0 - 504.0 * _eisenstein_sum(q, 5, terms)
    g2 = (4.0 * math.pi**4 / 3.0) * e4_series
    g3 = (8.0 * math.pi**6 / 27.0) * e6_series
    eta1 = (math.pi**2 / 6.0) * e2_series
    e1 = wp(0.5, torus)
    e2 = wp(tau / 2.0, torus)
    e3 = wp((1.0 + tau) / 2.0, torus)
    return LatticeInvariants(g2=g2, g3=g3, e1=e1, e2=e2, e3=e3, eta1=eta1)
