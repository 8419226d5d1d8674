"""DTV potentials and the combinatorics attached to the multiplicity vector.

The potential q(z) = -sum_k n_k(n_k+1) wp(z + w_k/2; tau) with half periods
w0 = 0, w1 = 1, w2 = tau, w3 = 1 + tau.  Alongside evaluation this module
carries the integer classification data: the two no-real-band conditions,
cases A/B/C with genus g and gap integer m, the trigonometric-limit constant
C_T, and the isomonodromic dual vector for odd total weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elliptic import TorusParam, _eta1, wp
from .errors import NotNormalized, ParityError, PoleProximity

__all__ = [
    "MultiplicityVector",
    "DTVClassification",
    "PotentialSpec",
    "ELLIPTIC",
    "TRIG_LIMIT",
    "CONSTANT",
    "evaluate_potential",
    "gap_conditions",
    "genus",
    "classify",
    "takemura_dual",
    "trig_constant",
    "mean_potential",
    "line_pole_distance",
]

ELLIPTIC = "elliptic"
TRIG_LIMIT = "trig_limit"
CONSTANT = "constant"

# minimum distance (in units of Im tau) from the line z0 + [0, 1] to any pole
_LINE_POLE_MARGIN = 1e-3


@dataclass(frozen=True)
class MultiplicityVector:
    n0: int
    n1: int
    n2: int
    n3: int

    def __post_init__(self) -> None:
        ns = self.as_tuple()
        if any(int(n) != n or n < 0 for n in ns):
            raise ValueError(f"n_k must be nonnegative integers, got {ns}")
        if max(ns) < 1:
            raise ValueError("max(n_k) must be >= 1")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n0, self.n1, self.n2, self.n3)

    def total(self) -> int:
        return self.n0 + self.n1 + self.n2 + self.n3

    def weight_sum(self) -> int:
        """sum_k n_k (n_k + 1), the total wp weight of the potential."""
        return sum(n * (n + 1) for n in self.as_tuple())

    def is_normalized(self) -> bool:
        return self.n0 == max(self.as_tuple())


@dataclass(frozen=True)
class DTVClassification:
    c1_holds: bool
    c2_holds: bool
    case_label: str  # "A" | "B" | "C" | "NONE"
    genus_g: int
    gap_m: Optional[int]
    trig_constant: float
    dual: Optional[MultiplicityVector]
    sum_parity: str  # "even" | "odd"

    def to_json_dict(self, n: MultiplicityVector) -> dict:
        return {
            "n": list(n.as_tuple()),
            "c1": self.c1_holds,
            "c2": self.c2_holds,
            "case": self.case_label if self.case_label != "NONE" else "none",
            "g": self.genus_g,
            "m": self.gap_m,
            "C_T": self.trig_constant,
            "dual": list(self.dual.as_tuple()) if self.dual is not None else None,
        }


@dataclass(frozen=True)
class PotentialSpec:
    """One Hill-operator instance: (n, torus, base point z0, mode).

    z0 names the operator L = d^2/dx^2 + q(z0 + x): in elliptic mode the
    line {z0 + x : x in [0, 1]} must keep a distance of at least
    1e-3 * Im(tau) from every pole of the potential, checked at
    construction time.  Its spectrum, Delta and Q depend on (n, tau) only,
    so no engine reads z0: all of them sample the line tau/4 + [0, 1], the
    farthest from the poles (see kdv_spectral._line_modes).
    """

    n: MultiplicityVector
    torus: TorusParam
    z0: complex
    mode: str = ELLIPTIC
    constant: complex = 0j

    def __post_init__(self) -> None:
        if self.mode not in (ELLIPTIC, TRIG_LIMIT, CONSTANT):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "z0", complex(self.z0))
        object.__setattr__(self, "constant", complex(self.constant))
        if self.mode == ELLIPTIC:
            self._check_line_clearance()

    @classmethod
    def elliptic(cls, n: MultiplicityVector, tau: complex, z0: Optional[complex] = None) -> "PotentialSpec":
        """Elliptic-mode spec; default base point z0 = tau/4 (pole-free line)."""
        torus = TorusParam.from_tau(tau)
        if z0 is None:
            z0 = torus.tau / 4.0
        return cls(n=n, torus=torus, z0=z0, mode=ELLIPTIC)

    @classmethod
    def trig_limit(cls, n: MultiplicityVector, tau: complex = 8j, z0: Optional[complex] = None) -> "PotentialSpec":
        torus = TorusParam.from_tau(tau)
        if z0 is None:
            z0 = torus.tau / 4.0
        return cls(n=n, torus=torus, z0=z0, mode=TRIG_LIMIT)

    @classmethod
    def constant_potential(cls, value: complex, z0: complex = 0j) -> "PotentialSpec":
        """Constant potential q = value, the closed-form integrator oracle."""
        return cls(
            n=MultiplicityVector(1, 0, 0, 0),
            torus=TorusParam.from_tau(1j),
            z0=z0,
            mode=CONSTANT,
            constant=value,
        )

    def _check_line_clearance(self) -> None:
        margin = _LINE_POLE_MARGIN * self.torus.tau.imag
        worst = line_pole_distance(self)
        if worst < margin:
            raise PoleProximity(
                f"line z0 + [0,1] passes within {worst:.3e} of a pole "
                f"(required clearance {margin:.3e}); choose another z0"
            )


def _segment_distance(z0: complex, p: complex) -> float:
    """Distance from point p to the horizontal segment [z0, z0 + 1]."""
    dx = p.real - z0.real
    dy = p.imag - z0.imag
    if 0.0 <= dx <= 1.0:
        return abs(dy)
    return min(abs(p - z0), abs(p - z0 - 1.0))


def line_pole_distance(spec: PotentialSpec) -> float:
    """Distance from the line z0 + [0, 1] to the nearest pole.

    The clearance check of PotentialSpec reads it; the engines sample
    tau/4 + [0, 1], whose distance is Im tau / 4.
    """
    if spec.mode == CONSTANT:
        return math.inf
    if spec.mode == TRIG_LIMIT:
        # csc^2 / sec^2 poles fill Z/2 on the real axis
        return abs(spec.z0.imag)
    tau = spec.torus.tau
    half = (0.0, 0.5, tau / 2.0, (1 + tau) / 2.0)
    worst = math.inf
    for k, nk in enumerate(spec.n.as_tuple()):
        if nk < 1:
            continue
        base = -half[k]
        for m in range(-2, 4):
            for nn in range(-2, 3):
                worst = min(worst, _segment_distance(spec.z0, base + m + nn * tau))
    return worst


def _pt_symmetric(spec: PotentialSpec) -> bool:
    """Whether q(x_c - t) = conj q(x_c + t) on the sampling line, x_c = 0.

    Read from the spec, not from the modes: tau on the imaginary axis (wp is
    real on the real axis and even), the trig limit, or a real constant.
    """
    if spec.mode == CONSTANT:
        return spec.constant.imag == 0.0
    return spec.mode == TRIG_LIMIT or spec.torus.tau.real == 0.0


def evaluate_potential(spec: PotentialSpec, z):
    """q(z) for the given spec; scalar or array z, broadcasting over z."""
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    zz = np.atleast_1d(zz)
    if spec.mode == CONSTANT:
        out = np.full(zz.shape, spec.constant, dtype=complex)
    elif spec.mode == TRIG_LIMIT:
        n0, n1 = spec.n.n0, spec.n.n1
        out = np.full(zz.shape, complex(trig_constant(spec.n)), dtype=complex)
        if n0 >= 1:
            out = out - n0 * (n0 + 1) * math.pi**2 / np.sin(math.pi * zz) ** 2
        if n1 >= 1:
            out = out - n1 * (n1 + 1) * math.pi**2 / np.cos(math.pi * zz) ** 2
    else:
        tau = spec.torus.tau
        half = (0.0, 0.5, tau / 2.0, (1 + tau) / 2.0)
        out = np.zeros(zz.shape, dtype=complex)
        for k, nk in enumerate(spec.n.as_tuple()):
            if nk >= 1:
                out = out - nk * (nk + 1) * wp(zz + half[k], spec.torus)
    return complex(out[0]) if scalar else out


def gap_conditions(n: MultiplicityVector) -> tuple[bool, bool]:
    """The two conditions that force non-real spectrum, in exact integers.

    The half-integer inequalities are evaluated as 2*expr >= 2, i.e.
    n1 + n2 - n0 - n3 >= 2 (with n1, n2 >= 1) and symmetrically for c2.
    """
    c1 = (n.n1 + n.n2 - n.n0 - n.n3) >= 2 and n.n1 >= 1 and n.n2 >= 1
    c2 = (n.n0 + n.n3 - n.n1 - n.n2) >= 2 and n.n0 >= 1 and n.n3 >= 1
    return c1, c2


def genus(n: MultiplicityVector) -> int:
    """Arithmetic genus of the spectral curve; rearrangement-invariant."""
    m0, m1, m2, m3 = sorted(n.as_tuple(), reverse=True)
    if (m0 + m1 + m2 + m3) % 2 == 0:
        if m0 + m3 >= m1 + m2:
            return m0
        return (m0 + m1 + m2 - m3) // 2
    if m0 > m1 + m2 + m3:
        return m0
    return (m0 + m1 + m2 + m3 + 1) // 2


def trig_constant(n: MultiplicityVector) -> float:
    """C_T = (pi^2/3) * sum_k n_k(n_k+1)."""
    return math.pi**2 / 3.0 * n.weight_sum()


def takemura_dual(n: MultiplicityVector) -> MultiplicityVector:
    """Isomonodromic dual vector; defined only for odd total weight."""
    if n.total() % 2 == 0:
        raise ParityError(f"sum n_k = {n.total()} is even; dual undefined")
    n0, n1, n2, n3 = n.as_tuple()
    l0 = (n0 + n1 + n2 + n3 + 1) // 2
    lt1 = (n0 + n1 - n2 - n3 - 1) // 2
    lt2 = (n0 - n1 + n2 - n3 - 1) // 2
    lt3 = (n0 - n1 - n2 + n3 - 1) // 2
    return MultiplicityVector(
        l0, max(lt1, -lt1 - 1), max(lt2, -lt2 - 1), max(lt3, -lt3 - 1)
    )


def classify(n: MultiplicityVector) -> DTVClassification:
    """Full combinatorial classification of a multiplicity vector.

    When neither condition holds the case analysis requires the normalization
    n0 = max_k n_k (NotNormalized otherwise); when a condition holds the case
    is NONE and no gap integer is defined.
    """
    c1, c2 = gap_conditions(n)
    g = genus(n)
    parity = "odd" if n.total() % 2 else "even"
    dual = takemura_dual(n) if parity == "odd" else None
    c_t = trig_constant(n)

    if c1 or c2:
        return DTVClassification(
            c1_holds=c1, c2_holds=c2, case_label="NONE", genus_g=g, gap_m=None,
            trig_constant=c_t, dual=dual, sum_parity=parity,
        )

    if not n.is_normalized():
        raise NotNormalized(
            f"case analysis needs n0 = max(n_k); got {n.as_tuple()} "
            "(shift the base point by a half period to permute n)"
        )
    n0, n1, n2, n3 = n.as_tuple()
    if (n0 >= n1 + n2 + 1 and n3 == 0) or (n0 + n3 == n1 + n2):
        label, m = "A", n0 - n1
    elif n0 + n3 == n1 + n2 - 1:
        label, m = "B", n2 + n3 + 1
    elif n0 + n3 == n1 + n2 + 1 and n3 >= 1:
        label, m = "C", (n2 + n3 + 1) if n0 > n2 else (n2 + n3)
    else:
        # unreachable when neither condition holds (verified by enumeration)
        raise AssertionError(f"classification fell through for {n.as_tuple()}")
    return DTVClassification(
        c1_holds=False, c2_holds=False, case_label=label, genus_g=g, gap_m=m,
        trig_constant=c_t, dual=dual, sum_parity=parity,
    )


def mean_potential(spec: PotentialSpec) -> complex:
    """Mean of q over one real period, <q> = 2*eta1*sum n_k(n_k+1).

    Closed form from integrating wp over a period (independent of z0).  The
    trig and constant modes have trivial means (C_T and the constant).
    """
    if spec.mode == CONSTANT:
        return spec.constant
    if spec.mode == TRIG_LIMIT:
        return complex(trig_constant(spec.n))
    return 2.0 * _eta1(spec.torus) * spec.n.weight_sum()
