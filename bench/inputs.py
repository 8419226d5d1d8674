"""Seeded inputs of the three benchmark workloads.

Standard library only, and ``hillband`` is imported inside ``build_specs``,
so a fresh process can import this module before it starts the set-up clock.

An op is one top-level public call.  The seed draws each op's base point
z0 (Re z0 in [0, 1), Im z0 / b in [0.2, 0.3]) and the op order.  Neither Q
nor Delta depends on z0, so one reference answer serves every seed.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("sweep", "verify", "arcs")

# the C3/C4 classification set: n_k <= 3, normalised n0 = max(n) >= 1
SWEEP_VECTORS = tuple(t for t in itertools.product(range(4), repeat=4)
                      if max(t) >= 1 and t[0] == max(t))
SWEEP_TAUS = (1.0, 1.7)

# cases A, B and C, gap counts 0 and 1, both interior parities
VERIFY_VECTORS = ((1, 0, 0, 0), (2, 1, 1, 0), (1, 1, 1, 0),
                  (2, 1, 1, 1), (3, 0, 0, 0), (2, 2, 1, 0))

# (n, window, resolution): Lame has real-axis arcs, (1,2,2,1) complex ones
ARCS = (((1, 0, 0, 0), (-15.0, 15.0, -3.0, 3.0), 256),
        ((1, 2, 2, 1), (25.0, 50.0, -16.0, 16.0), 192))


def op_key(n, tau_im: float) -> str:
    """Reference key of an op: the weights and Im tau, never z0."""
    return "%d,%d,%d,%d@%g" % (*n, tau_im)


def _canonical_ops(workload: str) -> list[dict]:
    if workload == "sweep":
        return [{"n": n, "tau_im": b} for b in SWEEP_TAUS for n in SWEEP_VECTORS]
    if workload == "verify":
        return [{"n": n, "tau_im": 1.0} for n in VERIFY_VECTORS]
    if workload == "arcs":
        return [{"n": n, "tau_im": 1.0, "window": w, "res": r} for n, w, r in ARCS]
    raise ValueError(f"unknown workload {workload!r}")


def make_ops(workload: str, seed: int) -> list[dict]:
    """The workload's ops with seeded base points, in seeded order."""
    rng = random.Random(seed)
    ops = _canonical_ops(workload)
    for op in ops:
        op["key"] = op_key(op["n"], op["tau_im"])
        op["z0"] = (rng.random(), op["tau_im"] * rng.uniform(0.2, 0.3))
    rng.shuffle(ops)
    return ops


def build_specs(ops: list[dict]) -> list:
    """One PotentialSpec per op; this is the program's set-up work."""
    from hillband import MultiplicityVector, PotentialSpec

    return [PotentialSpec.elliptic(MultiplicityVector(*op["n"]),
                                   complex(0.0, op["tau_im"]), complex(*op["z0"]))
            for op in ops]
