"""Reference answers of the benchmark ops, and the checks against them.

Run as a script to regenerate ``reference.json``:

    python3 bench/reference.py

It runs every op of every workload under two seeds (two sets of base points
z0), checks the second seed's answers against the first seed's, and writes
the file only if they agree.  The file is committed; ``run.py`` checks every
op of every run against it, and any miss counts as a failed op.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

ROOT_TOL = 1e-6  # the documented reality / merge tolerance, times scale
HIT_TOL = 1e-6  # interior eigenvalues, absolute
ARC_TOL = 1e-3  # stability_region's membership tolerance
SYMMETRY_CELLS = 4  # conjugate mirror within this many grid cells
REFERENCE_SEEDS = (0, 1)


def load() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# -- per-op answers ------------------------------------------------------------

def expanded_roots(report) -> np.ndarray:
    """Roots of a SpectrumReport repeated by multiplicity."""
    return np.array([r.value for r in report.roots for _ in range(r.multiplicity)],
                    dtype=complex)


def _arc_points(arcs) -> np.ndarray:
    return np.array([(p[0], p[1]) for poly in arcs.polylines for p in poly],
                    dtype=float).reshape(-1, 2)


def answer(workload: str, op: dict, result, gap_report=None) -> dict:
    """The reference record of one op's result."""
    if workload == "sweep":
        return {"roots": [[v.real, v.imag] for v in expanded_roots(result)],
                "predicted_complex": bool(result.predicted_by_conditions)}
    if workload == "verify":
        from hillband import MultiplicityVector, classify

        cls = classify(MultiplicityVector(*op["n"]))
        return {"all_pass": True,
                "gap_counts": [0] * cls.gap_m + [1] * (cls.genus_g - cls.gap_m),
                "interior_parity": -2 if cls.gap_m % 2 == 0 else 2,
                "hits": [h.E for gap in gap_report.gaps for h in gap.interior_hits]}
    if tuple(op["n"]) == (1, 0, 0, 0):
        # Lame at tau = i: band edges e1, 0, -e1 with e1 = Gamma(1/4)^4 / (8 pi)
        e1 = math.gamma(0.25) ** 4 / (8.0 * math.pi)
        return {"kind": "real_bands", "bands": [[op["window"][0], -e1], [0.0, e1]]}
    return {"kind": "conjugate_symmetric"}


# -- checks --------------------------------------------------------------------

def _multiset_misses(got: np.ndarray, want: np.ndarray, tol: float) -> int:
    """Roots of ``want`` with no unused root of ``got`` within tol.

    Matching is by nearest unused value, never by position: the order of a
    conjugate pair with equal real parts flips with z0.
    """
    if got.size != want.size:
        return max(got.size, want.size)
    free = list(got)
    misses = 0
    for w in want:
        dist = [abs(g - w) for g in free]
        j = int(np.argmin(dist))
        if dist[j] > tol:
            misses += 1
        free.pop(j)
    return misses


def check(workload: str, op: dict, result, ref: dict, gap_report=None) -> list[str]:
    """Problems with one op's result; an empty list means it matches."""
    if workload == "sweep":
        got = expanded_roots(result)
        want = np.array([complex(*v) for v in ref["roots"]])
        scale = 1.0 + float(np.abs(want).max())
        problems = []
        misses = _multiset_misses(got, want, ROOT_TOL * scale)
        if misses:
            problems.append(f"{misses} roots off the reference by > {ROOT_TOL:g}*scale")
        detected = bool(np.any(np.abs(got.imag) > ROOT_TOL * scale))
        if detected != ref["predicted_complex"]:
            problems.append(f"C3: complex roots {detected}, conditions say "
                            f"{ref['predicted_complex']}")
        return problems

    if workload == "verify":
        problems = []
        if result.get("all_pass") is not ref["all_pass"]:
            problems.append(f"all_pass is {result.get('all_pass')}")
        details = result.get("details", {})
        if details.get("gap_counts") != ref["gap_counts"]:
            problems.append(f"gap counts {details.get('gap_counts')} != {ref['gap_counts']}")
        parities = details.get("interior_parities", [])
        if len(parities) != sum(ref["gap_counts"]) or any(
                p != ref["interior_parity"] for p in parities):
            problems.append(f"interior parities {parities}")
        hits = [] if gap_report is None else sorted(
            h.E for gap in gap_report.gaps for h in gap.interior_hits)
        want = sorted(ref["hits"])
        if len(hits) != len(want) or any(abs(a - b) > HIT_TOL for a, b in zip(hits, want)):
            problems.append(f"interior hits {hits} != {want}")
        return problems

    pts = _arc_points(result)
    re0, re1, im0, im1 = op["window"]
    res = op["res"]
    if not len(pts):
        return ["no arc points"]
    if ref["kind"] == "real_bands":
        h = (re1 - re0) / (res - 1)
        problems = []
        if float(np.abs(pts[:, 1]).max()) > ARC_TOL:
            problems.append("Lame arc point off the real axis")
        bands = ref["bands"]
        inside = np.zeros(len(pts), dtype=bool)
        for lo, hi in bands:
            inside |= (pts[:, 0] >= lo - h) & (pts[:, 0] <= hi + h)
        if not inside.all():
            problems.append(f"{int((~inside).sum())} Lame arc points outside the bands")
        xs = np.linspace(re0, re1, res)
        re_sorted = np.sort(pts[:, 0])
        for lo, hi in bands:
            cols = xs[(xs >= lo + h) & (xs <= hi - h)]
            idx = np.clip(np.searchsorted(re_sorted, cols), 1, len(re_sorted) - 1)
            gap = np.minimum(np.abs(re_sorted[idx] - cols), np.abs(re_sorted[idx - 1] - cols))
            if np.any(gap > 0.5 * h):
                problems.append(f"band [{lo:.4f}, {hi:.4f}] not covered at the grid spacing")
        return problems

    cell = (im1 - im0) / (res - 1)
    off = pts[np.abs(pts[:, 1]) > 1e-2]
    if not len(off):
        return ["no off-axis arc points"]
    mirror = np.array([np.min(np.abs(pts[:, 0] - x) + np.abs(pts[:, 1] + y)) for x, y in off])
    if np.any(mirror >= SYMMETRY_CELLS * cell):
        return [f"{int((mirror >= SYMMETRY_CELLS * cell).sum())} off-axis points "
                "without a conjugate mirror"]
    return []


# -- generation ----------------------------------------------------------------

def generate() -> dict:
    """Answers of every op under REFERENCE_SEEDS[0], cross-checked under [1]."""
    import inputs
    import run

    out = {"seeds": list(REFERENCE_SEEDS), "workloads": {}}
    for workload in inputs.WORKLOADS:
        first, second = (run.answers(workload, seed) for seed in REFERENCE_SEEDS)
        ref = {key: answer(workload, op, res, gr) for key, (op, res, gr) in first.items()}
        bad = [(seed, key, problems)
               for seed, got in zip(REFERENCE_SEEDS, (first, second))
               for key, (op, res, gr) in got.items()
               if (problems := check(workload, op, res, ref[key], gr))]
        if bad:
            raise SystemExit(f"{workload}: seeds disagree or miss: {bad}")
        out["workloads"][workload] = dict(sorted(ref.items()))
        print(f"{workload}: {len(ref)} ops agree under seeds {REFERENCE_SEEDS}",
              file=sys.stderr)
    return out


def save(data: dict) -> None:
    """Write the reference with one line per op, so diffs show which op moved."""
    blocks = []
    for workload, ops in data["workloads"].items():
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(rec)}" for key, rec in ops.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    with open(REFERENCE_PATH, "w") as fh:
        fh.write('{"seeds": %s, "workloads": {\n%s\n}}\n'
                 % (json.dumps(data["seeds"]), ",\n".join(blocks)))


if __name__ == "__main__":
    save(generate())
