"""Spans recorded from outside the program, and the per-layer metrics.

The tracer wraps the functions listed in ``layers.json`` wherever a hillband
module holds them, so ``src/`` is not touched.  Each wrapped call becomes one
span: id, parent span, op id (shared by every span under one top-level call),
name, start, end and a few counts taken from the call's arguments or result.
Spans stay in memory until the traced pass ends; ``write`` then stores one
JSON record per span, and ``derive`` computes every per-layer metric from
that file alone.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS_PATH = Path(__file__).resolve().parent / "layers.json"
TRACED_MODULES = ("hillband", "hillband.elliptic", "hillband.potential",
                  "hillband.kdv_spectral", "hillband.floquet", "hillband.spectrum")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _roots(clusters) -> list:
    return [[r.value.real, r.value.imag, r.multiplicity] for r in clusters]


# counts taken at the call boundary: (args, kwargs, result) -> attributes
_ATTRS = {
    "elliptic.wp": lambda a, k, out: {"points": int(np.size(_arg(a, k, 0, "z")))},
    "floquet.discriminant_batch": lambda a, k, out: {"E_points": int(np.size(_arg(a, k, 1, "E")))},
    "floquet.fixed_transport": lambda a, k, out: {"E_points": int(np.size(_arg(a, k, 1, "E")))},
    "floquet.periodic_eigenvalues_on_interval": lambda a, k, out: {"hits": len(out)},
    "kdv_spectral.kdv_chain": lambda a, k, out: {"k_cut": int(out.k_cut)},
    "kdv_spectral.spectral_roots": lambda a, k, out: {"roots": _roots(out)},
    "spectrum.classify_spectrum": lambda a, k, out: {
        "roots": _roots(out.roots), "no_condition": not out.predicted_by_conditions},
    "spectrum.stability_region": lambda a, k, out: {
        "grid_points": int(_arg(a, k, 2, "resolution")) ** 2,
        "arc_points": out.num_points()},
}


class Tracer:
    """Records spans of the wrapped hillband functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, attrs)
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._op = 0
        self._patches: list[tuple] = []

    def _begin(self) -> tuple[int, int]:
        if not self._stack:
            self._op += 1
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._begin()
            op = self._op
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, op, name, start, clock(), {"error": True}))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, op, name, start, end,
                          attrs_of(args, kwargs, out) if attrs_of else None))
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        """A span owned by the benchmark itself, e.g. around spec building."""
        sid, parent = self._begin()
        op, start = self._op, time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, parent, op, name, start, time.perf_counter(), None))
            self._stack.pop()

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in TRACED_MODULES]
        for layer, spec in load_layers()["layers"].items():
            home = importlib.import_module(spec["module"])
            for attr, short in spec["functions"].items():
                original = getattr(home, attr)
                wrapped = self._wrap(f"{layer}.{short}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)


def load_layers() -> dict:
    with open(LAYERS_PATH) as fh:
        return json.load(fh)


# -- span file -----------------------------------------------------------------

def write(path: Path, header: dict, passes: list[dict], spans: list[tuple]) -> None:
    """One JSON record per line: the header, each pass, then each span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "header", **header}) + "\n")
        for rec in passes:
            fh.write(json.dumps({"kind": "pass", **rec}) + "\n")
        for sid, parent, op, name, start, end, attrs in spans:
            rec = {"kind": "span", "id": sid, "parent": parent, "op": op,
                   "name": name, "start": start, "end": end}
            if attrs:
                rec.update(attrs)
            fh.write(json.dumps(rec) + "\n")


def read(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# -- per-layer metrics -----------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(records: list[dict]) -> dict:
    """Every per-layer metric, computed from the records of one span file.

    A span's self time is its duration minus the durations of its children.
    """
    spans = [r for r in records if r["kind"] == "span"]
    walls = {r["traced"]: r["wall_s"] for r in records if r["kind"] == "pass"}
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        children[s["parent"]].append(s)
    for s in spans:
        s["self"] = s["dur"] - sum(c["dur"] for c in children[s["id"]])

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(items, key):
        return sum(s.get(key, 0) for s in items)

    def parent_is(s, name):
        return s["parent"] in by_id and by_id[s["parent"]]["name"] == name

    def under(s, name):
        while s["parent"]:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return True
        return False

    m: dict = {}
    for layer in load_layers()["layers"]:
        m[f"{layer}.self_s"] = sum(s["self"] for s in spans
                                   if s["name"].split(".")[0] == layer)

    wp = named("elliptic.wp")
    m["elliptic.wp.calls"] = len(wp)
    m["elliptic.wp.points"] = total(wp, "points")
    m["elliptic.wp.self_s"] = total(wp, "self")

    ev = named("potential.evaluate_potential")
    m["potential.evaluate_potential.calls"] = len(ev)
    m["potential.evaluate_potential.self_s"] = total(ev, "self")
    m["potential.spec_build_s"] = total(named("potential.spec_build"), "dur")

    chain = named("kdv_spectral.kdv_chain")
    m["kdv_spectral.kdv_chain.calls"] = len(chain)
    m["kdv_spectral.kdv_chain.self_s"] = total(chain, "self")
    m["kdv_spectral.kdv_chain.k_cut_sum"] = total(chain, "k_cut")
    m["kdv_spectral.spectral_polynomial.self_s"] = total(
        named("kdv_spectral.spectral_polynomial"), "self")
    m["kdv_spectral.spectral_roots.self_s"] = total(named("kdv_spectral.spectral_roots"), "self")

    # adaptive transport: one potential evaluation per attempted step
    db = named("floquet.discriminant_batch")
    steps = {s["id"]: sum(c["name"] == "potential.evaluate_potential"
                          for c in children[s["id"]]) for s in db}
    e_steps = sum(s.get("E_points", 0) * steps[s["id"]] for s in db)
    m["floquet.discriminant_batch.calls"] = len(db)
    m["floquet.discriminant_batch.E_points"] = total(db, "E_points")
    m["floquet.discriminant_batch.self_s"] = total(db, "self")
    m["floquet.transport_steps"] = sum(steps.values())
    m["floquet.E_steps"] = e_steps
    m["floquet.ns_per_E_step"] = 1e9 * _ratio(total(db, "dur"), e_steps)

    scan = named("floquet.periodic_eigenvalues_on_interval")
    scan_points = sum(s.get("E_points", 0) for s in db
                      if under(s, "floquet.periodic_eigenvalues_on_interval"))
    hits = total(scan, "hits")
    m["floquet.periodic_eigenvalues_on_interval.calls"] = len(scan)
    m["floquet.periodic_eigenvalues_on_interval.self_s"] = total(scan, "self")
    m["floquet.periodic_eigenvalues_on_interval.E_points"] = scan_points
    mult = named("floquet.multiplicity_estimate")
    m["floquet.multiplicity_estimate.calls"] = len(mult)
    m["floquet.multiplicity_estimate.self_s"] = total(mult, "self")
    m["floquet.hits"] = hits
    m["floquet.E_points_per_hit"] = _ratio(scan_points, hits)
    fixed = named("floquet.fixed_transport")
    m["floquet.fixed_transport.E_points"] = total(fixed, "E_points")
    m["floquet.fixed_transport.self_s"] = total(fixed, "self")

    # adjudication: Delta calls made directly by classify_spectrum
    cs = named("spectrum.classify_spectrum")
    adj = [s for s in db if parent_is(s, "spectrum.classify_spectrum")]
    adjudicating = [s for s in cs if any(c["name"] == "floquet.discriminant_batch"
                                         for c in children[s["id"]])]
    changed = [s for s in adjudicating
               if any(c["name"] == "kdv_spectral.spectral_roots"
                      and c.get("roots") != s.get("roots") for c in children[s["id"]])]
    no_condition = [s for s in cs if s.get("no_condition")]
    unresolved = [s for s in no_condition if any(r[2] == 2 for r in s.get("roots", ()))]
    m["spectrum.classify_spectrum.calls"] = len(cs)
    m["spectrum.classify_spectrum.self_s"] = total(cs, "self")
    m["spectrum.adjudication_s"] = total(adj, "dur")
    m["spectrum.adjudication_E_points"] = total(adj, "E_points")
    m["spectrum.adjudicated_frac"] = _ratio(len(adjudicating), len(cs))
    m["spectrum.adjudication_changed_frac"] = _ratio(len(changed), len(adjudicating))
    m["spectrum.unresolved_frac"] = _ratio(len(unresolved), len(no_condition))

    m["spectrum.gap_eigenvalue_report.self_s"] = total(named("spectrum.gap_eigenvalue_report"), "self")
    m["spectrum.verify_theorems.self_s"] = total(named("spectrum.verify_theorems"), "self")

    arcs = named("spectrum.stability_region")
    polish = [s for s in db if parent_is(s, "spectrum.stability_region")]
    candidates = sum(max((c.get("E_points", 0) for c in children[s["id"]]
                          if c["name"] == "floquet.discriminant_batch"), default=0)
                     for s in arcs)
    m["spectrum.stability_region.self_s"] = total(arcs, "self")
    m["spectrum.arc_grid_points"] = total(arcs, "grid_points")
    m["spectrum.arc_polish_E_points"] = total(polish, "E_points")
    m["spectrum.arc_keep_ratio"] = _ratio(total(arcs, "arc_points"), candidates)

    m["trace.overhead_s"] = walls[True] - walls[False]
    return m
