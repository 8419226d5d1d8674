"""Command-line front end: one subcommand per pipeline stage.

Every command is deterministic (identical invocations produce byte-identical
output).  Exit codes: 0 success/verified, 1 usage error, 2 numeric failure,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import _serialize as ser
from .errors import DiscriminantOverflow, HillbandError
from .floquet import IntegratorSettings, monodromy
from .kdv_spectral import poly_discriminant, spectral_polynomial, spectral_roots
from .potential import MultiplicityVector, PotentialSpec, classify
from .spectrum import (
    classify_spectrum,
    gap_eigenvalue_report,
    stability_region,
    verify_theorems,
)

TAU_IM_MIN = 0.3  # documented support floor for the nome series


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _parse_n(text: str) -> MultiplicityVector:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--n expects four comma-separated integers, got {text!r}")
    try:
        vals = [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--n: {exc}") from None
    try:
        return MultiplicityVector(*vals)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _finite_float(text: str) -> float:
    """A finite float; as an argparse type, failures become usage errors."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return val


def _finite_floats(parts: list[str], flag: str) -> list[float]:
    try:
        return [_finite_float(p) for p in parts]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _rtol(text: str) -> float:
    val = _finite_float(text)
    try:
        IntegratorSettings(rel_tol=val)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return val


def _parse_complex(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects re,im")
    re, im = _finite_floats(parts, flag)
    return complex(re, im)


def _spec_from_args(args) -> PotentialSpec:
    n = _parse_n(args.n)
    if getattr(args, "tau_full", None):
        tau = _parse_complex(args.tau_full, "--tau-full")
    else:
        if args.tau < TAU_IM_MIN:
            raise UsageError(f"--tau must be >= {TAU_IM_MIN} (documented floor)")
        tau = complex(0.0, args.tau)
    z0 = _parse_complex(args.z0, "--z0") if args.z0 else None
    return PotentialSpec.elliptic(n, tau, z0)


def _settings_from_args(args) -> IntegratorSettings:
    rtol = 1e-12 if args.rtol is None else args.rtol
    return IntegratorSettings(rel_tol=rtol)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser, formats: tuple = ("json",),
                integrator: bool = True) -> None:
    p.add_argument("--n", required=True, help="multiplicities n0,n1,n2,n3")
    p.add_argument("--tau", type=_finite_float, default=1.0,
                   help="imaginary part of tau (tau = i*b)")
    p.add_argument("--tau-full", default=None, help=argparse.SUPPRESS)
    p.add_argument("--z0", default=None,
                   help="base point re,im (default tau/4); must keep z0 + [0, 1] "
                        "clear of the poles, but every answer is computed on "
                        "tau/4 + [0, 1]")
    if integrator:
        p.add_argument("--rtol", type=_rtol, default=None, help="integrator rel tol")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> _Parser:
    parser = _Parser(prog="hillband",
                     description="Band/gap spectra of complex Hill operators "
                                 "with Darboux-Treibich-Verdier potentials")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="classification of a multiplicity vector")
    p.add_argument("--n", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("disc", help="Hill discriminant Delta(E)")
    _add_common(p)
    p.add_argument("--E", required=True, help="energy re,im")

    p = sub.add_parser("qpoly", help="spectral polynomial Q(E)")
    _add_common(p, integrator=False)  # Q never runs the integrator

    p = sub.add_parser("spectrum", help="band/complex-pair spectrum report")
    _add_common(p)

    p = sub.add_parser("gaps", help="per-interval (anti)periodic eigenvalues")
    _add_common(p)

    p = sub.add_parser("arcs", help="stability arcs in the complex E plane")
    _add_common(p, formats=("csv", "json"))
    p.add_argument("--window", required=True, help="re0,re1,im0,im1")
    p.add_argument("--res", type=int, default=512)

    p = sub.add_parser("verify", help="theorem verification verdict")
    _add_common(p)

    p = sub.add_parser("scan", help="per-tau rows: roots, disc Q, gap counts")
    _add_common(p, formats=("csv", "json"))
    p.add_argument("--tau-list", required=True, help="comma-separated Im tau")
    p.add_argument("--gaps", action="store_true",
                   help="also count interior gap eigenvalues")

    return parser


def _cmd_info(args) -> int:
    n = _parse_n(args.n)
    cls = classify(n)
    _emit(args, ser.dumps(cls.to_json_dict(n)) + "\n")
    return 0


def _cmd_disc(args) -> int:
    spec = _spec_from_args(args)
    e = _parse_complex(args.E, "--E")
    m = monodromy(spec, e, _settings_from_args(args))
    # |det M - 1| relative to s^2, s = max(1, max |m_ij|), from M / s: the
    # products in det M cancel long before they overflow, and s^2 would
    # overflow long before M does
    s = max(1.0, abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22))
    a, b, c, d = m.m11 / s, m.m12 / s, m.m21 / s, m.m22 / s
    out = {
        "n": list(spec.n.as_tuple()),
        "tau_im": spec.torus.tau.imag,
        "E": [e.real, e.imag],
        "delta": [m.trace.real, m.trace.imag],
        "det_defect": abs(a * d - b * c - 1.0 / s / s),
    }
    _emit(args, ser.dumps(out) + "\n")
    return 0


def _qpoly_dict(spec) -> dict:
    poly = spectral_polynomial(spec)
    d = poly.to_json_dict()
    d["roots"] = [
        {"re": r.value.real, "im": r.value.imag, "mult": r.multiplicity,
         "real": r.is_real}
        for r in spectral_roots(poly)
    ]
    return d


def _cmd_qpoly(args) -> int:
    spec = _spec_from_args(args)
    _emit(args, ser.dumps(_qpoly_dict(spec)) + "\n")
    return 0


def _cmd_spectrum(args) -> int:
    spec = _spec_from_args(args)
    report = classify_spectrum(spec, _settings_from_args(args))
    _emit(args, ser.dumps(report.to_json_dict()) + "\n")
    return 0


def _cmd_gaps(args) -> int:
    spec = _spec_from_args(args)
    report = gap_eigenvalue_report(spec, _settings_from_args(args))
    _emit(args, ser.dumps(report.to_json_dict()) + "\n")
    return 0


def _cmd_arcs(args) -> int:
    spec = _spec_from_args(args)
    parts = args.window.split(",")
    if len(parts) != 4:
        raise UsageError("--window expects re0,re1,im0,im1")
    window = tuple(_finite_floats(parts, "--window"))
    if window[0] == window[1] or window[2] == window[3]:
        raise UsageError("--window must have nonzero width and height")
    if not 2 <= args.res <= 2048:
        raise UsageError("--res must be between 2 and 2048")
    arcs = stability_region(spec, window, args.res, _settings_from_args(args))
    if not arcs.polylines:
        # a window that meets no arc is a correct, empty answer
        sys.stderr.write(f"note: no arc points in window {args.window}\n")
    if args.format == "json":
        out = {
            "window": list(window),
            "resolution": arcs.resolution,
            "arc_tol": arcs.arc_tol,
            "polylines": [poly.tolist() for poly in arcs.polylines],
        }
        _emit(args, ser.dumps(out) + "\n")
    else:
        lines = ["arc_id,re_E,im_E,re_Delta"]
        lines += [ser.csv_line(row) for row in arcs.to_csv_rows()]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    verdict = verify_theorems(spec, _settings_from_args(args))
    _emit(args, ser.dumps(verdict) + "\n")
    return 0 if verdict["all_pass"] else 3


def _scan_row(spec, with_gaps: bool, settings: IntegratorSettings) -> list:
    report = classify_spectrum(spec, settings)
    try:
        disc = poly_discriminant(report.polynomial)
        disc_re, disc_im = disc.real, disc.imag
    except DiscriminantOverflow:
        disc_re = disc_im = "n/a"
    values = report.root_values.tolist()
    flat = [x for v in values for x in (v.real, v.imag)]
    n_complex = sum(v.imag != 0.0 for v in values)
    gap_counts = ""
    if with_gaps:
        try:
            gap_counts = ";".join(
                str(c) for c in gap_eigenvalue_report(spec, settings, report).counts())
        except HillbandError:
            gap_counts = "n/a"
    return [spec.torus.tau.imag, report.all_real_distinct,
            n_complex // 2, disc_re, disc_im, gap_counts] + flat


def _cmd_scan(args) -> int:
    n = _parse_n(args.n)
    taus = _finite_floats([t for t in args.tau_list.split(",") if t], "--tau-list")
    if not taus:
        raise UsageError("--tau-list is empty")
    for b in taus:
        if b < TAU_IM_MIN:
            raise UsageError(f"--tau-list entries must be >= {TAU_IM_MIN}")
    z0 = _parse_complex(args.z0, "--z0") if args.z0 else None
    settings = _settings_from_args(args)
    rows = [_scan_row(PotentialSpec.elliptic(n, complex(0.0, b), z0), args.gaps,
                      settings) for b in taus]

    header = ["tau_im", "all_real_distinct", "num_complex_pairs",
              "disc_re", "disc_im", "gap_counts"]
    nroots = (len(rows[0]) - 6) // 2
    header += [f"root{j}_{p}" for j in range(nroots) for p in ("re", "im")]
    if args.format == "json":
        out = [dict(zip(header, row)) for row in rows]
        _emit(args, ser.dumps(out) + "\n")
    else:
        lines = [",".join(header)] + [ser.csv_line(r) for r in rows]
        _emit(args, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "disc": _cmd_disc,
    "qpoly": _cmd_qpoly,
    "spectrum": _cmd_spectrum,
    "gaps": _cmd_gaps,
    "arcs": _cmd_arcs,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except HillbandError as exc:
        sys.stderr.write(f"numeric failure: {type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
