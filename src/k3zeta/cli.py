"""Command line front end.

Subcommands:

  lattice     invariants of a lattice (builtin name or JSON file)
  involution  eigenlattice invariants of an involutive lattice isometry
  period      period pair and component labels of a compatible frame
  zeta        signed and Dolbeault zeta values of an equivariant spectrum
  tau         the torsion invariant, with optional fixed-curve data
  report      norm bookkeeping from an already computed tau value

All output is canonical JSON on stdout (or --out FILE): identical inputs
produce byte-identical reports. Exit codes: 0 success, 2 invalid input,
3 requested accuracy not reachable, 4 geometric precondition failed.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import jsonio, lattices, models, spectral
from .errors import AccuracyError, GeometryError, InputError
from .frames import DEFAULT_TOL
from .mellin import ContinuationResult
from .periods import period_of

_LATTICE_BUILTINS = ("u", "e8(-1)", "k3")


def _load_lattice(args) -> lattices.Lattice:
    if args.builtin:
        return lattices.build_standard_lattice(args.builtin)
    if args.infile:
        return jsonio.decode_lattice(jsonio.load_path(args.infile))
    raise InputError("give either --builtin or --in")


def _load_spectrum(args) -> spectral.EquivariantSpectrum:
    if args.builtin:
        spec = models.build_model_spectrum(args.builtin)
    elif args.spectrum:
        spec = jsonio.decode_spectrum(jsonio.load_path(args.spectrum))
    else:
        raise InputError("give either --builtin or --spectrum")
    if args.max_terms is not None:
        spec = spectral.truncate_entries(spec, args.max_terms)
    return spec


def _zeta_dict(r: ContinuationResult) -> dict:
    return {
        "zeta_at_0": r.zeta_at_0,
        "zeta_prime_at_0": r.zeta_prime_at_0,
        "error_estimate": r.error_estimate,
    }


def _emit(args, obj) -> None:
    text = jsonio.canonical_dumps(obj)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (args.out, exc)) from None
    else:
        sys.stdout.write(text + "\n")


def cmd_lattice(args) -> None:
    lat = _load_lattice(args)
    pos, neg = lat.signature()
    det = lat.det()
    _emit(
        args,
        {
            "rank": lat.rank,
            "signature": [pos, neg],
            "determinant": det,
            "even": lat.is_even(),
            "unimodular": abs(det) == 1,
            "gram": [list(r) for r in lat.gram],
        },
    )


def _eigenlattice_dict(sub: lattices.SublatticeBasis) -> dict:
    pos, neg = sub.induced_lattice().signature()
    info = lattices.discriminant_info(sub)
    return {
        "rank": sub.rank,
        "signature": [pos, neg],
        "divisors": list(info.divisors),
        "a_invariant": info.a_invariant,
        "two_elementary": info.two_elementary,
        "hyperbolic": lattices.is_hyperbolic_type(sub),
    }


def cmd_involution(args) -> None:
    if args.builtin:
        if args.builtin != "enriques":
            raise InputError(
                "unknown builtin involution %r (available: enriques)" % args.builtin
            )
        iso = lattices.enriques_involution()
    else:
        if not (args.lattice and args.matrix):
            raise InputError("give --builtin or both --lattice and --matrix")
        lat = jsonio.decode_lattice(jsonio.load_path(args.lattice))
        iso = jsonio.decode_isometry(jsonio.load_path(args.matrix), lat)
    if not iso.is_involution:
        raise InputError("matrix squared is not the identity")
    plus = lattices.eigenlattice(iso, +1)
    minus = lattices.eigenlattice(iso, -1)
    _emit(
        args,
        {
            "trace": iso.trace(),
            "plus": _eigenlattice_dict(plus),
            "minus": _eigenlattice_dict(minus),
        },
    )


def cmd_period(args) -> None:
    frame = jsonio.decode_frame(jsonio.load_path(args.frame))
    if args.involution == "enriques":
        iso = lattices.enriques_involution()
    else:
        iso = jsonio.decode_isometry(
            jsonio.load_path(args.involution), lattices.Lattice(frame.form.tolist())
        )
    marking = None
    if args.marking:
        marking = jsonio.decode_isometry(
            jsonio.load_path(args.marking), iso.lattice
        )
    pair = period_of(frame, iso, marking, tol=args.tol)
    out = jsonio.encode_period_pair(pair)
    out["labels"] = list(pair.labels())
    _emit(args, out)


def cmd_zeta(args) -> None:
    spec = _load_spectrum(args)
    plus, minus, (q0, q1, q2) = spectral.zeta_values(spec, args.tol)
    _emit(
        args,
        {
            "plus": _zeta_dict(plus),
            "minus": _zeta_dict(minus),
            "dolbeault": {
                "q0": _zeta_dict(q0),
                "q1": _zeta_dict(q1),
                "q2": _zeta_dict(q2),
            },
        },
    )


def cmd_tau(args) -> None:
    spec = _load_spectrum(args)
    curves = None
    if args.curves:
        data = jsonio.load_path(args.curves)
        if not isinstance(data, list):
            raise InputError("curves file must hold a JSON list")
        curves = tuple(jsonio.decode_curve(c) for c in data)
    tau = spectral.tau_iota(spec, curves, args.tol)
    br = spectral.borcherds_report(tau.value, args.nu)
    out = {
        "tau": tau.value,
        "error_estimate": tau.error_estimate,
        "log_tau": tau.log_value,
        "determinant": {
            "value": tau.determinant.value,
            "error_estimate": tau.determinant.error_estimate,
        },
        "curve_factors": list(tau.curve_factors),
        "borcherds": _borcherds_dict(br),
    }
    _emit(args, out)


def _borcherds_dict(br: spectral.BorcherdsReport) -> dict:
    out = {
        "tau": br.tau,
        "nu": br.nu,
        "implied_norm": br.implied_norm,
        "round_trip_tau": br.round_trip_tau,
    }
    if br.implied_determinant_factor is not None:
        out["implied_determinant_factor"] = br.implied_determinant_factor
    if br.determinant_with_constant is not None:
        out["determinant_with_constant"] = br.determinant_with_constant
    return out


def cmd_report(args) -> None:
    br = spectral.borcherds_report(args.tau, args.nu, args.constant)
    _emit(args, _borcherds_dict(br))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report to this file")


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            "expected a positive finite number, got %r" % text
        )
    return tol


def _add_tol(p: argparse.ArgumentParser, default: float) -> None:
    p.add_argument(
        "--tol",
        type=_tolerance,
        default=default,
        help="accuracy target (default %g)" % default,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3zeta",
        description="lattice, period, and equivariant zeta computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="invariants of a lattice")
    p.add_argument("--builtin", choices=_LATTICE_BUILTINS)
    p.add_argument("--in", dest="infile", help="lattice JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("involution", help="eigenlattice invariants")
    p.add_argument("--builtin", help="builtin involution (enriques)")
    p.add_argument("--lattice", help="lattice JSON file")
    p.add_argument("--matrix", help="isometry JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_involution)

    p = sub.add_parser("period", help="period pair of a compatible frame")
    p.add_argument("--frame", required=True, help="frame JSON file")
    p.add_argument(
        "--involution",
        required=True,
        help="isometry JSON file, or the builtin name enriques",
    )
    p.add_argument("--marking", help="marking isometry JSON file")
    _add_tol(p, DEFAULT_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_period)

    for name, fn, help_text in (
        ("zeta", cmd_zeta, "zeta values of an equivariant spectrum"),
        ("tau", cmd_tau, "torsion invariant of an equivariant spectrum"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spectrum", help="spectrum JSON file")
        p.add_argument(
            "--builtin",
            help="builtin model (%s)" % ", ".join(models.builtin_model_names()),
        )
        p.add_argument(
            "--max-terms",
            type=int,
            default=None,
            help="use at most this many spectrum entries",
        )
        _add_tol(p, 1e-8)
        if name == "tau":
            p.add_argument("--curves", help="fixed-curve JSON file (a list)")
            p.add_argument("--nu", type=int, default=1)
        _add_common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("report", help="norm bookkeeping from a tau value")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--nu", type=int, default=1)
    p.add_argument("--constant", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except AccuracyError as exc:
        print("accuracy error: %s" % exc, file=sys.stderr)
        return 3
    except GeometryError as exc:
        print("geometry error: %s" % exc, file=sys.stderr)
        return 4
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
