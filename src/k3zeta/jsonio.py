"""Canonical JSON encoding of the package's objects.

Serialization is deterministic down to the byte: keys sorted, floats
rendered with '%.17g' (which round-trips doubles exactly), no incidental
whitespace. Non-finite floats are rejected, with one deliberate exception:
a complete spectrum has no cutoff, and its encoding simply omits the key.

Wire shapes:

  lattice     {"gram": [[int]]}
  isometry    {"matrix": [[int]]}          (lattice supplied by context)
  frame       {"form": [[num]], "gammas": [[num]] (3 rows)}
  period      {"re": [num], "im": [num]}
  pair        {"plus": period, "minus": period}
  spectrum    {"entries": [[lam, m_plus, m_minus]], "kernel": [k+, k-],
               "tail": {"dim": n, "straight": [num],
                        "twisted": "free" | [num]},
               "cutoff": num (omitted when complete)}
  curve       {"volume": num, "spectrum": {"entries": [[lam, m]],
               "kernel": k, "tail": {"dim": n, "straight": [num]},
               "cutoff": num (omitted when complete)}}
  curves      [curve]

A curve's spectrum is the spectrum format without its minus sector. It is
put back (entries (lam, m, 0), kernel (k, 0), twisted tail = straight) for
`decode_spectrum`, and `CurveComponent` checks the result as a curve.
"""

from __future__ import annotations

import json
import math

from . import frames as frames_mod
from . import lattices
from .errors import InputError
from .spectral import CurveComponent, EquivariantSpectrum, HeatTail


def _emit(x, out: list) -> None:
    if isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(str(x))
    elif isinstance(x, float):
        if not math.isfinite(x):
            raise InputError("non-finite numbers cannot be serialized")
        out.append("%.17g" % x)
    elif isinstance(x, str):
        out.append(json.dumps(x, ensure_ascii=True))
    elif isinstance(x, (list, tuple)):
        out.append("[")
        for i, item in enumerate(x):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(x, dict):
        out.append("{")
        for i, key in enumerate(sorted(x)):
            if not isinstance(key, str):
                raise InputError("object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _emit(x[key], out)
        out.append("}")
    else:
        raise InputError("cannot serialize %r" % type(x).__name__)


def canonical_dumps(obj) -> str:
    out: list = []
    _emit(obj, out)
    return "".join(out)


def loads(text: str):
    try:
        return json.loads(text)
    # JSONDecodeError, an over-long integer literal, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InputError("invalid JSON: %s" % exc) from None


def load_path(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    return loads(text)


def _require(obj, key, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError("expected an object with a %r field" % key)
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise InputError("field %r has the wrong type" % key)
    return val


# -- lattices ---------------------------------------------------------------


def encode_lattice(lat: lattices.Lattice) -> dict:
    return {"gram": [list(r) for r in lat.gram]}


def decode_lattice(obj) -> lattices.Lattice:
    return lattices.Lattice(_require(obj, "gram", list))


def decode_isometry(obj, lattice: lattices.Lattice) -> lattices.LatticeIsometry:
    return lattices.LatticeIsometry(lattice, _require(obj, "matrix", list))


# -- frames and periods -----------------------------------------------------


def encode_frame(frame: frames_mod.HKFrame) -> dict:
    return {
        "form": [[float(x) for x in row] for row in frame.form],
        "gammas": [[float(x) for x in row] for row in frame.gammas],
    }


def decode_frame(obj) -> frames_mod.HKFrame:
    return frames_mod.HKFrame(
        _require(obj, "form", list), _require(obj, "gammas", list)
    )


def encode_period_point(p) -> dict:
    return {"re": p.coords.real.tolist(), "im": p.coords.imag.tolist()}


def encode_period_pair(pair) -> dict:
    return {
        "plus": encode_period_point(pair.plus),
        "minus": encode_period_point(pair.minus),
    }


# -- spectra ----------------------------------------------------------------


def _encode_tail(tail: HeatTail) -> dict:
    return {
        "dim": tail.dim,
        "straight": [float(c) for c in tail.straight],
        "twisted": "free" if tail.twisted is None else [float(c) for c in tail.twisted],
    }


def _decode_tail(obj) -> HeatTail:
    dim = _require(obj, "dim", int)
    straight = _require(obj, "straight", list)
    twisted = _require(obj, "twisted")
    if twisted == "free":
        twisted = None
    elif not isinstance(twisted, list):
        raise InputError('tail "twisted" must be "free" or a coefficient list')
    return HeatTail(dim, straight, twisted)


def encode_spectrum(spec: EquivariantSpectrum) -> dict:
    out = {
        "entries": [[lam, mp, mm] for lam, mp, mm in spec.entries],
        "kernel": list(spec.kernel),
        "tail": _encode_tail(spec.tail),
    }
    if math.isfinite(spec.cutoff):
        out["cutoff"] = float(spec.cutoff)
    return out


def decode_spectrum(obj) -> EquivariantSpectrum:
    return EquivariantSpectrum(
        _require(obj, "entries", list),
        _require(obj, "kernel", list),
        _decode_tail(_require(obj, "tail", dict)),
        obj.get("cutoff", math.inf),
    )


def encode_curve(curve: CurveComponent) -> dict:
    spec = encode_spectrum(curve.spectrum)
    spec["entries"] = [e[:2] for e in spec["entries"]]
    spec["kernel"] = spec["kernel"][0]
    del spec["tail"]["twisted"]
    return {"volume": curve.volume, "spectrum": spec}


def decode_curve(obj) -> CurveComponent:
    spec = dict(_require(obj, "spectrum", dict))
    entries = _require(spec, "entries", list)
    if not all(isinstance(e, list) and len(e) == 2 for e in entries):
        raise InputError("curve spectrum entries must be [eigenvalue, multiplicity]")
    tail = _require(spec, "tail", dict)
    spec.update(
        entries=[e + [0] for e in entries],
        kernel=[_require(spec, "kernel", int), 0],
        tail={**tail, "twisted": _require(tail, "straight", list)},
    )
    return CurveComponent(_require(obj, "volume", (int, float)), decode_spectrum(spec))


def decode_curves(obj) -> tuple[CurveComponent, ...]:
    """The fixed curves of a curves file: a JSON list of curves."""
    if not isinstance(obj, list):
        raise InputError("curves file must hold a JSON list")
    return tuple(map(decode_curve, obj))
