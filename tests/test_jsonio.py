import copy
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3zeta import jsonio
from k3zeta.errors import InputError, K3ZetaError
from k3zeta.frames import random_compatible_frame
from k3zeta.lattices import (
    build_standard_lattice,
    enriques_involution,
)
from k3zeta.models import (
    flat_torus_curve,
    flat_torus_spectrum,
    round_sphere_curve,
    round_sphere_spectrum,
)
from k3zeta.periods import period_of
from k3zeta.spectral import EquivariantSpectrum, HeatTail, zeta_values

I2 = ((1, 0), (0, 1))


def test_canonical_form_is_sorted_and_compact():
    text = jsonio.canonical_dumps({"b": 1.5, "a": True, "c": [1, 2.0, "x"]})
    assert text == '{"a":true,"b":1.5,"c":[1,2,"x"]}'
    assert jsonio.canonical_dumps(0.1) == "0.10000000000000001"
    assert jsonio.canonical_dumps(1.0) == "1"
    assert jsonio.canonical_dumps(-0.0) == "-0"


def test_canonical_rejects_non_finite_and_bad_keys():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            jsonio.canonical_dumps({"x": [bad]})
    with pytest.raises(InputError):
        jsonio.canonical_dumps({1: "x"})
    with pytest.raises(InputError):
        jsonio.canonical_dumps({"x": object()})


def test_an_output_integer_past_the_str_limit_is_an_input_error():
    # the Hadamard cap of `lattices` keeps every integer the command line
    # prints well under the limit, so only a direct call reaches it here
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(InputError) as info:
            jsonio.canonical_dumps({"determinant": [10**4300]})
    finally:
        sys.set_int_max_str_digits(old)
    assert str(info.value) == "output integer past the 4300-digit limit"


def test_loads_rejects_bad_json():
    with pytest.raises(InputError):
        jsonio.loads("{not json")
    with pytest.raises(InputError):
        jsonio.load_path("/nonexistent/file.json")


def test_lattice_and_isometry_roundtrip():
    invol = enriques_involution()
    lattice = invol.lattice
    lat2 = jsonio.decode_lattice(jsonio.encode_lattice(lattice))
    assert np.array_equal(np.asarray(lat2.gram), np.asarray(lattice.gram))
    wire = {"matrix": [list(r) for r in invol.matrix]}
    iso2 = jsonio.decode_isometry(wire, lattice)
    assert iso2 == invol
    with pytest.raises(InputError):
        jsonio.decode_lattice({"graam": [[2]]})
    u = build_standard_lattice("u")
    with pytest.raises(InputError):
        jsonio.decode_isometry(wire, u)


def test_frame_roundtrip_is_canonical():
    invol = enriques_involution()
    frame = random_compatible_frame(invol, np.random.default_rng(11))
    encoded = jsonio.encode_frame(frame)
    decoded = jsonio.decode_frame(encoded)
    assert jsonio.canonical_dumps(jsonio.encode_frame(decoded)) == (
        jsonio.canonical_dumps(encoded)
    )


def test_period_pair_shape():
    invol = enriques_involution()
    frame = random_compatible_frame(invol, np.random.default_rng(3))
    pair = period_of(frame, invol)
    obj = jsonio.encode_period_pair(pair)
    assert set(obj) == {"plus", "minus"}
    for key in ("plus", "minus"):
        point = obj[key]
        assert set(point) == {"re", "im"}
        # periods live in the anti-invariant coordinates, rank 12
        assert len(point["re"]) == len(point["im"]) == 12


def test_spectrum_roundtrip():
    for spectrum in (
        round_sphere_spectrum(l_max=6),
        flat_torus_spectrum(I2, character=(0, 0), cutoff=5.0),
    ):
        enc = jsonio.encode_spectrum(spectrum)
        dec = jsonio.decode_spectrum(enc)
        assert dec.entries == spectrum.entries
        assert dec.kernel == spectrum.kernel
        assert dec.cutoff == spectrum.cutoff
        assert dec.tail.straight == spectrum.tail.straight
        assert dec.tail.twisted == spectrum.tail.twisted
    free_tail = jsonio.encode_spectrum(round_sphere_spectrum(l_max=6))["tail"]
    assert free_tail["twisted"] == "free"


def test_complete_spectrum_omits_cutoff():
    synth = EquivariantSpectrum(((2.0, 1, 1),), (1, 1), HeatTail(0, (4.0,), (0.0,)))
    enc = jsonio.encode_spectrum(synth)
    assert "cutoff" not in enc
    dec = jsonio.decode_spectrum(enc)
    assert dec.complete and dec.cutoff == math.inf


def test_curve_roundtrip():
    curve = flat_torus_curve(((2, 1), (1, 3)), cutoff=8.0)
    enc = jsonio.encode_curve(curve)
    dec = jsonio.decode_curve(enc)
    assert dec == curve
    # the wire format keeps the plus sector only
    spec = enc["spectrum"]
    assert spec["kernel"] == 1
    assert spec["entries"] == [[lam, mp] for lam, mp, _ in curve.spectrum.entries]
    assert set(spec["tail"]) == {"dim", "straight"}


def test_decode_curve_validates():
    enc = jsonio.encode_curve(round_sphere_curve(l_max=6))
    three = json.loads(json.dumps(enc))
    three["spectrum"]["entries"] = [e + [0] for e in three["spectrum"]["entries"]]
    for bad in (
        three,
        {"volume": 1.0, "spectrum": {**enc["spectrum"], "entries": [5.0]}},
        {"volume": 1.0, "spectrum": {**enc["spectrum"], "kernel": [1, 0]}},
        {"volume": 1.0, "spectrum": {**enc["spectrum"], "cutoff": "far"}},
    ):
        with pytest.raises(InputError):
            jsonio.decode_curve(bad)


def test_decode_spectrum_validates():
    enc = jsonio.encode_spectrum(round_sphere_spectrum(l_max=6))
    broken = dict(enc)
    del broken["tail"]
    with pytest.raises(InputError):
        jsonio.decode_spectrum(broken)
    with pytest.raises(InputError):
        jsonio.decode_spectrum({"entries": "nope", "kernel": [1, 0], "tail": enc["tail"]})


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["free", "1", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=24,
)
# valid encodings of each wire shape: the complete synthetic spectrum has
# 1 + 0 + 5 + 3 = 9 states and a signed count of 1 - 0 + 5 - 3 = 3
_VALID = [
    jsonio.encode_spectrum(round_sphere_spectrum(l_max=30)),
    jsonio.encode_spectrum(flat_torus_spectrum(I2, (1, 0), 20.0)),
    jsonio.encode_spectrum(
        EquivariantSpectrum(
            ((0.5, 3, 1), (2.0, 2, 2)), (1, 0), HeatTail(0, (9.0,), (3.0,))
        )
    ),
    jsonio.encode_curve(flat_torus_curve(I2, 20.0)),
    {
        "form": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, -2]],
        "gammas": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    },
    {"gram": [[0, 1], [1, 0]], "matrix": [[0, 1], [1, 0]]},
]


@st.composite
def _mutated(draw):
    """A valid encoding with up to two values replaced by a small number or
    an arbitrary JSON value, mostly at the leaves."""
    obj = copy.deepcopy(draw(st.sampled_from(_VALID)))
    for _ in range(draw(st.integers(0, 2))):
        parent, key, node = None, None, obj
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        if parent is not None:
            parent[key] = draw(st.integers(-1, 5) | st.floats(-1.0, 100.0) | _JSON)
    return obj


def _decoded(decode, obj):
    try:
        return decode(obj)
    except K3ZetaError:
        return None


@settings(max_examples=200, deadline=None)
@given(obj=_JSON | _mutated())
def test_decoders_refuse_any_json_value_with_a_typed_error(obj):
    # any JSON value either decodes or is refused with the package's own
    # error, and a decoded spectrum either continues or is refused likewise
    lattice = _decoded(jsonio.decode_lattice, obj) or build_standard_lattice("u")
    _decoded(jsonio.decode_frame, obj)
    _decoded(lambda o: jsonio.decode_isometry(o, lattice), obj)
    spectra = [_decoded(jsonio.decode_spectrum, obj)]
    curve = _decoded(jsonio.decode_curve, obj)
    spectra.append(curve and curve.spectrum)
    for spectrum in filter(None, spectra):
        _decoded(lambda s: zeta_values(s, 1e-8), spectrum)
