import argparse
import contextlib
import copy
import io
import json
import math
import os
import random
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3zeta import jsonio, spectral
from k3zeta.cli import build_parser, main
from k3zeta.errors import InputError
from k3zeta.frames import HKFrame, random_compatible_frame
from k3zeta.lattices import (
    BUILTIN_INVOLUTIONS,
    BUILTIN_LATTICES,
    MAX_BITS,
    MAX_RANK,
    Lattice,
    LatticeIsometry,
    enriques_involution,
)
from k3zeta.models import (
    BUILTIN_MODELS,
    flat_torus_curve,
    flat_torus_spectrum,
    round_sphere_curve,
)
from k3zeta.periods import period_of
from k3zeta.spectral import (
    CurveComponent,
    EquivariantSpectrum,
    HeatTail,
    borcherds_report,
    truncate_entries,
    zeta_signed,
)

from fixtures import checked_continue_trace, run_python, seed_frame

I2 = ((1, 0), (0, 1))
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lattice_builtin(capsys):
    code, out, _ = run(capsys, ["lattice", "--builtin", "k3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 22
    assert obj["signature"] == [3, 19]
    assert obj["determinant"] == -1
    assert obj["even"] and obj["unimodular"]


def test_involution_builtin(capsys):
    code, out, _ = run(capsys, ["involution", "--builtin", "enriques"])
    assert code == 0
    obj = json.loads(out)
    assert obj["trace"] == -2
    assert obj["plus"]["rank"] == 10
    assert obj["plus"]["signature"] == [1, 9]
    assert obj["plus"]["divisors"] == [2] * 10
    assert obj["plus"]["a_invariant"] == 10
    assert obj["plus"]["two_elementary"] and obj["plus"]["hyperbolic"]
    assert obj["minus"]["rank"] == 12
    assert obj["minus"]["signature"] == [2, 10]
    assert obj["minus"]["a_invariant"] == 10


def test_period_command(tmp_path, capsys):
    invol = enriques_involution()
    frame = random_compatible_frame(invol, np.random.default_rng(5))
    path = tmp_path / "frame.json"
    path.write_text(jsonio.canonical_dumps(jsonio.encode_frame(frame)))
    code, out, _ = run(capsys, ["period", "--frame", str(path), "--involution", "enriques"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"plus", "minus", "labels"}
    assert sorted(obj["labels"]) == [-1, 1]


def test_period_rejects_incompatible_frame(tmp_path, capsys):
    base = seed_frame()
    v = np.zeros(22)
    v[6] = v[14] = 1.0
    tilted = np.vstack(
        [base.gammas[0], base.gammas[1], np.sqrt(3.0) * base.gammas[2] + v]
    )
    path = tmp_path / "bad.json"
    path.write_text(
        jsonio.canonical_dumps(jsonio.encode_frame(HKFrame(base.form, tilted)))
    )
    code, _, err = run(capsys, ["period", "--frame", str(path), "--involution", "enriques"])
    assert code == 4
    assert err.strip()


def test_zeta_builtin_and_out_file(tmp_path, capsys):
    code, out, _ = run(capsys, ["zeta", "--builtin", "s2-antipodal"])
    assert code == 0
    obj = json.loads(out)
    assert math.isclose(obj["plus"]["zeta_at_0"], -5.0 / 6.0, abs_tol=1e-9)
    assert math.isclose(obj["minus"]["zeta_at_0"], 1.0 / 6.0, abs_tol=1e-9)
    assert obj["dolbeault"]["q1"]["zeta_at_0"] == 0.0
    target = tmp_path / "report.json"
    code2, out2, _ = run(
        capsys, ["zeta", "--builtin", "s2-antipodal", "--out", str(target)]
    )
    assert code2 == 0
    assert target.read_text() == out


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exit_code(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run(capsys, ["lattice", "--builtin", "k3", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: cannot write")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "tau, constant",
    [(0.5, "nan"), (0.5, "inf"), (0.5, "-inf"), (0.5, "-1"), (0.5, "0"), (0.01, "1e308")],
)
def test_constant_must_be_positive_and_finite(capsys, tau, constant):
    with pytest.raises(InputError, match="constant"):
        borcherds_report(tau, 1, float(constant))
    argv = ["report", "--tau", str(tau), "--constant=" + constant]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    # refused as a bad constant, not later as an unserializable report
    assert err.startswith("input error: normalizing constant")
    assert "Traceback" not in err


def test_zeta_max_terms_matches_truncation(capsys):
    code, out, _ = run(
        capsys, ["zeta", "--builtin", "t2-flat", "--max-terms", "200"]
    )
    assert code == 0
    obj = json.loads(out)
    spectrum = truncate_entries(flat_torus_spectrum(I2, character=(1, 0)), 200)
    want = zeta_signed(spectrum, +1, 1e-8)
    assert obj["plus"]["zeta_at_0"] == want.zeta_at_0
    assert obj["plus"]["zeta_prime_at_0"] == want.zeta_prime_at_0


def test_tau_command(capsys):
    code, out, _ = run(capsys, ["tau", "--builtin", "s2-antipodal"])
    assert code == 0
    obj = json.loads(out)
    assert math.isclose(obj["tau"], 1.0 / math.pi**2, rel_tol=1e-9)
    assert math.isclose(obj["borcherds"]["implied_norm"], math.pi**4, rel_tol=1e-9)


def test_report_command(capsys):
    code, out, _ = run(capsys, ["report", "--tau", "0.25", "--nu", "1"])
    assert code == 0
    obj = json.loads(out)
    assert math.isclose(obj["implied_norm"], 16.0, rel_tol=1e-14)
    assert math.isclose(obj["round_trip_tau"], 0.25, rel_tol=1e-14)


def test_input_error_exit_code(capsys):
    code, err = exit_and_stderr(capsys, ["zeta", "--builtin", "no-such-model"])
    assert code == 2
    assert err.endswith(
        "k3zeta zeta: error: argument --builtin: invalid choice: 'no-such-model'"
        " (choose from 's2-antipodal', 't2-flat')\n"
    )
    code, _, err = run(capsys, ["lattice", "--in", "/nonexistent.json"])
    assert code == 2


_SPECTRUM = {
    "entries": [[1.0, 2, 1], [2.0, 1, 0]],
    "kernel": [1, 0],
    "tail": {"dim": 0, "straight": [5.0], "twisted": [3.0]},
}

_TRUNCATED = {
    "tail": {"dim": 2, "straight": [1.0, 0.0, 0.0], "twisted": "free"},
    "cutoff": 3.0,
}


@pytest.mark.parametrize(
    "change",
    [
        {"entries": [[1.0, 2, 1], [math.inf, 1, 0]]},
        {"entries": [[math.nan, 2, 1], [2.0, 1, 0]]},
        {"entries": [[1.0, 2.5, 1], [2.0, 1, 0]]},
        {"kernel": [1]},
        {"kernel": [1, 0, 0]},
        {"tail": {"dim": 0, "straight": [math.nan], "twisted": [3.0]}},
        {"tail": {"dim": 0, "straight": [5.0], "twisted": "free"}},
        {"entries": [[1.0, 2, 1], [2.0, True, 0]]},
        # counts that float() cannot hold: a 401-digit JSON integer
        {"entries": [[1.0, 10**400, 1], [2.0, 1, 0]]},
        {**_TRUNCATED, "entries": [[1.0, 10**400, 1], [2.0, 1, 0]]},
        {**_TRUNCATED, "kernel": [10**400, 0]},
        # a complete spectrum's encoding has no cutoff key
        {"cutoff": "abc"},
        {"cutoff": None},
        {"cutoff": True},
        {"cutoff": -1},
        {"cutoff": 5.0},
        # each count fits a float, the complete spectrum's total does not
        {"entries": [[1.0, 10**308, 0], [2.0, 10**308, 0]]},
        # the same total in a truncated spectrum would overflow its heat trace
        {**_TRUNCATED, "entries": [[1.0, 10**308, 0], [2.0, 10**308, 0]]},
        # the straight constant is within 1e-9 of the 10**9 + 1 states, but
        # the plus sector's (straight + twisted) / 2 = 1.25 misses its 1 state
        {
            "entries": [[1.0, 1, 0]],
            "kernel": [0, 10**9],
            "tail": {"dim": 0, "straight": [10**9 + 1.5], "twisted": [1 - 10**9]},
        },
    ],
)
def test_malformed_spectrum_file_exit_code(tmp_path, capsys, change):
    obj = {**_SPECTRUM, **change}
    # refused when the file is decoded, before any continuation runs
    with pytest.raises(InputError):
        jsonio.decode_spectrum(obj)
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["zeta", "--spectrum", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err
    assert "Warning" not in err


def test_accuracy_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        ["zeta", "--builtin", "s2-antipodal", "--max-terms", "3", "--tol", "1e-10"],
    )
    assert code == 3
    assert "tol" in err or "tolerance" in err


def test_cli_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["tau", "--builtin", "t2-flat"])
    _, second, _ = run(capsys, ["tau", "--builtin", "t2-flat"])
    assert first == second


def exit_and_stderr(capsys, argv):
    """main's return code, or the code argparse exits with, and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "gram",
    [
        "[[1e400]]",
        "[[NaN]]",
        '[["a"]]',
        "[[null]]",
        "[1]",
        "[[true]]",
        # over Python's 4300-digit limit: json raises a plain ValueError
        pytest.param("[[%s]]" % ("9" * 5000), id="long-integer"),
    ],
)
def test_non_integer_lattice_file_exit_code(tmp_path, capsys, gram):
    path = tmp_path / "lattice.json"
    path.write_text('{"gram": %s}' % gram)
    code, err = exit_and_stderr(capsys, ["lattice", "--in", str(path)])
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err


# 1e308 at an E8 coordinate makes the pairing v @ form @ v^T overflow
@pytest.mark.parametrize("bad", ["x", None, math.nan, math.inf, 1e308])
def test_non_finite_frame_file_exit_code(tmp_path, capsys, bad):
    obj = jsonio.encode_frame(seed_frame())
    obj["gammas"][0][8] = bad
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(obj))
    code, err = exit_and_stderr(
        capsys, ["period", "--frame", str(path), "--involution", "enriques"]
    )
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err
    assert "Warning" not in err


@pytest.mark.parametrize(
    "command, tol",
    [
        ("period", "nan"),
        ("zeta", "nan"),
        ("zeta", "-1"),
        ("zeta", "0"),
        ("tau", "inf"),
        ("tau", "-1"),
    ],
)
def test_tol_must_be_positive_and_finite(tmp_path, capsys, command, tol):
    if command == "period":
        path = tmp_path / "frame.json"
        frame = jsonio.encode_frame(seed_frame())
        path.write_text(jsonio.canonical_dumps(frame))
        argv = ["period", "--frame", str(path), "--involution", "enriques"]
    else:
        argv = [command, "--builtin", "s2-antipodal"]
    code, err = exit_and_stderr(capsys, argv + ["--tol", tol])
    assert code == 2
    assert err == "input error: tol must be positive and finite, got %r\n" % float(tol)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--tau", "inf"],
        ["report", "--tau", "nan"],
        ["report", "--tau", "1e300"],
        ["report", "--tau", "1e-300"],
        ["report", "--tau", "0.5", "--nu", "100000"],
        ["tau", "--builtin", "s2-antipodal", "--nu", "100000"],
        ["report", "--tau", "3e161"],  # a subnormal norm
        ["report", "--tau", "1e155"],
    ],
)
def test_out_of_range_norm_exit_code(capsys, argv):
    code, err = exit_and_stderr(capsys, argv)
    assert code == 2
    # refused as a bad tau, not later as an unserializable report
    assert err.startswith("input error:") and "tau" in err
    assert "Traceback" not in err


def _frame_with(field, value):
    obj = jsonio.encode_frame(seed_frame())
    # an entry equal to 1, so the boolean or string reads as the same number
    row, col = (0, 1) if field == "form" else (2, 4)
    assert obj[field][row][col] == 1.0
    obj[field][row][col] = value
    return ["period", "--involution", "enriques", "--frame"], obj


def _spectrum_with(**change):
    return ["zeta", "--spectrum"], {**_SPECTRUM, **change}


def _curve_with_volume(volume):
    spectrum = {"entries": [[1.0, 1]], "kernel": 0, "tail": {"dim": 0, "straight": [1.0]}}
    return ["tau", "--builtin", "t2-flat", "--curves"], [
        {"volume": volume, "spectrum": spectrum}
    ]


_BIG = 10**400  # a JSON integer past float range


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _frame_with("form", True), id="frame-form"),
        pytest.param(lambda: _frame_with("gammas", True), id="frame-gammas"),
        pytest.param(lambda: _frame_with("form", "1"), id="frame-form-string"),
        pytest.param(
            lambda: _spectrum_with(entries=[[True, 2, 1], [2.0, 1, 0]]),
            id="spectrum-eigenvalue",
        ),
        pytest.param(
            lambda: _spectrum_with(entries=[["0.5", 2, 1], [2.0, 1, 0]]),
            id="spectrum-eigenvalue-string",
        ),
        pytest.param(
            lambda: _spectrum_with(entries=[[1.0, 2, 1], [_BIG, 1, 0]]),
            id="spectrum-eigenvalue-overflow",
        ),
        pytest.param(
            lambda: _spectrum_with(
                tail={"dim": 0, "straight": [5.0], "twisted": ["3"]}
            ),
            id="spectrum-tail-string",
        ),
        pytest.param(
            lambda: _spectrum_with(
                **{**_TRUNCATED, "tail": {**_TRUNCATED["tail"], "straight": [_BIG, 0.0, 0.0]}}
            ),
            id="spectrum-tail-overflow",
        ),
        pytest.param(
            lambda: _spectrum_with(**{**_TRUNCATED, "cutoff": "4"}),
            id="spectrum-cutoff-string",
        ),
        pytest.param(
            lambda: _spectrum_with(**{**_TRUNCATED, "cutoff": _BIG}),
            id="spectrum-cutoff-overflow",
        ),
        pytest.param(lambda: _curve_with_volume(_BIG), id="curve-volume-overflow"),
    ],
)
def test_boolean_where_a_number_is_read_exit_code(tmp_path, capsys, make):
    # booleans, numeric strings and integers past float range are all
    # refused where a float is read
    argv, obj = make()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, err = exit_and_stderr(capsys, argv + [str(path)])
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_period_reads_the_lattice_of_an_involution_file_from_the_form(
    tmp_path, capsys
):
    invol = tmp_path / "involution.json"
    invol.write_text(json.dumps({"matrix": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]}))
    argv = ["period", "--involution", str(invol), "--frame"]
    frame = tmp_path / "frame.json"
    # the same frame pairing on an integral and on a non-integral form
    for scale, want in ((1.0, 0), (2.0, 2)):
        form = (2.0 / scale**2 * np.eye(3)).tolist()
        gammas = (scale * np.eye(3)).tolist()
        frame.write_text(json.dumps({"form": form, "gammas": gammas}))
        code, err = exit_and_stderr(capsys, argv + [str(frame)])
        assert code == want, err
    assert err.startswith("input error:") and "not an integer" in err


def test_involution_with_a_trivial_eigenlattice(tmp_path, capsys):
    # the identity of U: the minus eigenlattice is {0}, of rank 0
    lattice, matrix = tmp_path / "u.json", tmp_path / "identity.json"
    lattice.write_text(json.dumps({"gram": [[0, 1], [1, 0]]}))
    matrix.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
    argv = ["involution", "--lattice", str(lattice), "--matrix", str(matrix)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (
        '{"minus":{"a_invariant":0,"divisors":[],"hyperbolic":false,"rank":0,'
        '"signature":[0,0],"two_elementary":true},"plus":{"a_invariant":0,'
        '"divisors":[],"hyperbolic":true,"rank":2,"signature":[1,1],'
        '"two_elementary":true},"trace":2}\n'
    )


def test_cli_never_loads_scipy():
    script = (
        "import sys\n"
        "import k3zeta.cli\n"
        "after_import = 'scipy' in sys.modules\n"
        "code = k3zeta.cli.main(['zeta', '--builtin', 's2-antipodal'])\n"
        "sys.stderr.write(repr((code, after_import, 'scipy' in sys.modules)))\n"
    )
    done = run_python("-c", script)
    assert done.stderr == b"(0, False, False)"
    assert json.loads(done.stdout)["plus"]


def test_cli_import_loads_no_optional_module():
    # the records, the quadrature tables and the sphere coefficients need
    # none of these at start-up, where each costs import time
    script = (
        "import sys\n"
        "import k3zeta.cli\n"
        "names = ('dataclasses', 'fractions', 'decimal', 'numpy.polynomial')\n"
        "sys.stdout.write(repr([n for n in names if n in sys.modules]))\n"
    )
    done = run_python("-c", script)
    assert (done.returncode, done.stdout) == (0, b"[]")


PRESETS = os.path.join(os.path.dirname(__file__), "data", "presets")

# Every golden in tests/data/presets, declared once: (id, the command line,
# run in that directory, its exit code, the golden of its stdout on exit 0
# and of its stderr otherwise). test_input_file_is_built_as_documented
# says how the input files were made.
GOLDENS = [
    ("lattice-k3", ["lattice", "--builtin", "k3"], 0, "lattice-k3.out"),
    (
        "involution-enriques",
        ["involution", "--builtin", "enriques"],
        0,
        "involution-enriques.out",
    ),
    (
        "zeta-s2-antipodal",
        ["zeta", "--builtin", "s2-antipodal"],
        0,
        "zeta-s2-antipodal.out",
    ),
    ("zeta-t2-flat", ["zeta", "--builtin", "t2-flat"], 0, "zeta-t2-flat.out"),
    ("tau-s2-antipodal", ["tau", "--builtin", "s2-antipodal"], 0, "tau-s2-antipodal.out"),
    ("tau-t2-flat", ["tau", "--builtin", "t2-flat"], 0, "tau-t2-flat.out"),
    (
        "period",
        ["period", "--frame", "frame-rng5.json", "--involution", "enriques"],
        0,
        "period-enriques.out",
    ),
    # marking-word.json is the product s_a s_b s_c of the reflections in the
    # roots a = e1 - f1, b = the first root of the second E8(-1), and
    # c = e1 + e2 - f2, with <a, c> = -1, so it is not an involution
    (
        "period-marked",
        [
            "period",
            "--frame",
            "frame-rng5.json",
            "--involution",
            "enriques",
            "--marking",
            "marking-word.json",
        ],
        0,
        "period-enriques-marked.out",
    ),
    # the K3 lattice and Enriques matrix files give the builtin's bytes
    (
        "involution-files",
        ["involution", "--lattice", "lattice-k3.json", "--matrix", "matrix-enriques.json"],
        0,
        "involution-enriques.out",
    ),
    ("report", ["report", "--tau", "0.5", "--nu", "2"], 0, "report-tau0.5-nu2.out"),
    # the one golden that prints determinant_with_constant
    (
        "report-constant",
        ["report", "--tau", "0.5", "--nu", "1", "--constant", "2"],
        0,
        "report-tau0.5-nu1-constant2.out",
    ),
    (
        "zeta-spectrum",
        ["zeta", "--spectrum", "spectrum-torus.json"],
        0,
        "zeta-spectrum-torus.out",
    ),
    (
        "zeta-complete",
        ["zeta", "--spectrum", "spectrum-complete.json"],
        0,
        "zeta-spectrum-complete.out",
    ),
    # continues three spectra: the torus and, as fixed curves, the same
    # torus and the unit sphere
    (
        "tau-curves",
        [
            "tau",
            "--spectrum",
            "spectrum-torus-fixed.json",
            "--curves",
            "curves-torus-sphere.json",
        ],
        0,
        "tau-spectrum-curves.out",
    ),
    # a curve whose tail is 3-dimensional, not a complex curve's: exit 2
    (
        "curve-dim3-refusal",
        ["tau", "--spectrum", "spectrum-torus-fixed.json", "--curves", "curves-torus3.json"],
        2,
        "tau-curve-dim3-refusal.err",
    ),
    # no split point reaches the tolerance: exit 3
    (
        "zeta-t2-flat-refusal",
        ["zeta", "--builtin", "t2-flat", "--tol", "1e-300"],
        3,
        "zeta-t2-flat-refusal.err",
    ),
    # a multiplicity of 2**53 + 1, which a float64 weight would round
    (
        "huge-count-refusal",
        ["zeta", "--spectrum", "spectrum-huge-count.json"],
        2,
        "zeta-huge-count-refusal.err",
    ),
    # a determinant past float range
    (
        "det-overflow-refusal",
        ["tau", "--spectrum", "spectrum-det-overflow.json"],
        2,
        "tau-det-overflow-refusal.err",
    ),
    # a model and truncation bound that overflow at the small splits are a
    # miss with a finite achievable: exit 3
    (
        "huge-tail-refusal",
        ["zeta", "--spectrum", "spectrum-huge-tail.json"],
        3,
        "zeta-huge-tail-refusal.err",
    ),
    # a tail whose plus sector's pole part p_e / e sums past float range,
    # whose truncation bound overflows at every split point, or whose
    # twisted model is finite at a split delta but NaN (inf - inf) at
    # delta / 2: malformed input, exit 2
    (
        "tail-pole-overflow-refusal",
        ["zeta", "--spectrum", "spectrum-tail-pole-overflow.json"],
        2,
        "zeta-tail-pole-overflow-refusal.err",
    ),
    (
        "tail-bound-overflow-refusal",
        ["zeta", "--spectrum", "spectrum-tail-bound-overflow.json"],
        2,
        "zeta-tail-bound-overflow-refusal.err",
    ),
    (
        "tail-leading-overflow-refusal",
        ["zeta", "--spectrum", "spectrum-tail-leading-overflow.json"],
        2,
        "zeta-tail-leading-overflow-refusal.err",
    ),
    (
        "tail-twisted-nan-refusal",
        ["zeta", "--spectrum", "spectrum-tail-twisted-nan.json"],
        2,
        "zeta-tail-twisted-nan-refusal.err",
    ),
    # a Gram matrix of rank 33, past the rank cap of 32: exit 2
    (
        "lattice-rank-cap-refusal",
        ["lattice", "--in", "lattice-rank33.json"],
        2,
        "lattice-rank-cap-refusal.err",
    ),
    # an isometry matrix with a 701-digit entry, whose Hadamard bound is
    # past the cap of 2**2048: refused before its form check, exit 2
    (
        "involution-size-cap-refusal",
        [
            "involution",
            "--lattice",
            "lattice-k3.json",
            "--matrix",
            "matrix-past-size-cap.json",
        ],
        2,
        "involution-size-cap-refusal.err",
    ),
    # a frame that the involution does not preserve: exit 4
    (
        "period-incompatible-refusal",
        ["period", "--frame", "frame-rng5-swapped.json", "--involution", "enriques"],
        4,
        "period-incompatible-refusal.err",
    ),
]


@pytest.mark.parametrize(
    "argv, code, golden",
    [row[1:] for row in GOLDENS],
    ids=[row[0] for row in GOLDENS],
)
def test_command_output_is_the_golden_bytes(argv, code, golden):
    # the command in a fresh interpreter, as the console script runs it:
    # any warning on the way fails it, and the stream that is not the
    # golden stays empty
    done = run_python("-m", "k3zeta.cli", *argv, cwd=PRESETS)
    with open(os.path.join(PRESETS, golden), "rb") as fh:
        want = fh.read()
    streams = (done.stdout, done.stderr) if code == 0 else (done.stderr, done.stdout)
    assert (done.returncode, *streams) == (code, want, b"")


def test_every_golden_file_has_a_row():
    # no golden is added without a check, or left behind by a deleted row
    ids = [row[0] for row in GOLDENS]
    assert len(set(ids)) == len(ids)
    goldens = {golden for *_, golden in GOLDENS}
    present = set(os.listdir(PRESETS))
    assert goldens == {name for name in present if name.endswith((".out", ".err"))}
    inputs = {arg for _, argv, *_ in GOLDENS for arg in argv if arg.endswith(".json")}
    assert inputs <= present


def _preset(name):
    with open(os.path.join(PRESETS, name), encoding="utf-8") as fh:
        return json.load(fh)


def _swapped_frame():
    obj = _preset("frame-rng5.json")
    obj["gammas"][:2] = obj["gammas"][1::-1]
    return obj


def _huge_count():
    obj = _preset("spectrum-torus.json")
    obj["entries"][0][1] = 2**53 + 1
    return obj


def _tail(straight, twisted):
    tail = {"dim": 2, "straight": straight, "twisted": twisted}
    return {"cutoff": 5, "entries": [[1, 1, 0]], "kernel": [1, 0], "tail": tail}


def _past_size_cap():
    matrix = [[int(i == j) for j in range(22)] for i in range(22)]
    matrix[0][1] = 10**700
    return {"matrix": matrix}


_TORUS_GRAM = ((2, 1), (1, 3))
# each input file of a golden row that is built, and how: its canonical JSON
# is the file's bytes
_BUILT = {
    "frame-rng5.json": lambda: jsonio.encode_frame(
        random_compatible_frame(enriques_involution(), np.random.default_rng(5))
    ),
    # still a frame, but the involution negates its first vector
    "frame-rng5-swapped.json": _swapped_frame,
    # a flat torus in the wire format, so zeta decodes its tail and spectrum
    "spectrum-torus.json": lambda: jsonio.encode_spectrum(
        flat_torus_spectrum(_TORUS_GRAM, (1, 0), 200.0)
    ),
    "spectrum-torus-fixed.json": lambda: jsonio.encode_spectrum(
        flat_torus_spectrum(_TORUS_GRAM, None, 200.0)
    ),
    "curves-torus-sphere.json": lambda: [
        jsonio.encode_curve(curve)
        for curve in (flat_torus_curve(_TORUS_GRAM, 200.0), round_sphere_curve(l_max=150))
    ],
    # the flat 3-torus as a curve, written past CurveComponent's checks
    "curves-torus3.json": lambda: [
        jsonio.encode_curve(
            CurveComponent._of((2.0 * math.pi) ** 3, flat_torus_spectrum(I3, None, 90.0))
        )
    ],
    # a complete spectrum, whose zeta values are the closed form
    # -sum m log lambda
    "spectrum-complete.json": lambda: _SPECTRUM,
    # the first count a float64 weight would round
    "spectrum-huge-count.json": _huge_count,
    # 600 minus states at 1e-6: the determinant exp(600 log 1e6) passes
    # float range
    "spectrum-det-overflow.json": lambda: jsonio.encode_spectrum(
        EquivariantSpectrum(((1e-6, 0, 600),), (1, 0), HeatTail(0, (601.0,), (-599.0,)))
    ),
    # a straight coefficient 1e300 on t^-1
    "spectrum-huge-tail.json": lambda: jsonio.encode_spectrum(
        EquivariantSpectrum(
            ((1.0, 1, 0),), (1, 0), HeatTail(2, (1e300, 0.0, 1.0), None), cutoff=5.0
        )
    ),
    "spectrum-tail-pole-overflow.json": lambda: _tail(
        [1.0, 0.0, 0.0, 1.7e308, 1.7e308], "free"
    ),
    "spectrum-tail-bound-overflow.json": lambda: _tail([1.0, 0.0, 1e308, 1e308], "free"),
    "spectrum-tail-leading-overflow.json": lambda: _tail([1e308, 0.0, 1.0], "free"),
    "spectrum-tail-twisted-nan.json": lambda: _tail(
        [1.0, 0.0, 0.0], [0.7e308, -0.85e308, 0.0]
    ),
    # 2 times the identity of rank 33, one past the rank cap
    "lattice-rank33.json": lambda: {
        "gram": [[2 * int(i == j) for j in range(33)] for i in range(33)]
    },
    # the identity of rank 22 with a 701-digit entry above its diagonal
    "matrix-past-size-cap.json": _past_size_cap,
}


@pytest.mark.parametrize("name", _BUILT)
def test_input_file_is_built_as_documented(name):
    with open(os.path.join(PRESETS, name), "rb") as fh:
        assert (jsonio.canonical_dumps(_BUILT[name]()) + "\n").encode() == fh.read()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            [
                "involution",
                "--lattice",
                os.path.join(PRESETS, "lattice-k3.json"),
                "--matrix",
                os.path.join(PRESETS, "marking-word.json"),
            ],
            "input error: eigenlattice needs an involution (f squared != id)\n",
        ),
        (
            [
                "period",
                "--frame",
                os.path.join(PRESETS, "frame-rng5.json"),
                "--involution",
                "enriques",
                "--tol",
                "abc",
            ],
            "k3zeta period: error: argument --tol: invalid float value: 'abc'\n",
        ),
        (
            ["lattice"],
            "k3zeta lattice: error: one of the arguments --builtin --in is required\n",
        ),
        (
            ["zeta"],
            "k3zeta zeta: error: one of the arguments --spectrum --builtin is required\n",
        ),
        (
            ["tau"],
            "k3zeta tau: error: one of the arguments --spectrum --builtin is required\n",
        ),
        (
            ["involution", "--builtin", "k3"],
            "k3zeta involution: error: argument --builtin: invalid choice: 'k3'"
            " (choose from 'enriques')\n",
        ),
        (
            ["involution", "--lattice", os.path.join(PRESETS, "lattice-k3.json")],
            "input error: give --builtin or both --lattice and --matrix\n",
        ),
        (
            ["involution", "--matrix", os.path.join(PRESETS, "matrix-enriques.json")],
            "input error: give --builtin or both --lattice and --matrix\n",
        ),
        (
            # a spectrum file holds an object, not a list of curves
            [
                "tau",
                "--builtin",
                "t2-flat",
                "--curves",
                os.path.join(PRESETS, "spectrum-torus.json"),
            ],
            "input error: curves file must hold a JSON list\n",
        ),
        # a second input source is refused, not silently dropped
        (
            ["lattice", "--builtin", "u", "--in", "/nonexistent.json"],
            "k3zeta lattice: error: argument --in: not allowed with argument --builtin\n",
        ),
        (
            ["zeta", "--builtin", "t2-flat", "--spectrum", "/nonexistent.json"],
            "k3zeta zeta: error: argument --spectrum: not allowed with argument --builtin\n",
        ),
        (
            ["tau", "--spectrum", "/nonexistent.json", "--builtin", "t2-flat"],
            "k3zeta tau: error: argument --builtin: not allowed with argument --spectrum\n",
        ),
        (
            ["involution", "--builtin", "enriques", "--lattice", "/x", "--matrix", "/y"],
            "input error: give --builtin or both --lattice and --matrix\n",
        ),
    ],
    ids=[
        "non-involutive-matrix",
        "tol-not-a-number",
        "lattice-without-input",
        "zeta-without-input",
        "tau-without-input",
        "unknown-involution",
        "lattice-without-matrix",
        "matrix-without-lattice",
        "curves-not-a-list",
        "lattice-from-builtin-and-file",
        "zeta-from-builtin-and-file",
        "tau-from-file-and-builtin",
        "involution-from-builtin-and-files",
    ],
)
def test_file_and_flag_refusals_exit_2(capsys, argv, message):
    code, err = exit_and_stderr(capsys, argv)
    assert code == 2
    assert message in err


def _option(command, flag):
    """The parser's action for FLAG of the subcommand COMMAND."""
    [commands] = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return commands.choices[command]._option_string_actions[flag]


@pytest.mark.parametrize(
    "command, table, kind",
    [
        ("lattice", BUILTIN_LATTICES, Lattice),
        ("involution", BUILTIN_INVOLUTIONS, LatticeIsometry),
        ("zeta", BUILTIN_MODELS, EquivariantSpectrum),
        ("tau", BUILTIN_MODELS, EquivariantSpectrum),
    ],
    ids=["lattice", "involution", "zeta", "tau"],
)
def test_builtin_flag_offers_its_table(command, table, kind):
    # a builtin is one row of its table: the parser offers it, and it builds
    assert list(_option(command, "--builtin").choices) == list(table)
    for build in table.values():
        assert isinstance(build(), kind)


_NAMED = [
    (["lattice", "--builtin"], BUILTIN_LATTICES),
    (["involution", "--builtin"], BUILTIN_INVOLUTIONS),
    (["zeta", "--builtin"], BUILTIN_MODELS),
    (["tau", "--builtin"], BUILTIN_MODELS),
    (["period", "--frame", "frame-rng5.json", "--involution"], BUILTIN_INVOLUTIONS),
]
_NAMES = {name for _, table in _NAMED for name in table}


@pytest.mark.parametrize(
    "argv",
    [head + [name] for head, table in _NAMED for name in table],
    ids=lambda argv: "%s-%s" % (argv[0], argv[-1]),
)
def test_every_builtin_name_is_read_in_any_case(monkeypatch, capsys, argv):
    # the library's rule, in the parser: a name is lower-cased, then looked up
    monkeypatch.chdir(PRESETS)
    code, out, err = run(capsys, argv[:-1] + [argv[-1].upper()])
    assert (code, out, err) == run(capsys, argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv, code, golden",
    [row[1:] for row in GOLDENS if _NAMES.intersection(row[1])],
    ids=[row[0] for row in GOLDENS if _NAMES.intersection(row[1])],
)
def test_upper_case_builtin_names_print_the_golden(
    monkeypatch, capsys, argv, code, golden
):
    monkeypatch.chdir(PRESETS)
    with open(golden, encoding="utf-8") as fh:
        want = fh.read()
    got = run(capsys, [a.upper() if a in _NAMES else a for a in argv])
    assert got == ((code, want, "") if code == 0 else (code, "", want))


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "--builtin", "LEECH"],
        ["involution", "--builtin", "K3"],
        ["zeta", "--builtin", "S2"],
        ["tau", "--builtin", "T2-FLAT "],
        ["period", "--frame", "frame-rng5.json", "--involution", "ENRIQUES2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unknown_builtin_names_exit_2(monkeypatch, capsys, argv):
    monkeypatch.chdir(PRESETS)
    code, err = exit_and_stderr(capsys, argv)
    assert code == 2
    # the parser's refusal, or, for period, the file that is not there
    assert "invalid choice" in err or err.startswith("input error: cannot read")


@pytest.mark.parametrize("name", BUILTIN_INVOLUTIONS)
def test_period_takes_each_builtin_involution(tmp_path, capsys, name):
    invol = BUILTIN_INVOLUTIONS[name]()
    frame = random_compatible_frame(invol, np.random.default_rng(5))
    path = tmp_path / "frame.json"
    path.write_text(jsonio.canonical_dumps(jsonio.encode_frame(frame)))
    code, out, err = run(capsys, ["period", "--frame", str(path), "--involution", name])
    assert (code, err) == (0, "")
    assert json.loads(out)["labels"] == list(period_of(frame, invol).labels())


_GOOD = {
    flag: os.path.join(PRESETS, name)
    for flag, name in (
        ("--lattice", "lattice-k3.json"),
        ("--matrix", "matrix-enriques.json"),
        ("--frame", "frame-rng5.json"),
        ("--spectrum", "spectrum-torus-fixed.json"),
    )
}


@pytest.mark.parametrize("content", ["non-utf-8", "deep"])
@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "--in", "{}"],
        ["involution", "--lattice", "{}", "--matrix", _GOOD["--matrix"]],
        ["involution", "--lattice", _GOOD["--lattice"], "--matrix", "{}"],
        ["period", "--frame", "{}", "--involution", "enriques"],
        ["period", "--frame", _GOOD["--frame"], "--involution", "{}"],
        ["period", "--frame", _GOOD["--frame"], "--involution", "enriques", "--marking", "{}"],
        ["zeta", "--spectrum", "{}"],
        ["tau", "--spectrum", "{}"],
        ["tau", "--spectrum", _GOOD["--spectrum"], "--curves", "{}"],
    ],
    ids=lambda argv: "%s-%s" % (argv[0], argv[argv.index("{}") - 1].lstrip("-")),
)
def test_malformed_file_bytes_exit_2(tmp_path, capsys, argv, content):
    # bytes that are not UTF-8 cannot be read, and JSON nested past the
    # recursion limit cannot be parsed: both are input errors, not tracebacks
    path = tmp_path / "input.json"
    if content == "non-utf-8":
        path.write_bytes(b'\xff\xfe{"a": 1}')
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    code, err = exit_and_stderr(capsys, [str(path) if a == "{}" else a for a in argv])
    assert code == 2
    assert err.startswith("input error: ")
    assert "Traceback" not in err


def test_an_integer_too_long_to_print_exits_2(tmp_path):
    # the Gram matrix reads fine, but its determinant would have about
    # 6,000 digits, past the interpreter's default limit of 4,300 for
    # str(int); a fresh interpreter has that default. The Hadamard cap of
    # the Gram matrix now refuses it first
    d = 10**1500
    gram = [[2 * d if i == j else d + 1 for j in range(4)] for i in range(4)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gram": gram}))
    done = run_python("-m", "k3zeta.cli", "lattice", "--in", str(path))
    assert done.returncode == 2
    assert done.stderr.startswith(b"input error: ")
    assert b"Traceback" not in done.stderr


# the wall time of one command on an input near the caps, start-up
# included; a run at both caps (rank 32, a Gram matrix just under the
# Hadamard cap, the identity as involution) takes about 0.4 s
CAP_RUN_S = 10.0


@settings(max_examples=6, deadline=None)
@given(
    rank=st.integers(1, MAX_RANK + 8),
    bits=st.integers(MAX_BITS // 2, 3 * MAX_BITS // 2),
    seed=st.integers(0, 2**32 - 1),
    sign=st.sampled_from((1, -1)),
)
@example(rank=MAX_RANK, bits=MAX_BITS - 60, seed=1, sign=1)  # just inside both
@example(rank=MAX_RANK + 1, bits=MAX_BITS // 8, seed=2, sign=-1)  # past the rank cap
@example(rank=22, bits=MAX_BITS + 200, seed=3, sign=1)  # past the size cap
def test_matrices_near_the_caps_end_in_time(rank, bits, seed, sign):
    # a random even Gram matrix whose Hadamard bound has about `bits` bits,
    # as `lattice --in`, and with +-identity as `involution`
    rng = random.Random(seed)
    top = 2 ** max(1, round(bits / rank - math.log2(rank) / 2))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            x = rng.randint(-top, top)
            gram[i][j] = gram[j][i] = x - x % 2 if i == j else x
    norms = (sum(x * x for x in row) for row in gram)
    hadamard = sum(math.log2(q) for q in norms if q) / 2
    past = rank > MAX_RANK or hadamard > MAX_BITS
    matrix = [[sign * (i == j) for j in range(rank)] for i in range(rank)]
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "gram.json"), "w") as fh:
            json.dump({"gram": gram}, fh)
        with open(os.path.join(tmp, "matrix.json"), "w") as fh:
            json.dump({"matrix": matrix}, fh)
        for argv in (
            ["lattice", "--in", "gram.json"],
            ["involution", "--lattice", "gram.json", "--matrix", "matrix.json"],
        ):
            start = time.perf_counter()
            done = run_python("-m", "k3zeta.cli", *argv, cwd=tmp, timeout=3 * CAP_RUN_S)
            assert time.perf_counter() - start < CAP_RUN_S
            assert done.returncode in (0, 2)
            assert b"Traceback" not in done.stderr
            # the float bound of the package and this exact one may differ
            # in the last bits: no verdict that close to the cap
            if abs(hadamard - MAX_BITS) > 1e-6:
                assert (b"past the cap" in done.stderr) == past
            if past or argv[0] == "lattice":
                assert done.returncode == (2 if past else 0)


@pytest.mark.parametrize(
    "form, gammas",
    [([], [[], [], []]), ([[]], [[], [], []]), ([[2.0, 0.0]], [[1.0, 0.0]] * 3)],
    ids=["empty", "one-by-zero", "one-by-two"],
)
def test_empty_or_non_square_form_exit_code(tmp_path, capsys, form, gammas):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"form": form, "gammas": gammas}))
    code, err = exit_and_stderr(
        capsys, ["period", "--frame", str(path), "--involution", "enriques"]
    )
    assert code == 2
    assert err.startswith("input error:") and "must be square" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "curve_cutoffs, message",
    [
        (
            (30.0,),
            "plus sector of curve 1: requested tolerance 1.000e-08 is not"
            " reachable with cutoff 30 (achievable about 1.305e-01)",
        ),
        (
            (300.0, 30.0),
            "plus sector of curve 2: requested tolerance 1.000e-08 is not"
            " reachable with cutoff 30 (achievable about 1.305e-01)",
        ),
        (
            (300.0,),
            "plus sector of the spectrum: requested tolerance 1.000e-08 is not"
            " reachable with cutoff 40 (achievable about 2.257e-02)",
        ),
    ],
)
def test_tau_refusal_names_its_source(tmp_path, capsys, curve_cutoffs, message):
    # the spectrum declares cutoff 40; the refusal quotes the cutoff of the
    # input whose sector missed, and says which input that is
    spectrum = flat_torus_spectrum(((2, 1), (1, 3)), None, 40.0)
    curves = [flat_torus_curve(I2, cutoff) for cutoff in curve_cutoffs]
    p, c = tmp_path / "p.json", tmp_path / "c.json"
    p.write_text(jsonio.canonical_dumps(jsonio.encode_spectrum(spectrum)))
    c.write_text(jsonio.canonical_dumps([jsonio.encode_curve(x) for x in curves]))
    code, out, err = run(capsys, ["tau", "--spectrum", str(p), "--curves", str(c)])
    assert (code, out) == (3, "")
    assert err == "accuracy error: %s; extend the spectrum or relax --tol\n" % message


_TORUS = _preset("spectrum-torus.json")
_TORUS_CUT = {**_TORUS, "entries": _TORUS["entries"][:40]}
_TORUS_CUT["cutoff"] = _TORUS_CUT["entries"][-1][0]
_STRAIGHT = _TORUS_CUT["tail"]["straight"]
# the cut spectrum with a fixed-curve tail, which tau pairs with the curve
_TORUS_FIXED = {**_TORUS_CUT, "tail": {**_TORUS_CUT["tail"], "twisted": _STRAIGHT}}
_CURVES = [
    {
        "volume": 4.0,
        "spectrum": {
            "entries": [[lam, mp + mm] for lam, mp, mm in _TORUS_CUT["entries"]],
            "kernel": 1,
            "tail": {"dim": 2, "straight": _STRAIGHT},
            "cutoff": _TORUS_CUT["cutoff"],
        },
    }
]
_FRAME = os.path.join(PRESETS, "frame-rng5.json")
_LATTICE = os.path.join(PRESETS, "lattice-k3.json")
_MATRIX = os.path.join(PRESETS, "matrix-enriques.json")
_K3, _ENRIQUES = _preset("lattice-k3.json"), _preset("matrix-enriques.json")
# (the input to mutate, the command line that reads it as "{}", its flags);
# "fixed" is _TORUS_FIXED
_FUZZ = [
    (_TORUS_CUT, ["zeta", "--spectrum", "{}"], ("--tol", "--max-terms")),
    (_TORUS_CUT, ["tau", "--spectrum", "{}"], ("--tol", "--max-terms", "--nu")),
    (_CURVES, ["tau", "--spectrum", "fixed", "--curves", "{}"], ("--tol", "--nu")),
    (
        _preset("frame-rng5.json"),
        ["period", "--frame", "{}", "--involution", "enriques"],
        ("--tol",),
    ),
    (_K3, ["lattice", "--in", "{}"], ()),
    (_K3, ["involution", "--lattice", "{}", "--matrix", _MATRIX], ()),
    (_ENRIQUES, ["involution", "--lattice", _LATTICE, "--matrix", "{}"], ()),
    (_ENRIQUES, ["period", "--frame", _FRAME, "--involution", "{}"], ("--tol",)),
    (
        _preset("marking-word.json"),
        ["period", "--frame", _FRAME, "--involution", "enriques", "--marking", "{}"],
        ("--tol",),
    ),
]
# the rows whose input is a spectrum or a curves file, which a report
# continues
_FUZZ_SPECTRA = _FUZZ[:3]
_VALUES = (
    st.integers(-3, 5)
    | st.sampled_from([2**53, 2**53 + 1, 10**400])
    | st.floats()
    | st.sampled_from([1.7e308, -1.7e308, 1e300, -1e300, 5e-324, -5e-324])
    | st.none()
    | st.booleans()
    | st.sampled_from(["free", "1", ""])
    | st.lists(st.integers(-2, 2), max_size=3)
)
# a cut spectrum reaches no tolerance below about 14 (155 with the curve),
# so some are above
_FLAGS = {
    "--tol": st.sampled_from(["1e-8", "1e-3", "50", "1e300", "0", "x"])
    | st.floats(1e-300, 100.0).map(repr),
    "--max-terms": st.sampled_from(["1", "20", "-1", str(2**53 + 1), "x"])
    | st.integers(0, 50).map(str),
    "--nu": st.sampled_from(["1", "2", "0", str(2**53 + 1), "x"])
    | st.integers(1, 4).map(str),
}


@st.composite
def _mutated(draw, obj):
    """The input with the values at one to three random paths replaced, one
    after another."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, obj
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 4)):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        if parent is None:
            obj = draw(_VALUES)
        else:
            parent[key] = draw(_VALUES)
    return obj


@st.composite
def _kept_valid(draw, obj):
    """A spectrum or curves input with one change that keeps it valid: an
    entry's multiplicity changed, or its eigenvalue moved strictly between
    its neighbours (the last one up to the cutoff)."""
    obj = copy.deepcopy(obj)
    spectrum = obj[0]["spectrum"] if isinstance(obj, list) else obj
    rows = spectrum["entries"]
    i = draw(st.integers(0, len(rows) - 1))
    if draw(st.booleans()):
        last = i + 1 == len(rows)
        low = rows[i - 1][0] if i else 0.0
        high = spectrum["cutoff"] if last else rows[i + 1][0]
        moved = st.floats(low, high, exclude_min=True, exclude_max=not last)
        rows[i][0] = draw(moved)
    else:
        rows[i][draw(st.integers(1, len(rows[i]) - 1))] = draw(st.integers(1, 50))
    return obj


def test_cli_ends_in_a_report_or_a_typed_exit(tmp_path, monkeypatch):
    # any mutation of the repo's own input files, under any flags, ends in
    # exit 0 with JSON on stdout or in a typed refusal, never a traceback;
    # and every continuation it runs gets the arguments the engine assumes.
    # About half the examples change a spectrum or curves file in a way that
    # keeps it valid, so that the run reaches the engine; it must reach it
    # at least once
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return checked_continue_trace(*args, **kwargs)

    monkeypatch.setattr(spectral, "continue_trace", spy)
    path, fixed = tmp_path / "input.json", tmp_path / "fixed.json"
    fixed.write_text(json.dumps(_TORUS_FIXED))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def one_input(data):
        if data.draw(st.booleans()):
            obj, argv, flags = data.draw(st.sampled_from(_FUZZ_SPECTRA))
            obj = data.draw(_kept_valid(obj))
        else:
            obj, argv, flags = data.draw(st.sampled_from(_FUZZ))
            obj = data.draw(_mutated(obj))
        path.write_text(json.dumps(obj))
        argv = [{"{}": str(path), "fixed": str(fixed)}.get(a, a) for a in argv]
        for flag in flags:
            value = data.draw(st.none() | _FLAGS[flag])
            if value is not None:
                argv += [flag, value]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag
            assert exc.code == 2, err.getvalue()
            return
        assert code in (0, 2, 3, 4), err.getvalue()
        if code == 0:
            json.loads(out.getvalue())

    one_input()
    assert calls
