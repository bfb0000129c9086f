import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import k3zeta
from k3zeta import jsonio
from k3zeta.cli import main
from k3zeta.errors import InputError
from k3zeta.frames import HKFrame, random_compatible_frame
from k3zeta.lattices import enriques_involution
from k3zeta.models import flat_torus_curve, flat_torus_spectrum
from k3zeta.spectral import borcherds_report, truncate_entries, zeta_signed

from fixtures import seed_frame

I2 = ((1, 0), (0, 1))


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
    code, _, err = run(capsys, ["zeta", "--builtin", "klein-bottle"])
    assert code == 2
    assert err.strip()
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
        # each count fits a float, the complete spectrum's total does not
        {"entries": [[1.0, 10**308, 0], [2.0, 10**308, 0]]},
        # the same total in a truncated spectrum would overflow its heat trace
        {**_TRUNCATED, "entries": [[1.0, 10**308, 0], [2.0, 10**308, 0]]},
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
    assert "argument --tol" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--tau", "inf"],
        ["report", "--tau", "nan"],
        ["report", "--tau", "1e300"],
        ["report", "--tau", "1e-300"],
        ["report", "--tau", "0.5", "--nu", "100000"],
        ["tau", "--builtin", "s2-antipodal", "--nu", "100000"],
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


def test_cli_never_loads_scipy():
    script = (
        "import sys\n"
        "import k3zeta.cli\n"
        "after_import = 'scipy' in sys.modules\n"
        "code = k3zeta.cli.main(['zeta', '--builtin', 's2-antipodal'])\n"
        "sys.stderr.write(repr((code, after_import, 'scipy' in sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3zeta.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stderr == "(0, False, False)"
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
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3zeta.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stdout) == (0, "[]")


PRESETS = os.path.join(os.path.dirname(__file__), "data", "presets")


@pytest.mark.parametrize(
    "command, builtin",
    [
        ("lattice", "k3"),
        ("involution", "enriques"),
        ("zeta", "s2-antipodal"),
        ("zeta", "t2-flat"),
        ("tau", "s2-antipodal"),
        ("tau", "t2-flat"),
    ],
)
def test_preset_output_is_the_golden_bytes(capfd, command, builtin):
    # tests/data/presets holds each preset's stdout, captured before the
    # heat-trace and spectrum rewrite; a preset must print the same bytes
    assert main([command, "--builtin", builtin]) == 0
    with open(os.path.join(PRESETS, "%s-%s.out" % (command, builtin)), "rb") as fh:
        assert capfd.readouterr().out.encode() == fh.read()


def test_period_preset_is_the_golden_bytes(capfd):
    # frame-rng5.json is the canonical JSON of the frame drawn below, and
    # period-enriques.out the period command's stdout on it, both captured
    # before the float views of the exact lattice objects
    frame = random_compatible_frame(enriques_involution(), np.random.default_rng(5))
    path = os.path.join(PRESETS, "frame-rng5.json")
    with open(path, "rb") as fh:
        text = jsonio.canonical_dumps(jsonio.encode_frame(frame)) + "\n"
        assert text.encode() == fh.read()
    argv = ["period", "--frame", path, "--involution", "enriques"]
    assert main(argv) == 0
    with open(os.path.join(PRESETS, "period-enriques.out"), "rb") as fh:
        assert capfd.readouterr().out.encode() == fh.read()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["report", "--tau", "0.5", "--nu", "2"], "report-tau0.5-nu2.out"),
        (
            ["zeta", "--spectrum", os.path.join(PRESETS, "spectrum-torus.json")],
            "zeta-spectrum-torus.out",
        ),
        (
            [
                "involution",
                "--lattice",
                os.path.join(PRESETS, "lattice-k3.json"),
                "--matrix",
                os.path.join(PRESETS, "matrix-enriques.json"),
            ],
            "involution-enriques.out",
        ),
        (
            [
                "period",
                "--frame",
                os.path.join(PRESETS, "frame-rng5.json"),
                "--involution",
                "enriques",
                "--marking",
                os.path.join(PRESETS, "marking-word.json"),
            ],
            "period-enriques-marked.out",
        ),
    ],
    ids=["report", "zeta-spectrum", "involution-files", "period-marked"],
)
def test_command_output_is_the_golden_bytes(capfd, argv, golden):
    # report and zeta-spectrum were captured before the records lost their
    # dataclass base; the spectrum file is a flat torus (gram [[2, 1],
    # [1, 3]], character (1, 0), cutoff 200) in the wire format, so zeta
    # decodes its tail and spectrum. The K3 lattice and Enriques matrix
    # files give the builtin involution's bytes. marking-word.json is the
    # product s_a s_b s_c of the reflections in the roots a = e1 - f1 and
    # b = the first root of the second E8(-1), and c = e1 + e2 - f2, with
    # <a, c> = -1, so it is not an involution; period-enriques-marked.out
    # was captured before a period pair was built from its plus point.
    assert main(argv) == 0
    with open(os.path.join(PRESETS, golden), "rb") as fh:
        assert capfd.readouterr().out.encode() == fh.read()


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
            "input error: matrix squared is not the identity",
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
            "argument --tol: expected a positive finite number, got 'abc'",
        ),
    ],
    ids=["non-involutive-matrix", "tol-not-a-number"],
)
def test_file_and_flag_refusals_exit_2(capsys, argv, message):
    code, err = exit_and_stderr(capsys, argv)
    assert code == 2
    assert message in err


def test_refusal_is_the_golden_bytes(capfd):
    # zeta-t2-flat-refusal.err is the stderr of this refusal, captured before
    # the split candidates were evaluated in one stacked pass
    assert main(["zeta", "--builtin", "t2-flat", "--tol", "1e-300"]) == 3
    out = capfd.readouterr()
    assert out.out == ""
    with open(os.path.join(PRESETS, "zeta-t2-flat-refusal.err"), "rb") as fh:
        assert out.err.encode() == fh.read()


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
