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
from k3zeta.frames import HKFrame, random_compatible_frame, seed_compatible_frame
from k3zeta.lattices import enriques_involution
from k3zeta.models import flat_torus_spectrum
from k3zeta.spectral import truncate_entries, zeta_signed

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
    base = seed_compatible_frame()
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


@pytest.mark.parametrize("bad", ["x", None, math.nan, math.inf])
def test_non_finite_frame_file_exit_code(tmp_path, capsys, bad):
    obj = jsonio.encode_frame(seed_compatible_frame())
    obj["gammas"][0][3] = bad
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(obj))
    code, err = exit_and_stderr(
        capsys, ["period", "--frame", str(path), "--involution", "enriques"]
    )
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err


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
        frame = jsonio.encode_frame(seed_compatible_frame())
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


def _frame_with_true_in(field):
    obj = jsonio.encode_frame(seed_compatible_frame())
    # an entry equal to 1, so the boolean reads as the same number
    row, col = (0, 1) if field == "form" else (2, 4)
    assert obj[field][row][col] == 1.0
    obj[field][row][col] = True
    return ["period", "--involution", "enriques", "--frame"], obj


def _spectrum_with_true_eigenvalue(_):
    obj = {**_SPECTRUM, "entries": [[True, 2, 1], [2.0, 1, 0]]}
    return ["zeta", "--spectrum"], obj


@pytest.mark.parametrize(
    "make, field",
    [
        (_frame_with_true_in, "form"),
        (_frame_with_true_in, "gammas"),
        (_spectrum_with_true_eigenvalue, None),
    ],
    ids=["frame-form", "frame-gammas", "spectrum-eigenvalue"],
)
def test_boolean_where_a_number_is_read_exit_code(tmp_path, capsys, make, field):
    argv, obj = make(field)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, err = exit_and_stderr(capsys, argv + [str(path)])
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err


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
