"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return checks.References(ROOT, None)


@pytest.fixture(scope="module")
def runner():
    return worker.Runner("sphere-zeta")


def _run(*args, timeout=300):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout, check=False
    )


def test_same_seed_gives_the_same_operations():
    assert gen.sphere_round(7) == gen.sphere_round(7)
    assert gen.torus_round(7) == gen.torus_round(7)
    assert gen.cli_round(7) == gen.cli_round(7)
    assert gen.lattice_round(7) == gen.lattice_round(7)
    assert gen.sphere_round(7) != gen.sphere_round(8)
    assert gen.lattice_round(7) != gen.lattice_round(8)


def test_rounds_keep_their_make_up():
    ops = gen.sphere_round(3)
    assert sum(op.get("known_fault", False) for op in ops) == 1
    assert sorted(map(repr, ops)) == sorted(map(repr, gen.sphere_ops()))
    assert len(ops) == 1 + len(gen.SPHERE_KINDS) * gen.SPHERE_PER_KIND
    torus = gen.torus_round(3)
    assert sorted(map(repr, torus)) == sorted(map(repr, gen.torus_ops()))
    assert sum(op["kind"] == "tau" and op["cutoff"] < 650 for op in torus) == len(gen.TORUS2_GRAMS)
    assert sum(op["kind"] == "determinant" and op["cutoff"] > 650 for op in torus) == len(gen.TORUS2_GRAMS)
    lattice = gen.lattice_round(3)
    assert sorted(map(repr, lattice)) == sorted(map(repr, gen.lattice_ops()))
    assert sorted(op["word_length"] for op in lattice) == sorted(gen.LATTICE_WORDS)
    assert len({repr(op["matrix"]) for op in lattice}) == len(lattice)


def test_slowdowns_follow_the_calibration_around_each_operation():
    ref = calib.CHUNK_REF_S
    stamps = [0.0, 0.5, 3.0, 3.5]
    cal = [(10, 10 * ref), (10, 10 * ref), (5, 10 * ref), (5, 10 * ref)]
    assert calib.slowdowns(stamps, cal) == pytest.approx([1.0, 1.0, 2.0, 2.0])
    n, secs = calib.calibrate(0.0)
    assert n == 1 and secs > 0.0


def test_conjugated_involution_is_an_isometric_involution():
    import numpy as np

    g = gen.k3_gram()
    m = gen.conjugated_involution(np.random.default_rng(5), 12)
    assert np.array_equal(m @ m, np.eye(22, dtype=np.int64))
    assert np.array_equal(m.T @ g @ m, g)
    assert int(np.trace(m)) == -2


def test_value_moved_beyond_its_error_estimate_counts_as_failed(runner, refs):
    op = {"kind": "determinant", "radius": 1.3, "l_max": 400, "tol": 1e-8}
    out, _ = runner.run(op)
    assert not checks.check_spectral(op, out, refs).failed
    moved = json.loads(json.dumps(out))
    moved["plus"]["zp"] += 2.0 * moved["plus"]["err"]
    verdict = checks.check_spectral(op, moved, refs)
    assert verdict.failed and not verdict.problems


def test_known_fault_fails(runner, refs):
    out, _ = runner.run(gen.SPHERE_KNOWN_FAULT)
    verdict = checks.check_spectral(gen.SPHERE_KNOWN_FAULT, out, refs)
    assert verdict.failed
    assert 1.0 < verdict.worst_ratio < 1.3


@pytest.mark.parametrize("workload", ["sphere-zeta", "torus-zeta"])
def test_fixed_lists_keep_clear_of_their_error_bounds(workload):
    """Every fixed operation but the known fault stays within 3/4 of its
    error estimate, so that rounding differences between machines cannot
    turn it into a failure and the failed share is the same everywhere."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    refs = checks.References(ROOT, os.path.join(HERE, "out"))
    lister = worker.Runner(workload)
    for op in gen.sphere_ops() if workload == "sphere-zeta" else gen.torus_ops():
        out, _ = lister.run(op)
        verdict = checks.check_spectral(op, out, refs)
        assert not verdict.problems
        if not op.get("known_fault"):
            assert verdict.worst_ratio <= 0.75, (op, verdict.worst_ratio)


def test_wrong_lattice_invariant_is_a_problem():
    lat = worker.Runner("lattice-periods")
    op = gen.lattice_round(4)[0]
    out, state = lat.run(op)
    data = lat.check_data(op, state)
    assert not checks.check_lattice(op, out, data).problems
    out["labels"][0] = [1, 1]
    assert checks.check_lattice(op, out, data).problems


_COUNT_CONTINUATIONS = """
import io, json, sys, contextlib
sys.path.insert(0, sys.argv[1])
import k3zeta.cli
from k3zeta import models, spectral
from tracer import Tracer
t = Tracer()
t.install()
t.begin_op(0)
spectral.equivariant_torsion_report(models.round_sphere_spectrum(1.0, True, 300))
t.end_op()
t.begin_op(1)
with contextlib.redirect_stdout(io.StringIO()):
    k3zeta.cli.main(["zeta", "--builtin", "s2-antipodal"])
t.end_op()
calls = [sum(1 for s in t.spans if s[0] == "mellin.continue_trace" and s[4] == op) for op in (0, 1)]
distinct = [len(t.distinct[op]["mellin.continuations"]) for op in (0, 1)]
print(json.dumps([calls, distinct]))
"""


def test_tracer_counts_duplicate_continuations():
    proc = _run("-c", _COUNT_CONTINUATIONS, HERE)
    assert proc.returncode == 0, proc.stderr
    calls, distinct = json.loads(proc.stdout)
    assert calls == [5, 6]
    assert distinct == [3, 3]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode(workload, trace):
    proc = _run(os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "2", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_a_directory_without_the_program(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), "rb") as src, open(tmp_path / "perfbench" / name, "wb") as dst:
                dst.write(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere-zeta", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_per_layer_names_cover_the_tracer():
    names = set(tracer.TIME_GROUPS) | set(tracer.COUNT_METRICS) | set(tracer.PROCESS_METRICS) | {"mellin.theta_at_ms"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert names == {m["name"] for m in spec["per_layer"]}
