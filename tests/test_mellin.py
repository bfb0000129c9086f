import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from k3zeta import mellin, spectral
from k3zeta.errors import AccuracyError, InputError
from k3zeta.mellin import TraceModel, continue_trace, exp1, ordered_chunk_sum
from k3zeta.models import round_sphere_spectrum
from k3zeta.spectral import EquivariantSpectrum, HeatTail


def continue_one(lams, ws, kernel, model, bound, cutoff, target=1e-8):
    """The one sector (ws, kernel, model) continued alone."""
    [res] = continue_trace(lams, [ws], [kernel], [model], bound, cutoff, target)
    return res


def test_exp1_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(2024)
    x = np.sort(
        np.concatenate(
            [
                10.0 ** rng.uniform(-17.0, 6.1, 100_000),
                rng.uniform(0.5, 3.0, 20_000),
                rng.uniform(745.0, 746.0, 2_000),
                [1.0, np.nextafter(1.0, 2.0), 746.0],
            ]
        )
    )
    got = exp1(x)
    want = scipy.special.exp1(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert exp1(np.zeros(0)).shape == (0,)


_EXP1_EDGES = (1.0, math.nextafter(1.0, 2.0), 80.0, math.nextafter(80.0, 100.0), 746.0)


@st.composite
def exp1_inputs(draw):
    """An ascending array of 1 to 5000 entries, most of them in (1, 80],
    where the continued fraction is deepest, with some of the edges of its
    branches (the series below 1, depth 20 past 80, exp underflow at 746)."""
    edges = draw(st.lists(st.sampled_from(_EXP1_EDGES), max_size=len(_EXP1_EDGES)))
    size = draw(st.integers(max(1, len(edges)), 5000)) - len(edges)
    share = draw(st.floats(0.6, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = 80.0 - rng.uniform(0.0, 79.0, size)
    outer = 10.0 ** rng.uniform(-3.0, 3.0, size)
    x = np.where(rng.uniform(size=size) < share, inner, outer)
    return np.sort(np.concatenate([x, edges]))


@settings(max_examples=100, deadline=None)
@given(exp1_inputs())
@example(np.array(_EXP1_EDGES))
def test_exp1_matches_scipy_bit_for_bit_on_random_arrays(x):
    got = exp1(x)
    want = scipy.special.exp1(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_exp1_against_mpmath():
    rng = np.random.default_rng(5)
    x = np.sort(
        np.concatenate(
            [10.0 ** rng.uniform(-12.0, 2.8, 1500), rng.uniform(0.5, 2.0, 500)]
        )
    )
    got = exp1(x)
    worst = max(
        abs(g - float(mpmath.e1(mpmath.mpf(float(v))))) / g
        for v, g in zip(x.tolist(), got.tolist())
    )
    assert worst < 4e-15


def test_trace_model_ladder():
    m = TraceModel.from_ladder(2, [2.0, 0.0, 1.0 / 3.0, 0.0, 0.1])
    assert m.coeff_at_zero() == 1.0 / 3.0
    assert m.next_exponent == 1.5
    # pole part: c0 / (-1) + c4 / 1
    assert abs(m.pole_part() - (-2.0 + 0.1)) < 1e-15
    assert TraceModel(coeffs=(), next_exponent=math.inf)(0.3) == 0.0


def test_ordered_chunk_sum_matches_fsum():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(10001)
    assert ordered_chunk_sum(v) == ordered_chunk_sum(v.copy())
    assert abs(ordered_chunk_sum(v) - math.fsum(v.tolist())) < 1e-12


def test_complete_spectrum_is_summed_exactly():
    lams = np.array([0.5, 1.5, 4.0])
    ws = np.array([2.0, 1.0, 3.0])
    model = TraceModel.from_ladder(0, [ws.sum() + 1.0])
    res = continue_one(lams, ws, 1.0, model, model, math.inf)
    assert abs(res.zeta_at_0 - ws.sum()) < 1e-12
    direct = -float(ws @ np.log(lams))
    assert abs(res.zeta_prime_at_0 - direct) < 1e-12 * (1.0 + abs(direct))
    assert res.error_estimate < 1e-10


def test_complete_spectrum_fsums_its_chunk_partials():
    # four chunks of eigenvalues within 1.3e-5 of 1 with weights 2^40, small
    # ones, -2^40 and 1: the first and third chunk's partials nearly cancel,
    # so adding the small second one to the first in turn would lose its
    # low bits; each node's partials are fsummed
    c = mellin._CHUNK
    n = 3 * c + 5
    lams = 1.0 + 1e-9 * np.arange(n)
    big = np.full(c, 2.0**40)
    ws = np.concatenate([big, np.linspace(0.1, 1.0, c), -big, np.ones(5)])
    kernel = 3.0
    model = TraceModel.from_ladder(0, [kernel + ordered_chunk_sum(ws)])
    res = continue_one(lams, ws, kernel, model, model, math.inf)

    lead = min(0.5, 4.0 / float(lams[-1]))
    total = []
    for a, b in [(0.0, lead)] + mellin._panel_edges(lead):
        ts, w32, _ = mellin._panel_nodes(a, b)
        partials = [
            ws[i : i + c] @ np.expm1(-np.outer(lams[i : i + c], ts))
            for i in range(0, n, c)
        ]
        y = np.array([math.fsum(p) for p in zip(*partials)]) / ts
        total.append(float(w32 @ y[:32]))
    b_term = ordered_chunk_sum(ws * exp1(lams))
    zeta0 = model.coeff_at_zero() - kernel
    assert res.zeta_prime_at_0 == np.euler_gamma * zeta0 + math.fsum(total) + b_term


def test_complete_spectrum_constant_mismatch_rejected():
    lams = np.array([1.0, 2.0])
    ws = np.array([1.0, 1.0])
    model = TraceModel.from_ladder(0, [5.0])  # should be 2 + kernel
    with pytest.raises(InputError):
        continue_one(lams, ws, 0.0, model, model, math.inf)


def test_monotone_inputs_required():
    model = TraceModel.from_ladder(0, [2.0])
    with pytest.raises(InputError):
        continue_one(
            np.array([2.0, 1.0]),
            np.array([1.0, 1.0]),
            0.0,
            model,
            model,
            math.inf,
        )


@pytest.mark.parametrize("where", ["eigenvalue", "weight", "kernel weight"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("cutoff", [200.0, math.inf])
def test_non_finite_inputs_refused(where, value, cutoff):
    # a NaN eigenvalue passes the positive and ascending checks, and a NaN
    # weight gave NaN values and a NaN error estimate
    lams, ws, kernel = np.array([0.5, 1.0, 1.5]), np.ones(3), 1.0
    if where == "eigenvalue":
        # both pass the positive and ascending checks there
        lams[1 if math.isnan(value) else 2] = value
    elif where == "weight":
        ws[1] = value
    else:
        kernel = value
    model = TraceModel.from_ladder(2, [2.0, 0.0, 0.5])
    with pytest.raises(InputError, match="must be finite"):
        continue_one(lams, ws, kernel, model, model, cutoff)


def test_non_finite_split_estimate_is_a_miss():
    # a NaN model coefficient makes every split estimate NaN, which is never
    # > target: it used to pick a split and return NaN values
    lams, ws = np.arange(1, 400, dtype=float) * 0.5, np.ones(399)
    ladder = [2.0, 0.0, 0.5, 0.0, 1.0 / 24.0, 0.0, 0.0, 0.0, -1.0 / 5760.0]
    model = TraceModel.from_ladder(2, ladder)
    broken = TraceModel.from_ladder(2, [2.0, math.nan] + ladder[2:])
    assert continue_one(lams, ws, 1.0, model, model, 200.0, 1e-6).error_estimate < 1e-6
    res = continue_one(lams, ws, 1.0, broken, model, 200.0, 1e-6)
    assert isinstance(res, AccuracyError)
    assert res.achievable == math.inf


@pytest.mark.parametrize("cutoff", [0.0, -1.0, -math.inf, math.nan])
def test_truncated_cutoff_must_be_positive(cutoff):
    # an infinite cutoff means a complete spectrum; any other must be > 0
    model = TraceModel.from_ladder(2, [1.0, 0.0, 0.3])
    with pytest.raises(InputError):
        continue_one(np.array([1.0]), np.array([1.0]), 0.0, model, model, cutoff)


def test_unreachable_tolerance_reports_achievable():
    # five eigenvalues cannot support a 1e-10 continuation
    lams = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    ws = np.ones(5)
    model = TraceModel.from_ladder(2, [1.0, 0.0, 0.3])
    err = continue_one(lams, ws, 1.0, model, model, 5.0, target=1e-10)
    assert isinstance(err, AccuracyError)
    assert err.achievable is not None
    assert err.achievable > 1e-10


def test_truncated_continuation_value_and_determinism():
    # lambda_m = m/2 with kernel 1: theta(t) = 1/(e^(t/2)-1) + 1 has the
    # small-t ladder 2/t + 1/2 + O(t), and zeta(s) = 2^s zeta_R(s), so
    # zeta(0) = -1/2 and zeta'(0) = -log(4 pi)/2
    lams = np.arange(1, 400, dtype=float) * 0.5
    ws = np.ones(399)
    # theta(t) = 1/(e^(t/2) - 1) + 1 = 2/t + 1/2 + t/24 - t^3/5760 + O(t^5),
    # so the ladder lives on integer-offset exponents (dim 2), not dim 1.
    model = TraceModel.from_ladder(
        2, [2.0, 0.0, 0.5, 0.0, 1.0 / 24.0, 0.0, 0.0, 0.0, -1.0 / 5760.0]
    )
    out = [
        continue_one(lams, ws, 1.0, model, model, 200.0, target=1e-6)
        for _ in range(2)
    ]
    assert out[0].zeta_prime_at_0 == out[1].zeta_prime_at_0
    assert out[0].split_point == out[1].split_point
    assert out[0].zeta_at_0 == -0.5
    exact = -0.5 * math.log(4.0 * math.pi)
    assert abs(out[0].zeta_prime_at_0 - exact) < max(out[0].error_estimate, 1e-9)


def theta_reference(lams, w, kernel_weight, ts):
    """theta(t) of one sector, one weight column: every chunk's full
    exp(-lambda t) block, dead entries included."""
    parts = [[] for _ in ts]
    for i in range(0, lams.size, 4096):
        sums = w[i : i + 4096] @ np.exp(-np.outer(lams[i : i + 4096], ts))
        for k in range(len(ts)):
            parts[k].append(float(sums[k]))
    return np.array([kernel_weight + math.fsum(p) for p in parts])


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([1, 4095, 4096, 4097, 8193]),
    log_t=st.floats(-9.0, 0.0),
    nodes=st.sampled_from([1, 2, 48]),
    groups=st.one_of(st.none(), st.integers(1, 24)),
    dead=st.booleans(),
    sectors=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=8193, log_t=-4.0, nodes=2, groups=24, dead=True, sectors=3, seed=1)
@example(size=4097, log_t=-2.0, nodes=48, groups=24, dead=False, sectors=2, seed=2)
@example(size=4097, log_t=-3.0, nodes=2, groups=1, dead=True, sectors=1, seed=3)
def test_theta_at_is_the_full_block_bit_for_bit(
    size, log_t, nodes, groups, dead, sectors, seed
):
    """A 1-d ts (groups None), or a stack of groups each equal to the group
    evaluated alone. Groups start up to three decades apart, so on more
    than one chunk some are dead in the later chunks; a dead group's t
    values kill every entry, and it gets its kernel weight."""
    rng = np.random.default_rng(seed)
    lows = log_t + rng.uniform(0.0, 3.0, groups or 1)
    lows[0] = log_t
    spread = rng.uniform(0.0, 1.0, (len(lows), nodes))
    ts = 10.0 ** np.minimum(0.0, lows[:, None] + spread)
    # eigenvalues on both sides of 746 / t for every t
    edge = 746.0 / ts.min()
    lams = np.sort(edge * 10.0 ** rng.uniform(-3.0, 1.0, size))
    if dead:
        ts[-1] = 10.0 ** rng.uniform(4.0, 5.0, nodes)
    weights = rng.integers(-40, 41, (sectors, size)).astype(float)
    weights[0] = rng.standard_normal(size)
    kernel = rng.integers(-2, 3, sectors).astype(float)
    got = mellin._theta_at(lams, weights, kernel, ts if groups else ts[0])
    assert got.shape == ((sectors, groups, nodes) if groups else (sectors, nodes))
    got = got.reshape(sectors, -1, nodes)
    for s in range(sectors):
        for g, group in enumerate(ts[: len(got[s])]):
            want = theta_reference(lams, weights[s], float(kernel[s]), group)
            assert np.array_equal(got[s, g].view(np.uint64), want.view(np.uint64))
        if dead:
            assert np.all(got[s, -1] == kernel[s])


def same(a, b) -> bool:
    """The same continuation result, or the same refusal, bit for bit."""
    if isinstance(a, AccuracyError):
        return type(b) is AccuracyError and (str(a), a.achievable) == (
            str(b),
            b.achievable,
        )
    return a == b


@settings(max_examples=20, deadline=None)
@given(
    radius=st.floats(0.5, 2.0, exclude_max=True),
    l_max=st.integers(150, 2000),
    antipodal=st.booleans(),
    tol=st.sampled_from([1e-6, 1e-8, 1e-13, 1e-15]),
)
def test_sectors_continued_together_equal_each_alone(radius, l_max, antipodal, tol):
    spectrum = round_sphere_spectrum(radius, antipodal, l_max)
    rows = [spectral._sector(spectrum, s) for s in (1, -1, 0)]
    lams, bound = spectrum.lambdas(), spectrum.tail.straight_model()
    together = continue_trace(
        lams, [w for w, _, _ in rows], [k for _, k, _ in rows],
        [m for _, _, m in rows], bound, spectrum.cutoff, tol,
    )
    for (w, k, m), res in zip(rows, together):
        assert same(res, continue_one(lams, w, k, m, bound, spectrum.cutoff, tol))


def test_complete_sectors_continued_together_equal_each_alone():
    spectrum = EquivariantSpectrum(
        ((1.0, 2, 1), (2.0, 1, 0), (3.5, 4, 6)), (1, 0), HeatTail(0, (15.0,), (1.0,))
    )
    rows = [spectral._sector(spectrum, s) for s in (1, -1, 0)]
    together = continue_trace(
        spectrum.lambdas(), [w for w, _, _ in rows], [k for _, k, _ in rows],
        [m for _, _, m in rows], rows[0][2], math.inf,
    )
    for (w, k, m), res in zip(rows, together):
        assert res == continue_one(spectrum.lambdas(), w, k, m, m, math.inf)


def test_sphere_torsion_shares_its_heat_trace_evaluations(monkeypatch):
    calls = []
    real = mellin._theta_at

    def counting(lams, weights, kernel_weight, ts):
        calls.append((len(weights), np.shape(ts)))
        return real(lams, weights, kernel_weight, ts)

    monkeypatch.setattr(mellin, "_theta_at", counting)
    shapes = []
    model_call = TraceModel.__call__

    def recording(self, t):
        shapes.append(np.shape(t))
        return model_call(self, t)

    monkeypatch.setattr(TraceModel, "__call__", recording)
    spectrum = round_sphere_spectrum(1.0, True, 2000)
    spectral.equivariant_torsion_report(spectrum, 1e-8)
    # one stacked pass over the 24 split candidates (delta and delta / 2) of
    # the three sectors, then one call for each of the 11 distinct panels of
    # their panels
    assert calls[0] == (3, (24, 2))
    assert len(calls) == 12
    assert all(shape == (48,) for _, shape in calls[1:])
    # the search evaluates each sector's model once, on that stacked array;
    # the one grid-wide evaluation is the truncation bound's, which decides
    # the feasible candidates
    assert shapes.count((24, 2)) == 3
    assert shapes.count((121,)) == 1


@pytest.mark.parametrize("rule, n", [(mellin._GL32, 32), (mellin._GL16, 16)])
def test_gauss_legendre_tables_are_leggauss(rule, n):
    # the literal tables are numpy's own rule, bit for bit
    nodes, weights = rule
    ref_nodes, ref_weights = leggauss(n)
    assert nodes.dtype == weights.dtype == np.float64
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
