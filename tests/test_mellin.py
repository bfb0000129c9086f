import math

import mpmath
import numpy as np
import pytest
import scipy.special

from k3zeta.errors import AccuracyError, InputError
from k3zeta.mellin import TraceModel, continue_trace, exp1, ordered_chunk_sum


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
    res = continue_trace(lams, ws, 1.0, model, model, math.inf)
    assert abs(res.zeta_at_0 - ws.sum()) < 1e-12
    direct = -float(ws @ np.log(lams))
    assert abs(res.zeta_prime_at_0 - direct) < 1e-12 * (1.0 + abs(direct))
    assert res.error_estimate < 1e-10


def test_complete_spectrum_constant_mismatch_rejected():
    lams = np.array([1.0, 2.0])
    ws = np.array([1.0, 1.0])
    model = TraceModel.from_ladder(0, [5.0])  # should be 2 + kernel
    with pytest.raises(InputError):
        continue_trace(lams, ws, 0.0, model, model, math.inf)


def test_monotone_inputs_required():
    model = TraceModel.from_ladder(0, [2.0])
    with pytest.raises(InputError):
        continue_trace(
            np.array([2.0, 1.0]),
            np.array([1.0, 1.0]),
            0.0,
            model,
            model,
            math.inf,
        )


@pytest.mark.parametrize("cutoff", [0.0, -1.0, -math.inf, math.nan])
def test_truncated_cutoff_must_be_positive(cutoff):
    # an infinite cutoff means a complete spectrum; any other must be > 0
    model = TraceModel.from_ladder(2, [1.0, 0.0, 0.3])
    with pytest.raises(InputError):
        continue_trace(np.array([1.0]), np.array([1.0]), 0.0, model, model, cutoff)


def test_unreachable_tolerance_reports_achievable():
    # five eigenvalues cannot support a 1e-10 continuation
    lams = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    ws = np.ones(5)
    model = TraceModel.from_ladder(2, [1.0, 0.0, 0.3])
    with pytest.raises(AccuracyError) as err:
        continue_trace(lams, ws, 1.0, model, model, 5.0, target=1e-10)
    assert err.value.achievable is not None
    assert err.value.achievable > 1e-10


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
        continue_trace(lams, ws, 1.0, model, model, 200.0, target=1e-6)
        for _ in range(2)
    ]
    assert out[0].zeta_prime_at_0 == out[1].zeta_prime_at_0
    assert out[0].split_point == out[1].split_point
    assert out[0].zeta_at_0 == -0.5
    exact = -0.5 * math.log(4.0 * math.pi)
    assert abs(out[0].zeta_prime_at_0 - exact) < max(out[0].error_estimate, 1e-9)
