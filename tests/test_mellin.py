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
from k3zeta.mellin import TraceModel, continue_trace, exp1
from k3zeta.models import flat_torus_spectrum, round_sphere_spectrum
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


@settings(max_examples=100, deadline=None)
@given(exp1_inputs())
@example(np.array(_EXP1_EDGES))
@example(np.array([0.5, 745.0, np.nextafter(746.0, 0.0), 746.0, 746.0, 800.0, 1e6]))
def test_exp1_is_zero_past_its_nonzero_prefix(x):
    # continue_trace sums E1 only below 746, where it can be nonzero: exp1
    # runs on the prefix below lambda_1 + 64, and on every entry below 746
    # only when the bound on the rest leaves a sum unsettled
    nz = int(np.searchsorted(x, 746.0))
    whole = exp1(x)
    assert np.array_equal(exp1(x[:nz]).view(np.uint64), whole[:nz].view(np.uint64))
    assert not whole[nz:].view(np.uint64).any()  # +0.0, bit for bit


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
    assert TraceModel((), math.inf)(0.3) == 0.0


def test_pole_part_does_not_depend_on_the_order_of_terms():
    # math.fsum rounds the exact sum once, so every order gives its bits
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        ladder = rng.standard_normal(9) * 10.0 ** rng.uniform(-8.0, 8.0, 9)
        model = TraceModel.from_ladder(dim, ladder.tolist())
        shuffled = TraceModel(
            tuple(model.coeffs[i] for i in rng.permutation(9)), model.next_exponent
        )
        assert shuffled.pole_part().hex() == model.pole_part().hex()


def test_complete_spectrum_is_summed_exactly():
    lams = np.array([0.5, 1.5, 4.0])
    ws = np.array([2.0, 1.0, 3.0])
    model = TraceModel.from_ladder(0, [ws.sum() + 1.0])
    res = continue_one(lams, ws, 1.0, model, model, math.inf)
    assert abs(res.zeta_at_0 - ws.sum()) < 1e-12
    direct = -float(ws @ np.log(lams))
    assert abs(res.zeta_prime_at_0 - direct) < 1e-12 * (1.0 + abs(direct))
    assert res.error_estimate < 1e-10


def test_complete_spectrum_fsums_its_chunk_partials(monkeypatch):
    # four chunks of eigenvalues within 1.3e-5 of 1 with weights 2^40, small
    # ones, -2^40 and 1: large terms of both signs beside small ones, summed
    # by one correctly rounded fsum, and neither E1 nor a panel is reached
    def unreached(*args):
        raise AssertionError("a complete spectrum needs no E1 and no panels")

    monkeypatch.setattr(mellin, "exp1", unreached)
    monkeypatch.setattr(mellin, "_panel_nodes", unreached)
    c = mellin._CHUNK
    n = 3 * c + 5
    lams = 1.0 + 1e-9 * np.arange(n)
    big = np.full(c, 2.0**40)
    ws = np.concatenate([big, np.linspace(0.1, 1.0, c), -big, np.ones(5)])
    kernel = 3.0
    model = TraceModel.from_ladder(0, [kernel + math.fsum(ws.tolist())])
    res = continue_one(lams, ws, kernel, model, model, math.inf)

    assert res.zeta_prime_at_0 == -math.fsum((ws * np.log(lams)).tolist())
    assert type(res.zeta_prime_at_0) is type(res.error_estimate) is float
    with mpmath.workdps(40):
        exact = -mpmath.fsum(
            mpmath.mpf(w) * mpmath.log(lam) for w, lam in zip(ws.tolist(), lams.tolist())
        )
        assert abs(res.zeta_prime_at_0 - exact) <= res.error_estimate


def test_complete_spectrum_constant_mismatch_rejected():
    lams = np.array([1.0, 2.0])
    ws = np.array([1.0, 1.0])
    model = TraceModel.from_ladder(0, [5.0])  # should be 2 + kernel
    with pytest.raises(InputError):
        continue_one(lams, ws, 0.0, model, model, math.inf)


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


def _loop_estimates(lams, ws, kernel, model, bound, cutoff):
    """The split search's estimate at every grid point, by the loop over
    Python floats that the estimate table replaced, with a NaN deviation
    counted as infinite."""
    splits = mellin._SPLITS
    ts = np.stack([splits, splits / 2.0], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = mellin._theta_at(lams, np.array([ws]), [kernel], ts)[0].tolist()
        talls = 2.0 * np.exp(-0.5 * cutoff * splits) * bound.abs_model()(splits / 2)
        models = model(ts).tolist()
    q = model.next_exponent
    out = []
    for delta, tall, (th1, th2), (m1, m2) in zip(
        splits.tolist(), talls.tolist(), theta, models
    ):
        dev1, dev2 = abs(th1 - m1), abs(th2 - m2)
        if math.isinf(q):
            below = dev1 + dev2 + tall
        else:
            below = max(dev1, dev2 * 2.0**q) / q + tall / max(q, 1.0)
        est = below + tall * (math.log(1.0 / delta) + 1.0)
        out.append(est if math.isfinite(est) and not math.isnan(dev2) else math.inf)
    return out


@pytest.mark.parametrize(
    "spectrum",
    [
        round_sphere_spectrum(1.0, True, 60),
        round_sphere_spectrum(1.0, False, 60),
        # the twisted model is finite at some split delta and NaN (inf - inf)
        # at delta / 2: that split's estimate is infinite, not finite
        EquivariantSpectrum(
            [(1.0, 1, 0)], (1, 0), HeatTail(2, [1, 0, 0], [0.7e308, -0.85e308, 0]), 5.0
        ),
    ],
    ids=["free", "fixed-curves", "twisted-nan"],
)
def test_split_search_table_is_the_loop_over_floats(spectrum):
    # at target 1e-300 every sector misses and quotes its least estimate over
    # the whole grid, from both passes of the table: bit for bit the least
    # of the loop's
    sectors = [spectral._sector(spectrum, s) for s in (1, -1, 0)]
    weights, kernels, models = zip(*sectors)
    lams, cutoff = spectrum.lambdas(), spectrum.cutoff
    bound = spectrum.tail.bound
    out = continue_trace(lams, np.array(weights), kernels, models, bound, cutoff, 1e-300)
    for res, (w, k, m) in zip(out, sectors):
        assert isinstance(res, AccuracyError)
        assert res.achievable == min(_loop_estimates(lams, w, k, m, bound, cutoff))


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


def theta_reference(lams, w, kernel_weight, ts, floor=mellin._FLOOR):
    """theta(t) of one sector, one weight column: every chunk's full
    exp(-lambda t) block, dead entries included, each term whose exponent
    is at or below `floor` read as 0.0 (with floor -inf, none is)."""
    parts = [[] for _ in ts]
    for i in range(0, lams.size, 4096):
        x = -np.outer(lams[i : i + 4096], ts)
        sums = w[i : i + 4096] @ np.where(x <= floor, 0.0, np.exp(x))
        for k in range(len(ts)):
            parts[k].append(float(sums[k]))
    return np.array([kernel_weight + math.fsum(p) for p in parts])


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(1, 9000),
    log_t=st.floats(-9.0, 0.0),
    nodes=st.sampled_from([1, 2, 3, 4, 5, 48]),
    groups=st.integers(1, 24),
    dead=st.booleans(),
    sectors=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=8193, log_t=-4.0, nodes=2, groups=24, dead=True, sectors=3, seed=1)
@example(size=4097, log_t=-2.0, nodes=48, groups=24, dead=False, sectors=2, seed=2)
@example(size=4097, log_t=-3.0, nodes=2, groups=1, dead=True, sectors=1, seed=3)
@example(size=8193, log_t=-4.0, nodes=3, groups=5, dead=False, sectors=2, seed=4)
@example(size=4097, log_t=-3.0, nodes=5, groups=3, dead=True, sectors=3, seed=5)
@example(size=8193, log_t=-4.0, nodes=1, groups=6, dead=True, sectors=2, seed=6)
@example(size=4160, log_t=-5.0, nodes=1, groups=1, dead=False, sectors=1, seed=7)
def test_theta_at_is_the_full_block_bit_for_bit(
    size, log_t, nodes, groups, dead, sectors, seed
):
    """A stack of groups, each equal to the group evaluated alone. Groups
    start up to three decades apart, so on more than one chunk some are
    dead in the later chunks; a dead group's t values kill every entry,
    and it gets its kernel weight. The widths lie on both sides of
    _NARROW, so blocks built column by column and by the outer product
    both meet the reference, and width 1 takes numpy's dot path. Any size
    up to 9000 lets the live prefixes end at every residue mod _ALIGN, so
    the blocks cut at their aligned live prefix meet the full ones."""
    rng = np.random.default_rng(seed)
    lows = log_t + rng.uniform(0.0, 3.0, groups)
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
    got = mellin._theta_at(lams, weights, kernel, ts)
    assert got.shape == (sectors, groups, nodes)
    for s in range(sectors):
        for g, group in enumerate(ts):
            want = theta_reference(lams, weights[s], float(kernel[s]), group)
            assert np.array_equal(got[s, g].view(np.uint64), want.view(np.uint64))
        if dead:
            assert np.all(got[s, -1] == kernel[s])


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(1, 9000),
    log_t=st.floats(-9.0, 0.0),
    nodes=st.sampled_from([1, 2, 5, 48]),
    groups=st.integers(1, 6),
    band=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=3000, log_t=-3.0, nodes=2, groups=2, band=True, seed=8)
@example(size=5000, log_t=-6.0, nodes=48, groups=1, band=True, seed=9)
@example(size=6, log_t=-5.0, nodes=5, groups=6, band=False, seed=1699)
def test_theta_at_drops_less_than_its_floor_bound(size, log_t, nodes, groups, band, seed):
    """Against the block of exact exponentials, with no term dropped, every
    theta value is within e^_FLOOR * sum |w| plus the rounding of the two
    sums: each dropped term is at most e^_FLOOR |w|, and a sum of n
    products rounds by at most gamma_n sum |w_i e^(-lambda_i t)|, with
    gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3). The kernel weights are 0.0,
    so adding them rounds nothing. With `band`, the last group's t values
    put every term of its column at or below _FLOOR, the least of them
    above -745.13, so the exact block there is subnormal and nonzero, and
    theta drops all of it. The seed-1699 example's exact block holds the
    subnormal term e^-725.18, and its gemv rounds that sum one ulp away
    from theta's, far above e^_FLOOR sum |w|."""
    rng = np.random.default_rng(seed)
    ts = 10.0 ** np.minimum(0.0, log_t + rng.uniform(0.0, 3.0, (groups, nodes)))
    lams = np.sort(708.0 / ts.min() * 10.0 ** rng.uniform(-3.0, 1.0, size))
    if band:
        ts[-1] = rng.uniform(707.6, 745.0, nodes) / lams[0]
    weights = np.stack([rng.standard_normal(size), rng.integers(-40, 41, size)])
    got = mellin._theta_at(lams, weights, [0.0, 0.0], ts)
    gamma = size * 2.0**-53 / (1.0 - size * 2.0**-53)
    for s, w in enumerate(weights):
        dropped = math.exp(mellin._FLOOR) * float(np.abs(w).sum())
        for g, group in enumerate(ts):
            exact = theta_reference(lams, w, 0.0, group, floor=-math.inf)
            rounding = 2.0 * gamma * (np.abs(w) @ np.exp(-np.outer(lams, group)))
            assert np.all(np.abs(got[s, g] - exact) <= dropped + rounding)
        if band:
            assert np.all(got[s, -1] == 0.0)


_BASES = (1.0, 1e3, 1e6, 1e9)


@pytest.mark.parametrize("nodes", [1, 2, 3, 48])
@pytest.mark.parametrize(
    "end", [64, 65, 127, 640, 641, 4095, 4096, 4097, 4096 + 64, 4096 + 65, 8192]
)
def test_theta_at_cut_on_and_past_the_alignment(end, nodes):
    """The longest live prefix of a stack ends exactly on a multiple of
    _ALIGN rows, or one row past it, in the first or the second chunk, and
    every group gets the full block's bits. The eigenvalues come in three
    clusters, [1, 2), [1e3, 2e3) and [1e6, 2e6), then 1e9 onwards, and
    each of three groups is live to the end of one cluster: its block has
    values far from 0.0 right up to its live prefix, where how a reduction
    groups the rows shows in its bits. With blocks cut at a multiple of 1,
    4 or 16 rows instead, width-1 blocks, which take numpy's dot path,
    miss the reference here (numpy 2.4 with its bundled OpenBLAS)."""
    _assert_theta_is_the_reference(*_clustered_case(end, nodes), mellin._theta_at)


def _clustered_case(end, nodes):
    """(lams, ts, weights) of 9000 clustered eigenvalues, three groups,
    live to `end`, end // 2 + 1 and end // 3 + 1 rows, and two sectors."""
    rng = np.random.default_rng(end * 97 + nodes)
    ends = [end, end // 2 + 1, end // 3 + 1]
    sizes = np.diff([0, ends[2], ends[1], ends[0], 9000])
    clusters = [b * (1.0 + rng.uniform(0.0, 1.0, n)) for b, n in zip(_BASES, sizes)]
    lams = np.sort(np.concatenate(clusters))
    edges = mellin._DEAD / np.array([1e8, 1e5, 1e2])  # between the clusters
    ts = edges[:, None] * rng.uniform(1.0, 2.0, (3, nodes))
    ts[:, 0] = edges
    assert np.searchsorted(lams, mellin._DEAD / ts.min(axis=1)).tolist() == ends
    weights = np.stack([rng.standard_normal(9000), rng.integers(-9, 10, 9000)])
    return lams, ts, weights


def _assert_theta_is_the_reference(lams, ts, weights, theta_at):
    """theta_at of two sectors gives every group theta_reference's bits."""
    got = theta_at(lams, weights, [0.5, -1.0], ts)
    for s, kernel in enumerate([0.5, -1.0]):
        for g, group in enumerate(ts):
            want = theta_reference(lams, weights[s], kernel, group)
            assert np.array_equal(got[s, g].view(np.uint64), want.view(np.uint64))


def _staggered_case(nodes):
    """(lams, ts, weights) of 6000 eigenvalues spread over [1, 1e7], six
    groups with live prefixes from 150 to 5900 rows, in one or two chunks,
    and two sectors."""
    rng = np.random.default_rng(nodes)
    lams = np.sort(10.0 ** rng.uniform(0.0, 7.0, 6000))
    ends = [150, 700, 2000, 4100, 4500, 5900]
    ts = (mellin._DEAD / lams[ends])[:, None] * rng.uniform(1.0, 1.5, (6, nodes))
    weights = np.stack([rng.standard_normal(6000), rng.integers(-9, 10, 6000)])
    return lams, ts, weights


@pytest.mark.parametrize(
    "case",
    [("clustered", end, nodes) for end in (64, 65, 4096, 4097, 8192) for nodes in (1, 2, 48)]
    + [("staggered", None, nodes) for nodes in (1, 2, 4, 5, 48)],
)
def test_theta_at_reads_no_row_it_did_not_write(case, monkeypatch):
    """theta with every numpy.empty of the call full of NaN: a stack row
    that is read before it is written (a pad row left unzeroed, say) makes
    its group's sum NaN. Fresh memory is often zero, so the other theta
    tests could pass by luck."""
    kind, end, nodes = case
    data = _clustered_case(end, nodes) if kind == "clustered" else _staggered_case(nodes)
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    def theta_at(*args):
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", poisoned)
            return mellin._theta_at(*args)

    _assert_theta_is_the_reference(*data, theta_at)


@pytest.mark.parametrize(
    "case",
    [("clustered", end, nodes) for end in (64, 4097) for nodes in (1, 2, 48)]
    + [("staggered", None, nodes) for nodes in (1, 2, 48)]
    + [("sphere", None, None)],
)
def test_theta_at_sends_exp_no_input_below_the_floor(case, monkeypatch):
    """Every np.exp of theta reads inputs at or above _FLOOR only. numpy's
    AVX-512 exp leaves its vector fast path for an input below about
    -707.7, and one such input sends its whole vector of 8 to the slow
    path, which costs over ten times as much an input; the blocks of the
    split candidates and the panels mix both kinds of rows. The sphere is
    a zeta_signed of l_max 2000, so theta is checked on the stacks and
    panels of a whole continuation; the np.exp calls outside theta (the
    truncation bound's) are not watched."""
    kind, end, nodes = case
    least = []
    exp, theta_at = np.exp, mellin._theta_at

    def watched(x, *args, **kwargs):
        least.append(float(np.min(x, initial=math.inf)))
        return exp(x, *args, **kwargs)

    def watched_theta_at(*args):
        with monkeypatch.context() as patch:
            patch.setattr(np, "exp", watched)
            return theta_at(*args)

    monkeypatch.setattr(mellin, "_theta_at", watched_theta_at)
    if kind == "sphere":
        spectral.zeta_signed(round_sphere_spectrum(1.0, True, 2000), 1)
    else:
        lams, ts, weights = (
            _clustered_case(end, nodes) if kind == "clustered" else _staggered_case(nodes)
        )
        mellin._theta_at(lams, weights, [0.5, -1.0], ts)
    assert least and min(least) >= mellin._FLOOR


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
# plus and twisted return results while minus refuses: a missed sector gets
# no panels while the others still integrate
@example(radius=1.0, l_max=150, antipodal=True, tol=1e-15)
def test_sectors_continued_together_equal_each_alone(radius, l_max, antipodal, tol):
    spectrum = round_sphere_spectrum(radius, antipodal, l_max)
    rows = [spectral._sector(spectrum, s) for s in (1, -1, 0)]
    lams = spectrum.lambdas()
    bound = TraceModel.from_ladder(spectrum.tail.dim, spectrum.tail.straight)
    together = continue_trace(
        lams, [w for w, _, _ in rows], [k for _, k, _ in rows],
        [m for _, _, m in rows], bound, spectrum.cutoff, tol,
    )
    for (w, k, m), res in zip(rows, together):
        assert same(res, continue_one(lams, w, k, m, bound, spectrum.cutoff, tol))


# float.hex of (zeta(0), zeta'(0), error estimate, split point) of the plus,
# minus and twisted sectors of round_sphere_spectrum(radius, True, l_max),
# continued together at tol
_MULTI_CHUNK = {
    (1.0, 8500, 1e-8): [
        ("-0x1.aaaaaaaaaaaabp-1", "-0x1.625e9ec9084aap+0",
         "0x1.09ab6a85a8fb3p-45", "0x1.0000000000000p-4"),
        ("0x1.5555555555555p-3", "-0x1.ea8cd1d4716f4p-3",
         "0x1.0dc07394c31c3p-44", "0x1.ae89f995ad3adp-10"),
        ("-0x1.0000000000000p+0", "-0x1.250d048e7a1c0p+0",
         "0x1.ebf5efc7aed50p-46", "0x1.0000000000000p-4"),
    ],
    (0.6, 5000, 1e-6): [
        ("-0x1.aaaaaaaaaaaabp-1", "-0x1.10d5ae249e775p-1",
         "0x1.9b7deaee872c0p-45", "0x1.6a09e667f3bcdp-10"),
        ("0x1.5555555555555p-3", "-0x1.a3a308af9994cp-2",
         "0x1.4dbe5feeae48ep-46", "0x1.6a09e667f3bcdp-6"),
        ("-0x1.0000000000000p+0", "-0x1.f8214e668d694p-4",
         "0x1.ecb9787dd80fcp-46", "0x1.6a09e667f3bcdp-6"),
    ],
}


@pytest.mark.parametrize("radius, l_max, tol", sorted(_MULTI_CHUNK))
def test_multi_chunk_continuation_keeps_its_bits(radius, l_max, tol):
    """More than one _CHUNK of entries in every sector: the E1 term is
    nonzero only in the first chunk, where exp1 runs on the entries below
    lambda_1 + 64 and the rest up to 746 is bounded, and the split search
    reduces theta blocks in every chunk. The values are pinned, so the
    bound and its check keep them bit for bit."""
    spectrum = round_sphere_spectrum(radius, True, l_max)
    rows = [spectral._sector(spectrum, s) for s in (1, -1, 0)]
    lams = spectrum.lambdas()
    assert lams.size > mellin._CHUNK
    bound = TraceModel.from_ladder(spectrum.tail.dim, spectrum.tail.straight)
    together = continue_trace(
        lams, [w for w, _, _ in rows], [k for _, k, _ in rows],
        [m for _, _, m in rows], bound, spectrum.cutoff, tol,
    )
    got = [
        tuple(float.hex(v) for v in (r.zeta_at_0, r.zeta_prime_at_0))
        + tuple(float.hex(v) for v in (r.error_estimate, r.split_point))
        for r in together
    ]
    assert got == _MULTI_CHUNK[radius, l_max, tol]


_GRAMS_3 = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
            [[1, 0, 0], [0, 2, 1], [0, 1, 3]])


@st.composite
def e1_cases(draw):
    """(eigenvalues, weight rows) for mellin._e1_sums: the plus, minus and
    twisted sectors of an antipodal or plain sphere, or of a 2- or 3-torus
    under any character; or a hand-built spectrum, of one entry or with
    entries on either side of lambda_1 + 64 and of 746, weights up to 2**53
    in size, and at times a row whose prefix weights all vanish."""
    kind = draw(st.sampled_from(["sphere", "torus", "hand", "one entry"]))
    if kind == "sphere":
        spectrum = round_sphere_spectrum(
            draw(st.floats(0.05, 5.0)), draw(st.booleans()), draw(st.integers(2, 200))
        )
    elif kind == "torus":
        if draw(st.booleans()):
            a = draw(st.integers(1, 3))
            b, c = draw(st.integers(0, a // 2)), draw(st.integers(a, 3))
            gram = [[a, b], [b, c]]
            cutoff = draw(st.floats(20.0, 900.0))
        else:
            gram = draw(st.sampled_from(_GRAMS_3))
            cutoff = draw(st.floats(5.0, 40.0))
        n = len(gram)
        character = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        spectrum = flat_torus_spectrum(gram, character, cutoff)
    if kind in ("sphere", "torus"):
        rows = [spectral._sector(spectrum, s)[0] for s in (1, -1, 0)]
        return spectrum.lambdas(), np.array(rows)
    first = 10.0 ** draw(st.floats(-3.0, 2.95))  # past 746 at times
    edges = (first + 64.0, 746.0)
    near = [math.nextafter(e, d) for e in edges for d in (0.0, e, math.inf)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(0, 40)) if kind == "hand" else 0
    picked = draw(st.lists(st.sampled_from(near), max_size=len(near) if size else 0))
    lams = np.unique([first, *picked, *rng.uniform(first, 900.0, size)])
    lams = lams[lams >= first]
    big = 2**53
    pool = [0, 1, -1, 2, -3, big, -big, big - 1, 1 - big, big // 3]
    weights = rng.choice(pool, size=(draw(st.integers(1, 3)), lams.size)).astype(float)
    if draw(st.booleans()):
        # the prefix adds nothing, so the bound on the rest decides
        weights[0, lams < first + 64.0] = 0.0
    return lams, weights


@settings(max_examples=150, deadline=None)
@given(e1_cases())
@example((np.array([1.0]), np.array([[2.0**53]])))
@example((np.array([745.0, 746.0]), np.array([[1.0, -1.0]])))
@example((np.array([746.0, 800.0]), np.array([[1.0, 2.0]])))
def test_e1_sums_are_the_fsum_of_every_term_below_746(case):
    lams, weights = case
    nz = int(np.searchsorted(lams, 746.0))
    e1 = exp1(lams[:nz])
    want = [math.fsum((w[:nz] * e1).tolist()).hex() for w in weights]
    got = mellin._e1_sums(lams, weights, range(len(weights)))
    assert [got[s].hex() for s in range(len(weights))] == want


def recording_exp1(monkeypatch):
    """Replace mellin.exp1 by one that records the size of each input."""
    sizes = []
    real = mellin.exp1

    def recording(x):
        sizes.append(len(x))
        return real(x)

    monkeypatch.setattr(mellin, "exp1", recording)
    return sizes


def test_e1_falls_back_to_every_entry_when_the_prefix_cannot_settle(monkeypatch):
    # the plus sector of the antipodal sphere of radius 0.091: its prefix
    # below lambda_1 + 64 is l = 1, whose weight is 0, while l = 2 (lambda
    # 362) has weight 5; S = 0 < T, so the E1 of all three entries below
    # 746 is summed, as with no prefix at all
    spectrum = round_sphere_spectrum(0.091, True, 87)
    weights, kernel, model = spectral._sector(spectrum, 1)
    lams = spectrum.lambdas()
    assert weights[0] == 0.0 and lams[1] > lams[0] + mellin._E1_REACH
    sizes = recording_exp1(monkeypatch)
    bound = TraceModel.from_ladder(spectrum.tail.dim, spectrum.tail.straight)
    res = continue_one(lams, weights, kernel, model, bound, spectrum.cutoff)
    assert sizes == [1, 3]
    # the value without the prefix rule
    assert res.zeta_prime_at_0.hex() == "0x1.4e27287000000p+1"


def test_e1_runs_on_a_short_prefix(monkeypatch):
    sizes = recording_exp1(monkeypatch)
    spectrum = flat_torus_spectrum([[2, 1], [1, 3]], [1, 0], 650)
    spectral.equivariant_determinant_report(spectrum, 1e-8)
    # 158 entries lie below lambda_1 + 64, of the 1,319 below 746
    assert 0 < sum(sizes) <= 160
    # sectors that miss their target take no E1
    sizes.clear()
    rows = [spectral._sector(spectrum, s) for s in (1, -1, 0)]
    bound = TraceModel.from_ladder(spectrum.tail.dim, spectrum.tail.straight)
    results = continue_trace(
        spectrum.lambdas(), [w for w, _, _ in rows], [k for _, k, _ in rows],
        [m for _, _, m in rows], bound, spectrum.cutoff, 1e-300,
    )
    assert all(isinstance(r, AccuracyError) for r in results)
    assert sizes == []


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
    assert all(shape == (1, 48) for _, shape in calls[1:])
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


def panel_alone(a, b):
    """One panel [a, b] mapped on its own: its 32 + 16 nodes and both
    weight sets."""
    (x32, w32), (x16, w16) = mellin._GL32, mellin._GL16
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    return np.concatenate([half * x32 + mid, half * x16 + mid]), half * w32, half * w16


@settings(max_examples=50, deadline=None)
@given(
    log_delta=st.floats(-12.0, -0.3),
    lead=st.floats(1e-6, 0.5),
    extra=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_panel_table_rows_are_each_panel_mapped_alone(log_delta, lead, extra, seed):
    # a panel from 0, some of the doubling panels of a small split in any
    # order, and arbitrary panels
    edges = mellin._panel_edges(10.0**log_delta)
    rng = np.random.default_rng(seed)
    picks = rng.permutation(len(edges))[: rng.integers(1, len(edges) + 1)]
    panels = [(0.0, lead)] + [edges[i] for i in picks]
    panels += [tuple(sorted(p)) for p in extra]
    table = mellin._panel_nodes(panels)
    assert [t.shape for t in table] == [(len(panels), n) for n in (48, 32, 16)]
    for (a, b), *rows in zip(panels, *table):
        for got, want in zip(rows, panel_alone(a, b)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
