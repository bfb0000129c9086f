"""Zeta values at s = 0 from truncated heat traces, by Mellin splitting.

For a weighted spectrum theta(t) = w0 + sum_i w_i exp(-lambda_i t) whose
t -> 0 behaviour is declared by a power model P(t) = sum_j p_j t^{e_j}, the
continuation of zeta(s) = sum_i w_i lambda_i^{-s} to s = 0 is

    zeta(0)  = p_0 - w0                      (p_0 the t^0 model coefficient)
    zeta'(0) = euler_gamma * zeta(0) + sum_{e != 0} p_e / e
               + int_0^1 (theta(t) - P(t)) / t dt
               + sum_i w_i E1(lambda_i)

which follows from splitting int_0^inf t^{s-1} at t = 1 and expanding
1 / Gamma(s) = s + euler_gamma * s^2 + O(s^3). A complete spectrum (an
infinite cutoff) takes the closed form instead: its zeta(s) is a finite
sum, entire, so zeta(0) = sum w_i and zeta'(0) = -sum w_i log lambda_i,
with no E1, no model integral and no panels.

The subtlety is that theta is only known from entries up to a cutoff. Below
a deterministically chosen split point delta the integrand is replaced by
the model (whose error is estimated from the first omitted ladder power);
above delta the truncated theta is integrated by composite Gauss-Legendre
on geometrically growing panels, with the truncation bounded through
exp(-cutoff*t/2) * P_bound(t/2). Every result carries the summed error
estimate; if no split point meets the requested tolerance the evaluation
refuses with the achievable bound instead of returning a silently bad
number. Both float acceptance checks of the module go through the
package's one rule, errors._within: an estimate meets the target when it
is at most the target, and a complete sector's constant meets its state
count by constant_mismatch.

The panels use a 32-node rule with an embedded 16-node rule for the error
estimate. Both are literal tables of the values that
numpy.polynomial.legendre.leggauss(32) and (16) return, stored as their
negative halves and mirrored (leggauss's rules are exactly symmetric), so
numpy.polynomial is not imported; a test checks the tables bit for bit.

The E1 term is the correctly rounded sum of its terms, and a complete
spectrum's sums are one math.fsum over the entries; theta combines its
chunk partials with math.fsum, node by node.

The engine checks none of its arguments: they are the arrays of a checked
EquivariantSpectrum, as spectral._continue passes them, whose constructor
makes the eigenvalues finite, positive and strictly ascending and a
truncated cutoff finite and positive; its heat tail gives each model a
next exponent of at least 1/2, and spectral._continue checks the target.

All sectors of one spectrum (one weight row each) are continued in one
call. They share E1 of the eigenvalues, the split candidates (which depend
only on the cutoff, the bound model and the target), and every chunk's
exp(-lambda t) block; each sector reduces a block with its own 1-d
`w @ block` of the block's own shape, so it gets the bits it gets when
continued alone. Each sector still picks its own split, and theta is
evaluated once per distinct panel of the sectors' panels.

All split candidates are evaluated in one stacked pass: each chunk holds
one (chunk, 2) block per candidate, for delta and delta / 2, in one
(candidates, chunk, 2) stack, and each sector reduces the whole stack with
one `w @ stack`. numpy's matmul runs on each contiguous block of the stack
the gemv a lone block gets, so every candidate keeps its bits. Merging the
candidates into one wide block, or reducing strided column views, would
not: how a gemv kernel accumulates a column depends on the width and the
layout of its block. Each sector's model is evaluated once on the same
(candidates, 2) array of split points, the only model values the search
reads.

The split search is one (sectors x candidates) table of estimates, and of
their below-split parts, computed elementwise from that theta and those
model values, with log(1 / delta) + 1 read from a module table of libm's
log at each candidate. A sector's split is the first least entry of its
row. A deviation that is NaN (a model undefined at delta / 2, say) makes
its estimate NaN, and a non-finite estimate counts as infinite, so it
never wins a split or passes the target.

A block of at most _NARROW columns, such as a candidate's (delta, delta
/ 2), is filled one column at a time, each column one 1-d multiply of the
eigenvalues by -t, and then exponentiated in one call over the contiguous
block. numpy's outer product runs its inner loop along a row, so on a
block two columns wide it pays a loop call for every two products, and
filling by columns runs the same multiplies about three times faster. A
wider block (a panel's 48 nodes) is filled by einsum("i,j->ij") into the
block, about twice as fast there as np.multiply.outer; columns stay the
faster up to _NARROW = 4. The products are the same IEEE multiplies every
way, and the block keeps its shape, so its gemv keeps its bits. A stack
is allocated uninitialized: the fill writes each block's live prefix, and
only the rows past it are zeroed.

The panels of a continuation are one table: (panels, 48) nodes, 32 and
then 16 a panel, and (panels, 32) and (panels, 16) weights. The models and
the truncation bound are elementwise, so they are evaluated once on the
whole table, and each sector integrates its own rows, in ascending order.
theta keeps one call per panel, for the sectors that use it: one call for
all panels would hold a whole-chunk block for each at once (eleven times
the memory of one call for a sphere of l_max 2000), and every sector would
reduce the blocks of panels it does not use.

No work is spent on E1 terms that are exactly 0.0. exp(-x) rounds to
exactly 0.0 for every x >= 746, since e^-746 is below half the least
subnormal 2^-1074, and the eigenvalues ascend. So the E1 term is the fsum
over its nonzero prefix, lambda < 746, only: exp1 returns exactly 0.0 past
it, and fsum ignores exact zeros, so the sum keeps its bits.

Nor is E1 evaluated where it cannot move that sum. _e1_sums runs exp1
only on the entries below lambda_1 + 64, whose terms sum to S by fsum;
past lambda_1 + 64 a term is below e^-64 of the first. Each sector's rest
below 746 is at most T = (1 + 1e-6) sum |w| e^-m / lambda, m = min(lambda,
700), since E1(x) < e^-x / x. The factor 1 + 1e-6 covers the rounding of
exp1, of the products and of T: on the rest lambda > 64, where E1(x) <
(1 - 1/x + 2/x^2) e^-x / x leaves a margin above 1e-3, and from 700 on,
where a term may be subnormal, e^-700 / lambda is a normal bound far above
it. The min also keeps np.exp on its fast path. math.fsum rounds the exact
sum of its inputs once, and rounding is monotone. So when fsum of the
prefix terms with -T and with +T both give S, the sum over every term
below 746 rounds to S too, bit for bit. A sector the check does not settle
(a prefix that sums to about 0, say) takes that whole sum, as before, with
exp1 run once more on every entry below 746. A sector that missed its
target needs no E1 and gets none.

theta drops every term whose computed exponent -lambda t is at or below
_FLOOR = -707.5: the term reads 0.0. A dropped term is at most
e^-707.5 |w| < 7.3e-308 |w|, so theta moves by less than 7.3e-308 sum |w|
plus the rounding of the sum; for at most 2^53 states the first part is
270 orders of magnitude below the 1e-14 error floor. The floor is where
numpy's vectorized exp stays cheap. With AVX-512 (numpy 2.4) it keeps a
vector of 8 inputs on its fast path, about 1 ns an input, only when every
input is above about -707.7. An input in the subnormal band (-745, -708)
costs 110 to 140 ns, one below -746 16 to 19 ns, and one slow input in 8
makes its whole vector cost 15 to 30 ns an input. e^-707.5 is a normal
double, inside the fast range. So the rows of a block whose every term is
above the floor, lambda < 707 / max(ts), go to exp as they are. On the
rows from there on, the fringe, the terms at or below the floor are
marked, raised to _FLOOR with one np.maximum, so that the block's one exp
stays on the fast path, and set to 0.0 after it with np.putmask. The rule
is elementwise: a term's value does not depend on the block it is in.

Only the live prefix of a theta block is evaluated: every row with
lambda >= _DEAD / min(ts), _DEAD = 708, has every term at or below the
floor (708 leaves room for the rounding of that quotient and of the
products lambda t), so it reads 0.0 whether it is built or not. In a stack
each block has its own prefix, from the least t of its own group. A
chunk's stack stops at the longest of them, rounded up to a multiple of
_ALIGN = 64 rows and capped at the chunk, and the rows of a block between
its prefix and that end are left as zeros. The rows dropped are zeros,
which add nothing to a sum, and dropping them in whole multiples of 64
rows leaves how numpy's OpenBLAS dot and gemv kernels group the live rows
unchanged, so each reduction keeps the bits of the full block. A multiple
of 4 is not enough: a width-1 block, which takes numpy's dot path, then
groups its last live rows differently. Chunks wholly past a block's prefix
give it 0.0, which leaves the fsum of its partials unchanged.

E1 is computed here rather than imported: it is the only special function
the continuation needs, and importing scipy.special would more than double
the start-up time of every command. `exp1` follows the E1XB routine of
Zhang and Jin, *Computation of Special Functions* (1996), operation for
operation, so it reproduces scipy's exp1 (which follows the same routine)
to the bit. That fixes its constants and its arithmetic order: Euler's
gamma as the correctly rounded double np.euler_gamma (the
0.5772156649015328 printed with the routine is one ulp lower and changes
most results below 1), exp(-x) * (1 / (x + t0)) rather than
exp(-x) / (x + t0), which differs by an ulp on about a quarter of inputs,
and libm's exp and log through the math module, since numpy's vectorized
exp need not round the same way.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .errors import AccuracyError, InputError, _within

DEFAULT_TARGET = 1e-8
_CHUNK = 4096
_FLOOR = -707.5  # theta drops every term exp(x) with x <= _FLOOR
_DEAD = 708.0  # so a row with lambda * t >= _DEAD for every t adds nothing
_FEW_LIVE = 32  # below this many live entries a numpy step costs more than a loop
_NARROW = 4  # theta blocks at most this wide are built column by column
_ALIGN = 64  # theta blocks stop at their live prefix rounded up to 64 rows
_E1_REACH = 64.0  # exp1 runs on lambda < lambda_1 + _E1_REACH; the rest is bounded
_SPLITS = 0.5 * 2.0 ** (-0.25 * np.arange(121))  # the split candidates
_SPLITS.flags.writeable = False
# log(1 / delta) + 1 at each candidate, by libm's log (numpy's need not
# round the same way)
_LOG_TERMS = np.array([math.log(1.0 / d) + 1.0 for d in _SPLITS.tolist()])
_LOG_TERMS.flags.writeable = False


def _mirrored(nodes, weights):
    """A symmetric rule on [-1, 1] from its negative nodes, ascending, and
    their weights."""
    x = np.array(nodes + [-v for v in reversed(nodes)])
    return x, np.array(weights + weights[::-1])


# leggauss(32) and leggauss(16) from their negative halves
_GL32 = _mirrored(
    [
        -0.9972638618494816, -0.9856115115452684, -0.9647622555875064,
        -0.9349060759377397, -0.8963211557660521, -0.84936761373257,
        -0.7944837959679424, -0.7321821187402897, -0.6630442669302152,
        -0.5877157572407623, -0.5068999089322294, -0.42135127613063533,
        -0.33186860228212767, -0.23928736225213706, -0.1444719615827965,
        -0.048307665687738324,
    ],
    [
        0.007018610009470506, 0.016274394730905743, 0.025392065309262024,
        0.034273862913021765, 0.042835898022226836, 0.05099805926237609,
        0.058684093478535565, 0.06582222277636168, 0.07234579410884834,
        0.07819389578707023, 0.08331192422694671, 0.08765209300440378,
        0.09117387869576378, 0.09384439908080451, 0.09563872007927471,
        0.09654008851472766,
    ],
)
_GL16 = _mirrored(
    [
        -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
        -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
        -0.2816035507792589, -0.09501250983763744,
    ],
    [
        0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
        0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
        0.18260341504492364, 0.18945061045506864,
    ],
)


class TraceModel(Record):
    """Small-t power model sum_j coeffs[e_j] * t^{e_j} of a heat trace,
    kernel included. `next_exponent` is the first ladder power *not*
    declared (math.inf when the remainder is exponentially small)."""

    coeffs: tuple[tuple[float, float], ...]
    next_exponent: float

    @staticmethod
    def from_ladder(dim: int, coeffs) -> "TraceModel":
        """Model on the ladder t^((j - dim)/2), j = 0 .. len(coeffs)-1."""
        pairs = tuple(((j - dim) / 2.0, float(c)) for j, c in enumerate(coeffs))
        nxt = (len(coeffs) - dim) / 2.0
        return TraceModel(pairs, nxt)

    def coeff_at_zero(self) -> float:
        return math.fsum(c for e, c in self.coeffs if e == 0)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for e, c in self.coeffs:
            if c != 0.0:
                out = out + c * t ** e
        return out

    def abs_model(self) -> "TraceModel":
        return TraceModel(
            tuple((e, abs(c)) for e, c in self.coeffs), self.next_exponent
        )

    def pole_part(self) -> float:
        """sum over nonzero exponents of p_e / e, correctly rounded, so in
        any order of the terms."""
        return math.fsum(c / e for e, c in self.coeffs if e != 0 and c != 0.0)


class ContinuationResult(Record):
    zeta_at_0: float
    zeta_prime_at_0: float
    error_estimate: float
    split_point: float


def exp1(lams) -> np.ndarray:
    """E1(x) for positive, ascending x, by E1XB: a power series for x <= 1
    and a backward continued fraction of depth 20 + int(80/x) above 1.

    Ascending order makes the entries still live at depth k a prefix. The
    deep steps, where fewer than _FEW_LIVE entries are live, run entry by
    entry on Python floats; the steps below run over numpy prefix slices.
    Both do the same IEEE operations in the same order. exp(-x) underflows
    to 0 for every x >= 746.
    """
    x = np.asarray(lams, dtype=float)
    out = np.zeros_like(x)
    lo = int(np.searchsorted(x, 1.0, side="right"))
    hi = int(np.searchsorted(x, 746.0))
    for i, v in enumerate(x[:lo].tolist()):
        e = r = 1.0
        for k in range(1, 26):
            r = -r * k * v / ((k + 1.0) * (k + 1.0))
            e += r
            if abs(r) <= abs(e) * 1e-15:
                break
        out[i] = -np.euler_gamma - math.log(v) + v * e
    xs = x[lo:hi]
    t0 = np.zeros_like(xs)
    if xs.size:
        depth = 20 + (80.0 / xs).astype(int)
        # fewer than _FEW_LIVE entries are live at every step deeper than k0
        k0 = int(depth[_FEW_LIVE - 1]) if xs.size >= _FEW_LIVE else 0
        deep = int(np.searchsorted(-depth, -k0))
        for i, (v, d) in enumerate(zip(xs[:deep].tolist(), depth[:deep].tolist())):
            t = 0.0
            for k in range(d, k0, -1):
                t = k / (1.0 + k / (v + t))
            t0[i] = t
        live = np.searchsorted(-depth, -np.arange(k0, 0, -1), side="right")
        scratch = np.empty_like(xs)
        for k, p in zip(range(k0, 0, -1), live.tolist()):
            # t0 = k / (1 + k / (x + t0)) on the prefix, in place
            step = scratch[:p]
            np.add(xs[:p], t0[:p], out=step)
            np.divide(k, step, out=step)
            np.add(1.0, step, out=step)
            np.divide(k, step, out=t0[:p])
    exps = np.fromiter(map(math.exp, (-xs).tolist()), dtype=float, count=xs.size)
    out[lo:hi] = exps * (1.0 / (xs + t0))
    return out


def _theta_at(lams, weights, kernel_weight, ts):
    """theta(t) of every sector at a stack `ts` of groups of t values, of
    shape (groups, t values): one row of `weights` and one `kernel_weight`
    a sector. Gives (sectors, groups, t values), each group the values it
    gets alone.

    Each chunk's exp(-lambda t) blocks are computed once, one block for
    each group still live in the chunk, in one stack, and each
    sector reduces the stack with one `w @ stack`: one gemv on each block,
    the same one a lone block gets, which is why a group's bits do not
    depend on the others. Every term whose exponent is at or below _FLOOR
    is dropped (reads 0.0): from the group's cut, the first row with a
    term that may be, such terms are raised to _FLOOR before the block's
    one np.exp, which then stays on its vector fast path, and zeroed after
    it (see the module docstring). Only a group's live prefix is
    evaluated, and the stack stops at the longest live prefix of its
    groups, rounded up to a multiple of _ALIGN rows. The rows a block
    loses are zeros, dropped in whole multiples of 64 rows, so its dot or
    gemv groups the live rows as over the whole chunk and keeps the full
    block's bits; tests/test_mellin.py checks every group against the
    whole-chunk block with the same terms dropped
    (test_theta_at_is_the_full_block_bit_for_bit, and
    test_theta_at_cut_on_and_past_the_alignment for prefixes that end on
    a multiple of 64 rows and one row past it), and against the exact
    exponentials within e^_FLOOR sum |w| plus the rounding of both sums
    (test_theta_at_drops_less_than_its_floor_bound). A chunk past a
    group's live prefix gives it 0.0.
    """
    lives = np.searchsorted(lams, _DEAD / ts.min(axis=1)).tolist()
    cuts = np.searchsorted(lams, (_DEAD - 1.0) / ts.max(axis=1)).tolist()
    shape = (len(weights),) + ts.shape
    partials = []  # one (sectors, groups, t values) array a chunk
    for i in range(0, max(lives), _CHUNK):
        alive = [g for g, live in enumerate(lives) if live > i]
        # rows up to the longest live prefix, rounded up to whole _ALIGN rows
        reach = max(lives[g] for g in alive) - i
        size = min(_CHUNK, lams.size - i, -(-reach // _ALIGN) * _ALIGN)
        stack = np.empty((len(alive), size, ts.shape[1]))
        for block, g in zip(stack, alive):
            head = block[: lives[g] - i]
            block[len(head) :] = 0.0
            live = lams[i : i + len(head)]
            if ts.shape[1] <= _NARROW:
                for j, t in enumerate(ts[g].tolist()):
                    np.multiply(live, -t, out=head[:, j])
            else:
                np.einsum("i,j->ij", live, -ts[g], out=head)
            # from its cut on, a block raises each term at or below _FLOOR to
            # _FLOOR for exp's fast path, then drops it
            fringe = head[max(cuts[g] - i, 0) :]
            dropped = fringe <= _FLOOR
            np.maximum(fringe, _FLOOR, out=fringe)
            np.exp(head, out=head)
            np.putmask(fringe, dropped, 0.0)
        sums = np.array([w[i : i + size] @ stack for w in weights])
        if len(alive) < len(ts):  # the groups past their live prefix get 0.0
            sums, live_sums = np.zeros(shape), sums
            sums[:, alive] = live_sums
        partials.append(sums)
    kernel = np.asarray(kernel_weight, dtype=float)[:, None, None]
    if len(partials) == 1:
        return kernel + partials[0]
    # elementwise over the chunks; with no chunk, every sum is 0.0
    columns = np.reshape(partials, (len(partials), math.prod(shape))).T.tolist()
    return kernel + np.reshape([math.fsum(c) for c in columns], shape)


def _panel_edges(delta: float) -> list[tuple[float, float]]:
    edges = [delta]
    while edges[-1] < 1.0:
        edges.append(min(1.0, 2.0 * edges[-1]))
    return list(zip(edges[:-1], edges[1:]))


def _panel_nodes(panels):
    """The panel table of a list of panels (a, b): one row a panel, its 32
    and then 16 Gauss-Legendre nodes (panels, 48), and the two weight sets
    (panels, 32) and (panels, 16). A row holds the bits of its panel mapped
    alone: half * x + mid and half * w are elementwise."""
    a, b = np.reshape(panels, (-1, 2)).T
    half, mid = (0.5 * (b - a))[:, None], (0.5 * (b + a))[:, None]
    nodes = np.concatenate([half * _GL32[0] + mid, half * _GL16[0] + mid], axis=1)
    return nodes, half * _GL32[1], half * _GL16[1]


def _integrate(y, w32, w16, rows):
    """Composite 32-node Gauss-Legendre with an embedded 16-node error
    estimate over the panels `rows` of a panel table, from its weights and
    the integrand `y` at its nodes."""
    total = []
    err = 0.0
    for p in rows:
        i32 = float(w32[p] @ y[p, :32])
        i16 = float(w16[p] @ y[p, 32:])
        total.append(i32)
        err += abs(i32 - i16)
    return math.fsum(total), err


def continue_trace(
    lams,
    weights,
    kernel_weights,
    models,
    bound_model: TraceModel,
    cutoff: float,
    target: float = DEFAULT_TARGET,
) -> list:
    """Continue each sector's zeta(s) = sum w_i lambda_i^{-s} to s = 0 and
    differentiate.

    A sector is one row of `weights` (sectors x entries) with its
    `kernel_weights` entry and its `models` entry, which declares the t -> 0
    behaviour of that sector's full trace (kernel included). `bound_model`
    is a nonnegative model dominating the absolute trace of every sector,
    used only for truncation bounds. An infinite `cutoff` asserts the
    entries are the entire spectrum, in which case each model must be the
    matching constant, and each sector takes the closed form
    zeta'(0) = -sum w log lambda (see _continue_complete).

    Returns one item per sector: its ContinuationResult, or the
    AccuracyError it refuses with when no split point meets `target`, so
    one sector's miss does not stop the others.

    Nothing is checked here: the arguments are those of a checked
    EquivariantSpectrum and a positive `target`, as spectral._continue
    passes them.
    """
    weights = np.asarray(weights, dtype=float)
    if cutoff == math.inf:
        return _continue_complete(lams, weights, kernel_weights, models)
    # a huge heat-tail coefficient overflows the models and the truncation
    # bound; a non-finite estimate is already a miss, so none of it warns
    with np.errstate(over="ignore", invalid="ignore"):
        return _continue_truncated(
            lams, weights, kernel_weights, models, bound_model, cutoff, target
        )


def _e1_sums(lams, weights, sectors) -> dict:
    """sum_i w_i E1(lambda_i) of each sector of `sectors` (rows of
    `weights`), keyed by sector: the fsum of its terms below 746, bit for
    bit, from exp1 on the entries below lambda_1 + _E1_REACH and a bound
    T on the rest, checked against that fsum with -T and +T; a sector the
    check does not settle sums every term below 746 (see the module
    docstring)."""
    nz = int(np.searchsorted(lams, 746.0))
    if not sectors or not nz:
        return dict.fromkeys(sectors, 0.0)
    head = min(int(np.searchsorted(lams, lams[0] + _E1_REACH)), nz)
    e1 = exp1(lams[:head])
    tail = lams[head:nz]
    decay = (1.0 + 1e-6) * np.exp(-np.minimum(tail, 700.0)) / tail
    full = None  # E1 below 746, for a sector the check does not settle
    sums = {}
    for s in sectors:
        terms = (weights[s, :head] * e1).tolist()
        total = math.fsum(terms)
        bound = float(np.abs(weights[s, head:nz]) @ decay)
        if not math.fsum(terms + [-bound]) == total == math.fsum(terms + [bound]):
            if full is None:
                full = exp1(lams[:nz])
            total = math.fsum((weights[s, :nz] * full).tolist())
        sums[s] = total
    return sums


def _continue_truncated(
    lams, weights, kernel_weights, models, bound_model, cutoff, target
) -> list:
    """continue_trace on a truncated spectrum."""
    abs_bound = bound_model.abs_model()

    def trunc_bound(t):
        return 2.0 * np.exp(-0.5 * cutoff * t) * abs_bound(t / 2.0)

    tvals = trunc_bound(_SPLITS)
    feasible = np.flatnonzero(tvals <= 0.2 * target).tolist()
    candidates = feasible if feasible else list(range(_SPLITS.size))
    if len(candidates) > 24:
        idx = np.linspace(0, len(candidates) - 1, 24).astype(int)
        candidates = [candidates[i] for i in idx]

    def split_estimates(points, rows):
        """(search estimate, below-split part) of the split at _SPLITS[i],
        for each i of `points` and each sector of `rows`: two (rows x
        points) arrays. theta and each sector's model at every delta and
        delta / 2 come from one stacked pass. A NaN deviation makes the
        estimate NaN, and a non-finite estimate counts as infinite, so it
        is a miss."""
        ts = np.stack([_SPLITS[points], _SPLITS[points] / 2.0], axis=1)
        theta = _theta_at(lams, weights[rows], [kernel_weights[s] for s in rows], ts)
        tall = tvals[points]
        below = np.empty((len(rows), len(points)))
        for out, th, s in zip(below, theta, rows):
            dev1, dev2 = np.abs(th - models[s](ts)).T
            q = models[s].next_exponent
            if math.isinf(q):
                out[:] = dev1 + dev2 + tall
            else:
                out[:] = np.maximum(dev1, dev2 * 2.0**q) / q + tall / max(q, 1.0)
        est = below + tall * _LOG_TERMS[points]
        est[~np.isfinite(est)] = np.inf
        return est, below

    every = list(range(len(models)))
    estimates, belows = split_estimates(candidates, every)
    first = estimates.argmin(axis=1)  # each sector's first least estimate
    splits = _SPLITS[np.take(candidates, first)].tolist()
    least = estimates.min(axis=1).tolist()
    missed = [s for s in every if not _within(least[s], target)]
    results = {}
    if missed:
        # a missed sector refuses with its least estimate over the whole
        # grid, whatever the target
        rest = sorted(set(range(_SPLITS.size)) - set(candidates))
        others, _ = split_estimates(rest, missed)
        for s, other in zip(missed, others.min(axis=1).tolist()):
            achievable = min(least[s], other)
            results[s] = AccuracyError(
                "requested tolerance %.3e is not reachable with cutoff %.6g"
                " (achievable about %.3e); extend the spectrum or relax --tol"
                % (target, cutoff, achievable),
                achievable=achievable,
            )

    # one table of the distinct panels of the live sectors, and theta once
    # per panel, for the sectors integrating over it
    edges = {s: _panel_edges(splits[s]) for s in every if s not in results}
    panels = sorted(set().union(*edges.values()))
    row = {panel: p for p, panel in enumerate(panels)}
    nodes, w32, w16 = _panel_nodes(panels)
    theta = np.zeros((len(models), len(panels), 48))
    for p, panel in enumerate(panels):
        rows = [s for s, ps in edges.items() if panel in ps]
        values = _theta_at(
            lams, weights[rows], [kernel_weights[s] for s in rows], nodes[p : p + 1]
        )
        theta[rows, p] = values[:, 0]
    # the models and the truncation bound are elementwise, so one evaluation
    # on the whole table gives each row the bits of its own
    trunc = trunc_bound(nodes) / nodes
    trunc_one = float(trunc_bound(1.0))

    b_terms = _e1_sums(lams, weights, list(edges))
    for s, ps in edges.items():
        model = models[s]
        zeta0 = model.coeff_at_zero() - kernel_weights[s]
        b_term = b_terms[s]
        pole = model.pole_part()
        below = belows[s, first[s]].item()
        at = [row[panel] for panel in ps]  # ascending: the error sum keeps its order
        y = (theta[s] - model(nodes)) / nodes
        r_term, quad_err = _integrate(y, w32, w16, at)
        trunc_r, _ = _integrate(trunc, w32, w16, at)
        err = (
            below
            + abs(trunc_r)
            + trunc_one
            + quad_err
            + 1e-14 * (abs(zeta0) + abs(pole) + abs(r_term) + abs(b_term) + 1.0)
        )
        zp = np.euler_gamma * zeta0 + pole + r_term + b_term
        results[s] = ContinuationResult(zeta0, zp, err, splits[s])
    return [results[s] for s in every]


def constant_mismatch(what: str, constant: float, kernel_weight: float, weights):
    """|constant - (kernel_weight + sum weights)|: how far a complete
    sector's declared constant misses its signed count of states.

    This is the one rule for a complete spectrum's constants: a mismatch
    that errors._within refuses at tol 1e-9 and scale the sector's number
    of states, |kernel_weight| + sum |weights| (so one above 1e-9 times
    the larger of that number and 1), is refused with an InputError that
    names the constant by `what`. The spectrum constructor applies it to
    every sector, and the closed form applies it again to the same
    numbers, so a spectrum that constructs is never refused for them."""
    states = kernel_weight + math.fsum(weights.tolist())
    mismatch = abs(constant - states)
    size = abs(kernel_weight) + math.fsum(np.abs(weights).tolist())
    if not _within(mismatch, 1e-9, size):
        raise InputError(
            "complete spectrum: %s constant %.17g != its state count %.17g"
            " (mismatch %.3e)" % (what, constant, states, mismatch)
        )
    return mismatch


def _continue_complete(lams, weights, kernel_weights, models) -> list:
    """The sectors of a complete spectrum, in closed form: zeta(s) =
    sum w lambda^{-s} is entire, so zeta(0) = sum w, read from the model
    as p_0 - w0, and zeta'(0) = -sum w log lambda.

    The error is u (8 S + 4), u = 2^-53 and S = sum |w log lambda|, plus
    the mismatch between the model's constant and w0 + sum w. zeta'(0)
    alone needs 4u S: each term is rounded in its log (within one ulp,
    2u) and its product (u), and the sum once, by math.fsum (u of S). The
    rest covers the rounding of the reports built on two sectors, which
    add no bar of their own: the sum -zeta_+'(0) + zeta_-'(0) (u S), an
    exp and a power (one ulp each), and second-order terms, with room to
    spare.
    """
    logs = np.log(lams)
    results = []
    for w, k, m in zip(weights, kernel_weights, models):
        p0 = m.coeff_at_zero()
        mismatch = constant_mismatch("a sector's", p0, k, w)
        terms = w * logs
        err = 2.0**-53 * (8.0 * math.fsum(np.abs(terms).tolist()) + 4.0) + mismatch
        zp = 0.0 - math.fsum(terms.tolist())  # a zero sum gives 0.0, not -0.0
        results.append(ContinuationResult(p0 - k, zp, err, 0.0))
    return results
