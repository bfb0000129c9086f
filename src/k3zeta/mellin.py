"""Zeta values at s = 0 from truncated heat traces, by Mellin splitting.

For a weighted spectrum theta(t) = w0 + sum_i w_i exp(-lambda_i t) whose
t -> 0 behaviour is declared by a power model P(t) = sum_j p_j t^{e_j}, the
continuation of zeta(s) = sum_i w_i lambda_i^{-s} to s = 0 is

    zeta(0)  = p_0 - w0                      (p_0 the t^0 model coefficient)
    zeta'(0) = euler_gamma * zeta(0) + sum_{e != 0} p_e / e
               + int_0^1 (theta(t) - P(t)) / t dt
               + sum_i w_i E1(lambda_i)

which follows from splitting int_0^inf t^{s-1} at t = 1 and expanding
1 / Gamma(s) = s + euler_gamma * s^2 + O(s^3).

The subtlety is that theta is only known from entries up to a cutoff. Below
a deterministically chosen split point delta the integrand is replaced by
the model (whose error is estimated from the first omitted ladder power);
above delta the truncated theta is integrated by composite Gauss-Legendre
on geometrically growing panels, with the truncation bounded through
exp(-cutoff*t/2) * P_bound(t/2). Every result carries the summed error
estimate; if no split point meets the requested tolerance the evaluation
refuses with the achievable bound instead of returning a silently bad
number.

The panels use a 32-node rule with an embedded 16-node rule for the error
estimate. Both are literal tables of the values that
numpy.polynomial.legendre.leggauss(32) and (16) return, stored as their
negative halves and mirrored (leggauss's rules are exactly symmetric), so
numpy.polynomial is not imported; a test checks the tables bit for bit.

Reductions over eigenvalue entries run in fixed-size chunks in ascending
order and the chunk partials are combined with math.fsum, node by node
where a chunk gives one partial per node (theta, and the expm1 blocks of a
complete spectrum), so results are deterministic and compensated no matter
how entries are batched.

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
reads. The models and the truncation bound are elementwise, so they are
evaluated once on the nodes of all panels together. The panels
keep one call each: a stack of them would zero and reduce every block over
the whole chunk, even where its own live prefix is short.

Only the live prefix of a block is evaluated. exp(-x) rounds to exactly
0.0 for every x >= 746, since e^-746 is below half the least subnormal
2^-1074, and the eigenvalues ascend; so every row with lambda >=
750 / min(ts) is exactly zero (750 leaves room for the rounding of that
quotient and of the products lambda t). Those rows are left as the zeros
of the block instead of being computed, so the block, and the reduction
over it, are the ones a full evaluation gives. In a stack each block has
its own prefix, from the least t of its own group. Chunks wholly past a
block's prefix contribute exactly zero and give it no partial, which
leaves the fsum of its partials unchanged.

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
from .errors import AccuracyError, InputError

DEFAULT_TARGET = 1e-8
_CHUNK = 4096
_DEAD = 750.0  # exp(-x) is exactly 0.0 for every x >= 746
_FEW_LIVE = 32  # below this many live entries a numpy step costs more than a loop


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
        return TraceModel(coeffs=pairs, next_exponent=nxt)

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
            coeffs=tuple((e, abs(c)) for e, c in self.coeffs),
            next_exponent=self.next_exponent,
        )

    def pole_part(self) -> float:
        """sum over nonzero exponents of p_e / e, exactly ordered."""
        terms = sorted(
            ((e, c) for e, c in self.coeffs if e != 0 and c != 0.0),
            key=lambda ec: ec[0],
        )
        return math.fsum(c / e for e, c in terms)


class ContinuationResult(Record):
    zeta_at_0: float
    zeta_prime_at_0: float
    error_estimate: float
    split_point: float


def ordered_chunk_sum(values: np.ndarray) -> float:
    """Deterministic compensated reduction: fixed-size chunks in the given
    order, exact fsum of the chunk partials."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0
    partials = [
        math.fsum(v[i : i + _CHUNK].tolist()) for i in range(0, v.size, _CHUNK)
    ]
    return math.fsum(partials)


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
        for k, p in zip(range(k0, 0, -1), live.tolist()):
            t0[:p] = k / (1.0 + k / (xs[:p] + t0[:p]))
    exps = np.fromiter(map(math.exp, (-xs).tolist()), dtype=float, count=xs.size)
    out[lo:hi] = exps * (1.0 / (xs + t0))
    return out


def _theta_at(lams, weights, kernel_weight, ts):
    """theta(t) of every sector at the t values `ts`: one row of `weights`
    and one `kernel_weight` a sector. A 1-d `ts` gives shape (sectors, ts);
    a 2-d `ts` is a stack of groups of t values and gives (sectors, groups,
    ts), each group the values it gets alone.

    Each chunk's exp(-lambda t) blocks are computed once, one block for
    each group still live in the chunk, in one zeroed stack, and each
    sector reduces the stack with one `w @ stack`: one gemv on each block,
    the same one a lone block gets, which is why a group's bits do not
    depend on the others. Only a group's live prefix is evaluated (see the
    module docstring); the rest stays 0.0, so each block has the shape,
    and its reduction the bits, of a full one. A chunk past a group's
    live prefix gives it no partial.
    """
    ts = np.asarray(ts, dtype=float)
    groups = np.atleast_2d(ts)
    lives = np.searchsorted(lams, _DEAD / groups.min(axis=1)).tolist()
    chunks = []  # (groups live in the chunk, sectors x those groups x ts)
    for i in range(0, max(lives), _CHUNK):
        size = min(_CHUNK, lams.size - i)
        alive = [g for g, live in enumerate(lives) if live > i]
        stack = np.zeros((len(alive), size, groups.shape[1]))
        for block, g in zip(stack, alive):
            head = block[: lives[g] - i]
            np.multiply.outer(lams[i : i + len(head)], -groups[g], out=head)
            np.exp(head, out=head)
        chunks.append((alive, np.array([w[i : i + size] @ stack for w in weights])))
    kernel = np.asarray(kernel_weight, dtype=float)[:, None]
    if len(chunks) == 1 and len(chunks[0][0]) == len(groups):
        # every group has one partial, and the fsum of one partial is that partial
        out = kernel[:, None] + chunks[0][1]
    else:
        partials = [[] for _ in groups]
        for alive, sums in chunks:
            for j, g in enumerate(alive):
                partials[g].append(sums[:, j])
        out = np.empty((len(weights),) + groups.shape)
        for g, parts in enumerate(partials):
            if len(parts) == 1:
                out[:, g] = kernel + parts[0]
            else:
                sums = np.reshape(parts, (-1,) + out[:, g].shape).transpose(1, 2, 0)
                out[:, g] = kernel + [[math.fsum(p) for p in r] for r in sums.tolist()]
    return out if ts.ndim == 2 else out[:, 0]


def _panel_edges(delta: float) -> list[tuple[float, float]]:
    edges = [delta]
    while edges[-1] < 1.0:
        edges.append(min(1.0, 2.0 * edges[-1]))
    return list(zip(edges[:-1], edges[1:]))


def _gauss_on(a, b, rule):
    nodes, wts = rule
    x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    return x, 0.5 * (b - a) * wts


def _panel_nodes(a, b):
    """The 32 + 16 Gauss-Legendre nodes of [a, b] and both weight sets."""
    x32, w32 = _gauss_on(a, b, _GL32)
    x16, w16 = _gauss_on(a, b, _GL16)
    return np.concatenate([x32, x16]), w32, w16


def _integrate_panels(f, panels, nodes):
    """Composite 32-node Gauss-Legendre with an embedded 16-node error
    estimate. `f(panel, ts)` gives the integrand at the panel's nodes
    `ts`; `nodes` maps each panel to its _panel_nodes."""
    total = []
    err = 0.0
    for panel in panels:
        ts, w32, w16 = nodes[panel]
        y = f(panel, ts)
        i32 = float(w32 @ y[:32])
        i16 = float(w16 @ y[32:])
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
    matching constant and no splitting is needed.

    Returns one item per sector: its ContinuationResult, or the
    AccuracyError it refuses with when no split point meets `target`, so
    one sector's miss does not stop the others.
    """
    lams = np.asarray(lams, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    kernel_weights = [float(k) for k in kernel_weights]
    models = list(models)
    if (
        lams.ndim != 1
        or weights.ndim != 2
        or weights.shape[1:] != lams.shape
        or not len(weights) == len(kernel_weights) == len(models)
    ):
        raise InputError(
            "eigenvalues must be 1-d, with one aligned weight row, kernel"
            " weight and model per sector"
        )
    if not (
        np.isfinite(lams).all()
        and np.isfinite(weights).all()
        and all(map(math.isfinite, kernel_weights))
    ):
        raise InputError("eigenvalues and weights must be finite")
    if lams.size and (np.any(lams <= 0.0) or np.any(np.diff(lams) < 0)):
        raise InputError("eigenvalues must be positive and ascending")

    e1 = exp1(lams)
    # per sector: (weights, kernel weight, model, zeta(0), b term, pole part)
    sectors = [
        (w, k, m, m.coeff_at_zero() - k, ordered_chunk_sum(w * e1), m.pole_part())
        for w, k, m in zip(weights, kernel_weights, models)
    ]
    if cutoff == math.inf:
        return _continue_complete(lams, weights, sectors)
    if not cutoff > 0.0:
        raise InputError("a truncated spectrum needs a positive finite cutoff")
    abs_bound = bound_model.abs_model()

    def trunc_bound(t):
        return 2.0 * np.exp(-0.5 * cutoff * t) * abs_bound(t / 2.0)

    grid = 0.5 * 2.0 ** (-0.25 * np.arange(121))
    tvals = trunc_bound(grid)
    feasible = [i for i in range(grid.size) if tvals[i] <= 0.2 * target]
    candidates = feasible if feasible else list(range(grid.size))
    if len(candidates) > 24:
        idx = np.linspace(0, len(candidates) - 1, 24).astype(int)
        candidates = [candidates[i] for i in idx]
    deltas, talls = grid.tolist(), tvals.tolist()

    def split_estimates(points, rows) -> dict:
        """(search estimate, below-split part) of the split at grid[i], for
        each i of `points` and each sector of `rows`: {(i, sector): ...}.
        theta and each sector's model at every delta and delta / 2 come from
        one stacked pass; a non-finite estimate counts as infinite, so it is
        a miss."""
        if not (points and rows):
            return {}
        out = {}
        ts = np.stack([grid[points], grid[points] / 2.0], axis=1)
        theta = _theta_at(lams, weights[rows], [kernel_weights[s] for s in rows], ts)
        for s, pairs in zip(rows, theta.tolist()):
            model = sectors[s][2]
            for i, (th1, th2), (m1, m2) in zip(points, pairs, model(ts).tolist()):
                delta, tall = deltas[i], talls[i]
                dev1 = abs(th1 - m1)
                dev2 = abs(th2 - m2)
                if math.isinf(model.next_exponent):
                    below = dev1 + dev2 + tall
                else:
                    q = model.next_exponent
                    below = max(dev1, dev2 * 2.0**q) / q + tall / max(q, 1.0)
                est = below + tall * (math.log(1.0 / delta) + 1.0)
                out[i, s] = (est if math.isfinite(est) else math.inf, below)
        return out

    every = list(range(len(sectors)))
    estimates = split_estimates(candidates, every)
    best = [min(candidates, key=lambda i: estimates[i, s][0]) for s in every]
    least = [estimates[best[s], s][0] for s in every]
    missed = [s for s in every if least[s] > target or least[s] == math.inf]
    # a missed sector refuses with its least estimate over the whole grid,
    # whatever the target
    rest = sorted(set(range(grid.size)) - set(candidates))
    estimates.update(split_estimates(rest, missed))
    results = {}
    for s in missed:
        achievable = min(estimates[i, s][0] for i in range(grid.size))
        results[s] = AccuracyError(
            "requested tolerance %.3e is not reachable with cutoff %.6g"
            " (achievable about %.3e); extend the spectrum or relax --tol"
            % (target, cutoff, achievable),
            achievable=achievable,
        )

    # theta once per distinct panel, for the sectors integrating over it
    panels = {s: _panel_edges(deltas[best[s]]) for s in every if s not in results}
    users: dict = {}
    for s, ps in panels.items():
        for panel in ps:
            users.setdefault(panel, []).append(s)
    nodes = {panel: _panel_nodes(*panel) for panel in users}
    theta = {}
    for panel, rows in users.items():
        values = _theta_at(
            lams, weights[rows], [kernel_weights[s] for s in rows], nodes[panel][0]
        )
        theta.update(((panel, s), v) for s, v in zip(rows, values))
    # the models and the truncation bound are elementwise, so one evaluation
    # on all panels' nodes gives each panel's slice the bits of its own
    every_node = np.concatenate([np.empty(0), *(ts for ts, _, _ in nodes.values())])
    at = {panel: slice(48 * j, 48 * j + 48) for j, panel in enumerate(nodes)}
    trunc = trunc_bound(every_node) / every_node

    for s, ps in panels.items():
        _, _, model, zeta0, b_term, pole = sectors[s]
        delta = deltas[best[s]]
        below = estimates[best[s], s][1]
        modelled = model(every_node)
        r_term, quad_err = _integrate_panels(
            lambda panel, ts: (theta[panel, s] - modelled[at[panel]]) / ts, ps, nodes
        )
        trunc_r, _ = _integrate_panels(lambda panel, ts: trunc[at[panel]], ps, nodes)
        err = (
            below
            + abs(trunc_r)
            + float(trunc_bound(1.0))
            + quad_err
            + 1e-14 * (abs(zeta0) + abs(pole) + abs(r_term) + abs(b_term) + 1.0)
        )
        zp = np.euler_gamma * zeta0 + pole + r_term + b_term
        results[s] = ContinuationResult(zeta0, zp, err, delta)
    return [results[s] for s in every]


def _continue_complete(lams, weights, sectors) -> list:
    """The sectors of a complete spectrum: no split, the whole trace minus
    its constant integrated from 0, one expm1 block per chunk and panel."""
    mismatches = []
    for w, k, m, _, _, _ in sectors:
        scale = max(1.0, abs(k), float(np.max(np.abs(w))) if w.size else 0.0)
        mismatch = abs(m.coeff_at_zero() - (k + ordered_chunk_sum(w)))
        if mismatch > 1e-9 * scale * max(1.0, lams.size):
            raise InputError(
                "complete spectrum disagrees with its constant heat model"
                " (mismatch %.3e)" % mismatch
            )
        mismatches.append(mismatch)
    lead = min(0.5, 4.0 / float(lams[-1])) if lams.size else 0.5
    panels = [(0.0, lead)] + _panel_edges(lead)
    nodes = {panel: _panel_nodes(*panel) for panel in panels}
    values = {}
    for panel, (ts, _, _) in nodes.items():
        partials = [[] for _ in weights]
        for i in range(0, lams.size, _CHUNK):
            block = np.expm1(-np.outer(lams[i : i + _CHUNK], ts))
            for parts, w in zip(partials, weights):
                parts.append(w[i : i + _CHUNK] @ block)
        for s, parts in enumerate(partials):
            by_node = np.reshape(parts, (-1, ts.size)).T.tolist()
            values[panel, s] = np.array([math.fsum(p) for p in by_node]) / ts
    results = []
    for s, (_, _, _, zeta0, b_term, pole) in enumerate(sectors):
        r_term, quad_err = _integrate_panels(
            lambda panel, ts: values[panel, s], panels, nodes
        )
        mismatch = mismatches[s]
        err = quad_err + mismatch + 1e-14 * (abs(zeta0) + abs(b_term) + 1.0)
        zp = np.euler_gamma * zeta0 + pole + r_term + b_term
        results.append(ContinuationResult(zeta0, zp, err, 0.0))
    return results
