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

Reductions over eigenvalue entries run in fixed-size chunks in ascending
order and the chunk partials are combined with math.fsum, so results are
deterministic and compensated no matter how entries are batched.

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
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, InputError

DEFAULT_TARGET = 1e-8
_CHUNK = 4096
_GL32 = np.polynomial.legendre.leggauss(32)
_GL16 = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class TraceModel:
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


@dataclass(frozen=True)
class ContinuationResult:
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

    Ascending order makes the entries still live at depth k a prefix, so
    the continued fraction runs over prefix slices; exp(-x) underflows to 0
    for every x >= 746.
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
        top = int(depth[0])
        live = np.searchsorted(-depth, -np.arange(top, 0, -1), side="right")
        for k, p in zip(range(top, 0, -1), live.tolist()):
            t0[:p] = k / (1.0 + k / (xs[:p] + t0[:p]))
    out[lo:hi] = np.array([math.exp(-v) for v in xs.tolist()]) * (1.0 / (xs + t0))
    return out


def _theta_at(lams, weights, kernel_weight, ts):
    """theta(t) for an array of t values, chunked over entries."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    parts = [[] for _ in range(ts.size)]
    for i in range(0, lams.size, _CHUNK):
        block = np.exp(-np.outer(lams[i : i + _CHUNK], ts))
        sums = weights[i : i + _CHUNK] @ block
        for k in range(ts.size):
            parts[k].append(float(sums[k]))
    return np.array([kernel_weight + math.fsum(p) for p in parts])


def _panel_edges(delta: float) -> list[tuple[float, float]]:
    edges = [delta]
    while edges[-1] < 1.0:
        edges.append(min(1.0, 2.0 * edges[-1]))
    return list(zip(edges[:-1], edges[1:]))


def _gauss_on(a, b, rule):
    nodes, wts = rule
    x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    return x, 0.5 * (b - a) * wts


def _integrate_panels(f, panels):
    """Composite 32-node Gauss-Legendre with an embedded 16-node error
    estimate. `f` maps an array of t to an array of integrand values."""
    total = []
    err = 0.0
    for a, b in panels:
        x32, w32 = _gauss_on(a, b, _GL32)
        x16, w16 = _gauss_on(a, b, _GL16)
        y = f(np.concatenate([x32, x16]))
        i32 = float(w32 @ y[:32])
        i16 = float(w16 @ y[32:])
        total.append(i32)
        err += abs(i32 - i16)
    return math.fsum(total), err


def continue_trace(
    lams,
    weights,
    kernel_weight: float,
    model: TraceModel,
    bound_model: TraceModel,
    cutoff: float,
    target: float = DEFAULT_TARGET,
) -> ContinuationResult:
    """Continue zeta(s) = sum w_i lambda_i^{-s} to s = 0 and differentiate.

    `model` declares the t -> 0 behaviour of the full trace (kernel
    included) in the sector being continued; `bound_model` is a nonnegative
    model dominating the absolute trace, used only for truncation bounds.
    An infinite `cutoff` asserts the entries are the entire spectrum, in
    which case the model must be the matching constant and no splitting is
    needed.
    """
    lams = np.asarray(lams, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if lams.shape != weights.shape or lams.ndim != 1:
        raise InputError("eigenvalues and weights must be 1-d and aligned")
    if lams.size and (np.any(lams <= 0.0) or np.any(np.diff(lams) < 0)):
        raise InputError("eigenvalues must be positive and ascending")

    zeta0 = model.coeff_at_zero() - kernel_weight
    scale = max(
        1.0,
        abs(kernel_weight),
        float(np.max(np.abs(weights))) if weights.size else 0.0,
    )

    b_term = ordered_chunk_sum(weights * exp1(lams))
    pole = model.pole_part()

    if cutoff == math.inf:
        const = model.coeff_at_zero()
        mismatch = abs(const - (kernel_weight + ordered_chunk_sum(weights)))
        if mismatch > 1e-9 * scale * max(1.0, lams.size):
            raise InputError(
                "complete spectrum disagrees with its constant heat model"
                " (mismatch %.3e)" % mismatch
            )

        def integrand(ts):
            out = np.zeros_like(ts)
            for i in range(0, lams.size, _CHUNK):
                block = np.expm1(-np.outer(lams[i : i + _CHUNK], ts))
                out = out + weights[i : i + _CHUNK] @ block
            return out / ts

        lead = min(0.5, 4.0 / float(lams[-1])) if lams.size else 0.5
        panels = [(0.0, lead)] + _panel_edges(lead)
        r_term, quad_err = _integrate_panels(integrand, panels)
        err = quad_err + mismatch + 1e-14 * (abs(zeta0) + abs(b_term) + 1.0)
        zp = np.euler_gamma * zeta0 + pole + r_term + b_term
        return ContinuationResult(zeta0, zp, err, 0.0)

    if not cutoff > 0.0:
        raise InputError("a truncated spectrum needs a positive finite cutoff")
    abs_bound = bound_model.abs_model()

    def trunc_bound(t):
        return 2.0 * np.exp(-0.5 * cutoff * t) * abs_bound(t / 2.0)

    def below_estimate(delta: float) -> float:
        theta = _theta_at(lams, weights, kernel_weight, [delta, delta / 2.0])
        dev1 = abs(float(theta[0]) - float(model(delta)))
        dev2 = abs(float(theta[1]) - float(model(delta / 2.0)))
        tall = float(trunc_bound(delta))
        if math.isinf(model.next_exponent):
            return dev1 + dev2 + tall
        q = model.next_exponent
        return max(dev1, dev2 * 2.0**q) / q + tall / max(q, 1.0)

    grid = 0.5 * 2.0 ** (-0.25 * np.arange(121))
    tvals = trunc_bound(grid)
    feasible = [i for i in range(grid.size) if tvals[i] <= 0.2 * target]
    candidates = feasible if feasible else list(range(grid.size))
    if len(candidates) > 24:
        idx = np.linspace(0, len(candidates) - 1, 24).astype(int)
        candidates = [candidates[i] for i in idx]

    def split_estimate(i: int) -> tuple[float, float]:
        """(search estimate, below-split part) of the split at grid[i]."""
        delta = float(grid[i])
        below = below_estimate(delta)
        return below + float(tvals[i]) * (math.log(1.0 / delta) + 1.0), below

    estimates = {i: split_estimate(i) for i in candidates}
    best = min(candidates, key=lambda i: estimates[i][0])
    delta = float(grid[best])
    est, below = estimates[best]
    if est > target:
        # the least estimate over the whole grid, whatever the target
        achievable = min(
            (estimates[i] if i in estimates else split_estimate(i))[0]
            for i in range(grid.size)
        )
        raise AccuracyError(
            "requested tolerance %.3e is not reachable with cutoff %.6g"
            " (achievable about %.3e); extend the spectrum or relax --tol"
            % (target, cutoff, achievable),
            achievable=achievable,
        )

    def integrand(ts):
        return (_theta_at(lams, weights, kernel_weight, ts) - model(ts)) / ts

    panels = _panel_edges(delta)
    r_term, quad_err = _integrate_panels(integrand, panels)
    trunc_r, _ = _integrate_panels(lambda ts: trunc_bound(ts) / ts, panels)
    err = (
        below
        + abs(trunc_r)
        + float(trunc_bound(1.0))
        + quad_err
        + 1e-14 * (abs(zeta0) + abs(pole) + abs(r_term) + abs(b_term) + 1.0)
    )
    zp = np.euler_gamma * zeta0 + pole + r_term + b_term
    return ContinuationResult(zeta0, zp, err, delta)
