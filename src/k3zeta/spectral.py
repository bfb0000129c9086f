"""Equivariant spectra and the regularized quantities built from them.

An equivariant spectrum stores positive eigenvalues with signed
multiplicities (m_plus, m_minus) for the two involution eigenspaces,
integers of at most 2**53 so that the engine's float64 weights are exact,
the kernel dimensions, and a heat-tail declaration describing the t -> 0
trace on the ladder t^((j - dim)/2). dim = 0 means the entries are the
complete spectrum of a finite model and the tail is the exact constant. A
fixed curve's Laplacian is the same type, with a 2-dimensional or complete
tail and the trivial involution: no minus states, twisted tail = straight.

A spectrum has three sectors, each continued to s = 0 by the engine in
`mellin`: plus and minus, the (1 +/- involution)/2 eigenspaces, and the
twisted trace, weighted by m_plus - m_minus. A heat tail builds its
three sector models once and keeps them (`HeatTail.models`), and
`_sector` holds the one table from a sector to its continuation
arguments, reading the model from the tail. Every value below is
arithmetic on the results of one runner, `_continue`, which continues
each requested sector once. The sectors of one spectrum are continued
together, in one engine call that shares the heat-trace work between
them and gives each the bits it would get alone. Equal spectra among one
report's requests (a fixed curve whose spectrum is the manifold's, say)
share that call: each distinct sector is continued once and every
request for it reads the one result, which is the result it would get
alone. When sectors miss the
tolerance the runner still finishes the others and refuses with the
largest achievable bound, so a report's `achievable` covers all of its
sectors; the refusal names that sector and its source, the spectrum or
a curve, whose own cutoff it quotes. A sector shared between requests is
named by the first request that asked for it, as when each request ran
its own call.

  * zeta_signed        the plus/minus zeta functions at s = 0
  * dolbeault_zeta     the (0, q) combination for q = 0, 1 or 2 from the
                       twisted sector; q = 0 is continued directly from the
                       twisted trace, so comparing it with the signed
                       difference is a genuine two-route check
  * zeta_values        plus, minus and the (0, q) triple together
  * equivariant_determinant_report   exp(-zeta_plus'(0) + zeta_minus'(0))
  * equivariant_torsion_report       exp(zeta^{0,1}'(0) - 2 zeta^{0,2}'(0)),
                       recording the residual against determinant^-2
  * tau_iota           the torsion invariant, free or with curve factors;
                       a curve's det* is exp(-zeta'(0)) of its plus sector
  * borcherds_report   the implied automorphic-form norm and its round trip
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from ._record import Record
from .errors import AccuracyError, ConsistencyError, InputError, _count, _finite
from .errors import _positive
from .mellin import (
    DEFAULT_TARGET,
    ContinuationResult,
    TraceModel,
    constant_mismatch,
    continue_trace,
)

class HeatTail(Record):
    """Small-t model of the straight and twisted heat traces.

    `straight` are the coefficients c_j on t^((j - dim)/2) of the full
    trace (kernel included); `twisted` either lists coefficients on the
    same ladder or is None, declaring the twisted trace exponentially
    small (a free involution). Each sector's model is built and evaluated
    once here and kept as `models`, which the engine reads: a pole part sum
    p_e / e or a t^0 coefficient past float range is refused, so the engine
    only reads finite ones. The straight model of the truncation bound is
    kept as `bound`, built on first use.
    """

    dim: int
    straight: tuple[float, ...]
    twisted: tuple[float, ...] | None

    def __init__(self, dim, straight, twisted=None):
        dim = _count(dim, "tail dimension")
        s = tuple(
            _finite(c, "tail coefficient") for c in _sequence(straight, "straight")
        )
        t = (
            None
            if twisted is None
            else tuple(
                _finite(c, "tail coefficient") for c in _sequence(twisted, "twisted")
            )
        )
        if dim == 0:
            if len(s) != 1:
                raise InputError("a complete spectrum declares one constant")
            if t is not None and len(t) != 1:
                raise InputError("a complete twisted trace is one constant")
        else:
            if len(s) < dim + 1:
                raise InputError(
                    "straight tail needs at least dim+1 coefficients"
                    " (the t^0 term drives zeta(0))"
                )
            if s[0] <= 0.0:
                raise InputError("leading straight coefficient must be positive")
            if t is not None and len(t) < dim + 1:
                raise InputError("twisted tail needs at least dim+1 coefficients")
        super().__init__(dim, s, t)
        for sector, model in self.models.items():
            try:
                values = (model.pole_part(), model.coeff_at_zero())
            except (OverflowError, ValueError):  # fsum past float range
                values = (math.inf,)
            if not all(map(math.isfinite, values)):
                raise InputError(
                    "heat tail: the %s sector's pole part or t^0 coefficient"
                    " is past float range" % _SECTOR_NAMES[sector]
                )

    @property
    def free(self) -> bool:
        return self.twisted is None

    @functools.cached_property
    def models(self) -> dict[int, TraceModel]:
        """Each sector's t -> 0 model, in _SECTOR_NAMES order: (straight +
        sign * twisted) / 2 for the +1 or -1 eigenspace, one object for both
        when the tail is free, and the twisted tail for the twisted trace."""
        if self.free:
            half = TraceModel.from_ladder(self.dim, [c / 2.0 for c in self.straight])
            return {1: half, -1: half, _TWISTED: TraceModel((), math.inf)}
        pairs = tuple(zip(self.straight, self.twisted))
        plus, minus = (
            TraceModel.from_ladder(self.dim, [(s + sign * t) / 2.0 for s, t in pairs])
            for sign in (1, -1)
        )
        twisted = TraceModel.from_ladder(self.dim, self.twisted)
        return {1: plus, -1: minus, _TWISTED: twisted}

    @functools.cached_property
    def bound(self) -> TraceModel:
        """The straight trace's model, from which the engine bounds every
        sector's truncation error."""
        return TraceModel.from_ladder(self.dim, self.straight)


def _sequence(x, what: str) -> tuple:
    """x as a tuple; an x that cannot be iterated is refused by name."""
    try:
        return tuple(x)
    except TypeError:
        raise InputError("%s must be a sequence, not %r" % (what, x)) from None


def _fields(x, width: int, what: str) -> tuple:
    try:
        x = tuple(x)
    except TypeError:
        x = ()
    if len(x) != width:
        raise InputError("%s must have %d fields" % (what, width))
    return x


def _check_entries(entries):
    """Eigenvalue, m_plus and m_minus columns of rows (lam, m_plus,
    m_minus), read one row at a time from any sequence of rows, an array
    included, so every refusal is that of the first row failing a check.
    The counts are int64 columns, each at most 2**53, so that the float64
    weights the engine reads are exact.
    """
    rows = []
    prev = 0.0
    for e in _sequence(entries, "spectrum entries"):
        lam, mp, mm = _fields(e, 3, "spectrum entries")
        lam = _finite(lam, "eigenvalue")
        mp = _count(mp, "multiplicity")
        mm = _count(mm, "multiplicity")
        if lam <= 0.0:
            raise InputError("eigenvalues must be positive")
        if lam <= prev:
            raise InputError("eigenvalues must be strictly ascending")
        if mp + mm == 0:
            raise InputError("multiplicities must not be all zero")
        prev = lam
        rows.append((lam, mp, mm))
    return _frozen_columns(*([r[j] for r in rows] for j in range(3)))


def _frozen_columns(lams, mp, mm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The form a spectrum holds its entries in: read-only float64
    eigenvalues and int64 m_plus and m_minus columns."""
    cols = tuple(map(np.asarray, (lams, mp, mm), (float, np.int64, np.int64)))
    for col in cols:
        col.flags.writeable = False
    return cols


class EquivariantSpectrum(Record, eq=False):
    """Eigenvalues with signed multiplicities, kernel dims, tail, cutoff.

    The entries are given as rows (lam, m_plus, m_minus) and held as three
    read-only columns (`_columns`): the ascending float64 eigenvalues and
    the int64 m_plus and m_minus counts, each at most 2**53 and so exact as
    the float64 weights of `mults`. The models and `truncate_entries`
    build the columns themselves and store them with `Record._of`. A
    complete spectrum's tail constants are checked sector by sector by
    the engine's own rule, `constant_mismatch`, so the engine never
    refuses them later.
    """

    _columns: tuple[np.ndarray, np.ndarray, np.ndarray]
    kernel: tuple[int, int]
    tail: HeatTail
    cutoff: float

    def __init__(self, entries, kernel, tail, cutoff=math.inf):
        lams, mp, mm = columns = _check_entries(entries)
        k = tuple(_count(n, "kernel dimension") for n in _fields(kernel, 2, "kernel"))
        if not isinstance(tail, HeatTail):
            raise InputError("tail must be a HeatTail")
        # a total of at most 2**53 also keeps every heat-trace sum finite
        total = k[0] + k[1] + sum(mp.tolist()) + sum(mm.tolist())
        _count(total, "total state count")
        if tail.dim == 0:
            # a complete spectrum has no cutoff: its encoding omits the key
            if cutoff != math.inf:
                raise InputError("a complete spectrum takes no cutoff, got %r" % (cutoff,))
            cut = math.inf
        else:
            cut = _finite(cutoff, "a truncated spectrum's cutoff")
            if cut <= 0.0:
                raise InputError("a truncated spectrum needs a positive cutoff")
            if lams.size and lams[-1] > cut:
                raise InputError("entries extend beyond the declared cutoff")
        super().__init__(columns, k, tail, cut)
        if self.complete:
            for sector, name in _SECTOR_NAMES.items():
                w, kernel, model = _sector(self, sector)
                what = "the %s sector's" % name
                constant_mismatch(what, model.coeff_at_zero(), kernel, w)

    def __eq__(self, other):
        if not isinstance(other, EquivariantSpectrum):
            return NotImplemented
        return (self.kernel, self.tail, self.cutoff) == (
            other.kernel,
            other.tail,
            other.cutoff,
        ) and all(map(np.array_equal, self._columns, other._columns))

    def __hash__(self):
        # equal spectra have equal eigenvalue columns, bit for bit (all > 0)
        return hash((self.kernel, self.tail, self.cutoff, self.lambdas().tobytes()))

    def __repr__(self):
        return "EquivariantSpectrum(entries=%r, kernel=%r, tail=%r, cutoff=%r)" % (
            self.entries,
            self.kernel,
            self.tail,
            self.cutoff,
        )

    @property
    def entries(self) -> tuple[tuple[float, int, int], ...]:
        """The rows (lam, m_plus, m_minus), built from the columns."""
        return tuple(zip(*(c.tolist() for c in self._columns)))

    @property
    def complete(self) -> bool:
        return self.tail.dim == 0

    def lambdas(self) -> np.ndarray:
        return self._columns[0]

    def mults(self, sign: int) -> np.ndarray:
        return self._columns[1 if sign > 0 else 2].astype(float)


class CurveComponent(Record):
    """One fixed-curve component: its volume and its Laplacian, a complete
    or 2-dimensional (complex curve) spectrum with the trivial involution."""

    volume: float
    spectrum: EquivariantSpectrum

    def __init__(self, volume, spectrum):
        v = _finite(volume, "curve volume")
        if v <= 0.0:
            raise InputError("curve volume must be positive")
        if not isinstance(spectrum, EquivariantSpectrum):
            raise InputError("curve component needs an EquivariantSpectrum")
        if (
            spectrum.kernel[1]
            or spectrum.mults(-1).any()
            or spectrum.tail.twisted != spectrum.tail.straight
        ):
            raise InputError(
                "a curve spectrum needs the trivial involution: no minus"
                " states and a twisted tail equal to the straight one"
            )
        if spectrum.tail.dim not in (0, 2):
            raise InputError(
                "a curve spectrum is 2-dimensional or complete, not %d-dimensional"
                % spectrum.tail.dim
            )
        super().__init__(v, spectrum)


class DeterminantReport(Record):
    value: float
    error_estimate: float
    plus: ContinuationResult
    minus: ContinuationResult


class TorsionReport(Record):
    value: float
    error_estimate: float
    log_value: float
    determinant_residual: float


class TauReport(Record):
    value: float
    error_estimate: float
    log_value: float
    determinant: DeterminantReport
    curve_factors: tuple[float, ...]


class BorcherdsReport(Record):
    tau: float
    nu: int
    implied_norm: float
    round_trip_tau: float
    implied_determinant_factor: float | None
    determinant_with_constant: float | None


_TWISTED = 0  # the sector of the twisted trace; +1 and -1 are the eigenspaces
_SECTOR_NAMES = {1: "plus", -1: "minus", _TWISTED: "twisted"}


def _sector(spectrum: EquivariantSpectrum, sector: int):
    """(weights, kernel weight, t -> 0 model) of one sector: the +1 or -1
    eigenspace, or the twisted trace, weighted by m_plus - m_minus."""
    if sector == _TWISTED:
        weights = spectrum.mults(1) - spectrum.mults(-1)
        kernel = float(spectrum.kernel[0] - spectrum.kernel[1])
    else:
        weights = spectrum.mults(sector)
        kernel = float(spectrum.kernel[0] if sector > 0 else spectrum.kernel[1])
    return weights, kernel, spectrum.tail.models[sector]


def _require_spectrum(spectrum) -> None:
    """Refuse anything but an EquivariantSpectrum: its constructor has
    checked every array the engine reads, and the engine checks none."""
    if not isinstance(spectrum, EquivariantSpectrum):
        raise InputError(
            "spectrum must be an EquivariantSpectrum, not %s" % type(spectrum).__name__
        )


def _continue(requests, tol: float) -> list[list[ContinuationResult]]:
    """Continue the sectors of each (source, spectrum, sectors) request
    and return their results per request. Equal spectra (a curve equal to
    the manifold, say) are one spectrum here: each distinct spectrum takes
    one engine call, for each of its distinct sectors once, and every
    request asking for a sector gets that one result.

    A sector that misses `tol` does not stop the rest: once all have run,
    the AccuracyError with the largest achievable bound is raised, so a
    report refuses with the figure of its worst sector, not of the first
    one to miss. Its message names the sector and the source, the spectrum
    or a curve, whose cutoff it quotes; of requests sharing the worst
    sector, it names the first. A sector whose achievable is infinite
    cannot be evaluated at any split point, so its heat tail is malformed
    input: the first such sector is refused with an InputError instead.
    """
    tol = _positive(tol, "tol")
    wanted = {}  # each distinct spectrum's sectors, in the order first asked
    for _, spectrum, sectors in requests:
        _require_spectrum(spectrum)
        have = wanted.setdefault(spectrum, [])
        have += [s for s in sectors if s not in have]
    done = {}
    for spectrum, sectors in wanted.items():
        weights, kernels, models = zip(*(_sector(spectrum, s) for s in sectors))
        out = continue_trace(
            spectrum.lambdas(),
            np.array(weights),
            kernels,
            models,
            spectrum.tail.bound,
            spectrum.cutoff,
            target=tol,
        )
        done[spectrum] = dict(zip(sectors, out))
    results, misses = [], []
    for source, spectrum, sectors in requests:
        out = [done[spectrum][s] for s in sectors]
        for sector, r in zip(sectors, out):
            if isinstance(r, AccuracyError):
                where = "%s sector of %s" % (_SECTOR_NAMES[sector], source)
                if r.achievable == math.inf:  # no split point can be evaluated
                    raise InputError(
                        "%s: its heat tail gives no finite error estimate at any"
                        " split point; the model or its truncation bound is past"
                        " float range" % where
                    )
                misses.append(AccuracyError("%s: %s" % (where, r), r.achievable))
        results.append(out)
    if misses:
        raise max(misses, key=lambda exc: exc.achievable)
    return results


def _dolbeault(r0: ContinuationResult):
    """The (0, q) triple from the twisted sector: q = 2 is the exact
    negative of q = 0 and q = 1 their sum, identically zero; all three
    carry q = 0's split point."""
    r2 = ContinuationResult(
        -r0.zeta_at_0, -r0.zeta_prime_at_0, r0.error_estimate, r0.split_point
    )
    r1 = ContinuationResult(
        r0.zeta_at_0 + r2.zeta_at_0,
        r0.zeta_prime_at_0 + r2.zeta_prime_at_0,
        r0.error_estimate + r2.error_estimate,
        r0.split_point,
    )
    return r0, r1, r2


def _in_range(what: str, log_value: float, compute) -> float:
    """compute(), the value whose log is log_value, when it is a positive
    normal float, bit for bit; a value that leaves float range either way
    (inf, an OverflowError, 0 or a subnormal) is refused with an InputError
    naming `what` and its log."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise InputError(
            "%s leaves floating-point range: its log is %r" % (what, log_value)
        )
    return value


def _determinant(
    plus: ContinuationResult, minus: ContinuationResult
) -> DeterminantReport:
    log_det = -plus.zeta_prime_at_0 + minus.zeta_prime_at_0
    value = _in_range("the determinant", log_det, lambda: math.exp(log_det))
    err = value * (plus.error_estimate + minus.error_estimate)
    return DeterminantReport(value, err, plus, minus)


def zeta_signed(
    spectrum: EquivariantSpectrum, sign: int, tol: float = DEFAULT_TARGET
) -> ContinuationResult:
    """zeta_{+/-}(s) = sum over the (1 +/- involution)/2 eigenspace,
    continued to s = 0."""
    if _finite(sign, "sign") not in (1, -1):
        raise InputError("sign must be +1 or -1")
    return _continue([("the spectrum", spectrum, (sign,))], tol)[0][0]


def dolbeault_zeta(
    spectrum: EquivariantSpectrum, q: int, tol: float = DEFAULT_TARGET
) -> ContinuationResult:
    """The (0, q) zeta combination, from the one continuation of the
    twisted sector."""
    if _finite(q, "q") not in (0, 1, 2):
        raise InputError("q must be 0, 1, or 2")
    [(twisted,)] = _continue([("the spectrum", spectrum, (_TWISTED,))], tol)
    return _dolbeault(twisted)[int(q)]


def zeta_values(spectrum: EquivariantSpectrum, tol: float = DEFAULT_TARGET):
    """(plus, minus, (q0, q1, q2)): both signed zetas and the Dolbeault
    triple, from one continuation of each of the three sectors."""
    [(plus, minus, twisted)] = _continue(
        [("the spectrum", spectrum, (1, -1, _TWISTED))], tol
    )
    return plus, minus, _dolbeault(twisted)


def equivariant_determinant_report(
    spectrum: EquivariantSpectrum, tol: float = DEFAULT_TARGET
) -> DeterminantReport:
    return _determinant(*_continue([("the spectrum", spectrum, (1, -1))], tol)[0])


def equivariant_torsion_report(
    spectrum: EquivariantSpectrum, tol: float = DEFAULT_TARGET
) -> TorsionReport:
    """Torsion from the Dolbeault route, with the residual against the
    determinant route (log tau + 2 log det, which vanishes identically in
    exact arithmetic) recorded rather than assumed."""
    plus, minus, (_, r1, r2) = zeta_values(spectrum, tol)
    log_tau = r1.zeta_prime_at_0 - 2.0 * r2.zeta_prime_at_0
    err_log = r1.error_estimate + 2.0 * r2.error_estimate
    value = _in_range("the torsion", log_tau, lambda: math.exp(log_tau))
    residual = log_tau + 2.0 * math.log(_determinant(plus, minus).value)
    return TorsionReport(value, value * err_log, log_tau, residual)


def tau_iota(
    spectrum: EquivariantSpectrum,
    curves: tuple[CurveComponent, ...] | None = None,
    tol: float = DEFAULT_TARGET,
) -> TauReport:
    """The torsion invariant: determinant^-2 times, when the involution has
    fixed curves, the product of Vol(C_i) / det*(C_i), where det*(C_i) is
    exp(-zeta'(0)) of the curve's plus sector (its whole spectrum, the
    involution acting trivially).

    `curves` is None or a sequence of CurveComponents. For a manifold
    spectrum (dim >= 1) a free tail forbids curves, explicit twisted
    coefficients require them; complete synthetic spectra accept either.
    """
    _require_spectrum(spectrum)
    curves = _sequence(() if curves is None else curves, "curves")
    for c in curves:
        if not isinstance(c, CurveComponent):
            raise InputError("curves hold CurveComponents, not %s" % type(c).__name__)
    if spectrum.tail.dim >= 1 and spectrum.tail.free == bool(curves):
        raise ConsistencyError(
            "tail declares a free involution but curve data was supplied"
            if curves
            else "tail declares fixed curves (explicit twisted coefficients)"
            " but no curve data was supplied"
        )
    requests = [("the spectrum", spectrum, (1, -1))]
    requests += [
        ("curve %d" % k, comp.spectrum, (1,)) for k, comp in enumerate(curves, 1)
    ]
    (plus, minus), *curve_zetas = _continue(requests, tol)
    det = _determinant(plus, minus)
    log_tau = -2.0 * math.log(det.value)
    err_log = 2.0 * (plus.error_estimate + minus.error_estimate)
    factors = []
    if not curves:
        # keep tau = det^-2 an identity of floats, not just of logs
        value = _in_range("tau", log_tau, lambda: det.value**-2.0)
    else:
        for k, (comp, (res,)) in enumerate(zip(curves, curve_zetas), 1):
            log_d = -res.zeta_prime_at_0
            dval = _in_range("det* of curve %d" % k, log_d, lambda: math.exp(log_d))
            derr = dval * res.error_estimate
            log_v = math.log(comp.volume)
            what = "the factor of curve %d" % k
            factors.append(_in_range(what, log_v - log_d, lambda: comp.volume / dval))
            log_tau += log_v - math.log(dval)
            err_log += derr / dval
        value = _in_range("tau", log_tau, lambda: math.exp(log_tau))
    return TauReport(value, value * err_log, log_tau, det, tuple(factors))


def borcherds_report(
    tau: float, nu: int = 1, constant: float | None = None
) -> BorcherdsReport:
    """Translate a torsion value into the implied automorphic-form norm,
    tau = norm^(-1/(2 nu)), and check the round trip.

    With nu = 1 (the free case) the determinant factor norm^(1/4) is also
    reported; the identification with an actual determinant is only exact
    up to a normalizing constant, applied when `constant` is given.
    """
    tau = _positive(tau, "tau")
    if _finite(nu, "nu") < 1:
        raise InputError("nu must be a positive integer")
    nu = _count(nu, "nu")
    log_norm = -2 * nu * math.log(tau)
    norm = _in_range("implied norm tau**(-2 nu)", log_norm, lambda: tau ** (-2 * nu))
    round_trip = norm ** (-1.0 / (2 * nu))
    factor = norm**0.25 if nu == 1 else None
    with_constant = None
    if constant is not None:
        c = _positive(constant, "normalizing constant")
        with_constant = _in_range(
            "normalizing constant %r times norm**0.25" % c,
            math.log(c) + 0.25 * log_norm,
            lambda: c * norm**0.25,
        )
    return BorcherdsReport(tau, nu, norm, round_trip, factor, with_constant)


def truncate_entries(
    spectrum: EquivariantSpectrum, max_terms: int
) -> EquivariantSpectrum:
    """Keep only the first `max_terms` entries, tightening the completeness
    claim to the last kept eigenvalue. Complete spectra cannot lose entries
    without lying, so they are refused."""
    _require_spectrum(spectrum)
    if _finite(max_terms, "max terms") < 1:
        raise InputError("max terms must be at least 1")
    n = _count(max_terms, "max terms")
    if spectrum.complete:
        raise InputError("a complete spectrum cannot be truncated")
    if n >= spectrum.lambdas().size:
        return spectrum
    columns = _frozen_columns(*(col[:n] for col in spectrum._columns))
    cutoff = float(columns[0][-1])
    return EquivariantSpectrum._of(columns, spectrum.kernel, spectrum.tail, cutoff)

