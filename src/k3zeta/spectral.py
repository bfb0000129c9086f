"""Equivariant spectra and the regularized quantities built from them.

An equivariant spectrum stores positive eigenvalues with signed
multiplicities (m_plus, m_minus) for the two involution eigenspaces, the
kernel dimensions, and a heat-tail declaration describing the t -> 0 trace
on the ladder t^((j - dim)/2). dim = 0 means the entries are the complete
spectrum of a finite model and the tail is the exact constant. A fixed
curve's Laplacian is the same type with the trivial involution: no minus
states and a twisted tail equal to the straight one.

A spectrum has three sectors, each continued to s = 0 by the engine in
`mellin`: plus and minus, the (1 +/- involution)/2 eigenspaces, and the
twisted trace, weighted by m_plus - m_minus. `_sector` holds the one table
from a sector to its continuation arguments, and every value below is
arithmetic on the results of one runner, `_continue`, which continues
each requested sector once. The sectors of one spectrum are continued
together, in one engine call that shares the heat-trace work between
them and gives each the bits it would get alone. When sectors miss the
tolerance the runner still finishes the others and refuses with the
largest achievable bound, so a report's `achievable` covers all of its
sectors; the refusal names that sector and its source, the spectrum or
a curve, whose own cutoff it quotes.

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

import math

import numpy as np

from ._record import Record
from .errors import AccuracyError, ConsistencyError, InputError, _count, _finite
from .errors import _positive
from .mellin import (
    DEFAULT_TARGET,
    ContinuationResult,
    TraceModel,
    continue_trace,
)

_REL = 1e-9


class HeatTail(Record):
    """Small-t model of the straight and twisted heat traces.

    `straight` are the coefficients c_j on t^((j - dim)/2) of the full
    trace (kernel included); `twisted` either lists coefficients on the
    same ladder or is None, declaring the twisted trace exponentially
    small (a free involution).
    """

    dim: int
    straight: tuple[float, ...]
    twisted: tuple[float, ...] | None

    def __init__(self, dim, straight, twisted=None):
        dim = _count(dim, "tail dimension")
        s = tuple(_finite(c, "tail coefficient") for c in straight)
        t = (
            None
            if twisted is None
            else tuple(_finite(c, "tail coefficient") for c in twisted)
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
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "straight", s)
        object.__setattr__(self, "twisted", t)

    @property
    def free(self) -> bool:
        return self.twisted is None

    def straight_model(self) -> TraceModel:
        return TraceModel.from_ladder(self.dim, self.straight)


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
    m_minus), given as a sequence or as one (n, 3) float array.

    An array is checked in one numpy pass; one that fails it (a row to
    refuse, or a count past int64) is read row by row like a sequence, so
    every refusal is that of the first row failing a check.
    """
    if (
        isinstance(entries, np.ndarray)
        and entries.dtype == float
        and entries.ndim == 2
        and entries.shape[1] == 3
    ):
        lams, counts = entries[:, 0], entries[:, 1:]
        whole = (counts >= 0.0) & (counts < 2.0**63) & (counts == np.floor(counts))
        if (
            np.isfinite(lams).all()
            and (lams > 0.0).all()
            and (lams[1:] > lams[:-1]).all()
            and whole.all()
            and counts.any(axis=1).all()
        ):
            mp, mm = counts.T.astype(np.int64)
            return np.array(lams), mp, mm
    rows = []
    prev = 0.0
    for e in entries:
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
    lams = np.array([lam for lam, _, _ in rows], dtype=float)
    return (lams, *(_counts([row[j] for row in rows]) for j in (1, 2)))


def _counts(values: list[int]) -> np.ndarray:
    """An int64 column, or Python ints (dtype object) past int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class EquivariantSpectrum(Record, eq=False):
    """Eigenvalues with signed multiplicities, kernel dims, tail, cutoff.

    The entries are held as three read-only columns: the ascending float64
    eigenvalues and the int64 m_plus and m_minus counts (Python ints,
    dtype object, past int64). They are given as rows (lam, m_plus,
    m_minus), in a sequence or, as the models build them, in one (n, 3)
    float array.
    """

    kernel: tuple[int, int]
    tail: HeatTail
    cutoff: float

    def __init__(self, entries, kernel, tail, cutoff=math.inf):
        lams, mp, mm = _check_entries(entries)
        k = tuple(_count(n, "kernel dimension") for n in _fields(kernel, 2, "kernel"))
        if not isinstance(tail, HeatTail):
            raise InputError("tail must be a HeatTail")
        plus, minus = sum(mp.tolist()), sum(mm.tolist())
        # a float-range total also keeps every heat-trace sum finite
        total = _count(k[0] + k[1] + plus + minus, "total state count")
        if tail.dim == 0:
            cut = math.inf
            scale = _REL * max(1.0, total)
            if abs(tail.straight[0] - total) > scale:
                raise InputError(
                    "complete spectrum: straight constant %.17g != total"
                    " state count %d" % (tail.straight[0], total)
                )
            # a free tail declares a vanishing twisted trace
            twisted = 0.0 if tail.free else tail.twisted[0]
            signed = k[0] - k[1] + plus - minus
            if abs(twisted - signed) > scale:
                note = " (a free tail declares 0)" if tail.free else ""
                raise InputError(
                    "complete spectrum: twisted constant %.17g != signed"
                    " state count %d%s" % (twisted, signed, note)
                )
        else:
            cut = _finite(cutoff, "a truncated spectrum's cutoff")
            if cut <= 0.0:
                raise InputError("a truncated spectrum needs a positive cutoff")
            if lams.size and lams[-1] > cut:
                raise InputError("entries extend beyond the declared cutoff")
        for col in (lams, mp, mm):
            col.flags.writeable = False
        object.__setattr__(self, "_columns", (lams, mp, mm))
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "cutoff", cut)

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
    """One fixed-curve component: its volume and its Laplacian, a spectrum
    on which the involution acts trivially."""

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
        object.__setattr__(self, "volume", v)
        object.__setattr__(self, "spectrum", spectrum)


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
    eigenspace, with model (straight + sign * twisted) / 2, or the twisted
    trace, weighted by m_plus - m_minus against the twisted model."""
    tail = spectrum.tail
    if sector == _TWISTED:
        weights = spectrum.mults(1) - spectrum.mults(-1)
        kernel = float(spectrum.kernel[0] - spectrum.kernel[1])
        if tail.free:
            return weights, kernel, TraceModel(coeffs=(), next_exponent=math.inf)
        return weights, kernel, TraceModel.from_ladder(tail.dim, tail.twisted)
    if tail.free:
        coeffs = [c / 2.0 for c in tail.straight]
    else:
        coeffs = [(s + sector * t) / 2.0 for s, t in zip(tail.straight, tail.twisted)]
    kernel = float(spectrum.kernel[0] if sector > 0 else spectrum.kernel[1])
    return spectrum.mults(sector), kernel, TraceModel.from_ladder(tail.dim, coeffs)


def _continue(requests, tol: float) -> list[list[ContinuationResult]]:
    """Continue the sectors of each (source, spectrum, sectors) request,
    all of one spectrum in one engine call, and return their results per
    request.

    A sector that misses `tol` does not stop the rest: once all have run,
    the AccuracyError with the largest achievable bound is raised, so a
    report refuses with the figure of its worst sector, not of the first
    one to miss. Its message names the sector and the source, the spectrum
    or a curve, whose cutoff it quotes.
    """
    tol = _positive(tol, "tol")
    results, misses = [], []
    for source, spectrum, sectors in requests:
        weights, kernels, models = zip(*(_sector(spectrum, s) for s in sectors))
        out = continue_trace(
            spectrum.lambdas(),
            np.array(weights),
            kernels,
            models,
            spectrum.tail.straight_model(),
            spectrum.cutoff,
            target=tol,
        )
        for sector, r in zip(sectors, out):
            if isinstance(r, AccuracyError):
                where = "%s sector of %s" % (_SECTOR_NAMES[sector], source)
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


def _determinant(
    plus: ContinuationResult, minus: ContinuationResult
) -> DeterminantReport:
    value = math.exp(-plus.zeta_prime_at_0 + minus.zeta_prime_at_0)
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
    residual = log_tau + 2.0 * math.log(_determinant(plus, minus).value)
    value = math.exp(log_tau)
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

    For a manifold spectrum (dim >= 1) the twisted-tail kind must match the
    call: a free tail forbids curve data, explicit twisted coefficients
    require it. Complete synthetic spectra accept either form.
    """
    if curves is not None and len(curves) == 0:
        curves = None
    if spectrum.tail.dim >= 1:
        if spectrum.tail.free and curves is not None:
            raise ConsistencyError(
                "tail declares a free involution but curve data was supplied"
            )
        if not spectrum.tail.free and curves is None:
            raise ConsistencyError(
                "tail declares fixed curves (explicit twisted coefficients)"
                " but no curve data was supplied"
            )
    requests = [("the spectrum", spectrum, (1, -1))]
    requests += [
        ("curve %d" % k, comp.spectrum, (1,)) for k, comp in enumerate(curves or (), 1)
    ]
    (plus, minus), *curve_zetas = _continue(requests, tol)
    det = _determinant(plus, minus)
    log_tau = -2.0 * math.log(det.value)
    err_log = 2.0 * (plus.error_estimate + minus.error_estimate)
    factors = []
    if curves is None:
        # keep tau = det^-2 an identity of floats, not just of logs
        value = det.value**-2.0
    else:
        for comp, (res,) in zip(curves, curve_zetas):
            dval = math.exp(-res.zeta_prime_at_0)
            derr = dval * res.error_estimate
            factors.append(comp.volume / dval)
            log_tau += math.log(comp.volume) - math.log(dval)
            err_log += derr / dval
        value = math.exp(log_tau)
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
    try:
        norm = tau ** (-2 * nu)
    except OverflowError:
        norm = math.inf
    if not 0.0 < norm < math.inf:
        raise InputError("implied norm tau**(-2 nu) is out of floating-point range")
    round_trip = norm ** (-1.0 / (2 * nu))
    factor = norm**0.25 if nu == 1 else None
    with_constant = None
    if constant is not None:
        c = _positive(constant, "normalizing constant")
        with_constant = c * norm**0.25
        if with_constant == math.inf:
            raise InputError(
                "normalizing constant %r times norm**0.25 passes float range" % c
            )
    return BorcherdsReport(tau, nu, norm, round_trip, factor, with_constant)


def truncate_entries(
    spectrum: EquivariantSpectrum, max_terms: int
) -> EquivariantSpectrum:
    """Keep only the first `max_terms` entries, tightening the completeness
    claim to the last kept eigenvalue. Complete spectra cannot lose entries
    without lying, so they are refused."""
    if _finite(max_terms, "max terms") < 1:
        raise InputError("max terms must be at least 1")
    n = _count(max_terms, "max terms")
    if spectrum.complete:
        raise InputError("a complete spectrum cannot be truncated")
    if n >= spectrum.lambdas().size:
        return spectrum
    lams, mp, mm = (col[:n] for col in spectrum._columns)
    rows = np.column_stack((lams, mp, mm))
    if rows.dtype == float and not (rows[:, 1:] < 2.0**53).all():
        rows = spectrum.entries[:n]  # counts a float cannot hold exactly
    return EquivariantSpectrum(rows, spectrum.kernel, spectrum.tail, lams[-1])

