"""Equivariant spectra and the regularized quantities built from them.

An equivariant spectrum stores positive eigenvalues with signed
multiplicities (m_plus, m_minus) for the two involution eigenspaces, the
kernel dimensions, and a heat-tail declaration describing the t -> 0 trace
on the ladder t^((j - dim)/2). dim = 0 means the entries are the complete
spectrum of a finite model and the tail is the exact constant. A fixed
curve's Laplacian is the same type with the trivial involution: no minus
states and a twisted tail equal to the straight one.

From one spectrum the module evaluates, all through the same continuation
engine:

  * zeta_signed        the plus/minus zeta functions at s = 0
  * dolbeault_zetas    the (0, q) combinations for q = 0, 1, 2 from one
                       continuation; q = 0 is continued directly from the
                       twisted trace, so comparing it with the signed
                       difference is a genuine two-route check
  * equivariant_determinant_report   exp(-zeta_plus'(0) + zeta_minus'(0))
  * equivariant_torsion_report       exp(zeta^{0,1}'(0) - 2 zeta^{0,2}'(0)),
                       recording the residual against determinant^-2
  * curve_determinant_report  det* of a fixed-curve component, from its
                       plus sector
  * tau_iota           the torsion invariant, free or with curve factors
  * borcherds_report   the implied automorphic-form norm and its round trip
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from .mellin import (
    DEFAULT_TARGET,
    ContinuationResult,
    TraceModel,
    continue_trace,
)

_REL = 1e-9


@dataclass(frozen=True)
class HeatTail:
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

    def twisted_model(self) -> TraceModel:
        if self.twisted is None:
            return TraceModel(coeffs=(), next_exponent=math.inf)
        return TraceModel.from_ladder(self.dim, self.twisted)

    def signed_model(self, sign: int) -> TraceModel:
        """(straight + sign * twisted) / 2 on the shared ladder."""
        s = self.straight
        t = self.twisted
        if t is None:
            coeffs = [c / 2.0 for c in s]
            return TraceModel.from_ladder(self.dim, coeffs)
        n = min(len(s), len(t))
        coeffs = [(s[j] + sign * t[j]) / 2.0 for j in range(n)]
        return TraceModel.from_ladder(self.dim, coeffs)


def _finite(x, what: str) -> float:
    try:
        v = math.nan if isinstance(x, bool) else float(x)
    except (TypeError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        raise InputError("%s must be a finite number, not %r" % (what, x))
    return v


def _count(x, what: str) -> int:
    """A nonnegative integer that float() can hold, from an int or an
    integral float."""
    try:
        n = int(x)
        float(n)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x or n < 0 or isinstance(x, bool):
        raise InputError(
            "%s must be a nonnegative integer in float range, not %r" % (what, x)
        )
    return n


def _fields(x, width: int, what: str) -> tuple:
    try:
        x = tuple(x)
    except TypeError:
        x = ()
    if len(x) != width:
        raise InputError("%s must have %d fields" % (what, width))
    return x


def _check_entries(entries):
    out = []
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
        out.append((lam, mp, mm))
    return tuple(out)


@dataclass(frozen=True)
class EquivariantSpectrum:
    """Eigenvalues with signed multiplicities, kernel dims, tail, cutoff."""

    entries: tuple[tuple[float, int, int], ...]
    kernel: tuple[int, int]
    tail: HeatTail
    cutoff: float

    def __init__(self, entries, kernel, tail, cutoff=math.inf):
        ent = _check_entries(entries)
        k = tuple(_count(n, "kernel dimension") for n in _fields(kernel, 2, "kernel"))
        if not isinstance(tail, HeatTail):
            raise InputError("tail must be a HeatTail")
        # a float-range total also keeps every heat-trace sum finite
        total = _count(
            k[0] + k[1] + sum(mp + mm for _, mp, mm in ent), "total state count"
        )
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
            signed = k[0] - k[1] + sum(mp - mm for _, mp, mm in ent)
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
            if ent and ent[-1][0] > cut:
                raise InputError("entries extend beyond the declared cutoff")
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "cutoff", cut)

    @property
    def complete(self) -> bool:
        return self.tail.dim == 0

    def lambdas(self) -> np.ndarray:
        return np.array([lam for lam, _, _ in self.entries], dtype=float)

    def mults(self, sign: int) -> np.ndarray:
        col = 1 if sign > 0 else 2
        return np.array([e[col] for e in self.entries], dtype=float)

    def scaled(self, c: float) -> "EquivariantSpectrum":
        """The spectrum of c * Laplacian: eigenvalues, cutoff, and tail
        coefficients all transform (theta_c(t) = theta(c t))."""
        c = float(c)
        if c <= 0.0:
            raise InputError("scale factor must be positive")
        n = self.tail.dim
        ent = [(lam * c, mp, mm) for lam, mp, mm in self.entries]
        st = tuple(
            coef * c ** ((j - n) / 2.0) for j, coef in enumerate(self.tail.straight)
        )
        tw = self.tail.twisted
        if tw is not None:
            tw = tuple(coef * c ** ((j - n) / 2.0) for j, coef in enumerate(tw))
        return EquivariantSpectrum(
            ent, self.kernel, HeatTail(n, st, tw), self.cutoff * c
        )

    def union(self, other: "EquivariantSpectrum") -> "EquivariantSpectrum":
        """Disjoint-union spectrum: multiplicities, kernels, and tail
        coefficients add; the cutoff is the weaker completeness claim."""
        if self.tail.dim != other.tail.dim:
            raise ConsistencyError("union needs equal tail dimensions")
        if self.tail.free != other.tail.free:
            raise ConsistencyError("union needs matching twisted-tail kinds")
        cut = min(self.cutoff, other.cutoff)
        merged: dict[float, list[int]] = {}
        for spec in (self, other):
            for lam, mp, mm in spec.entries:
                if lam > cut:
                    break  # entries beyond the joint completeness claim
                acc = merged.setdefault(lam, [0, 0])
                acc[0] += mp
                acc[1] += mm
        ent = [(lam, mp, mm) for lam, (mp, mm) in sorted(merged.items())]
        kernel = (self.kernel[0] + other.kernel[0], self.kernel[1] + other.kernel[1])

        def _addpad(a, b):
            n = max(len(a), len(b))
            return tuple(
                (a[j] if j < len(a) else 0.0) + (b[j] if j < len(b) else 0.0)
                for j in range(n)
            )

        st = _addpad(self.tail.straight, other.tail.straight)
        tw = (
            None
            if self.tail.free
            else _addpad(self.tail.twisted, other.tail.twisted)
        )
        return EquivariantSpectrum(
            ent,
            kernel,
            HeatTail(self.tail.dim, st, tw),
            cut,
        )


@dataclass(frozen=True)
class CurveComponent:
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
            or any(mm for _, _, mm in spectrum.entries)
            or spectrum.tail.twisted != spectrum.tail.straight
        ):
            raise InputError(
                "a curve spectrum needs the trivial involution: no minus"
                " states and a twisted tail equal to the straight one"
            )
        object.__setattr__(self, "volume", v)
        object.__setattr__(self, "spectrum", spectrum)


@dataclass(frozen=True)
class DeterminantReport:
    value: float
    error_estimate: float
    plus: ContinuationResult
    minus: ContinuationResult


@dataclass(frozen=True)
class TorsionReport:
    value: float
    error_estimate: float
    log_value: float
    determinant_residual: float


@dataclass(frozen=True)
class TauReport:
    value: float
    error_estimate: float
    log_value: float
    determinant: DeterminantReport
    curve_factors: tuple[float, ...]


@dataclass(frozen=True)
class BorcherdsReport:
    tau: float
    nu: int
    implied_norm: float
    round_trip_tau: float
    implied_determinant_factor: float | None
    determinant_with_constant: float | None


def zeta_signed(
    spectrum: EquivariantSpectrum, sign: int, tol: float = DEFAULT_TARGET
) -> ContinuationResult:
    """zeta_{+/-}(s) = sum over the (1 +/- involution)/2 eigenspace,
    continued to s = 0."""
    if sign not in (1, -1):
        raise InputError("sign must be +1 or -1")
    k = spectrum.kernel[0] if sign > 0 else spectrum.kernel[1]
    return continue_trace(
        spectrum.lambdas(),
        spectrum.mults(sign),
        float(k),
        spectrum.tail.signed_model(sign),
        spectrum.tail.straight_model(),
        spectrum.cutoff,
        target=tol,
    )


def dolbeault_zetas(
    spectrum: EquivariantSpectrum, tol: float = DEFAULT_TARGET
) -> tuple[ContinuationResult, ContinuationResult, ContinuationResult]:
    """The (0, q) zeta combinations for q = 0, 1, 2, from one continuation.

    q = 0 is continued directly from the twisted trace (weights
    m_plus - m_minus against the twisted tail model), q = 2 is its exact
    negative, and q = 1 is their sum, identically zero; all three carry
    q = 0's split point.
    """
    r0 = continue_trace(
        spectrum.lambdas(),
        spectrum.mults(1) - spectrum.mults(-1),
        float(spectrum.kernel[0] - spectrum.kernel[1]),
        spectrum.tail.twisted_model(),
        spectrum.tail.straight_model(),
        spectrum.cutoff,
        target=tol,
    )
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


def dolbeault_zeta(
    spectrum: EquivariantSpectrum, q: int, tol: float = DEFAULT_TARGET
) -> ContinuationResult:
    """The (0, q) zeta combination; see dolbeault_zetas."""
    if q not in (0, 1, 2):
        raise InputError("q must be 0, 1, or 2")
    return dolbeault_zetas(spectrum, tol)[int(q)]


def equivariant_determinant_report(
    spectrum: EquivariantSpectrum, tol: float = DEFAULT_TARGET
) -> DeterminantReport:
    plus = zeta_signed(spectrum, 1, tol)
    minus = zeta_signed(spectrum, -1, tol)
    log_det = -plus.zeta_prime_at_0 + minus.zeta_prime_at_0
    value = math.exp(log_det)
    err = value * (plus.error_estimate + minus.error_estimate)
    return DeterminantReport(value, err, plus, minus)


def equivariant_torsion_report(
    spectrum: EquivariantSpectrum, tol: float = DEFAULT_TARGET
) -> TorsionReport:
    """Torsion from the Dolbeault route, with the residual against the
    determinant route (log tau + 2 log det, which vanishes identically in
    exact arithmetic) recorded rather than assumed."""
    _, r1, r2 = dolbeault_zetas(spectrum, tol)
    log_tau = r1.zeta_prime_at_0 - 2.0 * r2.zeta_prime_at_0
    err_log = r1.error_estimate + 2.0 * r2.error_estimate
    det = equivariant_determinant_report(spectrum, tol)
    residual = log_tau + 2.0 * math.log(det.value)
    value = math.exp(log_tau)
    return TorsionReport(value, value * err_log, log_tau, residual)


def curve_determinant_report(
    spectrum: EquivariantSpectrum, tol: float = DEFAULT_TARGET
) -> tuple[float, float]:
    """(det*, error) of a curve component's Laplacian, exp(-zeta'(0)) of
    its plus sector (the whole spectrum, the involution acting trivially)."""
    res = zeta_signed(spectrum, 1, tol)
    value = math.exp(-res.zeta_prime_at_0)
    return value, value * res.error_estimate


def tau_iota(
    spectrum: EquivariantSpectrum,
    curves: tuple[CurveComponent, ...] | None = None,
    tol: float = DEFAULT_TARGET,
) -> TauReport:
    """The torsion invariant: determinant^-2 times, when the involution has
    fixed curves, the product of Vol(C_i) / det*(C_i).

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
    det = equivariant_determinant_report(spectrum, tol)
    log_tau = -2.0 * math.log(det.value)
    err_log = 2.0 * (det.plus.error_estimate + det.minus.error_estimate)
    factors = []
    if curves is None:
        # keep tau = det^-2 an identity of floats, not just of logs
        value = det.value**-2.0
    else:
        for comp in curves:
            dval, derr = curve_determinant_report(comp.spectrum, tol)
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
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise InputError("tau must be positive and finite")
    nu = int(nu)
    if nu < 1:
        raise InputError("nu must be a positive integer")
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
        c = float(constant)
        if c <= 0.0:
            raise InputError("normalizing constant must be positive")
        with_constant = c * norm**0.25
    return BorcherdsReport(tau, nu, norm, round_trip, factor, with_constant)


def truncate_entries(
    spectrum: EquivariantSpectrum, max_terms: int
) -> EquivariantSpectrum:
    """Keep only the first `max_terms` entries, tightening the completeness
    claim to the last kept eigenvalue. Complete spectra cannot lose entries
    without lying, so they are refused."""
    n = int(max_terms)
    if n < 1:
        raise InputError("max terms must be at least 1")
    if spectrum.complete:
        raise InputError("a complete spectrum cannot be truncated")
    if n >= len(spectrum.entries):
        return spectrum
    ent = spectrum.entries[:n]
    return EquivariantSpectrum(ent, spectrum.kernel, spectrum.tail, ent[-1][0])

