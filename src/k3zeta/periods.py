"""Period points of marked anti-invariant lattices.

A period point is the projective class of an isotropic vector eta in the
complexification of a signature-(2, k) lattice with <eta, eta-bar> > 0. The
set of such classes has two connected components, swapped by conjugation; a
component label is computed as an orientation sign against a fixed reference
positive 2-frame of the lattice.

Coordinates are always taken in the exact integer basis of the lattice, so
projective comparisons and labels are basis-independent by construction.
Every check and label reads the sublattice's induced lattice, which the
sublattice computes once, on first use, as does that lattice its signature.

The period domain of an involution is its anti-invariant eigenlattice, the
one its isometry computes and keeps; under a marking m it is the image of
that lattice, in Hermite form. For an involution of a nondegenerate lattice
that is the orthogonal complement of the (marked) invariant lattice, so no
complement is computed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import frames as frames_mod
from . import intlinalg, lattices
from .errors import GeometryError, InputError, MarkingError

ISOTROPY_RTOL = 1e-9
PROJECTIVE_TOL = 1e-9


def _check_domain_lattice(sub: lattices.SublatticeBasis) -> None:
    if sub.rank < 2:
        raise GeometryError("period domain needs rank >= 2")
    pos, neg = sub.induced_lattice().signature()
    if pos != 2:
        raise GeometryError(
            "period domain needs signature (2, rank-2), got (%d, %d)" % (pos, neg)
        )


@dataclass(frozen=True, eq=False)
class PeriodPoint:
    """Projective class [eta] with <eta, eta> = 0 and <eta, eta-bar> > 0,
    in the integer coordinates of a signature-(2, k) sublattice."""

    sublattice: lattices.SublatticeBasis
    coords: np.ndarray

    def __init__(self, sublattice, coords):
        _check_domain_lattice(sublattice)
        eta = np.asarray(coords, dtype=complex)
        if eta.shape != (sublattice.rank,):
            raise InputError(
                "period coordinates must have length %d" % sublattice.rank
            )
        g = sublattice.induced_lattice().float_gram
        norm2 = float(np.real(eta @ g @ np.conj(eta)))
        if norm2 <= 0.0:
            raise GeometryError("period vector has <eta, eta-bar> <= 0")
        iso = complex(eta @ g @ eta)
        if abs(iso) > ISOTROPY_RTOL * norm2:
            raise GeometryError(
                "period vector is not isotropic (|<eta,eta>| / <eta,eta-bar>"
                " = %.3e)" % (abs(iso) / norm2)
            )
        arr = np.array(eta, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "sublattice", sublattice)
        object.__setattr__(self, "coords", arr)

    def induced_gram(self) -> np.ndarray:
        """The induced Gram matrix: the induced lattice's float view, shared
        and read-only."""
        return self.sublattice.induced_lattice().float_gram


def omega_contains(sub: lattices.SublatticeBasis, eta) -> bool:
    """Membership test for the period domain of `sub` (must have signature
    (2, rank-2); that precondition failing is a geometry error, a vector
    merely failing isotropy or positivity just returns False)."""
    _check_domain_lattice(sub)
    arr = np.asarray(eta, dtype=complex)
    if arr.shape != (sub.rank,):
        raise InputError("eta must have length %d" % sub.rank)
    if not np.any(arr):
        raise InputError("eta must be nonzero")
    try:
        PeriodPoint(sub, arr)
    except GeometryError:
        return False
    return True


def conjugate_period(p: PeriodPoint) -> PeriodPoint:
    return PeriodPoint(p.sublattice, np.conj(p.coords))


def projectively_equal(p, q) -> bool:
    """[p] == [q] via vanishing of all 2x2 minors, scale-invariantly."""
    a = p.coords if isinstance(p, PeriodPoint) else np.asarray(p, dtype=complex)
    b = q.coords if isinstance(q, PeriodPoint) else np.asarray(q, dtype=complex)
    if a.shape != b.shape:
        return False
    ab = np.outer(a, b)
    minors = np.abs(ab - ab.T)
    scale = float(np.linalg.norm(a) * np.linalg.norm(b))
    if scale == 0.0:
        raise InputError("projective comparison needs nonzero vectors")
    return float(np.max(minors)) <= PROJECTIVE_TOL * scale


@functools.lru_cache(maxsize=128)
def _reference_positive_frame(sub: lattices.SublatticeBasis) -> np.ndarray:
    """A fixed positive 2-frame of the lattice (columns, lattice coords),
    from the two positive eigen-directions of the induced Gram matrix; signs
    are pinned so the frame is deterministic."""
    w, v = np.linalg.eigh(sub.induced_lattice().float_gram)
    ref = v[:, -2:]
    for k in range(2):
        col = ref[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            ref[:, k] = -col
    ref.setflags(write=False)
    return ref


def component_label(p: PeriodPoint) -> int:
    """Which of the two components [eta] lies in: the orientation sign of
    the plane (Re eta, Im eta) paired against the reference 2-frame.

    Conjugation flips the label. Constant along any path that stays in the
    domain, because the pairing determinant of two positive 2-planes in
    signature (2, k) never vanishes.
    """
    ref = _reference_positive_frame(p.sublattice)
    g = p.induced_gram()
    re, im = np.real(p.coords), np.imag(p.coords)
    m = np.vstack([re, im]) @ g @ ref
    d = float(np.linalg.det(m))
    scale = float(
        np.linalg.norm(np.vstack([re, im]) @ g) * np.linalg.norm(ref) + 1.0
    )
    if abs(d) <= 1e-12 * scale:
        raise GeometryError("component label is numerically ambiguous")
    return 1 if d > 0 else -1


@dataclass(frozen=True, eq=False)
class PeriodPair:
    """The unordered conjugate pair of period points attached to a frame.

    `plus` is the class of x_J + i x_K, `minus` its conjugate; construction
    checks that the two members really are conjugate classes.
    """

    plus: PeriodPoint
    minus: PeriodPoint

    def __init__(self, plus: PeriodPoint, minus: PeriodPoint):
        if plus.sublattice is not minus.sublattice and plus.sublattice != minus.sublattice:
            raise InputError("pair members live in different lattices")
        if not projectively_equal(minus, conjugate_period(plus)):
            raise GeometryError("pair members are not conjugate classes")
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def labels(self) -> tuple[int, int]:
        return component_label(self.plus), component_label(self.minus)


def same_period_pair(a: PeriodPair, b: PeriodPair) -> bool:
    """Equality of unordered pairs of projective classes."""
    straight = projectively_equal(a.plus, b.plus) and projectively_equal(a.minus, b.minus)
    crossed = projectively_equal(a.plus, b.minus) and projectively_equal(a.minus, b.plus)
    return straight or crossed


@dataclass(frozen=True, eq=False)
class _MarkingContext:
    domain: lattices.SublatticeBasis
    basis: np.ndarray
    coords_of: np.ndarray


@functools.lru_cache(maxsize=32)
def _marking_context(
    invol: lattices.LatticeIsometry, marking: lattices.LatticeIsometry | None
) -> _MarkingContext:
    domain = lattices.eigenlattice(invol, -1)
    if marking is not None:
        if marking.lattice != invol.lattice:
            raise MarkingError("marking acts on a different lattice")
        mm = [list(r) for r in marking.matrix]
        image = [intlinalg.matvec(mm, list(v)) for v in domain.vectors]
        domain = lattices.SublatticeBasis(invol.lattice, intlinalg.column_hnf(image))
    _check_domain_lattice(domain)
    b = np.asarray(domain.basis_matrix(), dtype=float)
    induced = domain.induced_lattice().float_gram
    coords_of = np.linalg.solve(induced, b.T @ invol.lattice.float_gram)
    coords_of.setflags(write=False)
    b.setflags(write=False)
    return _MarkingContext(domain, b, coords_of)


def period_of(
    frame: frames_mod.HKFrame,
    invol: lattices.LatticeIsometry,
    marking: lattices.LatticeIsometry | None = None,
    tol: float = frames_mod.DEFAULT_TOL,
) -> PeriodPair:
    """Period pair of a compatible frame: coordinates of the marked
    anti-invariant part of (gamma_J, gamma_K) in the exact basis of the
    marked anti-invariant lattice.

    Errors: an incompatible frame is a geometry error; a marking that does
    not move the anti-invariant directions into that lattice is a marking
    error.
    """
    if frame.form.shape[0] != invol.lattice.rank or not np.all(
        np.abs(frame.form - invol.lattice.float_gram) <= tol
    ):
        raise InputError("frame ambient form does not match the lattice")
    if not frames_mod.is_compatible(frame, invol, tol=tol):
        raise GeometryError(
            "frame is not compatible with the involution (sign pattern"
            " (+1, -1, -1) fails)"
        )
    ctx = _marking_context(invol, marking)
    alpha = marking.float_matrix if marking is not None else np.eye(invol.lattice.rank)
    gj = alpha @ frame.gammas[1]
    gk = alpha @ frame.gammas[2]
    xj = ctx.coords_of @ gj
    xk = ctx.coords_of @ gk
    scale = max(float(np.max(np.abs(gj))), float(np.max(np.abs(gk))), 1.0)
    residual = max(
        float(np.max(np.abs(ctx.basis @ xj - gj))),
        float(np.max(np.abs(ctx.basis @ xk - gk))),
    )
    if residual > max(tol, 1e-9 * scale):
        raise MarkingError(
            "anti-invariant frame vectors do not land in the marked"
            " complement (residual %.3e)" % residual
        )
    plus = PeriodPoint(ctx.domain, xj + 1j * xk)
    minus = PeriodPoint(ctx.domain, xj - 1j * xk)
    return PeriodPair(plus, minus)
