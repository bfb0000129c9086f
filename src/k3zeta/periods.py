"""Period points of marked anti-invariant lattices.

A period point is the projective class of an isotropic vector eta in the
complexification of a signature-(2, k) lattice with <eta, eta-bar> > 0. The
set of such classes has two connected components, swapped by conjugation; a
component label is computed as an orientation sign against a fixed reference
positive 2-frame of the lattice.

Coordinates are always taken in the exact integer basis of the lattice, so
labels are basis-independent by construction. A pair is built from its plus
point; its minus point is the conjugate of those coordinates.
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

import numpy as np

from . import frames as frames_mod
from . import intlinalg, lattices
from ._record import Record
from .errors import GeometryError, InputError, MarkingError, _positive

ISOTROPY_RTOL = 1e-9


def _check_domain_lattice(sub: lattices.SublatticeBasis) -> None:
    if sub.rank < 2:
        raise GeometryError("period domain needs rank >= 2")
    pos, neg = sub.induced_lattice().signature()
    if pos != 2:
        raise GeometryError(
            "period domain needs signature (2, rank-2), got (%d, %d)" % (pos, neg)
        )


class PeriodPoint(Record, eq=False):
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
    g = p.sublattice.induced_lattice().float_gram
    re, im = np.real(p.coords), np.imag(p.coords)
    m = np.vstack([re, im]) @ g @ ref
    d = float(np.linalg.det(m))
    scale = float(
        np.linalg.norm(np.vstack([re, im]) @ g) * np.linalg.norm(ref) + 1.0
    )
    if abs(d) <= 1e-12 * scale:
        raise GeometryError("component label is numerically ambiguous")
    return 1 if d > 0 else -1


class PeriodPair(Record, eq=False):
    """The unordered conjugate pair of period points attached to a frame.

    `plus` is the class of x_J + i x_K; `minus`, its conjugate, is built
    from it.
    """

    plus: PeriodPoint
    minus: PeriodPoint

    def __init__(self, plus: PeriodPoint):
        minus = PeriodPoint(plus.sublattice, np.conj(plus.coords))
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def labels(self) -> tuple[int, int]:
        return component_label(self.plus), component_label(self.minus)


class _MarkingContext(Record, eq=False):
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
    tol = _positive(tol, "tol")
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
    gj, gk = frame.gammas[1], frame.gammas[2]
    if marking is not None:
        gj, gk = marking.float_matrix @ gj, marking.float_matrix @ gk
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
    return PeriodPair(PeriodPoint(ctx.domain, xj + 1j * xk))
