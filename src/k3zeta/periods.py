"""Period points of marked anti-invariant lattices.

A period point is the projective class of an isotropic vector eta in the
complexification of a signature-(2, k) lattice with <eta, eta-bar> > 0. The
set of such classes has two connected components, swapped by conjugation; a
component label is computed as an orientation sign against a fixed reference
positive 2-frame of the lattice. That frame comes from the sublattice's one
eigendecomposition, frames._split_directions, which also serves the frame
sampler, and a pair's two labels come from one orientation.

Coordinates are always taken in the exact integer basis of the lattice, so
labels are basis-independent by construction. A pair is built from its plus
point; its minus point is the conjugate of those coordinates.
Every check and label reads the sublattice's induced lattice, which the
sublattice computes once, on first use, as does that lattice its signature.

Every float check accepts by the package's one rule, errors._within
(deviation <= max(tol, 1e-9 * scale); a NaN deviation fails): period_of
matches the frame's form with tol and no scale, and the residual of the
frame vectors in the domain with tol and the scale of those vectors; a
period point's isotropy |<eta, eta>| is held to 1e-9 <eta, eta-bar>, that
is tol 0 and scale <eta, eta-bar>. The component label's ambiguity test is
a different decision and keeps its own bound. The checks and the label read
eta scaled by the power of two that puts its largest real or imaginary
entry in [1, 2), so a projective class gets one answer whatever its
representative; the stored coordinates are eta as given.

The period domain of an involution is its anti-invariant eigenlattice, the
one its isometry computes and keeps; under a marking m it is the image of
that lattice, in Hermite form. For an involution of a nondegenerate lattice
that is the orthogonal complement of the (marked) invariant lattice, so no
complement is computed.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import frames as frames_mod
from . import intlinalg, lattices
from ._record import Record
from .errors import GeometryError, InputError, MarkingError, _positive, _within


def _check_domain_lattice(sub: lattices.SublatticeBasis) -> None:
    if sub.rank < 2:
        raise GeometryError("period domain needs rank >= 2")
    pos, neg = sub.induced_lattice().signature()
    if pos != 2:
        raise GeometryError(
            "period domain needs signature (2, rank-2), got (%d, %d)" % (pos, neg)
        )


def _normalized(eta: np.ndarray) -> np.ndarray:
    """eta times the power of two that puts its largest real or imaginary
    entry in [1, 2). The scaling is exact, so every check and label of a
    projective class reads the same bits whatever its representative,
    unless the representative's own products over- or underflow."""
    top = float(np.max(np.abs(np.concatenate([eta.real, eta.imag]))))
    k = 1 - math.frexp(top)[1]
    return np.ldexp(eta.real, k) + 1j * np.ldexp(eta.imag, k)


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
        if not np.isfinite(eta).all():
            raise InputError("period coordinates must be finite")
        g = sublattice.induced_lattice().float_gram
        unit = _normalized(eta)
        norm2 = float(np.real(unit @ g @ np.conj(unit)))
        if not norm2 > 0.0:
            raise GeometryError("period vector has <eta, eta-bar> <= 0")
        iso = complex(unit @ g @ unit)
        if not _within(abs(iso), 0.0, norm2):
            raise GeometryError(
                "period vector is not isotropic (|<eta,eta>| / <eta,eta-bar>"
                " = %.3e)" % (abs(iso) / norm2)
            )
        arr = np.array(eta, dtype=complex)
        arr.setflags(write=False)
        super().__init__(sublattice, arr)


def component_label(p: PeriodPoint) -> int:
    """Which of the two components [eta] lies in: the orientation sign of
    the plane (Re eta, Im eta) paired against the reference 2-frame of
    frames._split_directions, read on the normalized representative.

    Conjugation flips the label. Constant along any path that stays in the
    domain, because the pairing determinant of two positive 2-planes in
    signature (2, k) never vanishes.
    """
    _, _, ref = frames_mod._split_directions(p.sublattice)
    eta = _normalized(p.coords)
    xg = np.vstack([eta.real, eta.imag]) @ p.sublattice.induced_lattice().float_gram
    d = float(np.linalg.det(xg @ ref))
    scale = float(np.linalg.norm(xg) * np.linalg.norm(ref) + 1.0)
    if not abs(d) > 1e-12 * scale:
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
        # the conjugate of a checked point passes every check it passed
        conj = np.conj(plus.coords)
        conj.setflags(write=False)
        minus = PeriodPoint._of(plus.sublattice, conj)
        super().__init__(plus, minus)

    def labels(self) -> tuple[int, int]:
        """The labels of (plus, minus) from one orientation: conjugation
        negates the Im row of the label's 2 x 2 matrix, and its determinant
        (LU with partial pivoting) is exactly odd in a row."""
        label = component_label(self.plus)
        return label, -label


class _MarkingContext(Record, eq=False):
    domain: lattices.SublatticeBasis
    coords_of: np.ndarray


@functools.lru_cache(maxsize=32)
def _marking_context(
    invol: lattices.LatticeIsometry, marking: lattices.LatticeIsometry | None
) -> _MarkingContext:
    domain = lattices.eigenlattice(invol, -1)
    if marking is not None:
        if marking.lattice != invol.lattice:
            raise MarkingError("marking acts on a different lattice")
        image = intlinalg.matmul(domain.int_vectors, marking.int_matrix.T)
        # a Hermite basis, independent by construction
        hnf = lattices._freeze(intlinalg.column_hnf(image.tolist()))
        domain = lattices.SublatticeBasis._of(invol.lattice, hnf)
    _check_domain_lattice(domain)
    b = domain.float_basis
    induced = domain.induced_lattice().float_gram
    coords_of = np.linalg.solve(induced, b.T @ invol.lattice.float_gram)
    coords_of.setflags(write=False)
    return _MarkingContext(domain, coords_of)


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
    if not isinstance(invol, lattices.LatticeIsometry):
        raise InputError("a period needs an exact lattice isometry")
    if marking is not None and not isinstance(marking, lattices.LatticeIsometry):
        raise InputError("a marking must be an exact lattice isometry")
    frames_mod._require_frame(frame)
    if frame.form.shape[0] != invol.lattice.rank or not _within(
        float(np.max(np.abs(frame.form - invol.lattice.float_gram))), tol
    ):
        raise InputError("frame ambient form does not match the lattice")
    frames_mod._require_compatible(frame, invol, tol)
    ctx = _marking_context(invol, marking)
    gj, gk = frame.gammas[1], frame.gammas[2]
    if marking is not None:
        gj, gk = marking.float_matrix @ gj, marking.float_matrix @ gk
    xj = ctx.coords_of @ gj
    xk = ctx.coords_of @ gk
    scale = max(float(np.max(np.abs(gj))), float(np.max(np.abs(gk))), 1.0)
    residual = max(
        float(np.max(np.abs(ctx.domain.float_basis @ xj - gj))),
        float(np.max(np.abs(ctx.domain.float_basis @ xk - gk))),
    )
    if not _within(residual, tol, scale):
        raise MarkingError(
            "anti-invariant frame vectors do not land in the marked"
            " complement (residual %.3e)" % residual
        )
    return PeriodPair(PeriodPoint(ctx.domain, xj + 1j * xk))
