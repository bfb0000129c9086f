"""Hyper-Kahler frames: orthogonal triples with pairing 2 in an indefinite
ambient, and their compatibility with an involution.

A frame is a triple (gamma_I, gamma_J, gamma_K) of ambient vectors with
<gamma_a, gamma_b> = 2 delta_ab; the span is then a positive 3-space. It is
compatible with an involution that fixes gamma_I and negates gamma_J and
gamma_K, and such frames come in a one-parameter family per branch.

Every check accepts by the package's one rule, errors._within: a
deviation passes when it is at most max(tol, 1e-9 * scale). The frame's
symmetry and pairing use tol DEFAULT_TOL and no scale; is_compatible takes
the tolerance of the period computation that calls it, and the scale
max|target| of the sign-flipped frame. The compatibility checks take the
involution as an exact LatticeIsometry of the frame's dimension, as the
sampler does, and read its float view.

The sampler reads its eigenlattices' `SublatticeBasis.split_directions`,
the one eigendecomposition each keeps, which the period labels also read.
"""

from __future__ import annotations

import numpy as np

from . import lattices
from ._record import Record
from .errors import GeometryError, InputError, _finite, _within

DEFAULT_TOL = 1e-10


def _holds(x, kind) -> bool:
    """True if a nested list of numbers, as JSON decodes it, or an array
    has an entry of `kind` (numpy would read a boolean as 0 or 1 and parse a
    numeric string)."""
    if isinstance(x, np.ndarray) and x.dtype != object:
        return issubclass(x.dtype.type, kind)
    if isinstance(x, (list, tuple, np.ndarray)):
        return any(_holds(e, kind) for e in x)
    return isinstance(x, kind)


class HKFrame(Record, eq=False):
    """An orthogonal triple of ambient vectors with self-pairing 2.

    `form` is the ambient Gram matrix, `gammas` the 3 x n array whose rows
    are (gamma_I, gamma_J, gamma_K).
    """

    form: np.ndarray
    gammas: np.ndarray

    def __init__(self, form, gammas):
        try:
            g = np.asarray(form, dtype=float)
            v = np.asarray(gammas, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError("frame entries must be numbers (%s)" % exc) from None
        for kind, name in (((bool, np.bool_), "booleans"), (str, "strings")):
            if _holds(form, kind) or _holds(gammas, kind):
                raise InputError("frame entries must be numbers, not %s" % name)
        if not (np.isfinite(g).all() and np.isfinite(v).all()):
            raise InputError("frame entries must be finite")
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InputError("ambient form must be square")
        if not _within(float(np.max(np.abs(g - g.T), initial=0.0)), DEFAULT_TOL):
            raise InputError("ambient form must be symmetric")
        if v.shape != (3, g.shape[0]):
            raise InputError(
                "frame needs 3 vectors of ambient dimension %d" % g.shape[0]
            )
        with np.errstate(over="ignore", invalid="ignore"):
            pairing = v @ g @ v.T
        if not np.isfinite(pairing).all():
            raise InputError("frame pairing overflows the float range")
        dev = float(np.max(np.abs(pairing - 2.0 * np.eye(3)), initial=0.0))
        if not _within(dev, DEFAULT_TOL):
            raise GeometryError(
                "frame pairing is not 2*identity (max deviation %.3e)" % dev
            )
        super().__init__(lattices._float_view(g), lattices._float_view(v))


def is_compatible(frame: HKFrame, invol, tol: float = DEFAULT_TOL) -> bool:
    """True iff the involution, a LatticeIsometry of the frame's dimension,
    fixes gamma_I and negates gamma_J, gamma_K."""
    lattices.LatticeIsometry._require(invol, "involution")
    HKFrame._require(frame, "frame")
    if invol.lattice.rank != frame.form.shape[0]:
        raise InputError(
            "isometry of rank %d on a frame of dimension %d"
            % (invol.lattice.rank, frame.form.shape[0])
        )
    moved = frame.gammas @ invol.float_matrix.T
    target = np.vstack([frame.gammas[0], -frame.gammas[1], -frame.gammas[2]])
    return _within(
        float(np.max(np.abs(moved - target))), tol, float(np.max(np.abs(target)))
    )


def _require_compatible(frame: HKFrame, invol, tol: float) -> None:
    """Raise GeometryError unless is_compatible(frame, invol, tol)."""
    if not is_compatible(frame, invol, tol):
        raise GeometryError(
            "frame is not compatible with the involution (sign pattern"
            " (+1, -1, -1) fails)"
        )


def compatible_frames(frame: HKFrame, invol, branch: int, psi: float) -> HKFrame:
    """The family of frames compatible with the involution, parametrized by
    a branch sign and an angle.

    branch +1: ( gamma_I, cos psi J - sin psi K, sin psi J + cos psi K)
    branch -1: (-gamma_I, cos psi J + sin psi K, sin psi J - cos psi K)
    """
    if _finite(branch, "branch") not in (1, -1):
        raise InputError("branch must be +1 or -1")
    psi = _finite(psi, "psi")
    _require_compatible(frame, invol, DEFAULT_TOL)
    c, s = np.cos(psi), np.sin(psi)
    gi, gj, gk = frame.gammas
    if branch == 1:
        new = np.vstack([gi, c * gj - s * gk, s * gj + c * gk])
    else:
        new = np.vstack([-gi, c * gj + s * gk, s * gj - c * gk])
    return HKFrame(frame.form, new)


def _norm(v, g, sign: int, what: str) -> float:
    """The norm v^T g v, which must have the given sign: it is the
    radicand of a square root below, and the float split of an involution
    with huge entries can flip it."""
    q = float(v @ g @ v)
    if not sign * q > 0.0:
        raise GeometryError(
            "frame sampling: %s has norm %.3e, expected %s"
            % (what, q, "positive" if sign > 0 else "negative")
        )
    return q


def random_compatible_frame(invol, rng) -> HKFrame:
    """Sample a frame compatible with an integer involution: a positive
    invariant vector for gamma_I and an oriented positive 2-plane in the
    anti-invariant part for (gamma_J, gamma_K). Needs signature (1, *) on
    the invariant part and (2, *) on the anti-invariant part.

    Positive vectors are built directly as unit positive directions plus a
    bounded negative admixture, so no rejection loop is needed even though
    the positive cone is thin in these signatures.
    """
    lattices.LatticeIsometry._require(invol, "involution")
    g = invol.lattice.float_gram
    plus = lattices.eigenlattice(invol, +1)
    minus = lattices.eigenlattice(invol, -1)
    if plus.rank == 0 or minus.rank == 0:
        raise GeometryError("involution has a trivial eigenlattice")

    def _unit_neg(neg):
        u = neg @ rng.standard_normal(neg.shape[1])
        return u / np.sqrt(-_norm(u, g, -1, "negative admixture"))

    pos_p, neg_p, _ = plus.split_directions
    pos_m, neg_m, _ = minus.split_directions
    for pos, want_pos in ((pos_p, 1), (pos_m, 2)):
        if pos.shape[1] != want_pos:
            raise GeometryError(
                "eigenspace has %d positive directions, expected %d"
                % (pos.shape[1], want_pos)
            )
    alpha = rng.uniform(0.0, 0.8)
    x = (-1.0, 1.0)[int(rng.integers(2))] * pos_p[:, 0] + alpha * _unit_neg(neg_p)
    gi = x * np.sqrt(2.0 / _norm(x, g, 1, "invariant direction"))

    phi = rng.uniform(0.0, 2.0 * np.pi)
    p1 = np.cos(phi) * pos_m[:, 0] + np.sin(phi) * pos_m[:, 1]
    p2 = -np.sin(phi) * pos_m[:, 0] + np.cos(phi) * pos_m[:, 1]
    a, b = rng.uniform(0.0, 0.6, size=2)
    y1 = p1 + a * _unit_neg(neg_m)
    y2 = p2 + b * _unit_neg(neg_m)
    gj = y1 * np.sqrt(2.0 / _norm(y1, g, 1, "anti-invariant direction"))
    # its norm is 1 - b^2 - (a b <u1, u2>)^2 / (1 - a^2) >= 1 - b^2 / (1 - a^2)
    # > 0.43 for unit negative admixtures u1, u2 and a, b < 0.6
    y2p = y2 - (float(y2 @ g @ gj) / 2.0) * gj
    gk = y2p * np.sqrt(2.0 / _norm(y2p, g, 1, "anti-invariant plane"))
    return HKFrame(g, np.vstack([gi, gj, gk]))
