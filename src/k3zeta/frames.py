"""Hyper-Kahler frames: orthogonal triples with pairing 2 in an indefinite
ambient, and their compatibility with an involution.

A frame is a triple (gamma_I, gamma_J, gamma_K) of ambient vectors with
<gamma_a, gamma_b> = 2 delta_ab; the span is then a positive 3-space. It is
compatible with an involution that fixes gamma_I and negates gamma_J and
gamma_K, and such frames come in a one-parameter family per branch.

All checks use one absolute tolerance, DEFAULT_TOL, except is_compatible,
which takes the tolerance of the period computation that calls it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import lattices
from ._record import Record
from .errors import GeometryError, InputError, _finite

DEFAULT_TOL = 1e-10


def _as_matrix(obj) -> np.ndarray:
    if isinstance(obj, lattices.LatticeIsometry):
        return obj.float_matrix
    m = np.asarray(obj, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("expected a square matrix, got shape %s" % (m.shape,))
    return m


def _holds(x, kind) -> bool:
    """True if a nested list of numbers, as JSON decodes it, has an entry
    of `kind` (numpy would read a boolean as 0 or 1 and parse a numeric
    string)."""
    if isinstance(x, (list, tuple)):
        return any(_holds(e, kind) for e in x)
    return isinstance(x, kind)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


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
        for kind, name in ((bool, "booleans"), (str, "strings")):
            if _holds(form, kind) or _holds(gammas, kind):
                raise InputError("frame entries must be numbers, not %s" % name)
        if not (np.isfinite(g).all() and np.isfinite(v).all()):
            raise InputError("frame entries must be finite")
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InputError("ambient form must be square")
        if not np.all(np.abs(g - g.T) <= DEFAULT_TOL):
            raise InputError("ambient form must be symmetric")
        if v.shape != (3, g.shape[0]):
            raise InputError(
                "frame needs 3 vectors of ambient dimension %d" % g.shape[0]
            )
        with np.errstate(over="ignore", invalid="ignore"):
            pairing = v @ g @ v.T
        if not np.isfinite(pairing).all():
            raise InputError("frame pairing overflows the float range")
        dev = float(np.max(np.abs(pairing - 2.0 * np.eye(3))))
        if dev > DEFAULT_TOL:
            raise GeometryError(
                "frame pairing is not 2*identity (max deviation %.3e)" % dev
            )
        object.__setattr__(self, "form", _readonly(g))
        object.__setattr__(self, "gammas", _readonly(v))


class FlatModel(Record, eq=False):
    """The flat quaternion model on R^4 (basis 1, i, j, k): integer complex
    structures I, J, K with IJ = -JI = K, and the Euclidean metric."""

    metric: np.ndarray
    I: np.ndarray
    J: np.ndarray
    K: np.ndarray


def standard_flat_model() -> FlatModel:
    i = np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=int
    )
    j = np.array(
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=int
    )
    k = np.array(
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=int
    )
    return FlatModel(metric=np.eye(4, dtype=int), I=i, J=j, K=k)


def two_form_of(metric, structure) -> np.ndarray:
    """Matrix of the fundamental two-form attached to a complex structure.

    Integer inputs stay integer, so the quaternion identities of the flat
    model can be checked exactly.
    """
    m = np.asarray(metric)
    s = np.asarray(structure)
    if m.shape != s.shape or m.ndim != 2:
        raise InputError("metric and structure must be square of equal size")
    return m @ s


def is_compatible(frame: HKFrame, invol, tol: float = DEFAULT_TOL) -> bool:
    """True iff the involution fixes gamma_I and negates gamma_J, gamma_K."""
    t = _as_matrix(invol)
    moved = frame.gammas @ t.T
    target = np.vstack([frame.gammas[0], -frame.gammas[1], -frame.gammas[2]])
    return float(np.max(np.abs(moved - target))) <= max(
        tol, 1e-9 * float(np.max(np.abs(target)))
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
    if not is_compatible(frame, invol):
        raise GeometryError(
            "frame is not compatible with the involution (sign pattern"
            " (+1, -1, -1) fails)"
        )
    c, s = np.cos(psi), np.sin(psi)
    gi, gj, gk = frame.gammas
    if branch == 1:
        new = np.vstack([gi, c * gj - s * gk, s * gj + c * gk])
    else:
        new = np.vstack([-gi, c * gj + s * gk, s * gj - c * gk])
    return HKFrame(frame.form, new)


@functools.lru_cache(maxsize=128)
def _split_directions(sub, want_pos: int):
    """Form-orthonormal positive and negative directions of the sublattice's
    exact induced form, as read-only arrays, computed once per sublattice;
    raises GeometryError if the positive count is wrong."""
    basis = np.asarray(sub.basis_matrix(), dtype=float)
    w, v = np.linalg.eigh(sub.induced_lattice().float_gram)
    if int(np.sum(w > 0)) != want_pos:
        raise GeometryError(
            "eigenspace has %d positive directions, expected %d"
            % (int(np.sum(w > 0)), want_pos)
        )
    pos = basis @ (v[:, -want_pos:] / np.sqrt(w[-want_pos:]))
    nneg = len(w) - want_pos
    neg = basis @ (v[:, :nneg] / np.sqrt(-w[:nneg]))
    pos.setflags(write=False)
    neg.setflags(write=False)
    return pos, neg


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
    if not isinstance(invol, lattices.LatticeIsometry):
        raise InputError("random_compatible_frame needs an exact lattice isometry")
    g = invol.lattice.float_gram
    plus = lattices.eigenlattice(invol, +1)
    minus = lattices.eigenlattice(invol, -1)
    if plus.rank == 0 or minus.rank == 0:
        raise GeometryError("involution has a trivial eigenlattice")

    def _unit_neg(neg):
        u = neg @ rng.standard_normal(neg.shape[1])
        return u / np.sqrt(-_norm(u, g, -1, "negative admixture"))

    pos_p, neg_p = _split_directions(plus, want_pos=1)
    alpha = rng.uniform(0.0, 0.8)
    x = float(rng.choice([-1.0, 1.0])) * pos_p[:, 0] + alpha * _unit_neg(neg_p)
    gi = x * np.sqrt(2.0 / _norm(x, g, 1, "invariant direction"))

    pos_m, neg_m = _split_directions(minus, want_pos=2)
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
