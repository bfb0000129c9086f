"""Hyper-Kahler frames: orthogonal triples with pairing 2 in an indefinite
ambient, the SO(3) torsor acting on them, and involution compatibility.

A frame is a triple (gamma_I, gamma_J, gamma_K) of ambient vectors with
<gamma_a, gamma_b> = 2 delta_ab; the span is then a positive 3-space. SO(3)
rotates frames simply transitively over a fixed 3-space, and an ambient
involution restricts to a symmetric orthogonal 3x3 matrix on the span whose
admissible eigenvalue pattern is (+1, -1, -1).

All checks use one absolute tolerance, DEFAULT_TOL, with two exceptions:
is_compatible takes the tolerance of the period computation that calls it,
and involution_eigenframe checks its eigenvector rotation at 1e-8.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import lattices
from .errors import GeometryError, InputError

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


@dataclass(frozen=True, eq=False)
class HKFrame:
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


@dataclass(frozen=True, eq=False)
class RotationSO3:
    """A 3x3 special orthogonal matrix acting on frames from the left."""

    matrix: np.ndarray

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        a = np.asarray(matrix, dtype=float)
        if a.shape != (3, 3):
            raise InputError("rotation must be 3x3")
        if float(np.max(np.abs(a.T @ a - np.eye(3)))) > tol:
            raise InputError("rotation is not orthogonal")
        if abs(float(np.linalg.det(a)) - 1.0) > tol:
            raise InputError("rotation has determinant != +1")
        object.__setattr__(self, "matrix", _readonly(a))

    def compose(self, other: "RotationSO3") -> "RotationSO3":
        return RotationSO3(self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class FlatModel:
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


def check_antiholomorphic_sign(metric, s) -> dict:
    """Check that pulling back the flat model's J-form by the involution s
    flips its sign, entrywise.

    s must be an involutive isometry of `metric` that anticommutes with the
    flat J; the identity map, for instance, is rejected. Returns a report
    with the entrywise deviation of s^T (m J) s + (s^T m s) J.
    """
    m = np.asarray(metric, dtype=float)
    sm = np.asarray(s, dtype=float)
    if m.shape != (4, 4) or sm.shape != (4, 4):
        raise InputError("the flat model check lives on R^4")
    if float(np.max(np.abs(sm.T @ m @ sm - m))) > DEFAULT_TOL:
        raise InputError("s is not an isometry of the metric")
    if float(np.max(np.abs(sm @ sm - np.eye(4)))) > DEFAULT_TOL:
        raise InputError("s is not an involution")
    j = standard_flat_model().J.astype(float)
    if float(np.max(np.abs(sm @ j + j @ sm))) > DEFAULT_TOL:
        raise InputError("s does not anticommute with the complex structure")
    pullback = sm.T @ two_form_of(m, j) @ sm
    target = -two_form_of(sm.T @ m @ sm, j)
    dev = float(np.max(np.abs(pullback - target)))
    return {"max_deviation": dev, "sign_flipped": dev <= DEFAULT_TOL}


def rotate_frame(frame: HKFrame, rot: RotationSO3) -> HKFrame:
    """Left action: gamma'_a = sum_b A_ab gamma_b."""
    return HKFrame(frame.form, rot.matrix @ frame.gammas)


def recover_rotation(a: HKFrame, b: HKFrame) -> RotationSO3:
    """The unique rotation with rotate_frame(a, A) = b, if the frames span
    the same 3-space; A_ab = <gamma'_a, gamma_b> / 2."""
    mat = (b.gammas @ a.form @ a.gammas.T) / 2.0
    try:
        rot = RotationSO3(mat)
    except InputError as exc:
        raise GeometryError("frames do not span the same 3-space (%s)" % exc) from exc
    residual = float(np.max(np.abs(rot.matrix @ a.gammas - b.gammas)))
    if residual > max(DEFAULT_TOL, 1e-9 * float(np.max(np.abs(b.gammas)))):
        raise GeometryError(
            "frames are not related by a rotation (residual %.3e)" % residual
        )
    return rot


def unit_sphere_structure(frame: HKFrame, coeffs) -> np.ndarray:
    """Two-form class of the complex structure a I + b J + c K, requiring
    a^2 + b^2 + c^2 = 1."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (3,):
        raise InputError("need exactly three sphere coefficients")
    if abs(float(c @ c) - 1.0) > DEFAULT_TOL:
        raise InputError("coefficients are off the unit sphere")
    return c @ frame.gammas


def restricted_action(frame: HKFrame, invol) -> np.ndarray:
    """The symmetric 3x3 matrix of the involution on the frame's 3-space,
    R_ab with T gamma_a = sum_b R_ab gamma_b. Raises GeometryError when the
    involution does not preserve the span."""
    t = _as_matrix(invol)
    moved = frame.gammas @ t.T
    r = (moved @ frame.form @ frame.gammas.T) / 2.0
    residual = float(np.max(np.abs(r @ frame.gammas - moved)))
    if residual > max(DEFAULT_TOL, 1e-9 * float(np.max(np.abs(moved)))):
        raise GeometryError(
            "involution does not preserve the frame 3-space (residual %.3e)"
            % residual
        )
    if float(np.max(np.abs(r - r.T))) > DEFAULT_TOL:
        raise GeometryError("restricted action is not symmetric")
    return r


def involution_eigenframe(
    frame: HKFrame, invol
) -> tuple[HKFrame, tuple[int, int, int]]:
    """Rotate the frame so the involution acts diagonally with signs
    (+1, -1, -1); any other eigenvalue pattern is a geometry error."""
    r = restricted_action(frame, invol)
    if float(np.max(np.abs(r @ r - np.eye(3)))) > 1e2 * DEFAULT_TOL:
        raise GeometryError("restricted action is not an involution")
    if abs(float(np.trace(r)) + 1.0) > 1e2 * DEFAULT_TOL:
        raise GeometryError(
            "involution eigenvalues on the frame 3-space are not (+1, -1, -1)"
            " (trace %.6f)" % float(np.trace(r))
        )
    w, v = np.linalg.eigh(r)
    # ascending eigenvalues, so columns are (-1, -1, +1)-eigenvectors
    plus = v[:, 2]
    if plus[np.argmax(np.abs(plus))] < 0:
        plus = -plus
    m1, m2 = v[:, 0], v[:, 1]
    b = np.vstack([plus, m1, m2])
    if float(np.linalg.det(b)) < 0:
        b[2] = -b[2]
    rot = RotationSO3(b, tol=1e-8)
    return rotate_frame(frame, rot), (1, -1, -1)


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
    if branch not in (1, -1):
        raise InputError("branch must be +1 or -1")
    if not is_compatible(frame, invol):
        raise GeometryError(
            "frame is not compatible with the involution (sign pattern"
            " (+1, -1, -1) fails)"
        )
    return compatible_frames_unchecked(frame, branch, psi)


def recover_compatible_parameters(
    base: HKFrame, other: HKFrame
) -> tuple[int, float, float]:
    """Invert compatible_frames: find (branch, psi) taking `base` to
    `other`, returning the reconstruction residual as well."""
    c = (other.gammas @ base.form @ base.gammas.T) / 2.0
    branch = 1 if c[0, 0] > 0 else -1
    if branch == 1:
        psi = float(np.arctan2(-c[1, 2], c[1, 1]))
    else:
        psi = float(np.arctan2(c[1, 2], c[1, 1]))
    rebuilt = compatible_frames_unchecked(base, branch, psi)
    residual = float(np.max(np.abs(rebuilt.gammas - other.gammas)))
    if residual > 1e-6:
        raise GeometryError(
            "frame is not in the compatible family (residual %.3e)" % residual
        )
    return branch, psi, residual


def compatible_frames_unchecked(frame: HKFrame, branch: int, psi: float) -> HKFrame:
    """compatible_frames without the involution compatibility precondition;
    used when the caller already knows the base frame is compatible."""
    c, s = np.cos(psi), np.sin(psi)
    gi, gj, gk = frame.gammas
    if branch == 1:
        new = np.vstack([gi, c * gj - s * gk, s * gj + c * gk])
    else:
        new = np.vstack([-gi, c * gj + s * gk, s * gj - c * gk])
    return HKFrame(frame.form, new)


def random_rotation(rng) -> RotationSO3:
    """Haar-ish random rotation from a QR decomposition."""
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return RotationSO3(q)


def seed_compatible_frame() -> HKFrame:
    """A fixed frame on the standard K3 ambient compatible with the block
    involution from lattices.enriques_involution: gamma_I spans a positive
    invariant direction in the first two hyperbolic planes, gamma_J its
    anti-invariant partner, gamma_K a positive vector of the negated plane."""
    g = lattices.build_standard_lattice("K3").float_gram
    n = g.shape[0]
    gi = np.zeros(n)
    gi[[0, 1, 2, 3]] = 1.0
    gj = np.zeros(n)
    gj[[0, 1]] = 1.0
    gj[[2, 3]] = -1.0
    gk = np.zeros(n)
    gk[[4, 5]] = 1.0
    return HKFrame(g, np.vstack([gi / np.sqrt(2.0), gj / np.sqrt(2.0), gk]))


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
        q = float(u @ g @ u)
        return u / np.sqrt(-q)

    pos_p, neg_p = _split_directions(plus, want_pos=1)
    alpha = rng.uniform(0.0, 0.8)
    x = float(rng.choice([-1.0, 1.0])) * pos_p[:, 0] + alpha * _unit_neg(neg_p)
    gi = x * np.sqrt(2.0 / float(x @ g @ x))

    pos_m, neg_m = _split_directions(minus, want_pos=2)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    p1 = np.cos(phi) * pos_m[:, 0] + np.sin(phi) * pos_m[:, 1]
    p2 = -np.sin(phi) * pos_m[:, 0] + np.cos(phi) * pos_m[:, 1]
    a, b = rng.uniform(0.0, 0.6, size=2)
    y1 = p1 + a * _unit_neg(neg_m)
    y2 = p2 + b * _unit_neg(neg_m)
    gj = y1 * np.sqrt(2.0 / float(y1 @ g @ y1))
    y2p = y2 - (float(y2 @ g @ gj) / 2.0) * gj
    q = float(y2p @ g @ y2p)
    if q <= 0.0:
        # the two negative admixtures can conspire; fall back to the pure plane
        y2p = p2
        q = float(y2p @ g @ y2p)
    gk = y2p * np.sqrt(2.0 / q)
    return HKFrame(g, np.vstack([gi, gj, gk]))
