"""Closed-form spectral models used for validation and as CLI builtins.

Two geometries, both under the half-Laplacian convention (so the leading
heat coefficient is Vol / (2 pi)^(n/2)):

  * the round sphere of radius r, eigenvalues l(l+1)/(2 r^2) with
    multiplicity 2l+1, optionally carrying the antipodal involution
    (a free involution; parity of l decides the eigenspace);
  * flat tori R^n / 2 pi L with Gram matrix Q of L, eigenvalues
    (1/2) m^T Q^{-1} m over the dual lattice, grouped by the exact integer
    key m^T adj(Q) m = 2 det(Q) lambda, optionally twisted by a
    half-period translation character in {0,1}^n.

The torus box is symmetric under m -> -m, which keeps key and character
sign, so only its half after the origin is walked, with numpy in blocks
of whole rows of about _BLOCK points, and every count is doubled. Each
(key, sign) is coded as the integer 2 key + sign, and the codes of the
whole walk are counted in one pass: np.bincount when the table is within
a small multiple of the points walked, np.unique otherwise. The keys are
exact integers: int64 when twice n^2 max|adj(Q)| max|m|^2, plus one,
stays below 2^63, Python ints in an object array otherwise, through the
same statements. Each eigenvalue is the Python-int quotient
key / (2 det Q), so it is correctly rounded.

Sphere tails come from a constant table of the nine exact Laurent
coefficients of the trace; torus tails are the single Weyl term, the
remainder being exponentially small.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, InputError, _count, _finite, _positive
from .intlinalg import det_bareiss, is_symmetric, rational_inertia, to_int_matrix
from .spectral import CurveComponent, EquivariantSpectrum, HeatTail

DEFAULT_SPHERE_LMAX = 250
DEFAULT_TORUS_CUTOFF = 1000.0
_MAX_LATTICE_BOX = 2_000_000
_BLOCK = 1 << 16  # box points per numpy block of the torus enumeration

# Laurent coefficients (a_{-1}, a_0, ..., a_7) of the unit-sphere trace
# sum_l (2l+1) exp(-l(l+1) u) = sum_j a_j u^j as u -> 0, each as an exact
# (numerator, denominator) pair in lowest terms; tests/oracles.py derives
# them from Bernoulli numbers. n / d of two ints is the correctly rounded
# float of the fraction.
SPHERE_HEAT_COEFFICIENTS = (
    (1, 1),
    (1, 3),
    (1, 15),
    (4, 315),
    (1, 315),
    (4, 3465),
    (382, 675675),
    (232, 675675),
    (2833, 11486475),
)


def _sphere_tail(two_r2: float, with_twisted: bool) -> HeatTail:
    a = [n / d for n, d in SPHERE_HEAT_COEFFICIENTS]
    straight = [0.0] * (2 * len(a) - 1)
    straight[0] = a[0] * two_r2
    for j, a_j in enumerate(a[1:]):
        straight[2 * j + 2] = a_j / two_r2**j
    twisted = tuple(straight) if with_twisted else None
    return HeatTail(2, tuple(straight), twisted)


def round_sphere_spectrum(
    radius: float = 1.0,
    antipodal: bool = True,
    l_max: int = DEFAULT_SPHERE_LMAX,
) -> EquivariantSpectrum:
    """Sphere spectrum up to angular momentum l_max.

    With the antipodal involution the l-th eigenspace lies entirely in the
    (-1)^l eigenspace; without it everything is invariant and the twisted
    trace equals the straight one.
    """
    r = _positive(radius, "radius")
    if _finite(l_max, "l_max") < 2:
        raise InputError("l_max must be at least 2")
    l_max = _count(l_max, "l_max")
    if l_max > _MAX_LATTICE_BOX:
        raise AccuracyError(
            "sphere spectrum needs %d entries; lower l_max" % l_max, achievable=None
        )
    two_r2 = 2.0 * r * r
    try:
        tail = _sphere_tail(two_r2, not antipodal)
    except (ZeroDivisionError, OverflowError, InputError):
        raise InputError("radius %r puts (2 r^2)^-j past float range" % r) from None
    l = np.arange(1, l_max + 1)
    mult = 2 * l + 1
    minus = (l % 2 == 1) & bool(antipodal)
    entries = np.column_stack(
        (l * (l + 1) / two_r2, np.where(minus, 0, mult), np.where(minus, mult, 0))
    )
    cutoff = (l_max + 1) * (l_max + 2) / two_r2
    return EquivariantSpectrum(entries, (1, 0), tail, cutoff)


def round_sphere_curve(
    radius: float = 1.0, l_max: int = DEFAULT_SPHERE_LMAX
) -> CurveComponent:
    """The sphere as a fixed-curve component: volume 4 pi r^2 and its
    spectrum without the deck action."""
    spectrum = round_sphere_spectrum(radius, antipodal=False, l_max=l_max)
    return CurveComponent(4.0 * math.pi * float(radius) ** 2, spectrum)


def _key_counts(adj, eps, bounds, top):
    """(keys, counts): the ascending distinct keys = m^T adj m in (0, top]
    of the points m of the box |m_i| <= bounds[i], and their (m_plus,
    m_minus) counts by the sign eps.m mod 2 (m_plus for even).

    m and -m share key and sign, so only one of each pair is walked and
    every count is doubled: the points with m_0 > 0, and those with m_0 = 0
    whose rest r = (m_1, ...) comes after the origin of the rest's box in
    C order. The coordinate of largest extent leads, which keeps the rest's
    box small. As key = a m_0^2 + 2 m_0 (l . r) + r^T A r, the rest's terms
    are computed once and each block of rows m_0 is a broadcast. Each
    (key, sign) is coded as 2 key + sign and the codes are counted in one
    pass.
    """
    n = len(adj)
    # |key| and every partial sum of it stay within reach
    reach = n * n * max(abs(a) for row in adj for a in row) * max(bounds) ** 2
    dtype = np.int64 if 2 * reach + 1 < 2**63 else object
    # no key passes reach; the clamp keeps the codes inside the int64 range
    top = min(top, reach)
    order = sorted(range(n), key=lambda i: -bounds[i])
    adj_a = np.array([[adj[i][j] for j in order] for i in order], dtype=dtype)
    eps_a = np.array([eps[i] for i in order], dtype=dtype)
    b = [bounds[i] for i in order]
    shape = tuple(2 * x + 1 for x in b[1:])
    width = math.prod(shape)
    low = np.array(b[1:], dtype=dtype).reshape(n - 1, 1)
    rest = np.indices(shape).reshape(n - 1, width).astype(dtype) - low
    quad = (rest * (adj_a[1:, 1:] @ rest)).sum(axis=0)
    lin = 2 * (adj_a[0, 1:] @ rest)
    parity = eps_a[1:] @ rest
    # m_0 = 0 with the rest after its origin, then blocks of rows m_0 > 0
    rows = max(1, _BLOCK // width)
    blocks = [(np.zeros((1, 1), dtype=dtype), slice(width // 2 + 1, None))]
    for first in range(1, b[0] + 1, rows):
        m0 = np.arange(first, min(first + rows, b[0] + 1)).astype(dtype)
        blocks.append((m0.reshape(-1, 1), slice(None)))
    codes = []
    for m0, part in blocks:
        key = adj_a[0, 0] * m0 * m0 + m0 * lin[part] + quad[part]
        code = 2 * key + ((eps_a[0] * m0 + parity[part]) & 1)
        codes.append(code[key <= top])
    codes = np.concatenate(codes)
    walked = b[0] * width + width // 2
    if dtype is np.int64 and 2 * top + 2 <= 4 * walked:
        # a count table within a small multiple of the points walked
        table = np.bincount(codes, minlength=2 * top + 2).reshape(-1, 2)
        keys = np.flatnonzero(table[:, 0] + table[:, 1])
        return keys, 2 * table.take(keys, axis=0)
    codes, counts = np.unique(codes, return_counts=True)
    keys = codes >> 1
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    mults = np.zeros((np.count_nonzero(new), 2), dtype=np.int64)
    mults[np.cumsum(new) - 1, (codes & 1).astype(np.intp)] = 2 * counts
    return keys[new], mults


def flat_torus_spectrum(
    gram,
    character=None,
    cutoff: float = DEFAULT_TORUS_CUTOFF,
) -> EquivariantSpectrum:
    """Complete flat-torus spectrum up to `cutoff`. Each eigenvalue
    (1/2) m^T Q^{-1} m is keyed by the integer m^T adj(Q) m = 2 det(Q) lambda,
    so equal ones never split.

    The box |m_i| <= sqrt(2 cutoff Q_ii) + 1 is enumerated by _key_counts,
    one point of each pair +-m, in int64 when 2 n^2 max|adj(Q)| max|m_i|^2
    + 1 is below 2^63 and on Python ints (dtype object) otherwise. Eigenvalues are
    divided as Python ints, key / (2 det Q), because a float division of a
    key past 2^53 would round twice; distinct keys whose quotients round to
    the same float share one entry.

    `character` in {0,1}^n twists by translation through the corresponding
    half period; the involution is free unless the character is trivial,
    in which case the twisted trace coincides with the straight one.
    """
    q = to_int_matrix(gram)
    n = len(q)
    if n == 0:
        raise InputError("gram matrix must be nonempty")
    if not is_symmetric(q):
        raise InputError("gram matrix must be symmetric")
    if rational_inertia(q) != (n, 0):
        raise InputError("gram matrix must be positive definite")
    if character is None:
        eps = (0,) * n
    else:
        try:
            eps = tuple(_count(e, "character entry") for e in character)
        except TypeError:
            eps = ()
        if len(eps) != n or max(eps) > 1:
            raise InputError("character must be a 0/1 vector of length n")
    cut = _positive(cutoff, "cutoff")

    # |m_i| <= sqrt(2 cutoff Q_ii) on the ellipsoid; pad one to be safe
    try:
        bounds = [math.isqrt(int(2.0 * cut * q[i][i])) + 1 for i in range(n)]
    except OverflowError:
        raise InputError(
            "cutoff times a gram diagonal entry passes float range"
        ) from None
    box = math.prod(2 * b + 1 for b in bounds)
    if box > _MAX_LATTICE_BOX:
        raise AccuracyError(
            "dual-lattice enumeration needs %d points; lower the cutoff" % box,
            achievable=None,
        )

    det = det_bareiss(q)
    try:
        root_det = math.sqrt(float(det))
    except OverflowError:
        raise InputError("det of the gram matrix passes float range") from None
    # adj(Q)_ij is the (j, i) cofactor
    adj = [
        [
            (-1) ** (i + j)
            * det_bareiss([r[:i] + r[i + 1 :] for k, r in enumerate(q) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    # key <= top exactly when lambda <= cut; key = 0 only at m = 0
    cut_num, cut_den = cut.as_integer_ratio()
    top = cut_num * 2 * det // cut_den
    keys, mults = _key_counts(adj, eps, bounds, top)
    if 2 * det < 2**53 and (keys.size == 0 or keys[-1] < 2**53):
        # both exact as floats, so one division rounds correctly
        lams = keys.astype(float) / float(2 * det)
    else:
        # true division of Python ints rounds correctly
        lams = np.array([k / (2 * det) for k in keys.tolist()], dtype=float)
    # keys above 2^53 can still round to one float; their counts merge
    first = np.flatnonzero(np.diff(lams, prepend=-1.0))
    if keys.size:
        mults = np.add.reduceat(mults, first)
    entries = np.column_stack((lams[first], mults))

    c0 = (2.0 * math.pi) ** (n / 2.0) * root_det
    straight = (c0,) + (0.0,) * (n + 8)
    twisted = straight if not any(eps) else None
    return EquivariantSpectrum(
        entries, (1, 0), HeatTail(n, straight, twisted), cut
    )


def flat_torus_curve(gram, cutoff: float = DEFAULT_TORUS_CUTOFF) -> CurveComponent:
    """A flat 2-torus as a fixed-curve component: volume (2 pi)^2 sqrt(det Q)
    and its spectrum under the trivial character."""
    q = to_int_matrix(gram)
    if len(q) != 2:
        raise InputError("curve components are 2-dimensional")
    spectrum = flat_torus_spectrum(q, None, cutoff)
    volume = (2.0 * math.pi) ** 2 * math.sqrt(float(det_bareiss(q)))
    return CurveComponent(volume, spectrum)


_PRESETS = {
    "s2-antipodal": lambda: round_sphere_spectrum(1.0, True),
    "t2-flat": lambda: flat_torus_spectrum([[1, 0], [0, 1]], [1, 0]),
}


def builtin_model_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def build_model_spectrum(name: str) -> EquivariantSpectrum:
    """Build the spectrum of a preset model by name."""
    try:
        build = _PRESETS[name]
    except (KeyError, TypeError):
        raise InputError(
            "unknown builtin model %r (available: %s)"
            % (name, ", ".join(builtin_model_names()))
        ) from None
    return build()
