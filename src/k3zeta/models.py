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

The torus box is walked with numpy in fixed blocks of _BLOCK points; each
block's keys are counted per character sign with np.unique, and the
counts merge once at the end. The keys are exact integers: int64 when
n^2 max|adj(Q)| max|m|^2 bounds them below 2^63, Python ints in an object
array otherwise, through the same statements. Each eigenvalue is the
Python-int quotient key / (2 det Q), so it is correctly rounded.

Sphere tails come from the exact Laurent expansion of the trace; torus
tails are the single Weyl term, the remainder being exponentially small.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, InputError
from .intlinalg import det_bareiss, is_symmetric, rational_inertia, to_int_matrix
from .spectral import CurveComponent, EquivariantSpectrum, HeatTail

DEFAULT_SPHERE_LMAX = 250
DEFAULT_TORUS_CUTOFF = 1000.0
_SPHERE_TAIL_TERMS = 8
_MAX_LATTICE_BOX = 2_000_000
_BLOCK = 1 << 16  # box points per numpy block of the torus enumeration


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * _bernoulli(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def sphere_heat_coefficients(terms: int) -> tuple[Fraction, ...]:
    """Exact Laurent coefficients (a_{-1}, a_0, ..., a_{terms-1}) of the
    unit-sphere trace sum_l (2l+1) exp(-l(l+1) u) as u -> 0.

    Writing the sum as exp(u/4) M(u) with
    M(u) = 1/u + sum_k mu_k u^{k-1},
    mu_k = (1 - 2^{1-2k}) B_{2k} (-1)^{k-1} / (k (k-1)!),
    the a_j are the Cauchy products of the two series. The first few are
    1, 1/3, 1/15, 4/315.
    """
    if terms < 1:
        raise InputError("need at least one tail term")
    # m_i: coefficient of u^i in M, i = -1 .. terms-1
    m = {-1: Fraction(1)}
    for k in range(1, terms + 1):
        m[k - 1] = (
            (1 - Fraction(2) ** (1 - 2 * k))
            * _bernoulli(2 * k)
            * (-1) ** (k - 1)
            / (k * math.factorial(k - 1))
        )
    out = []
    for j in range(-1, terms):
        a_j = Fraction(0)
        for i in range(-1, j + 1):
            p = j - i
            a_j += m[i] * Fraction(1, 4) ** p / math.factorial(p)
        out.append(a_j)
    return tuple(out)


def _sphere_tail(two_r2: float, with_twisted: bool) -> HeatTail:
    a = sphere_heat_coefficients(_SPHERE_TAIL_TERMS)
    straight = [0.0] * (2 * _SPHERE_TAIL_TERMS + 1)
    straight[0] = float(a[0]) * two_r2
    for j in range(_SPHERE_TAIL_TERMS):
        straight[2 * j + 2] = float(a[j + 1]) / two_r2**j
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
    r = float(radius)
    if r <= 0.0:
        raise InputError("radius must be positive")
    l_max = int(l_max)
    if l_max < 2:
        raise InputError("l_max must be at least 2")
    two_r2 = 2.0 * r * r
    entries = []
    for l in range(1, l_max + 1):
        lam = l * (l + 1) / two_r2
        mult = 2 * l + 1
        if antipodal and l % 2 == 1:
            entries.append((lam, 0, mult))
        else:
            entries.append((lam, mult, 0))
    cutoff = (l_max + 1) * (l_max + 2) / two_r2
    return EquivariantSpectrum(
        entries, (1, 0), _sphere_tail(two_r2, not antipodal), cutoff
    )


def round_sphere_curve(
    radius: float = 1.0, l_max: int = DEFAULT_SPHERE_LMAX
) -> CurveComponent:
    """The sphere as a fixed-curve component: volume 4 pi r^2 and its
    spectrum without the deck action."""
    spectrum = round_sphere_spectrum(radius, antipodal=False, l_max=l_max)
    return CurveComponent(4.0 * math.pi * float(radius) ** 2, spectrum)


def _key_counts(adj, eps, bounds, top) -> list[tuple[int, int, int]]:
    """(key, m_plus, m_minus) in ascending key order: the points m of the
    box |m_i| <= bounds[i] with key = m^T adj m in (0, top], counted by the
    sign eps.m mod 2 (m_plus for even)."""
    n = len(adj)
    # |adj @ m| and |key| both stay within reach
    reach = n * n * max(abs(a) for row in adj for a in row) * max(bounds) ** 2
    dtype = np.int64 if reach < 2**63 else object
    # no key passes reach; the clamp keeps top inside the int64 range
    top = min(top, reach)
    adj_a = np.array(adj, dtype=dtype)
    eps_a = np.array(eps, dtype=dtype)
    low = np.array(bounds, dtype=dtype).reshape(n, 1)
    shape = tuple(2 * b + 1 for b in bounds)
    box = math.prod(shape)
    # distinct keys of each block and sign, their counts, and that sign
    keys, counts, signs = [], [], []
    for start in range(0, box, _BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _BLOCK, box)), shape)
        m = np.array(index, dtype=dtype) - low
        key = (m * (adj_a @ m)).sum(axis=0)
        inside = (key > 0) & (key <= top)
        m, key = m[:, inside], key[inside]
        sign = (eps_a @ (m % 2)) % 2
        for s in (0, 1):
            k, c = np.unique(key[sign == s], return_counts=True)
            keys.append(k)
            counts.append(c)
            signs.append(np.full(len(k), s))
    keys, where = np.unique(np.concatenate(keys), return_inverse=True)
    mults = np.zeros((len(keys), 2), dtype=np.int64)
    np.add.at(mults, (where, np.concatenate(signs)), np.concatenate(counts))
    return [(k, mp, mm) for k, (mp, mm) in zip(keys.tolist(), mults.tolist())]


def flat_torus_spectrum(
    gram,
    character=None,
    cutoff: float = DEFAULT_TORUS_CUTOFF,
) -> EquivariantSpectrum:
    """Complete flat-torus spectrum up to `cutoff`. Each eigenvalue
    (1/2) m^T Q^{-1} m is keyed by the integer m^T adj(Q) m = 2 det(Q) lambda,
    so equal ones never split.

    The box |m_i| <= sqrt(2 cutoff Q_ii) + 1 is enumerated with numpy in
    blocks of _BLOCK points, in int64 when n^2 max|adj(Q)| max|m_i|^2 is
    below 2^63 and on Python ints (dtype object) otherwise. Eigenvalues are
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
        eps = tuple(int(e) for e in character)
        if len(eps) != n or any(e not in (0, 1) for e in eps):
            raise InputError("character must be a 0/1 vector of length n")
    cut = float(cutoff)
    if not math.isfinite(cut) or cut <= 0.0:
        raise InputError("cutoff must be positive and finite")

    # |m_i| <= sqrt(2 cutoff Q_ii) on the ellipsoid; pad one to be safe
    bounds = [math.isqrt(int(2.0 * cut * q[i][i])) + 1 for i in range(n)]
    box = math.prod(2 * b + 1 for b in bounds)
    if box > _MAX_LATTICE_BOX:
        raise AccuracyError(
            "dual-lattice enumeration needs %d points; lower the cutoff" % box,
            achievable=None,
        )

    det = det_bareiss(q)
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
    cut_frac = Fraction(cut)
    top = cut_frac.numerator * 2 * det // cut_frac.denominator
    entries = []
    for key, mp, mm in _key_counts(adj, eps, bounds, top):
        # true division of Python ints rounds correctly; keys above 2^53
        # can still round to one float, and then their counts merge
        lam = key / (2 * det)
        if entries and entries[-1][0] == lam:
            entries[-1] = (lam, entries[-1][1] + mp, entries[-1][2] + mm)
        else:
            entries.append((lam, mp, mm))

    c0 = (2.0 * math.pi) ** (n / 2.0) * math.sqrt(float(det))
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
    "s2-antipodal": {"model": "round_sphere", "radius": 1.0, "antipodal": True},
    "t2-flat": {
        "model": "flat_torus",
        "gram": [[1, 0], [0, 1]],
        "character": [1, 0],
    },
}


def builtin_model_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def build_model_spectrum(descriptor) -> EquivariantSpectrum:
    """Build a spectrum from a preset name or a descriptor dict with a
    `model` key (`round_sphere` or `flat_torus`) plus that model's
    parameters."""
    if isinstance(descriptor, str):
        try:
            descriptor = _PRESETS[descriptor]
        except KeyError:
            raise InputError(
                "unknown builtin model %r (available: %s)"
                % (descriptor, ", ".join(builtin_model_names()))
            ) from None
    if not isinstance(descriptor, dict):
        raise InputError("model descriptor must be a name or a dict")
    kind = descriptor.get("model")
    if kind == "round_sphere":
        return round_sphere_spectrum(
            descriptor.get("radius", 1.0),
            bool(descriptor.get("antipodal", True)),
            int(descriptor.get("l_max", DEFAULT_SPHERE_LMAX)),
        )
    if kind == "flat_torus":
        if "gram" not in descriptor:
            raise InputError("flat_torus model needs a gram matrix")
        return flat_torus_spectrum(
            descriptor["gram"],
            descriptor.get("character"),
            float(descriptor.get("cutoff", DEFAULT_TORUS_CUTOFF)),
        )
    raise InputError("model must be 'round_sphere' or 'flat_torus'")
