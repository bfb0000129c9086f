"""Even lattices, isometries, and primitive sublattices, all exact.

The ambient objects here are integer Gram matrices. Signatures come from
exact symmetric elimination in integers, determinants from fraction-free
elimination, and discriminant groups from Smith divisors, so every invariant
this module reports is exact, never floating point.

A sublattice computes its induced lattice B^T G B, a lattice its
signature, and an isometry its involution check and its two eigenlattices,
once, on first use, and keeps them on the object; every reader goes through
those values.

The float code of frames and periods reads each object's data through a
read-only float64 view (`Lattice.float_gram`, `LatticeIsometry.float_matrix`),
likewise derived once per object. The views only feed that float code:
every invariant reported here stays exact.
"""

from __future__ import annotations

import functools

import numpy as np

from . import intlinalg
from ._record import Record
from .errors import DegenerateLatticeError, InputError, _finite


def _freeze(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Rows of Python ints (as `to_int_matrix` returns them) as tuples."""
    return tuple(map(tuple, rows))


def _float_view(rows) -> np.ndarray:
    """Exact rows as a read-only, C-ordered float64 array."""
    a = np.array(rows, dtype=float, order="C")
    a.setflags(write=False)
    return a


class Lattice(Record):
    """A free Z-module with an integer symmetric bilinear form."""

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram):
        g = intlinalg.to_int_matrix(gram)
        if not intlinalg.is_symmetric(g):
            raise InputError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", _freeze(g))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @functools.cached_property
    def float_gram(self) -> np.ndarray:
        """The Gram matrix as a read-only float64 array."""
        return _float_view(self.gram)

    @functools.cached_property
    def _inertia(self) -> tuple[int, int]:
        return intlinalg.rational_inertia([list(r) for r in self.gram])

    def signature(self) -> tuple[int, int]:
        return self._inertia

    def det(self) -> int:
        return intlinalg.det_bareiss([list(r) for r in self.gram])

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


class LatticeIsometry(Record):
    """An integer matrix preserving a lattice's form, acting on columns."""

    lattice: Lattice
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, lattice: Lattice, matrix):
        m = intlinalg.to_int_matrix(matrix)
        n = lattice.rank
        if len(m) != n or any(len(r) != n for r in m):
            raise InputError("isometry matrix must be %d x %d" % (n, n))
        g = [list(r) for r in lattice.gram]
        mt = intlinalg.transpose(m)
        if intlinalg.matmul(mt, intlinalg.matmul(g, m)) != g:
            raise InputError("matrix does not preserve the bilinear form")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", _freeze(m))

    @functools.cached_property
    def float_matrix(self) -> np.ndarray:
        """The matrix as a read-only float64 array."""
        return _float_view(self.matrix)

    @functools.cached_property
    def is_involution(self) -> bool:
        m = [list(r) for r in self.matrix]
        return intlinalg.matmul(m, m) == intlinalg.identity(self.lattice.rank)

    def _kernel_of(self, sign: int) -> "SublatticeBasis":
        """Saturated basis of the kernel of f - sign * id."""
        n = self.lattice.rank
        m = [
            [self.matrix[i][j] - (sign if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        kernel = intlinalg.integer_kernel(m)
        return SublatticeBasis(self.lattice, [tuple(v) for v in kernel])

    @functools.cached_property
    def _plus(self) -> "SublatticeBasis":
        return self._kernel_of(1)

    @functools.cached_property
    def _minus(self) -> "SublatticeBasis":
        return self._kernel_of(-1)

    def trace(self) -> int:
        return sum(self.matrix[i][i] for i in range(self.lattice.rank))


class SublatticeBasis(Record):
    """A sublattice given by an explicit basis (tuple of vectors).

    Vectors are ambient coordinates; they are required to be linearly
    independent. Saturation (primitivity) is *not* required here, but every
    basis produced by this module's kernel constructions is saturated.
    """

    ambient: Lattice
    vectors: tuple[tuple[int, ...], ...]

    def __init__(self, ambient: Lattice, vectors):
        vs = intlinalg.to_int_matrix(vectors)
        n = ambient.rank
        if any(len(v) != n for v in vs):
            raise InputError("basis vectors must have ambient rank %d" % n)
        if len(intlinalg.column_hnf(vs)) != len(vs):
            raise InputError("basis vectors are linearly dependent")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "vectors", _freeze(vs))

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def basis_matrix(self) -> list[list[int]]:
        """Ambient-rank x sublattice-rank matrix whose columns are the basis."""
        return intlinalg.transpose([list(v) for v in self.vectors])

    @functools.cached_property
    def _induced(self) -> Lattice:
        b = self.basis_matrix()
        g = [list(r) for r in self.ambient.gram]
        return Lattice(intlinalg.matmul(intlinalg.matmul(intlinalg.transpose(b), g), b))

    def induced_lattice(self) -> Lattice:
        """The lattice with Gram matrix B^T G B, computed once per object."""
        return self._induced


class DiscriminantInfo(Record):
    """Invariant factors (> 1) of the discriminant group of a sublattice."""

    divisors: tuple[int, ...]
    a_invariant: int
    two_elementary: bool
    group_order: int


_BUILTIN_ALIASES = {
    "u": "U",
    "e8minus": "E8minus",
    "e8(-1)": "E8minus",
    "e8-": "E8minus",
    "k3": "K3",
}

# Bourbaki ordering: node 2 is the branch node attached to node 4.
_E8_BONDS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def _e8_minus_gram() -> list[list[int]]:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_BONDS:
        g[a - 1][b - 1] = 1
        g[b - 1][a - 1] = 1
    return g


def build_standard_lattice(name: str) -> Lattice:
    """Builtin lattices: "U" (hyperbolic plane), "E8minus" (negative
    definite E8), "K3" (U + U + U + E8minus + E8minus)."""
    key = _BUILTIN_ALIASES.get(str(name).strip().lower())
    if key == "U":
        return Lattice([[0, 1], [1, 0]])
    if key == "E8minus":
        return Lattice(_e8_minus_gram())
    if key == "K3":
        u = build_standard_lattice("U")
        e8 = build_standard_lattice("E8minus")
        return direct_sum(u, u, u, e8, e8)
    raise InputError("unknown builtin lattice %r (want U, E8minus, K3)" % (name,))


def direct_sum(*lattices: Lattice) -> Lattice:
    if not lattices:
        raise InputError("direct_sum needs at least one summand")
    n = sum(latt.rank for latt in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for latt in lattices:
        r = latt.rank
        for i in range(r):
            for j in range(r):
                g[off + i][off + j] = latt.gram[i][j]
        off += r
    return Lattice(g)


def enriques_involution() -> LatticeIsometry:
    """The standard involution on the K3 lattice: swap the first two
    hyperbolic planes, negate the third, swap the two E8 blocks."""
    k3 = build_standard_lattice("K3")
    n = 22
    m = [[0] * n for _ in range(n)]

    def _swap_block(a, b, size):
        for k in range(size):
            m[a + k][b + k] = 1
            m[b + k][a + k] = 1

    _swap_block(0, 2, 2)
    m[4][4] = -1
    m[5][5] = -1
    _swap_block(6, 14, 8)
    return LatticeIsometry(k3, m)


def eigenlattice(f: LatticeIsometry, sign: int) -> SublatticeBasis:
    """Saturated basis of the (+1 or -1) eigenlattice of an involution,
    computed once per isometry object."""
    if _finite(sign, "eigenvalue sign") not in (1, -1):
        raise InputError("eigenvalue sign must be +1 or -1")
    if not f.is_involution:
        raise InputError("eigenlattice needs an involution (f squared != id)")
    return f._plus if sign == 1 else f._minus


def discriminant_info(sub: SublatticeBasis) -> DiscriminantInfo:
    """Smith invariants of the induced Gram matrix.

    The sublattice must be nondegenerate. `a_invariant` counts the divisors
    equal to 2; `two_elementary` says the discriminant group is (Z/2)^a.
    """
    if sub.rank == 0:
        return DiscriminantInfo((), 0, True, 1)
    smith = intlinalg.smith_divisors([list(r) for r in sub.induced_lattice().gram])
    if len(smith) < sub.rank:
        raise DegenerateLatticeError("induced gram matrix is singular")
    divisors = tuple(d for d in smith if d > 1)
    order = 1
    for d in divisors:
        order *= d
    return DiscriminantInfo(
        divisors=divisors,
        a_invariant=sum(1 for d in divisors if d == 2),
        two_elementary=all(d == 2 for d in divisors),
        group_order=order,
    )


def is_hyperbolic_type(sub: SublatticeBasis) -> bool:
    """True iff the induced form has signature (1, rank-1)."""
    if sub.rank == 0:
        return False
    return sub.induced_lattice().signature() == (1, sub.rank - 1)
