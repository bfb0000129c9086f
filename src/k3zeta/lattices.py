"""Even lattices, isometries, and primitive sublattices, all exact.

The ambient objects here are integer Gram matrices. Signatures come from
exact symmetric elimination in integers, determinants from fraction-free
elimination, and discriminant groups from Smith divisors, so every invariant
this module reports is exact, never floating point.

A sublattice computes its induced lattice B^T G B and that form's one
eigendecomposition (`split_directions`), a lattice its signature, and an
isometry its involution check and its two eigenlattices, once, on first
use, and keeps them on the object; every reader goes through those
values. `Lattice` is the one reader of an exact Gram matrix, the torus
builder's too.

Each object also keeps read-only array views of its data, built once, on
first use, beside its tuple fields:

- exact views (`Lattice.int_gram`, `LatticeIsometry.int_matrix`,
  `SublatticeBasis.int_vectors`), which every exact product here reads: the
  form check M^T G M = G, the involution check M M = I, the M -/+ I whose
  kernels are the eigenlattices, and B^T G B. A view is int64 when every
  entry fits and an object array of Python ints otherwise; whether a
  product runs in int64 is still decided by `intlinalg.matmul` alone, from
  the sizes of its factors, so a product of int64 views that could wrap
  runs on Python ints. A product stays the array `intlinalg.matmul`
  returns: the form and involution checks compare arrays
  (`np.array_equal`), and only B^T G B, which is stored, becomes rows;
- float64 views (`Lattice.float_gram`, `LatticeIsometry.float_matrix`,
  `SublatticeBasis.float_basis`), which only float code reads
  (`split_directions`, frames, periods): every invariant here stays exact.

One door rule bounds the work and the output of every exact matrix from
outside, and each refusal is an InputError (exit 2) naming its bound:

- a Gram matrix has rank at most MAX_RANK (32: room for the rank-28
  lattice II(2,26) of Borcherds' Phi; the K3 lattice has rank 22), and an
  isometry or a sublattice basis has the rank of its lattice;
- a Gram matrix, an isometry matrix and a sublattice basis each have a
  Hadamard bound prod_i max(1, |row i|) of at most 2**MAX_BITS. It bounds
  |det| and every minor, and so every entry of a Bareiss elimination (see
  `intlinalg`). The eigenlattices of an involution M are the saturated
  kernels of M -/+ I, whose rows are at most 1 longer: by the covolume of
  a saturated kernel, every maximal minor of their bases has at most
  MAX_BITS + MAX_RANK bits, and by Cauchy-Binet the determinant of an
  induced form at most 3 MAX_BITS + 4 MAX_RANK bits. That is about 1,900
  digits, well under the 4,300 that `str()` prints of an int, and bounds
  every Smith divisor the package reports.

The bound is read from the exact view. An int64 view's entries are at
most 2**63, so below rank 32 its bound is within the cap without a pass
over its entries; at rank 32, and for an object view, the row lengths are
summed in Python ints.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import intlinalg
from ._record import Record
from .errors import DegenerateLatticeError, InputError, _finite


def _freeze(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Rows of Python ints (as `to_int_matrix` returns them) as tuples."""
    return tuple(map(tuple, rows))


def _float_view(rows) -> np.ndarray:
    """Rows of numbers as a read-only, C-ordered float64 copy."""
    a = np.array(rows, dtype=float, order="C")
    a.setflags(write=False)
    return a


MAX_RANK = 32
MAX_BITS = 2048


def _check_size(view: np.ndarray, what: str) -> None:
    """Refuse an exact view whose Hadamard bound prod_i max(1, |row i|)
    passes 2**MAX_BITS."""
    rows, width = view.shape
    # an int64 entry is at most 2**63, so a row is at most sqrt(width) 2**63
    # long: below rank 32 an int64 matrix is within the cap
    int64_top = rows * (63 + math.log2(max(width, 1)) / 2)
    if view.dtype != object and int64_top <= MAX_BITS:
        return
    squares = [sum(x * x for x in row) for row in view.tolist()]
    bits = sum(math.log2(q) for q in squares if q) / 2
    if bits > MAX_BITS:
        raise InputError(
            "%s has a Hadamard bound of 2**%d, past the cap of 2**%d"
            % (what, math.ceil(bits), MAX_BITS)
        )


def _int_view(rows, width: int) -> np.ndarray:
    """Exact rows as a read-only (len(rows), width) array: int64 when every
    entry fits, an object array of the Python ints otherwise."""
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        a = np.array(rows, dtype=object)
    # an empty tuple of rows reads as shape (0,)
    a = a.reshape(len(rows), width)
    a.setflags(write=False)
    return a


class Lattice(Record):
    """A free Z-module with an integer symmetric bilinear form."""

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram):
        g = intlinalg.to_int_matrix(gram)
        if len(g) > MAX_RANK:
            raise InputError(
                "gram matrix has rank %d, past the cap of %d" % (len(g), MAX_RANK)
            )
        if not intlinalg.is_symmetric(g):
            raise InputError("gram matrix must be symmetric")
        super().__init__(_freeze(g))
        _check_size(self.int_gram, "gram matrix")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @functools.cached_property
    def int_gram(self) -> np.ndarray:
        """The Gram matrix as a read-only exact array (see `_int_view`)."""
        return _int_view(self.gram, self.rank)

    @functools.cached_property
    def float_gram(self) -> np.ndarray:
        """The Gram matrix as a read-only float64 array."""
        return _float_view(self.gram)

    @functools.cached_property
    def _inertia(self) -> tuple[int, int]:
        return intlinalg.rational_inertia(self.gram)

    def signature(self) -> tuple[int, int]:
        return self._inertia

    def det(self) -> int:
        return intlinalg.det_bareiss(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


class LatticeIsometry(Record):
    """An integer matrix preserving a lattice's form, acting on columns."""

    lattice: Lattice
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, lattice: Lattice, matrix):
        Lattice._require(lattice, "lattice")
        m = intlinalg.to_int_matrix(matrix)
        n = lattice.rank
        if len(m) != n or any(len(r) != n for r in m):
            raise InputError("isometry matrix must be %d x %d" % (n, n))
        super().__init__(lattice, _freeze(m))
        # the size and form checks read the views the object keeps
        mat = self.int_matrix
        _check_size(mat, "isometry matrix")
        mt_g = intlinalg.matmul(mat.T, lattice.int_gram)
        if not np.array_equal(intlinalg.matmul(mt_g, mat), lattice.int_gram):
            raise InputError("matrix does not preserve the bilinear form")

    @functools.cached_property
    def int_matrix(self) -> np.ndarray:
        """The matrix as a read-only exact array (see `_int_view`)."""
        return _int_view(self.matrix, self.lattice.rank)

    @functools.cached_property
    def float_matrix(self) -> np.ndarray:
        """The matrix as a read-only float64 array."""
        return _float_view(self.matrix)

    @functools.cached_property
    def is_involution(self) -> bool:
        square = intlinalg.matmul(self.int_matrix, self.int_matrix)
        return np.array_equal(square, np.identity(self.lattice.rank, dtype=np.int64))

    def _kernel_of(self, sign: int) -> "SublatticeBasis":
        """Saturated basis of the kernel of f - sign * id."""
        # on Python ints, where M -/+ I cannot wrap as int64 arithmetic could
        m = self.int_matrix.tolist()
        for i, row in enumerate(m):
            row[i] -= sign
        # a Hermite basis of a kernel: independent rows of Python ints
        kernel = intlinalg.integer_kernel(m)
        return SublatticeBasis._of(self.lattice, _freeze(kernel))

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
        Lattice._require(ambient, "ambient lattice")
        vs = intlinalg.to_int_matrix(vectors)
        n = ambient.rank
        if any(len(v) != n for v in vs):
            raise InputError("basis vectors must have ambient rank %d" % n)
        super().__init__(ambient, _freeze(vs))
        _check_size(self.int_vectors, "sublattice basis")
        if len(intlinalg.column_hnf(vs)) != len(vs):
            raise InputError("basis vectors are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def basis_matrix(self) -> list[list[int]]:
        """Ambient-rank x sublattice-rank matrix whose columns are the basis."""
        return intlinalg.transpose(self.vectors)

    @functools.cached_property
    def int_vectors(self) -> np.ndarray:
        """The vectors as the rows of a read-only exact array, B^T (see
        `_int_view`); rank 0 gives shape (0, ambient rank)."""
        return _int_view(self.vectors, self.ambient.rank)

    @functools.cached_property
    def float_basis(self) -> np.ndarray:
        """`basis_matrix()` as a read-only, C-ordered float64 array."""
        return _float_view(self.int_vectors.T)

    @functools.cached_property
    def _induced(self) -> Lattice:
        # B^T G B, which is symmetric
        bt = self.int_vectors
        bt_g = intlinalg.matmul(bt, self.ambient.int_gram)
        return Lattice._of(_freeze(intlinalg.matmul(bt_g, bt.T).tolist()))

    def induced_lattice(self) -> Lattice:
        """The lattice with Gram matrix B^T G B, computed once per object."""
        return self._induced

    @functools.cached_property
    def split_directions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one eigendecomposition of the exact induced form, as
        read-only float arrays: form-orthonormal ambient directions `pos`
        and `neg`, one per eigenvalue computed positive or negative, and
        `ref`, the period labels' reference 2-frame in lattice coordinates
        (the top two eigenvectors, each column's largest entry made
        positive)."""
        w, v = np.linalg.eigh(self._induced.float_gram)
        basis = self.float_basis
        pos = basis @ (v[:, w > 0] / np.sqrt(w[w > 0]))
        neg = basis @ (v[:, w < 0] / np.sqrt(-w[w < 0]))
        ref = v[:, -2:].copy()
        for col in ref.T:
            if col[np.argmax(np.abs(col))] < 0:
                col *= -1.0
        for a in (pos, neg, ref):
            a.setflags(write=False)
        return pos, neg, ref


class DiscriminantInfo(Record):
    """Invariant factors (> 1) of the discriminant group of a sublattice."""

    divisors: tuple[int, ...]
    a_invariant: int
    two_elementary: bool
    group_order: int


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


def _k3() -> Lattice:
    u, e8 = build_standard_lattice("u"), build_standard_lattice("e8(-1)")
    return direct_sum(u, u, u, e8, e8)


# the builtin lattices, by the names the command line offers
BUILTIN_LATTICES = {
    "u": lambda: Lattice([[0, 1], [1, 0]]),  # the hyperbolic plane
    "e8(-1)": lambda: Lattice(_e8_minus_gram()),  # negative definite E8
    "k3": _k3,  # U + U + U + E8(-1) + E8(-1)
}


def build_standard_lattice(name: str) -> Lattice:
    """The builtin lattice of a name of BUILTIN_LATTICES, in any case."""
    build = BUILTIN_LATTICES.get(str(name).lower())
    if build is None:
        raise InputError(
            "unknown builtin lattice %r (want %s)" % (name, ", ".join(BUILTIN_LATTICES))
        )
    return build()


def direct_sum(*lattices: Lattice) -> Lattice:
    if not lattices:
        raise InputError("direct_sum needs at least one summand")
    n = sum(Lattice._require(latt, "a summand").rank for latt in lattices)
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


# the builtin involutions, by the names the command line offers
BUILTIN_INVOLUTIONS = {"enriques": enriques_involution}


def eigenlattice(f: LatticeIsometry, sign: int) -> SublatticeBasis:
    """Saturated basis of the (+1 or -1) eigenlattice of an involution,
    computed once per isometry object."""
    LatticeIsometry._require(f, "isometry")
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
    SublatticeBasis._require(sub, "sublattice")
    smith = intlinalg.smith_divisors(sub.induced_lattice().gram)
    if len(smith) < sub.rank:
        raise DegenerateLatticeError("induced gram matrix is singular")
    divisors = tuple(d for d in smith if d > 1)
    order = 1
    for d in divisors:
        order *= d
    return DiscriminantInfo(
        divisors,
        sum(1 for d in divisors if d == 2),
        all(d == 2 for d in divisors),
        order,
    )


def is_hyperbolic_type(sub: SublatticeBasis) -> bool:
    """True iff the induced form has signature (1, rank-1)."""
    SublatticeBasis._require(sub, "sublattice")
    return sub.induced_lattice().signature() == (1, sub.rank - 1)
