"""Exact integer linear algebra on small matrices.

Everything in here is deliberately float-free: lattice invariants (signature,
determinant, Smith divisors, kernels) must be exact. The matrices are small
(rank <= 22) and sparse, and the eliminations run on lists of rows or
columns of Python ints: a pivot row of an involution's eigenlattice takes
about 1.2 reduction rounds on about 2 columns, less work than the calls an
int64 numpy round would make. So each round of the integer elimination is
one scan of the pivot row, which counts its nonzero entries and finds the
first least one, and then one reduction of the other columns by it.

Products are one numpy product: in int64 when every entry is an integer and
inner * max|a| * max|b| < 2**63, a bound on every partial sum, so the int64
product cannot wrap; on object arrays of the entries otherwise, which stays
exact for big ints and Fractions. A product's factors may also be numpy
arrays, which are taken as given: an int64 array is multiplied without a
copy, so a caller that multiplies the same matrix often keeps it as one
(the exact views of `lattices`). A product returns the exact array it
computes, int64 or object, so a chain of products stays in numpy; a caller
calls `.tolist()` only where it stores or eliminates rows.

One integer elimination loop, `_clear_row`, serves the Hermite form, integer
kernels, ranks (the length of a Hermite form) and Smith divisors (Hermite
forms of a matrix and of its transpose, in turn). Determinants use Bareiss
elimination, and signatures its symmetric form, whose pivots are principal
minors: exact divisions, and no gcd pass over the block.

The door caps of `lattices` (rank at most MAX_RANK, a Hadamard bound of
at most 2**MAX_BITS on a matrix from outside) also bound the Bareiss work:
every entry that step k of `det_bareiss` holds is a (k+1) x (k+1) minor of
its input, so at most the Hadamard bound, and the elimination makes fewer
than n**3 / 3 products and exact divisions of such integers.
`rational_inertia` holds minors too, of its input after the unimodular
row and column additions it makes when no diagonal pivot is left. At rank
32 and a Gram matrix just under the Hadamard cap, `lattice --in` and
`involution` with the identity take about 0.4 s on a 2-vCPU x86-64
machine, start-up included.

Matrices are read as sequences of rows of ints, lists or tuples.
`to_int_matrix`, `identity` and `transpose` return lists of rows,
`column_hnf` and `integer_kernel` lists of columns; `matmul` returns an
array.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DegenerateLatticeError, InputError


def to_int_matrix(obj) -> list[list[int]]:
    """Coerce a nested sequence / numpy array to list-of-rows of Python ints.

    Raises InputError on ragged input or entries that are not integral. A
    list or tuple row of Python ints is copied as it is; any other row is
    read entry by entry.
    """
    rows = []
    width = None
    try:
        for row in obj:
            if type(row) in (list, tuple) and all(type(x) is int for x in row):
                out = list(row)
            else:
                out = []
                for x in row:
                    xi = int(x)
                    if xi != x or isinstance(x, (bool, np.bool_)):
                        raise InputError("matrix entry %r is not an integer" % (x,))
                    out.append(xi)
            if width is None:
                width = len(out)
            elif len(out) != width:
                raise InputError("ragged matrix rows")
            rows.append(out)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError("matrix must be rows of integers (%s)" % exc) from None
    if width == 0 and rows:
        raise InputError("matrix rows must be nonempty")
    return rows


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def matmul(a, b) -> np.ndarray:
    """a @ b, exact, as an int64 or an object array.

    numpy reads the entries as integers only when every one is an integer;
    then, if inner * max|a| * max|b| < 2**63 (in Python ints), no partial
    sum of the int64 product can wrap. Anything else is multiplied as
    object arrays: Python ints for integer input, the entries themselves
    (Fractions, say) for the rest.
    """
    xs = [np.asarray(a), np.asarray(b)]
    if all(x.dtype.kind in "biu" for x in xs):
        top = [max(int(x.max(initial=0)), -int(x.min(initial=0))) for x in xs]
        if xs[0].shape[-1] * top[0] * top[1] < 2**63:
            return xs[0].astype(np.int64, copy=False) @ xs[1].astype(np.int64, copy=False)
        return xs[0].astype(object) @ xs[1].astype(object)
    # a nested list mixing ints within and past int64 reads as float64 here
    return np.array(a, dtype=object) @ np.array(b, dtype=object)


def is_symmetric(a) -> bool:
    n = len(a)
    return all(len(r) == n for r in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i)
    )


def det_bareiss(a) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rational_inertia(gram) -> tuple[int, int]:
    """Signature (n_plus, n_minus) of a symmetric matrix, exactly.

    Fraction-free (Bareiss) symmetric elimination. After pivots d_1, ...,
    d_k the remaining block holds the (k+1) x (k+1) minors of the matrix
    that border those pivots, so d_k is the principal minor on the first k
    pivots, the rational pivot is d_k/d_(k-1), and it is positive exactly
    when d_k has the sign of d_(k-1) (d_0 = 1).
    Each update, (d*m_jk - m_jp*m_pk) / d_(k-1), divides exactly (Bareiss,
    Math. Comp. 22, 1968). Even lattices have zero diagonals, so when no
    nonzero diagonal pivot is left, row/column j is first added into
    row/column i, which makes the new diagonal entry 2*a_ij != 0. The
    minors are linear in each row and column, so this is the same
    unimodular congruence applied to the original matrix, and every later
    division stays exact. Raises DegenerateLatticeError if the form is
    singular.
    """
    n = len(gram)
    m = [list(map(operator.index, row)) for row in gram]
    pos = neg = 0
    prev = 1
    while m:
        size = len(m)
        piv = next((i for i in range(size) if m[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(size) for j in range(size) if i != j and m[i][j] != 0),
                None,
            )
            if pair is None:
                raise DegenerateLatticeError(
                    "gram matrix is singular (rank %d of %d)" % (n - size, n)
                )
            i, j = pair
            # v_i += v_j: new a_ii = a_ii + 2 a_ij + a_jj = 2 a_ij here
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
            piv = i
        d = m[piv][piv]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prow = m.pop(piv)
        del prow[piv]
        for row in m:
            f = row.pop(piv)
            row[:] = [(d * x - f * y) // prev for x, y in zip(row, prow)]
        prev = d
    return pos, neg


def _clear_row(cols, r: int, lead: int) -> bool:
    """Integer column operations among cols[lead:] until row r has at most
    one nonzero entry, swapped into cols[lead]; True iff there is one.

    Each round is one scan of row r, which counts the nonzero entries and
    finds the first least in absolute value, then one reduction of the
    others by it."""
    n = len(cols)
    while True:
        live = j0 = best = 0
        for j in range(lead, n):
            x = cols[j][r]
            if x:
                live += 1
                x = abs(x)
                if x < best or not best:
                    j0, best = j, x
        if not live:
            return False
        cols[lead], cols[j0] = cols[j0], cols[lead]
        if live == 1:
            return True
        piv = cols[lead]
        p = piv[r]
        for j in range(lead + 1, n):
            if cols[j][r] != 0:
                q = cols[j][r] // p
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], piv)]


def column_hnf(basis_columns: list[list[int]]) -> list[list[int]]:
    """Canonical Hermite form of an integer column span.

    Input and output are lists of columns. The output basis is the unique
    one with positive pivots (scanning rows top down), zeros to the right of
    each pivot, and reduced entries to the left; zero columns are dropped.
    Two column spans are equal iff their forms are equal, which is how
    sublattice equality is decided.
    """
    cols = [c[:] for c in basis_columns if any(c)]
    if not cols:
        return []
    m = len(cols[0])
    lead = 0
    for r in range(m):
        if not _clear_row(cols, r, lead):
            continue
        if cols[lead][r] < 0:
            cols[lead] = [-x for x in cols[lead]]
        p = cols[lead][r]
        for j in range(lead):
            q = cols[j][r] // p
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[lead])]
        lead += 1
        if lead == len(cols):
            break
    return [c for c in cols[:lead] if any(c)]


def integer_kernel(a) -> list[list[int]]:
    """Basis (list of columns, Hermite-canonical) of {x : a @ x = 0} over Z.

    Kernels of integer maps are saturated subgroups by construction, so the
    returned basis always spans a primitive sublattice of Z^n.
    """
    if not a:
        raise InputError("empty matrix has no well-defined kernel here")
    m, n = len(a), len(a[0])
    # columns of A stacked over I: reducing A's rows records the transform below
    cols = [col + e for col, e in zip(transpose(a), identity(n))]
    lead = 0
    for r in range(m):
        if _clear_row(cols, r, lead):
            lead += 1
            if lead == n:
                break
    kernel = [col[m:] for col in cols[lead:]]
    if not kernel:
        return []
    if matmul(a, transpose(kernel)).any():
        raise ArithmeticError("integer kernel basis is not annihilated by the matrix")
    return column_hnf(kernel)


def smith_divisors(a) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix (positive,
    one per rank). Transforms are not tracked, only the divisors.

    After Kannan and Bachem (1979): the column Hermite form of the matrix
    and of its transpose, taken in turn, until every remaining column has
    one nonzero entry; the gcd/lcm exchanges (d_i, d_j) -> (gcd, d_i d_j /
    gcd) then put that diagonal in divisibility order.
    """
    # Terminates: a round either shrinks the first pivot not yet alone in its
    # row and column, or, when that pivot divides the rest, clears both.
    cols = column_hnf(transpose(a))
    while any(sum(1 for x in c if x) > 1 for c in cols):
        cols = column_hnf(transpose(cols))
    # each column is now one positive pivot and zeros
    d = [max(c) for c in cols]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d
