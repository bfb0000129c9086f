"""Exact integer and rational linear algebra on plain Python ints.

Everything in here is deliberately float-free: lattice invariants (signature,
determinant, Smith divisors, kernels) must be exact, and the matrices involved
are small (rank <= 22), so simple cubic algorithms on list-of-list matrices
are both fast enough and easy to audit.

One integer elimination loop, `_clear_row`, serves the Hermite form, integer
kernels, ranks (the length of a Hermite form) and Smith divisors (Hermite
forms of a matrix and of its transpose, in turn). Determinants use Bareiss
elimination and signatures a rational congruence diagonalization.

Matrices are lists of rows of ints unless a function says otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateLatticeError, InputError


def to_int_matrix(obj) -> list[list[int]]:
    """Coerce a nested sequence / numpy array to list-of-rows of Python ints.

    Raises InputError on ragged input or entries that are not integral.
    """
    rows = []
    width = None
    try:
        for row in obj:
            out = []
            for x in row:
                xi = int(x)
                if xi != x or isinstance(x, bool):
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


def matmul(a, b):
    """Exact product of two int (or Fraction) matrices."""
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


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
    m = [row[:] for row in a]
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

    Symmetric congruence diagonalization over Fraction. Even lattices have
    zero diagonals, so when no nonzero diagonal pivot is available we first
    add row/column j into row/column i (a congruence), which makes the new
    diagonal entry 2*a_ij != 0. Raises DegenerateLatticeError if the form is
    singular.
    """
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in active for j in active if i != j and m[i][j] != 0),
                None,
            )
            if pair is None:
                raise DegenerateLatticeError(
                    "gram matrix is singular (rank %d of %d)" % (n - len(active), n)
                )
            i, j = pair
            # v_i += v_j: new a_ii = a_ii + 2 a_ij + a_jj = 2 a_ij here
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            piv = i
        d = m[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        for j in active:
            f = m[piv][j] / d
            if f == 0:
                continue
            for k in range(n):
                m[j][k] -= f * m[piv][k]
            for k in range(n):
                m[k][j] -= f * m[k][piv]
    return pos, neg


def _clear_row(cols, r: int, lead: int) -> bool:
    """Integer column operations among cols[lead:] until row r has at most
    one nonzero entry, swapped into cols[lead]; True iff there is one."""
    while True:
        live = [j for j in range(lead, len(cols)) if cols[j][r] != 0]
        if not live:
            return False
        j0 = min(live, key=lambda j: abs(cols[j][r]))
        cols[lead], cols[j0] = cols[j0], cols[lead]
        if len(live) == 1:
            return True
        p = cols[lead][r]
        for j in range(lead + 1, len(cols)):
            if cols[j][r] != 0:
                q = cols[j][r] // p
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[lead])]


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
    assert all(all(x == 0 for x in matvec(a, k)) for k in kernel)
    return column_hnf(kernel) if kernel else []


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
