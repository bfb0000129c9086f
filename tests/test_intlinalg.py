import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import fraction_inertia, nested_sum_product
from test_periods import _conjugated_enriques

import k3zeta
from k3zeta.errors import DegenerateLatticeError, InputError
from k3zeta.intlinalg import (
    column_hnf,
    det_bareiss,
    identity,
    integer_kernel,
    matmul,
    rational_inertia,
    smith_divisors,
    to_int_matrix,
    transpose,
)
from k3zeta.lattices import enriques_involution

U = [[0, 1], [1, 0]]


def small_int_matrix(n, lo=-6, hi=6):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )


def test_to_int_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        to_int_matrix([[0, 1], [1, 1, 3]])
    with pytest.raises(InputError):
        to_int_matrix([[0.5, 1], [1, 0]])
    # numpy booleans are refused as Python booleans are
    for rows in (np.array([[True, False], [False, True]]), [[1, np.True_]]):
        with pytest.raises(InputError, match="is not an integer"):
            to_int_matrix(rows)
    assert to_int_matrix(np.array([[2, 0], [0, 2]])) == [[2, 0], [0, 2]]


def _to_int_matrix_by_entry(obj):
    """to_int_matrix reading every entry of every row, with no fast path for
    rows of Python ints: the reference the fast path must agree with."""
    rows = []
    width = None
    try:
        for row in obj:
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


_BIG_INTS = st.integers(-(2**70), 2**70)  # past int64 both ways
_ENTRIES = st.one_of(
    _BIG_INTS,
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats(),
    st.integers(-9, 9).map(float),
    st.text(max_size=2),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
_ROWS = st.one_of(
    st.lists(_BIG_INTS, max_size=4),
    st.lists(_BIG_INTS, max_size=4).map(tuple),
    st.lists(st.one_of(_BIG_INTS, st.booleans()), max_size=4),
    st.lists(_ENTRIES, max_size=4),
    _BIG_INTS,
    st.text(max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(_ROWS, max_size=4),
        st.integers(0, 4).flatmap(
            lambda n: st.lists(st.lists(_BIG_INTS, min_size=n, max_size=n), max_size=4)
        ),
    )
)
@example([[2**64, -(2**70)], (1, 2)])
@example([[1, True], [2, 3]])
@example(np.array([[True, False], [False, True]]))
@example([[1, np.int64(2)], [2.0, 3]])
@example([[], []])
def test_to_int_matrix_agrees_with_reading_every_entry(rows):
    """Rows of Python ints are copied as they are; every other row (Python
    or numpy bools, floats, strings, numpy ints, ragged, empty or not a
    sequence) gets the result, or the refusal and its message, of the
    entry-by-entry reading."""
    try:
        want = _to_int_matrix_by_entry(rows)
    except InputError as exc:
        with pytest.raises(InputError) as refusal:
            to_int_matrix(rows)
        assert str(refusal.value) == str(exc)
    else:
        got = to_int_matrix(rows)
        assert got == want
        assert all(type(x) is int for row in got for x in row)
        assert all(type(r) is list and r is not s for r, s in zip(got, rows))


def test_det_bareiss_known_values():
    assert det_bareiss([[5]]) == 5
    assert det_bareiss(U) == -1
    assert det_bareiss([[2, 1], [1, 2]]) == 3
    # row swaps needed when a pivot vanishes
    assert det_bareiss([[0, 2, 1], [1, 0, 0], [3, 1, 1]]) == -1


@given(small_int_matrix(4))
@settings(max_examples=60, deadline=None)
def test_det_bareiss_matches_float_det(rows):
    exact = det_bareiss(rows)
    approx = np.linalg.det(np.array(rows, dtype=float))
    assert abs(exact - approx) < 1e-6 * max(1.0, abs(approx))


@st.composite
def product_at_the_int64_bound(draw):
    """(a, b) with inner dimension k in 1..22 and k * max|a| * max|b| just
    below or just above 2**63; row 0 of a and column 0 of b sit at the
    maxima, so the first entry of a @ b is that bound itself."""
    k = draw(st.integers(1, 22))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    top_a = draw(st.integers(1, 2**40))
    top_b = (2**63 - 1) // (k * top_a) + draw(st.sampled_from([0, 1]))
    a = [[top_a] * k] + [
        draw(st.lists(st.integers(-top_a, top_a), min_size=k, max_size=k)) for _ in range(n - 1)
    ]
    first = draw(st.sampled_from([-top_b, top_b]))
    rest = st.lists(st.integers(-top_b, top_b), min_size=m - 1, max_size=m - 1)
    return a, [[first] + draw(rest) for _ in range(k)]


def _assert_exact_ints(product, a, b):
    rows = product.tolist()
    assert rows == nested_sum_product(a, b)
    assert all(type(x) is int for row in rows for x in row)


@given(product_at_the_int64_bound())
@settings(max_examples=150, deadline=None)
def test_matmul_matches_nested_sums_at_the_int64_bound(ab):
    a, b = ab
    _assert_exact_ints(matmul(a, b), a, b)
    _assert_exact_ints(matmul(a, [row[:1] for row in b]), a, [row[:1] for row in b])


@given(product_at_the_int64_bound())
@settings(max_examples=60, deadline=None)
def test_matmul_bound_does_not_wrap_on_numpy_int64_entries(ab):
    # every entry fits int64, but k * max|a| * max|b| does not always, and
    # numpy scalar arithmetic would wrap it
    a, b = ab
    assume(all(abs(x) < 2**63 for row in b for x in row))
    scalars = [[np.int64(x) for x in row] for row in a]
    _assert_exact_ints(matmul(scalars, b), a, b)
    _assert_exact_ints(matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)), a, b)
    low = [[np.int64(-(2**63))]]
    _assert_exact_ints(matmul(low, [[np.int64(-1)]]), [[-(2**63)]], [[-1]])


@given(
    st.integers(1, 22).flatmap(
        lambda k: st.tuples(
            st.lists(st.lists(st.integers(-(2**70), 2**70), min_size=k, max_size=k), min_size=1, max_size=3),
            st.lists(st.lists(st.integers(-(2**70), 2**70), min_size=2, max_size=2), min_size=k, max_size=k),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_matmul_matches_nested_sums_on_big_ints(ab):
    a, b = ab
    _assert_exact_ints(matmul(a, b), a, b)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.lists(st.lists(fractions, min_size=k, max_size=k), min_size=1, max_size=3),
            st.lists(st.lists(st.one_of(fractions, st.integers(-9, 9)), min_size=2, max_size=2), min_size=k, max_size=k),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_matmul_keeps_fractions_exact(ab):
    # never cast to int64, which would truncate
    a, b = ab
    assert repr(matmul(a, b).tolist()) == repr(nested_sum_product(a, b))


def test_matmul_on_empty_shapes():
    # the empty views of `lattices`: a sublattice of rank 0 is (0, n), its
    # transpose (n, 0)
    for n, m in ((3, 2), (3, 0), (0, 2), (0, 0)):
        for left, right, shape in (((0, n), (n, m), (0, m)), ((n, 0), (0, m), (n, m))):
            product = matmul(np.zeros(left, dtype=np.int64), np.ones(right, dtype=np.int64))
            assert product.dtype == np.int64
            assert product.shape == shape
            assert not product.any()


def _inertia_or_message(inertia, gram):
    try:
        return inertia(gram)
    except (DegenerateLatticeError, ValueError) as exc:
        return str(exc)


@st.composite
def congruent_diagonal_forms(draw):
    """X^T D X, n in 1..12: D diagonal with entries in -4..4 (a zero makes
    the form singular), X an integer matrix (singular now and then)."""
    n = draw(st.integers(1, 12))
    d = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    x = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
    dx = [[d[i] * v for v in x[i]] for i in range(n)]
    return d, x, matmul(transpose(x), dx).tolist()


@given(congruent_diagonal_forms())
@settings(max_examples=150, deadline=None)
def test_inertia_of_congruent_diagonal_forms_matches_fractions(dxg):
    d, x, gram = dxg
    got = _inertia_or_message(rational_inertia, gram)
    assert got == _inertia_or_message(fraction_inertia, gram)
    if det_bareiss(x) != 0 and 0 not in d:
        assert got == (sum(v > 0 for v in d), sum(v < 0 for v in d))


@st.composite
def zero_diagonal_forms(draw):
    """Even forms with a zero diagonal: hyperbolic planes U, summed and
    permuted, or any symmetric matrix with even entries off it."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        n = 2 * k
        gram = [[int(i // 2 == j // 2 and i != j) for j in range(n)] for i in range(n)]
        perm = draw(st.permutations(range(n)))
        return [[gram[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    n = draw(st.integers(1, 12))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            gram[i][j] = gram[j][i] = 2 * draw(st.integers(-3, 3))
    return gram


@given(zero_diagonal_forms())
@settings(max_examples=150, deadline=None)
def test_inertia_of_zero_diagonal_forms_matches_fractions(gram):
    got = _inertia_or_message(rational_inertia, gram)
    assert got == _inertia_or_message(fraction_inertia, gram)
    if all(sum(row) == 1 for row in gram) and all(sum(map(abs, row)) == 1 for row in gram):
        assert got == (len(gram) // 2, len(gram) // 2)  # a sum of hyperbolic planes


# entries at and past the int64 range, where the fraction-free pivots and
# minors of rational_inertia grow on Python ints
_WIDE = st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 + 3])


@st.composite
def symmetric_forms(draw):
    """Symmetric n x n matrices, n in 1..22, mostly zero: half of them with
    a zero diagonal (the congruence branch), and a share of entries at and
    past 2**63; singular ones now and then."""
    n = draw(st.integers(1, 22))
    zero_diagonal = draw(st.booleans())
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), _WIDE)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if zero_diagonal else i + 1):
            gram[i][j] = gram[j][i] = draw(entry)
    return gram


@given(symmetric_forms())
@settings(max_examples=120, deadline=None)
@example([[0, 2**63], [2**63, 0]])
@example([[2**64 + 3, 2**63], [2**63, 2**62]])
def test_inertia_up_to_rank_22_matches_fractions(gram):
    got = _inertia_or_message(rational_inertia, gram)
    assert got == _inertia_or_message(fraction_inertia, gram)


def test_integer_kernel_check_survives_optimized_mode():
    # the self-check is a raise, not an assert, so python -O keeps it
    code = (
        "import numpy\n"
        "from k3zeta import intlinalg\n"
        "intlinalg.matmul = lambda a, b: numpy.ones((1, 1))\n"
        "try:\n    intlinalg.integer_kernel([[1, 2, 3]])\n"
        "except ArithmeticError:\n    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3zeta.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout == "raised\n", done.stderr


def test_inertia_handles_zero_diagonal():
    assert rational_inertia(U) == (1, 1)
    assert rational_inertia([[2, 0], [0, -2]]) == (1, 1)
    assert rational_inertia([[2, 1], [1, 2]]) == (2, 0)
    with pytest.raises(DegenerateLatticeError, match=r"^gram matrix is singular \(rank 1 of 2\)$"):
        rational_inertia([[1, 1], [1, 1]])
    with pytest.raises(DegenerateLatticeError, match=r"\(rank 2 of 3\)$"):
        rational_inertia([[0, 1, 1], [1, 0, 1], [1, 1, 2]])


@given(small_int_matrix(3), small_int_matrix(3, -2, 2))
@settings(max_examples=60, deadline=None)
def test_inertia_is_a_congruence_invariant(sym_seed, change):
    g = matmul(transpose(sym_seed), sym_seed)  # symmetric, >= 0
    for i in range(3):
        g[i][i] += 1  # force positive definite, inertia known
    assert rational_inertia(g) == (3, 0)
    # congruence by any unimodular-ish integer matrix with det != 0 keeps
    # the inertia only when the transform is invertible over Q
    d = det_bareiss(change)
    if d == 0:
        return
    h = matmul(transpose(change), matmul(g, change))
    assert rational_inertia(h) == (3, 0)


def test_column_hnf_is_span_canonical():
    cols = [[2, 0], [4, 2], [6, 2]]  # a list of column vectors
    h1 = column_hnf(cols)
    # an invertible integer recombination of the columns keeps the span
    mixed = [
        [a + 3 * b for a, b in zip(cols[0], cols[1])],
        cols[1],
        [a + 2 * b for a, b in zip(cols[2], cols[0])],
    ]
    assert column_hnf(mixed) == h1
    # zero and dependent columns are dropped
    assert column_hnf([[0, 0], [2, 4]]) == column_hnf([[2, 4], [4, 8]])


def test_integer_kernel_annihilates_and_saturates():
    a = [[1, 2, 3], [2, 4, 6]]
    k = integer_kernel(a)
    assert len(k) == 2
    assert all(all(x == 0 for x in matmul(a, v)) for v in k)
    # kernel basis extends to a basis of Z^n: all invariant factors 1
    assert smith_divisors(transpose(k)) == [1, 1]


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_integer_kernel_property(rows):
    k = integer_kernel(rows)
    assert all(all(x == 0 for x in matmul(rows, v)) for v in k)
    rank = len(smith_divisors(rows)) if any(any(r) for r in rows) else 0
    assert len(k) == 4 - rank


def test_smith_divisors_known_and_chained():
    assert smith_divisors([[2, 0], [0, 2]]) == [2, 2]
    assert smith_divisors([[2, 1], [1, 2]]) == [1, 3]
    assert smith_divisors([[4, 2], [2, 4]]) == [2, 6]
    assert smith_divisors(identity(3)) == [1, 1, 1]


@given(small_int_matrix(3))
@settings(max_examples=80, deadline=None)
def test_smith_divisors_divide_in_order_and_multiply_to_det(rows):
    d = smith_divisors(rows)
    for a, b in zip(d, d[1:]):
        assert b % a == 0
    det = det_bareiss(rows)
    if det != 0:
        prod = 1
        for x in d:
            prod *= x
        assert prod == abs(det)


@st.composite
def int_matrices(draw, max_dim=4):
    """Up to max_dim x max_dim, any shape, with zero rows and rows that are
    combinations of earlier ones."""
    m, n = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "combination" and rows:
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([a * x + b * y for x, y in zip(r1, r2)])
        else:
            entry = st.one_of(st.just(0), st.integers(-9, 9))
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return rows


def minor_gcd(rows, k) -> int:
    """The k-th determinantal divisor: gcd of all k x k minors."""
    g = 0
    for r in itertools.combinations(range(len(rows)), k):
        for c in itertools.combinations(range(len(rows[0])), k):
            g = math.gcd(g, det_bareiss([[rows[i][j] for j in c] for i in r]))
    return g


@given(int_matrices())
@settings(max_examples=150, deadline=None)
def test_smith_divisors_are_determinantal_divisor_ratios(rows):
    # d_1 ... d_k is the gcd of the k x k minors, which vanishes past the rank
    d = smith_divisors(rows)
    assert all(x > 0 for x in d)
    prefix = 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        if k <= len(d):
            prefix *= d[k - 1]
            assert minor_gcd(rows, k) == prefix
        else:
            assert minor_gcd(rows, k) == 0


def test_smith_divisors_of_a_unimodular_congruence():
    # U^T D U for a seeded unimodular U with 18-digit entries in U^T D U
    rng = random.Random(22)
    u = identity(22)
    for _ in range(300):
        i, j = rng.sample(range(22), 2)
        q = rng.randint(-3, 3)
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    assert abs(det_bareiss(u)) == 1
    diag = [2] * 10 + [6] * 12
    rng.shuffle(diag)
    d = [[diag[i] if i == j else 0 for j in range(22)] for i in range(22)]
    assert smith_divisors(matmul(transpose(u), matmul(d, u)).tolist()) == [2] * 10 + [6] * 12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_exact_layer_on_conjugated_enriques_involutions(seed, length):
    # g i g^-1 for the Enriques involution i and a word g of root
    # reflections: the eigenlattice kernels are Hermite-canonical and
    # saturated, of ranks 10 and 12, and together span a sublattice of
    # index 2**10; the Smith divisors of i - 1 are those of the unconjugated
    # involution, as conjugation by a unimodular g keeps them
    conj = _conjugated_enriques(np.random.default_rng(seed), length).matrix
    plain = enriques_involution().matrix
    kernels = []
    for sign, rank in ((1, 10), (-1, 12)):
        shifted = [[x - sign * (i == j) for j, x in enumerate(row)] for i, row in enumerate(conj)]
        k = integer_kernel(shifted)
        assert len(k) == rank
        assert column_hnf(k) == k
        assert column_hnf(k[::-1] + [[x + y for x, y in zip(k[0], k[-1])]]) == k
        assert smith_divisors(k) == [1] * rank
        kernels += k
    assert smith_divisors(kernels) == [1] * 12 + [2] * 10
    assert abs(det_bareiss(kernels)) == 2**10

    def divisors(m):
        return smith_divisors([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)])

    assert divisors(conj) == divisors(plain)
