import numpy as np
import pytest

from k3zeta import intlinalg
from k3zeta.errors import DegenerateLatticeError, InputError
from k3zeta.lattices import (
    BUILTIN_LATTICES,
    DiscriminantInfo,
    Lattice,
    LatticeIsometry,
    SublatticeBasis,
    build_standard_lattice,
    direct_sum,
    discriminant_info,
    eigenlattice,
    enriques_involution,
    is_hyperbolic_type,
)

from fixtures import complement, is_saturated, same_span
from oracles import nested_sum_product


def test_hyperbolic_plane():
    u = build_standard_lattice("u")
    assert u.rank == 2
    assert u.signature() == (1, 1)
    assert u.det() == -1
    assert u.is_even() and abs(u.det()) == 1


def test_e8_minus():
    e8 = build_standard_lattice("e8(-1)")
    assert e8.rank == 8
    assert e8.signature() == (0, 8)
    assert e8.det() == 1
    assert e8.is_even() and abs(e8.det()) == 1
    # every root has self-pairing -2
    assert all(e8.gram[i][i] == -2 for i in range(8))


def test_k3_lattice_invariants():
    k3 = build_standard_lattice("k3")
    assert k3.rank == 22
    assert k3.signature() == (3, 19)
    assert k3.det() == -1
    assert k3.is_even() and abs(k3.det()) == 1


def test_unknown_builtin():
    for name in ("leech", "LEECH", " k3"):
        with pytest.raises(InputError, match="unknown builtin lattice"):
            build_standard_lattice(name)


def test_builtin_names_are_read_in_any_case():
    # the command line's rule too: lower-case, then look up
    for name in BUILTIN_LATTICES:
        assert build_standard_lattice(name.upper()) == build_standard_lattice(name)


def test_direct_sum_blocks():
    u = build_standard_lattice("u")
    s = direct_sum(u, u, u)
    assert s.rank == 6
    assert s.det() == -1
    assert s.signature() == (3, 3)


def test_isometry_validation():
    u = build_standard_lattice("u")
    LatticeIsometry(u, [[0, 1], [1, 0]])  # swap preserves U
    with pytest.raises(InputError):
        LatticeIsometry(u, [[1, 1], [0, 1]])


def test_enriques_involution_eigenlattices():
    iso = enriques_involution()
    assert iso.is_involution
    assert iso.trace() == -2

    plus = eigenlattice(iso, +1)
    assert plus.rank == 10
    assert plus.induced_lattice().signature() == (1, 9)
    info = discriminant_info(plus)
    assert info.divisors == (2,) * 10
    assert info.a_invariant == 10
    assert info.two_elementary
    assert info.group_order == 2**10
    assert is_hyperbolic_type(plus)
    assert is_saturated(plus.vectors)

    minus = eigenlattice(iso, -1)
    assert minus.rank == 12
    assert minus.induced_lattice().signature() == (2, 10)
    minfo = discriminant_info(minus)
    assert minfo.divisors == (2,) * 10
    assert minfo.two_elementary
    assert not is_hyperbolic_type(minus)
    assert is_saturated(minus.vectors)


def test_eigenlattices_are_computed_once_per_isometry(monkeypatch):
    calls = []

    def counted(m, _fn=intlinalg.integer_kernel):
        calls.append(1)
        return _fn(m)

    monkeypatch.setattr(intlinalg, "integer_kernel", counted)
    iso = enriques_involution()
    for sign in (1, -1, 1, -1):
        assert eigenlattice(iso, sign) is eigenlattice(iso, sign)
    assert len(calls) == 2
    # a fresh isometry starts cold
    assert eigenlattice(enriques_involution(), 1) is not eigenlattice(iso, 1)
    assert len(calls) == 3


def test_eigenlattices_are_mutual_complements():
    iso = enriques_involution()
    plus = eigenlattice(iso, +1)
    minus = eigenlattice(iso, -1)
    gram = iso.lattice.gram
    assert same_span(complement(gram, plus.vectors), minus.vectors)
    assert same_span(complement(gram, minus.vectors), plus.vectors)
    assert same_span(complement(gram, complement(gram, plus.vectors)), plus.vectors)
    assert plus.rank + minus.rank == iso.lattice.rank


def test_unimodular_discriminant_is_trivial():
    k3 = build_standard_lattice("k3")
    full = SublatticeBasis(
        k3, [tuple(1 if i == j else 0 for j in range(22)) for i in range(22)]
    )
    info = discriminant_info(full)
    assert info.divisors == ()
    assert info.group_order == 1
    assert info.a_invariant == 0


@pytest.mark.parametrize("sign", [1, -1])
def test_a_trivial_eigenlattice_has_rank_zero_invariants(sign):
    # +I or -I on U: one eigenlattice is all of U, the other is {0}, whose
    # empty Gram matrix has no Smith divisors and signature (0, 0)
    iso = LatticeIsometry(build_standard_lattice("u"), [[sign, 0], [0, sign]])
    trivial = eigenlattice(iso, -sign)
    assert trivial.rank == 0
    assert discriminant_info(trivial) == DiscriminantInfo((), 0, True, 1)
    assert is_hyperbolic_type(trivial) is False
    assert is_hyperbolic_type(eigenlattice(iso, sign)) is True


def test_degenerate_sublattice_rejected():
    u = build_standard_lattice("u")
    iso_vec = SublatticeBasis(u, [(1, 0)])  # isotropic direction
    with pytest.raises(DegenerateLatticeError):
        discriminant_info(iso_vec)
    # induced Gram [[2, 0], [0, 0]]: one Smith divisor for rank 2
    uu = direct_sum(u, u)
    half = SublatticeBasis(uu, [(1, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(DegenerateLatticeError):
        discriminant_info(half)


def test_dependent_basis_rejected():
    u = build_standard_lattice("u")
    with pytest.raises(InputError):
        SublatticeBasis(u, [(1, 0), (2, 0)])
    k3 = build_standard_lattice("k3")
    a = tuple((5 * i) % 7 - 3 for i in range(22))
    b = tuple((3 * i * i) % 11 - 5 for i in range(22))
    c = tuple(2 * x - 3 * y for x, y in zip(a, b))
    assert SublatticeBasis(k3, [a, b]).rank == 2
    with pytest.raises(InputError):
        SublatticeBasis(k3, [a, b, c])


def test_non_saturated_basis_detected():
    # a sublattice basis need not be saturated, and the saturation check
    # the eigenlattice test relies on tells the two apart
    u = build_standard_lattice("u")
    doubled = SublatticeBasis(u, [(2, 0), (0, 2)])
    assert not is_saturated(doubled.vectors)
    assert is_saturated(SublatticeBasis(u, [(1, 0), (0, 1)]).vectors)


def test_gram_must_be_symmetric_and_integral():
    with pytest.raises(InputError):
        Lattice([[0, 1], [2, 0]])
    with pytest.raises(InputError):
        Lattice([[0.5]])
    # booleans, numpy's included, are not integers
    for gram in ([[False, True], [True, False]], np.array([[False, True], [True, False]])):
        with pytest.raises(InputError, match="is not an integer"):
            Lattice(gram)


def test_basis_vectors_may_come_from_a_generator():
    u = build_standard_lattice("u")
    assert SublatticeBasis(u, (v for v in [(1, 0)])).rank == 1
    assert SublatticeBasis(u, []).rank == 0
    with pytest.raises(InputError):
        SublatticeBasis(u, [()])


def test_float_views_are_the_exact_data_read_only():
    iso = enriques_involution()
    sub = eigenlattice(iso, -1)
    induced = sub.induced_lattice()
    for view, exact in (
        (iso.lattice.float_gram, np.array(iso.lattice.gram, dtype=float)),
        (iso.float_matrix, np.array(iso.matrix, dtype=float)),
        (induced.float_gram, np.array(induced.gram, dtype=float)),
    ):
        assert view.dtype == np.float64 and view.flags.c_contiguous
        assert np.array_equal(view, exact)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
    # derived once per object
    assert iso.float_matrix is iso.float_matrix
    assert iso.lattice.float_gram is iso.lattice.float_gram


def _pell_unit(power):
    """A^power and its inverse, in Python ints, for A = [[3, 4], [2, 3]]:
    an isometry of x^2 - 2 y^2 of infinite order."""
    g, g_inv = intlinalg.identity(2), intlinalg.identity(2)
    for _ in range(power):
        g = nested_sum_product(g, [[3, 4], [2, 3]])
        g_inv = nested_sum_product(g_inv, [[3, -4], [-2, 3]])
    return g, g_inv


def _exact_cases():
    """(gram, involution, + eigenvector, - eigenvector): U and U(2^70)
    with the swap, and x^2 - 2 y^2 with diag(1, -1) conjugated by A^30,
    whose entries pass 2^150 while its Gram matrix stays small."""
    big = 2**70
    g, g_inv = _pell_unit(30)
    conj = nested_sum_product(nested_sum_product(g, [[1, 0], [0, -1]]), g_inv)
    return [
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]], (1, 1), (1, -1)),
        ([[0, big], [big, 0]], [[0, 1], [1, 0]], (1, 1), (1, -1)),
        ([[1, 0], [0, -2]], conj, (g[0][0], g[1][0]), (g[0][1], g[1][1])),
    ]


def _assert_exact_view(view, rows):
    fits = all(-(2**63) <= x < 2**63 for row in rows for x in row)
    assert view.dtype == (np.int64 if fits else object)
    assert view.tolist() == [list(row) for row in rows]
    assert all(type(x) is int for row in view.tolist() for x in row)
    with pytest.raises(ValueError):
        view[0, 0] = 0


@pytest.mark.parametrize("case", range(3))
def test_exact_views_past_int64_match_python_ints(case):
    gram, matrix, plus_vector, minus_vector = _exact_cases()[case]
    lattice = Lattice(gram)
    iso = LatticeIsometry(lattice, matrix)
    # the reference: the same algebra on nested sums of Python ints
    mt = intlinalg.transpose(matrix)
    assert nested_sum_product(nested_sum_product(mt, gram), matrix) == gram
    assert nested_sum_product(matrix, matrix) == intlinalg.identity(2)
    assert iso.is_involution
    bad = [[matrix[0][0] + 1, matrix[0][1]], matrix[1]]
    assert nested_sum_product(nested_sum_product(intlinalg.transpose(bad), gram), bad) != gram
    with pytest.raises(InputError, match="does not preserve"):
        LatticeIsometry(lattice, bad)
    _assert_exact_view(lattice.int_gram, gram)
    _assert_exact_view(iso.int_matrix, matrix)
    for sign, vector in ((1, plus_vector), (-1, minus_vector)):
        sub = eigenlattice(iso, sign)
        assert sub.vectors == (vector,)
        column = [[x] for x in vector]
        assert nested_sum_product(matrix, column) == [[sign * x] for x in vector]
        _assert_exact_view(sub.int_vectors, sub.vectors)
        induced = nested_sum_product(nested_sum_product([vector], gram), column)
        assert sub.induced_lattice().gram == tuple(map(tuple, induced))
        _assert_exact_view(sub.induced_lattice().int_gram, induced)
        norm = abs(induced[0][0])
        divisors = (norm,) if norm > 1 else ()
        assert discriminant_info(sub).divisors == divisors
        assert np.array_equal(sub.float_basis, np.array(column, dtype=float))
    # derived once per object
    sub = eigenlattice(iso, -1)
    for owner, name in (
        (lattice, "int_gram"),
        (iso, "int_matrix"),
        (sub, "int_vectors"),
        (sub, "float_basis"),
        (sub.induced_lattice(), "int_gram"),
    ):
        assert getattr(owner, name) is getattr(owner, name)


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_views_of_a_rank_zero_eigenlattice(sign):
    iso = LatticeIsometry(build_standard_lattice("u"), [[sign, 0], [0, sign]])
    trivial = eigenlattice(iso, -sign)
    assert trivial.int_vectors.shape == (0, 2)
    assert trivial.float_basis.shape == (2, 0)
    assert not trivial.int_vectors.flags.writeable
    assert not trivial.float_basis.flags.writeable
    induced = trivial.induced_lattice()
    assert induced.gram == ()
    assert induced.int_gram.shape == (0, 0)
    assert induced.signature() == (0, 0)
    assert discriminant_info(trivial) == DiscriminantInfo((), 0, True, 1)
