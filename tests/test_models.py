import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3zeta import models
from k3zeta.errors import AccuracyError, InputError
from k3zeta.models import (
    SPHERE_HEAT_COEFFICIENTS,
    build_model_spectrum,
    builtin_model_names,
    flat_torus_curve,
    flat_torus_spectrum,
    round_sphere_curve,
    round_sphere_spectrum,
)

from oracles import (
    exact_torus_eigenvalues,
    exact_torus_entries,
    fd_sphere_eigenvalues,
    sphere_heat_coefficients,
)

I2 = ((1, 0), (0, 1))


def test_sphere_heat_coefficients_exact():
    assert len(SPHERE_HEAT_COEFFICIENTS) == 9
    exact = tuple(Fraction(n, d) for n, d in SPHERE_HEAT_COEFFICIENTS)
    assert exact == sphere_heat_coefficients(8)
    # each pair is in lowest terms, as the oracle's fractions are
    assert [(a.numerator, a.denominator) for a in exact] == list(SPHERE_HEAT_COEFFICIENTS)
    # the truncated series against the trace itself at u = 1/50, where the
    # first omitted term a_8 u^8 is about 2e-4 u^8
    u = mpmath.mpf(1) / 50
    trace = mpmath.nsum(
        lambda l: (2 * l + 1) * mpmath.exp(-l * (l + 1) * u), [0, mpmath.inf]
    )
    series = sum(
        mpmath.mpf(n) / d * u ** (j - 1)
        for j, (n, d) in enumerate(SPHERE_HEAT_COEFFICIENTS)
    )
    assert abs(trace - series) < 1e-3 * u**8


@pytest.mark.parametrize("two_r2", [2.0, 0.5, 2.0 * 0.85037**2, 7.3])
def test_sphere_tail_is_the_correctly_rounded_coefficients(two_r2):
    # n / d of two ints is the float that float(Fraction(n, d)) gives
    a = [float(Fraction(n, d)) for n, d in SPHERE_HEAT_COEFFICIENTS]
    straight = [a[0] * two_r2] + [0.0] * 16
    for j, a_j in enumerate(a[1:]):
        straight[2 * j + 2] = a_j / two_r2**j
    for twisted in (False, True):
        tail = models._sphere_tail(two_r2, twisted)
        assert [x.hex() for x in tail.straight] == [x.hex() for x in straight]
        assert tail.twisted == (tuple(straight) if twisted else None)


def test_sphere_spectrum_structure():
    spec = round_sphere_spectrum(radius=1.0, antipodal=True, l_max=10)
    assert spec.kernel == (1, 0)
    assert spec.cutoff == 11 * 12 / 2.0
    assert spec.tail.dim == 2
    assert spec.tail.free
    assert spec.tail.straight[0] == 2.0
    assert spec.tail.straight[1] == 0.0
    assert math.isclose(spec.tail.straight[2], 1.0 / 3.0, rel_tol=1e-15)
    assert len(spec.entries) == 10
    for l, (lam, m_plus, m_minus) in enumerate(spec.entries, start=1):
        assert lam == l * (l + 1) / 2.0
        # the deck swap acts by (-1)^l on degree-l harmonics
        if l % 2 == 0:
            assert (m_plus, m_minus) == (2 * l + 1, 0)
        else:
            assert (m_plus, m_minus) == (0, 2 * l + 1)


def test_sphere_radius_scaling():
    unit = round_sphere_spectrum(radius=1.0, l_max=8)
    scaled = round_sphere_spectrum(radius=3.0, l_max=8)
    assert scaled.tail.straight[0] == 18.0
    for (lam_u, mp_u, mm_u), (lam_s, mp_s, mm_s) in zip(unit.entries, scaled.entries):
        assert math.isclose(lam_s, lam_u / 9.0, rel_tol=1e-15)
        assert (mp_s, mm_s) == (mp_u, mm_u)
    assert math.isclose(scaled.cutoff, unit.cutoff / 9.0, rel_tol=1e-15)


def test_sphere_without_deck_action_is_untwisted():
    spec = round_sphere_spectrum(radius=1.0, antipodal=False, l_max=6)
    assert not spec.tail.free
    assert spec.tail.twisted == spec.tail.straight
    for lam, m_plus, m_minus in spec.entries:
        assert m_minus == 0


def test_sphere_matches_finite_difference_oracle():
    # the builder stores half-Laplacian eigenvalues; the finite-difference
    # operator is the full Laplacian, so compare 2 r^2 lambda against it.
    spec = round_sphere_spectrum(radius=2.0, l_max=5)
    full = sorted(2.0 * 4.0 * lam for lam, _, _ in spec.entries)
    seen = {l: 0 for l in range(1, 6)}
    for mode in range(-5, 6):
        count = 5 - abs(mode) + 1
        vals = fd_sphere_eigenvalues(abs(mode), count)
        if mode == 0:
            vals = vals[1:]  # drop the constant mode, it sits in the kernel
        for v in vals:
            l = round((math.sqrt(1.0 + 4.0 * v) - 1.0) / 2.0)
            if 1 <= l <= 5:
                assert abs(v - l * (l + 1)) < 5e-3
                seen[l] += 1
    for l in range(1, 6):
        assert seen[l] == 2 * l + 1
        assert any(abs(f - l * (l + 1)) < 1e-12 for f in full)


def test_torus_character_counts():
    spec = flat_torus_spectrum(I2, character=(1, 0), cutoff=15.0)
    assert spec.kernel == (1, 0)
    assert spec.tail.free
    table = {lam: (mp, mm) for lam, mp, mm in spec.entries}
    assert table[0.5] == (2, 2)
    assert table[1.0] == (0, 4)
    assert table[2.0] == (4, 0)
    assert table[12.5] == (6, 6)
    assert math.isclose(spec.tail.straight[0], (2 * math.pi), rel_tol=1e-15)
    assert all(c == 0.0 for c in spec.tail.straight[1:])


@st.composite
def torus_cases(draw):
    """A positive-definite Gram matrix L L^T with off-diagonal entries, a
    character (or None) and a cutoff that keeps the enumeration small."""
    n = draw(st.integers(1, 3))
    low = [[0] * n for _ in range(n)]
    for i in range(n):
        low[i][i] = draw(st.integers(1, 3))
        for j in range(i):
            low[i][j] = draw(st.integers(-2, 2))
    gram = [
        [sum(low[i][k] * low[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    character = draw(
        st.one_of(st.none(), st.lists(st.integers(0, 1), min_size=n, max_size=n))
    )
    cutoff = draw(st.floats(0.25, (20.0, 12.0, 4.0)[n - 1]))
    return gram, character, cutoff


def float_torus_entries(gram, character, cutoff):
    """(lambda, m_plus, m_minus) by float enumeration: lambda = m.Q^{-1}m / 2
    from numpy.linalg.solve, over a box from the largest eigenvalue of Q,
    grouped at relative tolerance 1e-12. Keeps lambda <= cutoff (1 + 1e-9)."""
    q = np.array(gram, dtype=float)
    n = len(q)
    eps = np.zeros(n, dtype=int) if character is None else np.array(character)
    reach = int(math.sqrt(2.0 * cutoff * np.linalg.eigvalsh(q)[-1])) + 1
    points = np.array(
        [m for m in itertools.product(range(-reach, reach + 1), repeat=n) if any(m)],
        dtype=float,
    )
    lams = 0.5 * np.einsum("ij,ij->i", points, np.linalg.solve(q, points.T).T)
    signs = (points.astype(int) @ eps) % 2
    keep = lams <= cutoff * (1.0 + 1e-9)
    groups = []
    for lam, sign in sorted(zip(lams[keep], signs[keep])):
        if not groups or lam > groups[-1][0] * (1.0 + 1e-12):
            groups.append([lam, 0, 0])
        groups[-1][1 + sign] += 1
    return groups


@settings(max_examples=80, deadline=None)
@given(torus_cases())
def test_torus_matches_float_enumeration(case):
    gram, character, cutoff = case
    spec = flat_torus_spectrum(gram, character, cutoff)
    assert all(0.0 < lam <= cutoff for lam, _, _ in spec.entries)
    # eigenvalues within 1e-9 of the cutoff are the boundary test's business
    inside = cutoff * (1.0 - 1e-9)
    got = [e for e in spec.entries if e[0] < inside]
    want = [g for g in float_torus_entries(gram, character, cutoff) if g[0] < inside]
    assert len(got) == len(want)
    for (lam, mp, mm), (ref, rp, rm) in zip(got, want):
        assert math.isclose(lam, ref, rel_tol=1e-12)
        assert (mp, mm) == (rp, rm)


@st.composite
def scaled_torus_cases(draw):
    """torus_cases, some Gram matrices scaled by 10^15..10^19 with a
    perturbed diagonal (their keys pass 2^63 and 2^53), the cutoff scaled
    to match."""
    gram, character, cutoff = draw(torus_cases())
    scale = draw(st.sampled_from([1, 1, 10**15, 10**17, 10**19]))
    if scale > 1:
        gram = [
            [x * scale + (draw(st.integers(0, 9)) if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(gram)
        ]
    return gram, character, cutoff / scale


@settings(max_examples=80, deadline=None)
@given(scaled_torus_cases())
def test_torus_entries_match_exact_enumeration(case):
    gram, character, cutoff = case
    spec = flat_torus_spectrum(gram, character, cutoff)
    assert list(spec.entries) == exact_torus_entries(gram, character, cutoff)


def test_torus_entries_match_exact_enumeration_over_blocks(monkeypatch):
    # the box is 259 x 259, and its 129 rows m_0 > 0 go in blocks of
    # max(1, block // 259) rows: at 100 each row, longer than a block, is a
    # block of its own; at 16 * 259 the rows take 9 blocks; at the default
    # they fit in one
    want = exact_torus_entries(I2, (1, 0), 8300.0)
    for block in [100, 16 * 259, models._BLOCK]:
        monkeypatch.setattr(models, "_BLOCK", block)
        spec = flat_torus_spectrum(I2, (1, 0), 8300.0)
        assert list(spec.entries) == want, block


@pytest.mark.parametrize(
    "gram, character, cutoff, counter, dtype",
    [
        (I2, (1, 0), 60.0, "bincount", np.int64),
        ([[3, 1], [1, 3]], (0, 1), 40.0, "bincount", np.int64),
        ([[2, 1, 0], [1, 2, 1], [0, 1, 3]], (1, 1, 0), 9.0, "bincount", np.int64),
        # det x cutoff large against the points walked
        ([[7]], (1,), 30.0, "unique", np.int64),
        ([[100, 0], [0, 100]], (1, 0), 0.5, "unique", np.int64),
        # keys past 2^53 in int64, and past 2^63 on Python ints
        ([[10**15 + 2, 3], [3, 10**15 + 7]], (1, 0), 3e-14, "unique", np.int64),
        ([[10**19 + 3, 5], [5, 3 * 10**19]], (1, 1), 4e-19, "unique", object),
    ],
)
def test_key_counts_branches_match_exact_enumeration(
    monkeypatch, gram, character, cutoff, counter, dtype
):
    calls, dtypes = [], []
    for name in ("bincount", "unique"):

        def spy(*args, _real=getattr(np, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    real_counts = models._key_counts

    def key_counts(*args):
        keys, mults = real_counts(*args)
        dtypes.append(keys.dtype)
        # distinct and ascending, each with a nonzero count
        assert all(keys[1:] > keys[:-1]) and mults.sum(axis=1).all()
        return keys, mults

    monkeypatch.setattr(models, "_key_counts", key_counts)
    spec = flat_torus_spectrum(gram, character, cutoff)
    assert calls == [counter]
    assert dtypes == [np.dtype(dtype)]
    assert len(spec.entries) > 1
    assert list(spec.entries) == exact_torus_entries(gram, character, cutoff)


def test_torus_float_equal_eigenvalues_share_an_entry():
    # distinct keys near 10^21 round to one float key / (2 det Q)
    gram, character, cutoff = [[10**19, 5], [5, 3 * 10**19]], [1, 1], 2e-18
    spec = flat_torus_spectrum(gram, character, cutoff)
    assert len(spec.entries) < len(exact_torus_eigenvalues(gram, character, cutoff))
    assert list(spec.entries) == exact_torus_entries(gram, character, cutoff)


def test_torus_cutoff_is_inclusive():
    # lambda = 2.5 at m = (1, 2) and its images under sign changes and swaps
    at = flat_torus_spectrum(I2, character=(1, 0), cutoff=2.5)
    assert at.entries[-1] == (2.5, 4, 4)
    below = flat_torus_spectrum(I2, character=(1, 0), cutoff=math.nextafter(2.5, 0))
    assert below.entries == at.entries[:-1]


def test_torus_trivial_character_is_untwisted():
    spec = flat_torus_spectrum(I2, character=(0, 0), cutoff=6.0)
    assert not spec.tail.free
    assert spec.tail.twisted == spec.tail.straight
    assert spec.kernel == (1, 0)
    for lam, m_plus, m_minus in spec.entries:
        assert m_minus == 0


def test_torus_rejects_indefinite_gram():
    with pytest.raises(InputError):
        flat_torus_spectrum(((0, 1), (1, 0)))


def test_torus_rejects_oversized_enumeration():
    with pytest.raises(AccuracyError):
        flat_torus_spectrum(I2, cutoff=1e13)


@pytest.mark.parametrize(
    "gram, cutoff",
    [
        ([[10**400]], 1.0),  # a Gram entry past float range
        ([[10**200, 0], [0, 10**200]], 1e-199),  # det Q past float range
    ],
)
def test_torus_rejects_gram_past_float_range(gram, cutoff):
    with pytest.raises(InputError):
        flat_torus_spectrum(gram, None, cutoff)
    if len(gram) == 2:
        with pytest.raises(InputError):
            flat_torus_curve(gram, cutoff)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build, kwargs",
    [(flat_torus_spectrum, {"character": c}) for c in ([1.5, 0], [0.5, 0], "10", 5)]
    + [(flat_torus_spectrum, {"cutoff": True})]
    + [(round_sphere_spectrum, {"l_max": v}) for v in (2.7, "30", math.nan)]
    # 1e-200: 2 r^2 underflows to 0; 1e40: (2 r^2)^8 of the tail passes float range
    + [(round_sphere_spectrum, {"radius": v}) for v in ("2", True, 1e-200, 1e40)],
)
def test_model_arguments_are_refused_not_truncated(build, kwargs):
    with pytest.raises(InputError):
        build(I2, **kwargs) if build is flat_torus_spectrum else build(**kwargs)


def test_sphere_l_max_is_bounded_like_the_torus_box():
    # no l_max asks for unbounded memory
    with pytest.raises(AccuracyError, match="lower l_max"):
        round_sphere_spectrum(l_max=10**30)


def test_curve_volumes():
    sphere = round_sphere_curve(radius=2.0, l_max=5)
    assert math.isclose(sphere.volume, 16.0 * math.pi, rel_tol=1e-15)
    torus = flat_torus_curve(((2, 1), (1, 3)), cutoff=8.0)
    assert math.isclose(
        torus.volume, (2 * math.pi) ** 2 * math.sqrt(5.0), rel_tol=1e-15
    )
    assert torus.spectrum.kernel == (1, 0)


def test_builtin_dispatch():
    assert set(builtin_model_names()) == {"s2-antipodal", "t2-flat"}
    sphere = build_model_spectrum("s2-antipodal")
    assert sphere.entries == round_sphere_spectrum().entries
    torus = build_model_spectrum("t2-flat")
    reference = flat_torus_spectrum(I2, character=(1, 0))
    assert torus.entries == reference.entries
    with pytest.raises(InputError):
        build_model_spectrum("klein-bottle")
