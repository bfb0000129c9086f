import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3zeta import models
from k3zeta.errors import AccuracyError, InputError
from k3zeta.models import (
    build_model_spectrum,
    builtin_model_names,
    flat_torus_curve,
    flat_torus_spectrum,
    round_sphere_curve,
    round_sphere_spectrum,
    sphere_heat_coefficients,
)

from oracles import exact_torus_eigenvalues, exact_torus_entries, fd_sphere_eigenvalues

I2 = ((1, 0), (0, 1))


def test_sphere_heat_coefficients_exact():
    # terms=n yields a_{-1}, a_0, ..., a_{n-1}
    coeffs = sphere_heat_coefficients(4)
    assert coeffs == (
        Fraction(1),
        Fraction(1, 3),
        Fraction(1, 15),
        Fraction(4, 315),
        Fraction(1, 315),
    )


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


def test_torus_entries_match_exact_enumeration_over_blocks():
    # 259^2 = 67,081 box points: more than one block
    assert models._BLOCK < 259**2
    spec = flat_torus_spectrum(I2, (1, 0), 8300.0)
    assert list(spec.entries) == exact_torus_entries(I2, (1, 0), 8300.0)


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


def test_descriptor_dispatch():
    spec = build_model_spectrum({"model": "round_sphere", "radius": 2.0, "l_max": 8})
    assert spec.cutoff == 9 * 10 / (2.0 * 4.0)
    torus = build_model_spectrum(
        {"model": "flat_torus", "gram": [[1, 0], [0, 1]], "character": [1, 0], "cutoff": 9.0}
    )
    assert torus.cutoff == 9.0
    with pytest.raises(InputError):
        build_model_spectrum({"model": "flat_torus"})
    with pytest.raises(InputError):
        build_model_spectrum(42)
