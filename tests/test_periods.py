import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3zeta import frames, intlinalg, periods
from k3zeta.cli import main
from k3zeta.errors import GeometryError, InputError, MarkingError
from k3zeta.frames import (
    HKFrame,
    compatible_frames,
    random_compatible_frame,
)
from k3zeta.lattices import (
    Lattice,
    LatticeIsometry,
    SublatticeBasis,
    build_standard_lattice,
    eigenlattice,
    enriques_involution,
)
from k3zeta.periods import PeriodPair, PeriodPoint, component_label, period_of

from fixtures import (
    complement,
    projectively_equal,
    random_rotation,
    rotate,
    same_pair,
    seed_frame,
)


def conjugate(p: PeriodPoint) -> PeriodPoint:
    return PeriodPoint(p.sublattice, np.conj(p.coords))


def test_seed_period_is_in_the_domain():
    iso = enriques_involution()
    pair = period_of(seed_frame(), iso)
    g = pair.plus.sublattice.induced_lattice().float_gram
    eta = pair.plus.coords
    self_pairing = complex(eta @ g @ eta)
    positivity = float(np.real(eta @ g @ eta.conjugate()))
    assert abs(self_pairing) < 1e-9 * positivity
    assert positivity > 0.0
    PeriodPoint(pair.plus.sublattice, eta)


def test_induced_gram_is_the_shared_read_only_view():
    pair = period_of(seed_frame(), enriques_involution())
    g = pair.plus.sublattice.induced_lattice().float_gram
    assert g is pair.minus.sublattice.induced_lattice().float_gram
    assert np.array_equal(g, np.array(pair.plus.sublattice.induced_lattice().gram))
    with pytest.raises(ValueError):
        g[0, 0] = 0.0


def test_family_gives_one_period_pair():
    iso = enriques_involution()
    rng = np.random.default_rng(41)
    base = random_compatible_frame(iso, rng)
    ref = period_of(base, iso)
    for branch in (1, -1):
        for psi in (-2.2, 0.0, 0.7, 3.0):
            fr = compatible_frames(base, iso, branch, psi)
            assert same_pair(period_of(fr, iso), ref)


def test_labels_flip_under_conjugation():
    iso = enriques_involution()
    rng = np.random.default_rng(43)
    for _ in range(5):
        pair = period_of(random_compatible_frame(iso, rng), iso)
        la, lb = pair.labels()
        assert {la, lb} == {1, -1}
        assert component_label(conjugate(pair.plus)) == lb
        assert component_label(conjugate(pair.minus)) == la


def test_label_is_constant_along_the_family():
    iso = enriques_involution()
    rng = np.random.default_rng(47)
    base = random_compatible_frame(iso, rng)
    labels = set()
    for psi in np.linspace(-3.1, 3.1, 9):
        fr = compatible_frames(base, iso, 1, float(psi))
        labels.add(period_of(fr, iso).labels())
    assert len(labels) == 1


def test_projective_equality_is_scale_invariant():
    iso = enriques_involution()
    pair = period_of(seed_frame(), iso)
    p = pair.plus
    q = PeriodPoint(p.sublattice, (0.3 - 1.7j) * p.coords)
    assert projectively_equal(p, q)
    assert not projectively_equal(p, conjugate(p))


def test_period_point_refuses_off_domain_vectors():
    iso = enriques_involution()
    pair = period_of(seed_frame(), iso)
    sub = pair.plus.sublattice
    eta = pair.plus.coords
    with pytest.raises(GeometryError, match="not isotropic"):
        PeriodPoint(sub, np.real(eta))  # real: <eta, eta> = <eta, eta-bar> > 0
    with pytest.raises(GeometryError, match="not isotropic"):
        PeriodPoint(sub, np.real(eta) + 2j * np.imag(eta))
    with pytest.raises(GeometryError, match="<= 0"):
        PeriodPoint(sub, np.zeros(sub.rank, dtype=complex))


def test_period_of_input_checks():
    iso = enriques_involution()
    base = seed_frame()
    rng = np.random.default_rng(53)
    incompatible = rotate(base, random_rotation(rng))
    with pytest.raises(GeometryError):
        period_of(incompatible, iso)

    u = build_standard_lattice("u")
    wrong = LatticeIsometry(u, [[0, 1], [1, 0]])
    with pytest.raises(InputError):
        period_of(base, wrong)


def test_marking_must_act_on_the_same_lattice():
    iso = enriques_involution()
    base = seed_frame()
    u = build_standard_lattice("u")
    alien = LatticeIsometry(u, [[0, 1], [1, 0]])
    with pytest.raises(MarkingError):
        period_of(base, iso, marking=alien)


def test_marking_by_the_involution_itself():
    # T preserves its own eigenlattices and acts as -1 on the anti-invariant
    # part, so marking by T negates eta: the same projective pair and labels.
    iso = enriques_involution()
    base = seed_frame()
    plain = period_of(base, iso)
    marked = period_of(base, iso, marking=iso)
    assert same_pair(plain, marked)
    assert marked.labels() == plain.labels()
    assert np.max(np.abs(marked.plus.coords + plain.plus.coords)) < 1e-12


def _random_root(rng) -> list[int]:
    """A root of the K3 lattice: e - f or e + f in a hyperbolic plane,
    +-e + alpha with alpha a simple root of an E8(-1) block, or alpha."""
    r = [0] * 22
    plane = 2 * int(rng.integers(3))
    alpha = (6, 14)[int(rng.integers(2))] + int(rng.integers(8))
    kind = int(rng.integers(3))
    sign = int(rng.choice((-1, 1)))
    if kind == 0:
        r[plane], r[plane + 1] = 1, sign
    elif kind == 1:
        r[plane + int(rng.integers(2))] = sign
        r[alpha] = 1
    else:
        r[alpha] = 1
    return r


def _reflection(lattice, r) -> list[list[int]]:
    """The reflection x -> x - 2 (x.r) / (r.r) r in a root r."""
    gr = intlinalg.matmul([list(row) for row in lattice.gram], r)
    c = 2 // sum(x * y for x, y in zip(r, gr))
    return [[(i == j) - c * r[i] * gr[j] for j in range(22)] for i in range(22)]


def _reflection_word(lattice, rng, length: int) -> LatticeIsometry:
    """A product of `length` root reflections."""
    word = intlinalg.identity(22)
    for _ in range(length):
        word = intlinalg.matmul(word, _reflection(lattice, _random_root(rng)))
    return LatticeIsometry(lattice, word)


def _conjugated_enriques(rng, length: int) -> LatticeIsometry:
    """s_k ... s_1 i s_1 ... s_k for the Enriques involution i and `length`
    root reflections s_j, each its own inverse."""
    iso = enriques_involution()
    m = iso.matrix
    for _ in range(length):
        s = _reflection(iso.lattice, _random_root(rng))
        m = intlinalg.matmul(intlinalg.matmul(s, m), s)
    return LatticeIsometry(iso.lattice, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(0, 6))
def test_derived_lattices_pass_the_checks_they_skip(seed, length, marking_length):
    # eigenlattices, induced lattices, marked domains and minus points are
    # stored without their constructors' checks; each passes them
    rng = np.random.default_rng(seed)
    iso = _conjugated_enriques(rng, length)
    lat = iso.lattice
    for sign in (1, -1):
        sub = eigenlattice(iso, sign)
        assert SublatticeBasis(lat, sub.vectors) == sub
        assert Lattice(sub.induced_lattice().gram) == sub.induced_lattice()
    marking = _reflection_word(lat, rng, marking_length)
    pair = period_of(random_compatible_frame(iso, rng), iso, marking)
    domain = pair.plus.sublattice
    assert SublatticeBasis(lat, domain.vectors) == domain
    assert Lattice(domain.induced_lattice().gram) == domain.induced_lattice()
    minus = PeriodPoint(pair.minus.sublattice, pair.minus.coords)
    assert np.array_equal(minus.coords, pair.minus.coords)
    assert not pair.minus.coords.flags.writeable


def test_derived_lattices_read_no_outside_matrix(monkeypatch):
    # only the isometry's own matrix is outside input: its eigenlattices,
    # their induced lattices and a period pair convert no matrix again
    frame = random_compatible_frame(enriques_involution(), np.random.default_rng(3))
    iso = enriques_involution()
    periods._marking_context.cache_clear()
    calls = []

    def counted(obj, _fn=intlinalg.to_int_matrix):
        calls.append(1)
        return _fn(obj)

    monkeypatch.setattr(intlinalg, "to_int_matrix", counted)
    for sign in (1, -1):
        eigenlattice(iso, sign).induced_lattice()
    period_of(frame, iso).labels()
    assert len(calls) == 0


def test_domain_is_the_complement_of_the_marked_invariant_lattice():
    # (L+)^perp = L- for an involution of a nondegenerate lattice, and
    # m((L+)^perp) = (m L+)^perp; both bases are Hermite forms, so equal
    iso = enriques_involution()
    frame = seed_frame()
    plus = eigenlattice(iso, +1)
    gram = iso.lattice.gram
    assert period_of(frame, iso).plus.sublattice.vectors == complement(gram, plus.vectors)
    rng = np.random.default_rng(59)
    for length in range(3, 9):
        marking = _reflection_word(iso.lattice, rng, length)
        mm = [list(row) for row in marking.matrix]
        image = [intlinalg.matmul(mm, list(v)) for v in plus.vectors]
        pair = period_of(frame, iso, marking)
        assert pair.plus.sublattice.vectors == complement(gram, image)
        assert set(pair.labels()) == {1, -1}


def test_domain_on_a_degenerate_ambient_is_the_anti_invariant_lattice():
    # the involution fixes the radical e4, which is orthogonal to the
    # invariant lattice span(e1, e4) but not anti-invariant; the period
    # domain is span(e2, e3), of signature (2, 0)
    lattice = Lattice([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]])
    iso = LatticeIsometry(lattice, np.diag([1, -1, -1, 1]))
    frame = HKFrame(lattice.gram, np.eye(3, 4))
    pair = period_of(frame, iso)
    assert pair.plus.sublattice.vectors == ((0, 1, 0, 0), (0, 0, 1, 0))
    assert projectively_equal(pair.plus, [1, 1j])
    assert set(pair.labels()) == {1, -1}


def test_induced_lattice_and_signature_are_computed_once(monkeypatch, capsys):
    iso = enriques_involution()
    frame = seed_frame()
    calls = collections.Counter()
    for name in ("matmul", "integer_kernel", "rational_inertia"):

        def counted(*args, _fn=getattr(intlinalg, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(intlinalg, name, counted)
    periods._marking_context.cache_clear()
    pair = period_of(frame, iso)
    pair.labels()
    # is_involution, B^T G B (two products) and the self-check of the one
    # kernel
    assert calls["matmul"] == 4
    # the one kernel and the one signature of the anti-invariant lattice
    assert calls["integer_kernel"] == 1
    assert calls["rational_inertia"] == 1
    sub = pair.plus.sublattice
    assert sub is eigenlattice(iso, -1)
    assert sub.induced_lattice() is sub.induced_lattice()

    calls.clear()
    assert main(["involution", "--builtin", "enriques"]) == 0
    capsys.readouterr()
    # one signature per eigenlattice, shared by its report and is_hyperbolic_type
    assert calls["rational_inertia"] == 2


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_form_check_at_its_tolerance(tol):
    iso = enriques_involution()
    base = seed_frame()
    for delta, ok in ((tol / 2, True), (2 * tol, False)):
        form = np.array(base.form)
        # an E8 entry, where every frame vector vanishes
        form[20, 21] += delta
        form[21, 20] += delta
        frame = HKFrame(form, base.gammas)
        if ok:
            assert set(period_of(frame, iso, tol=tol).labels()) == {1, -1}
        else:
            with pytest.raises(InputError, match="does not match the lattice"):
                period_of(frame, iso, tol=tol)


def test_period_domain_needs_rank_2_and_signature_2_k():
    f = enriques_involution()
    line = SublatticeBasis(f.lattice, eigenlattice(f, -1).vectors[:1])
    with pytest.raises(GeometryError, match="^period domain needs rank >= 2$"):
        PeriodPoint(line, [1.0])
    with pytest.raises(
        GeometryError, match=r"^period domain needs signature \(2, rank-2\), got \(1, 9\)$"
    ):
        PeriodPoint(eigenlattice(f, 1), np.ones(10))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_period_coordinates_must_be_finite(bad):
    # a NaN or infinite coordinate constructed a point, which was then
    # labelled -1
    coords = np.zeros(12, dtype=complex)
    coords[0], coords[1] = bad, 1j
    with pytest.raises(InputError, match="^period coordinates must be finite$"):
        PeriodPoint(eigenlattice(enriques_involution(), -1), coords)


@pytest.mark.parametrize(
    "factor", [1e-300, 1e-170, 1e-160, 1e-7, 1.0, 1e150, 1e160, 1e300, 1j]
)
def test_checks_and_label_do_not_depend_on_the_representative(factor):
    # the checks and the label read eta scaled by a power of two, so every
    # multiple of the seed's plus point passes them and keeps its label;
    # 1e-170 was refused, 1e-160 and 1e-7 were ambiguous and 1e160 overflowed
    p = period_of(seed_frame(), enriques_involution()).plus
    scaled = PeriodPoint(p.sublattice, factor * p.coords)
    assert scaled.coords.tobytes() == (factor * p.coords).tobytes()
    assert component_label(scaled) == component_label(p) == -1


def test_label_near_the_light_cone_is_ambiguous():
    # on U + U, eta = a + i b is exactly isotropic with <eta, eta-bar> = 4
    # for every m, while its entries grow like 2 m^2: the plane (a, b)
    # nears the light cone, and the label's determinant on the normalized
    # representative falls below the 1e-12 ambiguity bound
    lattice = Lattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    sub = SublatticeBasis(lattice, np.eye(4, dtype=int).tolist())
    for m in (10, 10**5, 10**6):
        n = 2 * m * m - 2 * m + 1
        eta = np.array([n, 1, m, 2 - 2 * m]) + 1j * np.array([n, 1, m - 1, -2 * m])
        g = sub.induced_lattice().float_gram
        assert complex(eta @ g @ eta) == 0
        p = PeriodPoint(sub, eta)
        if m < 10**6:
            assert PeriodPair(p).labels() == (1, -1)
        else:
            with pytest.raises(
                GeometryError, match="^component label is numerically ambiguous$"
            ):
                component_label(p)


def _label_cases():
    """Period pairs of random frames of the Enriques involution, of its
    conjugates by root reflections, and under markings by such words."""
    rng = np.random.default_rng(67)
    iso = enriques_involution()
    for length in range(8):
        conj = _conjugated_enriques(rng, length)
        yield period_of(random_compatible_frame(iso, rng), iso)
        yield period_of(random_compatible_frame(conj, rng), conj)
        marking = _reflection_word(iso.lattice, rng, length + 1)
        yield period_of(random_compatible_frame(iso, rng), iso, marking)


def test_pair_labels_are_the_labels_of_both_points():
    # labels() reads one orientation and negates it; each point's own
    # label, computed on its own coordinates, agrees
    for pair in _label_cases():
        plus = PeriodPoint(pair.plus.sublattice, pair.plus.coords)
        minus = PeriodPoint(pair.minus.sublattice, pair.minus.coords)
        assert pair.labels() == (component_label(plus), component_label(minus))


def test_pair_labels_compute_one_orientation(monkeypatch):
    calls = []

    def counted(p, _fn=component_label):
        calls.append(p)
        return _fn(p)

    monkeypatch.setattr(periods, "component_label", counted)
    pair = period_of(seed_frame(), enriques_involution())
    assert pair.labels() == (-1, 1)
    assert calls == [pair.plus]


def test_frames_periods_and_labels_share_one_split(monkeypatch):
    # the sampler's directions and the labels' reference frame come from
    # one eigendecomposition per sublattice: two for four rounds
    calls = []

    def counted(a, _fn=np.linalg.eigh):
        calls.append(a.shape)
        return _fn(a)

    iso = enriques_involution()
    for fn in [*vars(frames).values(), *vars(periods).values()]:
        if callable(getattr(fn, "cache_clear", None)):
            fn.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.default_rng(5)
    for _ in range(4):
        period_of(random_compatible_frame(iso, rng), iso).labels()
    assert calls == [(10, 10), (12, 12)]


def test_residual_outside_the_marked_domain_is_a_marking_error():
    # a frame turned by 1e-3 from a compatible one passes the compatibility
    # check at tol 3e-3; the Eichler transvection x -> x - <a, x> e + <e, x> a
    # (e isotropic, a = 100 e' isotropic and orthogonal to it) stretches the
    # invariant part of gamma_J about 70 times, past that tol
    f = enriques_involution()
    g = np.array(f.lattice.gram)
    e, a = np.zeros(22, dtype=int), np.zeros(22, dtype=int)
    e[0], a[2] = 1, 100
    m = np.eye(22, dtype=int) - np.outer(e, a @ g) + np.outer(a, e @ g)
    marking = LatticeIsometry(f.lattice, m.tolist())
    base = seed_frame()
    c, s = np.cos(1e-3), np.sin(1e-3)
    turn = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(
        MarkingError,
        match=r"^anti-invariant frame vectors do not land in the marked"
        r" complement \(residual 7\.142e-02\)$",
    ):
        period_of(rotate(base, turn), f, marking, tol=3e-3)
