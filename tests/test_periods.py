import collections

import numpy as np
import pytest

from k3zeta import intlinalg, periods
from k3zeta.cli import main
from k3zeta.errors import GeometryError, InputError, MarkingError
from k3zeta.frames import HKFrame, compatible_frames, random_compatible_frame
from k3zeta.lattices import (
    Lattice,
    LatticeIsometry,
    build_standard_lattice,
    eigenlattice,
    enriques_involution,
)
from k3zeta.periods import PeriodPoint, component_label, period_of

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


def _reflection_word(lattice, rng, length: int) -> LatticeIsometry:
    """A product of `length` root reflections x -> x - 2 (x.r) / (r.r) r."""
    g = [list(row) for row in lattice.gram]
    word = intlinalg.identity(22)
    for _ in range(length):
        r = _random_root(rng)
        gr = intlinalg.matvec(g, r)
        c = 2 // sum(x * y for x, y in zip(r, gr))
        step = [
            [(i == j) - c * r[i] * gr[j] for j in range(22)] for i in range(22)
        ]
        word = intlinalg.matmul(word, step)
    return LatticeIsometry(lattice, word)


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
        image = [intlinalg.matvec(mm, list(v)) for v in plus.vectors]
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
    periods._reference_positive_frame.cache_clear()
    pair = period_of(frame, iso)
    pair.labels()
    # is_involution and B^T G B (two products)
    assert calls["matmul"] == 3
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
