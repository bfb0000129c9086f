import collections

import numpy as np
import pytest

from k3zeta import intlinalg, periods
from k3zeta.cli import main
from k3zeta.errors import GeometryError, InputError, MarkingError
from k3zeta.frames import (
    compatible_frames,
    random_compatible_frame,
    random_rotation,
    rotate_frame,
    seed_compatible_frame,
)
from k3zeta.lattices import (
    LatticeIsometry,
    build_standard_lattice,
    enriques_involution,
)
from k3zeta.periods import (
    PeriodPoint,
    component_label,
    conjugate_period,
    omega_contains,
    period_of,
    projectively_equal,
    same_period_pair,
)


def test_seed_period_is_in_the_domain():
    iso = enriques_involution()
    pair = period_of(seed_compatible_frame(), iso)
    g = pair.plus.induced_gram()
    eta = pair.plus.coords
    self_pairing = complex(eta @ g @ eta)
    positivity = float(np.real(eta @ g @ eta.conjugate()))
    assert abs(self_pairing) < 1e-9 * positivity
    assert positivity > 0.0
    assert omega_contains(pair.plus.sublattice, eta)


def test_family_gives_one_period_pair():
    iso = enriques_involution()
    rng = np.random.default_rng(41)
    base = random_compatible_frame(iso, rng)
    ref = period_of(base, iso)
    for branch in (1, -1):
        for psi in (-2.2, 0.0, 0.7, 3.0):
            fr = compatible_frames(base, iso, branch, psi)
            assert same_period_pair(period_of(fr, iso), ref)


def test_labels_flip_under_conjugation():
    iso = enriques_involution()
    rng = np.random.default_rng(43)
    for _ in range(5):
        pair = period_of(random_compatible_frame(iso, rng), iso)
        la, lb = pair.labels()
        assert {la, lb} == {1, -1}
        assert component_label(conjugate_period(pair.plus)) == lb
        assert component_label(conjugate_period(pair.minus)) == la


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
    pair = period_of(seed_compatible_frame(), iso)
    p = pair.plus
    q = PeriodPoint(p.sublattice, (0.3 - 1.7j) * p.coords)
    assert projectively_equal(p, q)
    assert not projectively_equal(p, conjugate_period(p))


def test_omega_contains_rejects_off_domain_vectors():
    iso = enriques_involution()
    pair = period_of(seed_compatible_frame(), iso)
    sub = pair.plus.sublattice
    real = np.ones(sub.rank, dtype=complex)
    assert not omega_contains(sub, real)
    with pytest.raises(InputError):
        omega_contains(sub, np.zeros(sub.rank, dtype=complex))


def test_period_of_input_checks():
    iso = enriques_involution()
    base = seed_compatible_frame()
    rng = np.random.default_rng(53)
    incompatible = rotate_frame(base, random_rotation(rng))
    with pytest.raises(GeometryError):
        period_of(incompatible, iso)

    u = build_standard_lattice("u")
    wrong = LatticeIsometry(u, [[0, 1], [1, 0]])
    with pytest.raises(InputError):
        period_of(base, wrong)


def test_marking_must_act_on_the_same_lattice():
    iso = enriques_involution()
    base = seed_compatible_frame()
    u = build_standard_lattice("u")
    alien = LatticeIsometry(u, [[0, 1], [1, 0]])
    with pytest.raises(MarkingError):
        period_of(base, iso, marking=alien)


def test_marking_by_the_involution_itself():
    # T preserves its own eigenlattices and acts as -1 on the anti-invariant
    # part, so marking by T negates eta: the same projective pair and labels.
    iso = enriques_involution()
    base = seed_compatible_frame()
    plain = period_of(base, iso)
    marked = period_of(base, iso, marking=iso)
    assert same_period_pair(plain, marked)
    assert marked.labels() == plain.labels()
    assert np.max(np.abs(marked.plus.coords + plain.plus.coords)) < 1e-12


def test_induced_lattice_and_signature_are_computed_once(monkeypatch, capsys):
    iso = enriques_involution()
    frame = seed_compatible_frame()
    calls = collections.Counter()
    for name in ("matmul", "rational_inertia"):

        def counted(*args, _fn=getattr(intlinalg, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(intlinalg, name, counted)
    periods._marking_context.cache_clear()
    periods._reference_positive_frame.cache_clear()
    pair = period_of(frame, iso)
    pair.labels()
    # is_involution, the complement's pairings, and B^T G B (two products)
    assert calls["matmul"] == 4
    sub = pair.plus.sublattice
    assert sub.induced_lattice() is sub.induced_lattice()

    calls.clear()
    assert main(["involution", "--builtin", "enriques"]) == 0
    capsys.readouterr()
    # one signature per eigenlattice, shared by its report and is_hyperbolic_type
    assert calls["rational_inertia"] == 2
