import numpy as np
import pytest

from k3zeta.errors import GeometryError, InputError
from k3zeta.frames import (
    DEFAULT_TOL,
    HKFrame,
    RotationSO3,
    _split_directions,
    check_antiholomorphic_sign,
    compatible_frames,
    involution_eigenframe,
    is_compatible,
    random_compatible_frame,
    random_rotation,
    recover_compatible_parameters,
    recover_rotation,
    restricted_action,
    rotate_frame,
    seed_compatible_frame,
    standard_flat_model,
    two_form_of,
    unit_sphere_structure,
)
from k3zeta.lattices import eigenlattice, enriques_involution

TOL = 1e-10


def test_flat_model_quaternion_relations():
    m = standard_flat_model()
    i, j, k = m.I, m.J, m.K
    eye = np.eye(4)
    assert np.array_equal(i @ i, -eye)
    assert np.array_equal(j @ j, -eye)
    assert np.array_equal(k @ k, -eye)
    assert np.array_equal(i @ j, k)
    assert np.array_equal(j @ i, -k)
    assert np.array_equal(j @ k, i)
    assert np.array_equal(k @ i, j)


def test_two_forms_are_antisymmetric():
    m = standard_flat_model()
    for s in (m.I, m.J, m.K):
        w = two_form_of(m.metric, s)
        assert np.array_equal(w, -w.T)


def test_antiholomorphic_sign_check():
    m = standard_flat_model()
    s = np.diag([1.0, 1.0, -1.0, -1.0])  # anticommutes with J
    out = check_antiholomorphic_sign(m.metric, s)
    assert out["sign_flipped"]
    assert out["max_deviation"] <= TOL
    with pytest.raises(InputError):
        check_antiholomorphic_sign(m.metric, np.eye(4))  # commutes with J


def test_frame_pairing_validation():
    form = np.diag([2.0, 2.0, 2.0, -2.0])
    good = np.eye(3, 4)
    HKFrame(form, good)
    with pytest.raises(GeometryError):
        HKFrame(form, np.vstack([good[0], good[0], good[2]]))


def test_rotation_group_structure():
    with pytest.raises(InputError):
        RotationSO3(np.diag([1.0, 1.0, -1.0]))  # det -1
    rng = np.random.default_rng(11)
    a, b = random_rotation(rng), random_rotation(rng)
    frame = seed_compatible_frame()
    left = rotate_frame(frame, a.compose(b))
    right = rotate_frame(rotate_frame(frame, b), a)
    assert np.max(np.abs(left.gammas - right.gammas)) < TOL


def test_rotation_recovery():
    rng = np.random.default_rng(3)
    frame = seed_compatible_frame()
    for _ in range(10):
        rot = random_rotation(rng)
        moved = rotate_frame(frame, rot)
        back = recover_rotation(frame, moved)
        assert np.max(np.abs(back.matrix - rot.matrix)) < TOL
    with pytest.raises(GeometryError):
        # a frame in a different 3-space is not a rotation of the seed
        other = random_compatible_frame(enriques_involution(), rng)
        recover_rotation(frame, other)


def test_unit_sphere_structure_domain():
    frame = seed_compatible_frame()
    v = unit_sphere_structure(frame, [0.0, 0.6, 0.8])
    assert v.shape == (frame.form.shape[0],)
    with pytest.raises(InputError):
        unit_sphere_structure(frame, [1.0, 1.0, 0.0])


def test_restricted_action_and_eigenframe():
    iso = enriques_involution()
    rng = np.random.default_rng(5)
    base = seed_compatible_frame()
    moved = rotate_frame(base, random_rotation(rng))
    r = restricted_action(moved, iso)
    assert np.max(np.abs(r - r.T)) < TOL
    assert abs(np.trace(r) + 1.0) < 1e-8
    aligned, signs = involution_eigenframe(moved, iso)
    assert signs == (1, -1, -1)
    assert is_compatible(aligned, iso)


def test_involution_may_be_a_plain_square_array():
    iso = enriques_involution()
    rot = random_rotation(np.random.default_rng(5))
    moved = rotate_frame(seed_compatible_frame(), rot)
    plain = np.array(iso.matrix, dtype=float)
    assert np.array_equal(
        restricted_action(moved, plain), restricted_action(moved, iso)
    )
    assert is_compatible(seed_compatible_frame(), plain.tolist())
    with pytest.raises(InputError, match="expected a square matrix"):
        is_compatible(moved, plain[:, :21])


def test_eigenframe_rejects_unpreserved_span():
    iso = enriques_involution()
    base = seed_compatible_frame()
    # tilt gamma_K out of the involution-adapted 3-space: v = e_6 + e_14 is
    # an invariant E8-pair vector of self-pairing -4, so sqrt(3) gamma_K + v
    # has self-pairing 2 but its line is not sent into the span
    v = np.zeros(22)
    v[6] = v[14] = 1.0
    tilted = np.vstack(
        [base.gammas[0], base.gammas[1], np.sqrt(3.0) * base.gammas[2] + v]
    )
    bad = HKFrame(base.form, tilted)
    with pytest.raises(GeometryError):
        restricted_action(bad, iso)


def test_eigenframe_rejects_wrong_trace():
    from k3zeta.lattices import LatticeIsometry, build_standard_lattice, direct_sum

    u = build_standard_lattice("u")
    amb = direct_sum(u, u, u)
    t = [[0] * 6 for _ in range(6)]
    for i in range(4):
        t[i][i] = 1
    t[4][4] = t[5][5] = -1  # invariant on two planes: restricted trace +1
    iso = LatticeIsometry(amb, t)
    gammas = np.zeros((3, 6))
    gammas[0, 0] = gammas[0, 1] = 1.0
    gammas[1, 2] = gammas[1, 3] = 1.0
    gammas[2, 4] = gammas[2, 5] = 1.0
    frame = HKFrame(np.asarray(amb.gram, dtype=float), gammas)
    with pytest.raises(GeometryError):
        involution_eigenframe(frame, iso)


def test_compatible_family_and_parameter_recovery():
    iso = enriques_involution()
    rng = np.random.default_rng(23)
    base = random_compatible_frame(iso, rng)
    psis = np.linspace(-3.0, 3.0, 7)
    for branch in (1, -1):
        for psi in psis:
            fr = compatible_frames(base, iso, branch, float(psi))
            assert is_compatible(fr, iso)
            b, p, res = recover_compatible_parameters(base, fr)
            assert b == branch
            assert res < TOL
            assert abs((p - psi + np.pi) % (2 * np.pi) - np.pi) < 1e-9


def test_compatible_frames_requires_compatibility():
    iso = enriques_involution()
    rng = np.random.default_rng(29)
    base = rotate_frame(seed_compatible_frame(), random_rotation(rng))
    with pytest.raises(GeometryError):
        compatible_frames(base, iso, 1, 0.3)
    with pytest.raises(InputError):
        compatible_frames(seed_compatible_frame(), iso, 2, 0.3)


def test_random_compatible_frames_are_compatible():
    iso = enriques_involution()
    rng = np.random.default_rng(31)
    for _ in range(20):
        fr = random_compatible_frame(iso, rng)
        assert is_compatible(fr, iso)


def test_symmetry_check_at_its_tolerance():
    gammas = np.eye(3, 4)
    for asym, ok in ((DEFAULT_TOL / 2, True), (2 * DEFAULT_TOL, False)):
        form = np.diag([2.0, 2.0, 2.0, -2.0])
        form[0, 3] = asym  # the frame pairing does not see this entry
        if ok:
            HKFrame(form, gammas)
        else:
            with pytest.raises(InputError, match="must be symmetric"):
                HKFrame(form, gammas)
    # an empty form passes the symmetry check and fails the pairing
    with pytest.raises(GeometryError, match="not 2\\*identity"):
        HKFrame(np.zeros((0, 0)), np.zeros((3, 0)))


def test_split_directions_is_cached_read_only_and_moves_no_frame():
    iso = enriques_involution()
    _split_directions.cache_clear()
    random_compatible_frame(iso, np.random.default_rng(0))
    rng = np.random.default_rng(5)
    warm = [random_compatible_frame(iso, rng) for _ in range(4)]
    info = _split_directions.cache_info()
    assert (info.misses, info.hits) == (2, 8)
    for sub, want_pos in ((eigenlattice(iso, 1), 1), (eigenlattice(iso, -1), 2)):
        for directions in _split_directions(sub, want_pos=want_pos):
            with pytest.raises(ValueError):
                directions[0, 0] = 0.0
    rng = np.random.default_rng(5)
    for frame in warm:
        _split_directions.cache_clear()
        cold = random_compatible_frame(enriques_involution(), rng)
        assert cold.gammas.tobytes() == frame.gammas.tobytes()
        assert cold.form.tobytes() == frame.form.tobytes()
