import numpy as np
import pytest

from k3zeta import periods
from k3zeta.errors import GeometryError, InputError
from k3zeta.frames import (
    DEFAULT_TOL,
    HKFrame,
    compatible_frames,
    is_compatible,
    random_compatible_frame,
)
from k3zeta.lattices import (
    LatticeIsometry,
    build_standard_lattice,
    eigenlattice,
    enriques_involution,
)
from k3zeta.periods import period_of

from fixtures import (
    family_parameters,
    random_rotation,
    recover_rotation,
    rotate,
    seed_frame,
)

TOL = 1e-10


def test_frame_pairing_validation():
    form = np.diag([2.0, 2.0, 2.0, -2.0])
    good = np.eye(3, 4)
    HKFrame(form, good)
    with pytest.raises(GeometryError):
        HKFrame(form, np.vstack([good[0], good[0], good[2]]))
    # booleans and numeric strings are refused, as lists or as arrays
    for bad_form, bad_gammas, name in (
        (form.tolist(), [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], "booleans"),
        (form, np.eye(3, 4, dtype=bool), "booleans"),
        (np.eye(4, dtype=bool), good, "booleans"),
        ([[np.True_, 0], [0, 1]], good, "booleans"),
        (form, good.astype(str), "strings"),
    ):
        with pytest.raises(InputError, match="^frame entries must be numbers, not %s$" % name):
            HKFrame(bad_form, bad_gammas)


def test_rotation_group_structure():
    rng = np.random.default_rng(11)
    a, b = random_rotation(rng), random_rotation(rng)
    for rot in (a, b):
        assert np.max(np.abs(rot.T @ rot - np.eye(3))) < TOL
        assert abs(np.linalg.det(rot) - 1.0) < TOL
    frame = seed_frame()
    left = rotate(frame, a @ b)
    right = rotate(rotate(frame, b), a)
    assert np.max(np.abs(left.gammas - right.gammas)) < TOL


def test_rotation_recovery():
    rng = np.random.default_rng(3)
    frame = seed_frame()
    for _ in range(10):
        rot = random_rotation(rng)
        back = recover_rotation(frame, rotate(frame, rot))
        assert np.max(np.abs(back - rot)) < TOL
    # a frame in a different 3-space is not a rotation of the seed
    other = random_compatible_frame(enriques_involution(), rng)
    back = recover_rotation(frame, other)
    assert np.max(np.abs(back @ frame.gammas - other.gammas)) > 0.1


def test_involution_must_be_a_lattice_isometry():
    iso = enriques_involution()
    moved = rotate(seed_frame(), random_rotation(np.random.default_rng(5)))
    assert is_compatible(seed_frame(), iso) and not is_compatible(moved, iso)
    plain = np.array(iso.matrix, dtype=float)
    for invol in (plain, plain.tolist(), iso.matrix):
        message = "^involution must be of type LatticeIsometry, not %s$" % (
            type(invol).__name__
        )
        with pytest.raises(InputError, match=message):
            is_compatible(seed_frame(), invol)
        with pytest.raises(InputError, match=message):
            compatible_frames(seed_frame(), invol, 1, 0.3)


@pytest.mark.parametrize(
    "frame, name",
    [(np.eye(22), "ndarray"), (None, "NoneType"), (np.eye(22).tolist(), "list")],
)
def test_frame_checks_refuse_what_is_not_a_frame(frame, name):
    iso = enriques_involution()
    message = "^frame must be of type HKFrame, not %s$" % name
    with pytest.raises(InputError, match=message):
        is_compatible(frame, iso)
    with pytest.raises(InputError, match=message):
        compatible_frames(frame, iso, 1, 0.3)
    with pytest.raises(InputError, match=message):
        period_of(frame, iso)


def test_frame_checks_refuse_an_isometry_of_another_rank():
    identity_on_u = LatticeIsometry(build_standard_lattice("U"), [[1, 0], [0, 1]])
    message = "isometry of rank 2 on a frame of dimension 22"
    with pytest.raises(InputError, match=message):
        is_compatible(seed_frame(), identity_on_u)
    with pytest.raises(InputError, match=message):
        compatible_frames(seed_frame(), identity_on_u, 1, 0.3)


def test_compatible_family_and_parameter_recovery():
    iso = enriques_involution()
    rng = np.random.default_rng(23)
    base = random_compatible_frame(iso, rng)
    psis = np.linspace(-3.0, 3.0, 7)
    for branch in (1, -1):
        for psi in psis:
            fr = compatible_frames(base, iso, branch, float(psi))
            assert is_compatible(fr, iso)
            b, p = family_parameters(base, fr)
            assert b == branch
            rebuilt = compatible_frames(base, iso, b, p)
            assert np.max(np.abs(rebuilt.gammas - fr.gammas)) < TOL
            assert abs((p - psi + np.pi) % (2 * np.pi) - np.pi) < 1e-9


def test_compatible_frames_requires_compatibility():
    iso = enriques_involution()
    rng = np.random.default_rng(29)
    base = rotate(seed_frame(), random_rotation(rng))
    with pytest.raises(GeometryError):
        compatible_frames(base, iso, 1, 0.3)
    with pytest.raises(InputError):
        compatible_frames(seed_frame(), iso, 2, 0.3)


def test_random_compatible_frames_are_compatible():
    iso = enriques_involution()
    rng = np.random.default_rng(31)
    for _ in range(20):
        fr = random_compatible_frame(iso, rng)
        assert is_compatible(fr, iso)


def test_sign_draw_reads_the_stream_as_a_choice_of_two_did():
    # the sampler draws its sign as (-1.0, 1.0)[rng.integers(2)]; that reads
    # the sign, and leaves the stream, as rng.choice([-1.0, 1.0]) did, so
    # seeded frames (and the benchmark's digest) keep their values
    for seed in range(500):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert float(old.choice([-1.0, 1.0])) == (-1.0, 1.0)[int(new.integers(2))]
        assert old.uniform() == new.uniform()


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


def test_split_directions_is_cached_read_only_and_moves_no_frame(monkeypatch):
    iso = enriques_involution()
    calls = []

    def counted(a, _fn=np.linalg.eigh):
        calls.append(1)
        return _fn(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    # a cold context takes its domain from this involution, not from an
    # equal one an earlier test made
    periods._marking_context.cache_clear()
    rng = np.random.default_rng(5)
    warm = [random_compatible_frame(iso, rng) for _ in range(4)]
    labels = period_of(warm[0], iso).labels()
    # one eigendecomposition per eigenlattice, kept on the sublattice: the
    # sampler's later frames and the period label read the same arrays
    assert len(calls) == 2
    minus = eigenlattice(iso, -1)
    assert period_of(warm[1], iso).plus.sublattice is minus
    assert minus.split_directions is minus.split_directions
    for sub in (eigenlattice(iso, 1), minus):
        for directions in sub.split_directions:
            assert not directions.flags.writeable
            with pytest.raises(ValueError):
                directions[0, 0] = 0.0
        with pytest.raises(AttributeError):
            sub.split_directions = None
    monkeypatch.undo()
    # a fresh involution computes its own directions, to the same bits
    rng = np.random.default_rng(5)
    for frame in warm:
        cold = random_compatible_frame(enriques_involution(), rng)
        assert cold.gammas.tobytes() == frame.gammas.tobytes()
        assert cold.form.tobytes() == frame.form.tobytes()
    periods._marking_context.cache_clear()
    assert period_of(warm[0], enriques_involution()).labels() == labels


@pytest.mark.parametrize(
    "sign, swap, what",
    [
        (1, "pos", "invariant direction"),
        (-1, "pos", "anti-invariant direction"),
        (1, "neg", "negative admixture"),
    ],
)
def test_degenerate_split_is_a_geometry_error(sign, swap, what):
    # a split whose "positive" directions have negative norm (or whose
    # "negative" ones positive norm) would put a float sqrt of a negative
    # radicand, a NaN, into the frame; it is refused as geometry instead
    iso = enriques_involution()
    sub = eigenlattice(iso, sign)
    pos, neg, ref = sub.split_directions
    degenerate = (neg[:, : pos.shape[1]], neg, ref) if swap == "pos" else (pos, pos, ref)
    # the sampler reads the directions this eigenlattice keeps
    vars(sub)["split_directions"] = degenerate
    with pytest.raises(GeometryError, match="frame sampling: %s has norm" % what):
        random_compatible_frame(iso, np.random.default_rng(3))


def test_sampler_refuses_a_wrong_positive_count():
    # the invariant lattice of -f is the anti-invariant one of f, of
    # signature (2, 10), where the sampler needs one positive direction
    f = enriques_involution()
    negated = LatticeIsometry(f.lattice, [[-x for x in row] for row in f.matrix])
    with pytest.raises(GeometryError, match="^eigenspace has 2 positive directions, expected 1$"):
        random_compatible_frame(negated, np.random.default_rng(0))


@pytest.mark.parametrize("sign", [1, -1])
def test_sampler_refuses_plus_or_minus_the_identity(sign):
    k3 = build_standard_lattice("K3")
    identity = LatticeIsometry(k3, (sign * np.eye(22, dtype=int)).tolist())
    with pytest.raises(GeometryError, match="^involution has a trivial eigenlattice$"):
        random_compatible_frame(identity, np.random.default_rng(0))
