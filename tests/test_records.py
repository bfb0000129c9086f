"""The record contract of the package's immutable value classes: no
assignment or deletion, field-wise equality and hashing where records are
values, identity where they are not, and a `Name(field=value, ...)` repr."""

import pytest

from k3zeta import frames, lattices, mellin, periods, spectral
from k3zeta.models import flat_torus_curve, flat_torus_spectrum

from fixtures import seed_frame

U = ((0, 1), (1, 0))
I2 = ((1, 0), (0, 1))


def _u():
    return lattices.Lattice(U)


def _result(x=0.0):
    return mellin.ContinuationResult(-1.0, x, 1e-12, 0.25)


def _determinant():
    return spectral.DeterminantReport(1.5, 1e-11, _result(0.5), _result(-0.5))


def _pair():
    return periods.period_of(seed_frame(), lattices.enriques_involution())


def _point():
    p = _pair().plus
    return periods.PeriodPoint(p.sublattice, p.coords)


def _context():
    ctx = periods._marking_context(lattices.enriques_involution(), None)
    return periods._MarkingContext(ctx.domain, ctx.coords_of)


# (class, first field, a builder giving a fresh, equal record on each call)
VALUE_RECORDS = [
    (lattices.Lattice, "gram", _u),
    (lattices.LatticeIsometry, "lattice", lambda: lattices.LatticeIsometry(_u(), I2)),
    (
        lattices.SublatticeBasis,
        "ambient",
        lambda: lattices.SublatticeBasis(_u(), [(1, 0)]),
    ),
    (
        lattices.DiscriminantInfo,
        "divisors",
        lambda: lattices.DiscriminantInfo((2, 2), 2, True, 4),
    ),
    (
        mellin.TraceModel,
        "coeffs",
        lambda: mellin.TraceModel(((-1.0, 2.0), (0.0, 1.0)), 0.5),
    ),
    (mellin.ContinuationResult, "zeta_at_0", _result),
    (spectral.HeatTail, "dim", lambda: spectral.HeatTail(2, [1.0, 0.0, 0.5], None)),
    (spectral.CurveComponent, "volume", lambda: flat_torus_curve(I2, 30.0)),
    (spectral.DeterminantReport, "value", _determinant),
    (
        spectral.TorsionReport,
        "value",
        lambda: spectral.TorsionReport(2.0, 1e-11, 0.69, 0.0),
    ),
    (
        spectral.TauReport,
        "value",
        lambda: spectral.TauReport(0.5, 1e-10, -0.69, _determinant(), (1.0, 2.0)),
    ),
    (
        spectral.BorcherdsReport,
        "tau",
        lambda: spectral.BorcherdsReport(0.5, 2, 16.0, 0.5, None, None),
    ),
]

IDENTITY_RECORDS = [
    (frames.HKFrame, "form", seed_frame),
    (periods.PeriodPoint, "sublattice", _point),
    (periods.PeriodPair, "plus", lambda: periods.PeriodPair(_pair().plus)),
    (periods._MarkingContext, "domain", _context),
]


def _spectrum():
    # the model builds each spectrum once; a copy through the constructor
    # is a second, equal object
    s = flat_torus_spectrum(I2, (1, 0), 30.0)
    return spectral.EquivariantSpectrum(s.entries, s.kernel, s.tail, s.cutoff)


# a spectrum has its own value equality, hash and repr (of its entries)
SPECTRUM = (spectral.EquivariantSpectrum, "kernel", _spectrum)


def _cases(cases):
    return pytest.mark.parametrize(
        "cls, field, build", cases, ids=[cls.__name__ for cls, _, _ in cases]
    )


@_cases(VALUE_RECORDS + IDENTITY_RECORDS + [SPECTRUM])
def test_records_refuse_assignment_and_deletion(cls, field, build):
    rec = build()
    assert type(rec) is cls
    before = repr(getattr(rec, field))
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    assert repr(getattr(rec, field)) == before
    assert not hasattr(rec, "extra")


@_cases(VALUE_RECORDS + [SPECTRUM])
def test_value_records_compare_and_hash_by_fields(cls, field, build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object()


@_cases(IDENTITY_RECORDS)
def test_identity_records_compare_by_identity(cls, field, build):
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


@_cases(VALUE_RECORDS + IDENTITY_RECORDS)
def test_record_repr_names_its_fields(cls, field, build):
    rec = build()
    text = repr(rec)
    assert text.startswith("%s(%s=%r" % (cls.__name__, field, getattr(rec, field)))
    assert text.endswith(")")


def test_spectrum_repr_names_its_entries():
    spec = SPECTRUM[2]()
    assert repr(spec).startswith("EquivariantSpectrum(entries=%r" % (spec.entries,))


def test_value_records_differ_on_any_field():
    assert _result(0.5) != _result(-0.5)
    assert lattices.Lattice(U) != lattices.Lattice(I2)
    tail = spectral.HeatTail(2, [1.0, 0.0, 0.5])
    assert tail != spectral.HeatTail(2, [1.0, 0.0, 0.5], [0.0] * 3)
    # equal fields in a record of another class are not equal
    info = lattices.DiscriminantInfo((2,), 1, True, 2)
    assert info != spectral.TorsionReport((2,), 1, True, 2)


@pytest.mark.parametrize(
    "cls, fields, values",
    [
        (
            lattices.DiscriminantInfo,
            ("divisors", "a_invariant", "two_elementary", "group_order"),
            ((2,), 1, True, 2),
        ),
        (mellin.TraceModel, ("coeffs", "next_exponent"), (((0.0, 1.0),), 1.0)),
        (
            mellin.ContinuationResult,
            ("zeta_at_0", "zeta_prime_at_0", "error_estimate", "split_point"),
            (1.0, 2.0, 3.0, 4.0),
        ),
        (
            spectral.DeterminantReport,
            ("value", "error_estimate", "plus", "minus"),
            (1.0, 2.0, _result(), _result()),
        ),
        (
            spectral.TorsionReport,
            ("value", "error_estimate", "log_value", "determinant_residual"),
            (1.0, 2.0, 3.0, 4.0),
        ),
        (
            spectral.TauReport,
            ("value", "error_estimate", "log_value", "determinant", "curve_factors"),
            (1.0, 2.0, 3.0, None, ()),
        ),
        (
            spectral.BorcherdsReport,
            (
                "tau",
                "nu",
                "implied_norm",
                "round_trip_tau",
                "implied_determinant_factor",
                "determinant_with_constant",
            ),
            (0.5, 2, 16.0, 0.5, 1.0, None),
        ),
        (periods._MarkingContext, ("domain", "coords_of"), ("d", "c")),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else "",
)
def test_plain_records_construct_by_position_only(cls, fields, values):
    rec = cls(*values)
    assert tuple(getattr(rec, f) for f in fields) == values
    # _of stores through the same loop, and refuses the same wrong counts
    assert tuple(getattr(cls._of(*values), f) for f in fields) == values
    # a keyword, even with every field given, and a wrong count are refused
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, values)))
    with pytest.raises(TypeError):
        cls(values[0], **dict(zip(fields[1:], values[1:])))
    for wrong in (values[:-1], values + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)
        with pytest.raises(TypeError):
            cls._of(*wrong)
