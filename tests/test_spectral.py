import json
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3zeta import (
    cli,
    frames,
    intlinalg,
    jsonio,
    lattices,
    mellin,
    models,
    periods,
    spectral,
)
from k3zeta.errors import AccuracyError, ConsistencyError, InputError
from k3zeta.models import (
    flat_torus_curve,
    flat_torus_spectrum,
    round_sphere_curve,
    round_sphere_spectrum,
)
from k3zeta.spectral import (
    CurveComponent,
    EquivariantSpectrum,
    HeatTail,
    borcherds_report,
    dolbeault_zeta,
    equivariant_determinant_report,
    equivariant_torsion_report,
    tau_iota,
    truncate_entries,
    zeta_signed,
)

from fixtures import checked_continue_trace, seed_frame
from oracles import direct_zeta, scaled_spectrum

I2 = ((1, 0), (0, 1))
TOL = 1e-8
PRESETS = os.path.join(os.path.dirname(__file__), "data", "presets")


@pytest.fixture(autouse=True)
def _engine_contract(monkeypatch):
    # every continuation a report runs here gets the arguments the engine
    # reads unchecked
    monkeypatch.setattr(spectral, "continue_trace", checked_continue_trace)


# complete synthetic spectrum: one positive state in the kernel,
# eigenvalue 1 with signs (2, 1), eigenvalue 2 with signs (1, 0)
SYNTH_TAIL = HeatTail(0, (5.0,), (3.0,))
SYNTH = EquivariantSpectrum(((1.0, 2, 1), (2.0, 1, 0)), (1, 0), SYNTH_TAIL)


def test_heat_tail_validation():
    with pytest.raises(InputError):
        HeatTail(2, (2.0,))  # dim 2 needs at least three coefficients
    with pytest.raises(InputError):
        HeatTail(2, (-1.0, 0.0, 0.0))  # leading coefficient is a volume
    with pytest.raises(InputError):
        HeatTail(0, (1.0, 2.0))  # dim 0 is a single constant
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            HeatTail(2, (2.0, bad, 1.0))
        with pytest.raises(InputError):
            HeatTail(2, (2.0, 0.0, 1.0), (2.0, 0.0, bad))
    with pytest.raises(InputError):
        HeatTail(1.5, (2.0, 0.0, 1.0))
    assert HeatTail(2, (2.0, 0.0, 1.0)).free
    assert not HeatTail(2, (2.0, 0.0, 1.0), (2.0, 0.0, 1.0)).free


@pytest.mark.parametrize(
    "straight, twisted, sector",
    [
        # the plus pole part 8.5e307 / 0.5 + 8.5e307 / 1 overflows in fsum
        ((1.0, 0.0, 0.0, 1.7e308, 1.7e308), None, "plus"),
        # (straight + twisted) / 2 is inf on t^0
        ((1.0, 0.0, 1.7e308), (1.0, 0.0, 1.7e308), "plus"),
        # (straight - twisted) / 2 is inf on t^0
        ((1.0, 0.0, 1.7e308), (1.0, 0.0, -1.7e308), "minus"),
        # the plus pole terms are -inf on t^-1 and inf on t^(1/2): fsum
        # raises ValueError, not OverflowError
        ((1.7e308, 0.0, 0.0, 1.7e308), (1.7e308, 0.0, 0.0, 1.7e308), "plus"),
    ],
)
def test_a_tail_past_float_range_is_refused_at_construction(straight, twisted, sector):
    with pytest.raises(InputError, match="heat tail: the %s sector" % sector):
        HeatTail(2, straight, twisted)


def test_spectrum_validation():
    tail = HeatTail(2, (2.0, 0.0, 1.0))
    with pytest.raises(InputError):
        EquivariantSpectrum(((2.0, 1, 0), (1.0, 1, 0)), (0, 0), tail, 4.0)
    with pytest.raises(InputError):
        EquivariantSpectrum(((0.0, 1, 0),), (0, 0), tail, 4.0)
    with pytest.raises(InputError):
        EquivariantSpectrum(((1.0, -1, 0),), (0, 0), tail, 4.0)
    with pytest.raises(InputError):
        EquivariantSpectrum(((1.0, 0, 0),), (0, 0), tail, 4.0)
    with pytest.raises(InputError):
        EquivariantSpectrum(((1.0, 1, 0),), (0, 0), tail)  # needs a cutoff
    with pytest.raises(InputError):
        EquivariantSpectrum(((1.0, 1, 0), (3.0, 1, 0)), (0, 0), tail, 2.0)
    with pytest.raises(InputError):
        EquivariantSpectrum(((1.0, 2, 1),), (1, 0), HeatTail(0, (9.0,), (2.0,)))
    assert SYNTH.complete and SYNTH.cutoff == math.inf



@pytest.mark.parametrize(
    "entries, kernel, tail",
    [
        (((math.nan, 1, 0),), (0, 0), HeatTail(0, (1.0,), (1.0,))),
        (((1.0, 1, 0), (math.inf, 1, 0)), (0, 0), HeatTail(0, (2.0,), (2.0,))),
        (((1.0, 1.7, 0),), (0, 0), HeatTail(0, (1.0,), (1.0,))),
        (((1.0, 1, 0.5),), (0, 0), HeatTail(0, (1.0,), (1.0,))),
        (((1.0, 1, 0),), (1,), HeatTail(0, (2.0,), (2.0,))),
        (((1.0, 1, 0),), (1, 0, 0), HeatTail(0, (2.0,), (2.0,))),
        (((1.0, 1, 0),), 1, HeatTail(0, (2.0,), (2.0,))),
        (((1.0, 1, 0),), (0.5, 0.5), HeatTail(0, (1.0,), (1.0,))),
        (((1.0, 1, 0),), (-1, 1), HeatTail(0, (1.0,), (1.0,))),
        (((1.0, 1),), (0, 0), HeatTail(0, (1.0,), (1.0,))),
        # a free tail declares a signed state count of zero, here 3
        (((1.0, 2, 1),), (1, 0), HeatTail(0, (4.0,))),
        # straight and twisted each within 1e-9 of their counts relative to
        # the 10**9 + 1 states, but the plus sector's constant, 1.25, misses
        # its one state: once accepted here and refused when continued
        (((1.0, 1, 0),), (0, 10**9), HeatTail(0, [10**9 + 1.5], [1 - 10**9])),
    ],
)
def test_malformed_spectra_are_refused_at_construction(entries, kernel, tail):
    with pytest.raises(InputError):
        EquivariantSpectrum(entries, kernel, tail)


def test_truncated_spectrum_needs_a_finite_cutoff():
    tail = HeatTail(2, (2.0, 0.0, 1.0))
    for cutoff in (math.nan, math.inf, -math.inf, 0.0, -1.0, "four"):
        with pytest.raises(InputError):
            EquivariantSpectrum(((1.0, 1, 0),), (0, 0), tail, cutoff)
    assert EquivariantSpectrum(((1.0, 1, 0),), (0.0, 0), tail, 4).kernel == (0, 0)


@pytest.mark.parametrize("cutoff", ["abc", None, True, -1, 5.0, math.nan])
def test_complete_spectrum_takes_no_cutoff(cutoff):
    tail = HeatTail(0, (1.0,), (1.0,))
    with pytest.raises(InputError) as exc:
        EquivariantSpectrum(((1.0, 1, 0),), (0, 0), tail, cutoff)
    assert str(exc.value) == "a complete spectrum takes no cutoff, got %r" % (cutoff,)
    assert EquivariantSpectrum(((1.0, 1, 0),), (0, 0), tail, math.inf).cutoff == math.inf

def test_achievable_does_not_depend_on_the_tolerance():
    # no split reaches these targets; the least estimate over the whole grid
    # of splits is the same whatever the target asked for
    spec = flat_torus_spectrum(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 0), 80.0)
    for sign in (1, -1):
        seen = set()
        for tol in (1e-8, 1e-6, 1e-4):
            with pytest.raises(AccuracyError) as err:
                zeta_signed(spec, sign, tol)
            seen.add(err.value.achievable)
        assert len(seen) == 1
        assert seen.pop() > 1e-4


def test_a_report_refuses_with_the_achievable_of_its_worst_sector(tmp_path):
    # achievable 1.451e-4 (plus), 1.365e-4 (minus), 9.727e-4 (twisted): at
    # 1e-8 and 1e-4 all three sectors miss, at 2e-4 the twisted one alone
    spec = flat_torus_spectrum(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 0), 80.0)
    path = tmp_path / "spectrum.json"
    path.write_text(jsonio.canonical_dumps(jsonio.encode_spectrum(spec)))
    seen = set()
    for tol in (1e-8, 1e-4, 2e-4):
        with pytest.raises(AccuracyError) as torsion:
            equivariant_torsion_report(spec, tol)
        argv = ["zeta", "--spectrum", str(path), "--tol", repr(tol)]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(AccuracyError) as zeta:
            args.func(args)
        seen |= {torsion.value.achievable, zeta.value.achievable}
    assert len(seen) == 1
    assert "achievable about 9.727e-04" in str(zeta.value)
    assert equivariant_torsion_report(spec, 1e-3).value > 0.0


def test_direct_zeta_matches_engine_on_complete_spectrum():
    for sign in (1, -1):
        zeta0, zeta_prime0 = direct_zeta(SYNTH, sign)
        engine = zeta_signed(SYNTH, sign, TOL)
        assert abs(zeta0 - engine.zeta_at_0) < 1e-12
        assert abs(zeta_prime0 - engine.zeta_prime_at_0) < 1e-12


def _complete(lams, counts, kernel):
    """The complete spectrum of these entries, its tail constants their
    totals."""
    plus, minus = counts.sum(axis=0).tolist()
    tail = HeatTail(
        0,
        (float(kernel[0] + kernel[1] + plus + minus),),
        (float(kernel[0] - kernel[1] + plus - minus),),
    )
    return EquivariantSpectrum(np.column_stack([lams, counts]), kernel, tail)


def _complete_lambdas(draw, rng):
    """1 to 3000 eigenvalues over 12 decades, or packed within 1e-5 of 1,
    where the logs are small and the twisted weights m_plus - m_minus
    cancel."""
    n = draw(st.integers(1, 3000))
    if draw(st.booleans()):
        return np.unique(10.0 ** rng.uniform(-6.0, 6.0, n))
    return np.unique(1.0 + rng.uniform(-1e-5, 1e-5, n))


@st.composite
def complete_spectra(draw):
    """A complete spectrum: counts up to 5e7, kernel dimensions 0 to 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lams = _complete_lambdas(draw, rng)
    top = draw(st.sampled_from([1, 1000, 5 * 10**7]))
    counts = rng.integers(0, top, (lams.size, 2), endpoint=True)
    counts[counts.sum(axis=1) == 0, 0] = 1
    kernel = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    return _complete(lams, counts, kernel)


@st.composite
def complete_spectra_in_range(draw):
    """A complete spectrum whose determinant, torsion and tau are floats:
    the minus counts equal the plus counts, up to 5e7, but for one more
    state of either sign on at most 10 entries, so sum (m_plus - m_minus)
    log lambda is at most 10 log 1e6 in size while each sector's sum may
    be large."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lams = _complete_lambdas(draw, rng)
    top = draw(st.sampled_from([1, 1000, 5 * 10**7]))
    same = rng.integers(0, top, lams.size, endpoint=True)
    same[same == 0] = 1
    counts = np.column_stack([same, same])
    odd = rng.permutation(lams.size)[: draw(st.integers(0, 10))]
    counts[odd, rng.integers(0, 2, odd.size)] += 1
    kernel = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    return _complete(lams, counts, kernel)


@settings(max_examples=60, deadline=None)
@given(complete_spectra(), st.floats(-4e-9, 4e-9), st.floats(-4e-9, 4e-9))
def test_a_complete_spectrum_accepted_is_continued(spectrum, ds, dt):
    """Tail constants moved off their counts by up to 4e-9 of the total,
    on both sides of the tolerance: the constructor refuses the spectrum,
    or every sector is continued, never refused for its constants."""
    straight, twisted = spectrum.tail.straight[0], spectrum.tail.twisted[0]
    tail = HeatTail(0, (straight * (1.0 + ds),), (twisted + dt * straight,))
    try:
        moved = EquivariantSpectrum(spectrum.entries, spectrum.kernel, tail)
    except InputError as exc:
        assert str(exc).startswith("complete spectrum: the ")
        return
    for res in spectral.zeta_values(moved)[:2]:
        assert math.isfinite(res.zeta_prime_at_0)


def _exact_zeta_primes(spectrum):
    """-sum w log lambda of the plus, minus and twisted sectors, in 40
    digits (the caller holds the precision)."""
    logs = [mpmath.log(lam) for lam in spectrum.lambdas().tolist()]
    plus, minus = spectrum.mults(1), spectrum.mults(-1)
    return [
        -mpmath.fsum(c * x for c, x in zip(w.tolist(), logs))
        for w in (plus, minus, plus - minus)
    ]


@settings(max_examples=100, deadline=None)
@given(complete_spectra())
def test_complete_zeta_values_lie_within_their_bars(spectrum):
    plus, minus, (twisted, _, _) = spectral.zeta_values(spectrum)
    weights = (
        spectrum.mults(1),
        spectrum.mults(-1),
        spectrum.mults(1) - spectrum.mults(-1),
    )
    with mpmath.workdps(40):
        exact = _exact_zeta_primes(spectrum)
        for res, w, zp in zip((plus, minus, twisted), weights, exact):
            assert abs(res.zeta_prime_at_0 - zp) <= res.error_estimate
            assert abs(res.zeta_at_0 - math.fsum(w.tolist())) <= res.error_estimate


@settings(max_examples=100, deadline=None)
@given(complete_spectra_in_range())
@example(_complete(np.array([1.01, 1.02]), np.array([[1, 0], [1, 0]]), (0, 0)))
def test_complete_reports_lie_within_their_bars(spectrum):
    # the reports round an exp, a log or a power of their own, beyond the
    # sectors' values, and their bars must cover that too
    det = spectral.equivariant_determinant_report(spectrum)
    torsion = spectral.equivariant_torsion_report(spectrum)
    tau = spectral.tau_iota(spectrum)
    with mpmath.workdps(40):
        plus, minus, twisted = _exact_zeta_primes(spectrum)
        exact_det = mpmath.exp(-plus + minus)
        for report, exact in (
            (det, exact_det),
            (torsion, mpmath.exp(2 * twisted)),
            (tau, exact_det**-2),
        ):
            assert abs(report.value - exact) <= report.error_estimate


def _curve(lam, count, volume=1.0):
    """A fixed curve whose complete spectrum is `count` states at lam."""
    tail = HeatTail(0, (float(count),), (float(count),))
    spectrum = EquivariantSpectrum(((lam, count, 0),), (0, 0), tail)
    return CurveComponent(volume, spectrum)


def _finite_or_refused(call):
    """The report of call(), with a positive normal value and a finite bar,
    or None when it is refused for leaving float range."""
    try:
        report = call()
    except InputError as exc:
        assert "leaves floating-point range: its log is " in str(exc)
        return None
    assert 2.0**-1022 <= report.value < math.inf
    assert math.isfinite(report.error_estimate)
    return report


# a spectrum, its curves, and whether its determinant, torsion and tau are
# refused; before their refusal these ended in an OverflowError, a
# ValueError or a report of 0.0
FLOAT_RANGE = {
    "minus-1e-6-x600": (((1e-6, 0, 600),), None, (True, True, True)),
    "both-1e-6": (((1e-6, 1200, 600),), None, (True, True, True)),
    "plus-0.01-x87": (((0.01, 87, 0),), None, (False, True, True)),
    "curve-det-underflow": (SYNTH.entries, (_curve(1e-6, 600),), (False, False, True)),
    "curve-det-overflow": (SYNTH.entries, (_curve(1e6, 600),), (False, False, True)),
    "curve-factor-overflow": (
        SYNTH.entries,
        (_curve(2.0, 3), _curve(0.01, 30, 1e300)),
        (False, False, True),
    ),
}


@pytest.mark.parametrize("name", sorted(FLOAT_RANGE))
def test_reports_past_float_range_are_refused(tmp_path, capsys, name):
    entries, curves, refused = FLOAT_RANGE[name]
    lams, counts = np.array([e[0] for e in entries]), np.array([e[1:] for e in entries])
    spectrum = _complete(lams, counts, (1, 0))
    calls = (
        lambda: equivariant_determinant_report(spectrum),
        lambda: equivariant_torsion_report(spectrum),
        lambda: tau_iota(spectrum, curves),
    )
    assert tuple(_finite_or_refused(call) is None for call in calls) == refused
    # the command line exits 2, with the refusal and no traceback
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(jsonio.encode_spectrum(spectrum)))
    argv = ["tau", "--spectrum", str(path)]
    if curves:
        argv += ["--curves", str(tmp_path / "curves.json")]
        (tmp_path / "curves.json").write_text(
            json.dumps([jsonio.encode_curve(c) for c in curves])
        )
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


@settings(max_examples=50, deadline=None)
@given(complete_spectra(), st.floats(-6.0, 6.0), st.sampled_from([1, 1000, 5 * 10**7]))
def test_reports_are_finite_or_refused(spectrum, log_lam, count):
    # never another exception, and never a value of 0 or a subnormal
    curves = (_curve(10.0**log_lam, count),)
    _finite_or_refused(lambda: equivariant_determinant_report(spectrum))
    _finite_or_refused(lambda: equivariant_torsion_report(spectrum))
    _finite_or_refused(lambda: tau_iota(spectrum))
    _finite_or_refused(lambda: tau_iota(spectrum, curves))


def test_scaling_law():
    base = round_sphere_spectrum(l_max=200)
    for c in (2.0, 10.0):
        scaled = scaled_spectrum(base, c)
        for sign in (1, -1):
            z0 = zeta_signed(base, sign, TOL)
            zc = zeta_signed(scaled, sign, TOL)
            assert abs(zc.zeta_at_0 - z0.zeta_at_0) < 1e-8
            want = z0.zeta_prime_at_0 - math.log(c) * z0.zeta_at_0
            assert abs(zc.zeta_prime_at_0 - want) < 1e-7


def test_dolbeault_identities_are_exact():
    for spectrum in (
        round_sphere_spectrum(),
        flat_torus_spectrum(I2, character=(1, 0)),
    ):
        q0 = dolbeault_zeta(spectrum, 0, TOL)
        q1 = dolbeault_zeta(spectrum, 1, TOL)
        q2 = dolbeault_zeta(spectrum, 2, TOL)
        assert q2.zeta_at_0 == -q0.zeta_at_0
        assert q2.zeta_prime_at_0 == -q0.zeta_prime_at_0
        assert q1.zeta_at_0 == 0.0
        assert q1.zeta_prime_at_0 == 0.0
    with pytest.raises(InputError):
        dolbeault_zeta(round_sphere_spectrum(l_max=30), 3, TOL)



def test_each_distinct_continuation_runs_once(monkeypatch, capsys):
    # one engine call per spectrum, with one weight row per distinct sector
    calls = []
    real = spectral.continue_trace

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "continue_trace", counting)
    spectrum = round_sphere_spectrum(l_max=300)
    equivariant_torsion_report(spectrum, TOL)
    assert calls == [3]
    del calls[:]
    assert cli.main(["zeta", "--builtin", "s2-antipodal"]) == 0
    assert capsys.readouterr().out
    assert calls == [3]
    del calls[:]
    dolbeault_zeta(spectrum, 1, TOL)
    assert calls == [1]
    del calls[:]
    pinned = flat_torus_spectrum(I2, character=(0, 0), cutoff=300.0)
    tau_iota(pinned, (round_sphere_curve(l_max=300),), TOL)
    assert calls == [2, 1]
    # a curve equal to the spectrum shares its plus sector
    for spectrum, curve in (
        (flat_torus_spectrum(I2, None, 300.0), flat_torus_curve(I2, 300.0)),
        (round_sphere_spectrum(1.0, False, 300), round_sphere_curve(1.0, 300)),
    ):
        del calls[:]
        tau_iota(spectrum, (curve,), TOL)
        assert calls == [2]
    # curve 1 of the file is the spectrum, curve 2 the unit sphere
    del calls[:]
    argv = ["tau", "--spectrum", os.path.join(PRESETS, "spectrum-torus-fixed.json")]
    argv += ["--curves", os.path.join(PRESETS, "curves-torus-sphere.json")]
    assert cli.main(argv) == 0
    assert calls == [2, 1]


@pytest.mark.parametrize("twisted", [False, True], ids=["free", "fixed-curves"])
def test_engine_reads_the_tails_own_sector_models(monkeypatch, twisted):
    # each sector's model and the truncation-bound model are built once, by
    # the HeatTail, and handed to the engine as those objects: no call
    # builds its own copy
    seen = []
    real = spectral.continue_trace

    def spying(*args, **kwargs):
        seen.append(args[3:5])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "continue_trace", spying)
    spectrum = round_sphere_spectrum(1.0, not twisted, 200)
    spectral.zeta_values(spectrum, TOL)
    [(models, bound_model)] = seen
    assert len(models) == 3
    for model, sector in zip(models, (1, -1, 0)):
        assert model is spectrum.tail.models[sector]
    assert list(spectrum.tail.models) == [1, -1, 0]
    assert bound_model is spectrum.tail.bound


def test_free_tail_shares_one_model_for_plus_and_minus():
    free = HeatTail(2, [1.0, 0.0, 0.5])
    assert free.models[1] is free.models[-1]
    assert free.models[0] == mellin.TraceModel((), math.inf)
    fixed = HeatTail(2, [1.0, 0.0, 0.5], [0.5, 0.0, 0.25])
    assert fixed.models[1] is not fixed.models[-1]
    assert fixed.models[1] == mellin.TraceModel.from_ladder(2, [0.75, 0.0, 0.375])
    assert fixed.models[-1] == mellin.TraceModel.from_ladder(2, [0.25, 0.0, 0.125])
    assert free.bound == mellin.TraceModel.from_ladder(2, [1.0, 0.0, 0.5])
    assert free.bound is free.bound
    # the models are kept beside the fields, not as one: equality, hash and
    # repr read the fields only
    again = HeatTail(2, [1.0, 0.0, 0.5])
    assert again.models is not free.models
    assert again == free and hash(again) == hash(free)
    assert repr(again) == "HeatTail(dim=2, straight=(1.0, 0.0, 0.5), twisted=None)"


def test_a_shared_sector_keeps_its_value_and_its_refusal():
    # equal spectra that are distinct objects: the builder's cache is
    # emptied between the two builds
    spectrum = flat_torus_spectrum(I2, None, 300.0)
    models._torus_of.cache_clear()
    curve = flat_torus_curve(I2, 300.0)
    assert curve.spectrum == spectrum and curve.spectrum is not spectrum
    plus = zeta_signed(curve.spectrum, 1, TOL)
    tau = tau_iota(spectrum, (curve,), TOL)
    assert tau.curve_factors[0] == curve.volume / math.exp(-plus.zeta_prime_at_0)
    # at 1e-14 the plus sector misses and the minus sector, all zero, does
    # not; the refusal names the first request of the plus sector, with the
    # figure and the words of continuing each request apart
    tol = 1e-14
    with pytest.raises(AccuracyError) as alone:
        zeta_signed(spectrum, 1, tol)
    assert zeta_signed(spectrum, -1, tol).zeta_prime_at_0 == 0.0
    with pytest.raises(AccuracyError) as shared:
        tau_iota(spectrum, (curve,), tol)
    assert shared.value.achievable == alone.value.achievable == 1.786416308546873e-14
    assert str(shared.value) == str(alone.value) == (
        "plus sector of the spectrum: requested tolerance 1.000e-14 is not"
        " reachable with cutoff 300 (achievable about 1.786e-14); extend the"
        " spectrum or relax --tol"
    )


def test_torsion_residual_is_small():
    for spectrum in (
        round_sphere_spectrum(),
        flat_torus_spectrum(I2, character=(1, 0)),
    ):
        report = equivariant_torsion_report(spectrum, TOL)
        assert abs(report.determinant_residual) < 1e-8
        assert report.value > 0.0
        assert math.isclose(report.value, math.exp(report.log_value), rel_tol=1e-14)


def test_balanced_synthetic_tau_is_one():
    tail = HeatTail(0, (4.0,), (0.0,))
    spectrum = EquivariantSpectrum(((2.0, 1, 1),), (1, 1), tail)
    det = equivariant_determinant_report(spectrum, TOL)
    assert det.value == 1.0
    tau = tau_iota(spectrum, None, TOL)
    assert tau.value == 1.0


def test_free_tau_is_inverse_square_of_determinant():
    spectrum = round_sphere_spectrum()
    det = equivariant_determinant_report(spectrum, TOL)
    tau = tau_iota(spectrum, None, TOL)
    assert tau.value == det.value**-2.0
    assert tau.determinant.value == det.value
    assert tau.curve_factors == ()


def test_neutral_curve_leaves_tau_at_inverse_square():
    pinned = flat_torus_spectrum(I2, character=(0, 0), cutoff=900.0)
    neutral = CurveComponent(
        1.0, EquivariantSpectrum(((1.0, 1, 0),), (0, 0), HeatTail(0, (1.0,), (1.0,)))
    )
    tau = tau_iota(pinned, (neutral,), TOL)
    assert len(tau.curve_factors) == 1
    assert math.isclose(tau.curve_factors[0], 1.0, rel_tol=1e-14)
    assert math.isclose(tau.value, tau.determinant.value**-2.0, rel_tol=1e-12)



def test_curve_determinant_is_the_plus_sector_determinant():
    pinned = flat_torus_spectrum(I2, character=(0, 0), cutoff=900.0)
    for curve in (
        round_sphere_curve(radius=1.3, l_max=300),
        flat_torus_curve(((2, 1), (1, 3)), cutoff=500.0),
    ):
        spec = curve.spectrum
        plus = zeta_signed(spec, +1, TOL)
        tau = tau_iota(pinned, (curve,), TOL)
        assert tau.curve_factors == (
            curve.volume / math.exp(-plus.zeta_prime_at_0),
        )
        # the plus sector continues with the straight model itself
        straight = spectral.TraceModel.from_ladder(spec.tail.dim, spec.tail.straight)
        [res] = spectral.continue_trace(
            spec.lambdas(),
            [spec.mults(1)],
            [float(spec.kernel[0])],
            [straight],
            straight,
            spec.cutoff,
            target=TOL,
        )
        assert res.zeta_prime_at_0 == plus.zeta_prime_at_0
        assert res.error_estimate == plus.error_estimate


def test_curve_component_needs_the_trivial_involution():
    ok = round_sphere_curve(l_max=10).spectrum
    tail = HeatTail(0, (3.0,), (3.0,))
    assert CurveComponent(1.0, EquivariantSpectrum(((1.0, 2, 0),), (1, 0), tail))
    for bad in (
        EquivariantSpectrum(((1.0, 1, 1),), (1, 0), HeatTail(0, (3.0,), (1.0,))),
        EquivariantSpectrum(((1.0, 2, 0),), (0, 1), HeatTail(0, (3.0,), (1.0,))),
        round_sphere_spectrum(l_max=10),  # antipodal: minus states, free tail
        EquivariantSpectrum(
            ok.entries, ok.kernel, HeatTail(2, ok.tail.straight), ok.cutoff
        ),
        EquivariantSpectrum(
            ok.entries,
            ok.kernel,
            HeatTail(2, ok.tail.straight, ok.tail.straight[:-1] + (1.0,)),
            ok.cutoff,
        ),
    ):
        with pytest.raises(InputError):
            CurveComponent(1.0, bad)
    with pytest.raises(InputError):
        CurveComponent(math.nan, ok)

@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_curve_component_needs_a_complete_or_2_dimensional_tail(dim):
    # a fixed curve is a complex curve; a complete synthetic one is kept
    straight = (2.0,) + (0.0,) * dim
    tail = HeatTail(dim, straight, straight)
    spectrum = EquivariantSpectrum(((1.0, 1, 0),), (1, 0), tail, 5.0 if dim else math.inf)
    if dim in (0, 2):
        assert CurveComponent(1.0, spectrum).spectrum is spectrum
    else:
        with pytest.raises(InputError, match="not %d-dimensional" % dim):
            CurveComponent(1.0, spectrum)


def test_tau_kind_mismatch():
    free = round_sphere_spectrum(l_max=30)
    pinned = flat_torus_spectrum(I2, character=(0, 0), cutoff=30.0)
    curve = round_sphere_curve(l_max=30)
    with pytest.raises(ConsistencyError):
        tau_iota(free, (curve,), TOL)
    with pytest.raises(ConsistencyError):
        tau_iota(pinned, None, TOL)


def test_an_empty_curve_tuple_is_no_curve_data():
    free = round_sphere_spectrum(l_max=30)
    assert repr(tau_iota(free, (), TOL)) == repr(tau_iota(free, None, TOL))
    pinned = flat_torus_spectrum(I2, character=(0, 0), cutoff=30.0)
    with pytest.raises(ConsistencyError):
        tau_iota(pinned, (), TOL)


def test_borcherds_round_trip_and_constant():
    tau = 1.0 / math.pi**2
    report = borcherds_report(tau, 1)
    assert math.isclose(report.implied_norm, math.pi**4, rel_tol=1e-14)
    assert math.isclose(report.round_trip_tau, tau, rel_tol=1e-14)
    assert math.isclose(report.implied_determinant_factor, math.pi, rel_tol=1e-14)
    assert report.determinant_with_constant is None
    scaled = borcherds_report(tau, 1, constant=2.0)
    assert math.isclose(scaled.determinant_with_constant, 2.0 * math.pi, rel_tol=1e-14)
    deep = borcherds_report(tau, 3)
    assert math.isclose(deep.implied_norm, tau**-6.0, rel_tol=1e-14)
    assert borcherds_report(tau, 3.0) == deep  # an integral float is a count
    assert deep.implied_determinant_factor is None
    with pytest.raises(InputError):
        borcherds_report(-1.0, 1)
    with pytest.raises(InputError):
        borcherds_report(tau, 0)


def test_truncate_entries():
    spectrum = round_sphere_spectrum(l_max=10)
    short = truncate_entries(spectrum, 4)
    assert len(short.entries) == 4
    assert short.cutoff == short.entries[-1][0] == 4 * 5 / 2.0
    assert truncate_entries(spectrum, 99) is spectrum
    assert truncate_entries(spectrum, 4.0) == short
    with pytest.raises(InputError):
        truncate_entries(spectrum, 0)
    with pytest.raises(InputError):
        truncate_entries(SYNTH, 1)


_SPHERE = round_sphere_spectrum(l_max=10)
_ENRIQUES = lattices.enriques_involution()
_POINT = EquivariantSpectrum(((1.0, 1, 0),), (1, 0), HeatTail(0, (2.0,), (2.0,)))
_TAIL = HeatTail(2, (2.0, 0.0, 0.5))


@pytest.mark.parametrize(
    "make, name",
    [
        pytest.param(lambda: HeatTail(2, 5), "straight", id="straight"),
        pytest.param(lambda: HeatTail(2, (1.0, 0.0, 0.0), 5), "twisted", id="twisted"),
        pytest.param(
            lambda: EquivariantSpectrum(5, (1, 0), _TAIL, 10.0), "entries", id="entries"
        ),
        pytest.param(
            lambda: EquivariantSpectrum(None, (1, 0), _TAIL, 10.0),
            "entries",
            id="entries-none",
        ),
        pytest.param(lambda: tau_iota(_POINT, 5), "curves", id="curves"),
    ],
)
def test_non_sequences_are_refused_by_name(make, name):
    with pytest.raises(InputError, match=r"\b%s\b.* must be a sequence" % name):
        make()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: borcherds_report(0.5, 2.5), id="nu-fraction"),
        pytest.param(lambda: borcherds_report(0.5, True), id="nu-boolean"),
        pytest.param(lambda: borcherds_report(0.5, "2"), id="nu-string"),
        pytest.param(lambda: borcherds_report(0.5, math.inf), id="nu-infinite"),
        pytest.param(lambda: borcherds_report(0.5, 1, True), id="constant-boolean"),
        pytest.param(lambda: borcherds_report(0.5, 1, "2"), id="constant-string"),
        pytest.param(lambda: truncate_entries(_SPHERE, 2.9), id="max-terms-fraction"),
        pytest.param(lambda: truncate_entries(_SPHERE, True), id="max-terms-boolean"),
        # counts above 2**53, which a float64 would round
        pytest.param(lambda: borcherds_report(1.0, 2**53 + 1), id="nu-past-2**53"),
        pytest.param(
            lambda: truncate_entries(_SPHERE, 2**53 + 1), id="max-terms-past-2**53"
        ),
        pytest.param(
            lambda: EquivariantSpectrum(((1.0, 1, 0),), (2**53 + 1, 0), _TAIL, 10.0),
            id="kernel-past-2**53",
        ),
        pytest.param(
            lambda: EquivariantSpectrum(((1.0, 2**53, 0),), (1, 0), _TAIL, 10.0),
            id="total-past-2**53",
        ),
    ],
)
def test_library_arguments_are_refused_not_truncated(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: borcherds_report(0.5, 0), "nu must be a positive integer"),
        (lambda: borcherds_report(0.5, -1), "nu must be a positive integer"),
        (lambda: borcherds_report(0.5, 0.5), "nu must be a positive integer"),
        (lambda: truncate_entries(_SPHERE, -3), "max terms must be at least 1"),
        (
            lambda: borcherds_report(0.5, 1, math.inf),
            "normalizing constant must be positive and finite, got inf",
        ),
        (
            lambda: borcherds_report(0.5, 1, -1.0),
            "normalizing constant must be positive and finite, got -1.0",
        ),
        (lambda: dolbeault_zeta(_SPHERE, 3), "q must be 0, 1, or 2"),
        (lambda: zeta_signed(_SPHERE, 0), "sign must be +1 or -1"),
        (
            lambda: lattices.eigenlattice(_ENRIQUES, 2),
            "eigenvalue sign must be +1 or -1",
        ),
        (
            lambda: frames.compatible_frames(seed_frame(), _ENRIQUES, 0, 0.3),
            "branch must be +1 or -1",
        ),
        (
            lambda: frames.HKFrame(2.0 * np.eye(2), np.eye(2)),
            "frame needs 3 vectors of ambient dimension 2",
        ),
        (
            lambda: frames.random_compatible_frame(
                _ENRIQUES.float_matrix, np.random.default_rng(0)
            ),
            "involution must be of type LatticeIsometry, not ndarray",
        ),
        (
            lambda: intlinalg.integer_kernel([]),
            "empty matrix has no well-defined kernel here",
        ),
        (
            lambda: lattices.SublatticeBasis(_ENRIQUES.lattice, [[1, 0]]),
            "basis vectors must have ambient rank 22",
        ),
        (lambda: lattices.direct_sum(), "direct_sum needs at least one summand"),
        (
            # a quarter turn of Z^2 with the standard form, of order 4
            lambda: lattices.eigenlattice(
                lattices.LatticeIsometry(
                    lattices.Lattice(((1, 0), (0, 1))), ((0, -1), (1, 0))
                ),
                1,
            ),
            "eigenlattice needs an involution (f squared != id)",
        ),
        (
            lambda: periods.PeriodPoint(lattices.eigenlattice(_ENRIQUES, -1), [1.0, 1j]),
            "period coordinates must have length 12",
        ),
        # a report or a truncation of something that is not a spectrum
        (
            lambda: tau_iota(5),
            "spectrum must be of type EquivariantSpectrum, not int",
        ),
        (
            lambda: truncate_entries(None, 3),
            "spectrum must be of type EquivariantSpectrum, not NoneType",
        ),
        (
            lambda: spectral.zeta_values([1, 2]),
            "spectrum must be of type EquivariantSpectrum, not list",
        ),
        (
            lambda: equivariant_determinant_report(HeatTail(2, [1, 0, 0])),
            "spectrum must be of type EquivariantSpectrum, not HeatTail",
        ),
        # the lattice path with a float matrix where an isometry belongs
        (
            lambda: lattices.eigenlattice(np.eye(2), 1),
            "isometry must be of type LatticeIsometry, not ndarray",
        ),
        (
            lambda: periods.period_of(seed_frame(), np.eye(22)),
            "involution must be of type LatticeIsometry, not ndarray",
        ),
        (
            lambda: periods.period_of(seed_frame(), _ENRIQUES, np.eye(22)),
            "marking must be of type LatticeIsometry, not ndarray",
        ),
        # the lattice and period constructors and functions, given plain
        # arrays or lists where a record belongs
        (
            lambda: lattices.LatticeIsometry([[0, 1], [1, 0]], [[1, 0], [0, 1]]),
            "lattice must be of type Lattice, not list",
        ),
        (
            lambda: lattices.SublatticeBasis([[0, 1], [1, 0]], [[1, 0]]),
            "ambient lattice must be of type Lattice, not list",
        ),
        (
            lambda: lattices.direct_sum(_ENRIQUES.lattice, [[0, 1], [1, 0]]),
            "a summand must be of type Lattice, not list",
        ),
        (
            lambda: lattices.discriminant_info(_ENRIQUES.lattice),
            "sublattice must be of type SublatticeBasis, not Lattice",
        ),
        (
            lambda: lattices.is_hyperbolic_type(None),
            "sublattice must be of type SublatticeBasis, not NoneType",
        ),
        (
            lambda: periods.PeriodPoint(np.eye(12), np.ones(12)),
            "sublattice must be of type SublatticeBasis, not ndarray",
        ),
        (
            lambda: periods.component_label(np.array([1.0, 1j])),
            "period point must be of type PeriodPoint, not ndarray",
        ),
        (
            lambda: periods.PeriodPair([1.0, 1j]),
            "plus point must be of type PeriodPoint, not list",
        ),
        (lambda: round_sphere_spectrum(1.0, True, 1), "l_max must be at least 2"),
        (lambda: flat_torus_spectrum([], None, 10.0), "gram matrix must be nonempty"),
        (
            lambda: flat_torus_spectrum([[2, 1], [0, 2]], None, 10.0),
            "gram matrix must be symmetric",
        ),
        (
            lambda: HeatTail(0, (2.0,), (2.0, 0.0)),
            "a complete twisted trace is one constant",
        ),
        (
            lambda: HeatTail(2, (1.0, 0.0, 0.5), (1.0, 0.0)),
            "twisted tail needs at least dim+1 coefficients",
        ),
        (
            lambda: EquivariantSpectrum(((1.0, 1, 0),), (1, 0), {"dim": 0}),
            "tail must be of type HeatTail, not dict",
        ),
        (lambda: CurveComponent(0.0, _POINT), "curve volume must be positive"),
        (lambda: CurveComponent(-1.0, _POINT), "curve volume must be positive"),
        (
            lambda: CurveComponent(1.0, _POINT.tail),
            "curve spectrum must be of type EquivariantSpectrum, not HeatTail",
        ),
        (
            # a spectrum where a curve belongs
            lambda: tau_iota(_POINT, [_POINT]),
            "a curve must be of type CurveComponent, not EquivariantSpectrum",
        ),
    ]
    + [
        (
            lambda twisted=twisted: jsonio.decode_spectrum(
                {
                    **jsonio.encode_spectrum(_POINT),
                    "tail": {"dim": 0, "straight": [2.0], "twisted": twisted},
                }
            ),
            'tail "twisted" must be "free" or a coefficient list',
        )
        for twisted in (2.0, "fixed", {"c": [2.0]})
    ]
    + [
        (
            lambda tau=tau: borcherds_report(tau),
            "tau must be positive and finite, got %r" % tau,
        )
        for tau in (0, -1, math.inf, math.nan)
    ],
)
def test_argument_refusals_keep_their_messages(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: borcherds_report(True), "tau", id="tau-boolean"),
        pytest.param(lambda: borcherds_report("0.5"), "tau", id="tau-string"),
        pytest.param(lambda: dolbeault_zeta(_SPHERE, True), "q", id="q-boolean"),
        pytest.param(lambda: zeta_signed(_SPHERE, True), "sign", id="sign-boolean"),
        pytest.param(
            lambda: lattices.eigenlattice(_ENRIQUES, True), "sign", id="eigen-boolean"
        ),
        pytest.param(
            lambda: frames.compatible_frames(seed_frame(), _ENRIQUES, True, 0.3),
            "branch",
            id="branch-boolean",
        ),
        pytest.param(
            lambda: frames.compatible_frames(seed_frame(), _ENRIQUES, 1, "a"),
            "psi",
            id="psi-string",
        ),
        # numpy booleans are refused as Python booleans are
        pytest.param(lambda: borcherds_report(np.True_), "tau", id="tau-numpy-boolean"),
        pytest.param(lambda: dolbeault_zeta(_SPHERE, np.True_), "q", id="q-numpy-boolean"),
        pytest.param(
            lambda: zeta_signed(_SPHERE, np.True_), "sign", id="sign-numpy-boolean"
        ),
        pytest.param(
            lambda: lattices.eigenlattice(_ENRIQUES, np.True_),
            "sign",
            id="eigen-numpy-boolean",
        ),
        pytest.param(
            lambda: frames.compatible_frames(seed_frame(), _ENRIQUES, np.True_, 0.3),
            "branch",
            id="branch-numpy-boolean",
        ),
        pytest.param(
            lambda: EquivariantSpectrum(
                [[np.True_, 1, 0]], (1, 0), HeatTail(2, (2.0, 0.0, 0.5)), 10.0
            ),
            "eigenvalue",
            id="eigenvalue-numpy-boolean",
        ),
        pytest.param(
            lambda: EquivariantSpectrum(
                [[1.0, np.True_, 0]], (1, 0), HeatTail(2, (2.0, 0.0, 0.5)), 10.0
            ),
            "multiplicity",
            id="multiplicity-numpy-boolean",
        ),
    ]
    + [
        pytest.param(lambda tol=tol: zeta_signed(_SPHERE, 1, tol=tol), "tol", id=name)
        for tol, name in (
            (math.nan, "tol-nan"),
            (-1, "tol-negative"),
            (0, "tol-zero"),
            ("1e-8", "tol-string"),
        )
    ]
    + [
        pytest.param(
            lambda: periods.period_of(seed_frame(), _ENRIQUES, tol=math.nan),
            "tol",
            id="period-tol-nan",
        ),
        pytest.param(
            lambda: periods.period_of(seed_frame(), _ENRIQUES, tol="1"),
            "tol",
            id="period-tol-string",
        ),
    ],
)
def test_engine_and_period_arguments_are_refused(call, name):
    # booleans and strings are not numbers, and a tolerance must be positive
    # and finite; the refusal names the argument
    with pytest.raises(InputError, match=r"\b%s\b" % name):
        call()


_BIG = 10**400  # past float range
_NAN, _INF = math.nan, math.inf
_EIGENVALUE = "eigenvalue must be a finite number, not "
_MULTIPLICITY = "multiplicity must be a nonnegative integer of at most 2**53, not "
_POSITIVE = "eigenvalues must be positive"
_ASCENDING = "eigenvalues must be strictly ascending"
_NONZERO = "multiplicities must not be all zero"
_FIELDS = "spectrum entries must have 3 fields"

# entries, and the refusal the entry-by-entry check gave before the
# entries were held as numpy columns: the first row failing a check, and
# its first failing check in the order fields, eigenvalue, multiplicities,
# sign, order, nonzero
REFUSALS = {
    "eigenvalue-bool": ([[True, 1, 0]], _EIGENVALUE + "True"),
    "multiplicity-bool": ([[1.0, True, 0]], _MULTIPLICITY + "True"),
    "eigenvalue-string": ([["0.5", 1, 0]], _EIGENVALUE + "'0.5'"),
    "multiplicity-string": ([[1.0, 1, "3"]], _MULTIPLICITY + "'3'"),
    "eigenvalue-nan": ([[1.0, 1, 0], [_NAN, 1, 0]], _EIGENVALUE + "nan"),
    "eigenvalue-inf": ([[_INF, 1, 0]], _EIGENVALUE + "inf"),
    "eigenvalue-minus-inf": ([[-_INF, 1, 0]], _EIGENVALUE + "-inf"),
    "eigenvalue-overflow": ([[_BIG, 1, 0]], _EIGENVALUE + str(_BIG)),
    "multiplicity-overflow": ([[1.0, _BIG, 0]], _MULTIPLICITY + str(_BIG)),
    # the first count a float64 weight would round
    "multiplicity-past-2**53": ([[1.0, 2**53 + 1, 0]], _MULTIPLICITY + str(2**53 + 1)),
    "multiplicity-nan": ([[1.0, _NAN, 0]], _MULTIPLICITY + "nan"),
    "multiplicity-inf": ([[1.0, 1, _INF]], _MULTIPLICITY + "inf"),
    "eigenvalue-zero": ([[0.0, 1, 0]], _POSITIVE),
    "eigenvalue-negative": ([[1.0, 1, 0], [-1.0, 1, 0]], _POSITIVE),
    "not-ascending": ([[2.0, 1, 0], [1.0, 1, 0]], _ASCENDING),
    "repeated": ([[1.0, 1, 0], [1.0, 2, 0]], _ASCENDING),
    "multiplicity-fraction": ([[1.0, 1.5, 0]], _MULTIPLICITY + "1.5"),
    "multiplicity-negative": ([[1.0, 2, -1]], _MULTIPLICITY + "-1"),
    "multiplicities-zero": ([[1.0, 1, 0], [2.0, 0, 0]], _NONZERO),
    "two-fields": ([[1.0, 1]], _FIELDS),
    "four-fields": ([[1.0, 1, 0, 0]], _FIELDS),
    "ragged": ([[1.0, 1, 0], [2.0, 1]], _FIELDS),
    "not-a-row": ([[1.0, 1, 0], 2.0], _FIELDS),
    "order-before-later-row": ([[2.0, 1, 0], [1.0, 1, 0], [3.0, 1.5, 0]], _ASCENDING),
    "order-before-later-fields": ([[1.0, 1, 0], [0.5, 1, 0], [3.0]], _ASCENDING),
    "eigenvalue-before-count": ([[1.0, 1, 0], [_NAN, -1, 0]], _EIGENVALUE + "nan"),
    "multiplicity-before-order": ([[2.0, 1, 0], [1.0, 1.5, 0]], _MULTIPLICITY + "1.5"),
    "eigenvalue-before-fields": ([[_NAN, 1, 0], [1.0]], _EIGENVALUE + "nan"),
}
_TRUNCATED_TAIL = {"dim": 2, "straight": [2.0, 0.0, 0.5], "twisted": "free"}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_spectrum_refusals_keep_their_messages(tmp_path, capsys, name):
    entries, message = REFUSALS[name]
    with pytest.raises(InputError) as exc:
        EquivariantSpectrum(entries, (1, 0), HeatTail(2, (2.0, 0.0, 0.5)), 10.0)
    assert str(exc.value) == message
    path = tmp_path / "spectrum.json"
    spectrum = {"entries": entries, "kernel": [1, 0], "tail": _TRUNCATED_TAIL}
    # json writes NaN and Infinity, which it also reads
    path.write_text(json.dumps({**spectrum, "cutoff": 10.0}))
    assert cli.main(["zeta", "--spectrum", str(path)]) == 2
    assert capsys.readouterr().err == "input error: %s\n" % message


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1.0, 1, 0], [_NAN, 1, 0]], _EIGENVALUE + repr(np.float64(_NAN))),
        ([[1.0, 1.5, 0]], _MULTIPLICITY + repr(np.float64(1.5))),
        ([[1.0, 1, 0], [2.0, -1, 0]], _MULTIPLICITY + repr(np.float64(-1.0))),
        ([[1.0, _INF, 0]], _MULTIPLICITY + repr(np.float64(_INF))),
        ([[1.0, 0, 0]], _NONZERO),
        ([[2.0, 1, 0], [1.0, 1, 0]], _ASCENDING),
        ([[1.0, 2.0**53 + 2, 0]], _MULTIPLICITY + repr(np.float64(2.0**53 + 2))),
    ],
)
def test_entries_array_refusals_read_as_its_rows(entries, message):
    # an (n, 3) float array is checked as its rows would be, one by one
    tail = HeatTail(2, (2.0, 0.0, 0.5))
    with pytest.raises(InputError) as exc:
        EquivariantSpectrum(np.array(entries), (1, 0), tail, 10.0)
    assert str(exc.value) == message


def test_entries_are_held_as_columns():
    # 1 + 3 + 3 + 2**53 - 7 = 2**53 states in all
    rows = ((0.5, 2, 1), (1.5, 0, 3), (4.0, 2**53 - 7, 0))
    spectrum = EquivariantSpectrum(rows, (1, 0), HeatTail(2, (2.0, 0.0, 0.5)), 10.0)
    assert spectrum.entries == rows
    assert spectrum.lambdas().tolist() == [0.5, 1.5, 4.0]
    assert not spectrum.lambdas().flags.writeable
    # every count up to 2**53 is exact as a float64 weight
    assert spectrum.mults(1).tolist() == [2.0, 0.0, float(2**53 - 7)]
    assert spectrum == EquivariantSpectrum(list(rows), [1, 0], spectrum.tail, 10.0)
    top = EquivariantSpectrum(((4.0, 0, 2**53),), (0, 0), spectrum.tail, 10.0)
    assert top.mults(-1).tolist() == [2.0**53]
    # 2**53 + 1 is the first count a float64 rounds
    for big in (2**53 + 1, 2**70):
        with pytest.raises(InputError) as exc:
            EquivariantSpectrum(((4.0, 0, big),), (0, 0), spectrum.tail, 10.0)
        assert str(exc.value) == _MULTIPLICITY + str(big)
    array = EquivariantSpectrum(np.array(rows[:2]), (1, 0), spectrum.tail, 10.0)
    assert array.entries == rows[:2]
    assert all(type(m) is int for _, mp, mm in array.entries for m in (mp, mm))


def test_spectra_hash_as_they_compare():
    rows = ((0.5, 2, 1), (1.5, 0, 3))
    tail = HeatTail(2, (2.0, 0.0, 0.5))
    a = EquivariantSpectrum(rows, (1, 0), tail, 10.0)
    b = EquivariantSpectrum(np.array(rows, dtype=float), [1, 0], tail, 10.0)
    assert a == b and hash(a) == hash(b)
    assert a != EquivariantSpectrum(((0.5, 2, 1), (1.5, 1, 3)), (1, 0), tail, 10.0)
    curve = HeatTail(2, (2.0, 0.0, 0.5), (2.0, 0.0, 0.5))
    c = CurveComponent(1.0, EquivariantSpectrum(((1.0, 2, 0),), (1, 0), curve, 5.0))
    assert len({a, b, c, CurveComponent(1.0, c.spectrum)}) == 2
    assert repr(a).startswith("EquivariantSpectrum(entries=((0.5, 2, 1), (1.5, 0, 3)),")


def test_truncation_keeps_counts_exact():
    tail = HeatTail(2, (2.0, 0.0, 0.5))
    # the truncated columns are slices of the int64 columns: counts of up
    # to 2**53 (here 2**53 states in all) stay exact
    for big in ((2**53 - 3, 0), (0, 2**53 - 3), (2**53 - 4, 1)):
        rows = ((0.5, 1, 1), (1.5, *big), (2.5, 1, 0))
        short = truncate_entries(EquivariantSpectrum(rows, (0, 0), tail, 10.0), 2)
        assert short.entries == rows[:2] and short.cutoff == 1.5


@pytest.mark.parametrize(
    "radius, l_max, tol, achievable",
    [
        (1.0, 150, 1e-15, "1.8947806286936005e-15"),
        (1.0, 20, 1e-10, "2.3208008332417883e-08"),
        (1.7, 30, 1e-13, "5.816135585320112e-13"),
    ],
)
def test_sphere_torsion_refusal_is_the_golden_bound(radius, l_max, tol, achievable):
    # the achievable bounds, captured before the split candidates were
    # evaluated in one stacked pass, to the bit
    with pytest.raises(AccuracyError) as refusal:
        equivariant_torsion_report(round_sphere_spectrum(radius, True, l_max), tol)
    assert repr(refusal.value.achievable) == achievable
