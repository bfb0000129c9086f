"""Acceptance gate: one test per advertised guarantee, each printing a
PASS line with the measured quantity so a -s run reads as a checklist."""

import math
import time

import numpy as np

from k3zeta.frames import compatible_frames, random_compatible_frame
from k3zeta.lattices import (
    build_standard_lattice,
    discriminant_info,
    eigenlattice,
    enriques_involution,
    is_hyperbolic_type,
)
from k3zeta.models import flat_torus_spectrum, round_sphere_spectrum
from k3zeta.periods import PeriodPoint, component_label, period_of
from k3zeta.spectral import (
    EquivariantSpectrum,
    HeatTail,
    borcherds_report,
    dolbeault_zeta,
    equivariant_determinant_report,
    equivariant_torsion_report,
    tau_iota,
    zeta_signed,
)

from fixtures import (
    family_parameters,
    random_rotation,
    recover_rotation,
    rotate,
    run_python,
    same_pair,
    seed_frame,
)
from oracles import (
    direct_zeta,
    scaled_spectrum,
    sphere_straight_zeta0,
    sphere_straight_zeta_prime0,
    sphere_twisted_zeta0,
    sphere_twisted_zeta_prime0,
    torus_zeta_prime0,
)

I2 = ((1, 0), (0, 1))
TOL = 1e-8

SYNTH = EquivariantSpectrum(
    ((0.5, 3, 1), (1.0, 2, 2), (4.0, 1, 0), (9.0, 0, 2)),
    (1, 0),
    HeatTail(0, (12.0,), (2.0,)),
)


def test_enriques_eigenlattice_invariants():
    t0 = time.monotonic()
    invol = enriques_involution()
    assert int(np.trace(np.asarray(invol.matrix))) == -2
    plus = eigenlattice(invol, +1)
    minus = eigenlattice(invol, -1)
    plus_info = discriminant_info(plus)
    minus_info = discriminant_info(minus)
    assert len(plus.vectors) == 10
    assert plus.induced_lattice().signature() == (1, 9)
    assert plus_info.divisors == (2,) * 10
    assert plus_info.a_invariant == 10
    assert plus_info.two_elementary
    assert is_hyperbolic_type(plus)
    assert len(minus.vectors) == 12
    assert minus.induced_lattice().signature() == (2, 10)
    assert minus_info.a_invariant == 10
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        "PASS invariant lattice (1,9) 2-elementary a=10, anti-invariant"
        " (2,10) a=10 [%.3fs]" % elapsed
    )


def test_k3_lattice_shape():
    t0 = time.monotonic()
    k3 = build_standard_lattice("k3")
    assert k3.rank == 22
    assert k3.signature() == (3, 19)
    assert abs(k3.det()) == 1
    assert k3.is_even()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print("PASS K3 lattice rank 22 signature (3,19) |det|=1 [%.3fs]" % elapsed)


def test_rotation_torsor_and_family_parameters():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    invol = enriques_involution()
    base = seed_frame()
    worst = 0.0
    for _ in range(100):
        a, b = random_rotation(rng), random_rotation(rng)
        left = rotate(base, a @ b)
        right = rotate(rotate(base, b), a)
        worst = max(worst, float(np.max(np.abs(left.gammas - right.gammas))))
        back = recover_rotation(base, rotate(base, a))
        worst = max(worst, float(np.max(np.abs(back - a))))
    anchor = random_compatible_frame(invol, rng)
    for branch in (1, -1):
        for psi in np.linspace(-3.0, 3.0, 5):
            fr = compatible_frames(anchor, invol, branch, float(psi))
            b2, p2 = family_parameters(anchor, fr)
            assert b2 == branch
            assert abs((p2 - psi + np.pi) % (2 * np.pi) - np.pi) < 1e-10
            rebuilt = compatible_frames(anchor, invol, b2, p2)
            worst = max(worst, float(np.max(np.abs(rebuilt.gammas - fr.gammas))))
    assert worst < 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        "PASS 100 rotations compose/recover and family parameters,"
        " residual %.2e [%.3fs]" % (worst, elapsed)
    )


def test_period_pair_is_frame_independent():
    t0 = time.monotonic()
    invol = enriques_involution()
    rng = np.random.default_rng(103)
    worst_iso = 0.0
    for _ in range(50):
        frame = random_compatible_frame(invol, rng)
        ref = period_of(frame, invol)
        for point in (ref.plus, ref.minus):
            g = point.sublattice.induced_lattice().float_gram
            eta = point.coords
            ratio = abs(complex(eta @ g @ eta)) / float(
                np.real(eta @ g @ eta.conjugate())
            )
            worst_iso = max(worst_iso, ratio)
        la, lb = ref.labels()
        assert {la, lb} == {1, -1}
        conjugate = PeriodPoint(ref.plus.sublattice, np.conj(ref.plus.coords))
        assert component_label(conjugate) == lb
        for branch in (1, -1):
            for psi in (-2.4, -0.9, 1.1, 2.8):
                fr = compatible_frames(frame, invol, branch, psi)
                assert same_pair(period_of(fr, invol), ref)
    assert worst_iso < 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        "PASS 50 frames x 8 family points share one period pair,"
        " isotropy %.2e [%.3fs]" % (worst_iso, elapsed)
    )


def test_dolbeault_identities_and_torsion_residual():
    spectra = (
        round_sphere_spectrum(),
        flat_torus_spectrum(I2, character=(1, 0)),
        SYNTH,
    )
    worst = 0.0
    for spectrum in spectra:
        q0 = dolbeault_zeta(spectrum, 0, TOL)
        q1 = dolbeault_zeta(spectrum, 1, TOL)
        q2 = dolbeault_zeta(spectrum, 2, TOL)
        assert q0.zeta_at_0 + q2.zeta_at_0 == 0.0
        assert q0.zeta_prime_at_0 + q2.zeta_prime_at_0 == 0.0
        assert q1.zeta_at_0 == 0.0 and q1.zeta_prime_at_0 == 0.0
        residual = equivariant_torsion_report(spectrum, TOL).determinant_residual
        worst = max(worst, abs(residual))
    assert worst < 1e-8
    print(
        "PASS q0+q2 and q1 vanish identically, torsion residual %.2e" % worst
    )


def test_continuation_engine_against_oracles():
    t0 = time.monotonic()
    for sign in (1, -1):
        engine = zeta_signed(SYNTH, sign, TOL)
        zeta0, zeta_prime0 = direct_zeta(SYNTH, sign)
        assert abs(engine.zeta_at_0 - zeta0) < 1e-12
        assert abs(engine.zeta_prime_at_0 - zeta_prime0) < 1e-12

    sphere = round_sphere_spectrum()
    sp = zeta_signed(sphere, +1, TOL)
    sm = zeta_signed(sphere, -1, TOL)
    checks = [
        (sp.zeta_at_0 + sm.zeta_at_0, float(sphere_straight_zeta0())),
        (
            sp.zeta_prime_at_0 + sm.zeta_prime_at_0,
            float(sphere_straight_zeta_prime0()),
        ),
        (sp.zeta_at_0 - sm.zeta_at_0, float(sphere_twisted_zeta0())),
        (
            sp.zeta_prime_at_0 - sm.zeta_prime_at_0,
            float(sphere_twisted_zeta_prime0()),
        ),
    ]
    torus = flat_torus_spectrum(I2, character=(1, 0))
    tp = zeta_signed(torus, +1, TOL)
    tm = zeta_signed(torus, -1, TOL)
    checks.append(
        (tp.zeta_prime_at_0 + tm.zeta_prime_at_0, float(torus_zeta_prime0(I2)[1]))
    )
    checks.append(
        (
            tp.zeta_prime_at_0 - tm.zeta_prime_at_0,
            float(torus_zeta_prime0(I2, (1, 0))[1]),
        )
    )
    worst = max(abs(got - want) for got, want in checks)
    assert worst < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        "PASS engine vs direct 1e-12 and vs Hurwitz/Epstein oracles,"
        " worst %.2e [%.3fs]" % (worst, elapsed)
    )


def test_determinant_scaling_law():
    worst = 0.0
    for spectrum in (round_sphere_spectrum(), flat_torus_spectrum(I2, (1, 0))):
        det = equivariant_determinant_report(spectrum, TOL)
        exponent = det.plus.zeta_at_0 - det.minus.zeta_at_0
        for c in (2.0, 10.0):
            scaled = equivariant_determinant_report(scaled_spectrum(spectrum, c), TOL)
            want = det.value * c**exponent
            worst = max(worst, abs(scaled.value - want) / abs(want))
    assert worst < 1e-8
    print("PASS determinant scaling c^(z+(0)-z-(0)) for c=2,10, drift %.2e" % worst)


def test_tau_assembly_and_norm_round_trip():
    # a free constant tail forces balanced signed counts
    free_synth = EquivariantSpectrum(
        ((1.0, 2, 1), (3.0, 1, 2)), (0, 0), HeatTail(0, (6.0,))
    )
    for spectrum in (round_sphere_spectrum(), free_synth):
        det = equivariant_determinant_report(spectrum, TOL)
        tau = tau_iota(spectrum, None, TOL)
        assert tau.value == det.value**-2.0
    sphere_tau = tau_iota(round_sphere_spectrum(), None, TOL)
    report = borcherds_report(sphere_tau.value, 1)
    drift = abs(report.round_trip_tau - sphere_tau.value) / sphere_tau.value
    assert drift < 1e-14
    print(
        "PASS free tau = det^-2 bitwise, norm round trip drift %.2e" % drift
    )


def test_cli_preset_runs_are_byte_identical():
    cmd = ["-m", "k3zeta.cli", "tau", "--builtin", "s2-antipodal"]
    first, second = run_python(*cmd), run_python(*cmd)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()
    print("PASS CLI preset output byte-identical across two invocations")
