"""Known faults of the program, each as a strict expected failure.

Each test asserts the correct behaviour and fails today with the exception
its marker names, so a different failure is not hidden as expected. The
marker's reason names the ROADMAP item that mends the fault; that item's
change removes the marker, and the test becomes its gate. A fault that
disappears unnoticed fails the suite as XPASS(strict).

Left out: the sphere bar (radius 0.8503788400621768, l_max 991, tol 1e-8),
whose miss is 1.15 times its bar. That is inside the roundoff of theta at
the split point, which item 2 diagnoses, so another BLAS could make it pass.
"""

import json
import math
import os

import numpy as np
import pytest

from k3zeta import jsonio
from k3zeta.errors import AccuracyError, GeometryError
from k3zeta.frames import random_compatible_frame
from k3zeta.models import round_sphere_spectrum
from k3zeta.periods import period_of
from k3zeta.spectral import equivariant_torsion_report, zeta_signed, zeta_values

from test_periods import _conjugated_enriques

PRESETS = os.path.join(os.path.dirname(__file__), "data", "presets")


def _fault(item, raises, what):
    return pytest.mark.xfail(
        strict=True, raises=raises, reason="ROADMAP item %d: %s" % (item, what)
    )


@_fault(2, AssertionError, "the final error is not checked against the target")
def test_torsion_error_stays_within_its_target():
    # returns an error_estimate of 1.08e-14, 5.7 times the target
    spectrum = round_sphere_spectrum(1.0, True, 150)
    try:
        report = equivariant_torsion_report(spectrum, 1.9e-15)
    except AccuracyError:
        return
    assert report.error_estimate <= 1.9e-15


@_fault(2, AssertionError, "the final error is not checked against the target")
def test_small_sphere_error_stays_within_its_target():
    # returns zeta'(0) = 0.0 with an error_estimate of 2.83e21
    try:
        result = zeta_signed(round_sphere_spectrum(1e-3, True, 30), 1, 1e-8)
    except AccuracyError:
        return
    assert result.error_estimate <= 1e-8


@_fault(12, AccuracyError, "the split grid is fixed in absolute t")
@pytest.mark.parametrize("radius", [1e-10, 1e3, 1e10])
def test_rescaled_sphere_keeps_the_scale_law(radius):
    # eigenvalues scale by c = radius**-2, so zeta'(0) moves by
    # -log(c) zeta(0) = 2 log(radius) zeta(0), within both bars
    for sign in (1, -1):
        unit = zeta_signed(round_sphere_spectrum(1.0, True, 30), sign, 1e-8)
        scaled = zeta_signed(round_sphere_spectrum(radius, True, 30), sign, 1e-8)
        law = unit.zeta_prime_at_0 + 2.0 * math.log(radius) * unit.zeta_at_0
        assert abs(scaled.zeta_prime_at_0 - law) <= (
            scaled.error_estimate + unit.error_estimate
        )


@_fault(19, AssertionError, "a wrong heat model reads as a short spectrum")
def test_wrong_heat_model_is_named():
    with open(os.path.join(PRESETS, "spectrum-torus.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["tail"]["straight"][0] *= 1.001
    with pytest.raises(AccuracyError) as refusal:
        zeta_values(jsonio.decode_spectrum(obj))
    message = str(refusal.value)
    assert "heat model does not match the entries" in message
    assert "extend the spectrum" not in message


@_fault(3, GeometryError, "float splits and frames on ill-conditioned bases")
def test_long_conjugates_reach_a_labelled_pair():
    # none of these 10 words reaches a pair today
    rng = np.random.default_rng(7)
    for _ in range(10):
        conj = _conjugated_enriques(rng, 80)
        pair = period_of(random_compatible_frame(conj, rng), conj)
        assert sorted(pair.labels()) == [-1, 1]
