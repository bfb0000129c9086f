"""The paper's statement on models where both sides are known.

The paper identifies the equivariant determinant of the Laplacian of a real
K3 surface without real points with the norm of an automorphic form at its
period point. Each test here is one row of that shape, on a model whose
determinant has a closed form: a strategy draws the model, the engine
continues the sector the row names, and the value must lie within the
engine's own error estimate of the closed form. README.md tabulates the
rows.

Row 1, genus 0: P^1 = S^2_r with the antipodal map, a real curve without
real points. Its twisted zeta function has zeta_tw(0) = -1 and
zeta_tw'(0) = -log pi - 2 log r, so det_sigma = exp(-zeta_tw'(0)) = pi r^2.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from k3zeta.models import round_sphere_spectrum
from k3zeta.spectral import dolbeault_zeta


@settings(max_examples=300, deadline=None)
@given(
    radius=st.floats(0.5, 2.0, exclude_max=True),
    l_max=st.integers(150, 2000),
)
def test_genus_0_twisted_determinant_is_pi_r_squared(radius, l_max):
    twisted = dolbeault_zeta(round_sphere_spectrum(radius, True, l_max), 0, 1e-8)
    assert twisted.zeta_at_0 == -1.0
    exact = -math.log(math.pi) - 2.0 * math.log(radius)
    assert abs(twisted.zeta_prime_at_0 - exact) <= twisted.error_estimate
