"""Test fixtures and independent checks for frames, periods and sublattices.

Each is written from the definitions, on the package's public objects and
its exact integer routines, so a test can check the package against them:
the fixed seed frame, SO(3) rotations of a frame and their recovery, the
inverse of the compatible family, projective equality of period points and
unordered period-pair equality, and the orthogonal complement and
saturation of a sublattice. `run_python` runs a fresh interpreter on the
package the tests imported.
"""

import os
import subprocess
import sys

import numpy as np

import k3zeta
from k3zeta import intlinalg
from k3zeta.frames import HKFrame
from k3zeta.lattices import build_standard_lattice
from k3zeta.periods import PeriodPoint

PROJECTIVE_TOL = 1e-9


def run_python(*args, cwd=None) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter, its stdout and stderr captured
    as bytes. The child imports the k3zeta these tests imported, installed
    or not, and every warning in it is an error."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3zeta.__file__)))
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    # absolute, so that a cwd elsewhere still finds every entry
    path = os.pathsep.join(os.path.abspath(p) for p in [src, *inherited] if p)
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, cwd=cwd, env=env
    )


def seed_frame() -> HKFrame:
    """A fixed frame on the K3 lattice compatible with the Enriques
    involution: gamma_I spans a positive invariant direction in the first
    two hyperbolic planes, gamma_J its anti-invariant partner, gamma_K a
    positive vector of the negated third plane."""
    g = np.array(build_standard_lattice("K3").gram, dtype=float)
    gi = np.zeros(22)
    gi[[0, 1, 2, 3]] = 1.0
    gj = np.zeros(22)
    gj[[0, 1]] = 1.0
    gj[[2, 3]] = -1.0
    gk = np.zeros(22)
    gk[[4, 5]] = 1.0
    return HKFrame(g, np.vstack([gi / np.sqrt(2.0), gj / np.sqrt(2.0), gk]))


def random_rotation(rng) -> np.ndarray:
    """A random element of SO(3), from the QR decomposition of a Gaussian
    matrix with the signs of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def rotate(frame: HKFrame, a) -> HKFrame:
    """The left action gamma'_a = sum_b A_ab gamma_b."""
    return HKFrame(frame.form, a @ frame.gammas)


def recover_rotation(a: HKFrame, b: HKFrame) -> np.ndarray:
    """The matrix A_ab = <gamma'_a, gamma_b> / 2, which is the rotation
    taking frame a to frame b when both span the same 3-space."""
    return (b.gammas @ a.form @ a.gammas.T) / 2.0


def family_parameters(base: HKFrame, other: HKFrame) -> tuple[int, float]:
    """(branch, psi) with compatible_frames(base, invol, branch, psi) equal
    to `other`, read off the pairings of the two frames."""
    c = recover_rotation(base, other)
    branch = 1 if c[0, 0] > 0 else -1
    return branch, float(np.arctan2(-branch * c[1, 2], c[1, 1]))


def projectively_equal(p, q) -> bool:
    """[p] == [q] for period points or coordinate vectors: every 2x2 minor
    of the two vectors vanishes, relative to the product of their norms."""
    a = p.coords if isinstance(p, PeriodPoint) else np.asarray(p, dtype=complex)
    b = q.coords if isinstance(q, PeriodPoint) else np.asarray(q, dtype=complex)
    if a.shape != b.shape:
        return False
    ab = np.outer(a, b)
    scale = float(np.linalg.norm(a) * np.linalg.norm(b))
    assert scale > 0.0, "projective comparison needs nonzero vectors"
    return float(np.max(np.abs(ab - ab.T))) <= PROJECTIVE_TOL * scale


def same_pair(a, b) -> bool:
    """Equality of two period pairs as unordered pairs of projective
    classes."""
    eq = projectively_equal
    return (eq(a.plus, b.plus) and eq(a.minus, b.minus)) or (
        eq(a.plus, b.minus) and eq(a.minus, b.plus)
    )


def complement(gram, vectors) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the saturated sublattice of everything orthogonal
    to the given vectors under the Gram matrix, as tuples (the form of
    `SublatticeBasis.vectors`)."""
    pairings = intlinalg.matmul([list(v) for v in vectors], gram)
    return tuple(map(tuple, intlinalg.integer_kernel(pairings.tolist())))


def same_span(a, b) -> bool:
    """Equality of the sublattices two bases span."""
    return intlinalg.column_hnf([list(v) for v in a]) == intlinalg.column_hnf(
        [list(v) for v in b]
    )


def is_saturated(vectors) -> bool:
    """True iff the vectors span a primitive sublattice: every Smith
    divisor of the matrix with them as columns is 1."""
    return all(d == 1 for d in intlinalg.smith_divisors(intlinalg.transpose(vectors)))
