"""Independent high-precision references for the continuation tests.

Everything here is computed by a different route than the package uses:
Hurwitz zeta expansions for the sphere, the incomplete-gamma (Chowla and
Selberg style) representation of Epstein zeta functions for flat tori, a
finite-difference discretization of the sphere Laplacian, and the sphere
trace's exact Laurent coefficients from Bernoulli numbers, which the
package keeps as a table. Values are mpmath at 50 digits; the callers
freeze what they need. For the exact lattice algebra: matrix products as
plain nested sums, and signatures by congruence diagonalization in
Fractions.

Conventions match the package: half-Laplacian eigenvalues, so the sphere
has lambda_l = l(l+1)/(2 r^2) and the torus lambda_m = m^T Q^{-1} m / 2.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# Round sphere, unit radius, eigenvalues l(l+1)/2 for l >= 1.
#
# zeta(s) = sum_{l>=1} (2l+1) (l(l+1)/2)^{-s} = 2^s * 2 * G(s) with
# G(s) = sum_{l>=1} (l+1/2) ((l+1/2)^2 - 1/4)^{-s}, expanded through the
# binomial series into Hurwitz zetas at 3/2. Term-by-term differentiation
# at s = 0 avoids numerical differentiation near the k = 1 cancellation.
# ---------------------------------------------------------------------------


def sphere_straight_zeta0():
    return mp.mpf(-2) / 3


def sphere_straight_zeta_prime0():
    g0 = mp.zeta(-1, mp.mpf(3) / 2) + mp.mpf(1) / 8
    gp = 2 * mp.zeta(-1, mp.mpf(3) / 2, 1) - mp.digamma(mp.mpf(3) / 2) / 4
    k = 2
    while True:
        term = mp.mpf(4) ** (-k) * mp.zeta(2 * k - 1, mp.mpf(3) / 2) / k
        gp += term
        if abs(term) < mp.mpf(10) ** (-(mp.mp.dps + 5)):
            break
        k += 1
    # zeta(s) = 2^s 2 G(s): zeta'(0) = ln2 * zeta(0) + 2 G'(0), 2 G(0) = zeta(0)
    assert abs(2 * g0 - sphere_straight_zeta0()) < mp.mpf(10) ** (-40)
    return mp.log(2) * sphere_straight_zeta0() + 2 * gp


def _sphere_d(z):
    """D(z) = sum_{l>=1} (-1)^l (l+1/2)^(-z), analytically continued."""
    if z == 1:
        return (mp.digamma(mp.mpf(3) / 4) - mp.digamma(mp.mpf(5) / 4)) / 2
    return mp.mpf(2) ** (-z) * (
        mp.zeta(z, mp.mpf(5) / 4) - mp.zeta(z, mp.mpf(3) / 4)
    )


def sphere_twisted_zeta0():
    return mp.mpf(-1)


def sphere_twisted_zeta_prime0():
    # A(s) = sum_{l>=1} (-1)^l (2l+1) (l(l+1))^{-s}
    #      = 2 sum_k binom(-s,k) (-1/4)^k D(2s+2k-1),
    # so A'(0) = 4 D'(-1) + 2 sum_{k>=1} 4^{-k} D(2k-1)/k and the
    # half-Laplacian value is log(2) A(0) + A'(0)
    hp = 2 * mp.diff(_sphere_d, -1)
    k = 1
    while True:
        term = mp.mpf(4) ** (-k) * _sphere_d(2 * k - 1) / k
        hp += term
        if abs(term) < mp.mpf(10) ** (-(mp.mp.dps + 5)) and k > 1:
            break
        k += 1
    return mp.log(2) * sphere_twisted_zeta0() + 2 * hp


def sphere_radius_shift(zeta0, zeta_prime0, radius):
    """lambda -> lambda / r^2 rescaling: zeta_r(s) = r^{2s} zeta_1(s)."""
    r = mp.mpf(radius)
    return zeta0, zeta_prime0 + 2 * mp.log(r) * zeta0


def _bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_{k<=n} binom(n+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[n]


def sphere_heat_coefficients(terms: int) -> tuple[Fraction, ...]:
    """Exact Laurent coefficients (a_{-1}, a_0, ..., a_{terms-1}) of the
    unit-sphere trace sum_l (2l+1) exp(-l(l+1) u) as u -> 0.

    Writing the sum as exp(u/4) M(u) with
    M(u) = 1/u + sum_k mu_k u^{k-1},
    mu_k = (1 - 2^{1-2k}) B_{2k} (-1)^{k-1} / (k (k-1)!),
    the a_j are the Cauchy products of the two series.
    """
    # m[i + 1]: coefficient of u^i in M, i = -1 .. terms-1
    m = [Fraction(1)] + [
        (1 - Fraction(2) ** (1 - 2 * k))
        * _bernoulli(2 * k)
        * (-1) ** (k - 1)
        / (k * math.factorial(k - 1))
        for k in range(1, terms + 1)
    ]
    return tuple(
        sum(
            m[i + 1] * Fraction(1, 4) ** (j - i) / math.factorial(j - i)
            for i in range(-1, j + 1)
        )
        for j in range(-1, terms)
    )


# ---------------------------------------------------------------------------
# Flat torus: Z(s) = sum'_{m in Z^n} (m^T A m)^{-s}, A = Q^{-1} / 2.
#
# Splitting Gamma(s) Z(s) at t = 1 and applying Poisson summation below the
# split gives entire incomplete-gamma sums plus explicit pole terms, so
#   Z(0)  = -1
#   Z'(0) = F(0) - euler - 2 c_A pi^(n/2) / n,          c_A = det(A)^(-1/2)
#   F(0)  = sum' Gamma(0, A[m])
#         + c_A pi^(n/2) sum' Gamma(n/2, y_k) y_k^(-n/2),
#   y_k = pi^2 A^{-1}[k].
# A half-period character (-1)^(m.eps) shifts the dual sum by eps/2 and
# removes its pole term:
#   Z_eps(0)  = -1
#   Z_eps'(0) = F_eps(0) - euler.
# ---------------------------------------------------------------------------


def _lattice_points(bound, dim):
    return itertools.product(*(range(-bound, bound + 1) for _ in range(dim)))


def _quad_value(mat, vec):
    acc = mp.mpf(0)
    n = len(vec)
    for i in range(n):
        if vec[i]:
            acc += vec[i] * sum(mat[i, j] * vec[j] for j in range(n))
    return acc


def _enumeration_bound(mat, dim, threshold=mp.mpf(120)):
    evals = np.linalg.eigvalsh(np.array(mat.tolist(), dtype=float))
    return int(math.ceil(math.sqrt(float(threshold) / evals[0]))) + 1


def torus_zeta_prime0(gram, character=None):
    """(Z(0), Z'(0)) for the torus with integer Gram matrix Q, optionally
    twisted by a 0/1 half-period character."""
    q = mp.matrix(gram)
    n = q.rows
    a = q**-1 / 2
    a_inv = q * 2
    eps = [0] * n if character is None else list(character)
    twisted = any(eps)
    c_a = 1 / mp.sqrt(mp.det(a))

    f0 = mp.mpf(0)
    for m in _lattice_points(_enumeration_bound(a, n), n):
        if not any(m):
            continue
        x = _quad_value(a, m)
        if x > 120:
            continue
        sign = -1 if sum(mi * ei for mi, ei in zip(m, eps)) % 2 else 1
        f0 += sign * mp.gammainc(0, x)

    dual_scale = mp.pi**2
    shift = [mp.mpf(e) / 2 for e in eps]
    dual = mp.mpf(0)
    for k in _lattice_points(_enumeration_bound(a_inv, n, mp.mpf(120) / float(dual_scale)), n):
        vec = [ki + si for ki, si in zip(k, shift)]
        if not any(vec):
            continue
        y = dual_scale * _quad_value(a_inv, vec)
        if y > 120:
            continue
        dual += mp.gammainc(mp.mpf(n) / 2, y) * y ** (-mp.mpf(n) / 2)
    f0 += c_a * mp.pi ** (mp.mpf(n) / 2) * dual

    z0 = mp.mpf(-1)
    zp = f0 - mp.euler
    if not twisted:
        zp -= 2 * c_a * mp.pi ** (mp.mpf(n) / 2) / n
    return z0, zp


# ---------------------------------------------------------------------------
# Flat-torus spectrum in exact rational arithmetic: a Gauss-Jordan inverse of
# Q in Fractions and one plain loop over the box, each eigenvalue exact until
# Fraction.__float__ rounds it once.
# ---------------------------------------------------------------------------


def _fraction_inverse(gram):
    n = len(gram)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(gram)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def exact_torus_eigenvalues(gram, character, cutoff):
    """{lambda: [m_plus, m_minus]} over the nonzero integer vectors m with
    lambda = m^T Q^{-1} m / 2 <= cutoff, exact; m_minus counts the m with
    odd m.character."""
    n = len(gram)
    inv = _fraction_inverse(gram)
    den = math.lcm(*(x.denominator for row in inv for x in row))
    num = [[int(x * den) for x in row] for row in inv]
    eps = [0] * n if character is None else list(character)
    cut = Fraction(cutoff)
    # m^T Q^{-1} m <= 2 cutoff forces m_i^2 <= 2 cutoff Q_ii
    reach = [math.isqrt(math.floor(2 * cut * gram[i][i])) for i in range(n)]
    out = {}
    for m in itertools.product(*(range(-r, r + 1) for r in reach)):
        twice = sum(m[i] * num[i][j] * m[j] for i in range(n) for j in range(n))
        lam = Fraction(twice, 2 * den)
        if 0 < lam <= cut:
            sign = sum(a * e for a, e in zip(m, eps)) % 2
            out.setdefault(lam, [0, 0])[sign] += 1
    return out


def exact_torus_entries(gram, character, cutoff):
    """Ascending (float(lambda), m_plus, m_minus), each float the correctly
    rounded lambda; eigenvalues that round to one float share an entry."""
    out = []
    for lam, (plus, minus) in sorted(exact_torus_eigenvalues(gram, character, cutoff).items()):
        x = float(lam)
        if out and out[-1][0] == x:
            out[-1] = (x, out[-1][1] + plus, out[-1][2] + minus)
        else:
            out.append((x, plus, minus))
    return out


# ---------------------------------------------------------------------------
# Finite-difference sphere Laplacian: one symmetric tridiagonal operator per
# Fourier mode in the azimuthal angle. Coarse but entirely independent of
# the spherical-harmonic formula.
# ---------------------------------------------------------------------------


def fd_sphere_eigenvalues(mode: int, count: int, n_grid: int = 1500):
    """Smallest `count` eigenvalues of the full (geometer's) sphere
    Laplacian restricted to azimuthal mode `mode`, unit radius."""
    from scipy.linalg import eigvalsh_tridiagonal

    h = math.pi / n_grid
    theta = (np.arange(n_grid) + 0.5) * h
    sin_c = np.sin(theta)
    sin_h = np.sin(np.arange(1, n_grid) * h)  # interface values sin(j h)
    diag = np.zeros(n_grid)
    diag[:-1] += sin_h
    diag[1:] += sin_h
    diag = diag / (h * h * sin_c) + (mode * mode) / (sin_c * sin_c)
    off = -sin_h / (h * h * np.sqrt(sin_c[:-1] * sin_c[1:]))
    vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    return vals


# ---------------------------------------------------------------------------
# Rescaling: the spectrum of c * Laplacian, through the public constructors
# of the spectrum's own types, for the scaling law
# zeta_c(0) = zeta(0), zeta_c'(0) = zeta'(0) - log(c) zeta(0).
# ---------------------------------------------------------------------------


def scaled_spectrum(spectrum, c: float):
    """theta_c(t) = theta(c t): eigenvalues and cutoff times c, and the tail
    coefficient on t^((j - dim)/2) times c^((j - dim)/2)."""
    tail = spectrum.tail

    def ladder(coeffs):
        if coeffs is None:
            return None
        return tuple(a * c ** ((j - tail.dim) / 2.0) for j, a in enumerate(coeffs))

    return type(spectrum)(
        [(lam * c, m_plus, m_minus) for lam, m_plus, m_minus in spectrum.entries],
        spectrum.kernel,
        type(tail)(tail.dim, ladder(tail.straight), ladder(tail.twisted)),
        spectrum.cutoff * c,
    )


# ---------------------------------------------------------------------------
# Complete spectra: direct summation, the second route the Mellin engine
# must agree with. Reads only the spectrum's entries.
# ---------------------------------------------------------------------------


def direct_zeta(spectrum, sign: int):
    """(zeta(0), zeta'(0)) of one sign sector of a complete spectrum:
    the sum of the multiplicities m, and -sum m log lambda."""
    col = 1 if sign > 0 else 2
    entries = spectrum.entries
    zeta0 = math.fsum(e[col] for e in entries)
    zeta_prime0 = -math.fsum(e[col] * math.log(e[0]) for e in entries)
    return zeta0, zeta_prime0


# ---------------------------------------------------------------------------
# Exact lattice algebra: products and signatures by the textbook routes.
# ---------------------------------------------------------------------------


def _python_number(x):
    return int(x) if isinstance(x, np.integer) else x


def nested_sum_product(a, b):
    """Rows of sum_k a_ik b_kj for a nonempty b, each a sum from 0 over
    Python numbers (numpy integers become ints, so nothing wraps)."""
    a = [[_python_number(x) for x in row] for row in a]
    b = [[_python_number(x) for x in row] for row in b]
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for row in a
    ]


def fraction_inertia(gram) -> tuple[int, int]:
    """Signature of a symmetric integer matrix by congruence
    diagonalization over Fraction: a nonzero diagonal pivot when there is
    one, else v_i += v_j for the first nonzero a_ij (new a_ii = 2 a_ij).
    Raises ValueError with the rank, in the package's words for a
    DegenerateLatticeError, when the form is singular (the benchmark's
    parent process imports this module, and never imports k3zeta)."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in active for j in active if i != j and m[i][j] != 0),
                None,
            )
            if pair is None:
                raise ValueError(
                    "gram matrix is singular (rank %d of %d)" % (n - len(active), n)
                )
            i, j = pair
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            piv = i
        d = m[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        for j in active:
            f = m[piv][j] / d
            if f == 0:
                continue
            for k in range(n):
                m[j][k] -= f * m[piv][k]
            for k in range(n):
                m[k][j] -= f * m[k][piv]
    return pos, neg
