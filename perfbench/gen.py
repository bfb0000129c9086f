"""Seeded inputs for the four workloads.

Nothing here imports k3zeta: the K3 lattice, the involution, the root
reflections, the frames and the torus spectrum file are all built from
their definitions, so the program only ever sees generated inputs.

Every workload is one round of operations that a run repeats. The
lattice, sphere and torus rounds are fixed lists whose order the seed
shuffles, so every seed does the same work; the CLI round draws frames, a
report and a spectrum file from a seeded stream.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("cli-presets", "lattice-periods", "sphere-zeta", "torus-zeta")

# --- the K3 lattice U^3 + E8(-1)^2 and the Enriques-type involution -------

_E8_BONDS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def k3_gram() -> np.ndarray:
    g = np.zeros((22, 22), dtype=np.int64)
    for k in range(3):
        g[2 * k, 2 * k + 1] = g[2 * k + 1, 2 * k] = 1
    for off in (6, 14):
        for i in range(8):
            g[off + i, off + i] = -2
        for a, b in _E8_BONDS:
            g[off + a - 1, off + b - 1] = g[off + b - 1, off + a - 1] = 1
    return g


def enriques_matrix() -> np.ndarray:
    """Swap the first two hyperbolic planes, negate the third, swap the two
    E8(-1) blocks."""
    m = np.zeros((22, 22), dtype=np.int64)
    for a, b, size in ((0, 2, 2), (6, 14, 8)):
        for k in range(size):
            m[a + k, b + k] = m[b + k, a + k] = 1
    m[4, 4] = m[5, 5] = -1
    return m


def _random_root(rng) -> np.ndarray:
    """A root of norm +2 or -2: e + f or e - f in a hyperbolic plane,
    +-e + alpha mixing a plane with an E8(-1) block, or a simple root
    alpha of an E8(-1) block."""
    r = np.zeros(22, dtype=np.int64)
    plane = 2 * int(rng.integers(3))
    alpha = (6, 14)[int(rng.integers(2))] + int(rng.integers(8))
    kind = int(rng.integers(3))
    sign = int(rng.choice((-1, 1)))
    if kind == 0:  # e + f (norm 2) or e - f (norm -2)
        r[plane], r[plane + 1] = 1, sign
    elif kind == 1:  # +-e + alpha, norm -2
        r[plane + int(rng.integers(2))] = sign
        r[alpha] = 1
    else:  # a simple E8(-1) root, norm -2
        r[alpha] = 1
    return r


def reflection(root: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """s_r(x) = x - 2 (x.r) / (r.r) r as an integer matrix on columns."""
    norm = int(root @ gram @ root)
    if norm not in (2, -2):
        raise ValueError("not a root: norm %d" % norm)
    return np.eye(22, dtype=np.int64) - (2 // norm) * np.outer(root, gram @ root)


# period_of starts to reject compatible frames from entries of a few
# hundred on (see CHANGES.md); words are redrawn above this.
LATTICE_MAX_ENTRY = 200


def conjugated_involution(rng, word_length: int) -> np.ndarray:
    """g iota g^-1 with g a product of `word_length` root reflections and
    entries of at most LATTICE_MAX_ENTRY."""
    gram = k3_gram()
    while True:
        g = np.eye(22, dtype=np.int64)
        for _ in range(word_length):
            g = g @ reflection(_random_root(rng), gram)
        # g is an isometry, so g^-1 = G^-1 g^T G
        g_inv = np.rint(np.linalg.inv(gram) @ g.T @ gram).astype(np.int64)
        if not np.array_equal(g @ g_inv, np.eye(22, dtype=np.int64)):
            raise ArithmeticError("integer overflow while conjugating")
        m = g @ enriques_matrix() @ g_inv
        if np.abs(m).max() <= LATTICE_MAX_ENTRY:
            return m


# --- lattice-periods -------------------------------------------------------

# word lengths per round: 0 (iota itself) once, 1 .. 12 twice
LATTICE_WORDS = (0,) + tuple(range(1, 13)) * 2


def lattice_ops() -> list[dict]:
    """The fixed operation list: an involution per entry of LATTICE_WORDS,
    no two alike (a word may conjugate iota to itself or to an earlier
    draw; it is then redrawn), drawn once from a fixed generator."""
    rng = np.random.default_rng(20060115)
    ops, seen = [], set()
    for length in LATTICE_WORDS:
        while True:
            m = conjugated_involution(rng, int(length))
            if m.tobytes() not in seen:
                break
        seen.add(m.tobytes())
        ops.append(
            {
                "kind": "lattice",
                "word_length": int(length),
                "matrix": m.tolist(),
                "frame_seed": int(rng.integers(2**31)),
                "branch": int(rng.choice((-1, 1))),
                "psi": float(rng.uniform(0.0, 2.0 * math.pi)),
            }
        )
    return ops


def lattice_round(seed: int) -> list[dict]:
    """lattice_ops() in a seeded order."""
    ops = lattice_ops()
    return [ops[i] for i in np.random.default_rng([seed, 1]).permutation(len(ops))]


# --- sphere-zeta -----------------------------------------------------------

SPHERE_KINDS = (
    "zeta_plus",
    "zeta_minus",
    "dolbeault_0",
    "dolbeault_1",
    "dolbeault_2",
    "determinant",
    "torsion",
    "tau",
)
SPHERE_PER_KIND = 16
SPHERE_LMAX = (150, 2000)
SPHERE_TOLS = (1e-6, 1e-8)

# zeta_+ misses the Hurwitz reference by 1.83e-13 but reports an error
# estimate of 1.59e-13; kept in every round and counted as failed.
SPHERE_KNOWN_FAULT = {
    "kind": "zeta_plus",
    "radius": 0.8503788400621768,
    "l_max": 991,
    "tol": 1e-8,
    "known_fault": True,
}


def sphere_ops() -> list[dict]:
    """The fixed operation list: the known fault, and per kind one
    operation from each of SPHERE_PER_KIND equal slices of the l_max range,
    the tolerances alternating, the radius drawn from [0.5, 2)."""
    rng = np.random.default_rng(20060113)
    lo, hi = SPHERE_LMAX[0], SPHERE_LMAX[1] + 1
    ops = [dict(SPHERE_KNOWN_FAULT)]
    for kind in SPHERE_KINDS:
        for k in range(SPHERE_PER_KIND):
            ops.append(
                {
                    "kind": kind,
                    "radius": float(rng.uniform(0.5, 2.0)),
                    "l_max": int(lo + (hi - lo) * (k + rng.random()) / SPHERE_PER_KIND),
                    "tol": SPHERE_TOLS[k % 2],
                }
            )
    return ops


def sphere_round(seed: int) -> list[dict]:
    """sphere_ops() in a seeded order."""
    ops = sphere_ops()
    return [ops[i] for i in np.random.default_rng([seed, 2]).permutation(len(ops))]


# --- torus-zeta ------------------------------------------------------------

# reduced positive definite [[a, b], [b, c]] with 0 <= 2b <= a <= c <= 3
# (b and -b give isometric tori, hence the same spectrum), cheapest first
TORUS2_GRAMS = tuple(
    sorted(
        ([[a, b], [b, c]] for a in (1, 2, 3) for c in range(a, 4) for b in range(a // 2 + 1)),
        key=lambda g: (g[0][0] * g[1][1], g[0][1]),
    )
)
TORUS2_TOL = 1e-8
TORUS3_GRAM = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
TORUS3_CUTOFF = 90.0
TORUS3_TOL = 1e-3


def torus_op(gram, cutoff: float, twisted: bool) -> dict:
    """A determinant with the character (1, 0, ...), or, for the trivial
    character, tau with the torus as its own fixed curve."""
    n = len(gram)
    return {
        "kind": "determinant" if twisted else "tau",
        "gram": gram,
        "character": [1] + [0] * (n - 1) if twisted else None,
        "cutoff": cutoff,
        "tol": TORUS2_TOL if n == 2 else TORUS3_TOL,
    }


def torus_ops() -> list[dict]:
    """The fixed operation list: every reduced 2-torus Gram matrix twice,
    tau (two spectra) at a cutoff in [300, 650) and the twisted determinant
    at one in [650, 1000). Each half is cut into one slice per Gram matrix
    and the costlier the matrix, the lower its slice, which evens out the
    operation costs. Plus the 3-torus determinant."""
    n = len(TORUS2_GRAMS)
    width = 350.0 / n
    ops = []
    for rank, gram in enumerate(TORUS2_GRAMS):
        for half in (0, 1):
            cutoff = round(300.0 + 350.0 * half + width * (n - 0.5 - rank), 3)
            ops.append(torus_op(gram, cutoff, half == 1))
    return ops + [torus_op(TORUS3_GRAM, TORUS3_CUTOFF, True)]


def torus_round(seed: int) -> list[dict]:
    """torus_ops() in a seeded order."""
    ops = torus_ops()
    return [ops[i] for i in np.random.default_rng([seed, 3]).permutation(len(ops))]


# --- cli-presets -----------------------------------------------------------


def _positive_split(basis: np.ndarray, gram: np.ndarray, want_pos: int):
    induced = basis.T @ gram @ basis
    w, v = np.linalg.eigh(induced)
    pos = basis @ (v[:, -want_pos:] / np.sqrt(w[-want_pos:]))
    neg = basis @ (v[:, : len(w) - want_pos] / np.sqrt(-w[: len(w) - want_pos]))
    return pos, neg


def enriques_frame(rng) -> list[list[float]]:
    """Rows (gamma_I, gamma_J, gamma_K) with pairing 2I: gamma_I positive and
    invariant, gamma_J and gamma_K spanning a positive anti-invariant
    plane, each tilted by a seeded negative admixture."""
    gram = k3_gram().astype(float)
    m = enriques_matrix().astype(float)
    eye = np.eye(22)
    # eigenspaces as column spaces of (I + m) and (I - m), orthonormalized
    bp = np.linalg.svd(eye + m)[0][:, :10]
    bm = np.linalg.svd(eye - m)[0][:, :12]
    pos_p, neg_p = _positive_split(bp, gram, 1)
    pos_m, neg_m = _positive_split(bm, gram, 2)

    def normalized(x):
        return x * math.sqrt(2.0 / float(x @ gram @ x))

    gi = normalized(pos_p[:, 0] + 0.5 * rng.uniform() * neg_p @ rng.dirichlet(np.ones(9)))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    p1 = math.cos(phi) * pos_m[:, 0] + math.sin(phi) * pos_m[:, 1]
    p2 = -math.sin(phi) * pos_m[:, 0] + math.cos(phi) * pos_m[:, 1]
    gj = normalized(p1 + 0.3 * rng.uniform() * neg_m @ rng.dirichlet(np.ones(10)))
    y = p2 - (float(p2 @ gram @ gj) / 2.0) * gj
    gk = normalized(y)
    return [gi.tolist(), gj.tolist(), gk.tolist()]


def family_member(frame, branch: int, psi: float) -> list[list[float]]:
    """The compatible family: branch +1 rotates (J, K) by psi; branch -1
    also flips gamma_I and the orientation of the (J, K) plane."""
    gi, gj, gk = (np.asarray(v) for v in frame)
    c, s = math.cos(psi), math.sin(psi)
    if branch == 1:
        rows = (gi, c * gj - s * gk, s * gj + c * gk)
    else:
        rows = (-gi, c * gj + s * gk, s * gj - c * gk)
    return [r.tolist() for r in rows]


def torus_spectrum_file(gram, character, cutoff: float) -> dict:
    """The truncated flat-torus spectrum in the wire format of `--spectrum`:
    eigenvalues m^T Q^-1 m / 2 = m^T adj(Q) m / (2 det Q), grouped by their
    exact integer numerators."""
    q = np.asarray(gram, dtype=np.int64)
    det = int(q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0])
    adj = np.array([[q[1, 1], -q[0, 1]], [-q[1, 0], q[0, 0]]], dtype=np.int64)
    bounds = [math.isqrt(int(2.0 * cutoff * q[i, i])) + 1 for i in range(2)]
    m1, m2 = np.meshgrid(
        np.arange(-bounds[0], bounds[0] + 1), np.arange(-bounds[1], bounds[1] + 1)
    )
    m = np.stack([m1.ravel(), m2.ravel()])
    keys = np.einsum("ik,ij,jk->k", m, adj, m)
    parity = (m[0] * character[0] + m[1] * character[1]) % 2
    keep = (keys > 0) & (keys <= 2 * det * cutoff)
    table: dict[int, list[int]] = {}
    for key, par in zip(keys[keep].tolist(), parity[keep].tolist()):
        table.setdefault(key, [0, 0])[par] += 1
    entries = [[k / (2 * det), mp, mm] for k, (mp, mm) in sorted(table.items())]
    c0 = 2.0 * math.pi * math.sqrt(det)
    return {
        "entries": entries,
        "kernel": [1, 0],
        "tail": {"dim": 2, "straight": [c0] + [0.0] * 10, "twisted": "free"},
        "cutoff": float(cutoff),
    }


# (gram, cutoff) of the generated spectrum files, each about 2900 entries
CLI_SPECTRA = (([[2, 1], [1, 3]], 1500.0), ([[3, 1], [1, 3]], 1150.0), ([[2, 0], [0, 3]], 1200.0))


def cli_round(seed: int) -> tuple[list[dict], dict]:
    """The ROADMAP presets plus period on generated frames and zeta on a
    generated spectrum. Returns the operations and the input files they
    read, keyed by file name."""
    rng = np.random.default_rng([seed, 4])
    files: dict = {}
    ops = [
        {"name": "lattice-k3", "argv": ["lattice", "--builtin", "k3"]},
        {"name": "involution-enriques", "argv": ["involution", "--builtin", "enriques"]},
        {"name": "zeta-s2", "argv": ["zeta", "--builtin", "s2-antipodal"]},
        {"name": "tau-s2", "argv": ["tau", "--builtin", "s2-antipodal"]},
        {"name": "zeta-t2", "argv": ["zeta", "--builtin", "t2-flat"]},
        {"name": "tau-t2", "argv": ["tau", "--builtin", "t2-flat"]},
    ]
    gram = k3_gram().tolist()
    frame = enriques_frame(rng)
    member = family_member(frame, int(rng.choice((-1, 1))), float(rng.uniform(0, 2 * math.pi)))
    for tag, gammas in (("a", frame), ("b", member)):
        files["frame-%s.json" % tag] = {"form": gram, "gammas": gammas}
        ops.append(
            {
                "name": "period-" + tag,
                "argv": ["period", "--frame", "frame-%s.json" % tag, "--involution", "enriques"],
                "family": 0,
            }
        )
    tau = float(math.exp(rng.uniform(-5.0, 1.0)))
    nu = int(rng.integers(1, 4))
    ops.append(
        {"name": "report", "argv": ["report", "--tau", repr(tau), "--nu", str(nu)], "tau": tau, "nu": nu}
    )
    sgram, cutoff = CLI_SPECTRA[int(rng.integers(len(CLI_SPECTRA)))]
    files["spectrum.json"] = torus_spectrum_file(sgram, [1, 0], cutoff)
    ops.append(
        {
            "name": "zeta-file",
            "argv": ["zeta", "--spectrum", "spectrum.json"],
            "gram": sgram,
            "character": [1, 0],
        }
    )
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], files
