"""Checks of every output against references made apart from the program.

Spectral references come from tests/oracles.py (Hurwitz zeta for the
sphere, shifted by the radius; Chowla-Selberg sums for flat tori) and from
closed forms. Lattice outputs are checked against invariants of
conjugation and against properties a period pair must have, computed here
with numpy from the generated inputs.

Two kinds of finding are kept apart. A value further from its reference
than its own `error_estimate`, or an error raised by the program, makes
the operation *failed*. Anything else that is wrong (a lattice invariant,
a label, a repeated run that differs) is a *problem* and makes the whole
run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import numpy as np

import gen


def load_oracles(root: str):
    sys.path.insert(0, os.path.join(root, "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    return oracles


class References:
    """Oracle values, computed once per distinct input. Flat-torus values
    take seconds each, so they are also kept in a file in the output
    directory, keyed by the oracle source's hash."""

    def __init__(self, root: str, cache_dir: str | None):
        self.oracles = load_oracles(root)
        self.mp = self.oracles.mp
        self._sphere = None
        self._torus: dict = {}
        self._path = None
        if cache_dir is not None:
            with open(os.path.join(root, "tests", "oracles.py"), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()[:16]
            self._path = os.path.join(cache_dir, "references-%s.json" % digest)
            if os.path.exists(self._path):
                with open(self._path, encoding="utf-8") as fh:
                    self._torus = json.load(fh)

    def sphere(self, radius: float):
        """((S(0), S'(0)), (T(0), T'(0))): straight and twisted zeta values
        of the round sphere of this radius."""
        o = self.oracles
        if self._sphere is None:
            self._sphere = (
                (o.sphere_straight_zeta0(), o.sphere_straight_zeta_prime0()),
                (o.sphere_twisted_zeta0(), o.sphere_twisted_zeta_prime0()),
            )
        (s0, s1), (t0, t1) = self._sphere
        return o.sphere_radius_shift(s0, s1, radius), o.sphere_radius_shift(t0, t1, radius)

    def torus(self, gram, character):
        """(Z(0), Z'(0)) of the Epstein zeta function, twisted by the
        character when it is nontrivial."""
        key = json.dumps([gram, character if character and any(character) else None])
        if key not in self._torus:
            z0, zp = self.oracles.torus_zeta_prime0(gram, json.loads(key)[1])
            self._torus[key] = [str(z0), str(zp)]
            if self._path is not None:
                tmp = self._path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(self._torus, fh)
                os.replace(tmp, self._path)
        return tuple(self.mp.mpf(v) for v in self._torus[key])


class Verdict:
    def __init__(self):
        self.missed: list[str] = []
        self.problems: list[str] = []
        self.worst_ratio = 0.0  # largest |value - reference| / error_estimate

    @property
    def failed(self) -> bool:
        return bool(self.missed)

    def within(self, what: str, value, reference, error_estimate, mp) -> None:
        """The defining property of a report: |value - reference| is at
        most the error estimate the report states."""
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            self.problems.append("%s is not a finite number: %r" % (what, value))
            return
        miss = abs(mp.mpf(value) - reference)
        if error_estimate > 0:
            self.worst_ratio = max(self.worst_ratio, float(miss / mp.mpf(error_estimate)))
        if miss > mp.mpf(error_estimate):
            self.missed.append(
                "%s misses its reference by %.3e, beyond its error estimate %.3e"
                % (what, float(miss), error_estimate)
            )

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append("%s is %r, expected %r" % (what, got, want))

    def close(self, what: str, got: float, want: float, rtol: float = 1e-12) -> None:
        if not abs(got - want) <= rtol * abs(want):
            self.problems.append("%s is %r, expected %r" % (what, got, want))


# -- spectral operations ----------------------------------------------------


def _zeta(v, what, out, z0, zp, mp):
    v.within(what + ".zeta_at_0", out["z0"], z0, out["err"], mp)
    v.within(what + ".zeta_prime_at_0", out["zp"], zp, out["err"], mp)


def _det(v, what, out, plus, minus, mp):
    """Determinant exp(-zeta_+'(0) + zeta_-'(0)) and both sectors."""
    _zeta(v, what + ".plus", out["plus"], *plus, mp)
    _zeta(v, what + ".minus", out["minus"], *minus, mp)
    v.within(what + ".value", out["value"], mp.exp(-plus[1] + minus[1]), out["err"], mp)


def check_spectral(op: dict, out: dict, refs: References) -> Verdict:
    v = Verdict()
    if "error" in out:
        v.missed.append(out["error"])
        return v
    mp = refs.mp
    kind = op["kind"]
    if "gram" in op:
        z = refs.torus(op["gram"], None)
        vol = (2 * mp.pi) ** len(op["gram"]) * mp.sqrt(mp.det(mp.matrix(op["gram"])))
        if kind == "tau":
            # the torus is its own fixed curve: tau = Vol * exp(3 Z'(0))
            _det(v, "determinant", out["det"], z, (0, 0), mp)
            v.within("tau", out["value"], vol * mp.exp(3 * z[1]), out["err"], mp)
        else:
            ze = refs.torus(op["gram"], op["character"])
            plus = ((z[0] + ze[0]) / 2, (z[1] + ze[1]) / 2)
            minus = ((z[0] - ze[0]) / 2, (z[1] - ze[1]) / 2)
            _det(v, "determinant", out, plus, minus, mp)
        return v
    r = op["radius"]
    s, t = refs.sphere(r)
    plus = ((s[0] + t[0]) / 2, (s[1] + t[1]) / 2)
    minus = ((s[0] - t[0]) / 2, (s[1] - t[1]) / 2)
    if kind == "zeta_plus":
        _zeta(v, kind, out, *plus, mp)
    elif kind == "zeta_minus":
        _zeta(v, kind, out, *minus, mp)
    elif kind == "dolbeault_0":
        _zeta(v, kind, out, *t, mp)
    elif kind == "dolbeault_1":
        _zeta(v, kind, out, 0, 0, mp)
    elif kind == "dolbeault_2":
        _zeta(v, kind, out, -t[0], -t[1], mp)
    elif kind == "determinant":
        _det(v, kind, out, plus, minus, mp)
        v.within("determinant.closed_form", out["value"], mp.pi * mp.mpf(r) ** 2, out["err"], mp)
    elif kind == "torsion":
        v.within("torsion", out["value"], 1 / (mp.pi**2 * mp.mpf(r) ** 4), out["err"], mp)
    elif kind == "tau":
        # non-antipodal sphere with itself as fixed curve: 4 pi r^2 exp(3 S')
        _det(v, "determinant", out["det"], s, (0, 0), mp)
        v.within("tau", out["value"], 4 * mp.pi * mp.mpf(r) ** 2 * mp.exp(3 * s[1]), out["err"], mp)
    else:
        v.problems.append("unknown operation kind %r" % kind)
    return v


# -- lattice operations -----------------------------------------------------

_K3 = gen.k3_gram().astype(float)


def _vector(pair_part) -> np.ndarray:
    return np.asarray(pair_part[0]) + 1j * np.asarray(pair_part[1])


def projectively_equal(a: np.ndarray, b: np.ndarray, rtol: float = 1e-8) -> bool:
    i = int(np.argmax(np.abs(a)))
    if a[i] == 0 or b[i] == 0:
        return False
    return float(np.max(np.abs(b - (b[i] / a[i]) * a))) <= rtol * float(np.max(np.abs(b)))


def _same_pair(p, q) -> bool:
    return (projectively_equal(p[0], q[0]) and projectively_equal(p[1], q[1])) or (
        projectively_equal(p[0], q[1]) and projectively_equal(p[1], q[0])
    )


def check_lattice(op: dict, out: dict, data: dict | None) -> Verdict:
    v = Verdict()
    if "error" in out:
        v.missed.append(out["error"])
        return v
    v.expect("trace", out["trace"], -2)
    for key, sig, hyp in (("plus", [1, 9], True), ("minus", [2, 10], False)):
        v.expect(key + ".signature", out[key]["signature"], sig)
        v.expect(key + ".divisors", out[key]["divisors"], [2] * 10)
        v.expect(key + ".hyperbolic", out[key]["hyperbolic"], hyp)
    for labels in out["labels"]:
        if sorted(labels) != [-1, 1]:
            v.problems.append("labels %r are not opposite" % (labels,))
    m = np.asarray(op["matrix"], dtype=float)
    invariant = np.eye(22) + m  # its columns span the + eigenlattice
    scale = float(np.max(np.abs(invariant)))
    for k, (jk, per) in enumerate(zip(data["frames"], data["periods"])):
        p, q = _vector(per["plus"]), _vector(per["minus"])
        norm = float(np.real(np.conj(p) @ _K3 @ p))
        if not norm > 0.0 or abs(p @ _K3 @ p) > 1e-8 * norm:
            v.problems.append("frame %d: period is not a positive isotropic line" % k)
        gp = _K3 @ p
        if float(np.max(np.abs(invariant.T @ gp))) > 1e-10 * scale * float(np.sum(np.abs(gp))):
            v.problems.append("frame %d: period is not orthogonal to the + eigenlattice" % k)
        if not projectively_equal(np.asarray(jk[0]) + 1j * np.asarray(jk[1]), p):
            v.problems.append("frame %d: period is not gamma_J + i gamma_K" % k)
        if not projectively_equal(np.conj(p), q):
            v.problems.append("frame %d: pair members are not conjugate" % k)
    first = data["periods"][0]
    family = data["family"]
    if not _same_pair(
        (_vector(first["plus"]), _vector(first["minus"])),
        (_vector(family["plus"]), _vector(family["minus"])),
    ):
        v.problems.append("period pair changes along the compatible family")
    return v


# -- command-line operations ------------------------------------------------


def _cli_zeta(v, doc, refs, gram=None, character=None, radius=None):
    mp = refs.mp
    if radius is not None:
        s, t = refs.sphere(radius)
    else:
        s, t = refs.torus(gram, None), refs.torus(gram, character)
    plus = ((s[0] + t[0]) / 2, (s[1] + t[1]) / 2)
    minus = ((s[0] - t[0]) / 2, (s[1] - t[1]) / 2)

    def zeta(what, d, z0, zp):
        v.within(what + ".zeta_at_0", d["zeta_at_0"], z0, d["error_estimate"], mp)
        v.within(what + ".zeta_prime_at_0", d["zeta_prime_at_0"], zp, d["error_estimate"], mp)

    zeta("plus", doc["plus"], *plus)
    zeta("minus", doc["minus"], *minus)
    zeta("dolbeault.q0", doc["dolbeault"]["q0"], *t)
    zeta("dolbeault.q1", doc["dolbeault"]["q1"], 0, 0)
    zeta("dolbeault.q2", doc["dolbeault"]["q2"], -t[0], -t[1])


def _cli_tau(v, doc, refs, expected_tau, expected_det):
    mp = refs.mp
    v.within("tau", doc["tau"], expected_tau, doc["error_estimate"], mp)
    det = doc["determinant"]
    v.within("determinant", det["value"], expected_det, det["error_estimate"], mp)
    bor = doc["borcherds"]
    v.close("borcherds.round_trip_tau", bor["round_trip_tau"], doc["tau"])
    v.close("borcherds.implied_norm", bor["implied_norm"], doc["tau"] ** -2)


def check_cli(op: dict, stdout: bytes, code: int, refs: References) -> Verdict:
    v = Verdict()
    if code != 0:
        v.missed.append("exit code %d" % code)
        return v
    try:
        doc = json.loads(stdout)
    except ValueError:
        v.problems.append("stdout is not JSON")
        return v
    mp = refs.mp
    name = op["name"]
    if name == "lattice-k3":
        for key, want in (("rank", 22), ("signature", [3, 19]), ("determinant", -1), ("even", True), ("unimodular", True)):
            v.expect(key, doc.get(key), want)
    elif name == "involution-enriques":
        v.expect("trace", doc.get("trace"), -2)
        for key, rank, sig, hyp in (("plus", 10, [1, 9], True), ("minus", 12, [2, 10], False)):
            part = doc.get(key, {})
            v.expect(key + ".rank", part.get("rank"), rank)
            v.expect(key + ".signature", part.get("signature"), sig)
            v.expect(key + ".divisors", part.get("divisors"), [2] * 10)
            v.expect(key + ".hyperbolic", part.get("hyperbolic"), hyp)
    elif name == "zeta-s2":
        _cli_zeta(v, doc, refs, radius=1.0)
        log_det = doc["minus"]["zeta_prime_at_0"] - doc["plus"]["zeta_prime_at_0"]
        err = doc["minus"]["error_estimate"] + doc["plus"]["error_estimate"]
        v.within("zeta_-'(0) - zeta_+'(0)", log_det, mp.log(mp.pi), err, mp)
    elif name == "tau-s2":
        _cli_tau(v, doc, refs, 1 / mp.pi**2, mp.pi)
    elif name in ("zeta-t2", "zeta-file"):
        gram = op.get("gram", [[1, 0], [0, 1]])
        _cli_zeta(v, doc, refs, gram=gram, character=op.get("character", [1, 0]))
    elif name == "tau-t2":
        ze = refs.torus([[1, 0], [0, 1]], [1, 0])
        _cli_tau(v, doc, refs, mp.exp(2 * ze[1]), mp.exp(-ze[1]))
    elif name == "report":
        v.expect("tau", doc.get("tau"), op["tau"])
        v.expect("nu", doc.get("nu"), op["nu"])
        v.close("implied_norm", doc["implied_norm"], op["tau"] ** (-2 * op["nu"]))
        v.close("round_trip_tau", doc["round_trip_tau"], op["tau"])
    elif name.startswith("period-"):
        if sorted(doc.get("labels", [])) != [-1, 1]:
            v.problems.append("labels %r are not opposite" % (doc.get("labels"),))
    else:
        v.problems.append("unknown operation %r" % name)
    return v


def check_period_families(ops: list[dict], stdouts: dict) -> list[str]:
    """Frames of one compatible family must give the same period pair."""
    pairs: dict = {}
    for op in ops:
        if "family" in op and op["name"] in stdouts:
            doc = json.loads(stdouts[op["name"]])
            pair = tuple(
                np.asarray(doc[k]["re"]) + 1j * np.asarray(doc[k]["im"]) for k in ("plus", "minus")
            )
            pairs.setdefault(op["family"], []).append((op["name"], pair))
    problems = []
    for members in pairs.values():
        (name0, first), *rest = members
        for name, pair in rest:
            if not _same_pair(first, pair):
                problems.append("%s and %s give different period pairs" % (name0, name))
    return problems
