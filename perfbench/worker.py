"""Runs one in-process workload against k3zeta and records what it saw.

    python3 perfbench/worker.py JOB.json RESULT.json [--setup-only]

JOB.json holds one round of generated operations and the run settings.
The worker imports k3zeta and decodes the job (the timed set-up), then
repeats the round, one operation after another, until both the run length
and the operation floor are reached. Before each operation it empties every
functools cache in k3zeta, so that a repetition costs what a new input
costs. Each operation is timed alone and followed, untimed, by a stretch
of the calibration loop (calib.py) a fifth as long; the data the parent
needs for its checks is gathered in the first round, after the clock
stops. With tracing on, the spans are written next to the result. --setup-only stops after the
set-up, so that the parent can time it several times.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import calib


def zeta_dict(r) -> dict:
    return {"z0": r.zeta_at_0, "zp": r.zeta_prime_at_0, "err": r.error_estimate}


def det_dict(r) -> dict:
    return {"value": r.value, "err": r.error_estimate, "plus": zeta_dict(r.plus), "minus": zeta_dict(r.minus)}


def torsion_dict(r) -> dict:
    return {"value": r.value, "err": r.error_estimate, "log": r.log_value, "residual": r.determinant_residual}


def tau_dict(r) -> dict:
    return {
        "value": r.value,
        "err": r.error_estimate,
        "log": r.log_value,
        "det": det_dict(r.determinant),
        "factors": list(r.curve_factors),
    }


def _complex(v) -> list:
    return [v.real.tolist(), v.imag.tolist()]


class Runner:
    """Executes operations; `run` is the timed part, `check_data` the
    untimed part that exposes what the parent verifies."""

    def __init__(self, workload: str):
        import numpy as np

        from k3zeta import frames, lattices, models, periods, spectral

        self.np, self.frames, self.lattices = np, frames, lattices
        self.models, self.periods, self.spectral = models, periods, spectral
        self.k3 = lattices.build_standard_lattice("K3") if workload == "lattice-periods" else None
        self.caches = _functools_caches()

    def clear_caches(self) -> None:
        for cache in self.caches:
            cache.cache_clear()

    def run(self, op):
        kind = op["kind"]
        if kind == "lattice":
            return self._lattice(op)
        models, spectral = self.models, self.spectral
        tol = op["tol"]
        if "gram" in op:
            if kind == "tau":
                spec = models.flat_torus_spectrum(op["gram"], None, op["cutoff"])
                curve = models.flat_torus_curve(op["gram"], op["cutoff"])
                return tau_dict(spectral.tau_iota(spec, (curve,), tol)), None
            spec = models.flat_torus_spectrum(op["gram"], op["character"], op["cutoff"])
            return det_dict(spectral.equivariant_determinant_report(spec, tol)), None
        r, lmax = op["radius"], op["l_max"]
        if kind == "tau":
            spec = models.round_sphere_spectrum(r, False, lmax)
            curve = models.round_sphere_curve(r, lmax)
            return tau_dict(spectral.tau_iota(spec, (curve,), tol)), None
        spec = models.round_sphere_spectrum(r, True, lmax)
        if kind in ("zeta_plus", "zeta_minus"):
            return zeta_dict(spectral.zeta_signed(spec, 1 if kind == "zeta_plus" else -1, tol)), None
        if kind.startswith("dolbeault_"):
            return zeta_dict(spectral.dolbeault_zeta(spec, int(kind[-1]), tol)), None
        if kind == "determinant":
            return det_dict(spectral.equivariant_determinant_report(spec, tol)), None
        if kind == "torsion":
            return torsion_dict(spectral.equivariant_torsion_report(spec, tol)), None
        raise ValueError("unknown operation kind %r" % kind)

    def _lattice(self, op):
        lattices, frames, periods = self.lattices, self.frames, self.periods
        iso = lattices.LatticeIsometry(self.k3, op["matrix"])
        out = {"trace": iso.trace()}
        for sign, key in ((1, "plus"), (-1, "minus")):
            sub = lattices.eigenlattice(iso, sign)
            info = lattices.discriminant_info(sub)
            out[key] = {
                "signature": list(sub.induced_lattice().signature()),
                "divisors": list(info.divisors),
                "hyperbolic": lattices.is_hyperbolic_type(sub),
            }
        rng = self.np.random.default_rng(op["frame_seed"])
        found = []
        for _ in range(4):
            frame = frames.random_compatible_frame(iso, rng)
            pair = periods.period_of(frame, iso)
            found.append((frame, pair, pair.labels()))
        out["labels"] = [list(labels) for _, _, labels in found]
        return out, (iso, found)

    def _ambient(self, pair) -> dict:
        basis = self.np.asarray(pair.plus.sublattice.basis_matrix(), dtype=float)
        return {"plus": _complex(basis @ pair.plus.coords), "minus": _complex(basis @ pair.minus.coords)}

    def check_data(self, op, state):
        """Frames, ambient period vectors, and the period of a second
        member of the first frame's compatible family."""
        iso, found = state
        other = self.frames.compatible_frames(found[0][0], iso, op["branch"], op["psi"])
        return {
            "frames": [frame.gammas[1:].tolist() for frame, _, _ in found],
            "periods": [self._ambient(pair) for _, pair, _ in found],
            "family": self._ambient(self.periods.period_of(other, iso)),
        }


def _functools_caches() -> list:
    """Every lru_cache of k3zeta's modules and of their classes."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "k3zeta" and not name.startswith("k3zeta."):
            continue
        for obj in vars(mod).values():
            owners = [obj]
            if inspect.isclass(obj) and obj.__module__ == name:
                owners += list(vars(obj).values())
            for owner in owners:
                if callable(getattr(owner, "cache_clear", None)):
                    found[id(owner)] = owner
    return list(found.values())


def main(job_path: str, result_path: str, setup_only: bool) -> int:
    t0 = time.perf_counter()
    import k3zeta  # noqa: F401  (the import is part of the timed set-up)

    import_s = time.perf_counter() - t0
    modules = len(sys.modules)
    scipy = "scipy" in sys.modules
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    runner = Runner(job["workload"])
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "setup_cal": calib.calibrate(job["setup_cal_s"])}
    if setup_only:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    from k3zeta.errors import K3ZetaError

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops = job["ops"]
    times, stamps, cal, outputs, checks = [], [], [], [], []
    timed, n, k = 0.0, 0, 0
    wall_start = time.perf_counter()
    clock = time.perf_counter
    while True:
        for op in ops:
            runner.clear_caches()
            if tracer is not None:
                tracer.begin_op(n)
            state = None
            start = clock()
            try:
                out, state = runner.run(op)
            except K3ZetaError as exc:
                out = {"error": "%s: %s" % (type(exc).__name__, exc)}
            elapsed = clock() - start
            if tracer is not None:
                tracer.end_op()
            times.append(elapsed)
            stamps.append(start - wall_start)
            cal.append(calib.calibrate(calib.SHARE * elapsed))
            outputs.append(out)
            if k == 0:
                checks.append(None if state is None else runner.check_data(op, state))
            timed += elapsed
            n += 1
        k += 1
        done = timed >= job["seconds"] and n >= job["min_ops"]
        if done or clock() - wall_start > job["wall_limit_s"]:
            break
    result.update(rounds=k, times=times, stamps=stamps, cal=cal, outputs=outputs, checks=checks)
    if tracer is not None:
        tracer.dump(job["trace_out"], op=None, import_s=import_s, modules=modules, scipy=scipy)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:] == ["--setup-only"]))
