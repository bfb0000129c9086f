"""Fixed-work benchmark of k3zeta: one client, one operation after another.

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload sphere-zeta --seed 3 --trace 0

Run from the root of a checkout. Each workload is a seeded round of
operations, repeated until --seconds (by default run_seconds of
BENCHMARK.json) of operation time have passed and at least MIN_OPS
operations are done. Every output is then
checked against references computed in this process, which never imports
k3zeta; the program runs in child processes with BLAS pinned to one
thread, on the vCPU this process is pinned to. Times are normalised by a
calibration loop run between operations (calib.py). The last line printed is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with
--trace 1). See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calib
import gen

# operations a run makes at least, in whole rounds: four rounds on
# lattice-periods and sphere-zeta, and three where an operation takes
# half a second, so that all runs of the benchmark fit its time budget
MIN_OPS = {"cli-presets": 30, "lattice-periods": 100, "sphere-zeta": 516, "torus-zeta": 57}
SETUP_REPEATS = 3
SETUP_CAL_S = 0.2  # calibration after each set-up
WALL_LIMIT_S = 120.0  # a run stops at the next round boundary after this
CHILD_TIMEOUT_S = 165.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd, cwd, deadline, capture=False) -> subprocess.CompletedProcess:
    """Run one child to its end; subprocess.run kills and reaps it on
    timeout."""
    return subprocess.run(
        cmd,
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )


class Run:
    """One workload, one seed: generates, runs, checks, reports."""

    def __init__(self, workload, seed, seconds, trace, quick):
        self.workload, self.seed = workload, seed
        self.trace, self.quick = trace, quick
        self.seconds = 0.0 if quick else seconds
        self.min_ops = 0 if quick else MIN_OPS[workload]
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S
        os.makedirs(OUT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed), dir=OUT)
        self.setups: list[float] = []  # normalised, see calib.py
        self.times: list[float] = []  # as measured
        self.stamps: list[float] = []  # start of each operation
        self.cal: list[tuple[int, float]] = []  # calibration after each
        self.failed = 0
        self.problems: list[str] = []
        self.dumps: list[dict] = []
        self.prefix_ops = 0  # operations the per-layer figures are taken over
        self.round_size = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- in-process workloads ------------------------------------------

    def run_inprocess(self, refs):
        import checks

        make = {"lattice-periods": gen.lattice_round, "sphere-zeta": gen.sphere_round, "torus-zeta": gen.torus_round}
        ops = make[self.workload](self.seed)
        if self.quick:
            ops = ops[:3]
        job = os.path.join(self.dir, "job.json")
        spans = os.path.join(self.dir, "spans.json")
        with open(job, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": self.workload,
                    "ops": ops,
                    "seconds": self.seconds,
                    "min_ops": self.min_ops,
                    "wall_limit_s": WALL_LIMIT_S,
                    "trace": self.trace,
                    "setup_cal_s": SETUP_CAL_S,
                    "trace_out": spans,
                },
                fh,
            )
        worker = [sys.executable, os.path.join(HERE, "worker.py"), job]
        out = os.path.join(self.dir, "result.json")
        for _ in range(1 if self.quick else SETUP_REPEATS - 1):
            self._check_exit(run_child(worker + [out, "--setup-only"], ROOT, self.deadline))
            with open(out, encoding="utf-8") as fh:
                self._add_setup(json.load(fh))
        self._check_exit(run_child(worker + [out], ROOT, self.deadline))
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        if not self.quick:
            self._add_setup(result)
        self.times, self.stamps = result["times"], result["stamps"]
        self.cal = [tuple(c) for c in result["cal"]]
        outputs = result["outputs"]
        size = self.round_size = len(ops)
        self.prefix_ops = min(len(outputs), size * math.ceil(self.min_ops / size)) or len(outputs)
        if self.trace:
            with open(spans, encoding="utf-8") as fh:
                self.dumps = [json.load(fh)]
        if self.workload == "lattice-periods":
            first = [checks.check_lattice(op, out, data) for op, out, data in zip(ops, outputs, result["checks"])]
        else:
            first = [checks.check_spectral(op, out, refs) for op, out in zip(ops, outputs)]
        for i, out in enumerate(outputs):
            if i >= size and out != outputs[i % size]:
                self.problems.append("operation %d differs from its first run" % i)
            self._count(first[i % size], i)

    def _add_setup(self, result):
        n, secs = result["setup_cal"]
        self.setups.append(result["setup_s"] / (secs / n / calib.CHUNK_REF_S))

    def _count(self, verdict, i):
        self.failed += verdict.failed
        self.problems.extend("operation %d: %s" % (i, p) for p in verdict.problems)

    def _check_exit(self, proc):
        if proc.returncode != 0:
            raise RuntimeError(
                "worker exited with %d: %s" % (proc.returncode, proc.stderr.decode(errors="replace")[-2000:])
            )

    # -- command-line workload -------------------------------------------

    def _write_inputs(self, files):
        for name, doc in files.items():
            with open(os.path.join(self.dir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def run_cli(self, refs):
        import checks

        ops, files = gen.cli_round(self.seed)
        if self.quick:
            ops = ops[:3]
        program = [sys.executable, "-m", "k3zeta.cli"]
        for _ in range(1 if self.quick else SETUP_REPEATS):
            start = time.perf_counter()
            self._write_inputs(files)
            warm = run_child(program + ["lattice", "--builtin", "k3"], self.dir, self.deadline)
            setup_s = time.perf_counter() - start
            self._check_exit(warm)
            self._add_setup({"setup_s": setup_s, "setup_cal": calib.calibrate(SETUP_CAL_S)})
        stdouts: dict = {}
        first_failed: dict = {}
        n, start_wall, timed = 0, time.perf_counter(), 0.0
        while True:
            for op in ops:
                if self.trace:
                    spans = os.path.join(self.dir, "spans-%d.json" % n)
                    cmd = [sys.executable, os.path.join(HERE, "cli_entry.py"), spans, str(n), "--"]
                else:
                    cmd = program
                t0 = time.perf_counter()
                proc = run_child(cmd + op["argv"], self.dir, self.deadline, capture=True)
                elapsed = time.perf_counter() - t0
                self.times.append(elapsed)
                self.stamps.append(t0 - start_wall)
                self.cal.append(calib.calibrate(calib.SHARE * elapsed))
                timed += elapsed
                if self.trace:
                    with open(spans, encoding="utf-8") as fh:
                        self.dumps.append(json.load(fh))
                name = op["name"]
                if name not in stdouts:
                    verdict = checks.check_cli(op, proc.stdout, proc.returncode, refs)
                    stdouts[name] = proc.stdout
                    first_failed[name] = verdict.failed
                    self.problems.extend("%s: %s" % (name, p) for p in verdict.problems)
                elif proc.stdout != stdouts[name]:
                    self.problems.append("%s: stdout differs between invocations" % name)
                self.failed += first_failed[name] or proc.returncode != 0
                n += 1
            if timed >= self.seconds and n >= self.min_ops:
                break
            if time.perf_counter() - start_wall > WALL_LIMIT_S:
                break
        self.problems.extend(checks.check_period_families(ops, stdouts))
        size = self.round_size = len(ops)
        self.prefix_ops = min(n, size * math.ceil(self.min_ops / size)) or n

    # -- report -------------------------------------------------------------

    def normalised_times(self) -> list[float]:
        """Every operation's time divided by the calibration loop's
        slowdown around it (calib.py): the host may run a vCPU at half
        speed for much of the time, in stretches of milliseconds, and the
        share of slow time drifts from one run to the next."""
        slow = calib.slowdowns(self.stamps, self.cal)
        return [t / f for t, f in zip(self.times, slow)]

    def op_times(self) -> list[float]:
        """Each operation of the round at its median normalised time over
        the run's repetitions."""
        size, norm = self.round_size, self.normalised_times()
        return [statistics.median(norm[p::size]) for p in range(size)]

    def metrics(self) -> dict:
        if self.trace:
            import tracer

            per_layer, summary = tracer.summarize(self.dumps, list(range(self.prefix_ops)))
            path = os.path.join(OUT, "trace-%s-seed%d.json" % (self.workload, self.seed))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"per_layer": per_layer, "summary": summary, "processes": self.dumps}, fh)
            print("trace written to %s" % os.path.relpath(path, ROOT))
            return {k: {"value": v, "unit": "ms" if k.endswith("_ms") else "count"} for k, v in sorted(per_layer.items())}
        ops = self.op_times()
        values = {
            "setup_s": statistics.median(self.setups),
            "ops_per_s": len(self.times) / sum(self.normalised_times()),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_p90_ms": statistics.quantiles(ops, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_one(args) -> dict:
    import checks

    calib.pin()
    refs = checks.References(ROOT, OUT)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    try:
        if args.workload == "cli-presets":
            run.run_cli(refs)
        else:
            run.run_inprocess(refs)
        metrics = run.metrics()
    finally:
        run.close()
    for problem in run.problems[:20]:
        print("problem: %s" % problem)
    label = "traced" if args.trace else "untraced"
    print(
        "%s seed %d (%s): %d operations in %.2f s of operation time, %.2f ops/s as measured, %.2f normalised, %d failed"
        % (args.workload, args.seed, label, len(run.times), sum(run.times), len(run.times) / sum(run.times),
           len(run.times) / sum(run.normalised_times()), run.failed)
    )
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    return {
        "correct": not run.problems,
        "attempted": len(run.times),
        "failed": run.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    code = 0
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=gen.WORKLOADS, help="default: all four, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="three operations per workload, no floor")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/k3zeta/cli.py", "tests/oracles.py") if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a k3zeta checkout, missing %s" % ", ".join(missing), file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
