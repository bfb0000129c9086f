"""A digest of what the benchmark's in-process workloads compute.

    python3 tests/runner_digest.py ROOT

Puts ROOT/src and ROOT/perfbench on the path and runs every operation of
gen.lattice_ops(), sphere_ops() and torus_ops() through the benchmark's
Runner, emptying k3zeta's caches before each. Each operation gives one
line, the repr of (Runner.run output, check_data), or the repr of the
exception it raised. Prints the operation count and the sha256 of those
lines, each ending in a newline, after one such `workload count sha256`
line for each workload, so that a mismatch names its workload. Two trees
that compute the same values, bit for bit, print the same lines; so do two
runs of one tree.
"""

from __future__ import annotations

import hashlib
import os
import sys


def main(root: str) -> int:
    for sub in ("perfbench", "src"):
        sys.path.insert(0, os.path.join(os.path.abspath(root), sub))
    import gen
    import worker

    digest, count = hashlib.sha256(), 0
    for workload, ops in (
        ("lattice-periods", gen.lattice_ops()),
        ("sphere-zeta", gen.sphere_ops()),
        ("torus-zeta", gen.torus_ops()),
    ):
        runner = worker.Runner(workload)
        part = hashlib.sha256()
        for op in ops:
            runner.clear_caches()
            try:
                out, state = runner.run(op)
                line = repr((out, None if state is None else runner.check_data(op, state)))
            except Exception as exc:
                line = repr(exc)
            for h in (digest, part):
                h.update((line + "\n").encode())
        print(workload, len(ops), part.hexdigest())
        count += len(ops)
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
