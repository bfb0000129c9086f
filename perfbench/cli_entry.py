"""Traced stand-in for the `k3zeta` command.

    python3 perfbench/cli_entry.py SPANS.json OP_ID -- ARGS...

Times `import k3zeta.cli`, installs the tracer's wrappers, runs
`cli.main(ARGS)` as operation OP_ID and writes its spans to SPANS.json
before exiting with main's exit code.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    spans_path, op = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: cli_entry.py SPANS.json OP_ID -- ARGS...")
    t0 = time.perf_counter()
    import k3zeta.cli

    import_s = time.perf_counter() - t0
    modules = len(sys.modules)
    scipy = "scipy" in sys.modules

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op)
    try:
        code = k3zeta.cli.main(sys.argv[4:])
    finally:
        tracer.end_op()
        sys.stdout.flush()
        tracer.dump(spans_path, op=op, import_s=import_s, modules=modules, scipy=scipy)
    return code


if __name__ == "__main__":
    sys.exit(main())
