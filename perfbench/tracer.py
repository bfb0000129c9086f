"""Spans and counters around the calls into k3zeta's modules.

`Tracer.install` replaces every public function of the traced modules by a
timing wrapper, at module-attribute level and in every k3zeta module that
imported the name (so `spectral.continue_trace` and `cli.period_of` are
traced too). Public classes are traced through their `__init__`, which
covers every module holding the class (`models.EquivariantSpectrum`).
`mellin._theta_at` only feeds counters: it runs too often for spans.

A span is (name, start, end, parent index, operation id); spans and
counters stay in memory and are written once, by `dump`, when the process
ends. `summarize` turns the dumps of one run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time

import numpy as np

MODULES = (
    "cli",
    "jsonio",
    "models",
    "mellin",
    "spectral",
    "intlinalg",
    "lattices",
    "frames",
    "periods",
)


def _call_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _continuation_key(arguments: dict) -> int:
    return hash(
        tuple(
            v.tobytes() if isinstance(v, np.ndarray) else repr(v)
            for v in arguments.values()
        )
    )


def _box_size(arguments: dict) -> int:
    """Dual-lattice box flat_torus_spectrum enumerates for these arguments."""
    cut = float(arguments["cutoff"])
    gram = arguments["gram"]
    box = 1
    for i in range(len(gram)):
        box *= 2 * (math.isqrt(int(2.0 * cut * int(gram[i][i]))) + 1) + 1
    return box


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict = {}
        self.distinct: dict = {}
        self._misses_at_start = 0

    # -- per-operation bookkeeping --------------------------------------

    def add(self, key: str, amount=1) -> None:
        if self.op is not None:
            c = self.counts.setdefault(self.op, {})
            c[key] = c.get(key, 0) + amount

    def add_distinct(self, key: str, value) -> None:
        if self.op is not None:
            self.distinct.setdefault(self.op, {}).setdefault(key, set()).add(value)

    def _marking_misses(self) -> int:
        periods = sys.modules.get("k3zeta.periods")
        return periods._marking_context.cache_info().misses if periods else 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self._misses_at_start = self._marking_misses()

    def end_op(self) -> None:
        self.add("periods.marking_context_misses", self._marking_misses() - self._misses_at_start)
        self.op = None

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer, spans, stack, clock = self, self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(_call_args(fn, args, kwargs))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1, tracer.op)
            if after is not None:
                after(result)
            return result

        return traced

    def _counted_theta(self, fn):
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def counted(lams, weights, kernel_weight, ts):
            t0 = clock()
            result = fn(lams, weights, kernel_weight, ts)
            tracer.add("mellin.theta_at_s", clock() - t0)
            tracer.add("mellin.theta_at_calls")
            tracer.add("mellin.exp_evals", int(np.size(lams)) * int(np.size(ts)))
            return result

        return counted

    def _hooks(self, name):
        """Counters recorded at a traced function's boundary."""
        if name == "mellin.continue_trace":
            return (
                lambda a: (
                    self.add_distinct("mellin.continuations", _continuation_key(a))
                ),
                None,
            )
        if name == "models.flat_torus_spectrum":
            return (
                lambda a: self.add("models.lattice_points", _box_size(a)),
                lambda r: self.add("models.entries", len(r.entries)),
            )
        if name == "models.round_sphere_spectrum":
            return None, lambda r: self.add("models.entries", len(r.entries))
        if name == "lattices.eigenlattice":
            return (
                lambda a: self.add_distinct(
                    "lattices.eigenlattices", (a["f"].matrix, a["sign"])
                ),
                None,
            )
        return None, None

    def install(self) -> None:
        """Trace every loaded module of MODULES; call once, after import."""
        replaced = {}
        for short in MODULES:
            mod = sys.modules.get("k3zeta." + short)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (short, attr)
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(name, obj, *self._hooks(name))
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    obj.__init__ = self._wrap(name, obj.__init__)
            if short == "mellin":
                mod._theta_at = self._counted_theta(mod._theta_at)
                replaced[id(mod.exp1)] = self._wrap("mellin.exp1", mod.exp1)
        for modname, mod in list(sys.modules.items()):
            if modname == "k3zeta" or modname.startswith("k3zeta."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])

    def dump(self, path, **extra) -> None:
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("dump called while a traced call is open")
        counts = {str(op): c for op, c in self.counts.items()}
        for op, sets in self.distinct.items():
            c = counts.setdefault(str(op), {})
            for key, values in sets.items():
                c[key + "_distinct"] = len(values)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts, **extra}, fh)


# -- per-layer metrics ------------------------------------------------------

# inclusive time per operation: outermost spans of any of these names
TIME_GROUPS = {
    "cli.main_ms": ("cli.main",),
    "jsonio.encode_ms": ("jsonio.canonical_dumps", "jsonio.encode_*"),
    "jsonio.decode_ms": ("jsonio.load_path", "jsonio.loads", "jsonio.decode_*"),
    "models.flat_torus_spectrum_ms": ("models.flat_torus_spectrum",),
    "models.round_sphere_spectrum_ms": ("models.round_sphere_spectrum",),
    "mellin.continue_trace_ms": ("mellin.continue_trace",),
    "mellin.exp1_ms": ("mellin.exp1",),
    "spectral.spectrum_init_ms": ("spectral.EquivariantSpectrum", "spectral.ScalarSpectrum"),
    "spectral.zeta_signed_ms": ("spectral.zeta_signed",),
    "spectral.dolbeault_zeta_ms": ("spectral.dolbeault_zeta",),
    "spectral.determinant_ms": (
        "spectral.equivariant_determinant_report",
        "spectral.equivariant_determinant",
    ),
    "spectral.torsion_ms": (
        "spectral.equivariant_torsion_report",
        "spectral.equivariant_torsion",
    ),
    "spectral.tau_iota_ms": ("spectral.tau_iota",),
    "spectral.curve_determinant_ms": (
        "spectral.curve_determinant_report",
        "spectral.curve_determinant",
    ),
    "intlinalg.matmul_ms": ("intlinalg.matmul",),
    "intlinalg.integer_kernel_ms": ("intlinalg.integer_kernel",),
    "intlinalg.smith_divisors_ms": ("intlinalg.smith_divisors",),
    "intlinalg.rational_inertia_ms": ("intlinalg.rational_inertia",),
    "lattices.eigenlattice_ms": ("lattices.eigenlattice",),
    "lattices.discriminant_info_ms": ("lattices.discriminant_info",),
    "frames.random_compatible_frame_ms": ("frames.random_compatible_frame",),
    "periods.period_of_ms": ("periods.period_of",),
}

# counts per operation: metric -> (counter key, or "calls:<span prefix>")
COUNT_METRICS = {
    "models.lattice_points_per_op": "models.lattice_points",
    "models.entries_per_op": "models.entries",
    "mellin.continuations_per_op": "calls:mellin.continue_trace",
    "mellin.distinct_continuations_per_op": "mellin.continuations_distinct",
    "mellin.theta_at_calls_per_op": "mellin.theta_at_calls",
    "mellin.exp_evals_per_op": "mellin.exp_evals",
    "intlinalg.calls_per_op": "calls:intlinalg.",
    "lattices.eigenlattice_calls_per_op": "calls:lattices.eigenlattice",
    "lattices.distinct_eigenlattices_per_op": "lattices.eigenlattices_distinct",
    "periods.marking_context_misses_per_op": "periods.marking_context_misses",
}

PROCESS_METRICS = ("cli.import_ms", "cli.modules_loaded", "cli.scipy_loads")


def _matches(name: str, pattern: str) -> bool:
    return name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern


def _median_nonzero(per_op: dict, ops) -> float:
    vals = [per_op[op] for op in ops if per_op.get(op)]
    return float(statistics.median(vals)) if vals else 0.0


def summarize(dumps: list[dict], ops: list[int]) -> tuple[dict, dict]:
    """Per-layer metrics over the operations `ops`, plus a per-name table
    of calls, inclusive and self time (ms) for the trace file.

    Time metrics are medians over the operations that called the layer
    (0 when none did); counts are totals divided by len(ops).
    """
    wanted = set(ops)
    names = sorted({s[0] for d in dumps for s in d["spans"]})
    groups = list(TIME_GROUPS)
    bits = {
        n: [g for g, key in enumerate(groups) if any(_matches(n, p) for p in TIME_GROUPS[key])]
        for n in names
    }
    group_time = [dict() for _ in groups]  # per group: op -> seconds
    span_calls: dict = {}  # (op, prefix-or-name) -> count
    table: dict = {}
    for d in dumps:
        spans = d["spans"]
        mask = [0] * len(spans)
        child_time = [0.0] * len(spans)
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            pmask = mask[parent] if parent >= 0 else 0
            own = 0
            for g in bits[name]:
                own |= 1 << g
            mask[i] = pmask | own
            if parent >= 0:
                child_time[parent] += t1 - t0
            if op not in wanted:
                continue
            for g in bits[name]:
                if not pmask >> g & 1:
                    group_time[g][op] = group_time[g].get(op, 0.0) + (t1 - t0)
            span_calls[(op, name)] = span_calls.get((op, name), 0) + 1
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            if op in wanted:
                row = table.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += (t1 - t0) * 1e3
                row[2] += (t1 - t0 - child_time[i]) * 1e3

    metrics = {key: _median_nonzero(group_time[g], ops) * 1e3 for g, key in enumerate(groups)}
    counts: dict = {}
    for d in dumps:
        for op, c in d["counts"].items():
            if int(op) in wanted:
                counts[int(op)] = c
    theta = {op: c.get("mellin.theta_at_s", 0.0) for op, c in counts.items()}
    metrics["mellin.theta_at_ms"] = _median_nonzero(theta, ops) * 1e3
    for key, source in COUNT_METRICS.items():
        if source.startswith("calls:"):
            prefix = source[len("calls:"):]
            total = sum(n for (op, name), n in span_calls.items() if name.startswith(prefix))
        else:
            total = sum(c.get(source, 0) for c in counts.values())
        metrics[key] = total / len(ops)

    procs = [d for d in dumps if d.get("op") is None or d["op"] in wanted]
    metrics["cli.import_ms"] = statistics.median(d["import_s"] for d in procs) * 1e3
    metrics["cli.modules_loaded"] = float(statistics.median(d["modules"] for d in procs))
    metrics["cli.scipy_loads"] = sum(1 for d in procs if d["scipy"]) / len(ops)
    summary = {
        name: {"calls": row[0], "inclusive_ms": row[1], "self_ms": row[2]}
        for name, row in sorted(table.items())
    }
    return metrics, summary
