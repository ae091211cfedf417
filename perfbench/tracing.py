"""Spans around the calls into sloccrank's public functions, from outside.

:meth:`Tracer.install` wraps every public function of the six modules in
``WRAPPED`` and puts the wrapper wherever the function is looked up: in its
own module, in the package namespace and in every module that imported it
by name, so calls between modules are caught too.  Spans
``(id, name, start, end, parent)`` stay in memory and are written once, at
the end of the run.

Scalar arithmetic is not wrapped: a wrapper per field operation would cost
more than the operation.  :func:`scalar_probe` times it instead, on entries
taken from the workload's own matrices.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time

import drift

# The modules whose public functions are wrapped; the seventh, scalar, is probed.
WRAPPED = ("states", "coeffmatrix", "rank", "slocc", "classify", "cli")
_INTEGER_CHARS = str.maketrans({c: " " for c in "+-*/()is"})
PROBE_ROUNDS = 5  # the probe reports the median of this many timed passes

# Per-layer metrics: name -> unit.  Times are medians per call, drift-corrected;
# "calls" are per item; shares are of the summed item time.
PER_LAYER = {
    "scalar.mul_us": "us",
    "scalar.inverse_us": "us",
    "scalar.parse_us": "us",
    "states.load_state_ms": "ms",
    "states.family_state_us": "us",
    "coeffmatrix.coefficient_matrix_us": "us",
    "coeffmatrix.calls": "count",
    "rank.exact_rank_ms": "ms",
    "rank.exact_rank_calls": "count",
    "rank.exact_rank_share": "ratio",
    "rank.entry_bits": "bits",
    "rank.exact_det_ms": "ms",
    "rank.numeric_rank_ms": "ms",
    "slocc.apply_local_ms": "ms",
    "slocc.verify_matrix_equation_ms": "ms",
    "slocc.verify_det_relation_ms": "ms",
    "slocc.share": "ratio",
    "classify.rank_signature_ms": "ms",
    "classify.classify_table_ms": "ms",
    "classify.self_share": "ratio",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.startup_share": "ratio",
    "trace.overhead": "ratio",
}


def entry_bits(matrix) -> int:
    """Largest bit-length of any integer in the printed entries of a matrix."""
    from sloccrank import scalar_format

    rows = matrix.entries if hasattr(matrix, "entries") else matrix
    best = 0
    for row in rows:
        for value in row:
            for word in scalar_format(value).translate(_INTEGER_CHARS).split():
                best = max(best, int(word).bit_length())
    return best


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.entry_bits = 0
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple] = []

    def _open(self) -> tuple[int, int | None]:
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller, under the innermost open span."""
        span_id, parent = self._open()
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent))

    def call(self, name: str, fn, *args, **kwargs):
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def adopt(self, dumped: dict, parent: int) -> None:
        """Append what another process's :meth:`dump` wrote, under the span ``parent``."""
        self.entry_bits = max(self.entry_bits, dumped["entry_bits"])
        offset = self._next
        for span_id, name, start, end, child_parent in dumped["spans"]:
            self.spans.append((span_id + offset, name, start, end,
                               parent if child_parent is None else child_parent + offset))
            self._next = max(self._next, span_id + offset + 1)

    def _wrap(self, name: str, fn):
        if name == "rank.exact_rank":
            def traced(matrix, *args, **kwargs):
                self.entry_bits = max(self.entry_bits, entry_bits(matrix))
                return self.call(name, fn, matrix, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in WRAPPED:
            module = sys.modules.get(f"sloccrank.{layer}")
            if module is None:
                continue
            public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
            for attr in public:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "sloccrank" and not name.startswith("sloccrank."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and getattr(wrappers[id(value)], "__wrapped__", None) is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "entry_bits": self.entry_bits}, handle)


def scalar_probe(values) -> dict:
    """Per-operation times of Scalar multiply, inverse and parse, in microseconds."""
    from sloccrank import scalar_format, scalar_parse

    values = [v for v in values if v]
    pairs = list(zip(values, values[1:] + values[:1]))
    texts = [scalar_format(v) for v in values]
    probes = {
        "scalar.mul_us": (lambda: [x * y for x, y in pairs], len(pairs)),
        "scalar.inverse_us": (lambda: [x.inverse() for x in values], len(values)),
        "scalar.parse_us": (lambda: [scalar_parse(t) for t in texts], len(texts)),
    }
    out = {}
    for name, (fn, count) in probes.items():
        times = [drift.measure(fn)[1].seconds / count for _ in range(PROBE_ROUNDS)]
        out[name] = statistics.median(times) * 1e6
    return out


def layer_metrics(spans, items, factors) -> dict:
    """Per-layer metrics from the spans of a traced phase.

    ``items`` are the root span ids of the timed items and ``factors`` maps
    each root id to its drift factor, which every span under it shares.
    """
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    for span_id, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def root_of(span_id):
        while by_id[span_id][4] is not None:
            span_id = by_id[span_id][4]
        return span_id

    durations: dict[str, list[float]] = {}
    self_total: dict[str, float] = {}
    for span_id, name, start, end, _ in spans:
        factor = factors.get(root_of(span_id))
        if factor is None:  # under an item that raised
            continue
        durations.setdefault(name, []).append((end - start) * factor)
        self_total[name] = self_total.get(name, 0.0) + (end - start - child_time.get(span_id, 0.0)) * factor

    item_time = sum((by_id[i][3] - by_id[i][2]) * factors[i] for i in items) or 1.0
    n_items = len(items) or 1

    def median(name, scale):
        values = durations.get(name)
        return statistics.median(values) * scale if values else 0.0

    def share(prefix, self_only):
        if self_only:
            return sum(t for name, t in self_total.items() if name.startswith(prefix)) / item_time
        return sum(sum(durations[name]) for name in durations if name.startswith(prefix)) / item_time

    return {
        "states.load_state_ms": median("states.load_state", 1e3),
        "states.family_state_us": median("states.family_state", 1e6),
        "coeffmatrix.coefficient_matrix_us": median("coeffmatrix.coefficient_matrix", 1e6),
        "coeffmatrix.calls": len(durations.get("coeffmatrix.coefficient_matrix", ())) / n_items,
        "rank.exact_rank_ms": median("rank.exact_rank", 1e3),
        "rank.exact_rank_calls": len(durations.get("rank.exact_rank", ())) / n_items,
        "rank.exact_rank_share": share("rank.exact_rank", self_only=False),
        "rank.exact_det_ms": median("rank.exact_det", 1e3),
        "rank.numeric_rank_ms": median("rank.numeric_rank", 1e3),
        "slocc.apply_local_ms": median("slocc.apply_local", 1e3),
        "slocc.verify_matrix_equation_ms": median("slocc.verify_matrix_equation", 1e3),
        "slocc.verify_det_relation_ms": median("slocc.verify_det_relation", 1e3),
        "slocc.share": share("slocc.", self_only=True),
        "classify.rank_signature_ms": median("classify.rank_signature", 1e3),
        "classify.classify_table_ms": median("classify.classify_table", 1e3),
        "classify.self_share": share("classify.", self_only=True),
        "cli.import_ms": median("cli.import", 1e3),
        "cli.main_ms": median("cli.main", 1e3),
        # the part of each CLI process's wall time spent before main() runs
        "cli.startup_share": 1.0 - share("cli.main", self_only=False) if "cli.main" in durations else 0.0,
    }
