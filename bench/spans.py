"""Layer spans recorded from outside the program.

A `Tracer` rebinds public entry points of `fatpoints` to timing wrappers in
every `fatpoints` module namespace that holds them (a module that did
`from .oracle import hf_biproj` calls its own binding, so patching the home
module alone would miss it), keeps one span per call in memory, and puts the
original functions back on exit. Nothing under `src/` is changed.

The layers are named after the modules. The oracle is split into `sample`
(support sampling), `build` (the conditions matrix: the self time of an
oracle entry plus the named builders) and `eliminate` (the rank kernel).
`schemes` and `core` are bookkeeping and are not timed.
"""

import functools
import importlib
import math
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

CLI = "cli"
DISPATCH = "formulas.dispatch"
HORACE = "horace"
SAMPLE = "oracle.sample"
BUILD = "oracle.build"
ELIMINATE = "oracle.eliminate"
ENTRIES = {"oracle.bi": "bi", "oracle.plane": "plane", "oracle.line": "line"}

# (home module, public name, layer). A name missing from its home module is
# counted as 0 with a warning, so layer names stay stable through refactors.
TARGETS = (
    ("fatpoints.formulas", "hf_uniform", DISPATCH),
    ("fatpoints.horace", "verify_chain", HORACE),
    ("fatpoints.oracle", "hf_biproj", "oracle.bi"),
    ("fatpoints.oracle", "hf_plane", "oracle.plane"),
    ("fatpoints.oracle", "hf_trace_line", "oracle.line"),
    ("fatpoints.oracle", "derive_seed", SAMPLE),
    ("fatpoints.oracle", "sample_support", SAMPLE),
    ("fatpoints.oracle", "bi_conditions_matrix", BUILD),
    ("fatpoints.oracle", "plane_conditions_matrix", BUILD),
    ("fatpoints.oracle", "rank_mod_p", ELIMINATE),
)

# span fields
LAYER, START, END, PARENT, ROWS, COLS, VALUE = range(7)


class Tracer:
    """Context manager: wrap the targets on entry, restore them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for home, name, layer in self.targets:
            try:
                original = getattr(importlib.import_module(home), name)
            except (ImportError, AttributeError):
                self.missing.append(f"{home}.{name}")
                warnings.warn(f"{home}.{name} not found; layer {layer} counts it as 0",
                              stacklevel=2)
                continue
            wrapper = self._wrap(original, layer)
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != "fatpoints" and not mod_name.startswith("fatpoints."):
                    continue
                if vars(module).get(name) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself, such as one CLI call."""
        record = self._open(layer)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [layer, 0.0, 0.0, parent, 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list):
        record[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, layer: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = self._open(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(record)
            if layer == ELIMINATE:
                record[ROWS], record[COLS] = (args[0] if args else kwargs["matrix"]).shape
                record[VALUE] = int(result)
            elif layer == BUILD:
                record[ROWS], record[COLS] = result.shape
                record[VALUE] = int(result.nbytes)
            return result

        return wrapper


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced workload run.

    A layer's time is the sum of its spans' self times: duration minus the
    duration of direct child spans. `oracle.build_s` is the self time of the
    oracle entries and builders, that is, entry time minus sampling and
    elimination.
    """
    child_time = defaultdict(float)
    for record in spans:
        if record[PARENT] >= 0:
            child_time[record[PARENT]] += record[END] - record[START]
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for index, record in enumerate(spans):
        self_time[record[LAYER]] += record[END] - record[START] - child_time[index]
        calls[record[LAYER]] += 1

    elim = [r for r in spans if r[LAYER] == ELIMINATE]
    builds = [r for r in spans if r[LAYER] == BUILD]
    entry_ms = [(r[END] - r[START]) * 1e3 for r in spans if r[LAYER] in ENTRIES]
    ops = sum(r[ROWS] * r[COLS] * r[VALUE] for r in elim)

    # a trial is an elimination called by an oracle entry; it is certified
    # when its rank reaches min(rows, cols), and wasted when an earlier trial
    # of the same entry call was already certified
    trials = certified = after_certified = 0
    done = set()
    for r in elim:
        parent = r[PARENT]
        if parent < 0 or spans[parent][LAYER] not in ENTRIES:
            continue
        trials += 1
        if parent in done:
            after_certified += 1
        if r[VALUE] == min(r[ROWS], r[COLS]):
            certified += 1
            done.add(parent)

    metrics = {
        "cli.self_s": self_time[CLI],
        "formulas.dispatch_s": self_time[DISPATCH],
        "formulas.dispatch_calls": calls[DISPATCH],
        "horace.self_s": self_time[HORACE],
        "oracle.sample_s": self_time[SAMPLE],
        "oracle.sample_calls": calls[SAMPLE],
        "oracle.build_s": self_time[BUILD] + sum(self_time[layer] for layer in ENTRIES),
        "oracle.build_entries": sum(r[ROWS] * r[COLS] for r in builds),
        "oracle.build_bytes": sum(r[VALUE] for r in builds),
        "oracle.eliminate_s": self_time[ELIMINATE],
        "oracle.eliminate_calls": len(elim),
        "oracle.eliminate_entries": sum(r[ROWS] * r[COLS] for r in elim),
        "oracle.eliminate_ops": ops,
        "oracle.eliminate_gops_per_s": (
            ops / self_time[ELIMINATE] / 1e9 if self_time[ELIMINATE] else 0.0
        ),
        "oracle.max_rows": max((r[ROWS] for r in elim), default=0),
        "oracle.max_cols": max((r[COLS] for r in elim), default=0),
        "oracle.trials": trials,
        "oracle.trials_certified": certified,
        "oracle.trials_after_certified": after_certified,
        "oracle.trial_useful_ratio": (trials - after_certified) / trials if trials else 1.0,
        "oracle.call_ms_p50": _percentile(entry_ms, 50),
        "oracle.call_ms_p99": _percentile(entry_ms, 99),
    }
    for layer, model in ENTRIES.items():
        metrics[f"oracle.calls.{model}"] = calls[layer]
    return metrics
