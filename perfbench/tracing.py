"""In-memory span tracer that wraps weightlab's public functions from outside.

The package binds most functions with ``from .x import name``, so a function
is patched in every ``weightlab`` module whose namespace holds it, not only
where it is defined. ``BallFamily`` kernels are patched at class level. Every
patch is recorded and undone by ``uninstall``.

A span is (name, start, end, parent, item): start and end are
``perf_counter_ns`` readings, parent is the index of the enclosing span (-1 at
the root) and item the benchmark item the span ran under. Spans live in flat
integer arrays until ``save`` writes them out. A span's self time is its
duration minus the durations of its direct children; the process is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (span name, defining module, attribute); order fixes the span name ids
FUNCTION_SPANS = (
    ("space.generate", "weightlab.space", "generate"),
    ("space.doubling", "weightlab.space", "doubling_constant"),
    ("space.annular", "weightlab.space", "annular_decay_constant"),
    ("operators.maximal", "weightlab.operators", "maximal"),
    ("operators.minimal", "weightlab.operators", "minimal"),
    ("operators.natural_maximal", "weightlab.operators", "natural_maximal"),
    ("operators.natural_minimal", "weightlab.operators", "natural_minimal"),
    ("weights.ap", "weightlab.weights", "ap_constant"),
    ("weights.a1", "weightlab.weights", "a1_constant"),
    ("weights.ainf", "weightlab.weights", "ainf_constant"),
    ("weights.rhs", "weightlab.weights", "rhs_constant"),
    ("weights.rhinf", "weightlab.weights", "rhinf_constant"),
    ("weights.bmo", "weightlab.weights", "bmo_norm"),
    ("weights.blo", "weightlab.weights", "blo_norm"),
    ("weights.buo", "weightlab.weights", "buo_norm"),
    ("theorems.commutation", "weightlab.theorems", "check_commutation"),
    ("theorems.oscillation", "weightlab.theorems", "check_oscillation_characterization"),
    ("theorems.harnack", "weightlab.theorems", "check_harnack"),
    ("theorems.a1_characterization", "weightlab.theorems", "check_a1_characterization"),
    ("theorems.rhinf_characterization", "weightlab.theorems",
     "check_rhinf_characterization"),
    ("theorems.converse_chain", "weightlab.theorems", "check_converse_chain"),
    ("theorems.power_props", "weightlab.theorems", "check_power_props"),
    ("theorems.multiplier", "weightlab.theorems", "check_multiplier"),
    ("theorems.duality", "weightlab.theorems", "check_duality"),
    ("theorems.unquantified", "weightlab.theorems", "report_unquantified"),
    ("theorems.run_suite", "weightlab.theorems", "run_suite"),
    ("factorization.refined_jones", "weightlab.factorization", "refined_jones"),
    ("factorization.search", "weightlab.factorization", "jones_factor"),
    ("factorization.certificates", "weightlab.factorization", "refined_transform"),
    ("factorization.verify", "weightlab.factorization", "verify_factorization"),
    ("report.serialize", "weightlab.report", "reports_to_jsonl"),
    ("families.sample_space", "weightlab.families", "sample_space"),
    ("families.sample_weight", "weightlab.families", "sample_weight"),
)

# (span name, BallFamily attribute)
METHOD_SPANS = (
    ("space.index_build", "__init__"),
    ("space.averages", "averages_at_pos"),
    ("space.running_min", "running_min_at_pos"),
    ("space.running_max", "running_max_at_pos"),
    ("space.sup", "sup_over_balls"),
)

# span names owned by the benchmark itself
BENCH_SPANS = ("bench.setup", "bench.item", "bench.finish")

SPAN_NAMES = (tuple(s[0] for s in FUNCTION_SPANS) + tuple(s[0] for s in METHOD_SPANS)
              + BENCH_SPANS)

TABLE_SPANS = ("space.averages", "space.running_min", "space.running_max", "space.sup")


class Tracer:
    """Records spans and counters while installed; restores every patch."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.items = array("q")
        self.item_keys: list[str] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._item = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def set_item(self, key: str | None) -> None:
        if key is None:
            self._item = -1
            return
        self._item = len(self.item_keys)
        self.item_keys.append(key)

    def _open(self, name_id: int) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self._item)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_ids[name])

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def mark(self) -> int:
        """Index of the next span; spans from a mark on form one segment."""
        return len(self.names)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        name_id = self.name_ids[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in loaded weightlab modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from weightlab.space import BallFamily

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "weightlab" or name.startswith("weightlab."))]
        for name, mod_name, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original, _HOOKS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, attr in METHOD_SPANS:
            original = BallFamily.__dict__[attr]
            self._patches.append((BallFamily, attr, original))
            setattr(BallFamily, attr, self._wrap(name, original, _HOOKS.get(name)))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def columns(self, start: int = 0, stop: int | None = None) -> dict[str, np.ndarray]:
        sl = slice(start, stop)
        return {
            "name": np.asarray(self.names[sl], dtype=np.int64),
            "start": np.asarray(self.starts[sl], dtype=np.int64),
            "end": np.asarray(self.ends[sl], dtype=np.int64),
            "parent": np.asarray(self.parents[sl], dtype=np.int64) - start,
            "item": np.asarray(self.items[sl], dtype=np.int64),
        }

    def save(self, path, extra: dict | None = None) -> None:
        """Write all spans as an .npz with the name table and counters as JSON."""
        cols = self.columns()
        meta = {"span_names": list(SPAN_NAMES), "item_keys": self.item_keys,
                "counters": self.counters, **(extra or {})}
        np.savez_compressed(path, meta=np.array(json.dumps(meta)), **cols)


class _Span:
    """Context manager for a span opened by the benchmark's own code."""

    __slots__ = ("tracer", "name_id", "idx")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time in ns: duration minus the durations of direct children."""
    dur = cols["end"] - cols["start"]
    child = np.zeros_like(dur)
    has_parent = cols["parent"] >= 0
    np.add.at(child, cols["parent"][has_parent], dur[has_parent])
    return dur - child


def by_name(cols: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(self seconds, inclusive seconds, calls) per span name id, over one segment."""
    k = len(SPAN_NAMES)
    self_s = np.bincount(cols["name"], weights=self_times(cols), minlength=k) / 1e9
    incl_s = np.bincount(cols["name"], weights=cols["end"] - cols["start"], minlength=k) / 1e9
    calls = np.bincount(cols["name"], minlength=k)
    return self_s, incl_s, calls


def accounting(cols: dict[str, np.ndarray], window: tuple[int, int]) -> dict:
    """Check that self times plus untraced gaps add up to the window's wall time.

    Gaps are the parts of the window that no root span covers, found by
    merging the root intervals, so overlapping roots or children that
    escape their parent show up as a mismatch or a negative self time.
    """
    selfs = self_times(cols)
    roots = np.flatnonzero(cols["parent"] < 0)
    order = roots[np.argsort(cols["start"][roots], kind="stable")]
    covered, cursor = 0, window[0]
    for i in order:
        s, e = max(int(cols["start"][i]), cursor), int(cols["end"][i])
        if e > s:
            covered += e - s
            cursor = e
    wall = window[1] - window[0]
    return {"wall_ns": wall, "self_ns": int(selfs.sum()), "gap_ns": wall - covered,
            "min_self_ns": int(selfs.min()) if selfs.size else 0}


# -- counters fed from return values -----------------------------------------

def _index_built(tracer: Tracer, args, result) -> None:
    family = args[0]
    tracer.count("space.index_bytes", sum(v.nbytes for v in vars(family).values()
                                          if isinstance(v, np.ndarray)))


def _table_cells(tracer: Tracer, args, result) -> None:
    tracer.count("space.table_cells", args[0].n ** 2)


def _search_done(tracer: Tracer, args, result) -> None:
    tracer.count("factorization.objective_evals", result.evaluations)
    tracer.count("factorization.converged", int(result.converged))


def _suite_done(tracer: Tracer, args, result) -> None:
    hard = [r for r in result if r.hard]
    tracer.count("theorems.hard_checks", len(hard))
    tracer.count("theorems.failed_checks", sum(r.verdict != "pass" for r in hard))


def _serialized(tracer: Tracer, args, result) -> None:
    tracer.count("report.reports", result.count("\n"))


_HOOKS = {name: _table_cells for name in TABLE_SPANS}
_HOOKS.update({
    "space.index_build": _index_built,
    "factorization.search": _search_done,
    "theorems.run_suite": _suite_done,
    "report.serialize": _serialized,
})
