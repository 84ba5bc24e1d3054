"""Spans and counters around snkron's public functions, installed from outside.

``Tracer.install`` replaces every function listed in the ``__all__`` of the
layer modules, in every loaded snkron namespace that refers to it, with a
wrapper that records a span (name, start, end, parent).  Nothing in the
package is edited; a function that disappears from ``__all__`` simply drops
out of the trace.  Self time is a span's time minus the time of its child
spans.  ``layer_counts`` and ``layer_times`` turn one bucket of counters
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("partitions", "characters", "kronecker", "closed_forms", "weights", "cli")
KRONECKER = "kronecker.kronecker"


class Tracer:
    def __init__(self, span_cap: int = 20000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self._tables: dict[int, object] = {}
        self.reset()

    def reset(self) -> None:
        """Start a new bucket of counters; spans and seen tables are kept."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.main_s: list[float] = []

    def bucket(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
            "main_s": list(self.main_s),
            "memo": char_memo(),
        }

    def install(self) -> None:
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"snkron.{layer}")
            except ModuleNotFoundError:
                continue
            for name in getattr(module, "__all__", ()):
                original = getattr(module, name, None)
                if inspect.isroutine(original) and original.__module__ == module.__name__:
                    self._replace(original, self._wrap(f"{layer}.{name}", original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _replace(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "snkron" or mod_name.startswith("snkron."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def _wrap(self, name: str, fn):
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0, self.calls[KRONECKER]]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                took = end - start
                self.calls[name] += 1
                self.total_s[name] += took
                self.self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if span_id < self.span_cap:
                    self.spans.append((name, start, end, parent))
            self._count(name, result, took, frame[2])
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, result, took: float, class_sums_before: int) -> None:
        layer, _, func = name.partition(".")
        extra = self.extra
        if name == "partitions.enumerate_partitions":
            extra["partitions_enumerated"] += len(result)
        elif name == "characters.character_table":
            if id(result) in self._tables:
                extra["table_lookups"] += 1
            else:
                self._tables[id(result)] = result
                extra["table_builds"] += 1
                extra["table_build_s"] += took
                extra["table_entries"] += len(getattr(result, "partitions", ())) ** 2
        elif name == KRONECKER:
            extra["class_sums_nonzero"] += bool(result)
        elif layer == "kronecker" and func.startswith("tensor_decompose"):
            extra["candidates"] += self.calls[KRONECKER] - class_sums_before
        elif layer == "closed_forms" and func.endswith("_decomposition"):
            extra["closed_entries"] += len(result.entries)
        elif layer == "weights" and func.startswith("membership"):
            extra["members"] += result is not None
        elif name == "cli.main":
            self.main_s.append(took)


def char_memo() -> dict:
    """Size and hit counts of the character memo, where it has cache_info."""
    characters = sys.modules.get("snkron.characters")
    info = getattr(getattr(characters, "_char", None), "cache_info", None)
    if info is None:
        return {"entries": 0, "hits": 0, "misses": 0}
    info = info()
    return {"entries": info.currsize, "hits": info.hits, "misses": info.misses}


def merge(buckets: list[dict]) -> dict:
    """Sum buckets key by key (memo figures too: they come from separate processes)."""
    out = {"calls": defaultdict(int), "total_s": defaultdict(float), "self_s": defaultdict(float),
           "extra": defaultdict(float), "main_s": [], "memo": defaultdict(int)}
    for b in buckets:
        for key in ("calls", "total_s", "self_s", "extra", "memo"):
            for name, value in b[key].items():
                out[key][name] += value
        out["main_s"] += b["main_s"]
    return out


def _by(table: dict, layer: str, test) -> float:
    return sum(v for k, v in table.items() if k.startswith(layer + ".") and test(k.split(".", 1)[1]))


def layer_counts(b: dict) -> dict:
    """The per-layer counts of one bucket (they repeat exactly for a seed)."""
    calls, extra, memo = b["calls"], b["extra"], b["memo"]
    class_sums = calls.get(KRONECKER, 0)
    decompositions = _by(calls, "kronecker", lambda f: f.startswith("tensor_decompose"))
    return {
        "partitions.enumerate_calls": calls.get("partitions.enumerate_partitions", 0),
        "partitions.partitions_enumerated": int(extra.get("partitions_enumerated", 0)),
        "partitions.hook_dimension_calls": calls.get("partitions.hook_dimension", 0),
        "partitions.check_partition_calls": calls.get("partitions.check_partition", 0),
        "characters.table_builds": int(extra.get("table_builds", 0)),
        "characters.table_entries": int(extra.get("table_entries", 0)),
        "characters.table_lookups": int(extra.get("table_lookups", 0)),
        "characters.char_memo_entries": memo["entries"],
        "characters.char_memo_hits": memo["hits"],
        "characters.char_memo_misses": memo["misses"],
        "kronecker.class_sums": class_sums,
        "kronecker.class_sums_nonzero": int(extra.get("class_sums_nonzero", 0)),
        "kronecker.nonzero_ratio": extra.get("class_sums_nonzero", 0) / class_sums if class_sums else 0.0,
        "kronecker.decompositions": int(decompositions),
        "kronecker.candidates_per_decomposition":
            extra.get("candidates", 0) / decompositions if decompositions else 0.0,
        "closed_forms.decompositions": int(_by(calls, "closed_forms", lambda f: f.endswith("_decomposition"))),
        "closed_forms.entries": int(extra.get("closed_entries", 0)),
        "weights.memberships": int(_by(calls, "weights", lambda f: f.startswith("membership"))),
        "weights.members": int(extra.get("members", 0)),
    }


def layer_times(b: dict) -> dict:
    """The per-layer times of one bucket, in seconds."""
    total, self_s, extra = b["total_s"], b["self_s"], b["extra"]
    return {
        "partitions.enumerate_s": total.get("partitions.enumerate_partitions", 0.0),
        "partitions.hook_dimension_s": total.get("partitions.hook_dimension", 0.0),
        "characters.table_build_s": extra.get("table_build_s", 0.0),
        "kronecker.class_sum_s": self_s.get(KRONECKER, 0.0),
        "kronecker.decompose_self_s": _by(self_s, "kronecker", lambda f: f.startswith("tensor_decompose")),
        "closed_forms.decompose_s": _by(total, "closed_forms", lambda f: f.endswith("_decomposition")),
        "weights.membership_s": _by(total, "weights", lambda f: f.startswith("membership")),
    }


def median_times(buckets: list[dict]) -> dict:
    per_round = [layer_times(b) for b in buckets]
    return {name: statistics.median(t[name] for t in per_round) for name in per_round[0]}
