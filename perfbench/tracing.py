"""Per-layer tracing of gbfan from outside the library.

`Tracer.install()` replaces public functions of the gbfan modules with
wrappers, in every module that imported them by name, and patches methods
on their classes; `Tracer.remove()` puts every original back.  Boundary
functions record a span (id, parent id, op id, name, start, end); hot leaf
functions only count calls.  Spans stay in memory until `write()`.

A boundary that the library no longer defines is skipped, so its metrics
are absent rather than reported as a saving.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from statistics import median

SPANS = (
    ("cli", "main"),
    ("shifts", "classify"),
    ("groebner", "bm_reduced_gb"),
    ("groebner", "all_reduced_gbs"),
    ("field", "gf2_row_rank"),
    ("field", "modp_row_rank"),
    ("field", "modp_solve_columns"),
    ("points", "is_basic"),
    ("fds", "min_augmentation"),
    ("fds", "enumerate_models"),
    ("fds", "model_select"),
)
COUNTED = (("points", "eval_monomial"), ("poly", "divides"))
COUNTED_METHODS = (
    ("points", "PointSet", "union", "points.union"),
    ("shifts", "LinearShift", "apply_point", "shifts.apply_point"),
)
FAN = "groebner.all_reduced_gbs"
RANKS = ("field.gf2_row_rank", "field.modp_row_rank")

# (metric, unit, source): source is ("calls", span or counter name),
# ("self", span name), ("count", tally name) or ("frac", numerator, base).
PER_LAYER = (
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("shifts.classify.self_s", "s", ("self", "shifts.classify")),
    ("shifts.apply_point.calls", "count", ("calls", "shifts.apply_point")),
    ("shifts.subsets", "count", ("count", "subsets")),
    ("shifts.class_hit_frac", "frac", ("frac", "class_hits", "subsets")),
    ("groebner.bm_reduced_gb.calls", "count", ("calls", "groebner.bm_reduced_gb")),
    ("groebner.bm_reduced_gb.self_s", "s", ("self", "groebner.bm_reduced_gb")),
    ("groebner.all_reduced_gbs.calls", "count", ("calls", FAN)),
    ("groebner.all_reduced_gbs.self_s", "s", ("self", FAN)),
    ("groebner.fan_entries", "count", ("count", "fan_entries")),
    ("groebner.fan_rank_calls", "count", ("count", "fan_rank_calls")),
    ("groebner.basic_frac", "frac", ("frac", "fan_full_rank", "fan_rank_calls")),
    ("groebner.coherent_frac", "frac", ("frac", "fan_entries", "fan_full_rank")),
    ("field.gf2_row_rank.calls", "count", ("calls", "field.gf2_row_rank")),
    ("field.gf2_row_rank.self_s", "s", ("self", "field.gf2_row_rank")),
    ("field.modp_row_rank.calls", "count", ("calls", "field.modp_row_rank")),
    ("field.modp_row_rank.self_s", "s", ("self", "field.modp_row_rank")),
    ("field.rank_cells", "count", ("count", "rank_cells")),
    ("field.modp_solve_columns.calls", "count", ("calls", "field.modp_solve_columns")),
    ("field.modp_solve_columns.self_s", "s", ("self", "field.modp_solve_columns")),
    ("points.eval_monomial.calls", "count", ("calls", "points.eval_monomial")),
    ("points.is_basic.calls", "count", ("calls", "points.is_basic")),
    ("points.is_basic.self_s", "s", ("self", "points.is_basic")),
    ("points.union.calls", "count", ("calls", "points.union")),
    ("poly.order_key.calls", "count", ("calls", "poly.order_key")),
    ("poly.divides.calls", "count", ("calls", "poly.divides")),
    ("fds.min_augmentation.self_s", "s", ("self", "fds.min_augmentation")),
    ("fds.enumerate_models.self_s", "s", ("self", "fds.enumerate_models")),
    ("fds.model_select.calls", "count", ("calls", "fds.model_select")),
    ("fds.model_select.self_s", "s", ("self", "fds.model_select")),
)
# Spans whose wrappers fill each tally; a tally is absent without them.
TALLY_NEEDS = {
    "subsets": ("shifts.classify",),
    "class_hits": ("shifts.classify",),
    "fan_entries": (FAN,),
    "fan_rank_calls": (FAN, *RANKS),
    "fan_full_rank": (FAN, *RANKS),
    "rank_cells": RANKS,
}
# A ratio whose base is 0 is undefined; the result line must carry a number,
# so it reads -1, which no defined ratio can take.
UNDEFINED = -1


def _gbfan_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gbfan" or name.startswith("gbfan."))]


class Tracer:
    """Wrappers, spans and counts for one traced stretch of ops."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.tally = Counter()
        self.stack = []
        self.next_id = 1
        self.op = 0
        self.present = set()
        self._undo = []

    def install(self):
        import gbfan.cli  # noqa: F401  (loads every gbfan module)

        modules = _gbfan_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for mod, attr in SPANS:
            self._patch_everywhere(modules, by_name, mod, attr, self._span)
        for mod, attr in COUNTED:
            self._patch_everywhere(modules, by_name, mod, attr, self._counter)
        for mod, cls_name, attr, name in COUNTED_METHODS:
            cls = getattr(by_name.get(mod), cls_name, None)
            if cls is not None and attr in vars(cls):
                self._patch(cls, attr, self._counter(name, vars(cls)[attr]))
        poly = by_name.get("poly")
        base = getattr(poly, "MonomialOrder", None)
        if base is not None:
            for cls in [base, *base.__subclasses__()]:
                if "key" in vars(cls):
                    self._patch(cls, "key", self._counter("poly.order_key", vars(cls)["key"]))

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)
        self.present.add(wrapper.trace_name)

    def _patch_everywhere(self, modules, by_name, mod, attr, make):
        original = getattr(by_name.get(mod), attr, None)
        if original is None:
            return
        wrapper = make(f"{mod}.{attr}", original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.trace_name = name
        return wrapper

    def _span(self, name, fn):
        observe = {
            FAN: self._observe_fan,
            "shifts.classify": self._observe_classify,
            "field.gf2_row_rank": self._observe_gf2_rank,
            "field.modp_row_rank": self._observe_modp_rank,
        }.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else 0
            self.stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans.append((sid, parent, self.op, name, start, end))
            if observe is not None:
                observe(args, result)
            return result

        wrapper.trace_name = name
        return wrapper

    def _under_fan(self):
        return any(name == FAN for _, name in self.stack)

    def _observe_rank(self, rows, cols, rank):
        self.tally["rank_cells"] += rows * cols
        if self._under_fan():
            self.tally["fan_rank_calls"] += 1
            self.tally["fan_full_rank"] += rank == rows

    def _observe_gf2_rank(self, args, rank):
        masks = args[0]
        self._observe_rank(len(masks), max((m.bit_length() for m in masks), default=0), rank)

    def _observe_modp_rank(self, args, rank):
        rows = args[0]
        self._observe_rank(len(rows), len(rows[0]) if rows else 0, rank)

    def _observe_fan(self, args, fan):
        self.tally["fan_entries"] += len(fan)

    def _observe_classify(self, args, report):
        self.tally["subsets"] += report.total
        self.tally["class_hits"] += report.total - len(report.classes)

    def pass_summary(self, start_index):
        """Counts and self times of the spans recorded since start_index."""
        spans = self.spans[start_index:]
        child = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter(self.counts)
        for sid, _, _, name, start, end in spans:
            self_s[name] += end - start - child[sid]
            calls[name] += 1
        return {"calls": calls, "self": self_s, "tally": Counter(self.tally)}

    def reset_counts(self):
        self.counts.clear()
        self.tally.clear()

    def write(self, path):
        with open(path, "w") as f:
            for sid, parent, op, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                    "name": name, "start": start, "end": end}) + "\n")


def per_layer_metrics(present, summaries, overhead):
    """Result-line metrics from per-pass summaries of the traced passes.

    Counts come from the first traced pass (every pass repeats them); self
    times are medians over the traced passes.
    """
    first = summaries[0]
    out = {}
    for metric, unit, source in PER_LAYER:
        kind = source[0]
        needs = source[1:2] if kind in ("calls", "self") else [
            span for tally in source[1:] for span in TALLY_NEEDS[tally]]
        if not present.issuperset(needs):
            continue
        if kind == "calls":
            value = first["calls"][source[1]]
        elif kind == "self":
            value = median(s["self"][source[1]] for s in summaries)
        elif kind == "count":
            value = first["tally"][source[1]]
        else:
            num, base = first["tally"][source[1]], first["tally"][source[2]]
            value = num / base if base else UNDEFINED
        out[metric] = {"value": value, "unit": unit}
    out["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    return out
