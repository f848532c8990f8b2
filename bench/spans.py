"""Spans around the public functions of each bilmult layer, and their self times.

`Tracer.install()` replaces each traced function in every bilmult module that
holds it (a `from .x import f` copies the reference, so patching the defining
module alone would miss callers).  Spans are kept in memory as
[name, start, end, parent, returned] and handed to the parent with the job's
report; the parent writes a pass's spans to .bench_out/ when the pass ends.
A span's self time is its duration minus the durations of its child spans,
so the self times of all spans sum to the durations of the root spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (span name, defining module, function); every module holding it is patched
FUNCTION_SPANS = (
    ("construct.toom", "bilmult.construct", "toom_construct"),
    ("construct.compose", "bilmult.construct", "compose_decompositions"),
    ("construct.rebase", "bilmult.construct", "rebase_decomposition"),
    ("decomp.verify", "bilmult.decomp", "verify_decomposition_detail"),
    ("decomp.json.read", "bilmult.decomp", "decomposition_from_json"),
    ("decomp.json.write", "bilmult.decomp", "decomposition_to_json"),
    ("decomp.xcheck", "bilmult.decomp", "exhaustive_product_check"),
    ("decomp.rank", "bilmult.decomp", "brute_force_rank"),
    ("cli", "bilmult.cli", "main"),
)
JOB_SPAN = "job"
SPAN_NAMES = ("gf.extend", "bounds.engine") + tuple(s[0] for s in FUNCTION_SPANS) + (JOB_SPAN,)
# the JSON spans report their self time as the read and write time
SELF_METRIC = {"decomp.json.read": "decomp.json.read_s", "decomp.json.write": "decomp.json.write_s"}


def self_metric(span: str) -> str:
    return SELF_METRIC.get(span, f"{span}.self_s")


class Tracer:
    """Spans and counters of one worker process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self._extended: set = set()

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, returned: bool) -> None:
        now = time.perf_counter()
        # a job stopped by its time limit may leave inner spans open
        while self.stack and self.stack[-1] != idx:
            self.spans[self.stack.pop()][2] = now
        if self.stack:
            self.stack.pop()
        self.spans[idx][2] = now
        self.spans[idx][4] = returned

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer.counters, *args)
            stack, spans = tracer.stack, tracer.spans
            # a call inside a span of the same name adds to that span's self time
            if not name or (stack and spans[stack[-1]][0] == name):
                result = fn(*args, **kwargs)
            else:
                idx = tracer.open(name)
                returned = False
                try:
                    result = fn(*args, **kwargs)
                    returned = True
                finally:
                    tracer.close(idx, returned)
            if after is not None:
                after(tracer.counters, result)
            return result

        return traced

    # -- counters at the layer boundaries ------------------------------------------

    def _note_extend(self, counters, field, n):
        key = (field.p, field.chain, n)
        if key not in self._extended:
            self._extended.add(key)
            counters["gf.extend.cold_calls"] += 1

    @staticmethod
    def _note_scan(counters, chain_field, flat_field):
        counters["construct.rebase.scan_elems"] += chain_field.q

    @staticmethod
    def _note_verify(counters, d):
        counters["decomp.verify.pair_checks"] += d.rank * d.n * d.n

    @staticmethod
    def _note_xcheck(counters, d):
        counters["decomp.xcheck.pairs"] += d.top.q ** 2

    @staticmethod
    def _note_rank(counters, report):
        counters["decomp.rank.nodes"] += report.nodes_explored
        counters["decomp.rank.answered"] += report.outcome in ("found", "exhausted")

    @staticmethod
    def _note_best_upper_call(counters, *args):
        counters["bounds.best_upper.calls"] += 1

    @staticmethod
    def _note_best_upper(counters, bound):
        counters["bounds.best_upper.returned"] += 1
        counters["bounds.best_upper.witnessed"] += bound.witness is not None

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Patch the traced functions in every loaded bilmult module."""
        from bilmult import bounds, construct, gf

        notes = {
            "decomp.verify": (self._note_verify, None),
            "decomp.xcheck": (self._note_xcheck, None),
            "decomp.rank": (None, self._note_rank),
        }
        modules = [m for n, m in sys.modules.items() if n.startswith("bilmult") and m]
        for span, module, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(span, original, *notes.get(span, (None, None)))
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, traced)
        # counted, not a span: nearly all re-basing time is this scan
        construct.tower_to_flat_isomorphism = self.wrap(
            None, construct.tower_to_flat_isomorphism, before=self._note_scan
        )
        gf.Field.extend = self.wrap("gf.extend", gf.Field.extend, before=self._note_extend)
        for attr, value in list(vars(bounds.BoundEngine).items()):
            if attr.startswith("_") or not callable(value):
                continue
            hooks = (
                (self._note_best_upper_call, self._note_best_upper)
                if attr == "best_upper_bound" else (None, None)
            )
            setattr(bounds.BoundEngine, attr, self.wrap("bounds.engine", value, *hooks))

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def merge(dumps: list) -> dict:
    """Concatenate the traces of several workers, keeping parent links."""
    spans: list = []
    counters: Counter = Counter()
    for dump in dumps:
        offset = len(spans)
        spans.extend([n, s, e, p + offset if p >= 0 else -1, r] for n, s, e, p, r in dump["spans"])
        counters.update(dump["counters"])
    return {"spans": spans, "counters": dict(counters)}


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(dump: dict) -> dict:
    """Calls and self time per span name, plus the counter-derived metrics."""
    spans, counters = dump["spans"], Counter(dump["counters"])
    calls: Counter = Counter()
    self_s: Counter = Counter()
    rank_answer_s = 0.0
    for (name, _, _, _, returned), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own
        if name == "decomp.rank" and returned:
            rank_answer_s += own
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[self_metric(name)] = self_s[name]
    for key in ("gf.extend.cold_calls", "construct.rebase.scan_elems",
                "decomp.verify.pair_checks", "decomp.xcheck.pairs", "decomp.rank.nodes"):
        out[key] = counters[key]
    out["decomp.rank.nodes_per_s"] = (
        counters["decomp.rank.nodes"] / rank_answer_s if rank_answer_s else 0.0
    )
    searches = calls["decomp.rank"]
    out["decomp.rank.answered"] = counters["decomp.rank.answered"] / searches if searches else 0.0
    out["bounds.best_upper.calls"] = counters["bounds.best_upper.calls"]
    returned = counters["bounds.best_upper.returned"]
    out["bounds.witness_ratio"] = (
        counters["bounds.best_upper.witnessed"] / returned if returned else 0.0
    )
    return out
