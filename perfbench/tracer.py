"""Spans and counts recorded around the calls into each program module.

The tracer wraps public functions of the ``fashiongraph`` modules from
outside the program: every module attribute bound to a traced function is
replaced by a wrapper, so calls through ``from .x import f`` bindings are
seen too.  Spans (name, start, end, parent) stay in memory until ``write``.
Functions called hundreds of thousands of times per run (``rec_score``,
``score_items``, ``order_candidates``) are aggregated into a call count and
a total time instead of one span each.

On mid-eval the wrappers of those functions cost about as much as the
functions themselves, so every time the tracer reports has that cost taken
out: ``install`` and ``uninstall`` measure what the wrapper adds to one call
of an empty function, each span counts the aggregated calls made inside it,
and ``total`` and ``self_time`` subtract calls x the median cost.  The host's
speed swings move that cost by up to about half, so corrected times carry
that much of the wrapper cost as error.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

# The skip warnings of ``train.sample_negatives``.
REC_SKIP_TEXT = "interacted with every outfit"
COMP_SKIP_TEXT = "category-template negative"


@dataclass(frozen=True)
class Target:
    module: str  # e.g. "fashiongraph.score"
    attr: str  # function name, or "Class.method"
    name: str  # metric prefix, e.g. "score.rec_score"
    aggregate: bool = False
    key: Callable | None = None  # (args, kwargs) -> suffix of the span name
    on_result: Callable | None = None  # (tracer, result, args) -> None


def _arg(position: int, keyword: str, default=None):
    def key(args, kwargs):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[position] if len(args) > position else default
    return key


def _count_graph(tracer, graph, args):
    tracer.last["graph.edges"] = (
        len(graph.uo_tgt) + len(graph.oi_tgt) + len(graph.item_edges.tgt)
    )


def _count_batch(tracer, batch, args):
    tracer.counts["train.outfits_sampled"] += len(args[0].outfits)
    tracer.counts["train.rec_triples"] += batch.n_rec
    tracer.counts["train.comp_pairs"] += batch.n_comp


def _count_fltb(tracer, result, args):
    tracer.counts["evaluate.fltb_trials"] += result[1]


def _count_report(tracer, report, args):
    tracer.counts["evaluate.users_ranked"] += report.n_users_evaluated


def _count_tape(tracer, order, args):
    tracer.counts["autodiff.tape_nodes"] += len(order)


TARGETS = (
    Target("fashiongraph.dataio", "load_dataset", "dataio.load_dataset"),
    Target("fashiongraph.dataio", "split_interactions", "dataio.split_interactions"),
    Target("fashiongraph.dataio", "feature_matrices", "dataio.feature_matrices"),
    Target("fashiongraph.graph", "build_fashion_graph", "graph.build_fashion_graph",
           on_result=_count_graph),
    Target("fashiongraph.embed", "fuse_items_tensor", "embed.fuse_items_tensor"),
    Target("fashiongraph.embed", "save_checkpoint", "embed.save_checkpoint"),
    Target("fashiongraph.embed", "load_checkpoint", "embed.load_checkpoint"),
    Target("fashiongraph.propagate", "forward_tensors", "propagate.forward_tensors"),
    Target("fashiongraph.propagate", "forward", "propagate.forward"),
    Target("fashiongraph.propagate", "_propagate_level_tensor", "propagate.level",
           key=_arg(1, "level")),
    Target("fashiongraph.autodiff", "Tensor.backward", "autodiff.backward"),
    Target("fashiongraph.autodiff", "_topo_order", "autodiff.topo_order",
           on_result=_count_tape),
    Target("fashiongraph.score", "rview_scores_tensor", "score.rview_scores_tensor"),
    Target("fashiongraph.score", "rec_score", "score.rec_score", aggregate=True),
    Target("fashiongraph.score", "score_items", "score.score_items", aggregate=True),
    Target("fashiongraph.score", "order_candidates", "score.order_candidates", aggregate=True),
    Target("fashiongraph.train", "sample_negatives", "train.sample_negatives",
           on_result=_count_batch),
    Target("fashiongraph.train", "batch_loss", "train.batch_loss"),
    Target("fashiongraph.train", "Adam.step", "train.adam_step"),
    Target("fashiongraph.evaluate", "evaluate", "evaluate.evaluate",
           key=_arg(6, "on", "test"), on_result=_count_report),
    Target("fashiongraph.evaluate", "compat_auc", "evaluate.compat_auc"),
    Target("fashiongraph.evaluate", "fltb_accuracy", "evaluate.fltb_accuracy",
           on_result=_count_fltb),
)


CALIBRATION_CALLS = 50_000  # per batch; a batch takes about 25 ms
CALIBRATION_BATCHES = 7


def _empty(a, b):
    return None


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores the
    original functions."""

    def __init__(self):
        # [name, start, end, parent index, aggregated calls made inside]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.last: dict[str, float] = {}
        self.absent: list[str] = []
        # Aggregated functions: name -> [seconds, calls].
        self._aggregated: defaultdict = defaultdict(lambda: [0.0, 0])
        self._nested_calls = [0]  # aggregated calls so far, for the spans
        # What a wrapper adds to one aggregated call: to the caller's time,
        # and to the time it records for the call; one sample per batch.
        self._added: list[float] = []
        self._recorded: list[float] = []
        self.wrapper_cost_s = self.recorded_cost_s = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self._calibrate()
        for target in TARGETS:
            module = sys.modules.get(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if owner_name:
                self._replace(owner, method, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "fashiongraph" or name.startswith("fashiongraph."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, wrapper)

    def _replace(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        self._calibrate()

    def _calibrate(self) -> None:
        """Time the aggregated wrapper around an empty function; keep the
        median of every batch so far."""
        clock = time.perf_counter
        wrapped = self._wrap(Target("", "", "trace.calibration", aggregate=True), _empty)
        cell = self._aggregated["trace.calibration"]
        added, recorded = self._added, self._recorded
        for _ in range(CALIBRATION_BATCHES):
            cell[:] = [0.0, 0]
            t0 = clock()
            for _ in range(CALIBRATION_CALLS):
                _empty(1, 2)
            t1 = clock()
            for _ in range(CALIBRATION_CALLS):
                wrapped(1, 2)
            t2 = clock()
            added.append(((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
            recorded.append(cell[0] / CALIBRATION_CALLS)
        del self._aggregated["trace.calibration"]
        self.wrapper_cost_s = max(0.0, statistics.median(added))
        self.recorded_cost_s = statistics.median(recorded)

    def _wrap(self, target: Target, fn):
        clock = time.perf_counter
        nested = self._nested_calls
        if target.aggregate:
            cell = self._aggregated[target.name]

            def aggregated(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell[0] += clock() - start
                    cell[1] += 1
                    nested[0] += 1

            return aggregated

        spans, stack = self.spans, self._stack
        is_sampler = target.attr == "sample_negatives"

        def traced(*args, **kwargs):
            name = target.name
            if target.key is not None:
                name = f"{name}.{target.key(args, kwargs)}"
            record = [name, clock(), None, stack[-1] if stack else None, nested[0]]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                if is_sampler:
                    result = self._sample_counting_skips(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[4] = nested[0] - record[4]
                stack.pop()
            if target.on_result is not None:
                target.on_result(self, result, args)
            return result

        return traced

    def _sample_counting_skips(self, fn, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            text = str(w.message)
            if REC_SKIP_TEXT in text:
                self.counts["train.rec_negatives_skipped"] += 1
            elif COMP_SKIP_TEXT in text:
                self.counts["train.comp_negatives_skipped"] += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    # -- reading ------------------------------------------------------------

    def _duration(self, span) -> float:
        """A span's seconds without the wrappers of the aggregated calls in it."""
        return span[2] - span[1] - span[4] * self.wrapper_cost_s

    def total(self, name: str) -> float:
        """Inclusive seconds of all spans called ``name`` (or aggregated)."""
        if name in self._aggregated:
            seconds, calls = self._aggregated[name]
            return seconds - calls * self.recorded_cost_s
        return sum(self._duration(s) for s in self.spans if s[0] == name)

    def self_time(self, name: str, excluding=None) -> float:
        """Seconds inside spans called ``name`` minus their direct children
        (only the children named in ``excluding``, when given)."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        inside = sum(self._duration(self.spans[i]) for i in own)
        children = sum(
            self._duration(s)
            for s in self.spans
            if s[3] in own and (excluding is None or s[0] in excluding)
        )
        return inside - children

    def calls(self, name: str) -> int:
        if name in self._aggregated:
            return self._aggregated[name][1]
        return sum(1 for s in self.spans if s[0] == name)

    def write(self, path) -> None:
        """One JSON line per span, then one line of counts, aggregated
        functions and the wrapper cost."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, nested in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "aggregated_calls": nested}) + "\n")
            fh.write(json.dumps({
                "counts": dict(self.counts),
                "aggregated": {n: {"s": s, "calls": c} for n, (s, c) in self._aggregated.items()},
                "wrapper_cost_s": self.wrapper_cost_s,
                "recorded_cost_s": self.recorded_cost_s,
                "last": self.last,
                "absent": self.absent,
            }) + "\n")
