"""One benchmark workload, run in this process; the last stdout line is the
result as JSON.

``run.py`` starts this file in a fresh process per workload, with one BLAS
thread pinned before NumPy loads.  Run directly, it uses whatever
``OPENBLAS_NUM_THREADS`` is set, which is how the README's one- and
two-thread figures were taken:

    OPENBLAS_NUM_THREADS=2 python3 perfbench/bench.py --workload mid-train \\
        --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import checks
import inputs  # puts the checkout's src/ first on sys.path
from tracer import COMP_SKIP_TEXT, REC_SKIP_TEXT, Tracer

from fashiongraph import cli  # noqa: E402  (after ``inputs``)

# Modules, not names: the tracer swaps module attributes, and calls made
# through these objects see the swap.
T = importlib.import_module("fashiongraph.train")
E = importlib.import_module("fashiongraph.evaluate")
P = importlib.import_module("fashiongraph.propagate")

OUT = Path(__file__).resolve().parent / "out"
K = 10

# (metric, unit, statistic, span or counter) in output order.  Times are
# seconds per timed unit of the workload (one desk round, one epoch, one
# evaluation), except the three set-up layers, which are seconds per call;
# ``layer_metrics`` defines each statistic.
PER_LAYER = (
    ("dataio.load_dataset_s", "s", "per_call", "dataio.load_dataset"),
    ("dataio.split_interactions_s", "s", "per_call", "dataio.split_interactions"),
    ("graph.build_fashion_graph_s", "s", "per_call", "graph.build_fashion_graph"),
    ("graph.edges", "count", "last", "graph.build_fashion_graph"),
    ("dataio.feature_matrices_s", "s", "total", "dataio.feature_matrices"),
    ("embed.fuse_items_tensor_s", "s", "total", "embed.fuse_items_tensor"),
    ("embed.fuse_items_tensor_calls", "count", "calls", "embed.fuse_items_tensor"),
    ("embed.save_checkpoint_s", "s", "total", "embed.save_checkpoint"),
    ("embed.save_checkpoint_calls", "count", "calls", "embed.save_checkpoint"),
    ("embed.load_checkpoint_s", "s", "total", "embed.load_checkpoint"),
    ("propagate.forward_tensors_s", "s", "self", "propagate.forward_tensors"),
    ("propagate.item_item_s", "s", "total", "propagate.level.item_item"),
    ("propagate.item_outfit_s", "s", "total", "propagate.level.item_outfit"),
    ("propagate.outfit_user_s", "s", "total", "propagate.level.outfit_user"),
    ("propagate.forward_s", "s", "total", "propagate.forward"),
    ("autodiff.backward_s", "s", "total", "autodiff.backward"),
    ("autodiff.tape_nodes_per_batch", "count", "per_backward", "autodiff.topo_order"),
    ("score.rview_scores_tensor_s", "s", "total", "score.rview_scores_tensor"),
    ("score.rec_score_calls", "count", "calls", "score.rec_score"),
    ("score.rec_score_s", "s", "total", "score.rec_score"),
    ("score.score_items_calls", "count", "calls", "score.score_items"),
    ("score.score_items_s", "s", "total", "score.score_items"),
    ("score.order_candidates_s", "s", "total", "score.order_candidates"),
    ("train.sample_negatives_s", "s", "total", "train.sample_negatives"),
    ("train.batch_loss_s", "s", "self", "train.batch_loss"),
    ("train.adam_step_s", "s", "total", "train.adam_step"),
    ("train.batches", "count", "calls", "train.batch_loss"),
    ("train.rec_triples", "count", "count", "train.sample_negatives"),
    ("train.comp_pairs", "count", "count", "train.sample_negatives"),
    ("train.rec_negatives_skipped", "count", "count", "train.sample_negatives"),
    ("train.comp_negatives_skipped", "count", "count", "train.sample_negatives"),
    ("train.comp_negative_yield", "ratio", "yield", "train.sample_negatives"),
    ("evaluate.ranking_s", "s", "ranking", "evaluate.evaluate"),
    ("evaluate.compat_auc_s", "s", "total", "evaluate.compat_auc"),
    ("evaluate.fltb_accuracy_s", "s", "total", "evaluate.fltb_accuracy"),
    ("evaluate.users_ranked", "count", "count", "evaluate.evaluate"),
    ("evaluate.fltb_trials", "count", "count", "evaluate.fltb_accuracy"),
    ("evaluate.validation_s", "s", "total", "evaluate.evaluate.val"),
    ("trace.overhead_s", "s", "overhead", None),
    ("trace.overhead_share", "ratio", "overhead_share", None),
)
# What ``evaluate.ranking_s`` leaves out of ``evaluate``'s time.
EVALUATE_NOT_RANKING = {"propagate.forward", "evaluate.compat_auc", "evaluate.fltb_accuracy"}
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
# Set-ups timed before the warm-up; the last one's state is kept for the run.
SETUP_REPS = 10


clock = time.perf_counter


def setup(rc):
    """The files-mode set-up every command does: load, split, graph, model."""
    ds, splits, graph = cli.prepare(rc)
    return ds, splits, graph, T.make_model(graph, ds, rc.train_config())


def median_or_none(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# workloads: each is made from the run config, the config path and the kept
# set-up state, and has ops_per_unit, min_units, run_alias, warm_up(),
# unit(), after_unit(), problems() and figures().


class DeskConverge:
    """The ``train`` then ``evaluate`` subcommands, one round per timed unit."""

    min_units = 3
    run_alias = "round_s"  # train_s + eval_s

    def __init__(self, rc, config: Path, state):
        # The subcommands set up for themselves; ``state`` goes unused.
        self.rc = rc
        self.out = Path(rc.out_dir)
        self.train_argv = ["train", "--config", str(config)]
        self.eval_argv = [
            "evaluate", "--config", str(config),
            "--checkpoint", str(self.out / "last.ckpt"), "--out", str(self.out / "report.txt"),
        ]
        self.ops_per_unit = rc.epochs + 1  # epochs plus the test evaluation
        self.train_s, self.eval_s = [], []
        self.report: dict[str, float] = {}
        self.issues: list[str] = []

    def warm_up(self):
        self.unit()
        self.train_s.clear()
        self.eval_s.clear()

    def unit(self):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            code = cli.main(self.train_argv)
            t1 = clock()
            code = code or cli.main(self.eval_argv)
            t2 = clock()
        if code != 0:
            raise RuntimeError(f"command exited {code}")
        self.train_s.append(t1 - t0)
        self.eval_s.append(t2 - t1)

    def after_unit(self):
        self.report = checks.parse_report((self.out / "report.txt").read_text())
        log = (self.out / "train_log.csv").read_text()
        for problem in checks.desk_problems(self.report, log, self.rc.epochs):
            if problem not in self.issues:
                self.issues.append(problem)

    def problems(self, tracer):
        return self.issues

    def figures(self):
        r = self.report
        return [
            ("train_s", median_or_none(self.train_s), "s"),
            ("eval_s", median_or_none(self.eval_s), "s"),
            ("HR@10", r.get("hr@10"), ""), ("NDCG@10", r.get("ndcg@10"), ""),
            ("AUC", r.get("auc"), ""), ("FLTB", r.get("fltb_accuracy"), ""),
        ]


class MidTrain:
    """Timed ``train_epoch`` calls after one untimed warm-up epoch."""

    min_units = 2
    ops_per_unit = 1
    run_alias = "epoch_s"

    def __init__(self, rc, config: Path, state):
        self.cfg = rc.train_config()
        self.ds, self.splits, self.graph, self.model = state
        self.optimizer = T.Adam.from_config(self.cfg)
        self.epochs: list[dict] = []

    def warm_up(self):
        self.unit()

    def unit(self):
        epoch = len(self.epochs) + 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = T.train_epoch(
                self.model, self.graph, self.ds, self.splits, self.cfg, self.optimizer, epoch
            )
        texts = [str(w.message) for w in caught]
        self.epochs.append({
            "epoch": epoch, "l_rec": stats.l_rec, "l_comp": stats.l_comp,
            "l_total": stats.l_total, "n_rec": stats.n_rec, "n_comp": stats.n_comp,
            "rec_skipped": sum(REC_SKIP_TEXT in t for t in texts),
            "comp_skipped": sum(COMP_SKIP_TEXT in t for t in texts),
        })

    def after_unit(self):
        pass

    def problems(self, tracer):
        n_pairs = len(self.splits.pairs("train"))
        problems = checks.train_problems(self.epochs, n_pairs, len(self.ds.outfits))
        if tracer is not None:
            samples = tracer.calls("train.sample_negatives")
            skipped = tracer.counts["train.rec_negatives_skipped"]
            if tracer.counts["train.rec_triples"] != samples * n_pairs - skipped:
                problems.append(
                    f"traced: {tracer.counts['train.rec_triples']} rec triples from "
                    f"{samples} samplings of {n_pairs} pairs with {skipped} skips"
                )
        return problems

    def figures(self):
        if not self.epochs:
            return []
        return [
            ("first_epoch_loss", self.epochs[0]["l_total"], ""),
            ("last_epoch_loss", self.epochs[-1]["l_total"], ""),
            ("epochs", len(self.epochs), ""),
        ]


class MidEval:
    """Timed full test evaluations of the seeded initial model."""

    min_units = 3
    ops_per_unit = 1
    run_alias = "eval_s"

    def __init__(self, rc, config: Path, state):
        self.seed = rc.seed
        self.ds, self.splits, self.graph, self.model = state
        self.negatives: list[tuple[int, tuple[int, ...]]] = []
        self.first = self.last = None
        self.mismatches = 0
        self.notes: dict[str, int] = {}

    def _evaluate(self):
        return E.evaluate(
            self.model, self.graph, self.ds, self.splits, seed=self.seed, k=K, on="test"
        )

    def warm_up(self):
        # The AUC negatives are read off the sampler during this untimed call.
        sampler = E.category_template_negative

        def capture(ds, outfit_id, *args, **kwargs):
            negative = sampler(ds, outfit_id, *args, **kwargs)
            if negative is not None:
                self.negatives.append((outfit_id, negative))
            return negative

        E.category_template_negative = capture
        try:
            self.first = self._evaluate()
        finally:
            E.category_template_negative = sampler

    def unit(self):
        self.last = self._evaluate()

    def after_unit(self):
        if self.first is None or self.last is None:
            return
        keys = ("hr", "ndcg", "auc", "fltb_accuracy", "n_fltb_trials", "per_user")
        if any(getattr(self.last, a) != getattr(self.first, a) for a in keys):
            self.mismatches += 1

    def problems(self, tracer):
        if self.first is None:
            return ["the warm-up evaluation failed, so nothing was checked"]
        report, ds, splits, graph = self.first, self.ds, self.splits, self.graph
        prop = P.forward(graph, ds, self.model, mode="eval")
        per_user = {r.user: (r.hr, r.ndcg) for r in report.per_user}
        excluded = {u: set(splits.train.get(u, ())) | set(splits.val.get(u, ())) for u in ds.users}
        problems, self.notes["near_tie_users"] = checks.ranking_problems(
            per_user, prop.h_user_star, prop.h_outfit_star, graph.user_ids, graph.outfit_ids,
            excluded, {u: set(o) for u, o in splits.test.items()}, K,
        )
        problems += checks.mean_problems(report.hr, report.ndcg, per_user)

        index = graph.item_index
        params = {name: p.data for name, p in self.model.params.items()}
        dims = self.model.dims

        def scores(item_lists):
            rows = [[index[i] for i in items] for items in item_lists]
            return checks.rview_scores(
                params, prop.h_item_star, rows, dims.leaky_slope, dims.linear_compat
            )

        pos = scores([ds.outfits[o] for o in sorted(ds.outfits)])
        neg = scores([items for _, items in self.negatives])
        categories = {iid: item.category for iid, item in ds.items.items()}
        problems += checks.negative_problems(self.negatives, ds.outfits, categories)
        problems += checks.auc_problems(report.auc, pos, neg)
        test_outfits = {o for outfits in splits.test.values() for o in outfits}
        problems += checks.fltb_problems(report.n_fltb_trials, report.fltb_accuracy, test_outfits)
        if self.mismatches:
            problems.append(f"{self.mismatches} repeated evaluations differ from the first")
        return problems

    def figures(self):
        r = self.first
        if r is None:
            return []
        return [
            ("HR@10", r.hr, ""), ("NDCG@10", r.ndcg, ""), ("AUC", r.auc, ""),
            ("FLTB", r.fltb_accuracy, ""), ("users_ranked", r.n_users_evaluated, ""),
        ]


WORKLOADS = {"desk-converge": DeskConverge, "mid-train": MidTrain, "mid-eval": MidEval}


# ---------------------------------------------------------------------------
# measurement


def timed_setups(rc) -> tuple[list[float], tuple]:
    """Set up SETUP_REPS times, each from scratch; return the times and the
    last set-up's state.  The previous state is dropped before each set-up,
    so two copies never count towards the peak RSS together."""
    times, state = [], None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        start = clock()
        state = setup(rc)
        times.append(clock() - start)
    return times, state


def run_unit(wl, step) -> float | None:
    """Seconds of ``step`` (a unit or the warm-up), then its checks; None if
    either raised, with the traceback on stderr."""
    gc.collect()
    start = clock()
    try:
        step()
        elapsed = clock() - start
        wl.after_unit()
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        traceback.print_exc()
        return None
    return elapsed


def timed_units(wl, deadline: float) -> tuple[list[float], int]:
    """Whole timed units until the next would end past ``deadline``, at least
    ``wl.min_units``.  Returns (seconds per successful unit, failed units)."""
    times, failed = [], 0
    while True:
        elapsed = run_unit(wl, wl.unit)
        if elapsed is None:
            failed += 1
        else:
            times.append(elapsed)
        done = len(times) + failed
        if done >= wl.min_units and (not times or clock() + statistics.median(times) > deadline):
            return times, failed


def layer_metrics(tr: Tracer, units: int, untraced, traced) -> dict:
    """Every PER_LAYER metric from one traced stretch of ``units`` timed units.

    ``untraced`` and ``traced`` are the median unit times of the run's two
    stretches (None when no unit succeeded).  A metric whose traced function
    no longer exists is reported as null.
    """
    def value(metric, statistic, source):
        if statistic == "per_call":
            calls = tr.calls(source)
            return tr.total(source) / calls if calls else 0.0
        if statistic == "last":
            return tr.last.get(metric, 0)
        if statistic == "per_backward":
            return tr.counts["autodiff.tape_nodes"] / max(1, tr.calls(source))
        if statistic == "yield":
            sampled = tr.counts["train.outfits_sampled"]
            return tr.counts["train.comp_pairs"] / sampled if sampled else 0.0
        if statistic in ("overhead", "overhead_share"):
            if untraced is None or traced is None:
                return None
            return traced - untraced if statistic == "overhead" else (traced - untraced) / untraced
        per_unit = {
            "total": lambda: tr.total(source),
            "calls": lambda: tr.calls(source),
            "self": lambda: tr.self_time(source),
            "count": lambda: tr.counts[metric],
            "ranking": lambda: sum(
                tr.self_time(f"{source}.{on}", EVALUATE_NOT_RANKING) for on in ("test", "val")),
        }[statistic]()
        return per_unit / units

    def absent(source):
        return source is not None and any(
            source == name or source.startswith(name + ".") for name in tr.absent)

    return {
        metric: {"value": None if absent(source) else value(metric, statistic, source),
                 "unit": unit}
        for metric, unit, statistic, source in PER_LAYER
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, spec=None) -> dict:
    """Run one workload; return the result object that ``main`` prints."""
    spec = spec or inputs.SPECS[workload]
    work = OUT / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        config = inputs.write_inputs(spec, seed, work)
        rc = cli.make_run_config(cli.parse_config_file(config), {})
        start = clock()
        setup_times, state = timed_setups(rc)
        wl = WORKLOADS[workload](rc, config, state)
        failed = int(run_unit(wl, wl.warm_up) is None)
        deadline = start + (seconds / 2 if trace else seconds)
        run_times, run_failed = timed_units(wl, deadline)
        failed += run_failed
        units, tracer, figures = 1 + len(run_times) + run_failed, None, wl.figures()
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                timed_setups(rc)  # for the set-up layers; the state is dropped
                traced_times, traced_failed = timed_units(wl, start + seconds)
            finally:
                tracer.uninstall()
            failed += traced_failed
            units += len(traced_times) + traced_failed
            tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
        try:
            problems = list(wl.problems(tracer))
        except Exception:  # noqa: BLE001 - a check that raises fails the run
            traceback.print_exc()
            problems = ["the correctness checks raised; traceback on stderr"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not run_times:
        problems.insert(0, "no timed unit succeeded")

    lines = [
        f"{workload} seed {seed}: {len(run_times)} timed units",
        f"  unit_times_s {' '.join(f'{t:.4f}' for t in run_times)}",
        f"  setup_times_s {' '.join(f'{t:.4f}' for t in setup_times)}",
    ]
    end_to_end = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "run_s": {"value": median_or_none(run_times), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    named = [(n, m["value"], m["unit"]) for n, m in end_to_end.items()]
    named.insert(2, (wl.run_alias, end_to_end["run_s"]["value"], "s"))
    for name, value, unit in named + figures + [(k, v, "") for k, v in getattr(wl, "notes", {}).items()]:
        lines.append(f"  {name} {value} {unit}".rstrip())
    metrics = end_to_end
    if trace:
        traced_unit = median_or_none(traced_times)
        metrics = layer_metrics(
            tracer, len(traced_times) + traced_failed, end_to_end["run_s"]["value"], traced_unit
        )
        lines.append(f"  traced run_s {traced_unit} s over {len(traced_times)} units")
        lines.append(f"  tracer wrapper cost {tracer.wrapper_cost_s * 1e9:.0f} ns per "
                     f"aggregated call, taken out of the times below")
        lines += [f"  {n} {m['value']} {m['unit']}" for n, m in metrics.items()]
        lines += [f"  absent: {name}" for name in tracer.absent]
    lines.append(f"  attempted {units * wl.ops_per_unit} failed {failed * wl.ops_per_unit}")
    lines += [f"  PROBLEM: {p}" for p in problems]
    return {
        "lines": lines,
        "result": {
            "correct": not problems,
            "attempted": units * wl.ops_per_unit,
            "failed": failed * wl.ops_per_unit,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
