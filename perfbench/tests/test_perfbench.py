"""Tiny-scale smoke runs of every workload, and proof that each correctness
check fails when the program's output is perturbed.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from fashiongraph import cli  # noqa: E402
from fashiongraph.dataio import SyntheticConfig  # noqa: E402
from fashiongraph.evaluate import topk_metrics  # noqa: E402

TINY = SyntheticConfig(n_users=30, n_outfits=80, n_items=120, d_v=24, d_t=12)


def tiny(workload: str):
    return dataclasses.replace(inputs.SPECS[workload], data=TINY)


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["mid-train", "mid-eval"])
def test_tiny_workload_runs_correctly(workload, trace):
    out = bench.measure(workload, seed=3, seconds=0, trace=trace, spec=tiny(workload))
    result = out["result"]
    assert result["correct"], out["lines"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == [name for name, *_ in names]
    if trace:
        metrics = result["metrics"]
        assert all(m["value"] is not None for m in metrics.values())
        if workload == "mid-train":
            assert metrics["train.batches"]["value"] >= 1
            assert metrics["train.comp_negative_yield"]["value"] == 1.0
        else:
            assert metrics["evaluate.users_ranked"]["value"] == TINY.n_users
            assert metrics["score.rec_score_calls"]["value"] > 0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload, module, name", [
    ("mid-train", bench.T, "train_epoch"), ("mid-eval", bench.E, "evaluate")])
def test_failing_operations_are_counted_not_fatal(workload, module, name, trace, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(module, name, fail)
    out = bench.measure(workload, seed=3, seconds=0, trace=trace, spec=tiny(workload))
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["run_s"]["value"] is None
    json.dumps(result)


def test_tracer_takes_its_wrapper_cost_out(monkeypatch):
    probe = types.ModuleType("fashiongraph._tracer_probe")

    def inner(a, b):
        return a

    def outer(n):
        for _ in range(n):
            probe.inner(1, 2)

    probe.inner, probe.outer = inner, outer
    monkeypatch.setitem(sys.modules, probe.__name__, probe)
    monkeypatch.setattr(tracer, "TARGETS", (
        tracer.Target(probe.__name__, "outer", "probe.outer"),
        tracer.Target(probe.__name__, "inner", "probe.inner", aggregate=True),
    ))
    n = 200_000
    start = time.perf_counter()
    probe.outer(n)
    untraced = time.perf_counter() - start
    tr = tracer.Tracer()
    tr.install()
    try:
        probe.outer(n)
    finally:
        tr.uninstall()
    raw = tr.spans[0][2] - tr.spans[0][1]
    assert tr.calls("probe.inner") == n and tr.spans[0][4] == n
    assert tr.total("probe.outer") == pytest.approx(raw - n * tr.wrapper_cost_s)
    # The calibrated cost is the wrapper's, within the host's speed swings.
    assert 0.5 < n * tr.wrapper_cost_s / (raw - untraced) < 2.0


def test_desk_workload_converges():
    out = bench.measure("desk-converge", seed=3, seconds=0, trace=False)
    assert out["result"]["correct"], out["lines"]
    assert out["result"]["attempted"] % 51 == 0


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in bench.PER_LAYER]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "mid-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# perturbation: every check must catch a changed output


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A tiny mid-eval run: the workload after its warm-up evaluation."""
    work = tmp_path_factory.mktemp("mid-eval")
    config = inputs.write_inputs(tiny("mid-eval"), 5, work)
    rc = cli.make_run_config(cli.parse_config_file(config), {})
    wl = bench.MidEval(rc, config, bench.setup(rc))
    wl.warm_up()
    return wl


def _ranking_inputs(wl):
    prop = bench.P.forward(wl.graph, wl.ds, wl.model, mode="eval")
    splits = wl.splits
    excluded = {u: set(splits.train.get(u, ())) | set(splits.val.get(u, ())) for u in wl.ds.users}
    relevant = {u: set(o) for u, o in splits.test.items()}
    return prop, excluded, relevant


def test_ranking_check_catches_two_swapped_outfits(evaluated):
    wl = evaluated
    prop, excluded, relevant = _ranking_inputs(wl)
    per_user = {r.user: (r.hr, r.ndcg) for r in wl.first.per_user}
    args = (prop.h_user_star, prop.h_outfit_star, wl.graph.user_ids, wl.graph.outfit_ids,
            excluded, relevant, bench.K)
    assert checks.ranking_problems(per_user, *args)[0] == []

    user = min(per_user)
    ranked = bench.E.rank_outfits(user, prop, wl.graph, wl.splits)
    first = next(p for p, o in enumerate(ranked) if o in relevant[user])
    other = bench.K if first < bench.K else 0
    ranked[first], ranked[other] = ranked[other], ranked[first]
    hr, _, _, ndcg = topk_metrics(ranked, relevant[user], bench.K)
    problems, _ = checks.ranking_problems({**per_user, user: (hr, ndcg)}, *args)
    assert len(problems) == 1 and f"user {user}" in problems[0]


def test_mean_check_catches_a_changed_mean(evaluated):
    per_user = {r.user: (r.hr, r.ndcg) for r in evaluated.first.per_user}
    report = evaluated.first
    assert checks.mean_problems(report.hr, report.ndcg, per_user) == []
    assert checks.mean_problems(report.hr + 0.01, report.ndcg, per_user)
    assert checks.mean_problems(report.hr, report.ndcg * 1.01, per_user)


def test_auc_check_catches_one_offset_compatibility_score(evaluated):
    wl = evaluated
    prop = bench.P.forward(wl.graph, wl.ds, wl.model, mode="eval")
    index = wl.graph.item_index
    params = {name: p.data for name, p in wl.model.params.items()}
    slope = wl.model.dims.leaky_slope

    def ours(item_lists):
        rows = [[index[i] for i in items] for items in item_lists]
        return checks.rview_scores(params, prop.h_item_star, rows, slope)

    outfits = [wl.ds.outfits[o] for o in sorted(wl.ds.outfits)]
    pos, neg = ours(outfits), ours([n for _, n in wl.negatives])
    assert checks.auc_problems(wl.first.auc, pos, neg) == []

    program_pos = [bench.E.score_items(items, prop, wl.model) for items in outfits]
    program_neg = [bench.E.score_items(n, prop, wl.model) for _, n in wl.negatives]
    assert bench.E.auc(program_pos, program_neg) == wl.first.auc
    best = int(np.argmax(program_pos))
    program_pos[best] -= 2.0  # scores lie in (-1, 1): now below every negative
    assert checks.auc_problems(bench.E.auc(program_pos, program_neg), pos, neg)
    assert checks.auc_problems(wl.first.auc, pos, neg[:0])


def test_negative_check_catches_a_stored_outfit_or_a_broken_template(evaluated):
    wl = evaluated
    categories = {iid: item.category for iid, item in wl.ds.items.items()}
    assert checks.negative_problems(wl.negatives, wl.ds.outfits, categories) == []
    oid, items = wl.negatives[0]
    stored = [(oid, tuple(wl.ds.outfits[oid]))] + wl.negatives[1:]
    assert checks.negative_problems(stored, wl.ds.outfits, categories)
    wrong = next(i for i in sorted(categories) if categories[i] != categories[items[0]])
    broken = [(oid, (wrong,) + tuple(items[1:]))] + wl.negatives[1:]
    assert checks.negative_problems(broken, wl.ds.outfits, categories)


def test_fltb_check_catches_a_wrong_trial_count(evaluated):
    report = evaluated.first
    test_outfits = {o for s in evaluated.splits.test.values() for o in s}
    assert checks.fltb_problems(report.n_fltb_trials, report.fltb_accuracy, test_outfits) == []
    assert checks.fltb_problems(report.n_fltb_trials + 1, report.fltb_accuracy, test_outfits)
    assert checks.fltb_problems(report.n_fltb_trials, 1.5, test_outfits)


def _log(rows: int, bad_epoch: int | None = None) -> str:
    lines = []
    for e in range(1, rows + 1):
        loss = "nan" if e == bad_epoch else f"{1.0 / e:.10f}"
        lines.append(f"{e},{loss},0.5,{loss},1.0,0.9")
    return "\n".join(lines) + "\n"


def test_desk_check_catches_low_quality_or_a_bad_log():
    good = {"hr@10": 1.0, "fltb_accuracy": 0.95}
    assert checks.desk_problems(good, _log(50), 50) == []
    assert checks.desk_problems({**good, "hr@10": 0.75}, _log(50), 50)
    assert checks.desk_problems({**good, "fltb_accuracy": 0.85}, _log(50), 50)
    assert checks.desk_problems(good, _log(49), 50)
    assert checks.desk_problems(good, _log(50, bad_epoch=17), 50)


def test_train_check_catches_rising_loss_bad_counts_or_non_finite_loss():
    def epoch(n, loss, n_rec=90, rec_skipped=0):
        return {"epoch": n, "l_rec": loss, "l_comp": loss, "l_total": loss, "n_rec": n_rec,
                "n_comp": 40, "rec_skipped": rec_skipped, "comp_skipped": 0}

    good = [epoch(1, 1.5), epoch(2, 1.3), epoch(3, 1.2)]
    assert checks.train_problems(good, 90, 40) == []
    assert checks.train_problems(good[:2] + [epoch(3, 1.6)], 90, 40)
    assert checks.train_problems(good[:2] + [epoch(3, math.nan)], 90, 40)
    assert checks.train_problems(good[:2] + [epoch(3, 1.2, n_rec=89)], 90, 40)
    skipped = good[:2] + [epoch(3, 1.2, n_rec=89, rec_skipped=1)]
    assert checks.train_problems(skipped, 90, 40) == []
