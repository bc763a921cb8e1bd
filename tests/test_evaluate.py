import math

import numpy as np
import pytest

import fashiongraph.evaluate as E
from fashiongraph.dataio import SyntheticConfig, generate_synthetic, split_interactions
from fashiongraph.evaluate import (
    auc,
    evaluate,
    fltb_accuracy,
    fltb_test_outfits,
    format_report,
    rank_outfits,
    topk_metrics,
)
from fashiongraph.graph import build_fashion_graph
from fashiongraph.propagate import PropagationOutput, forward
from fashiongraph.score import score_items
from fashiongraph.train import TrainConfig, make_model


# --- independent brute-force references ------------------------------------


def ref_metrics(ranked, relevants, k):
    top = ranked[:k]
    hits = len([o for o in top if o in relevants])
    hr = 1.0 if hits > 0 else 0.0
    recall = hits / len(relevants)
    precision = hits / k
    dcg = 0.0
    for pos, o in enumerate(top):
        if o in relevants:
            dcg += 1.0 / math.log2(pos + 2)
    idcg = sum(1.0 / math.log2(r + 2) for r in range(min(len(relevants), k)))
    return hr, recall, precision, dcg / idcg


def ref_auc(pos, neg):
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# --- unit examples ----------------------------------------------------------


class TestTopkMetrics:
    def test_relevant_at_rank_one(self):
        hr, recall, precision, ndcg = topk_metrics(list(range(20)), {0}, 10)
        assert (hr, recall, precision, ndcg) == (1.0, 1.0, 0.1, 1.0)

    def test_relevant_at_rank_two(self):
        _, _, _, ndcg = topk_metrics([5, 0, 9], {0}, 10)
        assert ndcg == pytest.approx(1.0 / math.log2(3), abs=1e-12)

    def test_no_relevant_in_topk(self):
        assert topk_metrics(list(range(10, 40)), {1}, 10) == (0.0, 0.0, 0.0, 0.0)

    def test_empty_relevants_rejected(self):
        with pytest.raises(ValueError):
            topk_metrics([1, 2], set(), 10)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            topk_metrics([1], {1}, 0)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([3.0, 2.0], [1.0, 0.0]) == 1.0

    def test_all_ties(self):
        assert auc([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_pairwise_counting(self):
        assert auc([0.9], [0.8, 0.95]) == 0.5  # one win, one loss

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        pos, neg = rng.normal(size=30), rng.normal(size=40)
        base = auc(pos, neg)
        assert auc(np.exp(pos), np.exp(neg)) == pytest.approx(base, abs=1e-12)
        assert auc(3 * pos + 7, 3 * neg + 7) == pytest.approx(base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc([], [1.0])


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n_outfits = rng.integers(2, 21)
        n_rel = rng.integers(1, n_outfits + 1)
        k = int(rng.integers(1, 15))
        scores = rng.normal(size=n_outfits)
        ranked = [int(i) for i in np.argsort(-scores, kind="stable")]
        relevants = set(int(i) for i in rng.choice(n_outfits, size=n_rel, replace=False))
        assert topk_metrics(ranked, relevants, k) == ref_metrics(ranked, relevants, k)
        pos = rng.normal(size=rng.integers(1, 10))
        neg = rng.normal(size=rng.integers(1, 10))
        if rng.random() < 0.3:  # force ties sometimes
            neg = np.concatenate([neg, pos[:1]])
        assert auc(pos, neg) == pytest.approx(ref_auc(list(pos), list(neg)), abs=1e-12)


# --- ranking ---------------------------------------------------------------


class SmallWorld:
    def __init__(self, seed=0, **synth_kwargs):
        defaults = dict(n_users=8, n_outfits=12, n_items=30, interactions_per_user=6,
                        d_v=6, d_t=4)
        defaults.update(synth_kwargs)
        self.ds = generate_synthetic(SyntheticConfig(**defaults), seed=seed)
        self.splits = split_interactions(self.ds, seed=seed)
        self.graph = build_fashion_graph(self.ds, self.splits)
        self.cfg = TrainConfig(seed=seed, d=8, d_h=5, view_hidden=4, r_views=3, heads=2)
        self.model = make_model(self.graph, self.ds, self.cfg)
        self.prop = forward(self.graph, self.ds, self.model)


class TestRankOutfits:
    def test_excludes_train_and_val(self):
        w = SmallWorld()
        u = w.ds.users[0]
        ranked = rank_outfits(u, w.prop, w.graph, w.splits)
        blocked = set(w.splits.train[u]) | set(w.splits.val[u])
        assert not blocked & set(ranked)
        assert set(w.splits.test[u]) <= set(ranked)

    def test_sorted_by_score_then_id(self):
        w = SmallWorld()
        u = w.ds.users[1]
        ranked = rank_outfits(u, w.prop, w.graph, w.splits)
        h_u = w.prop.h_user_star[w.graph.user_index[u]]
        scores = [float(h_u @ o) for o in w.prop.h_outfit_star[w.graph.rows("outfit", ranked)]]
        for (s1, o1), (s2, o2) in zip(zip(scores, ranked), zip(scores[1:], ranked[1:])):
            assert s1 > s2 or (s1 == s2 and o1 < o2)

    def test_unknown_user(self):
        w = SmallWorld()
        with pytest.raises(KeyError):
            rank_outfits(777777, w.prop, w.graph, w.splits)


def make_oracle_prop(graph, splits):
    """Scores equal ground-truth relevance: user row is the sum of one-hot
    vectors of their test outfits."""
    d = graph.n_outfits
    h_outfit = np.eye(d)
    h_user = np.zeros((graph.n_users, d))
    for u, outfits in splits.test.items():
        for o in outfits:
            h_user[graph.user_index[u], graph.rows("outfit", [o])[0]] = 1.0
    return PropagationOutput(
        h_item_star=np.zeros((graph.n_items, d)),
        h_outfit_star=h_outfit,
        h_user_star=h_user,
        attention={},
        graph=graph,
    )


class TestEvaluate:
    def test_oracle_model_perfect(self):
        w = SmallWorld(seed=3)
        prop = make_oracle_prop(w.graph, w.splits)
        report = evaluate(w.model, w.graph, w.ds, w.splits, seed=0, k=10,
                          include_compat=False, prop=prop)
        assert report.hr == 1.0
        assert report.ndcg == 1.0

    def test_deterministic_reports(self):
        w = SmallWorld(seed=4)
        a = evaluate(w.model, w.graph, w.ds, w.splits, seed=9)
        b = evaluate(w.model, w.graph, w.ds, w.splits, seed=9)
        assert format_report(a, per_user=True) == format_report(b, per_user=True)

    def test_thread_count_invariance(self):
        w = SmallWorld(seed=5)
        a = evaluate(w.model, w.graph, w.ds, w.splits, seed=9, threads=1)
        b = evaluate(w.model, w.graph, w.ds, w.splits, seed=9, threads=3)
        assert format_report(a, per_user=True) == format_report(b, per_user=True)

    def test_skipped_users_counted(self):
        w = SmallWorld(seed=6)
        u = w.ds.users[0]
        w.splits.test[u] = frozenset()  # user without test interactions
        report = evaluate(w.model, w.graph, w.ds, w.splits, seed=0, include_compat=False)
        assert report.n_users_skipped >= 1
        assert report.n_users_evaluated + report.n_users_skipped == len(w.ds.users)

    def test_no_user_with_test_outfits(self):
        w = SmallWorld(seed=6)
        for u in w.ds.users:
            w.splits.test[u] = frozenset()
        report = evaluate(w.model, w.graph, w.ds, w.splits, seed=0, include_compat=False)
        assert (report.n_users_evaluated, report.per_user) == (0, ())
        assert (report.hr, report.recall, report.precision, report.ndcg) == (0.0,) * 4

    def test_untrained_hr_near_random_baseline(self):
        # averaged over model seeds, an untrained ranker should sit near the
        # hypergeometric chance level of hitting a test outfit in the top k
        w = SmallWorld(seed=11, n_users=20, n_outfits=40, n_items=60,
                       interactions_per_user=12)
        hrs = []
        for model_seed in range(5):
            cfg = TrainConfig(seed=model_seed, d=8, d_h=5, view_hidden=4,
                              r_views=3, heads=2)
            m = make_model(w.graph, w.ds, cfg)
            rep = evaluate(m, w.graph, w.ds, w.splits, seed=model_seed,
                           include_compat=False)
            hrs.append(rep.hr)
        baseline = []
        for u in w.ds.users:
            rel = len(w.splits.test.get(u, ()))
            if rel == 0:
                continue
            cand = 40 - len(w.splits.train[u]) - len(w.splits.val[u])
            baseline.append(1.0 - math.comb(cand - rel, 10) / math.comb(cand, 10))
        assert abs(np.mean(hrs) - np.mean(baseline)) < 0.2

    def test_report_file_format(self):
        w = SmallWorld(seed=7)
        report = evaluate(w.model, w.graph, w.ds, w.splits, seed=1)
        text = format_report(report, per_user=True)
        assert "[metrics]" in text
        assert f"hr@{report.k}=" in text
        assert "auc=" in text and "fltb_accuracy=" in text
        per_user_rows = text.split("[per-user]\n")[1].strip().splitlines()
        assert len(per_user_rows) == report.n_users_evaluated


def fix_fltb_trials(monkeypatch, w):
    """Make ``fltb_accuracy`` offer each masked item with the first three
    pool items, the true item at slot 0, 1, 2, 3 in turn; return the trials."""
    distractors = sorted(w.splits.compat_negative_pool)[:3]
    trials = []

    def fixed(ds, split, graph, outfit_ids, seed, trials_per_outfit=1):
        for oid in outfit_ids:
            for _ in range(trials_per_outfit):
                masked = len(trials) % len(ds.outfits[oid])
                slot = len(trials) % 4
                true_item = ds.outfits[oid][masked]
                candidates = [*distractors[:slot], true_item, *distractors[slot:]]
                trials.append((oid, masked, candidates, slot))
        return E.FltbTrials(*(np.array(column) for column in zip(*trials)))

    monkeypatch.setattr(E, "draw_fltb_trials", fixed)
    return trials


class TestFltb:
    def test_known_scores_select_max(self, monkeypatch):
        w = SmallWorld(seed=8)
        trials = fix_fltb_trials(monkeypatch, w)
        acc, n = fltb_accuracy(w.ds, w.splits, w.prop, w.model, seed=0,
                               outfit_ids=sorted(w.ds.outfits)[:3], trials_per_outfit=4)
        assert n == len(trials) == 12
        correct = 0
        for oid, masked, candidates, slot in trials:
            scores = []
            for cand in candidates:
                items = list(w.ds.outfits[oid])
                items[masked] = cand
                scores.append(score_items(items, w.prop, w.model))
            correct += int(np.argmax(scores)) == slot
        assert acc == correct / n

    def test_tie_takes_lowest_slot(self, monkeypatch):
        w = SmallWorld(seed=9)
        w.model.params["view_compat_out"].data[:] = 0.0  # every score is zero
        trials = fix_fltb_trials(monkeypatch, w)
        acc, n = fltb_accuracy(w.ds, w.splits, w.prop, w.model, seed=0,
                               outfit_ids=sorted(w.ds.outfits)[:1], trials_per_outfit=8)
        # each trial picks slot 0, which holds the true item in 2 of the 8
        assert n == 8 and [slot for *_, slot in trials].count(0) == 2
        assert acc == 0.25

    def test_constant_scorer_quarter_accuracy(self):
        # all-equal scores always pick slot 0; the true item lands in slot 0
        # a quarter of the time, so over n trials accuracy ~ Binomial(n, 1/4)
        w = SmallWorld(seed=12, n_users=10, n_outfits=16, n_items=60)
        w.model.params["view_compat_out"].data[:] = 0.0
        acc, n = fltb_accuracy(w.ds, w.splits, w.prop, w.model, seed=5,
                               outfit_ids=sorted(w.ds.outfits), trials_per_outfit=70)
        assert n >= 1000
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(acc - 0.25) < 4 * sigma + 1e-9

    def test_untrained_accuracy_near_quarter(self):
        # Monte Carlo over 1000+ trials: randomly initialized full-size models
        # pick the true item at roughly chance level.  Trials within one model
        # are correlated (every cluster item looks alike to a fixed random
        # scorer), so the average runs over many independent model seeds.
        ds = generate_synthetic(SyntheticConfig(), seed=13)
        splits = split_interactions(ds, seed=13)
        graph = build_fashion_graph(ds, splits)
        accs, weights = [], []
        for model_seed in range(16):
            m = make_model(graph, ds, TrainConfig(seed=model_seed))
            prop = forward(graph, ds, m)
            acc, n = fltb_accuracy(ds, splits, prop, m, seed=model_seed,
                                   outfit_ids=sorted(ds.outfits), trials_per_outfit=4)
            accs.append(acc)
            weights.append(n)
        total = sum(weights)
        assert total >= 1000
        overall = float(np.average(accs, weights=weights))
        assert abs(overall - 0.25) < 0.05

    def test_seeded_reproducibility(self):
        w = SmallWorld(seed=14)
        a = fltb_accuracy(w.ds, w.splits, w.prop, w.model, seed=3)
        b = fltb_accuracy(w.ds, w.splits, w.prop, w.model, seed=3)
        assert a == b

    def test_test_outfit_selection(self):
        w = SmallWorld(seed=15)
        outfits = fltb_test_outfits(w.ds, w.splits)
        expected = sorted({o for v in w.splits.test.values() for o in v})
        assert outfits == expected
