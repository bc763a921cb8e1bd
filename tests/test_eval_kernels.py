"""Block ranking and batched R-view scoring against their per-pair and
per-outfit references."""

import dataclasses
import types

import numpy as np
import pytest

import fashiongraph
import fashiongraph.dataio as dataio
import fashiongraph.evaluate as E
from fashiongraph.dataio import SyntheticConfig, generate_synthetic, split_interactions
from fashiongraph.graph import build_fashion_graph
from fashiongraph.propagate import forward
from fashiongraph.rng import substream
from fashiongraph.score import order_candidates, rec_score, score_item_lists, score_items
from fashiongraph.train import (
    TrainConfig,
    category_pools,
    category_template_negative,
    make_model,
)


def world(seed, dtype="float64", **synth):
    cfg = dict(n_users=40, n_outfits=60, n_items=90, interactions_per_user=8, d_v=6, d_t=4)
    cfg.update(synth)
    ds = generate_synthetic(SyntheticConfig(**cfg), seed=seed)
    splits = split_interactions(ds, seed=seed)
    graph = build_fashion_graph(ds, splits)
    m = make_model(graph, ds, TrainConfig(seed=seed, d=8, d_h=5, view_hidden=4, r_views=3,
                                          heads=2, dtype=dtype))
    return ds, splits, graph, m, forward(graph, ds, m)


def reference_ranking(user, prop, graph, split, exclude_val=True):
    """Per-pair ``rec_score`` and ``order_candidates``: the pre-block ranking."""
    excluded = set(split.train.get(user, ()))
    if exclude_val:
        excluded |= set(split.val.get(user, ()))
    h_u = prop.h_user_star[graph.user_index[user]]
    scores = {
        int(o): rec_score(h_u, prop.h_outfit_star[graph.outfit_index[int(o)]])
        for o in graph.outfit_ids
        if int(o) not in excluded
    }
    return order_candidates(scores.keys(), scores)


def test_package_attribute_is_the_evaluate_module():
    assert isinstance(fashiongraph.evaluate, types.ModuleType)
    assert fashiongraph.evaluate is E
    assert callable(fashiongraph.evaluate.evaluate)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_ranking_equals_per_pair_order(seed):
    ds, splits, graph, m, prop = world(seed)
    rng = np.random.default_rng(seed)
    # Small integer embeddings make every dot product exact, so ties are
    # exact; duplicated outfit rows add more of them.
    h_user = rng.integers(-2, 3, size=prop.h_user_star.shape).astype(np.float64)
    h_outfit = rng.integers(-2, 3, size=prop.h_outfit_star.shape).astype(np.float64)
    h_outfit[1::3] = h_outfit[0:-1:3][: len(h_outfit[1::3])]
    # One user keeps fewer candidates than k.
    crowded = int(graph.user_ids[5])
    train = dict(splits.train)
    train[crowded] = frozenset(int(o) for o in graph.outfit_ids[:-4]) - splits.val.get(
        crowded, frozenset()) - splits.test.get(crowded, frozenset())
    splits = dataclasses.replace(splits, train=train)
    for h_u, h_o in ((prop.h_user_star, prop.h_outfit_star), (h_user, h_outfit)):
        p = dataclasses.replace(prop, h_user_star=h_u, h_outfit_star=h_o)
        users = [int(u) for u in graph.user_ids]
        for exclude_val in (True, False):
            got = {u: r.tolist() for u, r, _ in
                   E.ranked_outfits(users, p, graph, splits, exclude_val=exclude_val)}
            assert list(got) == users
            for u in users:
                assert got[u] == reference_ranking(u, p, graph, splits, exclude_val)
        assert len(E.rank_outfits(crowded, p, graph, splits)) < 10
        for u in users:
            assert E.rank_outfits(u, p, graph, splits) == reference_ranking(u, p, graph, splits)


def test_evaluate_rows_match_per_pair_reference():
    ds, splits, graph, m, prop = world(3)
    report = E.evaluate(m, graph, ds, splits, seed=3, include_compat=False, prop=prop)
    expected = []
    for u in sorted(int(u) for u in graph.user_ids):
        if splits.test.get(u):
            ranked = reference_ranking(u, prop, graph, splits)
            expected.append((u, *E.topk_metrics(ranked, splits.test[u], 10)))
    assert [(r.user, r.hr, r.recall, r.precision, r.ndcg) for r in report.per_user] == expected


def test_report_independent_of_block_size(monkeypatch):
    ds, splits, graph, m, prop = world(4, n_users=300)
    assert graph.n_users > E.RANK_BLOCK
    for on in ("test", "val"):
        default = E.format_report(E.evaluate(m, graph, ds, splits, seed=4, on=on), per_user=True)
        monkeypatch.setattr(E, "RANK_BLOCK", 1)
        single = E.format_report(E.evaluate(m, graph, ds, splits, seed=4, on=on), per_user=True)
        monkeypatch.undo()
        assert single == default


def reference_rview(m, h_item_star, rows):
    """R-view scores in float64 NumPy, one outfit at a time."""
    W = {k: m.params[k].data.astype(np.float64) for k in (
        "view_attn_in", "view_attn_out", "view_compat_in", "view_compat_out")}
    slope = m.dims.leaky_slope

    def leaky(x):
        return np.where(x >= 0, x, slope * x)

    out = []
    for r in rows:
        O = h_item_star[np.asarray(r)].astype(np.float64)
        logits = W["view_attn_out"] @ leaky(W["view_attn_in"] @ O.T)
        A = np.exp(logits - logits.max(axis=1, keepdims=True))
        A /= A.sum(axis=1, keepdims=True)
        C = np.tanh(W["view_compat_out"] @ leaky(W["view_compat_in"] @ O.T))
        out.append((A * C).sum(axis=1).mean())
    return np.array(out)


def auc_lists(ds, prop, seed):
    """Positives and the category-template negatives ``compat_auc`` draws."""
    pools = category_pools(ds, ds.items)
    outfit_sets = {frozenset(v) for v in ds.outfits.values()}
    pos = [prop.graph.outfit_items[o] for o in sorted(ds.outfits)]
    neg = [category_template_negative(ds, o, pools, outfit_sets, substream(seed, "auc", o))
           for o in sorted(ds.outfits)]
    return pos, [n for n in neg if n is not None]


def fltb_trials(ds, splits, seed, trials_per_outfit=1):
    """(outfit, masked index, candidates, true item) in ``fltb_accuracy``'s draw order."""
    pool = sorted(splits.compat_negative_pool)
    pools = category_pools(ds, pool)
    out = []
    for oid in E.fltb_test_outfits(ds, splits):
        for trial in range(trials_per_outfit):
            rng = substream(seed, "fltb", oid, trial)
            masked = int(rng.integers(len(ds.outfits[oid])))
            out.append((oid, masked, *E._fltb_candidates(ds, pool, pools, oid, masked, rng)))
    return out


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_batched_scores_match_single_outfit_scores(dtype):
    ds, splits, graph, m, prop = world(5, dtype=dtype)
    pos, neg = auc_lists(ds, prop, seed=5)
    fltb_lists = [
        items
        for oid, masked, candidates, _ in fltb_trials(ds, splits, seed=5)
        for items in E._substituted(oid, masked, candidates, graph)
    ]
    for lists in (pos, neg, fltb_lists):
        batched = score_item_lists(lists, prop, m)
        single = np.array([score_items(items, prop, m) for items in lists])
        rows = [[graph.item_index[i] for i in items] for items in lists]
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-6)
        np.testing.assert_allclose(batched, reference_rview(m, prop.h_item_star, rows),
                                   rtol=0, atol=1e-6)


def test_compat_auc_and_fltb_equal_per_outfit_loops():
    ds, splits, graph, m, prop = world(6)
    pos, neg = auc_lists(ds, prop, seed=6)
    single_auc = E.auc([score_items(p, prop, m) for p in pos],
                       [score_items(n, prop, m) for n in neg])
    assert E.compat_auc(ds, prop, m, seed=6) == single_auc

    trials = fltb_trials(ds, splits, seed=6, trials_per_outfit=3)
    correct = 0
    for oid, masked, candidates, true_item in trials:
        scores = [score_items(items, prop, m)
                  for items in E._substituted(oid, masked, candidates, graph)]
        correct += candidates[int(np.argmax(scores))] == true_item
    got = E.fltb_accuracy(ds, splits, prop, m, seed=6, trials_per_outfit=3)
    assert got == (correct / len(trials), len(trials))


def test_batched_fltb_ties_take_lowest_slot():
    ds, splits, graph, m, prop = world(7)
    m.params["view_compat_out"].data[:] = 0.0  # every score is exactly zero
    trials = fltb_trials(ds, splits, seed=7, trials_per_outfit=4)
    in_slot_zero = sum(candidates[0] == true_item for _, _, candidates, true_item in trials)
    got = E.fltb_accuracy(ds, splits, prop, m, seed=7, trials_per_outfit=4)
    assert got == (in_slot_zero / len(trials), len(trials))


def test_item_features_stacked_once(monkeypatch):
    ds, splits, graph, m, _ = world(8)
    # A copy with nothing stacked yet, its items in descending id order.
    ds = dataclasses.replace(ds, items=dict(reversed(ds.items.items())))
    calls = []
    stack = dataio.feature_matrices

    def counting(*args):
        calls.append(args)
        return stack(*args)

    monkeypatch.setattr(dataio, "feature_matrices", counting)
    first = forward(graph, ds, m)
    second = forward(graph, ds, m)
    assert len(calls) == 1
    np.testing.assert_array_equal(first.h_item_star, second.h_item_star)
    for cached, fresh in zip(ds.item_features, stack(ds, [int(i) for i in graph.item_ids])):
        np.testing.assert_array_equal(cached, fresh)


def test_loaded_features_are_held_once(tmp_path):
    ds, *_ = world(9)
    paths = dataio.write_dataset(ds, tmp_path)
    loaded = dataio.load_dataset(
        paths["interactions"], paths["outfits"], paths["items"], paths["visual"], paths["textual"]
    )
    X_v, X_t, cats = loaded.item_features
    for k, iid in enumerate(sorted(loaded.items)):
        assert np.shares_memory(X_v[k], loaded.items[iid].visual)
        assert np.shares_memory(X_t[k], loaded.items[iid].textual)
        np.testing.assert_array_equal(X_v[k], ds.items[iid].visual)
        assert cats[k] == ds.items[iid].category
