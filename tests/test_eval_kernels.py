"""Block ranking and batched R-view scoring against their per-pair and
per-outfit references, and the bulk FLTB draws against their rules."""

import dataclasses
import math
import types

import numpy as np
import pytest

import fashiongraph
import fashiongraph.dataio as dataio
import fashiongraph.evaluate as E
from fashiongraph.dataio import (
    SyntheticConfig,
    category_pools,
    generate_synthetic,
    split_interactions,
)
from fashiongraph.embed import ModelDims
from fashiongraph.graph import build_fashion_graph
from fashiongraph.propagate import forward
from fashiongraph.rng import substream
from fashiongraph.score import order_candidates, rec_score, score_items
from fashiongraph.train import TrainConfig, category_template_negative, make_model

from conftest import score_lists


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
        o: rec_score(h_u, prop.h_outfit_star[row])
        for row, o in enumerate(graph.outfit_ids.tolist())
        if o not in excluded
    }
    return order_candidates(scores.keys(), scores)


def test_package_attribute_is_the_evaluate_module():
    assert isinstance(fashiongraph.evaluate, types.ModuleType)
    assert fashiongraph.evaluate is E
    assert callable(fashiongraph.evaluate.evaluate)


def test_names_the_benchmark_reads_outside_its_tracer_targets_exist(tiny_ds):
    # perfbench reads these by name: its tests call E.score_items and
    # E.rank_outfits, its tracer counts graph.item_edges.tgt, graph.uo_tgt
    # and graph.oi_tgt, bench.py passes ModelDims.linear_compat to its own
    # R-view check, and its checks map ids to rows through graph.user_index
    # and graph.item_index.
    assert callable(E.score_items) and callable(E.rank_outfits)
    graph = build_fashion_graph(tiny_ds)
    assert len(graph.item_edges.tgt) == len(graph.levels["item_item"].src) > 0
    assert graph.uo_tgt is graph.levels["outfit_user"].tgt
    assert graph.oi_tgt is graph.levels["item_outfit"].tgt
    assert graph.user_index == {u: graph.rows("user", [u])[0] for u in tiny_ds.users}
    assert graph.item_index == {i: graph.rows("item", [i])[0] for i in tiny_ds.items}
    assert ModelDims().linear_compat is False


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
            got = {u: r.tolist() for u, r, _ in E.ranked_outfits(
                users, p, graph, splits, exclude_val=exclude_val, k=graph.n_outfits)}
            assert list(got) == users
            for u in users:
                assert got[u] == reference_ranking(u, p, graph, splits, exclude_val)
        assert len(E.rank_outfits(crowded, p, graph, splits)) < 10
        for u in users:
            assert E.rank_outfits(u, p, graph, splits) == reference_ranking(u, p, graph, splits)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_top_k_is_the_head_of_the_full_ranking(seed):
    ds, splits, graph, m, prop = world(seed)
    rng = np.random.default_rng(seed)
    # The integer-embedding world of test_block_ranking_equals_per_pair_order:
    # exact ties everywhere, the cut at k among them.
    h_user = rng.integers(-2, 3, size=prop.h_user_star.shape).astype(np.float64)
    h_outfit = rng.integers(-2, 3, size=prop.h_outfit_star.shape).astype(np.float64)
    h_outfit[1::3] = h_outfit[0:-1:3][: len(h_outfit[1::3])]
    crowded = int(graph.user_ids[5])
    train = dict(splits.train)
    train[crowded] = frozenset(int(o) for o in graph.outfit_ids[:-4]) - splits.val.get(
        crowded, frozenset()) - splits.test.get(crowded, frozenset())
    splits = dataclasses.replace(splits, train=train)
    users = [int(u) for u in graph.user_ids]
    tied_at_cut = 0
    for h_u, h_o in ((prop.h_user_star, prop.h_outfit_star), (h_user, h_outfit)):
        p = dataclasses.replace(prop, h_user_star=h_u, h_outfit_star=h_o)
        for exclude_val in (True, False):
            full = {u: (r, s) for u, r, s in E.ranked_outfits(
                users, p, graph, splits, exclude_val=exclude_val, k=graph.n_outfits)}
            assert len(full[crowded][0]) < 10
            longest = max(len(r) for r, _ in full.values())
            for k in (1, 10, longest, longest + 3):
                top = list(E.ranked_outfits(users, p, graph, splits, exclude_val, k=k))
                assert [u for u, _, _ in top] == users
                for u, ranked, scores in top:
                    assert ranked.tolist() == full[u][0][:k].tolist()
                    assert scores.tolist() == full[u][1][:k].tolist()
            tied_at_cut += sum(len(s) > 10 and s[9] == s[10] for _, s in full.values())
    assert tied_at_cut > 0


def non_finite_world(seed):
    """World ``seed`` with small integer embeddings (exact ties) and NaN,
    +inf and -inf entries: a NaN user row, a user row whose every score is
    +-inf or NaN, a user with one -inf coordinate, outfit columns scoring
    +-inf or NaN for every user, a NaN outfit column, and a user left with
    fewer than 10 candidates."""
    ds, splits, graph, m, prop = world(seed)
    rng = np.random.default_rng(seed)
    h_user = rng.integers(-2, 3, size=prop.h_user_star.shape).astype(np.float64)
    h_outfit = rng.integers(-2, 3, size=prop.h_outfit_star.shape).astype(np.float64)
    h_outfit[1::3] = h_outfit[0:-1:3][: len(h_outfit[1::3])]
    h_user[4] = np.nan
    h_user[9] = 0.0
    h_user[9, 0] = np.inf
    h_user[13, 2] = -np.inf
    h_outfit[2] = 0.0
    h_outfit[2, 0] = np.inf
    h_outfit[7] = 0.0
    h_outfit[7, 1] = -np.inf
    h_outfit[11] = np.nan
    crowded = int(graph.user_ids[5])
    train = dict(splits.train)
    train[crowded] = frozenset(int(o) for o in graph.outfit_ids[:-4]) - splits.val.get(
        crowded, frozenset()) - splits.test.get(crowded, frozenset())
    splits = dataclasses.replace(splits, train=train)
    return graph, splits, dataclasses.replace(prop, h_user_star=h_user, h_outfit_star=h_outfit)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_block_top_k_is_the_stable_sort_head_with_non_finite_scores(monkeypatch, seed, block):
    graph, splits, prop = non_finite_world(seed)
    monkeypatch.setattr(E, "RANK_BLOCK", block)
    users = [int(u) for u in graph.user_ids]
    n = len(graph.outfit_ids)
    for exclude_val in (True, False):
        for k in (1, 4, 10, n, n + 3):
            got = list(E.ranked_outfits(users, prop, graph, splits, exclude_val, k=k))
            assert [u for u, _, _ in got] == users
            for row, (u, ranked, scores) in enumerate(got):
                start = row - row % block
                block_scores = prop.h_user_star[start : start + block] @ prop.h_outfit_star.T
                excluded = set(splits.train.get(u, ()))
                if exclude_val:
                    excluded |= set(splits.val.get(u, ()))
                candidates = np.array(
                    [c for c, o in enumerate(graph.outfit_ids.tolist()) if o not in excluded])
                s = block_scores[row - start, candidates]
                head = candidates[np.argsort(-s, kind="stable")[:k]]
                assert ranked.tolist() == graph.outfit_ids[head].tolist(), (u, k)
                np.testing.assert_array_equal(scores, block_scores[row - start, head])


@pytest.mark.parametrize("k", [1, 3, 10, 40])
def test_block_metrics_equal_topk_metrics_row_by_row(k):
    rng = np.random.default_rng(k)
    rows = 300
    lengths = rng.integers(0, k + 1, size=rows)  # ranked lists up to k long
    hits = (rng.random((rows, k)) < 0.3) & (np.arange(k) < lengths[:, None])
    n_relevant = np.count_nonzero(hits, axis=1) + rng.integers(0, 4, size=rows)
    n_relevant = np.maximum(n_relevant, 1)
    got = np.stack(E.block_metrics(hits, n_relevant, k), axis=1)
    for row in range(rows):
        ranked = list(range(lengths[row]))
        relevant = {r for r in ranked if hits[row, r]}
        relevant |= set(range(-1, -1 - (n_relevant[row] - len(relevant)), -1))
        assert tuple(got[row].tolist()) == E.topk_metrics(ranked, relevant, k)
        # NDCG summed one discount at a time, in rank order.
        dcg = sum(1.0 / math.log2(r + 1) for r in range(1, k + 1) if hits[row, r - 1])
        ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(n_relevant[row], k) + 1))
        assert got[row, 3] == dcg / ideal


def test_top_k_with_nan_scores_is_the_head_of_the_stable_sort():
    rng = np.random.default_rng(11)
    values = np.array([np.nan, np.inf, -np.inf, -0.0])
    for _ in range(100):
        shape = (rng.integers(1, 8), rng.integers(1, 30))
        negated = rng.integers(-3, 4, size=shape).astype(np.float64)  # exact ties
        special = rng.random(shape) < rng.choice([0.0, 0.1, 0.4])
        negated[special] = rng.choice(values, size=np.count_nonzero(special))
        candidate = rng.random(shape) < rng.choice([0.3, 0.8, 1.0])
        negated[~candidate] = np.inf
        for k in range(1, shape[1] + 3):
            got = E._top_k(negated, candidate, k)
            assert got.shape == (shape[0], k)
            for row, columns in zip(range(shape[0]), got):
                candidates = np.flatnonzero(candidate[row])
                expected = candidates[np.argsort(negated[row, candidates], kind="stable")[:k]]
                assert columns[: len(expected)].tolist() == expected.tolist(), (row, k)
                assert (columns[len(expected) :] == -1).all()


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
    pos = [ds.outfits[o] for o in sorted(ds.outfits)]
    rng = substream(seed, "auc")
    neg = [category_template_negative(ds, o, rng) for o in sorted(ds.outfits)]
    return pos, [n for n in neg if n is not None]


def fltb_trials(ds, splits, graph, seed, trials_per_outfit=1):
    """``fltb_accuracy``'s trials, each with its four item lists: the outfit
    with each candidate in turn in the masked position."""
    trials = E.draw_fltb_trials(
        ds, splits, graph, E.fltb_test_outfits(ds, splits), seed, trials_per_outfit
    )
    out = []
    for oid, masked, candidates, slot in zip(*trials):
        members = ds.outfits[int(oid)]
        lists = [[*members[:masked], int(c), *members[masked + 1 :]] for c in candidates]
        out.append((lists, int(slot)))
    return out


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_batched_scores_match_single_outfit_scores(dtype):
    ds, splits, graph, m, prop = world(5, dtype=dtype)
    pos, neg = auc_lists(ds, prop, seed=5)
    fltb_lists = [items for lists, _ in fltb_trials(ds, splits, graph, seed=5) for items in lists]
    for lists in (pos, neg, fltb_lists):
        batched = score_lists(lists, prop, m)
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

    trials = fltb_trials(ds, splits, graph, seed=6, trials_per_outfit=3)
    correct = 0
    for lists, slot in trials:
        correct += int(np.argmax([score_items(items, prop, m) for items in lists])) == slot
    got = E.fltb_accuracy(ds, splits, prop, m, seed=6, trials_per_outfit=3)
    assert got == (correct / len(trials), len(trials))


def test_batched_fltb_ties_take_lowest_slot():
    ds, splits, graph, m, prop = world(7)
    m.params["view_compat_out"].data[:] = 0.0  # every score is exactly zero
    trials = fltb_trials(ds, splits, graph, seed=7, trials_per_outfit=4)
    in_slot_zero = sum(slot == 0 for _, slot in trials)
    got = E.fltb_accuracy(ds, splits, prop, m, seed=7, trials_per_outfit=4)
    assert got == (in_slot_zero / len(trials), len(trials))



@pytest.mark.parametrize("n_outfits", [30, 120])
def test_evaluation_takes_one_substream_per_metric(monkeypatch, n_outfits):
    ds, splits, graph, m, prop = world(10, n_outfits=n_outfits)
    paths = []

    def counting(seed, *path):
        paths.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(E, "substream", counting)
    report = E.evaluate(m, graph, ds, splits, seed=10, prop=prop)
    assert report.auc is not None and report.n_fltb_trials > 0
    assert sorted(paths) == [("auc",), ("fltb",)]


def test_template_negatives_pass_through_the_module_global(monkeypatch):
    # A caller can read every AUC negative off ``E.category_template_negative``:
    # one call per stored outfit, in sorted order, scoring to ``compat_auc``.
    ds, splits, graph, m, prop = world(11)
    sampler = E.category_template_negative
    seen, negatives = [], []

    def capture(ds, outfit_id, *args, **kwargs):
        negative = sampler(ds, outfit_id, *args, **kwargs)
        seen.append(outfit_id)
        if negative is not None:
            negatives.append(negative)
        return negative

    monkeypatch.setattr(E, "category_template_negative", capture)
    got = E.compat_auc(ds, prop, m, seed=11)
    assert seen == sorted(ds.outfits)
    assert negatives
    pos = score_lists([ds.outfits[o] for o in sorted(ds.outfits)], prop, m)
    assert got == E.auc(pos, score_lists(negatives, prop, m))

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


def draws(seed, trials_per_outfit=1, pool_size=None, **synth):
    """World ``seed``'s FLTB trials over every outfit, optionally with only
    the first ``pool_size`` items of the sorted negative pool."""
    ds, splits, graph, _, _ = world(seed, **synth)
    if pool_size is not None:
        pool = frozenset(sorted(splits.compat_negative_pool)[:pool_size])
        splits = dataclasses.replace(splits, compat_negative_pool=pool)
    trials = E.draw_fltb_trials(ds, splits, graph, sorted(ds.outfits), seed, trials_per_outfit)
    return ds, splits, trials


# Category pools of 18-22 items (the bulk draw), of 2-3 items as on desk
# data (mostly the trial-by-trial fallback), and a pool too short to fill a
# trial.
FLTB_WORLDS = [
    dict(n_items=200, n_categories=4),
    dict(n_items=60, n_outfits=40, n_users=20),
    dict(pool_size=2),
]


@pytest.mark.parametrize("synth", FLTB_WORLDS)
def test_fltb_draws_repeat_under_a_seed(synth):
    first, second, other = (draws(s, 3, **synth)[2] for s in (2, 2, 3))
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert not np.array_equal(first.candidates, other.candidates)


@pytest.mark.parametrize("synth", FLTB_WORLDS)
def test_fltb_distractors_are_distinct_non_members(synth):
    ds, _, trials = draws(4, 5, **synth)
    assert trials.candidates.shape == (5 * len(ds.outfits), 4)
    for oid, masked, candidates, slot in zip(*trials):
        members = ds.outfits[int(oid)]
        assert candidates[slot] == members[masked]
        distractors = [int(c) for k, c in enumerate(candidates) if k != slot]
        assert len(set(distractors)) == 3
        assert not set(distractors) & set(members)


@pytest.mark.parametrize("synth", FLTB_WORLDS)
def test_fltb_distractors_follow_the_pool_order(synth):
    # Three items of the masked item's category whenever the pool holds
    # three; otherwise all of them, then the rest of the pool, then any
    # item outside the outfit.
    ds, splits, trials = draws(5, 5, **synth)
    pool = splits.compat_negative_pool
    sources = set()
    for oid, masked, candidates, slot in zip(*trials):
        category = ds.items[ds.outfits[int(oid)][masked]].category
        same = {i for i in pool if ds.items[i].category == category}
        distractors = {int(c) for k, c in enumerate(candidates) if k != slot}
        if len(same) >= 3:
            assert distractors <= same
            sources.add("category")
        elif len(pool) >= 3:
            assert same <= distractors <= pool
            sources.add("pool")
        else:
            assert pool <= distractors
            sources.add("outside")
    expected = {0: {"category"}, 1: {"category", "pool"}, 2: {"outside"}}
    assert sources == expected[FLTB_WORLDS.index(synth)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fltb_bulk_distractors_equal_list_pops(seed):
    # The bulk draw maps its integers k as popping from a list does: the
    # first pick takes position k0, the second the k1-th of the rest, ...
    ds, splits, trials = draws(seed, 2, n_items=200, n_categories=4)
    pools = category_pools(ds, sorted(splits.compat_negative_pool))
    sizes = np.array([len(ds.outfits[int(o)]) for o in trials.outfits])
    rng = substream(seed, "fltb")
    assert np.array_equal(rng.integers(sizes), trials.masked)
    true_items = [ds.outfits[int(o)][k] for o, k in zip(trials.outfits, trials.masked)]
    options = [pools[ds.items[i].category].tolist() for i in true_items]
    assert min(map(len, options)) >= 3  # every trial takes the bulk draw
    picks = rng.integers(np.array([[len(o), len(o) - 1, len(o) - 2] for o in options]))
    order = rng.permuted(np.tile(np.arange(4), (len(options), 1)), axis=1)
    for t, (opts, k) in enumerate(zip(options, picks)):
        expected = [true_items[t], *(opts.pop(int(j)) for j in k)]
        assert trials.candidates[t].tolist() == [expected[j] for j in order[t]]
        assert trials.true_slot[t] == order[t].tolist().index(0)


def test_fltb_true_slot_and_bulk_picks_are_uniform():
    # 60 outfits x 100 trials: each slot count is Binomial(6000, 1/4), sd
    # 33.5; each pool item's pick count is near 3/n of its category's trials.
    ds, splits, trials = draws(7, 100, n_items=200, n_categories=4)
    n = len(trials.true_slot)
    counts = np.bincount(trials.true_slot, minlength=4)
    assert np.all(np.abs(counts - n / 4) < 4 * np.sqrt(n * 0.25 * 0.75)), counts
    picked = {}
    for candidates, slot in zip(trials.candidates, trials.true_slot):
        for k, c in enumerate(candidates.tolist()):
            if k != slot:
                picked[c] = picked.get(c, 0) + 1
    for items in category_pools(ds, sorted(splits.compat_negative_pool)).values():
        n_trials = sum(picked.get(int(i), 0) for i in items) / 3
        p = 3 / len(items)
        for i in items:
            expected = n_trials * p
            assert abs(picked.get(int(i), 0) - expected) < 5 * np.sqrt(expected * (1 - p)), i


def test_fltb_trials_per_outfit_repeat_each_outfit_in_order():
    ds, splits, trials = draws(8, 6, n_items=200, n_categories=4)
    assert trials.outfits.tolist() == [o for o in sorted(ds.outfits) for _ in range(6)]
    assert len(set(trials.masked.tolist())) > 1
    graph = build_fashion_graph(ds, splits)
    assert E.draw_fltb_trials(ds, splits, graph, [], 8).candidates.shape == (0, 4)
    with pytest.raises(ValueError, match="trials per outfit"):
        E.draw_fltb_trials(ds, splits, graph, [0], 8, trials_per_outfit=-1)
