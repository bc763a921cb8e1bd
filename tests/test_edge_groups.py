"""The weighted neighbour sum over in-degree groups: ``edge_sum`` against an
``np.add.at`` reference and by central differences, on a small level and on
one whose in-degrees span 1-40 beside empty targets; the layout's
invariants, when the layout is built, and the tape size of a training batch."""

import math

import numpy as np
import pytest

from fashiongraph import autodiff as ad
from fashiongraph import graph as graph_module
from fashiongraph.autodiff import Tensor
from fashiongraph.dataio import SyntheticConfig, generate_synthetic, split_interactions
from fashiongraph.graph import LevelEdges, build_fashion_graph
from fashiongraph.propagate import forward
from fashiongraph.rng import substream
from fashiongraph.train import TrainConfig, batch_loss, make_model, sample_negatives

from test_edge_ops import N_SRC as SMALL_N_SRC, N_TGT, SRC, TGT, TOLERANCES as SMALL_TOLERANCES

N_SRC = 37


def wide_level(seed=0):
    """Target-sorted edges: in-degrees 1..40 (some repeated), five empty
    targets, and sources drawn in no order, repeats allowed."""
    rng = np.random.default_rng(seed)
    degrees = np.concatenate([np.arange(1, 41), rng.integers(1, 41, size=15), np.zeros(5, int)])
    degrees = rng.permutation(degrees)
    tgt = np.repeat(np.arange(len(degrees)), degrees)
    src = rng.integers(0, N_SRC, size=len(tgt))
    return tgt, src, len(degrees)


def ref_edge_sum(alpha, x, tgt, src, n_tgt):
    out = np.zeros((alpha.shape[0], n_tgt, x.shape[1]), dtype=np.float64)
    np.add.at(out.transpose(1, 0, 2), tgt, (alpha[:, :, None] * x[src]).transpose(1, 0, 2))
    return out


# Each fixture level as (tgt, src, n_tgt, n_src) and its tolerances: the
# small level of ``test_edge_ops`` (in-degrees 3, 0, 1, 2, 0, 1) and the wide one.
LEVELS = {
    "small": ((TGT, SRC, N_TGT, SMALL_N_SRC), SMALL_TOLERANCES),
    "wide": ((*wide_level(), N_SRC),
             {np.float64: dict(rtol=1e-12, atol=1e-12), np.float32: dict(rtol=1e-5, atol=1e-5)}),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", LEVELS)
def test_edge_sum_and_gradients_match_add_at(name, dtype):
    (tgt, src, n_tgt, n_src), tolerances = LEVELS[name]
    tol = tolerances[dtype]
    edges = LevelEdges(tgt, src, n_tgt)
    rng = np.random.default_rng(1)
    alpha = Tensor(rng.normal(size=(4, len(tgt))).astype(dtype), requires_grad=True)
    x = Tensor(rng.normal(size=(n_src, 6)).astype(dtype), requires_grad=True)
    out = ad.edge_sum(alpha, x, edges)
    assert out.data.dtype == dtype
    a64, x64 = alpha.data.astype(np.float64), x.data.astype(np.float64)
    np.testing.assert_allclose(out.data, ref_edge_sum(a64, x64, tgt, src, n_tgt), **tol)
    degree = np.bincount(tgt, minlength=n_tgt)
    assert (degree == 0).sum() == {"small": 2, "wide": 5}[name]
    assert np.all(out.data[:, degree == 0] == 0.0)  # empty targets are exactly zero
    # a single-edge target is its weighted source, exactly
    single = np.flatnonzero(degree[tgt] == 1)
    assert len(single) and np.array_equal(out.data[:, tgt[single]],
                                          alpha.data[:, single, None] * x.data[src[single]])

    g = rng.normal(size=out.shape).astype(dtype)
    out.backward(g)
    g_edges = g.astype(np.float64)[:, tgt]  # (heads, n_edges, d)
    assert alpha.grad.dtype == dtype and x.grad.dtype == dtype
    np.testing.assert_allclose(alpha.grad, np.einsum("hed,ed->he", g_edges, x64[src]), **tol)
    expected_gx = np.zeros_like(x64)
    np.add.at(expected_gx, src, np.einsum("he,hed->ed", a64, g_edges))
    np.testing.assert_allclose(x.grad, expected_gx, **tol)


@pytest.mark.parametrize("name, sampled", [("small", None), ("wide", 150)])
def test_edge_sum_central_differences(name, sampled):
    # Every entry of both arrays, or ``sampled`` entries of the weights and
    # every entry of the sources.
    (tgt, src, n_tgt, n_src), _ = LEVELS[name]
    edges = LevelEdges(tgt, src, n_tgt)
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=(2, len(tgt))), rng.normal(size=(n_src, 3))]
    weights = rng.normal(size=(2, n_tgt, 3))

    def value():
        with ad.no_grad():
            out = ad.edge_sum(Tensor(arrays[0]), Tensor(arrays[1]), edges)
        return float((out.data * weights).sum())

    alpha, x = (Tensor(a, requires_grad=True) for a in arrays)
    ad.sum_(ad.edge_sum(alpha, x, edges) * weights).backward()
    checked = [(0, k) for k in np.ndindex(arrays[0].shape)]
    if sampled is not None:
        checked = [checked[k] for k in rng.choice(len(checked), sampled, replace=False)]
    checked += [(1, k) for k in np.ndindex(arrays[1].shape)]
    eps = 1e-6
    for which, k in checked:
        array, analytic = arrays[which], (alpha.grad, x.grad)[which]
        orig = array[k]
        array[k] = orig + eps
        plus = value()
        array[k] = orig - eps
        minus = value()
        array[k] = orig
        assert abs((plus - minus) / (2 * eps) - analytic[k]) < 1e-6


def check_groups(groups, perm, keys, ids):
    """``groups`` tile ``perm``; each run of a group has one key, ``ids``."""
    assert np.array_equal(np.sort(perm), np.arange(len(perm)))
    offset, row = 0, 0
    lengths = []
    for off, n, k in groups:
        assert off == offset and n > 0 and k > 0
        runs = keys[perm[off:off + n * k]].reshape(n, k)
        assert np.all(runs == ids[row:row + n, None])
        offset, row = off + n * k, row + n
        lengths.append(k)
    assert offset == len(perm) and row == len(ids)
    assert lengths == sorted(set(lengths))  # distinct lengths, shortest first
    assert len(groups) <= math.sqrt(2 * len(perm))


@pytest.mark.parametrize("seed", [0, 4])
def test_layout_invariants(seed):
    tgt, src, n_tgt = wide_level(seed)
    layout = LevelEdges(tgt, src, n_tgt).layout
    check_groups(layout.tgt.groups, layout.tgt.perm, tgt, layout.tgt.ids)
    assert sorted(layout.tgt.ids.tolist()) == np.unique(tgt).tolist()
    assert np.array_equal(layout.src_rows, src[layout.tgt.perm])
    # the source side indexes arrays already in target-group order
    check_groups(layout.src.groups, layout.src.perm, layout.src_rows, layout.src.ids)
    assert sorted(layout.src.ids.tolist()) == np.unique(src).tolist()


def test_layout_of_a_level_without_edges():
    edges = LevelEdges(np.zeros(0, int), np.zeros(0, int), 3)
    assert edges.layout.tgt.groups == [] and len(edges.layout.tgt.perm) == 0
    alpha = Tensor(np.zeros((2, 0)), requires_grad=True)
    x = Tensor(np.ones((4, 5)), requires_grad=True)
    out = ad.edge_sum(alpha, x, edges)
    assert out.shape == (2, 3, 5) and not out.data.any()
    ad.sum_(out).backward()
    assert alpha.grad.shape == (2, 0) and not x.grad.any()


def test_layout_built_once_per_level_and_not_with_the_graph(monkeypatch):
    built = []

    class Counting(graph_module.EdgeLayout):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(graph_module, "EdgeLayout", Counting)
    ds = generate_synthetic(SyntheticConfig(n_users=6, n_outfits=10, n_items=20), seed=1)
    splits = split_interactions(ds, seed=1)
    graph = build_fashion_graph(ds, splits)
    assert built == []
    m = make_model(graph, ds, TrainConfig(seed=1, d=8, d_h=16))
    first = forward(graph, ds, m)
    assert len(built) == 3
    layouts = {name: level.layout for name, level in graph.levels.items()}
    second = forward(graph, ds, m)
    assert len(built) == 3
    assert all(graph.levels[name].layout is layouts[name] for name in layouts)
    assert np.array_equal(first.h_user_star, second.h_user_star)


def test_tape_nodes_per_batch(grad_fixture):
    # criterion 3's batch in eval mode; with dropout, the count a traced
    # mid-train batch reports
    ds, splits, graph = grad_fixture
    cfg = TrainConfig(seed=3)
    m = make_model(graph, ds, cfg)
    batch = sample_negatives(ds, splits, seed=3)
    loss, _, _ = batch_loss(m, graph, ds, batch, cfg, mode="eval")
    assert len(ad._topo_order(loss)) == 143
    rng = substream(3, "dropout", 0, 0)
    loss, _, _ = batch_loss(m, graph, ds, batch, cfg, mode="train", rng=rng)
    assert len(ad._topo_order(loss)) == 161
