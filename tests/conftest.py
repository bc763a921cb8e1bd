import numpy as np
import pytest

import fashiongraph.autodiff as ad
from fashiongraph.autodiff import Tensor
from fashiongraph.dataio import Dataset, Item, SyntheticConfig, generate_synthetic, split_interactions
from fashiongraph.graph import build_fashion_graph
from fashiongraph.propagate import _propagate_level_tensor
from fashiongraph.score import score_rows
from fashiongraph.train import TrainConfig, make_model


def propagate_level(m, level, h_tgt, h_src, edges):
    """``_propagate_level_tensor`` on plain arrays without a tape: (updated
    targets, per-head attention).  One array as both sides stays one tensor,
    as ``forward`` passes the item level."""
    with ad.no_grad():
        t = Tensor(h_tgt)
        s = t if h_src is h_tgt else Tensor(h_src)
        out, alpha = _propagate_level_tensor(m, level, t, s, edges)
    return out.data, alpha.data


def score_lists(lists, prop, m):
    """Compatibility scores of lists of item ids, in one ``score_rows`` call."""
    return score_rows(*prop.graph.list_rows("item", lists), prop, m)


def make_item(category: int, d_v: int = 6, d_t: int = 4, seed: int = 0) -> Item:
    rng = np.random.default_rng(seed)
    return Item(
        category,
        rng.normal(size=d_v).astype(np.float32),
        rng.normal(size=d_t).astype(np.float32),
    )


def tiny_dataset() -> Dataset:
    """2 users, 3 outfits, 5 items, 4 interactions."""
    items = {i: make_item(category=i % 3, seed=i) for i in range(5)}
    return Dataset(
        users=[10, 11],
        outfits={100: [0, 1], 101: [1, 2, 3], 102: [3, 4]},
        items=items,
        interactions=frozenset({(10, 100), (10, 101), (11, 101), (11, 102)}),
        categories=["bag", "shirt", "shoes"],
    )


@pytest.fixture
def tiny_ds() -> Dataset:
    return tiny_dataset()


@pytest.fixture(scope="session")
def grad_fixture():
    """<= 5 users, <= 8 outfits, <= 12 items; used by gradient checks."""
    scfg = SyntheticConfig(
        n_users=4,
        n_outfits=6,
        n_items=12,
        n_categories=3,
        n_clusters=2,
        d_v=7,
        d_t=5,
        items_per_outfit=3,
        interactions_per_user=4,
        unused_item_fraction=0.15,
    )
    ds = generate_synthetic(scfg, seed=3)
    splits = split_interactions(ds, seed=3)
    graph = build_fashion_graph(ds, splits)
    return ds, splits, graph


@pytest.fixture(scope="session")
def desk_run():
    """Small trained-model bundle shared by evaluation tests."""
    ds = generate_synthetic(SyntheticConfig(), seed=7)
    splits = split_interactions(ds, seed=7)
    graph = build_fashion_graph(ds, splits)
    cfg = TrainConfig(seed=7)
    model = make_model(graph, ds, cfg)
    return ds, splits, graph, cfg, model
