"""The kernels that training runs, taken one row, one level or one loss term
at a time, against the whole pass, bit for bit where the arithmetic is the
same."""

import contextlib

import numpy as np
import pytest

from fashiongraph import autodiff as ad
from fashiongraph.autodiff import Tensor
from fashiongraph.cli import main
from fashiongraph.dataio import SyntheticConfig, generate_synthetic, split_interactions
from fashiongraph.embed import ModelDims, fuse_items_tensor, init_model, read_arrays
from fashiongraph.graph import build_fashion_graph
from fashiongraph.propagate import forward
from fashiongraph.train import (
    TrainConfig,
    TripleBatch,
    batch_loss,
    bpr_rec_loss,
    make_model,
    sample_negatives,
)

from conftest import propagate_level


def small_world(seed=5):
    ds = generate_synthetic(
        SyntheticConfig(n_users=10, n_outfits=16, n_items=30, interactions_per_user=6,
                        d_v=6, d_t=4),
        seed=seed,
    )
    splits = split_interactions(ds, seed=seed)
    graph = build_fashion_graph(ds, splits)
    cfg = TrainConfig(seed=seed, d=8, d_h=5, view_hidden=4, r_views=3, heads=2)
    return ds, splits, graph, cfg, make_model(graph, ds, cfg)


@pytest.mark.parametrize("on_tape", [False, True])
def test_fuse_item_is_a_row_of_the_batch(on_tape):
    m = init_model(2, 2, 3, ModelDims(d=8, d_v=6, d_t=4, d_h=5), seed=1)
    rng = np.random.default_rng(2)
    X_v, X_t = rng.normal(size=(7, 6)), rng.normal(size=(7, 4))
    with ad.no_grad():
        batch = fuse_items_tensor(m, X_v, X_t).data
    with contextlib.nullcontext() if on_tape else ad.no_grad():
        rows = [fuse_items_tensor(m, X_v[k : k + 1], X_t[k : k + 1]) for k in range(7)]
    for k in range(7):
        assert rows[k].requires_grad == on_tape
        # BLAS may round a one-row product differently from a 7-row one.
        np.testing.assert_allclose(rows[k].data[0], batch[k], rtol=0, atol=1e-14)


def test_propagate_wrappers_chain_to_forward():
    ds, _, graph, _, m = small_world()
    prop = forward(graph, ds, m)
    with ad.no_grad():
        h_item = fuse_items_tensor(m, *ds.item_features).data
    levels = graph.levels
    h_item_star, a_ii = propagate_level(m, "item_item", h_item, h_item, levels["item_item"])
    h_outfit_star, a_io = propagate_level(
        m, "item_outfit", m.params["outfit_table"].data, h_item_star, levels["item_outfit"]
    )
    h_user_star, a_ou = propagate_level(
        m, "outfit_user", m.params["user_table"].data, h_outfit_star, levels["outfit_user"]
    )
    assert np.array_equal(h_item_star, prop.h_item_star)
    assert np.array_equal(h_outfit_star, prop.h_outfit_star)
    assert np.array_equal(h_user_star, prop.h_user_star)
    for level, alpha in (("item_item", a_ii), ("item_outfit", a_io), ("outfit_user", a_ou)):
        assert np.array_equal(alpha, prop.attention[level].alpha), level


def test_bpr_rec_loss_is_the_training_loss():
    ds, splits, graph, cfg, m = small_world()
    full = sample_negatives(ds, splits, cfg.seed, epoch=1)
    batch = TripleBatch(full.rec_users, full.rec_pos, full.rec_neg,
                        np.array([], dtype=np.int64), ())
    _, l_rec, l_comp = batch_loss(m, graph, ds, batch, cfg)
    prop = forward(graph, ds, m)
    h_u = prop.h_user_star[graph.rows("user", batch.rec_users)]
    y_pos = (h_u * prop.h_outfit_star[graph.rows("outfit", batch.rec_pos)]).sum(axis=1)
    y_neg = (h_u * prop.h_outfit_star[graph.rows("outfit", batch.rec_neg)]).sum(axis=1)
    assert l_comp == 0.0
    assert bpr_rec_loss(y_pos, y_neg).mean() == l_rec


def test_matmul_backward_skips_constant_operands():
    rng = np.random.default_rng(3)
    X, W = rng.normal(size=(5, 4)), rng.normal(size=(4, 3))
    g = rng.normal(size=(5, 3))
    out = ad.matmul(Tensor(X), Tensor(W, requires_grad=True))
    ga, gb = out._backward(g)
    assert ga is None
    np.testing.assert_array_equal(gb, X.T @ g)
    out = ad.matmul(Tensor(X, requires_grad=True), Tensor(W))
    ga, gb = out._backward(g)
    assert gb is None
    np.testing.assert_array_equal(ga, g @ W.T)


def test_best_checkpoint_takes_the_last_tied_epoch(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode=synthetic\nseed=1\nout_dir={out}\nepochs=9\n")
    assert main(["train", "--config", str(cfg)]) == 0
    rows = [line.split(",") for line in (out / "train_log.csv").read_text().splitlines()]
    hr = {int(r[0]): float(r[4]) for r in rows}
    best = max(hr.values())
    tied = [epoch for epoch, value in hr.items() if value == best]
    assert len(tied) > 1  # the maximum repeats, so the tie rule decides
    assert read_arrays(out / "best.ckpt")["meta/epoch"][0] == tied[-1]
    assert read_arrays(out / "last.ckpt")["meta/best_epoch"][0] == tied[-1]
