"""The one-node L2 and affine ops against central differences; the folded
attention logits against a per-edge reference; the tape size of the
gradient-check batch; the one-call compatibility-negative draw against a
per-slot ``rng.choice`` reference; and truncated checkpoints at the CLI."""

import numpy as np
import pytest

from fashiongraph import autodiff as ad
from fashiongraph.autodiff import Tensor
from fashiongraph.cli import main, make_run_config, parse_config_file, prepare
from fashiongraph.dataio import Dataset, SyntheticConfig, category_pools, generate_synthetic
from fashiongraph.embed import ModelDims, init_model, save_checkpoint
from fashiongraph.graph import LevelEdges
from fashiongraph.propagate import COOCCURRENCE_EPS, attention_logits
from fashiongraph.train import (
    TEMPLATE_ATTEMPTS,
    TrainConfig,
    batch_loss,
    category_template_negative,
    make_model,
    sample_negatives,
)

from conftest import make_item


def central_difference(f, arrays, index, eps=1e-6):
    base = arrays[index]
    grad = np.zeros_like(base)
    for k in range(base.size):
        idx = np.unravel_index(k, base.shape)
        orig = base[idx]
        base[idx] = orig + eps
        plus = f()
        base[idx] = orig - eps
        minus = f()
        base[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
    return grad


def check_gradients(build, arrays, requires_grad):
    """Backward gradients of the scalar ``build(tensors)`` against central
    differences within 1e-6; an input without ``requires_grad`` gets none."""
    tensors = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires_grad)]
    build(tensors).backward()

    def value():
        with ad.no_grad():
            return build([Tensor(a) for a in arrays]).item()

    for i, t in enumerate(tensors):
        if requires_grad[i]:
            expected = central_difference(value, arrays, i)
            np.testing.assert_allclose(t.grad, expected, atol=1e-6, err_msg=f"input {i}")
        else:
            assert t.grad is None


def test_sum_squares_gradient():
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=s) for s in [(3, 4), (5,), (2, 2, 3), ()]]
    weights = Tensor(np.asarray(0.7))
    check_gradients(lambda ts: weights * ad.sum_squares(ts), arrays, [True, True, False, True])
    value = ad.sum_squares([Tensor(a) for a in arrays]).item()
    assert value == pytest.approx(sum(float((a * a).sum()) for a in arrays), rel=1e-14)


@pytest.mark.parametrize("x_grad", [True, False])
def test_linear_gradient(x_grad):
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), rng.normal(size=4)]
    probe = rng.normal(size=(5, 4))
    check_gradients(lambda ts: ad.sum_(ad.linear(*ts) * probe), arrays, [x_grad, True, True])
    x, W, b = arrays
    out = ad.linear(Tensor(x, requires_grad=x_grad), Tensor(W, requires_grad=True), Tensor(b))
    np.testing.assert_array_equal(out.data, x @ W.T + b)
    gx, _, gb = out._backward(probe)
    assert gb is None and (gx is not None) == x_grad  # constants get no gradient computed


def test_linear_rejects_bad_ranks():
    with pytest.raises(ValueError, match="linear"):
        ad.linear(Tensor(np.ones(3)), Tensor(np.ones((2, 3))), Tensor(np.ones(2)))


def test_matmul_batch_times_matrix_gradient():
    # (B, n, d) @ (d, k): the matrix's gradient also sums over the batch.
    rng = np.random.default_rng(2)
    arrays = [rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))]
    probe = rng.normal(size=(3, 4, 2))
    check_gradients(lambda ts: ad.sum_(ad.matmul(*ts) * probe), arrays, [True, True])


def reference_logits(m, level, h_tgt, h_src, tgt, src, bias=None):
    """leaky(a_k . [W_k h_t || W_k h_s]) (+ ln(w + eps)), edge by edge."""
    W, a = m.params[f"attn_w_{level}"].data, m.params[f"attn_a_{level}"].data
    out = np.zeros((m.dims.heads, len(tgt)))
    for k in range(m.dims.heads):
        for e, (t, s) in enumerate(zip(tgt, src)):
            z = a[k] @ np.concatenate([W[k] @ h_tgt[t], W[k] @ h_src[s]])
            out[k, e] = z if z >= 0 else m.dims.leaky_slope * z
            if bias is not None:
                out[k, e] += np.log(bias[e] + COOCCURRENCE_EPS)
    return out


@pytest.mark.parametrize("shared", [True, False])
def test_folded_attention_logits_match_per_edge_reference(shared):
    dims = ModelDims(d=8, d_v=3, d_t=2, d_h=4, heads=3, r_views=2, view_hidden=4)
    m = init_model(6, 5, 2, dims, seed=4)
    rng = np.random.default_rng(5)
    n_tgt, n_src = (6, 6) if shared else (5, 7)
    tgt = np.array([0, 0, 1, 3, 3, 3, 4])
    src = np.array([2, 5, 0, 1, 4, 3, 5]) if shared else np.array([6, 0, 2, 1, 4, 3, 5])
    bias = rng.uniform(0.05, 1.0, size=len(tgt)) if shared else None
    h_tgt = rng.normal(size=(n_tgt, dims.d))
    h_src = h_tgt if shared else rng.normal(size=(n_src, dims.d))
    t = Tensor(h_tgt)
    s = t if shared else Tensor(h_src)
    got = attention_logits(m, "item_item", t, s, LevelEdges(tgt, src, n_tgt, prior=bias)).data
    expected = reference_logits(m, "item_item", h_tgt, h_src, tgt, src, bias)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_gradient_check_batch_tape_nodes(grad_fixture):
    # The batch of acceptance criterion 3: 242 nodes before the one-node L2
    # and affine ops and the folded attention vectors, 156 before the R-view
    # maps were computed once per item for positives and negatives together.
    ds, splits, graph = grad_fixture
    cfg = TrainConfig(seed=3)
    m = make_model(graph, ds, cfg)
    batch = sample_negatives(ds, splits, seed=3)
    loss, _, _ = batch_loss(m, graph, ds, batch, cfg, mode="eval")
    assert len(ad._topo_order(loss)) == 143


def choice_reference(ds, outfit_id, by_category, outfit_sets, rng):
    """``category_template_negative`` with one ``rng.choice`` per slot."""
    template = [ds.items[i].category for i in ds.outfits[outfit_id]]
    for _ in range(TEMPLATE_ATTEMPTS):
        candidate = tuple(int(rng.choice(by_category[cat])) for cat in template)
        if len(set(candidate)) != len(candidate):
            continue
        if frozenset(candidate) not in outfit_sets:
            return candidate
    return None


def test_template_negative_matches_per_slot_choice(grad_fixture):
    # Every category-template combination of this one is a stored outfit.
    closed = Dataset(
        users=[1], outfits={0: [0, 1], 1: [2, 1]},
        items={i: make_item(c, seed=i) for i, c in enumerate([0, 1, 0])},
        interactions=frozenset({(1, 0)}), categories=["a", "b"],
    )
    datasets = [closed, grad_fixture[0]] + [
        generate_synthetic(SyntheticConfig(), seed=seed) for seed in (7, 11)
    ]
    outcomes = set()
    for ds in datasets:
        pools, outfit_sets = ds.items_by_category, ds.outfit_sets
        for seed in range(3):
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for o in sorted(ds.outfits):
                got = category_template_negative(ds, o, pools, outfit_sets, mine)
                assert got == choice_reference(ds, o, pools, outfit_sets, theirs)
                outcomes.add(got is None)
            assert mine.integers(2**62) == theirs.integers(2**62)
    assert outcomes == {True, False}  # found and given up on both happen


def test_dataset_pools_built_once():
    ds = generate_synthetic(SyntheticConfig(), seed=7)
    pools = ds.items_by_category
    assert pools is ds.items_by_category
    fresh = category_pools(ds, ds.items)
    assert pools.keys() == fresh.keys()
    for cat in fresh:
        np.testing.assert_array_equal(pools[cat], fresh[cat])
    assert ds.outfit_sets == {frozenset(items) for items in ds.outfits.values()}


def test_truncated_checkpoint_exits_one_at_every_offset(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode=synthetic\nseed=1\ndtype=float32\nsynth_users=3\nsynth_outfits=4\n"
        "synth_items=8\nsynth_categories=2\nsynth_dv=1\nsynth_dt=1\n"
        "synth_items_per_outfit=2\nsynth_interactions_per_user=2\n"
        "d=2\nd_h=1\nheads=1\nr_views=1\nview_hidden=1\n"
    )
    rc = make_run_config(parse_config_file(cfg), {})
    ds, _, graph = prepare(rc)
    m = make_model(graph, ds, rc.train_config())
    whole = tmp_path / "whole.ckpt"
    save_checkpoint(m, whole)
    argv = ["evaluate", "--config", str(cfg), "--checkpoint"]
    assert main(argv + [str(whole)]) == 0
    capsys.readouterr()
    blob = whole.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        assert main(argv + [str(cut)]) == 1, size
        err = capsys.readouterr().err
        assert str(cut) in err and "Traceback" not in err, (size, err)
