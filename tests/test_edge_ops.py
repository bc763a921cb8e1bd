"""The sorted-segment kernels against ``np.add.at``/``np.maximum.at``
references; which inputs of the weighted neighbour sum get a gradient (its
values and gradients are tested in ``test_edge_groups``); the per-level edge
structures; run-to-run byte identity of training; the rec-negative sampler
against an ``np.isin`` reference; and the feature-file checks at the CLI
boundary."""

import warnings

import numpy as np
import pytest

from fashiongraph import autodiff as ad
from fashiongraph.autodiff import Segments, Tensor
from fashiongraph.cli import main
from fashiongraph.dataio import (
    SyntheticConfig,
    Splits,
    generate_synthetic,
    split_interactions,
    write_dataset,
    write_features,
)
from fashiongraph.graph import LevelEdges, build_fashion_graph
from fashiongraph.rng import substream
from fashiongraph.train import (
    Adam,
    TrainConfig,
    category_template_negative,
    make_model,
    sample_negatives,
    train_epoch,
)

from conftest import tiny_dataset

# Target 0 has three edges, 1 none, 2 one, 3 two, 4 none, 5 one; sources
# come in no order and repeat.
TGT = np.array([0, 0, 0, 2, 3, 3, 5])
SRC = np.array([4, 1, 4, 0, 2, 1, 3])
N_TGT, N_SRC = 6, 5
UNSORTED = np.array([3, 0, 5, 3, 1, 0, 3, 5])  # buckets 2 and 4 stay empty

TOLERANCES = {np.float64: dict(rtol=0.0, atol=1e-12), np.float32: dict(rtol=1e-5, atol=1e-6)}
DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32])


def ref_scatter(ufunc, values, idx, n, axis, fill):
    shape = list(values.shape)
    shape[axis] = n
    out = np.full(shape, fill, dtype=values.dtype)
    ufunc.at(np.moveaxis(out, axis, 0), idx, np.moveaxis(values, axis, 0))
    return out


def normal(rng, shape, dtype):
    return rng.normal(size=shape).astype(dtype)


@DTYPES
@pytest.mark.parametrize("axis", [0, 1])
def test_segment_sum_and_gather_backward_match_add_at(dtype, axis):
    rng = np.random.default_rng(1)
    shape = (len(UNSORTED), 3) if axis == 0 else (3, len(UNSORTED))
    a = Tensor(normal(rng, shape, dtype), requires_grad=True)
    out = ad.segment_sum(a, UNSORTED, 6, axis=axis)
    np.testing.assert_allclose(
        out.data, ref_scatter(np.add, a.data, UNSORTED, 6, axis, 0.0), **TOLERANCES[dtype]
    )
    empty = [slice(None)] * 2
    empty[axis] = [2, 4]
    assert np.all(out.data[tuple(empty)] == 0.0)

    source_shape = (6, 3) if axis == 0 else (3, 6)
    src = Tensor(normal(rng, source_shape, dtype), requires_grad=True)
    g = normal(rng, shape, dtype)
    ad.gather(src, UNSORTED, axis=axis).backward(g)
    np.testing.assert_allclose(
        src.grad, ref_scatter(np.add, g, UNSORTED, 6, axis, 0.0), **TOLERANCES[dtype]
    )
    # The same gather through a prebuilt Segments gives the same gradient.
    src2 = Tensor(src.data, requires_grad=True)
    ad.gather(src2, Segments(UNSORTED), axis=axis).backward(g)
    assert np.array_equal(src2.grad, src.grad)


@DTYPES
@pytest.mark.parametrize("index", [TGT, UNSORTED], ids=["sorted", "unsorted"])
def test_segment_softmax_matches_maximum_at(dtype, index):
    rng = np.random.default_rng(2)
    logits = normal(rng, (4, len(index)), dtype) * 20
    seg_max = ref_scatter(np.maximum, logits, index, 6, 1, -np.inf)
    z = np.exp(logits - seg_max[:, index])
    expected = z / ref_scatter(np.add, z, index, 6, 1, 0.0)[:, index]
    got = ad.segment_softmax(Tensor(logits), index, 6, axis=1).data
    np.testing.assert_allclose(got, expected, **TOLERANCES[dtype])


def test_segments_layout():
    segs = Segments(UNSORTED)
    assert np.array_equal(UNSORTED[segs.order], np.sort(UNSORTED))
    assert segs.ids.tolist() == [0, 1, 3, 5]
    assert segs.starts.tolist() == [0, 2, 3, 6]
    assert Segments(TGT).order is None  # a sorted index is not permuted
    assert len(Segments(np.zeros(0, dtype=np.int64)).starts) == 0


@pytest.mark.parametrize("top", [65535, 65536])
def test_segments_order_is_the_int64_stable_argsort(top):
    # Indexes in [0, 65536) are sorted as uint16; 65536 keeps the int64 sort.
    index = np.random.default_rng(top).integers(0, 40, size=500)
    index[[3, 250, 499]] = top
    for dtype in (np.int64, np.int32):
        segs = Segments(index.astype(dtype))
        assert np.array_equal(segs.order, np.argsort(index, kind="stable"))
        assert segs.ids.tolist() == sorted(set(index.tolist()))
    negative = index - 20  # below zero: the int64 sort
    assert np.array_equal(Segments(negative).order, np.argsort(negative, kind="stable"))
    empty = Segments(np.zeros(0, dtype=np.int64))
    assert empty.order is None and len(empty.starts) == 0


def test_edge_sum_grad_only_where_required():
    edges = LevelEdges(TGT, SRC, N_TGT)
    alpha = Tensor(np.ones((2, len(TGT))))
    x = Tensor(np.ones((N_SRC, 3)), requires_grad=True)
    ad.sum_(ad.edge_sum(alpha, x, edges)).backward()
    assert alpha.grad is None
    np.testing.assert_array_equal(x.grad[:, 0], 2.0 * np.bincount(SRC, minlength=N_SRC))


def test_level_edges_reject_unsorted_and_out_of_range_targets():
    with pytest.raises(ValueError, match="sorted by target"):
        LevelEdges(np.array([0, 2, 1]), np.array([0, 1, 2]), 3)
    with pytest.raises(ValueError):
        LevelEdges(np.array([0, 3]), np.array([0, 1]), 3)
    with pytest.raises(ValueError):
        LevelEdges(np.array([0, 1]), np.array([0]), 3)


def test_level_edges_reject_a_prior_of_the_wrong_length():
    tgt, src = np.array([0, 0, 1]), np.array([1, 2, 0])
    with pytest.raises(ValueError, match="prior"):
        LevelEdges(tgt, src, 2, prior=np.ones(2))
    with pytest.raises(ValueError, match="prior"):
        LevelEdges(tgt, src, 2, prior=np.ones((3, 1)))
    np.testing.assert_array_equal(LevelEdges(tgt, src, 2, prior=[0.5, 0.5, 1]).prior, [0.5, 0.5, 1])
    assert LevelEdges(tgt, src, 2).prior is None


def test_graph_levels_hold_the_graph_edges(tiny_ds):
    graph = build_fashion_graph(tiny_ds)
    assert graph.levels["item_outfit"].tgt is graph.oi_tgt
    assert graph.levels["outfit_user"].tgt is graph.uo_tgt
    assert graph.item_edges is graph.levels["item_item"]
    assert graph.levels["item_item"].n_tgt == graph.n_items


def test_same_seed_epochs_are_byte_identical():
    ds = generate_synthetic(SyntheticConfig(n_users=8, n_outfits=12, n_items=24,
                                            interactions_per_user=6), seed=2)
    splits = split_interactions(ds, seed=2)
    graph = build_fashion_graph(ds, splits)
    cfg = TrainConfig(seed=2, d=16, d_h=32, batch_size=16, dtype="float32")

    def run():
        m = make_model(graph, ds, cfg)
        opt = Adam.from_config(cfg)
        for epoch in range(2):
            train_epoch(m, graph, ds, splits, cfg, opt, epoch)
        return {name: p.data.tobytes() for name, p in m.parameters()}

    assert run() == run()


def reference_negatives(ds, split, seed, epoch):
    """``sample_negatives`` by one ``np.isin`` over all outfits per pair."""
    rng = substream(seed, "sampling", epoch)
    all_outfits = np.array(sorted(ds.outfits), dtype=np.int64)
    rec = []
    for u, o in split.pairs("train"):
        candidates = all_outfits[~np.isin(all_outfits, sorted(split.user_known(u)))]
        if len(candidates):
            rec.append((u, o, int(candidates[rng.integers(len(candidates))])))
    comp = []
    for o in sorted(ds.outfits):
        negative = category_template_negative(ds, o, rng)
        if negative is not None:
            comp.append((o, negative))
    return rec, comp


def batch_lists(batch):
    rec = list(zip(batch.rec_users.tolist(), batch.rec_pos.tolist(), batch.rec_neg.tolist()))
    return rec, list(zip(batch.comp_pos.tolist(), batch.comp_neg))


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_sample_negatives_matches_isin_reference(seed):
    ds = generate_synthetic(SyntheticConfig(n_users=12, n_outfits=30, n_items=50,
                                            interactions_per_user=8), seed=seed)
    splits = split_interactions(ds, seed=seed)
    for epoch in range(3):
        expected = reference_negatives(ds, splits, seed, epoch)
        assert batch_lists(sample_negatives(ds, splits, seed, epoch)) == expected


def test_sample_negatives_users_who_know_all_or_all_but_one():
    ds = tiny_dataset()  # outfits 100, 101, 102
    splits = Splits(
        train={10: frozenset({100, 101}), 11: frozenset({101})},
        val={10: frozenset({102}), 11: frozenset()},
        test={10: frozenset(), 11: frozenset({100})},
        compat_negative_pool=frozenset(),
    )
    with pytest.warns(UserWarning, match="user 10 interacted with every outfit"):
        batch = sample_negatives(ds, splits, seed=4)
    assert batch.rec_users.tolist() == [11]
    assert batch.rec_neg.tolist() == [102]  # the one outfit user 11 does not know
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert batch_lists(batch) == reference_negatives(ds, splits, 4, 0)


def files_config(tmp_path, paths):
    cfg = tmp_path / "files.cfg"
    cfg.write_text(
        "seed=1\nmode=files\n"
        f"interactions={paths['interactions']}\noutfits={paths['outfits']}\n"
        f"items={paths['items']}\nvisual_features={paths['visual']}\n"
        f"textual_features={paths['textual']}\n"
    )
    return cfg


def test_truncated_feature_header_exits_one(tmp_path, capsys):
    paths = write_dataset(tiny_dataset(), tmp_path / "data")
    paths["visual"].write_bytes(paths["visual"].read_bytes()[:12])
    assert main(["ingest", "--config", str(files_config(tmp_path, paths))]) == 1
    err = capsys.readouterr().err
    assert str(paths["visual"]) in err and "header" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_exits_one(tmp_path, capsys, bad):
    ds = tiny_dataset()
    paths = write_dataset(ds, tmp_path / "data")
    textual = {iid: item.textual.copy() for iid, item in ds.items.items()}
    textual[3][1] = bad
    write_features(paths["textual"], textual)
    assert main(["ingest", "--config", str(files_config(tmp_path, paths))]) == 1
    err = capsys.readouterr().err
    assert str(paths["textual"]) in err and "item 3" in err
    assert "Traceback" not in err
