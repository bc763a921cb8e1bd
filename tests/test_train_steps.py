"""The in-place Adam step against the textbook expressions, the one-call
rec-negative draw against the per-pair loop, a batch's tape freed by its
backward, and the crash-safe ``train`` command: a run that dies while
writing a checkpoint resumes to the bytes of an uninterrupted run."""

import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fashiongraph import cli, train
from fashiongraph.dataio import SyntheticConfig, generate_synthetic, split_interactions
from fashiongraph.graph import build_fashion_graph
from fashiongraph.rng import substream
from fashiongraph.train import (
    Adam,
    TrainConfig,
    batch_loss,
    category_template_negative,
    make_model,
    sample_negatives,
)

CFG = """mode=synthetic
seed=13
out_dir={out}
epochs={epochs}
dtype=float32
synth_users=8
synth_outfits=12
synth_items=24
synth_interactions_per_user=6
"""


def small_setup(dtype):
    ds = generate_synthetic(SyntheticConfig(n_users=8, n_outfits=12, n_items=24,
                                            interactions_per_user=6), seed=2)
    splits = split_interactions(ds, seed=2)
    graph = build_fashion_graph(ds, splits)
    cfg = TrainConfig(seed=2, d=8, d_h=16, dtype=dtype)
    return ds, splits, graph, cfg, make_model(graph, ds, cfg)


def small_model(dtype):
    return small_setup(dtype)[-1]


def test_backward_frees_the_batch_tape(monkeypatch):
    # The refined item embeddings are an interior activation that every
    # level reads; once backward returns nothing may keep them alive.
    ds, splits, graph, cfg, m = small_setup("float64")
    forward_tensors, seen = train.forward_tensors, []

    def capture(*args, **kwargs):
        ft = forward_tensors(*args, **kwargs)
        seen.append(weakref.ref(ft.h_item_star.data))
        return ft

    monkeypatch.setattr(train, "forward_tensors", capture)
    loss, _, _ = batch_loss(m, graph, ds, sample_negatives(ds, splits, 2), cfg, mode="eval")
    assert len(seen) == 1 and seen[0]() is not None  # the tape holds it
    m.zero_grads()
    loss.backward()
    assert seen[0]() is None
    assert all(p.grad is not None for _, p in m.parameters())


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_in_place_adam_equals_textbook_expressions(dtype):
    m = small_model(dtype)
    opt = Adam(lr=0.01)
    ref_p = {name: p.data.copy() for name, p in m.parameters()}
    ref_m = {name: np.zeros_like(p) for name, p in ref_p.items()}
    ref_v = {name: np.zeros_like(p) for name, p in ref_p.items()}
    buffers = {name: p.data for name, p in m.parameters()}
    rng = np.random.default_rng(0)
    for t in range(1, 8):
        bc1, bc2 = 1.0 - opt.beta1**t, 1.0 - opt.beta2**t
        for name, p in m.parameters():
            g = rng.normal(size=p.data.shape).astype(dtype)
            p.grad = g
            ref_m[name] = opt.beta1 * ref_m[name] + (1.0 - opt.beta1) * g
            ref_v[name] = opt.beta2 * ref_v[name] + (1.0 - opt.beta2) * g * g
            m_hat, v_hat = ref_m[name] / bc1, ref_v[name] / bc2
            ref_p[name] = ref_p[name] - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
        opt.step(m)
        for name, p in m.parameters():
            assert p.data is buffers[name]  # updated in place
            assert p.data.dtype == dtype
            assert p.data.tobytes() == ref_p[name].tobytes(), name
            assert opt.m[name].tobytes() == ref_m[name].tobytes(), name
            assert opt.v[name].tobytes() == ref_v[name].tobytes(), name


def test_load_arrays_copies_so_a_step_leaves_the_input_unchanged():
    m = small_model("float64")
    arrays = {name: p.data.copy() for name, p in m.parameters()}
    before = {name: a.copy() for name, a in arrays.items()}
    m.load_arrays(arrays)
    for _, p in m.parameters():
        p.grad = np.ones_like(p.data)
    Adam(lr=0.1).step(m)
    for name, a in arrays.items():
        assert np.array_equal(a, before[name]), name
        assert not np.array_equal(m.params[name].data, a), name


def per_pair_negatives(ds, split, seed, epoch):
    """``sample_negatives`` with one ``integers`` call and one search per pair."""
    rng = substream(seed, "sampling", epoch)
    all_outfits = np.array(sorted(ds.outfits), dtype=np.int64)
    rec = []
    for u, o in split.pairs("train"):
        q = np.searchsorted(all_outfits, sorted(split.user_known(u)))
        shifted = q - np.arange(len(q))
        n_unknown = len(all_outfits) - len(shifted)
        if n_unknown == 0:
            warnings.warn(f"user {u} interacted with every outfit; skipping triple")
            continue
        k = int(rng.integers(n_unknown))
        rec.append((u, o, int(all_outfits[k + np.searchsorted(shifted, k, side="right")])))
    comp = []
    for o in sorted(ds.outfits):
        negative = category_template_negative(ds, o, rng)
        if negative is not None:
            comp.append((o, negative))
    return rec, comp


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_rec_negatives_in_one_call_equal_the_per_pair_loop(seed):
    ds = generate_synthetic(SyntheticConfig(n_users=12, n_outfits=30, n_items=50,
                                            interactions_per_user=8), seed=seed)
    splits = split_interactions(ds, seed=seed)
    # a user in the middle of the order knows every outfit
    user = sorted(splits.train)[len(splits.train) // 2]
    rest = set(ds.outfits) - splits.val.get(user, frozenset()) - splits.test.get(user, frozenset())
    splits = replace(splits, train={**splits.train, user: frozenset(rest)})
    for epoch in range(3):
        with pytest.warns(UserWarning, match=f"user {user} interacted with every outfit"):
            batch = sample_negatives(ds, splits, seed, epoch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rec, comp = per_pair_negatives(ds, splits, seed, epoch)
        assert user not in batch.rec_users.tolist()
        got_rec = list(zip(batch.rec_users.tolist(), batch.rec_pos.tolist(),
                           batch.rec_neg.tolist()))
        assert got_rec == rec
        # the comp draws come after, so they show the generator state matches
        assert list(zip(batch.comp_pos.tolist(), batch.comp_neg)) == comp


def write_cfg(tmp_path, name, epochs=6):
    out = tmp_path / name
    path = tmp_path / f"{name}.cfg"
    path.write_text(CFG.format(out=out, epochs=epochs))
    return path, out


@pytest.mark.parametrize("crash_at_call", [3, 6, 8])
def test_crash_while_checkpointing_resumes_to_the_uninterrupted_bytes(
        tmp_path, monkeypatch, capsys, crash_at_call):
    path_a, out_a = write_cfg(tmp_path, "a")
    assert cli.main(["train", "--config", str(path_a)]) == 0

    real_write = cli.write_image
    calls = []

    def dying_write(path, *images):
        calls.append(path)
        if len(calls) == crash_at_call:  # half a file, then the process dies
            with open(path, "wb") as fh:
                fh.write(b"FGCKPT")
            raise RuntimeError("disk went away")
        return real_write(path, *images)

    path_b, out_b = write_cfg(tmp_path, "b")
    monkeypatch.setattr(cli, "write_image", dying_write)
    assert cli.main(["train", "--config", str(path_b)]) == 2
    assert "disk went away" in capsys.readouterr().err
    assert not list(out_b.glob("*.tmp"))
    monkeypatch.setattr(cli, "write_image", real_write)
    assert cli.main(["train", "--config", str(path_b), "--resume"]) == 0
    for name in ("train_log.csv", "last.ckpt", "best.ckpt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert not list(out_b.glob("*.tmp"))


def test_resume_with_a_short_log_exits_one(tmp_path, capsys):
    path, out = write_cfg(tmp_path, "c", epochs=3)
    assert cli.main(["train", "--config", str(path)]) == 0
    log = out / "train_log.csv"
    log.write_text("".join(log.read_text().splitlines(keepends=True)[:2]))
    assert cli.main(["train", "--config", str(path), "--resume", "--epochs", "4"]) == 1
    err = capsys.readouterr().err
    assert str(log) in err and "epoch 3" in err
