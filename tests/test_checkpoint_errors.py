"""Damaged checkpoints at the CLI boundary: a flip of any header byte of
the parameter sections, a renamed or repeated section and a non-finite
payload value each exit 1 with a message that names the file; the writer
refuses a section that is not finite as float32."""

import math
import struct

import numpy as np
import pytest

from fashiongraph.cli import main, make_run_config, parse_config_file, prepare
from fashiongraph.embed import (
    CHECKPOINT_MAGIC,
    check_checkpoints,
    commit_checkpoint,
    save_checkpoint,
)
from fashiongraph.train import make_model

SMALL_CFG = (
    "mode=synthetic\nseed=1\ndtype=float32\nsynth_users=3\nsynth_outfits=4\n"
    "synth_items=8\nsynth_categories=2\nsynth_dv=1\nsynth_dt=1\n"
    "synth_items_per_outfit=2\nsynth_interactions_per_user=2\n"
    "d=2\nd_h=1\nheads=1\nr_views=1\nview_hidden=1\n"
)


@pytest.fixture
def small_checkpoint(tmp_path, capsys):
    """(evaluate argv without the checkpoint path, bytes of a loadable checkpoint)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    rc = make_run_config(parse_config_file(cfg), {})
    ds, _, graph = prepare(rc)
    whole = tmp_path / "whole.ckpt"
    save_checkpoint(make_model(graph, ds, rc.train_config()), whole)
    argv = ["evaluate", "--config", str(cfg), "--checkpoint"]
    assert main(argv + [str(whole)]) == 0
    capsys.readouterr()
    return argv, whole.read_bytes()


def section_spans(blob: bytes) -> dict[str, tuple[int, int, int]]:
    """name -> (header start, payload start, payload end) of each section."""
    (n_sections,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC) + 4)
    offset = len(CHECKPOINT_MAGIC) + 8
    spans = {}
    for _ in range(n_sections):
        start = offset
        (name_len,) = struct.unpack_from("<I", blob, offset)
        name = blob[offset + 4 : offset + 4 + name_len].decode("utf-8")
        offset += 4 + name_len
        (ndim,) = struct.unpack_from("<I", blob, offset)
        shape = struct.unpack_from(f"<{ndim}I", blob, offset + 4)
        payload = offset + 4 + 4 * ndim
        offset = payload + 4 * math.prod(shape)
        spans[name] = (start, payload, offset)
    assert offset == len(blob)
    return spans


def assert_exits_one_naming(argv, path, data: bytes, capsys, *also) -> None:
    path.write_bytes(data)
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err, err
    for text in also:
        assert text in err, err


def test_every_header_byte_flip_exits_one_naming_the_file(small_checkpoint, tmp_path, capsys):
    argv, blob = small_checkpoint
    spans = section_spans(blob)
    header = [*range(len(CHECKPOINT_MAGIC) + 8)] + [
        k for start, payload, _ in spans.values() for k in range(start, payload)
    ]
    bad = tmp_path / "flipped.ckpt"
    for k in header:
        for mask in (0x01, 0x80):  # a name flipped to ASCII, or to invalid utf-8
            flipped = bytearray(blob)
            flipped[k] ^= mask
            assert_exits_one_naming(argv, bad, bytes(flipped), capsys)


def test_renamed_parameter_section_exits_one_naming_the_file(small_checkpoint, tmp_path, capsys):
    argv, blob = small_checkpoint
    renamed = blob.replace(b"attn_w_item_item", b"attn_w_item_itex")
    assert renamed != blob
    assert_exits_one_naming(
        argv, tmp_path / "renamed.ckpt", renamed, capsys, "missing parameter 'attn_w_item_item'"
    )


def test_repeated_section_exits_one_naming_the_file(small_checkpoint, tmp_path, capsys):
    argv, blob = small_checkpoint
    assert blob.count(b"fusion_b") == 1
    assert_exits_one_naming(
        argv, tmp_path / "twice.ckpt", blob.replace(b"fusion_b", b"fusion_w"), capsys,
        "duplicate section 'fusion_w'",
    )


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_payload_exits_one_naming_the_file(small_checkpoint, tmp_path, capsys, value):
    argv, blob = small_checkpoint
    _, payload, end = section_spans(blob)["fusion_w"]
    bad = bytearray(blob)
    bad[end - 4 : end] = struct.pack("<f", value)
    assert_exits_one_naming(
        argv, tmp_path / "nan.ckpt", bytes(bad), capsys, "'fusion_w'", "non-finite"
    )


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
def test_writer_refuses_a_section_not_finite_as_float32(tmp_path, value):
    # 1e39 is finite in float64 and overflows to inf in the f32 cast.
    target = tmp_path / "bad.ckpt"
    arrays = {"ok": np.ones(3), "bad": np.array([[0.0, value]]), "after": np.zeros(2)}
    with pytest.raises(ValueError, match="'bad' holds a non-finite value") as info:
        commit_checkpoint(target, check_checkpoints({target: (arrays,)})[target])
    assert str(target) in str(info.value)
    assert not list(tmp_path.iterdir())  # neither the file nor a temporary one
