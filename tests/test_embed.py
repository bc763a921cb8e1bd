import hashlib
import os
import struct

import numpy as np
import pytest

from fashiongraph.embed import (
    ModelDims,
    ModelState,
    fuse_items_tensor,
    init_model,
    load_checkpoint,
    read_arrays,
    check_checkpoints,
    commit_checkpoint,
    save_checkpoint,
)
import fashiongraph.autodiff as ad
import fashiongraph.embed as embed


SMALL = ModelDims(d=8, d_v=6, d_t=4, d_h=5, heads=2, r_views=3, view_hidden=4)


def small_model(seed=0, dims=SMALL):
    return init_model(3, 4, 2, dims, seed)


def leaky(x, slope=0.2):
    return np.where(x >= 0, x, slope * x)


def fuse_one(m, x_v, x_t):
    """One item's fused embedding: the one-row batch of ``fuse_items_tensor``."""
    with ad.no_grad():
        return fuse_items_tensor(m, x_v[None, :], x_t[None, :]).data[0]


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays.values()])


def arrays_of(m):
    """A copy of each parameter's values, by name, in model order."""
    return {name: p.data.copy() for name, p in m.parameters()}


def write_checked(path, arrays):
    """Write ``arrays`` as one checkpoint through the one write path."""
    commit_checkpoint(path, check_checkpoints({path: (arrays,)})[path])


def straight_line_fuse(m, x_v, x_t):
    """Independent re-evaluation of the three affine maps."""
    p = {k: t.data for k, t in m.parameters()}
    hidden = leaky(p["visual_w1"] @ x_v + p["visual_b1"], m.dims.leaky_slope)
    e_v = p["visual_w2"] @ hidden + p["visual_b2"]
    e_t = p["textual_w"] @ x_t + p["textual_b"]
    return p["fusion_w"] @ np.concatenate([e_v, e_t]) + p["fusion_b"]


class TestInit:
    def test_deterministic_bitwise(self):
        a, b = small_model(seed=5), small_model(seed=5)
        for (name, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data), name

    def test_user_table_shape_d64(self):
        m = init_model(3, 4, 2, ModelDims(d=64, d_v=6, d_t=4), seed=0)
        assert m.params["user_table"].data.shape == (3, 64)

    def test_default_fused_dims_32_32_64(self):
        m = init_model(2, 2, 2, ModelDims(d=64, d_v=6, d_t=4), seed=0)
        assert m.params["visual_w2"].data.shape[0] == 32  # reduced visual
        assert m.params["textual_w"].data.shape[0] == 32  # reduced textual
        assert fuse_one(m, np.ones(6), np.ones(4)).shape == (64,)

    def test_flat_view_length_matches_declared_shapes(self):
        m = small_model()
        d, dv, dt, dh, H, R, v = 8, 6, 4, 5, 2, 3, 4
        half = d // 2
        expected = (
            3 * d + 4 * d  # ID tables
            + (dh * dv + dh) + (half * dh + half)  # visual reducer
            + (half * dt + half)  # textual reducer
            + (d * 2 * half + d)  # fusion
            + 3 * (H * d * d + H * 2 * d + d * d)  # attention levels
            + 2 * (R * v + v * d)  # view attention + compatibility maps
        )
        assert flat(arrays_of(m)).shape == (expected,)

    def test_flat_round_trip(self):
        m = small_model()
        arrays = arrays_of(m)
        m2 = small_model(seed=99)
        assert not np.array_equal(flat(arrays_of(m2)), flat(arrays))
        m2.load_arrays(arrays)
        assert list(arrays_of(m2)) == list(arrays)
        assert np.array_equal(flat(arrays_of(m2)), flat(arrays))

    def test_no_parameter_aliasing(self):
        m = small_model()
        digests = {
            name: hashlib.sha256(p.data.tobytes()).hexdigest()
            for name, p in m.parameters()
        }
        m.params["user_table"].data[:] = 123.0
        for name, p in m.parameters():
            if name == "user_table":
                continue
            assert hashlib.sha256(p.data.tobytes()).hexdigest() == digests[name], name

    @pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")])
    def test_leaky_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ValueError, match="leaky_slope"):
            ModelDims(leaky_slope=slope)

    def test_leaky_slope_bounds_accepted(self):
        assert [ModelDims(leaky_slope=s).leaky_slope for s in (0.0, 1.0)] == [0.0, 1.0]

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            init_model(0, 4, 2, SMALL, seed=0)


class TestFuseItem:
    def test_zero_inputs_zero_biases_give_zero(self):
        m = small_model()
        np.testing.assert_array_equal(fuse_one(m, np.zeros(6), np.zeros(4)), np.zeros(8))

    def test_identity_configuration_concatenates(self):
        # square maps set to identity, zero biases: fused = [x_v ; x_t]
        dims = ModelDims(d=8, d_v=4, d_t=4, d_h=4)
        m = init_model(2, 2, 2, dims, seed=0)
        m.params["visual_w1"].data = np.eye(4)
        m.params["visual_w2"].data = np.eye(4)
        m.params["textual_w"].data = np.eye(4)
        m.params["fusion_w"].data = np.eye(8)
        x_v = np.abs(np.random.default_rng(0).normal(size=4))  # positive: LeakyReLU passes through
        x_t = np.random.default_rng(1).normal(size=4)
        np.testing.assert_allclose(fuse_one(m, x_v, x_t), np.concatenate([x_v, x_t]), atol=1e-12)

    def test_matches_straight_line_recomputation(self):
        m = small_model(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x_v, x_t = rng.normal(size=6), rng.normal(size=4)
            np.testing.assert_allclose(fuse_one(m, x_v, x_t), straight_line_fuse(m, x_v, x_t),
                                       atol=1e-12)

    def test_positive_homogeneity_with_zero_biases(self):
        m = small_model(seed=6)  # biases are initialized to zero
        rng = np.random.default_rng(7)
        x_v, x_t = rng.normal(size=6), rng.normal(size=4)
        base = fuse_one(m, x_v, x_t)
        for lam in (0.5, 2.0, 7.5):
            scaled = fuse_one(m, lam * x_v, lam * x_t)
            np.testing.assert_allclose(scaled, lam * base, rtol=1e-12)

    def test_dimension_mismatch(self):
        m = small_model()
        with pytest.raises(ValueError):
            fuse_items_tensor(m, np.zeros((1, 7)), np.zeros((1, 4)))

    def test_gradients_match_finite_differences(self):
        m = small_model(seed=8)
        rng = np.random.default_rng(9)
        X_v, X_t = rng.normal(size=(3, 6)), rng.normal(size=(3, 4))
        weights = rng.normal(size=(3, 8))
        fuser_params = [
            "visual_w1", "visual_b1", "visual_w2", "visual_b2",
            "textual_w", "textual_b", "fusion_w", "fusion_b",
        ]

        def loss_value():
            with ad.no_grad():
                out = fuse_items_tensor(m, X_v, X_t)
            return float((out.data * weights).sum())

        m.zero_grads()
        out = fuse_items_tensor(m, X_v, X_t)
        ad.sum_(out * ad.Tensor(weights)).backward()
        step = 1e-5
        for name in fuser_params:
            p = m.params[name]
            g = np.asarray(p.grad)
            for k in range(p.data.size):
                idx = np.unravel_index(k, p.data.shape)
                orig = p.data[idx]
                p.data[idx] = orig + step
                plus = loss_value()
                p.data[idx] = orig - step
                minus = loss_value()
                p.data[idx] = orig
                numeric = (plus - minus) / (2 * step)
                rel = abs(g[idx] - numeric) / max(1.0, abs(g[idx]), abs(numeric))
                assert rel < 1e-4, (name, idx, rel)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        m = small_model(seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        m2 = small_model(seed=42)
        load_checkpoint(m2, p1)
        save_checkpoint(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_extra_sections_returned(self, tmp_path):
        m = small_model()
        path = tmp_path / "c.ckpt"
        save_checkpoint(m, path, extra={"opt/t": np.array([7.0], dtype=np.float32)})
        extra = load_checkpoint(small_model(seed=5), path)
        assert list(extra) == ["opt/t"] and extra["opt/t"][0] == 7.0

    def test_shape_mismatch_rejected(self, tmp_path):
        m = small_model()
        path = tmp_path / "d.ckpt"
        save_checkpoint(m, path)
        other = init_model(5, 4, 2, SMALL, seed=0)  # different user count
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(other, path)

    def test_named_sections_payload(self, tmp_path):
        path = tmp_path / "e.ckpt"
        arrays = {"x": np.arange(6, dtype=np.float32).reshape(2, 3), "y": np.zeros(1, np.float32)}
        write_checked(path, arrays)
        back = read_arrays(path)
        assert list(back) == ["x", "y"]
        assert np.array_equal(back["x"], arrays["x"])
        assert back["x"].shape == (2, 3)


def reference_checkpoint(arrays) -> bytes:
    """The checkpoint format spelled out field by field with ``struct``:
    magic, version, section count, then per section the name length, the
    utf-8 name, the rank, the dims and each value as a little-endian f32."""
    out = [b"FGATCKPT", struct.pack("<II", 1, len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        encoded = name.encode("utf-8")
        out.append(struct.pack("<I", len(encoded)) + encoded + struct.pack("<I", arr.ndim))
        out += [struct.pack("<I", n) for n in arr.shape]
        out += [struct.pack("<f", float(x)) for x in arr.ravel(order="C")]
    return b"".join(out)


def varied_sections() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    return {
        "scalar": np.array(2.5),
        "empty": np.zeros(0),
        "empty_rank3": np.zeros((3, 0, 2), dtype=np.float32),
        "rank3_f64": rng.normal(size=(2, 3, 4)) * 1e3,
        "f32": rng.normal(size=5).astype(np.float32),
        "transposed": np.arange(6.0).reshape(2, 3).T,
        "größe/权重": np.array([[1e-40, -0.0], [3.4e38, 1 / 3]]),
    }


class TestWriter:
    def test_bytes_equal_a_struct_reference(self, tmp_path):
        arrays = varied_sections()
        path = tmp_path / "ref.ckpt"
        write_checked(path, arrays)
        assert path.read_bytes() == reference_checkpoint(arrays)
        back = read_arrays(path)
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].shape == arr.shape, name
            assert np.array_equal(back[name], arr.astype(np.float32)), name

    def test_no_sections(self, tmp_path):
        write_checked(tmp_path / "none.ckpt", {})
        assert (tmp_path / "none.ckpt").read_bytes() == reference_checkpoint({})
        assert read_arrays(tmp_path / "none.ckpt") == {}

    def test_one_write_call(self, tmp_path, monkeypatch):
        calls = []
        real = os.writev
        monkeypatch.setattr(os, "writev", lambda fd, parts: calls.append(len(parts)) or real(fd, parts))
        write_checked(tmp_path / "one.ckpt", varied_sections())
        assert calls == [2 + 2 * len(varied_sections())]

    def test_short_writes_still_give_the_whole_file(self, tmp_path, monkeypatch):
        real = os.writev
        # Take at most 5 bytes of the first part per call.
        monkeypatch.setattr(os, "writev", lambda fd, parts: real(fd, [memoryview(parts[0])[:5]]))
        arrays = varied_sections()
        write_checked(tmp_path / "short.ckpt", arrays)
        assert (tmp_path / "short.ckpt").read_bytes() == reference_checkpoint(arrays)

    def test_without_writev(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "writev")  # as on Windows
        arrays = varied_sections()
        write_checked(tmp_path / "plain.ckpt", arrays)
        assert (tmp_path / "plain.ckpt").read_bytes() == reference_checkpoint(arrays)

    def test_more_sections_than_one_call_takes(self, tmp_path):
        arrays = {f"s{k}": np.full(k % 3, k, dtype=np.float32) for k in range(700)}
        write_checked(tmp_path / "many.ckpt", arrays)
        assert (tmp_path / "many.ckpt").read_bytes() == reference_checkpoint(arrays)


class TestOneWritePath:
    """``check_checkpoints`` casts and checks every file before any is
    opened; ``commit_checkpoint`` replaces a file only by a whole one."""

    def test_a_write_dying_part_way_leaves_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_model(seed=1), path)
        before = path.read_bytes()
        real = os.writev

        def dying_writev(fd, parts):
            real(fd, [memoryview(parts[0])[:5]])
            raise OSError("disk went away")

        monkeypatch.setattr(os, "writev", dying_writev)
        with pytest.raises(OSError, match="disk went away"):
            save_checkpoint(small_model(seed=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_extra_naming_a_parameter_is_refused_before_any_file_opens(
            self, tmp_path, monkeypatch):
        opened = []
        monkeypatch.setattr(embed, "open", lambda *a, **k: opened.append(a), raising=False)
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="duplicate section 'user_table'") as info:
            save_checkpoint(small_model(), path, extra={"user_table": np.zeros((3, 8))})
        assert str(path) in str(info.value)
        assert not opened and not list(tmp_path.iterdir())

    def test_a_shared_part_is_cast_once(self, tmp_path, monkeypatch):
        casts = []
        real = embed.checkpoint_image
        monkeypatch.setattr(embed, "checkpoint_image", lambda arrays: casts.append(1) or real(arrays))
        shared, a, b = {"w": np.ones(3)}, {"x": np.zeros(1)}, {"x": np.ones(2)}
        images = check_checkpoints({tmp_path / "a": (shared, a), tmp_path / "b": (shared, b)})
        assert len(casts) == 3
        assert images[tmp_path / "a"][0] is images[tmp_path / "b"][0]
        for name, part in (("a", a), ("b", b)):
            commit_checkpoint(tmp_path / name, images[tmp_path / name])
            assert (tmp_path / name).read_bytes() == reference_checkpoint(shared | part)

    def test_a_refusal_names_the_file_that_holds_the_section(self, tmp_path):
        shared = {"w": np.ones(3)}
        files = {tmp_path / "a": (shared,), tmp_path / "b": (shared, {"bad": np.array([np.nan])})}
        with pytest.raises(ValueError, match="'bad' holds a non-finite value") as info:
            check_checkpoints(files)
        assert str(info.value).startswith(f"{tmp_path / 'b'}: ")


def test_a_repeated_section_name_is_refused(tmp_path):
    # Two sections named 'w', of 2 and 3 values: the later one must not win.
    path = tmp_path / "twice.ckpt"
    blob = reference_checkpoint({"w": np.array([1.0, 2.0]), "x": np.array([3.0, 4.0, 5.0])})
    path.write_bytes(blob.replace(b"\x01\x00\x00\x00x", b"\x01\x00\x00\x00w"))
    with pytest.raises(ValueError, match="duplicate section 'w'") as info:
        read_arrays(path)
    assert str(path) in str(info.value)
