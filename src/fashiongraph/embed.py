"""Learnable parameters and initial node embeddings.

Users and outfits get ID embedding tables.  Items are embedded by fusing
pre-extracted visual and textual feature vectors: a two-layer map reduces
the visual vector to d/2 dimensions, an affine map reduces the textual
vector to d/2, and a final affine layer projects the concatenation to the
shared d-dimensional space.

Checkpoint format: magic ``FGATCKPT``, u32 version, u32 section count,
then per section a u32 name length, utf-8 name, u32 ndim, ndim x u32 dims,
and a row-major little-endian f32 payload.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import substream

CHECKPOINT_MAGIC = b"FGATCKPT"
CHECKPOINT_VERSION = 1

LEVELS = ("item_item", "item_outfit", "outfit_user")


@dataclass(frozen=True)
class ModelDims:
    d: int = 64  # shared embedding dimension (even; halves hold each modality)
    d_v: int = 2048
    d_t: int = 768
    d_h: int = 256  # hidden width of the visual reducer
    heads: int = 4
    r_views: int = 6
    view_hidden: int = 32
    leaky_slope: float = 0.2
    uniform_attention: bool = False  # debug: constant 1/|N| attention (no softmax)
    linear_compat: bool = False  # debug: drop the tanh in the compatibility map

    def __post_init__(self):
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must be in [0, 1], got {self.leaky_slope}")

    @property
    def half(self) -> int:
        return self.d // 2


class ModelState:
    """All learnable parameters with their gradient slots."""

    def __init__(self, dims: ModelDims, dtype=np.float64):
        if dims.d % 2 != 0 or dims.d <= 0:
            raise ValueError("embedding dimension must be a positive even number")
        self.dims = dims
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}

    def _add(self, name: str, array: np.ndarray):
        self.params[name] = Tensor(np.ascontiguousarray(array, dtype=self.dtype), requires_grad=True)

    def parameters(self):
        return self.params.items()

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    @property
    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        for name, p in self.params.items():
            if name not in arrays:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            if arrays[name].shape != p.data.shape:
                raise ValueError(
                    f"parameter {name!r}: checkpoint shape {arrays[name].shape} "
                    f"!= model shape {p.data.shape}"
                )
            # A copy, so the optimizer's in-place steps never write into
            # the caller's arrays.
            p.data = np.array(arrays[name], dtype=self.dtype, order="C")


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def init_model(
    n_users: int,
    n_outfits: int,
    n_categories: int,
    dims: ModelDims,
    seed: int,
    dtype=np.float64,
) -> ModelState:
    """Create a ModelState with uniform(+-sqrt(6/(fan_in+fan_out))) affine
    weights, zero biases, and N(0, 0.01) ID tables.  Each parameter draws
    from its own named substream, so the layout of one never shifts
    another.

    No parameter depends on ``n_categories``; it stays in the signature,
    checked positive with the other counts, because acceptance criterion 4
    passes it positionally."""
    if min(n_users, n_outfits, n_categories) <= 0:
        raise ValueError("counts must be positive")
    m = ModelState(dims, dtype=dtype)
    d, half, d_h = dims.d, dims.half, dims.d_h

    def rng_for(name):
        return substream(seed, "init", name)

    m._add("user_table", rng_for("user_table").normal(0.0, 0.01, size=(n_users, d)))
    m._add("outfit_table", rng_for("outfit_table").normal(0.0, 0.01, size=(n_outfits, d)))

    m._add("visual_w1", _glorot(rng_for("visual_w1"), (d_h, dims.d_v), dims.d_v, d_h))
    m._add("visual_b1", np.zeros(d_h))
    m._add("visual_w2", _glorot(rng_for("visual_w2"), (half, d_h), d_h, half))
    m._add("visual_b2", np.zeros(half))
    m._add("textual_w", _glorot(rng_for("textual_w"), (half, dims.d_t), dims.d_t, half))
    m._add("textual_b", np.zeros(half))
    m._add("fusion_w", _glorot(rng_for("fusion_w"), (d, 2 * half), 2 * half, d))
    m._add("fusion_b", np.zeros(d))

    for level in LEVELS:
        m._add(
            f"attn_w_{level}",
            _glorot(rng_for(f"attn_w_{level}"), (dims.heads, d, d), d, d),
        )
        m._add(
            f"attn_a_{level}",
            _glorot(rng_for(f"attn_a_{level}"), (dims.heads, 2 * d), 2 * d, 1),
        )
        m._add(f"msg_w_{level}", _glorot(rng_for(f"msg_w_{level}"), (d, d), d, d))

    R, v = dims.r_views, dims.view_hidden
    m._add("view_attn_in", _glorot(rng_for("view_attn_in"), (v, d), d, v))
    m._add("view_attn_out", _glorot(rng_for("view_attn_out"), (R, v), v, R))
    m._add("view_compat_in", _glorot(rng_for("view_compat_in"), (v, d), d, v))
    m._add("view_compat_out", _glorot(rng_for("view_compat_out"), (R, v), v, R))
    return m


# ---------------------------------------------------------------------------
# item fusion


def fuse_items_tensor(m: ModelState, X_v, X_t, categories=None) -> Tensor:
    """Fused embeddings for a batch of items; differentiable.

    ``X_v``: (n, d_v), ``X_t``: (n, d_t); returns (n, d).  Fusion does not
    depend on an item's category; ``categories`` is accepted and unused
    because acceptance criterion 4 passes it positionally.
    """
    slope = m.dims.leaky_slope
    X_v = Tensor(np.ascontiguousarray(X_v, dtype=m.dtype))
    X_t = Tensor(np.ascontiguousarray(X_t, dtype=m.dtype))
    if X_v.shape[1] != m.dims.d_v or X_t.shape[1] != m.dims.d_t:
        raise ValueError(
            f"feature dims {X_v.shape[1]}/{X_t.shape[1]} do not match model "
            f"dims {m.dims.d_v}/{m.dims.d_t}"
        )
    p = m.params
    hidden = ad.leaky_relu(ad.linear(X_v, p["visual_w1"], p["visual_b1"]), slope)
    e_v = ad.linear(hidden, p["visual_w2"], p["visual_b2"])
    e_t = ad.linear(X_t, p["textual_w"], p["textual_b"])
    return ad.linear(ad.concat([e_v, e_t], axis=1), p["fusion_w"], p["fusion_b"])


# ---------------------------------------------------------------------------
# checkpoints


def _all_finite(arr: np.ndarray) -> bool:
    # min and max are NaN or infinite iff some value is, and allocate no mask;
    # the ufuncs' own reduce skips the overhead of ndarray.min and max.
    return not arr.size or (
        math.isfinite(np.minimum.reduce(arr, axis=None))
        and math.isfinite(np.maximum.reduce(arr, axis=None))
    )


def checkpoint_sections(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Named arrays as the contiguous little-endian f32 sections a
    checkpoint stores, in insertion order; an array already in that form is
    kept, not copied.  Raises ``ValueError`` naming the section when its
    cast holds a NaN or infinite value."""
    with np.errstate(over="ignore"):  # an overflow to inf is reported below
        sections = {name: np.ascontiguousarray(a, dtype="<f4") for name, a in arrays.items()}
    for name, arr in sections.items():
        if not _all_finite(arr):
            raise ValueError(f"section {name!r} holds a non-finite value as float32")
    return sections


def write_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays as f32 sections; insertion order is preserved.

    Raises ``ValueError`` naming ``path`` and the section, before ``path``
    is opened, when a section's f32 cast holds a NaN or infinite value.
    """
    try:
        sections = checkpoint_sections(arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(sections)))
        for name, arr in sections.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def read_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint's named arrays; raise ``ValueError`` naming ``path``
    for a file that is not a whole, well-formed checkpoint of finite values."""
    blob = Path(path).read_bytes()
    offset = len(CHECKPOINT_MAGIC)

    def take(n_bytes: int, what: str) -> int:
        """Claim the next ``n_bytes`` bytes; return where they start."""
        nonlocal offset
        if n_bytes > len(blob) - offset:
            raise ValueError(
                f"{path}: truncated checkpoint: {what} needs {n_bytes} bytes at offset "
                f"{offset}, {len(blob) - offset} left"
            )
        offset += n_bytes
        return offset - n_bytes

    def u32s(count: int, what: str) -> tuple[int, ...]:
        return struct.unpack_from(f"<{count}I", blob, take(4 * count, what))

    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:8]!r}")
    version, n_sections = u32s(2, "header")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for k in range(n_sections):
        (name_len,) = u32s(1, f"section {k} name length")
        start = take(name_len, f"section {k} name")
        try:
            name = blob[start:offset].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: section {k} name is not utf-8") from None
        (ndim,) = u32s(1, f"section {name!r} rank")
        if ndim > 32:  # NumPy 1.x arrays hold at most 32 dimensions
            raise ValueError(f"{path}: section {name!r} has rank {ndim}")
        shape = u32s(ndim, f"section {name!r} shape")
        count = math.prod(shape)
        start = take(4 * count, f"section {name!r} payload")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start).reshape(shape)
        if not _all_finite(arr):
            raise ValueError(f"{path}: section {name!r} holds a non-finite value")
        out[name] = arr.copy()
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    return out


def save_checkpoint(m: ModelState, path: str | Path, extra: dict[str, np.ndarray] | None = None):
    """Write model parameters (plus optional extra sections, e.g. optimizer
    state) to ``path``."""
    arrays = m.to_arrays()
    if extra:
        for name, arr in extra.items():
            arrays[name] = arr
    write_arrays(path, arrays)


def load_checkpoint(m: ModelState, path: str | Path) -> dict[str, np.ndarray]:
    """Load parameters into ``m``; returns any non-parameter extra sections.
    Raises ``ValueError`` naming ``path`` for a checkpoint that does not fit ``m``."""
    arrays = read_arrays(path)
    try:
        m.load_arrays({k: v for k, v in arrays.items() if k in m.params})
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from None
    return {k: v for k, v in arrays.items() if k not in m.params}
