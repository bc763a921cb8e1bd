"""Attention propagation over the three graph levels.

Each level refines the target embeddings from their neighbors:

    logit(t, s)  = LeakyReLU(a_k . [W_k h_t || W_k h_s])   (+ ln(w + eps) for
                   item-item edges, where w is the category co-occurrence
                   weight, acting as a multiplicative prior on attention)
    alpha(t, s)  = softmax over s in N(t)
    item level:  h_i' = h_i + LeakyReLU(sum_j alpha W_m (h_i * h_j))
    outfit/user: h_t' = h_t + LeakyReLU(sum_s alpha W_m h_s)

Four heads each carry their own (W_k, a_k); the message transform W_m is
shared per level, and head outputs are averaged.  Targets without
neighbors keep their embedding bitwise (empty sum, LeakyReLU(0) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import Dataset
from .embed import LEVELS, ModelState, fuse_items_tensor
from .graph import FashionGraph, ItemItemEdges

COOCCURRENCE_EPS = 1e-8


@dataclass(frozen=True)
class EdgeAttention:
    tgt: np.ndarray
    src: np.ndarray
    alpha: np.ndarray  # (heads, n_edges)


@dataclass(frozen=True, eq=False)
class PropagationOutput:
    h_item_star: np.ndarray
    h_outfit_star: np.ndarray
    h_user_star: np.ndarray
    attention: dict[str, EdgeAttention]
    graph: FashionGraph


@dataclass(frozen=True, eq=False)
class ForwardTensors:
    """Differentiable forward-pass results (used by the training loss)."""

    h_item: Tensor
    h_item_star: Tensor
    h_outfit_star: Tensor
    h_user_star: Tensor
    attention: dict[str, Tensor]
    edge_index: dict[str, tuple[np.ndarray, np.ndarray]]


def _split_attention_vector(a: Tensor, d: int) -> tuple[Tensor, Tensor]:
    return ad.narrow(a, 1, 0, d), ad.narrow(a, 1, d, 2 * d)


def edge_attention_tensor(
    m: ModelState,
    level: str,
    h_tgt: Tensor,
    h_src: Tensor,
    tgt_idx: np.ndarray,
    src_idx: np.ndarray,
    n_targets: int,
    bias: np.ndarray | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Per-edge attention weights for all heads, shape (heads, n_edges)."""
    d = m.dims.d
    heads = m.dims.heads
    n_edges = len(tgt_idx)
    if m.dims.uniform_attention:
        counts = np.bincount(tgt_idx, minlength=n_targets).astype(m.dtype)
        alpha = Tensor(np.broadcast_to(1.0 / counts[tgt_idx], (heads, n_edges)).copy())
    else:
        W = m.params[f"attn_w_{level}"]  # (heads, d, d)
        a = m.params[f"attn_a_{level}"]  # (heads, 2d)
        a_tgt, a_src = _split_attention_vector(a, d)
        HW_tgt = ad.matmul(h_tgt, ad.transpose(W, (0, 2, 1)))  # (heads, n_tgt, d)
        HW_src = HW_tgt if h_src is h_tgt else ad.matmul(h_src, ad.transpose(W, (0, 2, 1)))
        t_tgt = ad.sum_(HW_tgt * ad.reshape(a_tgt, (heads, 1, d)), axis=2)  # (heads, n_tgt)
        t_src = ad.sum_(HW_src * ad.reshape(a_src, (heads, 1, d)), axis=2)
        logits = ad.leaky_relu(
            ad.gather(t_tgt, tgt_idx, axis=1) + ad.gather(t_src, src_idx, axis=1),
            m.dims.leaky_slope,
        )
        if bias is not None:
            ln_bias = np.log(np.asarray(bias, dtype=np.float64) + COOCCURRENCE_EPS)
            logits = logits + Tensor(ln_bias.astype(m.dtype))
        alpha = ad.segment_softmax(logits, tgt_idx, n_targets, axis=1)
    if dropout_p > 0.0:
        if rng is None:
            raise ValueError("attention dropout needs an RNG")
        mask = (rng.random((heads, n_edges)) >= dropout_p).astype(m.dtype)
        kept = alpha * Tensor(mask)
        denom = ad.segment_sum(kept, tgt_idx, n_targets, axis=1)
        # Renormalize the surviving weights; a fully dropped neighborhood
        # contributes nothing (0/1 = 0).
        safe = (denom.data == 0.0).astype(m.dtype)
        alpha = kept / ad.gather(denom + Tensor(safe), tgt_idx, axis=1)
    return alpha


def attention_weights(
    m: ModelState,
    level: str,
    head: int,
    h_targets: np.ndarray,
    h_sources: np.ndarray,
    tgt_idx: np.ndarray,
    src_idx: np.ndarray,
    n_targets: int,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Normalized attention of one head as a plain array (n_edges,)."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    if not 0 <= head < m.dims.heads:
        raise ValueError(f"head {head} out of range")
    with ad.no_grad():
        alpha = edge_attention_tensor(
            m,
            level,
            Tensor(np.ascontiguousarray(h_targets, dtype=m.dtype)),
            Tensor(np.ascontiguousarray(h_sources, dtype=m.dtype)),
            np.asarray(tgt_idx),
            np.asarray(src_idx),
            n_targets,
            bias=bias,
        )
    return alpha.data[head].copy()


def _propagate_level_tensor(
    m: ModelState,
    level: str,
    h_tgt: Tensor,
    h_src: Tensor,
    tgt_idx: np.ndarray,
    src_idx: np.ndarray,
    n_targets: int,
    bias: np.ndarray | None = None,
    elementwise: bool = False,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    heads = m.dims.heads
    n_edges = len(tgt_idx)
    alpha = edge_attention_tensor(
        m, level, h_tgt, h_src, tgt_idx, src_idx, n_targets,
        bias=bias, dropout_p=dropout_p, rng=rng,
    )
    W_msg = ad.transpose(m.params[f"msg_w_{level}"], (1, 0))
    if elementwise:
        prod = ad.gather(h_tgt, tgt_idx, axis=0) * ad.gather(h_src, src_idx, axis=0)
        base = ad.matmul(prod, W_msg)  # (n_edges, d)
    else:
        base = ad.gather(ad.matmul(h_src, W_msg), src_idx, axis=0)
    weighted = ad.reshape(alpha, (heads, n_edges, 1)) * base  # (heads, n_edges, d)
    agg = ad.segment_sum(weighted, tgt_idx, n_targets, axis=1)
    update = ad.mean(ad.leaky_relu(agg, m.dims.leaky_slope), axis=0)
    return h_tgt + update, alpha


def propagate_item_item(
    edges: ItemItemEdges, h_items: np.ndarray, m: ModelState
) -> tuple[np.ndarray, np.ndarray]:
    """Refine item embeddings from their co-outfit neighborhoods.

    Returns (updated embeddings, per-head attention weights).
    """
    with ad.no_grad():
        h = Tensor(np.ascontiguousarray(h_items, dtype=m.dtype))
        out, alpha = _propagate_level_tensor(
            m, "item_item", h, h, edges.tgt, edges.src, h_items.shape[0],
            bias=edges.weight, elementwise=True,
        )
    return out.data, alpha.data


def propagate_item_outfit(
    graph: FashionGraph, h_items_star: np.ndarray, h_outfits: np.ndarray, m: ModelState
) -> tuple[np.ndarray, np.ndarray]:
    """Refine outfit embeddings from their (updated) item embeddings."""
    with ad.no_grad():
        out, alpha = _propagate_level_tensor(
            m,
            "item_outfit",
            Tensor(np.ascontiguousarray(h_outfits, dtype=m.dtype)),
            Tensor(np.ascontiguousarray(h_items_star, dtype=m.dtype)),
            graph.oi_tgt,
            graph.oi_src,
            graph.n_outfits,
        )
    return out.data, alpha.data


def propagate_outfit_user(
    graph: FashionGraph, h_outfits_star: np.ndarray, h_users: np.ndarray, m: ModelState
) -> tuple[np.ndarray, np.ndarray]:
    """Refine user embeddings from their training-interaction outfits."""
    with ad.no_grad():
        out, alpha = _propagate_level_tensor(
            m,
            "outfit_user",
            Tensor(np.ascontiguousarray(h_users, dtype=m.dtype)),
            Tensor(np.ascontiguousarray(h_outfits_star, dtype=m.dtype)),
            graph.uo_tgt,
            graph.uo_src,
            graph.n_users,
        )
    return out.data, alpha.data


def _dropout(x: Tensor, p: float, rng: np.random.Generator, dtype) -> Tensor:
    mask = (rng.random(x.shape) >= p).astype(dtype) / (1.0 - p)
    return x * Tensor(mask)


def forward_tensors(
    graph: FashionGraph,
    ds: Dataset,
    m: ModelState,
    mode: str = "eval",
    dropout: tuple[float, float] = (0.2, 0.3),
    rng: np.random.Generator | None = None,
) -> ForwardTensors:
    """Differentiable full forward pass: fuse items, then the three stages.

    ``mode='train'`` applies inverted dropout to the initial embeddings and
    renormalized dropout to the attention weights; ``'eval'`` is
    deterministic.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    training = mode == "train"
    p_embed, p_attn = dropout if training else (0.0, 0.0)
    if training and (p_embed > 0 or p_attn > 0) and rng is None:
        raise ValueError("training mode with dropout needs an RNG")

    X_v, X_t, cats = ds.item_features  # rows in graph.item_ids order
    h_item = fuse_items_tensor(m, X_v, X_t, cats)
    h_outfit = m.params["outfit_table"]
    h_user = m.params["user_table"]
    if training and p_embed > 0:
        h_item = _dropout(h_item, p_embed, rng, m.dtype)
        h_outfit = _dropout(h_outfit, p_embed, rng, m.dtype)
        h_user = _dropout(h_user, p_embed, rng, m.dtype)

    attn_p = p_attn if training else 0.0
    h_item_star, alpha_ii = _propagate_level_tensor(
        m, "item_item", h_item, h_item,
        graph.item_edges.tgt, graph.item_edges.src, graph.n_items,
        bias=graph.item_edges.weight, elementwise=True, dropout_p=attn_p, rng=rng,
    )
    h_outfit_star, alpha_io = _propagate_level_tensor(
        m, "item_outfit", h_outfit, h_item_star,
        graph.oi_tgt, graph.oi_src, graph.n_outfits, dropout_p=attn_p, rng=rng,
    )
    h_user_star, alpha_ou = _propagate_level_tensor(
        m, "outfit_user", h_user, h_outfit_star,
        graph.uo_tgt, graph.uo_src, graph.n_users, dropout_p=attn_p, rng=rng,
    )
    return ForwardTensors(
        h_item=h_item,
        h_item_star=h_item_star,
        h_outfit_star=h_outfit_star,
        h_user_star=h_user_star,
        attention={"item_item": alpha_ii, "item_outfit": alpha_io, "outfit_user": alpha_ou},
        edge_index={
            "item_item": (graph.item_edges.tgt, graph.item_edges.src),
            "item_outfit": (graph.oi_tgt, graph.oi_src),
            "outfit_user": (graph.uo_tgt, graph.uo_src),
        },
    )


def forward(
    graph: FashionGraph,
    ds: Dataset,
    m: ModelState,
    mode: str = "eval",
    dropout: tuple[float, float] = (0.2, 0.3),
    rng: np.random.Generator | None = None,
) -> PropagationOutput:
    """Run the full pass and materialize arrays plus cached attention."""
    with ad.no_grad():
        ft = forward_tensors(graph, ds, m, mode=mode, dropout=dropout, rng=rng)
    attention = {
        level: EdgeAttention(
            tgt=ft.edge_index[level][0],
            src=ft.edge_index[level][1],
            alpha=ft.attention[level].data.copy(),
        )
        for level in LEVELS
    }
    return PropagationOutput(
        h_item_star=ft.h_item_star.data,
        h_outfit_star=ft.h_outfit_star.data,
        h_user_star=ft.h_user_star.data,
        attention=attention,
        graph=graph,
    )


def dump_attention(prop: PropagationOutput, path) -> None:
    """Write per-edge attention as ``level<TAB>target<TAB>source<TAB>head<TAB>alpha``."""
    graph = prop.graph
    id_maps = {
        "item_item": (graph.item_ids, graph.item_ids),
        "item_outfit": (graph.outfit_ids, graph.item_ids),
        "outfit_user": (graph.user_ids, graph.outfit_ids),
    }
    with open(path, "w", encoding="utf-8") as fh:
        for level in LEVELS:
            rec = prop.attention[level]
            tgt_ids, src_ids = id_maps[level]
            for head in range(rec.alpha.shape[0]):
                for e in range(rec.alpha.shape[1]):
                    fh.write(
                        f"{level}\t{tgt_ids[rec.tgt[e]]}\t{src_ids[rec.src[e]]}"
                        f"\t{head}\t{rec.alpha[head, e]:.12g}\n"
                    )
