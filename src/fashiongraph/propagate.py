"""Attention propagation over the three graph levels.

Each level refines the target embeddings from their neighbors:

    logit(t, s)  = LeakyReLU(a_k . [W_k h_t || W_k h_s])   (+ ln(w + eps) on a
                   level whose edges carry a prior: the item-item category
                   co-occurrence weight w, a multiplicative prior on attention)
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
from .graph import FashionGraph, LevelEdges

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

    h_item_star: Tensor
    h_outfit_star: Tensor
    h_user_star: Tensor
    attention: dict[str, Tensor]


def attention_logits(
    m: ModelState,
    level: str,
    h_tgt: Tensor,
    h_src: Tensor,
    edges: LevelEdges,
) -> Tensor:
    """Pre-softmax attention logits of all heads, shape (heads, n_edges).

    a_k . [W_k h_t || W_k h_s] = (W_k^T a_tgt) . h_t + (W_k^T a_src) . h_s,
    so W_k is folded into the two vectors once and each node costs one
    product with them; no (heads, n, d) projection is built.
    """
    d, heads = m.dims.d, m.dims.heads
    a = ad.reshape(m.params[f"attn_a_{level}"], (heads, 2, d))
    v = ad.transpose(ad.matmul(a, m.params[f"attn_w_{level}"]), (0, 2, 1))  # (heads, d, 2)
    if h_src is h_tgt:
        both = ad.matmul(h_tgt, v)  # (heads, n, 2)
        t_tgt, t_src = ad.narrow(both, 2, 0, 1), ad.narrow(both, 2, 1, 2)
    else:
        t_tgt = ad.matmul(h_tgt, ad.narrow(v, 2, 0, 1))  # (heads, n_tgt, 1)
        t_src = ad.matmul(h_src, ad.narrow(v, 2, 1, 2))
    pair = ad.gather(t_tgt, edges.by_tgt, axis=1) + ad.gather(t_src, edges.by_src, axis=1)
    logits = ad.leaky_relu(ad.reshape(pair, (heads, len(edges.tgt))), m.dims.leaky_slope)
    if edges.prior is not None:
        ln_prior = np.log(edges.prior + COOCCURRENCE_EPS)
        logits = logits + Tensor(ln_prior.astype(m.dtype))
    return logits


def edge_attention_tensor(
    m: ModelState,
    level: str,
    h_tgt: Tensor,
    h_src: Tensor,
    edges: LevelEdges,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Per-edge attention weights for all heads, shape (heads, n_edges)."""
    heads = m.dims.heads
    n_edges = len(edges.tgt)
    if m.dims.uniform_attention:
        lengths = np.diff(edges.by_tgt.starts, append=n_edges)  # per non-empty target
        per_edge = np.repeat(1.0 / lengths.astype(m.dtype), lengths)
        alpha = Tensor(np.broadcast_to(per_edge, (heads, n_edges)).copy())
    else:
        logits = attention_logits(m, level, h_tgt, h_src, edges)
        alpha = ad.segment_softmax(logits, edges.by_tgt, edges.n_tgt, axis=1)
    if dropout_p > 0.0:
        if rng is None:
            raise ValueError("attention dropout needs an RNG")
        mask = (rng.random((heads, n_edges)) >= dropout_p).astype(m.dtype)
        kept = alpha * Tensor(mask)
        denom = ad.segment_sum(kept, edges.by_tgt, edges.n_tgt, axis=1)
        # Renormalize the surviving weights; a fully dropped neighborhood
        # contributes nothing (0/1 = 0).
        safe = (denom.data == 0.0).astype(m.dtype)
        alpha = kept / ad.gather(denom + Tensor(safe), edges.by_tgt, axis=1)
    return alpha


def _propagate_level_tensor(
    m: ModelState,
    level: str,
    h_tgt: Tensor,
    h_src: Tensor,
    edges: LevelEdges,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """One level's updated targets and its attention (heads, n_edges)."""
    alpha = edge_attention_tensor(m, level, h_tgt, h_src, edges, dropout_p=dropout_p, rng=rng)
    W_msg = ad.transpose(m.params[f"msg_w_{level}"], (1, 0))
    # W_m is linear, so it is applied per node, never per edge: at the item-
    # item level sum_s alpha W_m (h_t * h_s) = W_m (h_t * sum_s alpha h_s); at
    # the other levels each source is transformed once before the sum.
    if level == "item_item":
        agg = ad.matmul(h_tgt * ad.edge_sum(alpha, h_src, edges), W_msg)  # (heads, n_tgt, d)
    else:
        agg = ad.edge_sum(alpha, ad.matmul(h_src, W_msg), edges)
    update = ad.mean(ad.leaky_relu(agg, m.dims.leaky_slope), axis=0)
    return h_tgt + update, alpha


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
    p_embed, p_attn = dropout if mode == "train" else (0.0, 0.0)
    if (p_embed > 0 or p_attn > 0) and rng is None:
        raise ValueError("training mode with dropout needs an RNG")

    X_v, X_t, _ = ds.item_features  # rows in graph.item_ids order
    h = {
        "item": fuse_items_tensor(m, X_v, X_t),
        "outfit": m.params["outfit_table"],
        "user": m.params["user_table"],
    }
    if p_embed > 0:
        h = {kind: _dropout(x, p_embed, rng, m.dtype) for kind, x in h.items()}

    attention = {}
    for level in LEVELS:  # in order: a level reads what the one before it updated
        src, tgt = level.split("_")
        h[tgt], attention[level] = _propagate_level_tensor(
            m, level, h[tgt], h[src], graph.levels[level], dropout_p=p_attn, rng=rng
        )
    return ForwardTensors(
        h_item_star=h["item"],
        h_outfit_star=h["outfit"],
        h_user_star=h["user"],
        attention=attention,
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
            graph.levels[level].tgt, graph.levels[level].src, alpha=ft.attention[level].data
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
