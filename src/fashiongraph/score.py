"""Preference and compatibility scoring.

A user's preference for an outfit is the inner product of their updated
embeddings.  Outfit compatibility evaluates R parallel views over the
outfit's updated item embeddings h_1 .. h_n.  Each view's two maps act on
one item alone, so they are computed once per item row:

    l_i = W_a_out . LeakyReLU(W_a_in . h_i)         (R,) attention logits
    c_i = tanh(W_c_out . LeakyReLU(W_c_in . h_i))   (R,) fit, in (-1, 1)

Only the softmax over the outfit's items mixes rows:

    a_ri = exp(l_ri) / sum_j exp(l_rj)              (each view sums to 1)
    s = (1/R) sum_r sum_i a_ri c_ri

Each view weighs the items (a) and scores their fit (c); the final score
is the mean of the per-view weighted scores, so it stays in (-1, 1)
regardless of R.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .embed import ModelState
from .graph import FashionGraph
from .propagate import PropagationOutput

PAD_LOGIT = -1e30


def rec_score(h_user_star: np.ndarray, h_outfit_star: np.ndarray) -> float:
    """Preference score: raw inner product of the two updated embeddings."""
    u = np.asarray(h_user_star)
    o = np.asarray(h_outfit_star)
    if u.shape != o.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {o.shape}")
    return float(u @ o)


def view_scores(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Per-view weighted scores a_r . c_r."""
    A = np.asarray(A, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if A.shape != C.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {C.shape}")
    return (A * C).sum(axis=1)


def outfit_compat_score(A: np.ndarray, C: np.ndarray) -> float:
    """Mean of the per-view weighted scores."""
    return float(view_scores(A, C).mean())


def outfit_rows(graph: FashionGraph, outfit_ids) -> tuple[np.ndarray, np.ndarray]:
    """Item rows of stored outfits, in outfit order, as flat rows and one
    length per outfit: runs of the item-outfit level's target-sorted edges."""
    level = graph.levels["item_outfit"]
    outfits = graph.rows("outfit", outfit_ids)
    first = np.searchsorted(level.tgt, outfits)
    lengths = np.searchsorted(level.tgt, outfits, side="right") - first
    shift = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    return level.src[np.arange(len(shift)) + shift], lengths


def score_rows(rows: np.ndarray, lengths: np.ndarray, prop: PropagationOutput,
               m: ModelState) -> np.ndarray:
    """Compatibility scores of item lists given as flat updated-item rows
    and one length per list: one tape-free ``rview_scores_tensor`` call."""
    with ad.no_grad():
        return rview_scores_tensor(m, Tensor(prop.h_item_star), rows, lengths).data


def score_items(item_ids, prop: PropagationOutput, m: ModelState) -> float:
    """Compatibility score of an arbitrary item combination."""
    return float(score_rows(*prop.graph.list_rows("item", [item_ids]), prop, m)[0])


def view_maps(m: ModelState, h_items: Tensor) -> tuple[Tensor, Tensor]:
    """Attention logits L and fits C of every row of ``h_items`` (n, d),
    each (R, n).  C lies in (-1, 1), though in floating point tanh rounds
    to exactly 1.0 once its argument exceeds about 19."""
    slope = m.dims.leaky_slope
    h_T = ad.transpose(h_items, (1, 0))
    att_hidden = ad.leaky_relu(ad.matmul(m.params["view_attn_in"], h_T), slope)
    logits = ad.matmul(m.params["view_attn_out"], att_hidden)
    comp_hidden = ad.leaky_relu(ad.matmul(m.params["view_compat_in"], h_T), slope)
    pre = ad.matmul(m.params["view_compat_out"], comp_hidden)
    return logits, (pre if m.dims.linear_compat else ad.tanh(pre))


def rview_scores_tensor(
    m: ModelState, h_items: Tensor, rows: np.ndarray, lengths: np.ndarray
) -> Tensor:
    """Differentiable compatibility scores of a batch of item lists.

    List b holds the next ``lengths[b]`` of the flat item ``rows`` of
    ``h_items``.  The per-item maps are computed once per row of
    ``h_items``; lists are padded to the longest, and padded positions
    receive a large negative attention logit, so they carry exactly zero
    weight and zero gradient.  Returns a (batch,) tensor.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if not len(lengths):
        raise ValueError("empty batch")
    if lengths.min() < 1 or lengths.sum() != len(rows):
        raise ValueError("every list needs at least one item, and the lengths must cover rows")
    # Item slots run along axis 1 of (R, n_max, B) arrays, so every
    # reduction over a list's items adds whole rows of B values.
    present = np.arange(lengths.max())[:, None] < lengths  # (n_max, B)
    idx = np.zeros(present.shape, dtype=np.int64)
    idx.T[present.T] = rows
    pad_bias = np.where(present, 0.0, PAD_LOGIT).astype(m.dtype)
    logits, C = view_maps(m, h_items)
    shape = (m.dims.r_views, *present.shape)
    logits = ad.reshape(ad.gather(logits, idx.ravel(), axis=1), shape) + Tensor(pad_bias)
    z = ad.exp(logits - Tensor(logits.data.max(axis=1, keepdims=True)))
    A = z / ad.sum_(z, axis=1, keepdims=True)
    C = ad.reshape(ad.gather(C, idx.ravel(), axis=1), shape)
    # Items first, then views: the float64 summation order reports rest on.
    per_view = ad.sum_(A * C, axis=1)  # (R, B)
    return ad.sum_(per_view, axis=0) / float(m.dims.r_views)


def order_candidates(candidate_ids, scores: dict[int, float]) -> list[int]:
    """Sort ids by descending score, ties broken by ascending id."""
    return sorted(candidate_ids, key=lambda oid: (-scores[oid], oid))
