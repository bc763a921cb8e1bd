"""Preference and compatibility scoring.

A user's preference for an outfit is the inner product of their updated
embeddings.  Outfit compatibility stacks the outfit's updated item
embeddings into a matrix O (n x d) and evaluates R parallel views:

    A = row_softmax(W_a_out . LeakyReLU(W_a_in . O^T))   (R x n, rows sum to 1)
    C = tanh(W_c_out . LeakyReLU(W_c_in . O^T))          (R x n, entries in (-1, 1))
    s = (1/R) sum_r a_r . c_r

Each view weighs the items (A) and scores their fit (C); the final score
is the mean of the per-view weighted scores, so it stays in (-1, 1)
regardless of R.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .embed import ModelState
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


def score_item_lists(item_lists, prop: PropagationOutput, m: ModelState) -> np.ndarray:
    """Compatibility scores of many item combinations: one tape-free
    ``rview_scores_tensor`` pass over the updated item rows."""
    index = prop.graph.item_index
    rows = [np.array([index[i] for i in items], dtype=np.int64) for items in item_lists]
    with ad.no_grad():
        return rview_scores_tensor(m, Tensor(prop.h_item_star), rows).data


def score_items(item_ids, prop: PropagationOutput, m: ModelState) -> float:
    """Compatibility score of an arbitrary item combination."""
    return float(score_item_lists([item_ids], prop, m)[0])


def rview_scores_tensor(m: ModelState, h_items: Tensor, item_rows: list[np.ndarray]) -> Tensor:
    """Differentiable compatibility scores for a batch of item-row lists.

    Outfits of different sizes are padded; padded positions receive a large
    negative attention logit, so they carry exactly zero weight and zero
    gradient.  Returns a (batch,) tensor.
    """
    if not item_rows:
        raise ValueError("empty batch")
    lengths = np.array([len(r) for r in item_rows])
    present = np.arange(lengths.max()) < lengths[:, None]  # (B, n_max)
    idx = np.zeros(present.shape, dtype=np.int64)
    idx[present] = np.concatenate(item_rows)
    pad_bias = np.where(present, 0.0, PAD_LOGIT).astype(m.dtype)[:, None, :]
    O = ad.reshape(ad.gather(h_items, idx.ravel(), axis=0), (*present.shape, m.dims.d))
    A, C = _rview_maps(m, ad.transpose(O, (0, 2, 1)), pad_bias)
    return ad.sum_(A * C, axis=(1, 2)) / float(m.dims.r_views)


def _rview_maps(m: ModelState, O_T: Tensor, pad_bias: np.ndarray) -> tuple[Tensor, Tensor]:
    """Attention A and compatibility C, each (B, R, n), of the transposed
    outfit matrices ``O_T`` (B, d, n); ``pad_bias`` (B, 1, n) is 0 on items
    and PAD_LOGIT on padding.  C lies in (-1, 1), though in floating point
    tanh rounds to exactly 1.0 once its argument exceeds about 19."""
    slope = m.dims.leaky_slope
    att_hidden = ad.leaky_relu(ad.matmul(m.params["view_attn_in"], O_T), slope)
    logits = ad.matmul(m.params["view_attn_out"], att_hidden) + Tensor(pad_bias)
    row_max = logits.data.max(axis=2, keepdims=True)
    z = ad.exp(logits - Tensor(row_max))
    A = z / ad.sum_(z, axis=2, keepdims=True)

    comp_hidden = ad.leaky_relu(ad.matmul(m.params["view_compat_in"], O_T), slope)
    pre = ad.matmul(m.params["view_compat_out"], comp_hidden)
    return A, (pre if m.dims.linear_compat else ad.tanh(pre))


def order_candidates(candidate_ids, scores: dict[int, float]) -> list[int]:
    """Sort ids by descending score, ties broken by ascending id."""
    return sorted(candidate_ids, key=lambda oid: (-scores[oid], oid))
