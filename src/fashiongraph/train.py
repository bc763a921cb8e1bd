"""Joint pairwise-ranking optimization of preference and compatibility.

Both objectives are Bayesian personalized ranking losses,
``-ln sigmoid(score_pos - score_neg)``, computed as ``softplus(-diff)`` so
large differences in either direction cannot overflow.  Each minibatch
optimizes

    L = lambda_rec * mean(rec losses) + lambda_comp * mean(comp losses)
        + l2 * sum(theta^2)

with Adam.  Negatives are resampled every epoch: recommendation negatives
are outfits the user never interacted with; compatibility negatives keep
the positive outfit's category template and swap every item for a random
item of the same category.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import Dataset, Splits
from .embed import ModelDims, ModelState, init_model
from .graph import FashionGraph
from .propagate import forward_tensors
from .rng import substream
from .score import outfit_rows, rview_scores_tensor


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    d: int = 64
    batch_size: int = 512
    lr: float = 0.001
    dropout_embed: float = 0.2
    dropout_attn: float = 0.3
    l2: float = 1e-4
    heads: int = 4
    r_views: int = 6
    epochs: int = 50
    seed: int = 0
    lambda_rec: float = 1.0
    lambda_comp: float = 1.0
    d_h: int = 256
    view_hidden: int = 32
    dtype: str = "float64"

    def __post_init__(self):
        """Reject a bad value, naming its key, before any data or file is touched."""
        values = vars(self)
        for key in ("d", "batch_size", "heads", "r_views", "epochs", "d_h", "view_hidden"):
            if values[key] < 1:
                raise ValueError(f"{key} must be positive, got {values[key]}")
        for key in ("lr", "l2", "lambda_rec", "lambda_comp"):
            if not 0.0 <= values[key] < math.inf:  # NaN fails both
                raise ValueError(f"{key} must be finite and >= 0, got {values[key]}")
        for key in ("dropout_embed", "dropout_attn"):
            if not 0.0 <= values[key] < 1.0:
                raise ValueError(f"{key} must lie in [0, 1), got {values[key]}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


@dataclass(frozen=True)
class TripleBatch:
    """Recommendation triples (u, o+, o-) and compatibility pairs (o+, items-),
    by id: the arrays hold uint64 ids, the item lists Python ints."""

    rec_users: np.ndarray
    rec_pos: np.ndarray
    rec_neg: np.ndarray
    comp_pos: np.ndarray
    comp_neg: tuple[tuple[int, ...], ...]  # generated item lists

    @property
    def n_rec(self) -> int:
        return len(self.rec_users)

    @property
    def n_comp(self) -> int:
        return len(self.comp_pos)


@dataclass(frozen=True)
class EpochStats:
    l_rec: float
    l_comp: float
    l_total: float
    n_rec: int
    n_comp: int


def make_model(graph: FashionGraph, ds: Dataset, cfg: TrainConfig) -> ModelState:
    dims = ModelDims(
        d=cfg.d,
        d_v=ds.d_v,
        d_t=ds.d_t,
        d_h=cfg.d_h,
        heads=cfg.heads,
        r_views=cfg.r_views,
        view_hidden=cfg.view_hidden,
    )
    return init_model(
        graph.n_users,
        graph.n_outfits,
        len(ds.categories),
        dims,
        cfg.seed,
        dtype=cfg.dtype,
    )


# ---------------------------------------------------------------------------
# losses


def bpr_rec_loss(score_pos, score_neg):
    """-ln sigmoid(pos - neg) by ``ad.softplus``, the kernel ``batch_loss``
    trains on; stable for arbitrarily large |pos - neg|."""
    diff = np.asarray(score_pos, dtype=np.float64) - np.asarray(score_neg, dtype=np.float64)
    out = ad.softplus(Tensor(-diff)).data
    return float(out) if out.ndim == 0 else out


bpr_comp_loss = bpr_rec_loss  # the same pairwise loss on compatibility scores


# ---------------------------------------------------------------------------
# negative sampling


TEMPLATE_ATTEMPTS = 100


def category_template_negative(
    ds: Dataset, outfit_id: int, rng: np.random.Generator
) -> tuple[int, ...] | None:
    """Sample an item list matching the outfit's category multiset.

    Each slot draws uniformly from its item's category pool
    (``ds.outfit_templates``), a pool that holds at least that item.
    Retries until the result is not a stored outfit's item set
    (``ds.outfit_sets``) and has no duplicate items; gives up after
    ``TEMPLATE_ATTEMPTS`` attempts.  One ``integers`` call per attempt draws
    every slot, with the same values and generator state as one ``choice``
    per slot.
    """
    pools, sizes = ds.outfit_templates[outfit_id]
    for _ in range(TEMPLATE_ATTEMPTS):
        candidate = tuple(map(list.__getitem__, pools, rng.integers(sizes).tolist()))
        items = frozenset(candidate)
        if len(items) == len(candidate) and items not in ds.outfit_sets:
            return candidate
    return None


def sample_negatives(ds: Dataset, split: Splits, seed: int, epoch: int = 0) -> TripleBatch:
    """Draw one negative per training positive; deterministic per (seed, epoch)."""
    rng = substream(seed, "sampling", epoch)
    all_outfits = np.array(sorted(ds.outfits), dtype=np.uint64)

    # With q the positions of a user's known outfits, known outfit i has
    # q[i] - i unknown ones before it, so the k-th unknown outfit (from 0)
    # sits at k + #{i : q[i] - i <= k}.  Each user's q - i is one block of
    # ``shifted``, raised by block * stride so the blocks stay apart: one
    # searchsorted then counts for every pair, and one ``integers`` call
    # over the kept pairs gives the same draws as one call per pair.
    n_outfits = len(all_outfits)
    stride = n_outfits + 1
    block_of: dict[int, int] = {}
    blocks: list[np.ndarray] = []
    rec_users, rec_pos, rec_block, n_unknown = [], [], [], []
    for u, o in split.pairs("train"):
        b = block_of.get(u)
        if b is None:
            known = np.array(sorted(split.user_known(u)), dtype=np.uint64)
            q = np.searchsorted(all_outfits, known)
            b = block_of[u] = len(blocks)
            blocks.append(q - np.arange(len(q)) + b * stride)
        n_unk = n_outfits - len(blocks[b])
        if n_unk == 0:
            warnings.warn(f"user {u} interacted with every outfit; skipping triple")
            continue
        rec_users.append(u)
        rec_pos.append(o)
        rec_block.append(b)
        n_unknown.append(n_unk)
    rec_neg = np.zeros(0, dtype=np.uint64)
    if rec_users:
        k = rng.integers(np.array(n_unknown))
        block = np.array(rec_block)
        block_starts = np.cumsum([0] + [len(q) for q in blocks])
        before = np.searchsorted(np.concatenate(blocks), k + block * stride, side="right")
        rec_neg = all_outfits[k + before - block_starts[block]]

    comp_pos, comp_neg = [], []
    for o in sorted(ds.outfits):
        negative = category_template_negative(ds, o, rng)
        if negative is None:
            warnings.warn(f"no category-template negative found for outfit {o}; skipping")
            continue
        comp_pos.append(o)
        comp_neg.append(negative)

    return TripleBatch(
        rec_users=np.array(rec_users, dtype=np.uint64),
        rec_pos=np.array(rec_pos, dtype=np.uint64),
        rec_neg=rec_neg,
        comp_pos=np.array(comp_pos, dtype=np.uint64),
        comp_neg=tuple(comp_neg),
    )


# ---------------------------------------------------------------------------
# batch objective


def batch_loss(
    m: ModelState,
    graph: FashionGraph,
    ds: Dataset,
    batch: TripleBatch,
    cfg: TrainConfig,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    objective: str = "bpr",
) -> tuple[Tensor, float, float]:
    """Differentiable batch objective; returns (loss, rec part, comp part).

    ``objective='raw'`` replaces the pairwise log-loss with the raw score
    differences (used by the gradient checker's linear diagnostics).
    """
    ft = forward_tensors(
        graph, ds, m, mode=mode, dropout=(cfg.dropout_embed, cfg.dropout_attn), rng=rng
    )
    terms = []
    l_rec = l_comp = 0.0

    def pairwise(pos: Tensor, neg: Tensor, weight: float) -> float:
        """Add ``weight`` x the mean pairwise term to ``terms``; return the mean."""
        diff = pos - neg
        term = ad.mean(ad.softplus(-diff) if objective == "bpr" else -diff)
        terms.append(Tensor(np.asarray(weight, dtype=m.dtype)) * term)
        return term.item()

    if batch.n_rec:
        u_idx = graph.rows("user", batch.rec_users)
        p_idx = graph.rows("outfit", batch.rec_pos)
        n_idx = graph.rows("outfit", batch.rec_neg)
        h_u = ad.gather(ft.h_user_star, u_idx, axis=0)
        y_pos = ad.sum_(h_u * ad.gather(ft.h_outfit_star, p_idx, axis=0), axis=1)
        y_neg = ad.sum_(h_u * ad.gather(ft.h_outfit_star, n_idx, axis=0), axis=1)
        l_rec = pairwise(y_pos, y_neg, cfg.lambda_rec)

    if batch.n_comp:
        # Positives and negatives in one call, so they share the per-item maps.
        pos_rows, pos_lengths = outfit_rows(graph, batch.comp_pos)
        neg_rows, neg_lengths = graph.list_rows("item", batch.comp_neg)
        scores = rview_scores_tensor(
            m, ft.h_item_star, np.concatenate([pos_rows, neg_rows]),
            np.concatenate([pos_lengths, neg_lengths]),
        )
        n = batch.n_comp
        l_comp = pairwise(ad.narrow(scores, 0, 0, n), ad.narrow(scores, 0, n, 2 * n),
                          cfg.lambda_comp)

    if cfg.l2 > 0:
        terms.append(Tensor(np.asarray(cfg.l2, dtype=m.dtype)) * ad.sum_squares(m.params.values()))

    if not terms:
        raise ValueError("batch contains no triples and l2 is zero")
    loss = terms[0]
    for t in terms[1:]:
        loss = loss + t
    return loss, l_rec, l_comp


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction; state is checkpointable."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    @classmethod
    def from_config(cls, cfg: TrainConfig) -> "Adam":
        return cls(lr=cfg.lr)

    def step(self, model: ModelState):
        """One update of every parameter that has a gradient, in place:
        ``m``, ``v`` and ``p.data`` keep their buffers, and each value is
        bit for bit that of the textbook expressions
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        p = p - lr (m / bc1) / (sqrt(v / bc2) + eps).  Every parameter's
        moments exist from the first step on, zero while it has no gradient,
        so every checkpoint holds them all."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in model.parameters():
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            if p.grad is None:
                continue
            g = np.asarray(p.grad)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            g_sq = (1.0 - self.beta2) * g
            g_sq *= g
            v *= self.beta2
            v += g_sq
            denom = np.divide(v, bc2, out=g_sq)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update = m / bc1
            update *= self.lr
            update /= denom
            p.data -= update

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {"opt/t": np.array([self.t], dtype=np.float32)}
        for name in self.m:
            arrays[f"opt/m/{name}"] = self.m[name]
            arrays[f"opt/v/{name}"] = self.v[name]
        return arrays

    def load_state_arrays(self, arrays: dict[str, np.ndarray], dtype):
        self.t = int(arrays["opt/t"][0])
        for key, value in arrays.items():
            if key.startswith("opt/m/"):
                self.m[key[len("opt/m/"):]] = value.astype(dtype)
            elif key.startswith("opt/v/"):
                self.v[key[len("opt/v/"):]] = value.astype(dtype)


# ---------------------------------------------------------------------------
# epoch loop


def train_epoch(
    m: ModelState,
    graph: FashionGraph,
    ds: Dataset,
    split: Splits,
    cfg: TrainConfig,
    optimizer: Adam,
    epoch: int,
) -> EpochStats:
    """One pass over shuffled triples with an Adam update per minibatch."""
    batch = sample_negatives(ds, split, cfg.seed, epoch)
    order_rng = substream(cfg.seed, "shuffle", epoch)
    rec_order = order_rng.permutation(batch.n_rec)
    comp_order = order_rng.permutation(batch.n_comp)
    n_batches = max(1, math.ceil(batch.n_rec / cfg.batch_size))
    rec_chunks = np.array_split(rec_order, n_batches)
    comp_chunks = np.array_split(comp_order, n_batches)

    rec_sum = comp_sum = total_sum = 0.0
    n_rec = n_comp = 0
    for b, (rec_sel, comp_sel) in enumerate(zip(rec_chunks, comp_chunks)):
        minibatch = TripleBatch(
            rec_users=batch.rec_users[rec_sel],
            rec_pos=batch.rec_pos[rec_sel],
            rec_neg=batch.rec_neg[rec_sel],
            comp_pos=batch.comp_pos[comp_sel],
            comp_neg=tuple(batch.comp_neg[i] for i in comp_sel),
        )
        rng = substream(cfg.seed, "dropout", epoch, b)
        loss, l_rec, l_comp = batch_loss(m, graph, ds, minibatch, cfg, mode="train", rng=rng)
        value = loss.item()
        if not np.isfinite(value):
            norms = {name: float(np.linalg.norm(p.data)) for name, p in m.parameters()}
            raise TrainingDivergedError(
                f"non-finite loss {value} in epoch {epoch} batch {b}; "
                f"parameter norms: {norms}"
            )
        m.zero_grads()
        loss.backward()
        optimizer.step(m)
        rec_sum += l_rec * len(rec_sel)
        comp_sum += l_comp * len(comp_sel)
        total_sum += value
        n_rec += len(rec_sel)
        n_comp += len(comp_sel)

    return EpochStats(
        l_rec=rec_sum / n_rec if n_rec else 0.0,
        l_comp=comp_sum / n_comp if n_comp else 0.0,
        l_total=total_sum / n_batches,
        n_rec=n_rec,
        n_comp=n_comp,
    )


# ---------------------------------------------------------------------------
# gradient verification


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_err: float
    per_group: dict[str, float] = field(repr=False, default_factory=dict)


def gradient_check(
    m: ModelState,
    graph: FashionGraph,
    ds: Dataset,
    sample: TripleBatch,
    cfg: TrainConfig,
    step: float = 1e-5,
    max_per_group: int | None = None,
    objective: str = "bpr",
) -> GradientCheckReport:
    """Compare backward gradients of the batch objective against central
    finite differences.

    Every parameter group is checked; groups larger than ``max_per_group``
    (when given) are checked at a seeded random subset of components so the
    whole suite stays fast.  Relative error per component is
    ``|g_a - g_n| / max(1, |g_a|, |g_n|)``.  Dropout is disabled; use a
    float64 model.
    """
    if m.dtype != np.float64:
        raise ValueError("gradient checking requires a float64 model")

    m.zero_grads()
    loss, _, _ = batch_loss(m, graph, ds, sample, cfg, mode="eval", objective=objective)
    loss.backward()
    analytic = {name: np.array(p.grad if p.grad is not None else np.zeros_like(p.data))
                for name, p in m.parameters()}

    def loss_value() -> float:
        with ad.no_grad():
            value, _, _ = batch_loss(m, graph, ds, sample, cfg, mode="eval", objective=objective)
        return value.item()

    rng = np.random.default_rng(0)
    per_group: dict[str, float] = {}
    for name, p in m.parameters():
        g_flat = analytic[name].ravel()
        size = p.data.size
        if max_per_group is not None and size > max_per_group:
            indices = np.sort(rng.choice(size, size=max_per_group, replace=False))
        else:
            indices = np.arange(size)
        worst = 0.0
        for k in indices:
            idx = np.unravel_index(k, p.data.shape)
            original = p.data[idx]
            p.data[idx] = original + step
            plus = loss_value()
            p.data[idx] = original - step
            minus = loss_value()
            p.data[idx] = original
            g_n = (plus - minus) / (2.0 * step)
            g_a = g_flat[k]
            rel = abs(g_a - g_n) / max(1.0, abs(g_a), abs(g_n))
            if rel > worst:
                worst = rel
        per_group[name] = worst
    return GradientCheckReport(max_rel_err=max(per_group.values()), per_group=per_group)
