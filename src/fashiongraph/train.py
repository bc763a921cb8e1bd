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
from .score import rview_scores_tensor


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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    d_h: int = 256
    view_hidden: int = 32
    dtype: str = "float64"

    def __post_init__(self):
        if min(self.d, self.batch_size, self.heads, self.r_views, self.epochs) <= 0:
            raise ValueError("dimensions, batch size, and epochs must be positive")
        if self.lr < 0 or self.l2 < 0:
            raise ValueError("lr and l2 must be non-negative")
        for p in (self.dropout_embed, self.dropout_attn):
            if not 0.0 <= p < 1.0:
                raise ValueError("dropout rates must lie in [0, 1)")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


@dataclass(frozen=True)
class TripleBatch:
    """Recommendation triples (u, o+, o-) and compatibility pairs (o+, items-)."""

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
        dtype=cfg.np_dtype,
    )


# ---------------------------------------------------------------------------
# losses


def bpr_rec_loss(score_pos, score_neg):
    """-ln sigmoid(pos - neg); stable for arbitrarily large |pos - neg|."""
    diff = np.asarray(score_pos, dtype=np.float64) - np.asarray(score_neg, dtype=np.float64)
    out = np.logaddexp(0.0, -diff)
    return float(out) if out.ndim == 0 else out


def bpr_comp_loss(score_pos, score_neg):
    """Same pairwise loss applied to compatibility scores."""
    return bpr_rec_loss(score_pos, score_neg)


# ---------------------------------------------------------------------------
# negative sampling


def category_pools(ds: Dataset, item_ids) -> dict[int, np.ndarray]:
    """The ``item_ids`` of each category, ascending, as int64 arrays."""
    pools: dict[int, list[int]] = {}
    for iid in sorted(item_ids):
        pools.setdefault(ds.items[iid].category, []).append(iid)
    return {cat: np.array(ids, dtype=np.int64) for cat, ids in pools.items()}


def category_template_negative(
    ds: Dataset,
    outfit_id: int,
    by_category: dict[int, np.ndarray],
    outfit_sets: set[frozenset[int]],
    rng: np.random.Generator,
    bound: int = 100,
) -> tuple[int, ...] | None:
    """Sample an item list matching the outfit's category multiset.

    Each slot draws uniformly from ``by_category`` (``category_pools``) for
    its item's category, a pool that holds at least that item.  Retries
    until the result is not an existing outfit and has no duplicate items;
    gives up after ``bound`` attempts.
    """
    template = [ds.items[i].category for i in ds.outfits[outfit_id]]
    for _ in range(bound):
        candidate = tuple(int(rng.choice(by_category[cat])) for cat in template)
        if len(set(candidate)) != len(candidate):
            continue
        if frozenset(candidate) not in outfit_sets:
            return candidate
    return None


def sample_negatives(ds: Dataset, split: Splits, seed: int, epoch: int = 0) -> TripleBatch:
    """Draw one negative per training positive; deterministic per (seed, epoch)."""
    rng = substream(seed, "sampling", epoch)
    all_outfits = np.array(sorted(ds.outfits), dtype=np.int64)

    rec_users, rec_pos, rec_neg = [], [], []
    for u, o in split.pairs("train"):
        known = split.user_known(u)
        candidates = all_outfits[~np.isin(all_outfits, sorted(known))]
        if len(candidates) == 0:
            warnings.warn(f"user {u} interacted with every outfit; skipping triple")
            continue
        rec_users.append(u)
        rec_pos.append(o)
        rec_neg.append(int(candidates[rng.integers(len(candidates))]))

    by_category = category_pools(ds, ds.items)
    outfit_sets = {frozenset(m) for m in ds.outfits.values()}
    comp_pos, comp_neg = [], []
    for o in sorted(ds.outfits):
        negative = category_template_negative(ds, o, by_category, outfit_sets, rng)
        if negative is None:
            warnings.warn(f"no category-template negative found for outfit {o}; skipping")
            continue
        comp_pos.append(o)
        comp_neg.append(negative)

    return TripleBatch(
        rec_users=np.array(rec_users, dtype=np.int64),
        rec_pos=np.array(rec_pos, dtype=np.int64),
        rec_neg=np.array(rec_neg, dtype=np.int64),
        comp_pos=np.array(comp_pos, dtype=np.int64),
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

    if batch.n_rec:
        u_idx = np.array([graph.user_index[u] for u in batch.rec_users])
        p_idx = np.array([graph.outfit_index[o] for o in batch.rec_pos])
        n_idx = np.array([graph.outfit_index[o] for o in batch.rec_neg])
        h_u = ad.gather(ft.h_user_star, u_idx, axis=0)
        y_pos = ad.sum_(h_u * ad.gather(ft.h_outfit_star, p_idx, axis=0), axis=1)
        y_neg = ad.sum_(h_u * ad.gather(ft.h_outfit_star, n_idx, axis=0), axis=1)
        diff = y_pos - y_neg
        rec = ad.mean(ad.softplus(-diff) if objective == "bpr" else -diff)
        l_rec = rec.item()
        terms.append(Tensor(np.asarray(cfg.lambda_rec, dtype=m.dtype)) * rec)

    if batch.n_comp:
        item_index = graph.item_index
        pos_rows = [
            np.array([item_index[i] for i in graph.outfit_items[o]]) for o in batch.comp_pos
        ]
        neg_rows = [np.array([item_index[i] for i in items]) for items in batch.comp_neg]
        s_pos = rview_scores_tensor(m, ft.h_item_star, pos_rows)
        s_neg = rview_scores_tensor(m, ft.h_item_star, neg_rows)
        diff = s_pos - s_neg
        comp = ad.mean(ad.softplus(-diff) if objective == "bpr" else -diff)
        l_comp = comp.item()
        terms.append(Tensor(np.asarray(cfg.lambda_comp, dtype=m.dtype)) * comp)

    if cfg.l2 > 0:
        sq = [ad.sum_(p * p) for p in m.params.values()]
        total_sq = sq[0]
        for part in sq[1:]:
            total_sq = total_sq + part
        terms.append(Tensor(np.asarray(cfg.l2, dtype=m.dtype)) * total_sq)

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
        return cls(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)

    def step(self, model: ModelState):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in model.parameters():
            if p.grad is None:
                continue
            g = np.asarray(p.grad)
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {"opt/t": np.array([self.t], dtype=np.float32)}
        for name in self.m:
            arrays[f"opt/m/{name}"] = self.m[name]
            arrays[f"opt/v/{name}"] = self.v[name]
        return arrays

    def load_state_arrays(self, arrays: dict[str, np.ndarray], dtype):
        if "opt/t" in arrays:
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
    n_batches = max(1, math.ceil(batch.n_rec / cfg.batch_size)) if batch.n_rec else 1
    rec_chunks = np.array_split(rec_order, n_batches)
    comp_chunks = np.array_split(comp_order, n_batches)

    rec_sum = comp_sum = total_sum = 0.0
    n_rec = n_comp = 0
    for b in range(n_batches):
        rec_sel = rec_chunks[b] if batch.n_rec else np.array([], dtype=np.int64)
        comp_sel = comp_chunks[b] if batch.n_comp else np.array([], dtype=np.int64)
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
    component_seed: int = 0,
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

    rng = np.random.default_rng(component_seed)
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
