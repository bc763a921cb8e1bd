"""Ranking and compatibility evaluation.

Per user, every outfit outside the train/validation sets is scored by the
preference score (no sampled candidate subset) and the top k of them are
selected without sorting the rest; HR, Recall, Precision, and NDCG are
computed at k and averaged over users with at least one relevant outfit.
Scores come in user x outfit blocks of ``RANK_BLOCK`` users, and one kernel
ranks each block: one ``np.partition`` finds every row's k-th best score,
and one ``lexsort`` orders the candidates no worse than it, NaN last.  The
metrics come from a users x k hit matrix.

Compatibility is measured by AUC of stored outfits against
category-template negatives and by fill-in-the-blank (FLTB) accuracy: one
outfit item is masked and the model must pick it from four candidates by
compatibility score.  Each metric draws from its own substream: the AUC
negatives outfit by outfit, the FLTB trials in a few bulk calls.  Item
lists are then item rows (stored outfits read off the item-outfit level),
and each metric scores all of its lists in one call."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataio import Dataset, Splits
from .embed import ModelState
from .graph import FashionGraph
from .propagate import PropagationOutput, forward
from .rng import substream
from .score import outfit_rows, score_rows
from .score import score_items  # noqa: F401 (perfbench reads E.score_items)
from .train import category_template_negative

# Users per score block.  Fixed, whatever the thread count: BLAS may round a
# row differently in a block of another shape, and the report must not move.
RANK_BLOCK = 128


@dataclass(frozen=True)
class UserMetrics:
    user: int
    hr: float
    recall: float
    precision: float
    ndcg: float


@dataclass(frozen=True)
class RankingReport:
    k: int
    split_part: str
    hr: float
    recall: float
    precision: float
    ndcg: float
    auc: float | None
    fltb_accuracy: float | None
    n_users_evaluated: int
    n_users_skipped: int
    n_fltb_trials: int
    per_user: tuple[UserMetrics, ...] = field(repr=False, default=())


def topk_metrics(ranked, relevants, k: int) -> tuple[float, float, float, float]:
    """HR, Recall, Precision, NDCG of one ranked list against a relevant set:
    the one-row case of ``block_metrics``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    relevants = set(relevants)
    if not relevants:
        raise ValueError("empty relevant set; caller must skip this user")
    top = list(ranked)[:k]
    hits = np.zeros((1, k), dtype=bool)
    hits[0, : len(top)] = [o in relevants for o in top]
    return tuple(float(v[0]) for v in block_metrics(hits, np.array([len(relevants)]), k))


def block_metrics(hits: np.ndarray, n_relevant: np.ndarray, k: int):
    """HR, Recall, Precision, NDCG at ``k`` of each row of ``hits``, a
    (users, k) bool matrix whose row marks which of a user's ranked outfits,
    best first, are relevant (False past the end of a shorter list), against
    ``n_relevant`` relevant outfits per user: four float64 arrays.

    DCG and the ideal DCG are sequential sums (``np.cumsum``) of
    ``1 / math.log2(rank + 1)``, so each row is exact against summing the
    discounts one by one."""
    discount = np.array([1.0 / math.log2(rank + 1) for rank in range(1, k + 1)])
    n_hits = np.count_nonzero(hits, axis=1)
    dcg = np.cumsum(np.where(hits, discount, 0.0), axis=1)[:, -1]
    ideal = np.cumsum(discount)[np.minimum(n_relevant, k) - 1]
    return (n_hits > 0).astype(np.float64), n_hits / n_relevant, n_hits / k, dcg / ideal


def auc(pos_scores, neg_scores) -> float:
    """Probability a positive outscores a negative; ties count one half."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.sort(np.asarray(neg_scores, dtype=np.float64))
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score sets must be nonempty")
    below, not_above = (np.searchsorted(neg, pos, side=s) for s in ("left", "right"))
    # (below + not_above) / 2 = wins + ties / 2, the Mann-Whitney U, exact in float64
    return float((below + not_above).sum() / 2.0 / (pos.size * neg.size))


def _user_outfit_rows(graph: FashionGraph, parts, user_ids) -> tuple[np.ndarray, np.ndarray]:
    """Each user's outfits in ``parts`` (maps of user id to outfit ids) as
    outfit rows from one lookup, concatenated in user order, and the offsets
    of each user's run."""
    rows, counts = graph.list_rows("outfit", [part.get(u, ()) for u in user_ids for part in parts])
    offsets = np.concatenate([[0], np.cumsum(counts.reshape(len(user_ids), len(parts)).sum(1))])
    return rows, offsets


def _mark(matrix: np.ndarray, rows: np.ndarray, offsets: np.ndarray, lo: int, hi: int, value):
    """``matrix[i - lo, r] = value`` for every row r of user i, lo <= i < hi,
    in ``_user_outfit_rows``' layout, in one scatter."""
    owner = np.repeat(np.arange(hi - lo), np.diff(offsets[lo : hi + 1]))
    matrix[owner, rows[offsets[lo] : offsets[hi]]] = value


def _top_k(negated: np.ndarray, candidate: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``np.argsort(row[candidates], kind="stable")[:k]`` as a
    (rows, k) column matrix padded with -1, where ``negated`` is +inf off
    ``candidate``.  Below the row length, one ``np.partition`` finds each
    row's k-th smallest value t, and the row takes its candidates not above
    t: those at most a finite t, which hold its first k, and NaNs, which
    sort last; all of them when t is NaN or +inf.  One stable ``lexsort`` by
    (row, value) orders the taken entries, ties in column order.  Candidacy
    is a mask because a -inf score also negates to +inf."""
    taken = candidate
    if k < negated.shape[1]:
        kth = np.partition(negated, k - 1, axis=1)[:, k - 1, None]
        taken = candidate & ~(negated > kth)  # NaN is never above t
    r, c = np.divmod(np.flatnonzero(taken), negated.shape[1])  # row-major order
    c = c[np.lexsort((negated[r, c], r))]  # a stable sort: ties keep column order
    rank = np.arange(len(r)) - np.searchsorted(r, r)  # position within the row
    head = rank < k
    columns = np.full((len(negated), k), -1, dtype=np.int64)
    columns[r[head], rank[head]] = c[head]
    return columns


def _top_k_blocks(users, prop: PropagationOutput, graph: FashionGraph, split: Splits,
                  exclude_val: bool, k: int):
    """Yield, for each RANK_BLOCK-user score block that holds any of
    ``users``, those users in row order, ``_top_k`` of their candidates (the
    outfits outside train, and val with ``exclude_val``) and their rows of
    the block's scores."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = np.sort(graph.rows("user", users))
    user_ids = graph.user_ids[rows].tolist()
    parts = (split.train, split.val) if exclude_val else (split.train,)
    seen, offsets = _user_outfit_rows(graph, parts, user_ids)
    starts = rows - rows % RANK_BLOCK
    edges = [0, *(np.flatnonzero(np.diff(starts)) + 1).tolist(), len(rows)] if len(rows) else []
    for lo, hi in zip(edges[:-1], edges[1:]):
        start = int(starts[lo])
        block = prop.h_user_star[start : start + RANK_BLOCK] @ prop.h_outfit_star.T
        scores = block[rows[lo:hi] - start]
        negated, candidate = -scores, np.ones(scores.shape, dtype=bool)
        _mark(negated, seen, offsets, lo, hi, np.inf)
        _mark(candidate, seen, offsets, lo, hi, False)
        yield user_ids[lo:hi], _top_k(negated, candidate, k), scores


def ranked_outfits(
    users,
    prop: PropagationOutput,
    graph: FashionGraph,
    split: Splits,
    exclude_val: bool = True,
    *,
    k: int,
):
    """Yield (user, outfit ids best first, their scores) per user, in user
    order, over the first ``k`` of the outfits outside train (and val, with
    ``exclude_val``).  A ``k`` below 1 raises ``ValueError``.

    Scores are the user's row of its fixed RANK_BLOCK-user block of
    h_user_star @ h_outfit_star.T; the order is a stable sort over ascending
    ids, so ties go to the lower id, as ``order_candidates`` does.
    """
    outfit_ids = graph.outfit_ids
    for block_users, columns, scores in _top_k_blocks(users, prop, graph, split, exclude_val, k):
        for user, best, row in zip(block_users, columns, scores):
            best = best[best >= 0]
            yield user, outfit_ids[best], row[best]


def rank_outfits(
    user: int, prop: PropagationOutput, graph: FashionGraph, split: Splits
) -> list[int]:
    """All outfits outside the user's train/val sets, best score first;
    ties broken by ascending outfit id.  An unknown user raises ``KeyError``."""
    _, ranked, _ = next(ranked_outfits([user], prop, graph, split, k=graph.n_outfits))
    return ranked.tolist()


class FltbTrials(NamedTuple):
    """FLTB trials in draw order: each trial's outfit, masked position, the
    four candidate item ids in slot order, and the slot of the masked item."""

    outfits: np.ndarray  # (T,)
    masked: np.ndarray  # (T,)
    candidates: np.ndarray  # (T, 4)
    true_slot: np.ndarray  # (T,)


def fltb_test_outfits(ds: Dataset, split: Splits) -> list[int]:
    """Outfits appearing in at least one test interaction (all outfits if none)."""
    test_outfits = sorted({o for outfits in split.test.values() for o in outfits})
    return test_outfits if test_outfits else sorted(ds.outfits)


def draw_fltb_trials(
    ds: Dataset, split: Splits, graph: FashionGraph, outfit_ids, seed: int,
    trials_per_outfit: int = 1,
) -> FltbTrials:
    """Draw ``trials_per_outfit`` trials for each of ``outfit_ids`` in turn,
    all from the ``"fltb"`` substream.

    A trial masks a uniform position of its outfit and adds three distinct
    distractors from the sorted negative pool (items in no outfit),
    category-matched to the masked item, and shuffles the four into slots.
    The generator calls are one ``integers`` for every masked position, one
    ``integers`` for three distinct positions in each same-category pool of
    at least three items (each draw picks among the items the earlier ones
    left, as popping from a list does), and one ``permuted`` for every slot
    order.  A trial whose category pool is shorter then draws trial by trial
    from its category pool, the rest of the pool, then any item outside the
    outfit.
    """
    if trials_per_outfit < 0:
        raise ValueError(f"trials per outfit must be >= 0, got {trials_per_outfit}")
    outfits = np.repeat(np.asarray(outfit_ids, dtype=np.uint64), trials_per_outfit)
    rows, lengths = outfit_rows(graph, outfits)
    rng = substream(seed, "fltb")
    masked = rng.integers(lengths)
    true_rows = rows[np.cumsum(lengths) - lengths + masked]
    true_items, categories = graph.item_ids[true_rows], graph.item_categories[true_rows]

    # The pool sorted by (category, id): category c's items are one run.
    pool = np.array(sorted(split.compat_negative_pool), dtype=np.uint64)
    pool_categories = graph.item_categories[graph.rows("item", pool)]
    by_category = pool[np.argsort(pool_categories, kind="stable")]
    sizes = np.bincount(pool_categories, minlength=len(ds.categories))
    starts = np.cumsum(sizes) - sizes

    candidates = np.empty((len(outfits), 4), dtype=np.uint64)
    candidates[:, 0] = true_items
    bulk = sizes[categories] >= 3
    n = sizes[categories[bulk]]
    k = rng.integers(np.stack([n, n - 1, n - 2], axis=1))
    first = k[:, 0]
    second = k[:, 1] + (k[:, 1] >= first)
    third = k[:, 2] + (k[:, 2] >= np.minimum(first, second))
    third += third >= np.maximum(first, second)
    picks = np.stack([first, second, third], axis=1)
    candidates[bulk, 1:] = by_category[starts[categories[bulk], None] + picks]
    order = rng.permuted(np.tile(np.arange(4), (len(outfits), 1)), axis=1)

    for t in np.flatnonzero(~bulk).tolist():
        c = categories[t]
        same = by_category[starts[c] : starts[c] + sizes[c]].tolist()
        chosen: list[int] = []
        for source in (same, pool.tolist(), None):
            if source is None:  # built only when the pool falls short
                source = sorted(set(ds.items) - set(ds.outfits[int(outfits[t])]))
            options = [i for i in source if i != true_items[t] and i not in chosen]
            while options and len(chosen) < 3:
                chosen.append(options.pop(int(rng.integers(len(options)))))
            if len(chosen) == 3:
                break
        if len(chosen) < 3:
            raise ValueError("not enough items to build FLTB distractors")
        candidates[t, 1:] = chosen
    return FltbTrials(
        outfits, masked, np.take_along_axis(candidates, order, axis=1), np.argmin(order, axis=1)
    )


def fltb_accuracy(
    ds: Dataset,
    split: Splits,
    prop: PropagationOutput,
    m: ModelState,
    seed: int,
    outfit_ids=None,
    trials_per_outfit: int = 1,
) -> tuple[float, int]:
    """Mean FLTB correctness over the test outfits, scored in one call."""
    outfit_ids = fltb_test_outfits(ds, split) if outfit_ids is None else list(outfit_ids)
    trials = draw_fltb_trials(ds, split, prop.graph, outfit_ids, seed, trials_per_outfit)
    n_trials = len(trials.outfits)
    if not n_trials:
        return 0.0, 0
    # Each trial's outfit four times over, a candidate in its masked position.
    rows, lengths = outfit_rows(prop.graph, np.repeat(trials.outfits, 4))
    masked = np.cumsum(lengths) - lengths + np.repeat(trials.masked, 4)
    rows[masked] = prop.graph.rows("item", trials.candidates.ravel())
    # argmax takes the first maximum per row, so ties go to the lowest slot.
    chosen = score_rows(rows, lengths, prop, m).reshape(n_trials, 4).argmax(axis=1)
    return int(np.count_nonzero(chosen == trials.true_slot)) / n_trials, n_trials


def compat_auc(
    ds: Dataset, prop: PropagationOutput, m: ModelState, seed: int
) -> float | None:
    """AUC of stored-outfit scores against category-template negatives,
    both scored in one call."""
    outfit_ids = sorted(ds.outfits)
    rng = substream(seed, "auc")  # one stream, in sorted outfit order
    drawn = [category_template_negative(ds, oid, rng) for oid in outfit_ids]
    negatives = [n for n in drawn if n is not None]
    if not negatives:
        return None
    pos_rows, pos_lengths = outfit_rows(prop.graph, outfit_ids)
    neg_rows, neg_lengths = prop.graph.list_rows("item", negatives)
    scores = score_rows(np.concatenate([pos_rows, neg_rows]),
                        np.concatenate([pos_lengths, neg_lengths]), prop, m)
    return auc(scores[: len(outfit_ids)], scores[len(outfit_ids) :])


def evaluate(
    m: ModelState,
    graph: FashionGraph,
    ds: Dataset,
    split: Splits,
    seed: int,
    k: int = 10,
    on: str = "test",
    include_compat: bool = True,
    threads: int = 1,
    prop: PropagationOutput | None = None,
) -> RankingReport:
    """Aggregate all metrics over evaluable users; deterministic under seed.

    ``on='val'`` ranks validation outfits against everything outside the
    train set.  ``threads`` is kept because criterion 7 passes it; it
    changes nothing.
    """
    if on not in ("test", "val"):
        raise ValueError(f"unknown split part {on!r}")
    if prop is None:
        prop = forward(graph, ds, m, mode="eval")
    relevant_map = split.test if on == "test" else split.val
    users = [int(u) for u in graph.user_ids if relevant_map.get(int(u))]
    # Each user's top k as a row of hits: is the outfit at that rank relevant?
    relevant, offsets = _user_outfit_rows(graph, (relevant_map,), users)
    hits, lo = [], 0
    for block_users, columns, _ in _top_k_blocks(users, prop, graph, split, on == "test", k):
        hi = lo + len(block_users)
        is_relevant = np.zeros((hi - lo, len(graph.outfit_ids) + 1), dtype=bool)
        _mark(is_relevant, relevant, offsets, lo, hi, True)  # column -1, padding, stays False
        hits.append(np.take_along_axis(is_relevant, columns, axis=1))
        lo = hi
    metrics = [[]] * 4
    if hits:
        metrics = [a.tolist() for a in block_metrics(np.concatenate(hits), np.diff(offsets), k)]
    kept = [UserMetrics(u, *values) for u, *values in zip(users, *metrics)]

    auc_value = fltb_value = None
    n_trials = 0
    if include_compat:
        auc_value = compat_auc(ds, prop, m, seed)
        fltb_value, n_trials = fltb_accuracy(ds, split, prop, m, seed)

    def mean_of(values: list[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    return RankingReport(
        k=k,
        split_part=on,
        hr=mean_of(metrics[0]),
        recall=mean_of(metrics[1]),
        precision=mean_of(metrics[2]),
        ndcg=mean_of(metrics[3]),
        auc=auc_value,
        fltb_accuracy=fltb_value,
        n_users_evaluated=len(kept),
        n_users_skipped=graph.n_users - len(kept),
        n_fltb_trials=n_trials,
        per_user=tuple(kept),
    )


def format_report(report: RankingReport, per_user: bool = False) -> str:
    """Human-readable summary plus a machine-readable metric=value block."""
    lines = [
        f"ranking evaluation on the {report.split_part} split (k={report.k})",
        f"users evaluated: {report.n_users_evaluated} "
        f"(skipped, no relevant outfits: {report.n_users_skipped})",
        "",
        "[metrics]",
        f"hr@{report.k}={report.hr:.10f}",
        f"recall@{report.k}={report.recall:.10f}",
        f"precision@{report.k}={report.precision:.10f}",
        f"ndcg@{report.k}={report.ndcg:.10f}",
    ]
    if report.auc is not None:
        lines.append(f"auc={report.auc:.10f}")
    if report.fltb_accuracy is not None:
        lines.append(f"fltb_accuracy={report.fltb_accuracy:.10f}")
        lines.append(f"fltb_trials={report.n_fltb_trials}")
    if per_user:
        lines.append("")
        lines.append("[per-user]")
        for r in report.per_user:
            lines.append(
                f"{r.user},{r.hr:.10f},{r.recall:.10f},{r.precision:.10f},{r.ndcg:.10f}"
            )
    return "\n".join(lines) + "\n"
