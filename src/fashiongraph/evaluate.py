"""Ranking and compatibility evaluation.

Per user, every outfit outside the train/validation sets is ranked by the
preference score (full ranking, no sampled candidate subset); HR, Recall,
Precision, and NDCG are computed at k and averaged over users with at
least one relevant outfit; scores come in user x outfit blocks of
``RANK_BLOCK`` users.  Compatibility is measured by AUC of stored outfits
against category-template negatives and by fill-in-the-blank accuracy: one
outfit item is masked and the model must pick it from four candidates by
compatibility score.  Item lists are drawn first, then scored in batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import Dataset, Splits
from .embed import ModelState
from .graph import FashionGraph
from .propagate import PropagationOutput, forward
from .rng import substream
from .score import score_item_lists, score_items  # noqa: F401 (perfbench reads E.score_items)
from .train import category_pools, category_template_negative

# Users per score block.  Fixed, whatever ``threads`` is: BLAS may round a
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
    """HR, Recall, Precision, NDCG of one ranked list against a relevant set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    relevants = set(relevants)
    if not relevants:
        raise ValueError("empty relevant set; caller must skip this user")
    top = list(ranked)[:k]
    hits = sum(1 for o in top if o in relevants)
    hr = 1.0 if hits else 0.0
    recall = hits / len(relevants)
    precision = hits / k
    dcg = sum(1.0 / math.log2(rank + 1) for rank, o in enumerate(top, start=1) if o in relevants)
    ideal = sum(1.0 / math.log2(rank + 1) for rank in range(1, min(len(relevants), k) + 1))
    ndcg = dcg / ideal
    return hr, recall, precision, ndcg


def auc(pos_scores, neg_scores) -> float:
    """Probability a positive outscores a negative; ties count one half."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.sort(np.asarray(neg_scores, dtype=np.float64))
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score sets must be nonempty")
    below, not_above = (np.searchsorted(neg, pos, side=s) for s in ("left", "right"))
    # (below + not_above) / 2 = wins + ties / 2, the Mann-Whitney U, exact in float64
    return float((below + not_above).sum() / 2.0 / (pos.size * neg.size))


def ranked_outfits(
    users, prop: PropagationOutput, graph: FashionGraph, split: Splits, exclude_val: bool = True
):
    """Yield (user, outfit ids best first, their scores) per user, in user
    order, over the outfits outside train (and val, with ``exclude_val``).

    Scores are the user's row of its fixed RANK_BLOCK-user block of
    h_user_star @ h_outfit_star.T; the stable sort over ascending ids sends
    ties to the lower id, as ``order_candidates`` does.
    """
    outfit_ids = graph.outfit_ids.astype(np.int64)
    parts = (split.train, split.val) if exclude_val else (split.train,)
    block_start, block = -1, None
    for row in sorted(graph.user_index[u] for u in users):
        start = row - row % RANK_BLOCK
        if start != block_start:
            block_start = start
            block = prop.h_user_star[start : start + RANK_BLOCK] @ prop.h_outfit_star.T
        user = int(graph.user_ids[row])
        keep = np.ones(len(outfit_ids), dtype=bool)
        keep[[graph.outfit_index[o] for part in parts for o in part.get(user, ())]] = False
        candidates = np.flatnonzero(keep)
        scores = block[row - start, candidates]
        order = np.argsort(-scores, kind="stable")
        yield user, outfit_ids[candidates[order]], scores[order]


def rank_outfits(
    user: int, prop: PropagationOutput, graph: FashionGraph, split: Splits
) -> list[int]:
    """All outfits outside the user's train/val sets, best score first;
    ties broken by ascending outfit id."""
    if user not in graph.user_index:
        raise KeyError(f"unknown user {user}")
    _, ranked, _ = next(ranked_outfits([user], prop, graph, split))
    return ranked.tolist()


def _substituted(outfit_id: int, masked_index: int, candidates, graph: FashionGraph):
    """The outfit's item list with each candidate in turn at ``masked_index``."""
    members = graph.outfit_items.get(outfit_id)
    if members is None:
        raise KeyError(f"unknown outfit id {outfit_id}")
    if len(members) < 2:
        raise ValueError(f"outfit {outfit_id} has fewer than 2 items")
    if not 0 <= masked_index < len(members):
        raise ValueError(f"masked index {masked_index} out of range")
    return [[*members[:masked_index], c, *members[masked_index + 1 :]] for c in candidates]


def fltb(
    outfit_id: int,
    masked_index: int,
    candidates,
    true_item: int,
    prop: PropagationOutput,
    m: ModelState,
) -> tuple[int, bool]:
    """Score the outfit with each candidate substituted at ``masked_index``.

    Returns (chosen slot, chosen is the true item); ties resolve to the
    lowest slot.
    """
    lists = _substituted(outfit_id, masked_index, candidates, prop.graph)
    chosen = int(np.argmax(score_item_lists(lists, prop, m)))  # the first maximum
    return chosen, candidates[chosen] == true_item


def _fltb_candidates(
    ds: Dataset,
    pool: list[int],
    pool_by_category: dict[int, np.ndarray],
    outfit_id: int,
    masked_index: int,
    rng: np.random.Generator,
) -> tuple[list[int], int]:
    """True item plus three distractors in shuffled order.

    Distractors come from the sorted negative pool, category-matched to the
    masked item when enough such items exist, then the rest of the pool,
    then any item outside the outfit.
    """
    members = ds.outfits[outfit_id]
    true_item = members[masked_index]
    chosen: list[int] = []
    for source in (pool_by_category.get(ds.items[true_item].category, ()), pool, None):
        if source is None:  # built only when the pool falls short
            source = sorted(set(ds.items) - set(members))
        options = [i for i in source if i not in chosen and i != true_item]
        while options and len(chosen) < 3:
            pick = int(rng.choice(options))
            chosen.append(pick)
            options.remove(pick)
        if len(chosen) == 3:
            break
    if len(chosen) < 3:
        raise ValueError("not enough items to build FLTB distractors")
    candidates = [true_item] + chosen
    order = rng.permutation(4)
    return [candidates[i] for i in order], true_item


def fltb_test_outfits(ds: Dataset, split: Splits) -> list[int]:
    """Outfits appearing in at least one test interaction (all outfits if none)."""
    test_outfits = sorted({o for outfits in split.test.values() for o in outfits})
    return test_outfits if test_outfits else sorted(ds.outfits)


def fltb_accuracy(
    ds: Dataset,
    split: Splits,
    prop: PropagationOutput,
    m: ModelState,
    seed: int,
    outfit_ids=None,
    trials_per_outfit: int = 1,
) -> tuple[float, int]:
    """Mean FLTB correctness over the test outfits, scored in one batch."""
    outfit_ids = fltb_test_outfits(ds, split) if outfit_ids is None else list(outfit_ids)
    pool = sorted(split.compat_negative_pool)
    pool_by_category = category_pools(ds, pool)
    lists, trials = [], []
    for oid in outfit_ids:
        for trial in range(trials_per_outfit):
            rng = substream(seed, "fltb", oid, trial)
            masked_index = int(rng.integers(len(ds.outfits[oid])))
            candidates, true_item = _fltb_candidates(
                ds, pool, pool_by_category, oid, masked_index, rng
            )
            lists += _substituted(oid, masked_index, candidates, prop.graph)
            trials.append(candidates.index(true_item))
    if not trials:
        return 0.0, 0
    # argmax takes the first maximum per row, so ties go to the lowest slot.
    chosen = score_item_lists(lists, prop, m).reshape(len(trials), 4).argmax(axis=1)
    return int(np.count_nonzero(chosen == np.array(trials))) / len(trials), len(trials)


def compat_auc(
    ds: Dataset, prop: PropagationOutput, m: ModelState, seed: int
) -> float | None:
    """AUC of stored-outfit scores against category-template negatives."""
    by_category = category_pools(ds, ds.items)
    outfit_sets = {frozenset(v) for v in ds.outfits.values()}
    outfit_ids = sorted(ds.outfits)
    drawn = [
        category_template_negative(ds, oid, by_category, outfit_sets, substream(seed, "auc", oid))
        for oid in outfit_ids
    ]
    negatives = [n for n in drawn if n is not None]
    if not negatives:
        return None
    pos = score_item_lists([prop.graph.outfit_items[o] for o in outfit_ids], prop, m)
    return auc(pos, score_item_lists(negatives, prop, m))


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
    train set.  ``threads`` is kept for compatibility (``--threads`` and
    criterion 7 pass it) and no longer changes anything.
    """
    if on not in ("test", "val"):
        raise ValueError(f"unknown split part {on!r}")
    if prop is None:
        prop = forward(graph, ds, m, mode="eval")
    relevant_map = split.test if on == "test" else split.val
    users = [int(u) for u in graph.user_ids if relevant_map.get(int(u))]
    kept = []
    for user, ranked, _ in ranked_outfits(users, prop, graph, split, exclude_val=on == "test"):
        hr, recall, precision, ndcg = topk_metrics(ranked[:k].tolist(), relevant_map[user], k)
        kept.append(UserMetrics(user=user, hr=hr, recall=recall, precision=precision, ndcg=ndcg))

    auc_value = fltb_value = None
    n_trials = 0
    if include_compat:
        auc_value = compat_auc(ds, prop, m, seed)
        fltb_value, n_trials = fltb_accuracy(ds, split, prop, m, seed)

    def mean_of(attr: str) -> float:
        return float(np.mean([getattr(r, attr) for r in kept])) if kept else 0.0

    return RankingReport(
        k=k,
        split_part=on,
        hr=mean_of("hr"),
        recall=mean_of("recall"),
        precision=mean_of("precision"),
        ndcg=mean_of("ndcg"),
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


def write_report(report: RankingReport, path: str | Path, per_user: bool = False) -> None:
    Path(path).write_text(format_report(report, per_user=per_user), encoding="utf-8")
