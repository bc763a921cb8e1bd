"""Correctness checks over the program's outputs.

Each check returns a list of problems; an empty list means the output is
correct.  The ranking and AUC checks recompute everything in NumPy from the
embeddings and parameters, independently of the program's scoring code.
Rounding differences are allowed only where two scores are closer than the
float32 error bound of the computation that produced them.
"""

from __future__ import annotations

import math

import numpy as np

F32_EPS = float(np.finfo(np.float32).eps)
# Absolute error allowed on an R-view score, which lies in (-1, 1): the
# program computes it in float32 through three small matmuls and a softmax.
RVIEW_TOL = 1e-5


# ---------------------------------------------------------------------------
# desk-converge


def parse_report(text: str) -> dict[str, float]:
    """The ``metric=value`` lines of an ``evaluate`` report's [metrics] block."""
    values = {}
    lines = text.splitlines()
    start = lines.index("[metrics]") + 1 if "[metrics]" in lines else len(lines)
    for line in lines[start:]:
        key, sep, value = line.partition("=")
        if not sep:
            break
        values[key] = float(value)
    return values


def desk_problems(report: dict[str, float], log_text: str, epochs: int) -> list[str]:
    """Test HR@10 >= 0.8 and FLTB >= 0.9; one finite log row per epoch."""
    problems = []
    hr, fltb = report.get("hr@10"), report.get("fltb_accuracy")
    if hr is None or not hr >= 0.8:
        problems.append(f"test HR@10 {hr} is below 0.8")
    if fltb is None or not fltb >= 0.9:
        problems.append(f"test FLTB {fltb} is below 0.9")
    rows = [line.split(",") for line in log_text.splitlines() if line]
    if len(rows) != epochs:
        problems.append(f"train_log.csv has {len(rows)} rows, expected {epochs}")
    for n, row in enumerate(rows, start=1):
        if len(row) != 6 or row[0] != str(n):
            problems.append(f"train_log.csv row {n} is malformed: {row}")
        elif not all(math.isfinite(float(v)) for v in row[1:4]):
            problems.append(f"train_log.csv epoch {n} has a non-finite loss: {row}")
    return problems


# ---------------------------------------------------------------------------
# mid-train


def train_problems(epochs: list[dict], n_train_pairs: int, n_outfits: int) -> list[str]:
    """Finite losses, a falling loss, and triple counts that match the skips.

    Each entry of ``epochs`` holds the epoch's ``l_rec``, ``l_comp``,
    ``l_total``, ``n_rec`` and ``n_comp`` and the skip warnings
    ``rec_skipped`` and ``comp_skipped``; ``epochs[0]`` is the warm-up epoch
    and the rest are the timed ones.
    """
    problems = []
    for e in epochs:
        losses = (e["l_rec"], e["l_comp"], e["l_total"])
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"epoch {e['epoch']}: non-finite loss {losses}")
        if e["n_rec"] != n_train_pairs - e["rec_skipped"]:
            problems.append(
                f"epoch {e['epoch']}: {e['n_rec']} rec triples, but {n_train_pairs} "
                f"training pairs minus {e['rec_skipped']} reported skips"
            )
        if e["n_comp"] != n_outfits - e["comp_skipped"]:
            problems.append(
                f"epoch {e['epoch']}: {e['n_comp']} comp pairs, but {n_outfits} "
                f"outfits minus {e['comp_skipped']} reported skips"
            )
    timed = epochs[1:]
    if not timed:
        problems.append("no timed epoch")
    elif not timed[-1]["l_total"] < epochs[0]["l_total"]:
        problems.append(
            f"last timed epoch's loss {timed[-1]['l_total']} is not below "
            f"the first epoch's {epochs[0]['l_total']}"
        )
    return problems


# ---------------------------------------------------------------------------
# mid-eval: ranking


def _dcg(ranks) -> float:
    return sum(1.0 / math.log2(r + 1) for r in ranks)


def ranking_problems(
    per_user: dict[int, tuple[float, float]],
    h_user: np.ndarray,
    h_outfit: np.ndarray,
    user_ids,
    outfit_ids,
    excluded: dict[int, set[int]],
    relevant: dict[int, set[int]],
    k: int,
) -> tuple[list[str], int]:
    """Compare per-user (HR@k, NDCG@k) with a NumPy full ranking.

    Scores are ``h_user @ h_outfit.T`` in float64.  A user's candidates are
    all outfits outside ``excluded[user]``, ranked by a stable descending
    sort over ascending ids, so ties go to the lower id.  Where the program's
    figures differ, they must be reachable by reordering scores that lie
    within the float32 dot-product error bound of each other.  Returns the
    problems and the number of users that needed that allowance.
    """
    problems = []
    outfit_ids = np.asarray(outfit_ids, dtype=np.int64)
    if np.any(np.diff(outfit_ids) <= 0):
        raise ValueError("outfit ids must be sorted ascending")
    column = {int(o): c for c, o in enumerate(outfit_ids)}
    U = np.asarray(h_user, dtype=np.float64)
    O = np.asarray(h_outfit, dtype=np.float64)
    scores = U @ O.T
    bound = U.shape[1] * F32_EPS * (np.abs(U) @ np.abs(O).T)
    expected_users = {int(u) for u in user_ids if relevant.get(int(u))}
    if set(per_user) != expected_users:
        problems.append(
            f"program ranked {len(per_user)} users, expected {len(expected_users)}"
        )
    near_ties = 0
    for row, user in enumerate(int(u) for u in user_ids):
        if user not in expected_users or user not in per_user:
            continue
        mask = np.ones(len(outfit_ids), dtype=bool)
        mask[[column[o] for o in excluded.get(user, ())]] = False
        cand = np.flatnonzero(mask)
        s, tol = scores[row, cand], bound[row, cand]
        order = cand[np.argsort(-s, kind="stable")]
        rel_cols = {column[o] for o in relevant[user]}
        hits = [r for r, c in enumerate(order[:k], start=1) if c in rel_cols]
        hr = 1.0 if hits else 0.0
        ideal = _dcg(range(1, min(len(rel_cols), k) + 1))
        ndcg = _dcg(hits) / ideal
        hr_p, ndcg_p = per_user[user]
        if abs(hr_p - hr) <= 1e-12 and abs(ndcg_p - ndcg) <= 1e-9:
            continue
        # Rank interval of each relevant outfit when near-tied scores may swap.
        lo, hi = [], []
        for c in rel_cols:
            j = int(np.searchsorted(cand, c))
            gap = s - s[j]
            slack = tol + tol[j]
            others = np.arange(len(cand)) != j
            lo.append(1 + int(np.count_nonzero(others & (gap > slack))))
            hi.append(1 + int(np.count_nonzero(others & (gap >= -slack))))
        hr_ok = (hr_p == 1.0 and min(lo) <= k) or (hr_p == 0.0 and min(hi) > k)
        ndcg_lo = _dcg(r for r in hi if r <= k) / ideal
        ndcg_hi = _dcg(r for r in lo if r <= k) / ideal
        if hr_ok and ndcg_lo - 1e-9 <= ndcg_p <= ndcg_hi + 1e-9:
            near_ties += 1
        else:
            problems.append(
                f"user {user}: program HR@{k}={hr_p}, NDCG@{k}={ndcg_p}; "
                f"recomputed {hr}, {ndcg}"
            )
    return problems, near_ties


def mean_problems(report_hr: float, report_ndcg: float, per_user) -> list[str]:
    """The reported HR and NDCG are the means over the ranked users."""
    problems = []
    hrs = [hr for hr, _ in per_user.values()]
    ndcgs = [nd for _, nd in per_user.values()]
    if not hrs or abs(report_hr - float(np.mean(hrs))) > 1e-12:
        problems.append(f"reported HR {report_hr} is not the per-user mean")
    if not ndcgs or abs(report_ndcg - float(np.mean(ndcgs))) > 1e-12:
        problems.append(f"reported NDCG {report_ndcg} is not the per-user mean")
    return problems


# ---------------------------------------------------------------------------
# mid-eval: compatibility


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, x, slope * x)


def rview_scores(
    params: dict[str, np.ndarray],
    h_item_star: np.ndarray,
    rows: list[list[int]],
    slope: float,
    linear_compat: bool = False,
) -> np.ndarray:
    """R-view compatibility score of each item-row list, in float64.

    A = softmax over items of W_ao . leaky(W_ai . o);  C = tanh(W_co .
    leaky(W_ci . o));  score = mean over views of sum over items of A * C.
    """
    W = {k: np.asarray(params[k], dtype=np.float64) for k in (
        "view_attn_in", "view_attn_out", "view_compat_in", "view_compat_out")}
    H = np.asarray(h_item_star, dtype=np.float64)
    out = np.empty(len(rows))
    by_size: dict[int, list[int]] = {}
    for b, r in enumerate(rows):
        by_size.setdefault(len(r), []).append(b)
    for size, batch in by_size.items():
        O = H[np.array([rows[b] for b in batch], dtype=np.int64)]  # (B, n, d)
        logits = _leaky(O @ W["view_attn_in"].T, slope) @ W["view_attn_out"].T  # (B, n, R)
        A = np.exp(logits - logits.max(axis=1, keepdims=True))
        A /= A.sum(axis=1, keepdims=True)
        pre = _leaky(O @ W["view_compat_in"].T, slope) @ W["view_compat_out"].T
        C = pre if linear_compat else np.tanh(pre)
        out[batch] = (A * C).sum(axis=1).mean(axis=1)
    return out


def negative_problems(
    negatives: list[tuple[int, tuple[int, ...]]],
    outfits: dict[int, list[int]],
    item_category: dict[int, int],
) -> list[str]:
    """Each negative keeps its outfit's category template, has distinct
    items, and is not a stored outfit."""
    problems = []
    stored = {frozenset(m) for m in outfits.values()}
    for oid, items in negatives:
        template = [item_category[i] for i in outfits[oid]]
        if any(i not in item_category for i in items):
            problems.append(f"negative for outfit {oid} has an unknown item: {items}")
            continue
        if [item_category[i] for i in items] != template:
            problems.append(f"negative for outfit {oid} breaks its category template: {items}")
        if len(set(items)) != len(items):
            problems.append(f"negative for outfit {oid} repeats an item: {items}")
        if frozenset(items) in stored:
            problems.append(f"negative for outfit {oid} is a stored outfit: {items}")
    return problems


def auc_problems(program_auc, pos: np.ndarray, neg: np.ndarray) -> list[str]:
    """The program's AUC must equal the pairwise count P(pos > neg) + P(tie)/2,
    counting pairs closer than ``2 * RVIEW_TOL`` either way."""
    if program_auc is None:
        return ["program reported no AUC"]
    diff = np.subtract.outer(np.asarray(pos, np.float64), np.asarray(neg, np.float64))
    n = diff.size
    if n == 0:
        return [f"no positive-negative pairs to recompute the AUC from "
                f"({len(pos)} positives, {len(neg)} negatives)"]
    sure_wins = np.count_nonzero(diff > 2 * RVIEW_TOL)
    unsure = np.count_nonzero(np.abs(diff) <= 2 * RVIEW_TOL)
    lo, hi = sure_wins / n, (sure_wins + unsure) / n
    if not lo - 1e-12 <= program_auc <= hi + 1e-12:
        return [f"program AUC {program_auc} outside the recomputed [{lo}, {hi}]"]
    return []


def fltb_problems(n_trials: int, accuracy, test_outfits: set[int]) -> list[str]:
    problems = []
    if n_trials != len(test_outfits):
        problems.append(f"{n_trials} FLTB trials, but {len(test_outfits)} test outfits")
    if accuracy is None or not 0.0 <= accuracy <= 1.0:
        problems.append(f"FLTB accuracy {accuracy} is not a share")
    return problems
