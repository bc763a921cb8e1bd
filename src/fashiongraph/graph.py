"""Three-level fashion graph and category co-occurrence weights.

The co-occurrence weight of an ordered category pair is

    w(c_i, c_j) = (co(c_i, c_j) / o(c_j)) / sum_k (co(c_i, c_k) / o(c_k))

where co counts distinct outfits containing both categories (an outfit
with two or more items of one category also counts for the same-category
pair) and o(c_j) counts outfits containing c_j at all.  Rows normalize to
one; the weight is directional because the denominator depends on the
first category.

Ids are unsigned 64-bit throughout, as the files store them.  The graph
alone maps an id to its row in the user, outfit and item tables:
``FashionGraph.rows`` finds it in the sorted id array of its kind,
``FashionGraph.list_rows`` flattens lists of ids through it, and every
level's edges hold rows, never ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, permutations

import numpy as np

from .autodiff import EdgeLayout, Segments
from .dataio import Dataset, Splits


@dataclass(frozen=True)
class CategoryGraph:
    weights: dict[tuple[int, int], float]  # (c_i, c_j) -> w(c_i, c_j)
    co_counts: dict[tuple[int, int], int]  # (c_i, c_j) -> outfits containing both

    def weight(self, c_i: int, c_j: int) -> float:
        return self.weights.get((c_i, c_j), 0.0)


class LevelEdges:
    """One attention level's edges with the segment layout that every
    reduction over them runs on: built once per level.

    ``tgt``/``src`` are sorted by target; ``by_tgt`` holds the runs of each
    non-empty target segment and ``by_src`` the stable source-sorted
    permutation with its runs.  ``prior`` is None or the per-edge weights w
    that the attention logits add as ln(w + eps).  ``layout``, the edges
    grouped by in-degree for ``edge_sum``, is built on first use.  Raises
    ``ValueError`` unless the edges are target-sorted with every target in
    ``[0, n_tgt)`` and a prior has one weight per edge.
    """

    __slots__ = ("tgt", "src", "n_tgt", "prior", "by_tgt", "by_src", "_layout")

    def __init__(self, tgt, src, n_tgt: int, prior=None):
        tgt = np.asarray(tgt, dtype=np.int64)
        src = np.asarray(src, dtype=np.int64)
        if tgt.ndim != 1 or tgt.shape != src.shape:
            raise ValueError("tgt and src must be 1-D arrays of one length")
        if prior is not None:
            prior = np.asarray(prior, dtype=np.float64)
            if prior.shape != tgt.shape:
                raise ValueError(f"prior has shape {prior.shape}, expected ({len(tgt)},)")
        self.by_tgt = Segments(tgt)
        if self.by_tgt.order is not None:
            raise ValueError("edges must be sorted by target")
        if len(tgt) and (tgt[0] < 0 or tgt[-1] >= n_tgt):
            raise ValueError(f"edge targets must lie in [0, {n_tgt})")
        self.tgt, self.src, self.n_tgt, self.prior = tgt, src, int(n_tgt), prior
        self.by_src = Segments(src)
        self._layout = None

    @property
    def layout(self) -> EdgeLayout:
        if self._layout is None:
            self._layout = EdgeLayout(self.src, self.by_tgt, self.by_src)
        return self._layout


@dataclass(frozen=True, eq=False)
class FashionGraph:
    # Sorted uint64 ids: row k of every user table is user k's, and so on.
    user_ids: np.ndarray
    outfit_ids: np.ndarray
    item_ids: np.ndarray
    category_graph: CategoryGraph
    # "item_item", "item_outfit", "outfit_user" -> that level's edges, as rows
    levels: dict[str, LevelEdges] = field(repr=False)
    item_categories: np.ndarray = field(repr=False)  # int64 category of each item row

    def rows(self, kind: str, ids) -> np.ndarray:
        """The int64 rows of ``ids`` (Python ints or an integer array) in
        the ``kind`` ("user", "outfit" or "item") tables: their positions in
        the sorted id array.  Raises ``KeyError`` naming an id that the
        table does not hold, a negative one included."""
        keys = getattr(self, f"{kind}_ids")
        given, ids = ids, np.asarray(ids)
        if ids.dtype.kind not in "iu":  # NumPy makes ints from 2^63 up beside smaller ones float64
            try:  # so convert them int by int
                ids = np.array(given, dtype=np.uint64)
            except OverflowError:  # an id below 0 or from 2^64 up
                bad = next(i for i in np.ravel(np.array(given, dtype=object)) if not 0 <= i < 2**64)
                raise KeyError(f"unknown {kind} id {bad}") from None
        # NumPy compares uint64 with int64 as float64, where 2^60 + 1 == 2^60,
        # so the keys take the table's dtype; a negative id wraps, and is unknown.
        wanted = ids.astype(keys.dtype)
        found = np.searchsorted(keys, wanted)
        known = (found < len(keys)) & (ids >= 0)
        known[known] = keys[found[known]] == wanted[known]
        if not known.all():
            raise KeyError(f"unknown {kind} id {ids[~known][0]}")
        return found

    def list_rows(self, kind: str, id_lists) -> tuple[np.ndarray, np.ndarray]:
        """The rows of lists of ``kind`` ids, flat and list after list, and
        one int64 length per list, through ``rows`` and its ``KeyError``."""
        lengths = np.fromiter(map(len, id_lists), dtype=np.int64, count=len(id_lists))
        return self.rows(kind, list(chain.from_iterable(id_lists))), lengths

    # id -> row dicts, built on first use; acceptance criterion 4 and the
    # benchmark's own checks read them.
    @cached_property
    def user_index(self) -> dict[int, int]:
        return dict(zip(self.user_ids.tolist(), range(self.n_users)))

    @cached_property
    def item_index(self) -> dict[int, int]:
        return dict(zip(self.item_ids.tolist(), range(self.n_items)))

    @property
    def item_edges(self) -> LevelEdges:  # item-item edges with their prior
        return self.levels["item_item"]

    @property
    def uo_tgt(self) -> np.ndarray:  # user row per user-outfit edge
        return self.levels["outfit_user"].tgt

    @property
    def oi_tgt(self) -> np.ndarray:  # outfit row per outfit-item edge
        return self.levels["item_outfit"].tgt

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_outfits(self) -> int:
        return len(self.outfit_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_outfits + self.n_items

    @property
    def n_edges(self) -> int:
        """Undirected edge count: user-outfit interactions + outfit memberships."""
        return len(self.uo_tgt) + len(self.oi_tgt)


def category_cooccurrence_weights(ds: Dataset) -> CategoryGraph:
    """Count category co-occurrence over outfits and normalize per row."""
    if not any(len(m) >= 2 for m in ds.outfits.values()):
        raise ValueError("need at least one outfit with >= 2 items")
    co: dict[tuple[int, int], int] = {}
    cat_counts: dict[int, int] = {}
    for members in ds.outfits.values():
        cats = [ds.items[i].category for i in members]
        for c in set(cats):
            cat_counts[c] = cat_counts.get(c, 0) + 1
        # Ordered pairs of distinct positions: (c, c) only when c repeats.
        for pair in set(permutations(cats, 2)):
            co[pair] = co.get(pair, 0) + 1
    totals: dict[int, float] = {}
    for (c_i, c_j), n in co.items():
        totals[c_i] = totals.get(c_i, 0.0) + n / cat_counts[c_j]
    weights = {(c_i, c_j): n / cat_counts[c_j] / totals[c_i] for (c_i, c_j), n in co.items()}
    return CategoryGraph(weights=weights, co_counts=co)


def build_item_item_edges(cg: CategoryGraph, item_categories: np.ndarray,
                          item_outfit: LevelEdges) -> LevelEdges:
    """The item-item level: directed co-outfit neighborhoods whose prior is
    the category weight w(cat(target), cat(source)); ``item_categories``
    holds each item row's category, and the members of each outfit are one
    run of the ``item_outfit`` level's sources.

    An item's neighborhood is the union of its co-outfit items across every
    outfit containing it; a pair co-occurring in several outfits yields one
    edge.  Edges are sorted by (target, source) so summation order is fixed.
    """
    n = len(item_categories)
    rows, starts = item_outfit.src, item_outfit.by_tgt.starts
    sizes = np.diff(starts, append=len(rows))
    # Each edge as the code tgt * n + src: rows lie below n, so a code fits
    # in int64 for fewer than 3 * 10^9 items, and codes sort as (tgt, src).
    codes = [np.empty(0, dtype=np.int64)]
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        # (outfits of this size, size): every ordered pair of distinct positions
        grid = rows[starts[sizes == size, None] + np.arange(size)]
        tgt_pos, src_pos = np.nonzero(~np.eye(size, dtype=bool))
        codes.append((grid[:, tgt_pos] * n + grid[:, src_pos]).ravel())
    # One code per run of the sorted codes (they are >= 0, so the first is
    # kept).  NumPy 2's hash-based np.unique is 20x slower on the 24k codes of
    # a 3,000-item graph, and its first call imports numpy.ma (about 1 MB).
    codes = np.sort(np.concatenate(codes))
    tgt, src = np.divmod(codes[np.diff(codes, prepend=-1) != 0], n)
    n_categories = int(item_categories.max()) + 1
    table = np.zeros((n_categories, n_categories))
    for pair, w in cg.weights.items():
        table[pair] = w
    return LevelEdges(tgt, src, n, prior=table[item_categories[tgt], item_categories[src]])


def build_fashion_graph(ds: Dataset, splits: Splits | None = None) -> FashionGraph:
    """Assemble the user-outfit-item graph.

    When ``splits`` is given, only training interactions form user-outfit
    edges (evaluation interactions must not leak into propagation).
    Raises ``DatasetError`` for a dataset that ``validate_dataset`` refuses;
    one that a loader has already checked is not checked again.
    """
    ds.validate()
    user_ids = np.array(sorted(ds.users), dtype=np.uint64)
    outfit_ids = np.array(sorted(ds.outfits), dtype=np.uint64)
    item_ids = np.array(sorted(ds.items), dtype=np.uint64)

    # Rows keep id order: the outfit-item edges, outfit by outfit in id
    # order, come out target-sorted, and the user-outfit edges sorted by
    # (user row, outfit row) are in (user id, outfit id) order.  Members are
    # flattened once; the item-item level reads them off the item-outfit one.
    members = [ds.outfits[o] for o in outfit_ids.tolist()]
    sizes = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
    oi_src = np.searchsorted(item_ids, np.fromiter(
        chain.from_iterable(members), dtype=np.uint64, count=int(sizes.sum())))
    item_outfit = LevelEdges(np.repeat(np.arange(len(outfit_ids)), sizes), oi_src,
                             len(outfit_ids))
    item_categories = np.fromiter((ds.items[i].category for i in item_ids.tolist()),
                                  dtype=np.int64, count=len(item_ids))
    if splits is None:
        users, outfits = np.fromiter(chain.from_iterable(ds.interactions), dtype=np.uint64,
                                     count=2 * len(ds.interactions)).reshape(-1, 2).T
    else:
        counts = [len(part) for part in splits.train.values()]
        users = np.repeat(np.fromiter(splits.train, dtype=np.uint64, count=len(counts)), counts)
        outfits = np.fromiter(chain.from_iterable(splits.train.values()), dtype=np.uint64,
                              count=len(users))
    uo_tgt, uo_src = np.searchsorted(user_ids, users), np.searchsorted(outfit_ids, outfits)
    by_pair = np.lexsort((uo_src, uo_tgt))
    cg = category_cooccurrence_weights(ds)
    levels = {
        "item_item": build_item_item_edges(cg, item_categories, item_outfit),
        "item_outfit": item_outfit,
        "outfit_user": LevelEdges(uo_tgt[by_pair], uo_src[by_pair], len(user_ids)),
    }
    return FashionGraph(
        user_ids=user_ids,
        outfit_ids=outfit_ids,
        item_ids=item_ids,
        category_graph=cg,
        levels=levels,
        item_categories=item_categories,
    )
