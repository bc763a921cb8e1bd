"""Dataset loading, validation, splitting, and synthesis.

On-disk formats (all ids are unsigned 64-bit integers in text form):

* interactions: one ``user_id<TAB>outfit_id`` per line
* outfits:      one ``outfit_id<TAB>item_id,item_id,...`` per line
* items:        one ``item_id<TAB>category_name`` per line
* features:     binary, little-endian; header = magic ``FGATFEAT``,
  u32 version, u32 count, u32 dim; then ``count`` records of
  (u64 item_id, dim x f32).  One file per modality.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .rng import substream

FEATURES_MAGIC = b"FGATFEAT"
FEATURES_VERSION = 1
FEATURES_CHUNK_BYTES = 1 << 20  # read_features reads about this much at a time
_U64_MAX = 2**64 - 1


class DatasetError(ValueError):
    """Malformed file, dangling reference, or inconsistent dimensions."""


class Item(NamedTuple):
    category: int  # index into Dataset.categories
    visual: np.ndarray  # float32, shape (d_v,)
    textual: np.ndarray  # float32, shape (d_t,)


@dataclass(frozen=True, eq=False)
class Dataset:
    users: list[int]
    outfits: dict[int, list[int]]  # outfit id -> ordered item ids
    items: dict[int, Item]
    interactions: frozenset[tuple[int, int]]  # (user id, outfit id)
    categories: list[str]

    @property
    def d_v(self) -> int:
        return next(iter(self.items.values())).visual.shape[0]

    @property
    def d_t(self) -> int:
        return next(iter(self.items.values())).textual.shape[0]

    def validate(self) -> None:
        """``validate_dataset`` of this dataset on the first call; a later
        call returns at once, so a loaded dataset is checked once however
        many steps ask.  Like the cached properties, this assumes the
        dataset is not changed once built."""
        if "validated" not in self.__dict__:
            validate_dataset(self)
            self.__dict__["validated"] = True

    @cached_property
    def item_features(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``feature_matrices`` of all items in ascending id order, the
        graph's item order; stacked on first use, then kept."""
        return feature_matrices(self, sorted(self.items))

    @cached_property
    def outfit_sets(self) -> frozenset[frozenset[int]]:
        """The item set of every stored outfit; built on first use, then kept."""
        return frozenset(frozenset(items) for items in self.outfits.values())

    @cached_property
    def outfit_templates(self) -> dict[int, tuple[list[list[int]], np.ndarray]]:
        """Each outfit's category template: per slot, the ``category_pools``
        list of its item's category (all items, ascending), one list shared
        by every slot of that category, and the pool sizes as an array;
        built on first use, then kept."""
        pools = {cat: ids.tolist() for cat, ids in category_pools(self, self.items).items()}
        templates = {}
        for oid, items in self.outfits.items():
            slots = [pools[self.items[i].category] for i in items]
            templates[oid] = (slots, np.array([len(pool) for pool in slots]))
        return templates


@dataclass(frozen=True)
class Splits:
    """Per-user disjoint interaction sets plus the compatibility negative pool."""

    train: dict[int, frozenset[int]]
    val: dict[int, frozenset[int]]
    test: dict[int, frozenset[int]]
    compat_negative_pool: frozenset[int]

    def pairs(self, part: str) -> list[tuple[int, int]]:
        """Sorted (user, outfit) pairs of one part ('train'/'val'/'test')."""
        mapping = getattr(self, part)
        return sorted((u, o) for u, outfits in mapping.items() for o in outfits)

    def user_known(self, user: int) -> frozenset[int]:
        """All outfits the user interacted with in any part."""
        return (
            self.train.get(user, frozenset())
            | self.val.get(user, frozenset())
            | self.test.get(user, frozenset())
        )


def validate_dataset(ds: Dataset) -> None:
    """Raise DatasetError unless every Dataset invariant holds."""
    if not ds.items:
        raise DatasetError("dataset has no items")
    user_set = set(ds.users)
    if len(user_set) != len(ds.users):
        raise DatasetError("duplicate user ids")
    d_v = d_t = None
    for iid, item in ds.items.items():
        if not 0 <= item.category < len(ds.categories):
            raise DatasetError(f"item {iid}: category index {item.category} out of range")
        if d_v is None:
            d_v, d_t = item.visual.shape[0], item.textual.shape[0]
        if item.visual.shape != (d_v,):
            raise DatasetError(
                f"item {iid}: visual dim {item.visual.shape[0]} != corpus dim {d_v}"
            )
        if item.textual.shape != (d_t,):
            raise DatasetError(
                f"item {iid}: textual dim {item.textual.shape[0]} != corpus dim {d_t}"
            )
    for oid, item_ids in ds.outfits.items():
        if len(item_ids) < 2:
            raise DatasetError(f"outfit {oid}: needs >= 2 items, has {len(item_ids)}")
        if len(set(item_ids)) != len(item_ids):
            raise DatasetError(f"outfit {oid}: duplicate item ids")
        for iid in item_ids:
            if iid not in ds.items:
                raise DatasetError(f"outfit {oid}: references missing item {iid}")
    for u, o in ds.interactions:
        if u not in user_set:
            raise DatasetError(f"interaction ({u}, {o}): unknown user {u}")
        if o not in ds.outfits:
            raise DatasetError(f"interaction ({u}, {o}): unknown outfit {o}")


def _parse_id(token: str, path: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DatasetError(f"{path}:{lineno}: not an integer id: {token!r}") from None
    if not 0 <= value <= _U64_MAX:
        raise DatasetError(f"{path}:{lineno}: id out of u64 range: {value}")
    return value


def _read_tsv(path: str | Path, n_fields: int):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise DatasetError(
                    f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                    f"got {len(fields)}"
                )
            yield lineno, fields


def read_features(path: str | Path) -> dict[int, np.ndarray]:
    """Read one modality's feature file; returns item id -> float32 vector.

    The records are read ``FEATURES_CHUNK_BYTES`` at a time straight into
    the id array and the (count, dim) matrix, so the file is never held
    whole as bytes beside its matrix.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 20:
            raise DatasetError(f"{path}: truncated header ({size} bytes, expected 20)")
        header = fh.read(20)
        if header[:8] != FEATURES_MAGIC:
            raise DatasetError(f"{path}: bad magic {header[:8]!r}")
        version, count, dim = struct.unpack_from("<III", header, 8)
        if version != FEATURES_VERSION:
            raise DatasetError(f"{path}: unsupported version {version}")
        record = 8 + 4 * dim
        expected = 20 + count * record
        if size != expected:
            raise DatasetError(f"{path}: truncated ({size} bytes, expected {expected})")
        layout = np.dtype([("id", "<u8"), ("vec", "<f4", (dim,))])
        ids = np.empty(count, dtype=np.uint64)
        vectors = np.empty((count, dim), dtype=np.float32)  # each item's vector is a row
        per_chunk = max(1, FEATURES_CHUNK_BYTES // record)
        for start in range(0, count, per_chunk):
            n = min(per_chunk, count - start)
            chunk = fh.read(n * record)
            if len(chunk) != n * record:  # the file shrank while it was read
                got = 20 + start * record + len(chunk)
                raise DatasetError(f"{path}: truncated ({got} bytes, expected {expected})")
            records = np.frombuffer(chunk, dtype=layout)
            ids[start:start + n] = records["id"]
            vectors[start:start + n] = records["vec"]
    # min and max are NaN or infinite iff some value is; unlike
    # np.isfinite(vectors).all() they allocate no matrix-sized mask.
    if vectors.size and not (np.isfinite(vectors.min()) and np.isfinite(vectors.max())):
        row = int(np.flatnonzero(~np.isfinite(vectors).all(axis=1))[0])
        raise DatasetError(f"{path}: item {ids[row]}: non-finite feature value")
    features = {int(iid): vectors[k] for k, iid in enumerate(ids)}
    if len(features) != count:  # a repeated id would silently keep its last record
        unique, counts = np.unique(ids, return_counts=True)
        raise DatasetError(f"{path}: duplicate item id {unique[counts > 1][0]}")
    return features


def write_features(path: str | Path, features: dict[int, np.ndarray]) -> None:
    """Write a feature file; records are sorted by item id."""
    ids = sorted(features)
    dim = features[ids[0]].shape[0] if ids else 0
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<III", FEATURES_VERSION, len(ids), dim))
        for iid in ids:
            vec = np.asarray(features[iid], dtype="<f4")
            if vec.shape != (dim,):
                raise DatasetError(f"feature vector for item {iid} has dim {vec.shape}")
            fh.write(struct.pack("<Q", iid))
            fh.write(vec.tobytes())


def load_dataset(
    interactions: str | Path,
    outfits: str | Path,
    items: str | Path,
    visual: str | Path,
    textual: str | Path,
) -> Dataset:
    """Load and validate a dataset from the five on-disk files."""
    item_category_name: dict[int, str] = {}
    for lineno, (iid_s, cat) in _read_tsv(items, 2):
        iid = _parse_id(iid_s, str(items), lineno)
        if iid in item_category_name:
            raise DatasetError(f"{items}:{lineno}: duplicate item id {iid}")
        item_category_name[iid] = cat
    categories = sorted(set(item_category_name.values()))
    category_of = {name: c for c, name in enumerate(categories)}

    vis = read_features(visual)
    txt = read_features(textual)
    item_map: dict[int, Item] = {}
    for iid, cat in item_category_name.items():
        if iid not in vis:
            raise DatasetError(f"item {iid}: missing visual features in {visual}")
        if iid not in txt:
            raise DatasetError(f"item {iid}: missing textual features in {textual}")
        item_map[iid] = Item(category_of[cat], vis[iid], txt[iid])

    outfit_map: dict[int, list[int]] = {}
    for lineno, (oid_s, items_s) in _read_tsv(outfits, 2):
        oid = _parse_id(oid_s, str(outfits), lineno)
        if oid in outfit_map:
            raise DatasetError(f"{outfits}:{lineno}: duplicate outfit id {oid}")
        member_ids = [
            _parse_id(tok, str(outfits), lineno) for tok in items_s.split(",") if tok
        ]
        outfit_map[oid] = member_ids

    inter: set[tuple[int, int]] = set()
    users: set[int] = set()
    for lineno, (u_s, o_s) in _read_tsv(interactions, 2):
        u = _parse_id(u_s, str(interactions), lineno)
        o = _parse_id(o_s, str(interactions), lineno)
        users.add(u)
        inter.add((u, o))
    if not inter:
        raise DatasetError(f"{interactions}: no interactions")

    ds = Dataset(
        users=sorted(users),
        outfits=outfit_map,
        items=item_map,
        interactions=frozenset(inter),
        categories=categories,
    )
    ds.validate()
    return ds


def write_dataset(ds: Dataset, directory: str | Path) -> dict[str, Path]:
    """Write all five files into ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "interactions": directory / "interactions.tsv",
        "outfits": directory / "outfits.tsv",
        "items": directory / "items.tsv",
        "visual": directory / "visual.bin",
        "textual": directory / "textual.bin",
    }
    with open(paths["interactions"], "w", encoding="utf-8") as fh:
        for u, o in sorted(ds.interactions):
            fh.write(f"{u}\t{o}\n")
    with open(paths["outfits"], "w", encoding="utf-8") as fh:
        for oid in sorted(ds.outfits):
            fh.write(f"{oid}\t{','.join(str(i) for i in ds.outfits[oid])}\n")
    with open(paths["items"], "w", encoding="utf-8") as fh:
        for iid in sorted(ds.items):
            fh.write(f"{iid}\t{ds.categories[ds.items[iid].category]}\n")
    write_features(paths["visual"], {i: it.visual for i, it in ds.items.items()})
    write_features(paths["textual"], {i: it.textual for i, it in ds.items.items()})
    return paths


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Field-by-field equality including bit-exact feature vectors."""
    if (
        a.users != b.users
        or a.outfits != b.outfits
        or a.categories != b.categories
        or a.interactions != b.interactions
        or set(a.items) != set(b.items)
    ):
        return False
    for iid, item in a.items.items():
        other = b.items[iid]
        if item.category != other.category:
            return False
        if not np.array_equal(item.visual, other.visual):
            return False
        if not np.array_equal(item.textual, other.textual):
            return False
    return True


# ---------------------------------------------------------------------------
# splitting


def split_interactions(ds: Dataset, seed: int, scheme: str = "per_user_80_20") -> Splits:
    """Split each user's interactions into train/val/test.

    ``per_user_80_20`` (default): test = floor(0.2 n) clamped to >= 1, then
    val = floor(0.1 of the remainder) clamped to >= 1 whenever at least two
    train candidates remain, rest train.  ``per_user_80_10_10``: test and
    val each take floor(0.1 n) clamped to >= 1 while a train interaction
    survives.  Users with a single interaction keep it in train.
    Deterministic under ``seed``.
    """
    if scheme not in ("per_user_80_20", "per_user_80_10_10"):
        raise ValueError(f"unknown split scheme: {scheme}")
    train: dict[int, frozenset[int]] = {}
    val: dict[int, frozenset[int]] = {}
    test: dict[int, frozenset[int]] = {}
    by_user: dict[int, list[int]] = {u: [] for u in ds.users}
    for u, o in ds.interactions:
        by_user[u].append(o)
    for u in ds.users:
        outfits = sorted(by_user[u])
        n = len(outfits)
        if n == 0:
            continue
        if n == 1:
            train[u] = frozenset(outfits)
            val[u] = frozenset()
            test[u] = frozenset()
            continue
        rng = substream(seed, "split", u)
        order = [outfits[i] for i in rng.permutation(n)]
        if scheme == "per_user_80_20":
            n_test = max(1, math.floor(0.2 * n))
            remainder = n - n_test
            n_val = max(1, math.floor(0.1 * remainder)) if remainder >= 2 else 0
        else:
            n_test = max(1, math.floor(0.1 * n))
            remainder = n - n_test
            n_val = min(max(1, math.floor(0.1 * n)), remainder - 1) if remainder >= 2 else 0
        test[u] = frozenset(order[:n_test])
        val[u] = frozenset(order[n_test : n_test + n_val])
        train[u] = frozenset(order[n_test + n_val :])
    used = set()
    for members in ds.outfits.values():
        used.update(members)
    pool = frozenset(i for i in ds.items if i not in used)
    return Splits(train=train, val=val, test=test, compat_negative_pool=pool)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticConfig:
    n_users: int = 20
    n_outfits: int = 40
    n_items: int = 60
    n_categories: int = 6
    n_clusters: int = 2
    d_v: int = 16
    d_t: int = 8
    items_per_outfit: int = 4
    interactions_per_user: int = 12
    cluster_purity: float = 0.95  # fraction of a user's interactions inside their cluster
    feature_noise: float = 0.2
    unused_item_fraction: float = 0.2  # items kept out of every outfit (negative pool)


def generate_synthetic(cfg: SyntheticConfig, seed: int) -> Dataset:
    """Generate a clustered dataset with a learnable style signal.

    Users, outfits, and most items are partitioned into ``n_clusters``
    style clusters.  Item features are drawn around a per-cluster mean
    direction, outfits draw items from a single cluster, and each user's
    interactions are cluster-consistent at exactly ``cluster_purity``
    (rounded per user), so preference and compatibility are both
    learnable.  A reserved fraction of items appears in no outfit and
    forms the compatibility negative pool; each pool item sits around its
    own random unit direction, so pool items score independently under an
    untrained model while staying separable from every cluster.
    """
    for name in ("n_users", "n_outfits", "n_items", "n_categories", "n_clusters", "d_v", "d_t",
                 "interactions_per_user"):
        if getattr(cfg, name) < 1:
            raise DatasetError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if cfg.items_per_outfit < 2:
        raise DatasetError(f"items_per_outfit must be >= 2, got {cfg.items_per_outfit}")
    if cfg.n_items < cfg.n_categories:
        raise DatasetError("need at least one item per category")
    if min(cfg.n_users, cfg.n_outfits) < cfg.n_clusters:
        raise DatasetError("fewer users or outfits than clusters")
    if not 0.0 <= cfg.cluster_purity <= 1.0:
        raise DatasetError("cluster_purity must be in [0, 1]")
    if not 0.0 <= cfg.unused_item_fraction <= 1.0:  # NaN fails both
        raise DatasetError("unused_item_fraction must be in [0, 1]")
    if not 0.0 <= cfg.feature_noise < math.inf:
        raise DatasetError("feature_noise must be finite and >= 0")

    rng = substream(seed, "synthetic")
    n_pool = int(cfg.n_items * cfg.unused_item_fraction)
    n_placed = cfg.n_items - n_pool
    if n_placed < cfg.n_clusters * cfg.items_per_outfit:
        raise DatasetError("not enough placeable items for the requested clusters")

    categories = [f"cat{c:02d}" for c in range(cfg.n_categories)]

    # Unit-norm cluster mean directions, one per cluster.
    means_v = rng.normal(size=(cfg.n_clusters, cfg.d_v))
    means_v /= np.linalg.norm(means_v, axis=1, keepdims=True)
    means_t = rng.normal(size=(cfg.n_clusters, cfg.d_t))
    means_t /= np.linalg.norm(means_t, axis=1, keepdims=True)

    def draw_item(iid: int, mean_v: np.ndarray, mean_t: np.ndarray) -> Item:
        vis = mean_v + cfg.feature_noise * rng.normal(size=cfg.d_v)
        txt = mean_t + cfg.feature_noise * rng.normal(size=cfg.d_t)
        return Item(iid % cfg.n_categories, vis.astype(np.float32), txt.astype(np.float32))

    items: dict[int, Item] = {}
    item_cluster: dict[int, int] = {}
    for iid in range(n_placed):
        cluster = iid % cfg.n_clusters
        items[iid] = draw_item(iid, means_v[cluster], means_t[cluster])
        item_cluster[iid] = cluster
    for iid in range(n_placed, cfg.n_items):
        own_v = rng.normal(size=cfg.d_v)
        own_t = rng.normal(size=cfg.d_t)
        own_v /= np.linalg.norm(own_v)
        own_t /= np.linalg.norm(own_t)
        items[iid] = draw_item(iid, own_v, own_t)

    by_cluster_cat: dict[tuple[int, int], list[int]] = {}
    for iid in range(n_placed):
        by_cluster_cat.setdefault((item_cluster[iid], items[iid].category), []).append(iid)

    outfits: dict[int, list[int]] = {}
    outfit_cluster: dict[int, int] = {}
    for oid in range(cfg.n_outfits):
        cluster = oid % cfg.n_clusters
        cats = rng.choice(cfg.n_categories, size=cfg.items_per_outfit, replace=False)
        members = []
        for cat in cats:
            pool = by_cluster_cat.get((cluster, int(cat)))
            if not pool:
                pool = [i for i in range(n_placed) if item_cluster[i] == cluster]
            choice = int(rng.choice([i for i in pool if i not in members] or pool))
            members.append(choice)
        if len(set(members)) < 2:
            raise DatasetError("could not assemble a valid outfit; add items")
        outfits[oid] = members
        outfit_cluster[oid] = cluster

    outfits_of_cluster: dict[int, list[int]] = {c: [] for c in range(cfg.n_clusters)}
    for oid, cluster in outfit_cluster.items():
        outfits_of_cluster[cluster].append(oid)

    interactions: set[tuple[int, int]] = set()
    users = list(range(cfg.n_users))
    for u in users:
        cluster = u % cfg.n_clusters
        own = outfits_of_cluster[cluster]
        other = [o for o in outfits if outfit_cluster[o] != cluster]
        k = min(cfg.interactions_per_user, len(outfits))
        n_own = min(round(cfg.cluster_purity * k), len(own))
        n_other = min(k - n_own, len(other))
        chosen = list(rng.choice(own, size=n_own, replace=False))
        if n_other:
            chosen += list(rng.choice(other, size=n_other, replace=False))
        for o in chosen:
            interactions.add((u, int(o)))

    ds = Dataset(
        users=users,
        outfits=outfits,
        items=items,
        interactions=frozenset(interactions),
        categories=categories,
    )
    ds.validate()
    return ds


def category_pools(ds: Dataset, item_ids) -> dict[int, np.ndarray]:
    """The ``item_ids`` of each category, ascending, as uint64 arrays."""
    pools: dict[int, list[int]] = {}
    for iid in sorted(item_ids):
        pools.setdefault(ds.items[iid].category, []).append(iid)
    return {cat: np.array(ids, dtype=np.uint64) for cat, ids in pools.items()}


def feature_matrices(ds: Dataset, item_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack feature vectors and category indices in ``item_ids`` order."""
    X_v = _stack([ds.items[i].visual for i in item_ids])
    X_t = _stack([ds.items[i].textual for i in item_ids])
    cats = np.array([ds.items[i].category for i in item_ids], dtype=np.int64)
    return X_v, X_t, cats


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    """``np.stack(rows)``, or, when the rows already are the rows of one
    matrix in order (as ``read_features`` leaves a sorted file), that matrix
    itself, so the features are not held twice."""
    base = rows[0].base if rows else None
    if (
        isinstance(base, np.ndarray)
        and base.flags.c_contiguous
        and base.shape == (len(rows), *rows[0].shape)
        and all(
            r.base is base
            and r.strides == base.strides[1:]
            and r.ctypes.data == base.ctypes.data + k * base.strides[0]
            for k, r in enumerate(rows)
        )
    ):
        return base
    return np.stack(rows)
