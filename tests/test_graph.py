import numpy as np
import pytest

from fashiongraph.dataio import (
    Dataset,
    DatasetError,
    SyntheticConfig,
    generate_synthetic,
    split_interactions,
)
from fashiongraph.graph import build_fashion_graph, category_cooccurrence_weights, pair_tables

from conftest import make_item, tiny_dataset


def corpus(outfits_by_cat: list[list[str]], categories: list[str]) -> Dataset:
    """Build a dataset whose outfits have the given category composition."""
    items = {}
    outfits = {}
    next_item = 0
    for oid, cats in enumerate(outfits_by_cat):
        members = []
        for cat in cats:
            items[next_item] = make_item(categories.index(cat), seed=next_item)
            members.append(next_item)
            next_item += 1
        outfits[oid] = members
    return Dataset(
        users=[0],
        outfits=outfits,
        items=items,
        interactions=frozenset({(0, 0)}),
        categories=categories,
    )


class TestCategoryWeights:
    def test_hand_fixture_half_half(self):
        # outfits {shirt,pants}, {shirt,pants}, {shirt,shoes}
        ds = corpus(
            [["shirt", "pants"], ["shirt", "pants"], ["shirt", "shoes"]],
            ["pants", "shirt", "shoes"],
        )
        cg = category_cooccurrence_weights(ds)
        shirt = ds.categories.index("shirt")
        pants = ds.categories.index("pants")
        shoes = ds.categories.index("shoes")
        # co(shirt,pants)=2, o(pants)=2; co(shirt,shoes)=1, o(shoes)=1
        assert cg.weight(shirt, pants) == 0.5
        assert cg.weight(shirt, shoes) == 0.5
        assert cg.weight(pants, shirt) == 1.0
        assert cg.weight(shoes, shirt) == 1.0

    def test_always_together_weight_one(self):
        ds = corpus([["hat", "scarf"], ["hat", "scarf"]], ["hat", "scarf"])
        cg = category_cooccurrence_weights(ds)
        hat, scarf = 0, 1
        assert cg.weight(hat, scarf) == 1.0
        assert cg.weight(scarf, hat) == 1.0

    def test_category_only_in_singleton_company(self):
        # "belt" never co-occurs: it appears only with itself impossible here,
        # so give it an outfit where it is alone with a duplicate category.
        ds = corpus([["shirt", "pants"], ["belt", "belt"]], ["belt", "pants", "shirt"])
        cg = category_cooccurrence_weights(ds)
        belt = ds.categories.index("belt")
        # belt co-occurs only with itself (same-category pair from one outfit)
        assert cg.weight(belt, belt) == 1.0
        assert cg.weight(belt, ds.categories.index("shirt")) == 0.0

    def test_row_normalization_random_corpora(self):
        cats = ["a", "b", "c", "d", "e"]
        rng = np.random.default_rng(0)
        for trial in range(25):
            comp = [
                list(rng.choice(cats, size=rng.integers(2, 5), replace=True))
                for _ in range(rng.integers(1, 8))
            ]
            ds = corpus(comp, cats)
            cg = category_cooccurrence_weights(ds)
            rows = {}
            for (c_i, c_j), w in cg.weights.items():
                rows[c_i] = rows.get(c_i, 0.0) + w
                assert w >= 0
            for c_i, total in rows.items():
                assert abs(total - 1.0) < 1e-9

    def test_directional_asymmetry(self):
        # jacket pairs with shirt twice; shirt also pairs with pants, so the
        # two directions normalize over different partner sets.
        ds = corpus(
            [["jacket", "shirt"], ["jacket", "shirt"], ["shirt", "pants"]],
            ["jacket", "pants", "shirt"],
        )
        cg = category_cooccurrence_weights(ds)
        jacket = ds.categories.index("jacket")
        shirt = ds.categories.index("shirt")
        assert cg.weight(jacket, shirt) != cg.weight(shirt, jacket)

    def test_counts_are_per_outfit_not_per_pair(self):
        # one outfit with two shirts and one pant: co(shirt,pants) counts 1
        ds = corpus([["shirt", "shirt", "pants"]], ["pants", "shirt"])
        cg = category_cooccurrence_weights(ds)
        shirt = ds.categories.index("shirt")
        pants = ds.categories.index("pants")
        assert cg.co_counts[(shirt, pants)] == 1
        assert cg.co_counts[(shirt, shirt)] == 1  # >= 2 shirts in one outfit


class TestFashionGraph:
    def test_pog_shaped_node_count(self):
        items = {i: make_item(i % 61, d_v=2, d_t=2, seed=0) for i in range(19175)}
        outfits = {o: [(2 * o) % 19175, (2 * o + 1) % 19175] for o in range(9373)}
        ds = Dataset(
            users=list(range(38415)),
            outfits=outfits,
            items=items,
            interactions=frozenset({(0, 0)}),
            categories=[f"c{k}" for k in range(61)],
        )
        graph = build_fashion_graph(ds)
        assert graph.n_nodes == 66_963

    def test_smallest_graph(self):
        items = {0: make_item(0, seed=0), 1: make_item(1, seed=1)}
        ds = Dataset(
            users=[5],
            outfits={9: [0, 1]},
            items=items,
            interactions=frozenset({(5, 9)}),
            categories=["a", "b"],
        )
        graph = build_fashion_graph(ds)
        assert graph.n_nodes == 4  # 1 user + 1 outfit + 2 items
        assert graph.n_edges == 3  # 1 interaction + 2 memberships

    def test_edge_count_fixture(self, tiny_ds):
        # 4 interactions and outfits of sizes 2, 3, 2
        graph = build_fashion_graph(tiny_ds)
        assert graph.n_edges == 4 + (2 + 3 + 2)

    def test_adjacency_symmetric(self, tiny_ds):
        # Every item-outfit edge is a stored membership, every user-outfit
        # edge a train pair, each once and in id order.
        splits = split_interactions(tiny_ds, seed=0)
        graph = build_fashion_graph(tiny_ds, splits)
        io, uo = graph.levels["item_outfit"], graph.levels["outfit_user"]
        memberships = [(o, i) for o in sorted(tiny_ds.outfits) for i in tiny_ds.outfits[o]]
        assert list(zip(graph.outfit_ids[io.tgt].tolist(),
                        graph.item_ids[io.src].tolist())) == memberships
        assert list(zip(graph.user_ids[uo.tgt].tolist(),
                        graph.outfit_ids[uo.src].tolist())) == splits.pairs("train")

    def test_training_split_only_edges(self):
        ds = generate_synthetic(SyntheticConfig(), seed=2)
        splits = split_interactions(ds, seed=2)
        graph = build_fashion_graph(ds, splits)
        n_train = sum(len(v) for v in splits.train.values())
        assert len(graph.uo_tgt) == n_train
        held_out = set(splits.test[ds.users[0]]) | set(splits.val[ds.users[0]])
        level = graph.levels["outfit_user"]
        linked = level.src[level.tgt == graph.rows("user", [ds.users[0]])[0]]
        assert not held_out & set(graph.outfit_ids[linked].tolist())

    def test_counts_match_dataset(self, tiny_ds):
        graph = build_fashion_graph(tiny_ds)
        assert graph.n_users == len(tiny_ds.users)
        assert graph.n_outfits == len(tiny_ds.outfits)
        assert graph.n_items == len(tiny_ds.items)


class TestRows:
    """``FashionGraph.rows``, the one map from ids to table rows."""

    BIG = 2**60  # uint64 ids that float64 cannot tell apart: BIG + 1 == BIG

    def graph(self, big=BIG):
        ds = tiny_dataset()
        renamed = {0: big, 1: big + 1}
        return build_fashion_graph(Dataset(
            users=ds.users,
            outfits={o: [renamed.get(i, i) for i in m] for o, m in ds.outfits.items()},
            items={renamed.get(i, i): item for i, item in ds.items.items()},
            interactions=ds.interactions,
            categories=ds.categories,
        ))

    def test_ids_are_uint64_and_rows_int64(self):
        graph = self.graph()
        assert graph.user_ids.dtype == graph.outfit_ids.dtype == graph.item_ids.dtype == np.uint64
        assert graph.rows("item", [2, 3]).dtype == np.int64

    @pytest.mark.parametrize("bad", [987654, -1, 2**64 - 1, 2**64])
    def test_unknown_id_raises_key_error_naming_it(self, bad):
        graph = self.graph()
        with pytest.raises(KeyError, match=f"^'unknown item id {bad}'$"):
            graph.rows("item", [2, bad])
        with pytest.raises(KeyError, match=f"^'unknown item id {bad}'$"):
            graph.list_rows("item", [[2, 3], [], [4, bad]])
        if 0 <= bad < 2**63:
            with pytest.raises(KeyError, match=f"^'unknown item id {bad}'$"):
                graph.rows("item", np.array([2, bad], dtype=np.int64))
        if 0 <= bad < 2**64:
            with pytest.raises(KeyError, match=f"^'unknown item id {bad}'$"):
                graph.rows("item", np.array([2, bad], dtype=np.uint64))

    def test_negative_id_is_unknown_where_it_wraps_to_a_stored_id(self):
        ds = tiny_dataset()
        top = 2**64 - 1  # what -1 wraps to as uint64
        graph = build_fashion_graph(Dataset(
            users=[10, top],
            outfits=ds.outfits,
            items=ds.items,
            interactions=frozenset((top if u == 11 else u, o) for u, o in ds.interactions),
            categories=ds.categories,
        ))
        assert graph.rows("user", [top]).tolist() == [1]
        with pytest.raises(KeyError, match="^'unknown user id -1'$"):
            graph.rows("user", np.array([10, -1]))
        for given in ([10, -1], [np.int64(10), np.int64(-1)], [-1, top]):
            with pytest.raises(KeyError, match="^'unknown user id -1'$"):
                graph.rows("user", given)

    def test_python_ints_and_both_array_dtypes_give_the_same_rows(self):
        graph = self.graph()
        for kind, ids in (("user", [11, 10]), ("outfit", [102, 100, 101, 100]),
                          ("item", [4, self.BIG + 1, 2, self.BIG, 3])):
            want = np.array([np.flatnonzero(getattr(graph, f"{kind}_ids") == i)[0] for i in ids])
            for given in (ids, np.array(ids, dtype=np.uint64)):
                np.testing.assert_array_equal(graph.rows(kind, given), want)
            if max(ids) < 2**63:
                np.testing.assert_array_equal(graph.rows(kind, np.array(ids, np.int64)), want)

    def test_ids_one_apart_above_two_to_the_sixty_keep_their_own_rows(self):
        graph = self.graph()
        assert graph.item_ids[:2].tolist() == [2, 3]  # the BIG ids sort last
        big = [self.BIG, self.BIG + 1]
        for given in (big, np.array(big, dtype=np.uint64), np.array(big, dtype=np.int64)):
            assert graph.rows("item", given).tolist() == [3, 4]
        assert graph.item_index[self.BIG + 1] == 4

    @pytest.mark.parametrize("empty", [[], (), np.array([], dtype=np.int64),
                                       np.array([], dtype=np.uint64)])
    def test_empty_input_gives_empty_int64_rows(self, empty):
        rows = self.graph().rows("outfit", empty)
        assert rows.dtype == np.int64 and rows.shape == (0,)

    def test_list_rows_flattens_lists_in_order_with_ids_from_two_to_the_sixty_three_up(self):
        big = 2**63
        graph = self.graph(big)
        rows, lengths = graph.list_rows("item", [[big + 1, 2], [], [big, 3, 4], (4,)])
        assert rows.dtype == lengths.dtype == np.int64
        assert rows.tolist() == [4, 0, 3, 1, 2, 2] and lengths.tolist() == [2, 0, 3, 1]
        for lists in ([], [[]], [(), []]):
            rows, lengths = graph.list_rows("outfit", lists)
            assert rows.dtype == lengths.dtype == np.int64
            assert rows.shape == (0,) and lengths.tolist() == [0] * len(lists)

    def test_item_categories_are_each_item_rows_category(self):
        for ds in (tiny_dataset(), generate_synthetic(SyntheticConfig(), seed=3)):
            graph = build_fashion_graph(ds)
            assert graph.item_categories.dtype == np.int64
            assert graph.item_categories.tolist() == [
                ds.items[i].category for i in graph.item_ids.tolist()]


def outfit_subgraph(ds: Dataset, outfit_id: int) -> dict[tuple[int, int], float]:
    """One outfit's complete item graph as the item-item level holds it:
    (target item id, source item id) -> the edge's co-occurrence prior."""
    graph = build_fashion_graph(ds)
    level = graph.levels["item_item"]
    ids = graph.item_ids.astype(int)
    members = set(ds.outfits[outfit_id])
    return {
        (ids[t], ids[s]): w
        for t, s, w in zip(level.tgt, level.src, level.prior)
        if ids[t] in members and ids[s] in members
    }


class TestItemSubgraph:
    def test_three_item_outfit_has_three_edges(self, tiny_ds):
        sub = outfit_subgraph(tiny_ds, 101)
        assert len({frozenset(pair) for pair in sub}) == 3  # C(3, 2)
        assert len(sub) == 6  # each pair in both directions

    def test_same_category_pair_weight(self):
        ds = corpus([["shirt", "shirt"], ["shirt", "pants"]], ["pants", "shirt"])
        cg = category_cooccurrence_weights(ds)
        shirt = ds.categories.index("shirt")
        sub = outfit_subgraph(ds, 0)
        assert sub[(0, 1)] == sub[(1, 0)] == cg.weight(shirt, shirt) > 0

    def test_pair_in_one_outfit_has_positive_weight(self):
        # categories co-occurring only inside this outfit still get weight:
        # the corpus count includes the outfit itself.
        ds = corpus([["hat", "boots"]], ["boots", "hat"])
        assert all(w > 0 for w in outfit_subgraph(ds, 0).values())


def test_item_item_union_edges(tiny_ds):
    graph = build_fashion_graph(tiny_ds)
    # item 1 is in outfits 100 (with 0) and 101 (with 2, 3): union size 3
    level = graph.levels["item_item"]
    idx = graph.item_index[1]
    neighbors = set(level.src[level.tgt == idx])
    expected = {graph.item_index[0], graph.item_index[2], graph.item_index[3]}
    assert neighbors == expected
    # weights follow the target-category -> source-category direction
    cg = graph.category_graph
    for e in range(len(level.tgt)):
        t = int(graph.item_ids[level.tgt[e]])
        s = int(graph.item_ids[level.src[e]])
        expected_w = cg.weight(tiny_ds.items[t].category, tiny_ds.items[s].category)
        assert level.prior[e] == expected_w


def random_corpora():
    """The corpora of ``test_row_normalization_random_corpora``: categories repeat."""
    cats = ["a", "b", "c", "d", "e"]
    rng = np.random.default_rng(0)
    for _ in range(25):
        comp = [
            list(rng.choice(cats, size=rng.integers(2, 5), replace=True))
            for _ in range(rng.integers(1, 8))
        ]
        yield corpus(comp, cats)


def nested_loop_tables(ds):
    """co(c_i, c_j), w(c_i, c_j) and the item-item edges, one pair at a time."""
    cats = [[ds.items[i].category for i in members] for members in ds.outfits.values()]
    n = len(ds.categories)
    o = {c: sum(c in cs for cs in cats) for c in range(n)}
    co = {}
    for a in range(n):
        for b in range(n):
            count = sum(cs.count(a) >= 2 if a == b else a in cs and b in cs for cs in cats)
            if count:
                co[(a, b)] = count
    weights = {}
    for a in range(n):
        row = {b: co[(a, b)] / o[b] for b in range(n) if (a, b) in co}
        total = 0.0  # one ratio after another, in category order
        for r in row.values():
            total += r
        weights.update({(a, b): r / total for b, r in row.items()})
    row_of = {i: r for r, i in enumerate(sorted(ds.items))}
    pairs = sorted({(row_of[i], row_of[j]) for members in ds.outfits.values()
                    for i in members for j in members if i != j})
    category = {r: ds.items[i].category for i, r in row_of.items()}
    edges = [(t, s, weights.get((category[t], category[s]), 0.0)) for t, s in pairs]
    return co, weights, edges


PAIR_TABLE_INPUTS = {
    "corpora": lambda: list(random_corpora()),
    "tiny": lambda: [tiny_dataset()],
    "default-7": lambda: [generate_synthetic(SyntheticConfig(), seed=7)],
    # Rows of 13 ratios: np.sum would add them pairwise, in another order.
    "13-categories": lambda: [generate_synthetic(SyntheticConfig(
        n_categories=13, items_per_outfit=9), seed=0)],
    **{f"random-{seed}": lambda seed=seed: [random_dataset(seed, base) for base in (0, 2**63)]
       for seed in range(8)},
    "mid-1": lambda: [generate_synthetic(SyntheticConfig(
        n_users=500, n_outfits=2000, n_items=3000, d_v=2, d_t=2), seed=1)],
}


@pytest.mark.parametrize("name", PAIR_TABLE_INPUTS)
def test_pair_tables_match_nested_loop_reference(name):
    # Exact: the weights sum each row in category order, and every edge's
    # prior is the weight of its category pair, looked up.
    for ds in PAIR_TABLE_INPUTS[name]():
        co, weights, edges = nested_loop_tables(ds)
        graph = build_fashion_graph(ds)
        cg, level = graph.category_graph, graph.item_edges
        assert list(cg.co_counts.items()) == list(co.items())  # key order too
        assert list(cg.weights.items()) == list(weights.items())
        np.testing.assert_array_equal(level.tgt, [t for t, _, _ in edges])
        np.testing.assert_array_equal(level.src, [s for _, s, _ in edges])
        np.testing.assert_array_equal(level.prior, [w for _, _, w in edges])


def random_dataset(seed: int, base: int) -> Dataset:
    """Seeded ids from ``base`` up: outfits of 2-7 items drawn from a shared
    pool (so one pair sits in several outfits), two items in no outfit, and
    every dict in shuffled id order."""
    rng = np.random.default_rng(seed)

    def ids(low, high):  # distinct Python ints from base up
        return [base + k for k in rng.choice(10**6, size=int(rng.integers(low, high)),
                                             replace=False).tolist()]

    item_ids = ids(10, 30)
    items = {i: make_item(int(rng.integers(4)), d_v=2, d_t=2, seed=k)
             for k, i in enumerate(item_ids)}
    placed = item_ids[2:]
    outfit_ids = ids(4, 12)
    outfits = {o: [placed[k] for k in rng.choice(len(placed), size=int(rng.integers(2, 8)),
                                                 replace=False)] for o in outfit_ids[1:]}
    outfits[outfit_ids[0]] = outfits[outfit_ids[1]][::-1]  # the same pairs again
    users = ids(2, 6)
    interactions = {(u, outfit_ids[k]) for u in users for k in
                    rng.choice(len(outfit_ids), size=int(rng.integers(1, 5)), replace=False)}
    return Dataset(users=users, outfits=outfits, items=items,
                   interactions=frozenset(interactions), categories=["a", "b", "c", "d"])


def reference_levels(ds: Dataset, splits) -> dict[str, tuple[list, list, list | None]]:
    """Each level's (tgt, src, prior) straight from its definition, one id at a time."""
    row = {kind: {i: r for r, i in enumerate(sorted(ids))}
           for kind, ids in (("user", ds.users), ("outfit", ds.outfits), ("item", ds.items))}
    cg = category_cooccurrence_weights(ds)
    co_outfit = sorted({(row["item"][i], row["item"][j]) for members in ds.outfits.values()
                        for i in members for j in members if i != j})
    cat = {r: ds.items[i].category for i, r in row["item"].items()}
    members = [(row["outfit"][o], row["item"][i])
               for o in sorted(ds.outfits) for i in ds.outfits[o]]
    pairs = ds.interactions if splits is None else splits.pairs("train")
    interacted = sorted((row["user"][u], row["outfit"][o]) for u, o in pairs)
    return {
        "item_item": ([t for t, _ in co_outfit], [s for _, s in co_outfit],
                      [cg.weight(cat[t], cat[s]) for t, s in co_outfit]),
        "item_outfit": ([o for o, _ in members], [i for _, i in members], None),
        "outfit_user": ([u for u, _ in interacted], [o for _, o in interacted], None),
    }


@pytest.mark.parametrize("base", [0, 2**63])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("with_splits", [False, True])
def test_every_level_equals_its_definition(seed, base, with_splits):
    ds = random_dataset(seed, base)
    splits = split_interactions(ds, seed) if with_splits else None
    if with_splits:
        assert splits.compat_negative_pool  # items in no outfit
    graph = build_fashion_graph(ds, splits)
    for name, (tgt, src, prior) in reference_levels(ds, splits).items():
        level = graph.levels[name]
        assert level.tgt.dtype == level.src.dtype == np.int64
        np.testing.assert_array_equal(level.tgt, np.array(tgt, dtype=np.int64), err_msg=name)
        np.testing.assert_array_equal(level.src, np.array(src, dtype=np.int64), err_msg=name)
        if prior is None:
            assert level.prior is None
        else:
            np.testing.assert_array_equal(level.prior, prior, err_msg=name)


@pytest.mark.parametrize("base", [0, 2**63])
@pytest.mark.parametrize("seed", range(8))
def test_levels_do_not_follow_the_order_of_the_outfits_dict(seed, base):
    ds = random_dataset(seed, base)
    ids, rng = list(ds.outfits), np.random.default_rng(seed)
    orders = [ids[::-1]] + [[ids[k] for k in rng.permutation(len(ids))] for _ in range(3)]
    splits = split_interactions(ds, seed)
    graphs = [(given, build_fashion_graph(ds, given)) for given in (None, splits)]
    for order in orders:
        shuffled = Dataset(users=ds.users, outfits={o: ds.outfits[o] for o in order},
                           items=ds.items, interactions=ds.interactions,
                           categories=ds.categories)
        for given, graph in graphs:
            other = build_fashion_graph(shuffled, given)
            assert other.item_categories.tolist() == graph.item_categories.tolist()
            for name, level in graph.levels.items():
                np.testing.assert_array_equal(other.levels[name].tgt, level.tgt, err_msg=name)
                np.testing.assert_array_equal(other.levels[name].src, level.src, err_msg=name)
            assert other.levels["item_outfit"].prior is other.levels["outfit_user"].prior is None
            np.testing.assert_array_equal(other.item_edges.prior, graph.item_edges.prior)


def test_item_item_edges_of_one_two_item_outfit():
    base = 2**63
    items = {base + 9: make_item(1, seed=0), base + 4: make_item(0, seed=1),
             base + 5: make_item(0, seed=2)}  # base + 5 is in no outfit
    ds = Dataset(users=[0], outfits={3: [base + 9, base + 4]}, items=items,
                 interactions=frozenset({(0, 3)}), categories=["a", "b"])
    graph = build_fashion_graph(ds)
    edges, _ = pair_tables(graph.item_categories, graph.levels["item_outfit"])
    assert edges.tgt.tolist() == [0, 2] and edges.src.tolist() == [2, 0]
    assert edges.prior.tolist() == [1.0, 1.0] and edges.n_tgt == 3


def test_a_hand_built_dataset_with_a_dangling_item_is_refused():
    ds = tiny_dataset()
    bad = Dataset(users=ds.users, outfits={**ds.outfits, 103: [0, 99]}, items=ds.items,
                  interactions=ds.interactions, categories=ds.categories)
    with pytest.raises(DatasetError, match="outfit 103: references missing item 99"):
        build_fashion_graph(bad)
    with pytest.raises(DatasetError, match="missing item 99"):  # a refusal is not kept
        build_fashion_graph(bad)


def test_a_dataset_without_outfits_is_refused():
    ds = Dataset(users=[0], outfits={}, items={0: make_item(0, seed=0)},
                 interactions=frozenset(), categories=["a"])
    with pytest.raises(ValueError, match="need at least one outfit with >= 2 items"):
        build_fashion_graph(ds)
