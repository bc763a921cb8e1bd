import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fashiongraph import dataio
from fashiongraph.dataio import (
    Dataset,
    DatasetError,
    Item,
    SyntheticConfig,
    datasets_equal,
    generate_synthetic,
    load_dataset,
    read_features,
    split_interactions,
    validate_dataset,
    write_dataset,
    write_features,
)

from conftest import make_item, tiny_dataset


def files_config(tmp_path, paths):
    """A files-mode run config over ``write_dataset``'s ``paths``."""
    cfg = tmp_path / "files.cfg"
    cfg.write_text(
        "seed=1\nmode=files\n"
        f"interactions={paths['interactions']}\noutfits={paths['outfits']}\n"
        f"items={paths['items']}\nvisual_features={paths['visual']}\n"
        f"textual_features={paths['textual']}\n"
    )
    return cfg


class TestLoadAndValidate:
    def test_fixture_round_trip(self, tiny_ds, tmp_path):
        paths = write_dataset(tiny_ds, tmp_path)
        loaded = load_dataset(
            interactions=paths["interactions"],
            outfits=paths["outfits"],
            items=paths["items"],
            visual=paths["visual"],
            textual=paths["textual"],
        )
        assert len(loaded.interactions) == 4
        assert datasets_equal(tiny_ds, loaded)

    def test_dangling_item_reference(self, tiny_ds, tmp_path):
        paths = write_dataset(tiny_ds, tmp_path)
        with open(paths["outfits"], "a", encoding="utf-8") as fh:
            fh.write("103\t0,99\n")
        with pytest.raises(DatasetError, match="99"):
            load_dataset(
                interactions=paths["interactions"],
                outfits=paths["outfits"],
                items=paths["items"],
                visual=paths["visual"],
                textual=paths["textual"],
            )

    def test_feature_dimension_mismatch(self):
        items = {i: make_item(0, d_v=16, seed=i) for i in range(3)}
        items[2] = make_item(0, d_v=8, seed=2)
        ds = Dataset(
            users=[1],
            outfits={5: [0, 1, 2]},
            items=items,
            interactions=frozenset({(1, 5)}),
            categories=["c"],
        )
        with pytest.raises(DatasetError, match="dim"):
            validate_dataset(ds)

    def test_malformed_row_reports_line_number(self, tiny_ds, tmp_path):
        paths = write_dataset(tiny_ds, tmp_path)
        with open(paths["interactions"], "a", encoding="utf-8") as fh:
            fh.write("not-an-id\t7\n")
        with pytest.raises(DatasetError, match=r":5"):
            load_dataset(
                interactions=paths["interactions"],
                outfits=paths["outfits"],
                items=paths["items"],
                visual=paths["visual"],
                textual=paths["textual"],
            )

    @pytest.mark.parametrize("token", ["+7", " 7", "7 ", "-0", "1_0", "\u0663"])
    @pytest.mark.parametrize("kind", ["interactions", "outfits", "items"])
    def test_id_that_is_not_ascii_digits_exits_one_through_ingest(
        self, tmp_path, capsys, kind, token
    ):
        from fashiongraph.cli import main

        paths = write_dataset(tiny_dataset(), tmp_path / "data")
        line = {"interactions": f"{token}\t101", "outfits": f"103\t0,{token}",
                "items": f"{token}\tbag"}[kind]
        with open(paths[kind], "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        lineno = len(paths[kind].read_text(encoding="utf-8").splitlines())
        assert main(["ingest", "--config", str(files_config(tmp_path, paths))]) == 1
        err = capsys.readouterr().err
        assert f"{paths[kind]}:{lineno}: not an integer id: {token!r}" in err, err

    @pytest.mark.parametrize("kind, line, message", [
        ("outfits", "103\t4", "outfit 103: needs >= 2 items, has 1"),
        ("outfits", "103\t0,999", "outfit 103: references missing item 999"),
        ("outfits", "103\t2,4,2", "outfit 103: duplicate item ids"),
        ("interactions", "11\t31000", "interaction (11, 31000): unknown outfit 31000"),
    ])
    def test_a_cross_file_error_exits_one_through_ingest_naming_its_file_and_line(
        self, tmp_path, capsys, kind, line, message
    ):
        from fashiongraph.cli import main

        paths = write_dataset(tiny_dataset(), tmp_path / "data")
        with open(paths[kind], "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        lineno = len(paths[kind].read_text(encoding="utf-8").splitlines())
        assert main(["ingest", "--config", str(files_config(tmp_path, paths))]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {paths[kind]}:{lineno}: {message}\n", err

    def test_crlf_files_load_as_the_lf_files_do(self, tiny_ds, tmp_path):
        paths = write_dataset(tiny_ds, tmp_path)
        for kind in ("interactions", "outfits", "items"):
            paths[kind].write_bytes(paths[kind].read_bytes().replace(b"\n", b"\r\n"))
        loaded = load_dataset(**paths)
        assert datasets_equal(tiny_ds, loaded)

    def test_a_lone_cr_does_not_end_a_line(self, tiny_ds, tmp_path):
        paths = write_dataset(tiny_ds, tmp_path)
        paths["interactions"].write_text("10\t100\r10\t101\n11\t101\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"interactions.tsv:1: expected 2 .* got 3"):
            load_dataset(**paths)

    def test_outfit_needs_two_items(self, tiny_ds):
        bad = Dataset(
            users=tiny_ds.users,
            outfits={**tiny_ds.outfits, 103: [0]},
            items=tiny_ds.items,
            interactions=tiny_ds.interactions,
            categories=tiny_ds.categories,
        )
        with pytest.raises(DatasetError, match=">= 2 items"):
            validate_dataset(bad)

    def test_interaction_with_unknown_outfit(self, tiny_ds):
        bad = Dataset(
            users=tiny_ds.users,
            outfits=tiny_ds.outfits,
            items=tiny_ds.items,
            interactions=tiny_ds.interactions | {(10, 999)},
            categories=tiny_ds.categories,
        )
        with pytest.raises(DatasetError, match="999"):
            validate_dataset(bad)


class TestFeatureFile:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = {i: rng.normal(size=12).astype(np.float32) for i in (3, 7, 2**63)}
        path = tmp_path / "f.bin"
        write_features(path, feats)
        back = read_features(path)
        assert set(back) == set(feats)
        for k in feats:
            assert back[k].dtype == np.float32
            assert np.array_equal(back[k], feats[k])
        # rewriting the loaded mapping reproduces the same bytes
        path2 = tmp_path / "g.bin"
        write_features(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 12)
        with pytest.raises(DatasetError, match="magic"):
            read_features(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "x.bin"
        write_features(p, {1: np.zeros(4, dtype=np.float32)})
        p.write_bytes(p.read_bytes()[:-2])
        with pytest.raises(DatasetError, match="truncated"):
            read_features(p)


def corrupted_visual_files(blob: bytes, n_flips: int = 200):
    """``blob`` cut at every offset, then ``n_flips`` seeded copies with 1-3
    bytes XORed with a nonzero mask."""
    yield from (blob[:n] for n in range(len(blob)))
    rng = np.random.default_rng(2024)
    for _ in range(n_flips):
        flipped = bytearray(blob)
        for pos in rng.choice(len(blob), size=rng.integers(1, 4), replace=False):
            flipped[pos] ^= int(rng.integers(1, 256))
        yield bytes(flipped)


class TestFeatureFileFuzz:
    """Every corruption of a feature file loads or names the file."""

    def test_every_truncation_and_seeded_flip_loads_or_names_the_file(self, tmp_path):
        paths = write_dataset(tiny_dataset(), tmp_path)
        blob = paths["visual"].read_bytes()
        assert len(blob) == 180  # 20-byte header, 5 records of id + 6 floats
        outcomes = {"loaded": 0, "refused": 0}
        for case in corrupted_visual_files(blob):
            paths["visual"].write_bytes(case)
            try:
                load_dataset(paths["interactions"], paths["outfits"], paths["items"],
                             paths["visual"], paths["textual"])
                outcomes["loaded"] += 1
            except DatasetError as exc:
                assert str(paths["visual"]) in str(exc), (case, exc)
                outcomes["refused"] += 1
        # A flip inside a float payload leaves a loadable file; the rest do not.
        assert outcomes["loaded"] > 0 and outcomes["refused"] > len(blob)

    def test_corrupt_feature_files_exit_one_through_ingest(self, tmp_path, capsys):
        from fashiongraph.cli import main

        paths = write_dataset(tiny_dataset(), tmp_path / "data")
        cfg = files_config(tmp_path, paths)
        blob = paths["visual"].read_bytes()
        # Cuts in the header, an id and the payload, and flips of the count,
        # the dimension, an id and a float to NaN.
        cases = [blob[:n] for n in (0, 12, 19, 25, 100, 179)] + [
            blob[:12] + b"\x06" + blob[13:],  # count 6: 5 records are too short
            blob[:16] + b"\x07" + blob[17:],  # dim 7
            blob[:20] + b"\x03" + blob[21:],  # item 0's id becomes 3: a duplicate
            blob[:28] + b"\xff\xff\xff\x7f" + blob[32:],  # item 0's first value is NaN
        ]
        for case in cases:
            paths["visual"].write_bytes(case)
            assert main(["ingest", "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err and str(paths["visual"]) in err, err


class TestFeatureChunks:
    """``read_features`` reads records a chunk at a time; a chunk of 1 or 3
    records must give what one parse of the whole file gives."""

    DIM = 5
    RECORD = 8 + 4 * DIM

    def write(self, tmp_path, count=7):
        rng = np.random.default_rng(11)
        feats = {2**63 + int(i): rng.normal(size=self.DIM).astype(np.float32)
                 for i in rng.permutation(1000)[:count]}
        path = tmp_path / "f.bin"
        write_features(path, feats)
        return path

    @pytest.mark.parametrize("records", [1, 3])
    def test_chunked_read_equals_one_parse(self, tmp_path, monkeypatch, records):
        path = self.write(tmp_path)  # 7 records: not a multiple of 3
        monkeypatch.setattr(dataio, "FEATURES_CHUNK_BYTES", records * self.RECORD)
        layout = np.dtype([("id", "<u8"), ("vec", "<f4", (self.DIM,))])
        whole = np.frombuffer(path.read_bytes(), dtype=layout, offset=20)
        back = read_features(path)
        assert list(back) == [int(i) for i in whole["id"]]
        np.testing.assert_array_equal(np.stack(list(back.values())), whole["vec"])

    @pytest.mark.parametrize("records", [1, 3])
    def test_cut_inside_a_later_chunk_is_truncated(self, tmp_path, monkeypatch, records):
        path = self.write(tmp_path)
        blob = path.read_bytes()
        cut = 20 + 5 * self.RECORD + 7  # inside record 5: chunk 5 or chunk 1
        path.write_bytes(blob[:cut])
        monkeypatch.setattr(dataio, "FEATURES_CHUNK_BYTES", records * self.RECORD)
        with pytest.raises(DatasetError, match=f"{path}: truncated \\({cut} bytes"):
            read_features(path)
        # The same cut found while reading, as when the file shrinks after
        # its size was taken.
        monkeypatch.setattr(dataio, "os", SimpleNamespace(
            fstat=lambda fd: SimpleNamespace(st_size=len(blob))))
        with pytest.raises(DatasetError, match=f"{path}: truncated \\({cut} bytes"):
            read_features(path)


def _dataset_with_user_counts(counts: dict[int, int]) -> Dataset:
    items = {i: make_item(i % 2, seed=i) for i in range(4)}
    n_outfits = max(counts.values())
    outfits = {o: [o % 4, (o + 1) % 4] for o in range(n_outfits)}
    inter = {(u, o) for u, n in counts.items() for o in range(n)}
    return Dataset(
        users=sorted(counts),
        outfits=outfits,
        items=items,
        interactions=frozenset(inter),
        categories=["a", "b"],
    )


class TestSplits:
    def test_ten_interactions_split_7_1_2(self):
        ds = _dataset_with_user_counts({1: 10})
        s = split_interactions(ds, seed=0)
        assert (len(s.train[1]), len(s.val[1]), len(s.test[1])) == (7, 1, 2)

    def test_single_interaction_all_train(self):
        ds = _dataset_with_user_counts({1: 1, 2: 10})
        s = split_interactions(ds, seed=0)
        assert (len(s.train[1]), len(s.val[1]), len(s.test[1])) == (1, 0, 0)

    def test_same_seed_identical(self):
        ds = _dataset_with_user_counts({1: 9, 2: 13, 3: 2})
        a = split_interactions(ds, seed=42)
        b = split_interactions(ds, seed=42)
        assert a.train == b.train and a.val == b.val and a.test == b.test

    def test_partition_and_sizes(self):
        # train/val/test partition each user's interactions; sizes follow
        # test = max(1, floor(0.2 n)) and val = max(1, floor(0.1 (n - test)))
        # when at least two train candidates remain.
        counts = {u: n for u, n in zip(range(20), list(range(1, 21)))}
        ds = _dataset_with_user_counts(counts)
        s = split_interactions(ds, seed=7)
        for u, n in counts.items():
            parts = [s.train[u], s.val[u], s.test[u]]
            union = frozenset().union(*parts)
            assert union == frozenset(o for (uu, o) in ds.interactions if uu == u)
            assert sum(len(p) for p in parts) == n  # pairwise disjoint
            assert len(s.train[u]) >= 1
            if n >= 2:
                expected_test = max(1, math.floor(0.2 * n))
                rem = n - expected_test
                expected_val = max(1, math.floor(0.1 * rem)) if rem >= 2 else 0
                assert len(s.test[u]) == expected_test
                assert len(s.val[u]) == expected_val

    def test_80_10_10_scheme(self):
        ds = _dataset_with_user_counts({1: 20})
        s = split_interactions(ds, seed=0, scheme="per_user_80_10_10")
        assert (len(s.train[1]), len(s.val[1]), len(s.test[1])) == (16, 2, 2)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            split_interactions(_dataset_with_user_counts({1: 3}), 0, scheme="bogus")

    def test_negative_pool_is_items_outside_outfits(self, tiny_ds):
        extra = dict(tiny_ds.items)
        extra[50] = make_item(1, seed=50)
        ds = Dataset(
            users=tiny_ds.users,
            outfits=tiny_ds.outfits,
            items=extra,
            interactions=tiny_ds.interactions,
            categories=tiny_ds.categories,
        )
        s = split_interactions(ds, seed=0)
        assert s.compat_negative_pool == frozenset({50})


class TestSynthetic:
    def test_constructive_invariants(self):
        cfg = SyntheticConfig(n_users=20, n_outfits=40, n_items=60,
                              n_categories=6, n_clusters=2)
        ds = generate_synthetic(cfg, seed=0)
        validate_dataset(ds)
        assert len(ds.users) == 20 and len(ds.outfits) == 40 and len(ds.items) == 60
        assert len(ds.categories) == 6

    def test_zero_clusters_rejected(self):
        with pytest.raises(DatasetError):
            generate_synthetic(SyntheticConfig(n_clusters=0), seed=0)

    def test_fewer_items_than_categories_rejected(self):
        with pytest.raises(DatasetError):
            generate_synthetic(SyntheticConfig(n_items=4, n_categories=6), seed=0)

    def test_cluster_purity_by_counting(self):
        cfg = SyntheticConfig()
        ds = generate_synthetic(cfg, seed=5)
        # reconstruct cluster membership the same way the generator assigns it:
        # users and outfits round-robin over clusters
        own = 0
        for u, o in ds.interactions:
            if u % cfg.n_clusters == o % cfg.n_clusters:
                own += 1
        assert own / len(ds.interactions) >= 0.9

    def test_determinism(self):
        a = generate_synthetic(SyntheticConfig(), seed=9)
        b = generate_synthetic(SyntheticConfig(), seed=9)
        assert datasets_equal(a, b)

    def test_pool_items_exist(self):
        ds = generate_synthetic(SyntheticConfig(), seed=1)
        used = {i for members in ds.outfits.values() for i in members}
        assert len(set(ds.items) - used) > 0


# Seven synthetic configs, each pinned by the sha256 of the five files
# ``write_dataset`` writes (in its path order) at three or four seeds.
PLANNED_CONFIGS = {
    "default": SyntheticConfig(),
    "five_categories": SyntheticConfig(n_categories=5),
    "three_clusters_four_categories": SyntheticConfig(n_clusters=3, n_categories=4),
    "purity_zero": SyntheticConfig(cluster_purity=0.0),
    "tiny_three_clusters": SyntheticConfig(n_users=3, n_outfits=3, n_items=12, n_categories=3,
                                           n_clusters=3, items_per_outfit=2),
    "one_cluster_seven_categories": SyntheticConfig(n_clusters=1, n_categories=7),
    "six_per_outfit": SyntheticConfig(items_per_outfit=6),
}
GOLDEN_DIGESTS = {
    "default": {
        0: "c6518955de64d6b0865d8338391533fbeb147b29d75ab971a8bb45a5f9ab0274",
        1: "65d6e582db36bfc0a757f3e26f264f1ad588867729c0a825325c84345d808e2c",
        2: "6cdb842b082e492406bc5cdd8d2530f03f894d1ef249a2ce9f45a48a867eb476",
        7: "6ca745168d7263b94ea1e4fd32da9f54ed410646b57826ac5e9cc0ea9d23521c",
    },
    "five_categories": {
        0: "0b43ae3628fea51fc82f88f09a87246e96020d12ffea76942f9c983bf7da4638",
        1: "064ac2f3373e54506d5354b117277b2760cee9898a3a832ff77fa06448581704",
        2: "727f7751688f0f6f70f96a472a8ef6a961ca8a018f8b8acc587857eea9e70e83",
    },
    "three_clusters_four_categories": {
        0: "671cc9c50eb1002b7dbe2be4ecd1dfb028fa25009155498e6cc1d91b4afd11d8",
        1: "6fe2cde516c06f1bf1d58a9bf4ab6a8c6ea0be0618455f287766fd993101b275",
        2: "c4d521b7bc26ffc5b50f91db1c063deec104796675e6b17f0df13850b1b36d3c",
    },
    "purity_zero": {
        0: "b4a13b841dbeae705e3afe721fcc24cecbe8213eadd4e17c079b59420c43b636",
        1: "d39fcdd4c765aafb984d9a23ced2fe53e9ca0f49dc9ae6cc81678195a1a8ce3a",
        2: "c05caf1ef7de5862b086e82a229ad4568859626c2266399cfdce443bb48ffcb9",
    },
    "tiny_three_clusters": {
        0: "6cea58a0364fa5cadd27be8a7f5b4f166b1355f0ec7de4296a47dd3a5198e293",
        1: "d2dbde4f42606cf700b84dbec69570b4237578e2c5d9e10960f28ff12e563fd0",
        2: "60e2952df6016dbe4ad3c65042b70ddc1c55b38df576d8cab6effa00e7e584f3",
    },
    "one_cluster_seven_categories": {
        0: "bf3733963814f05694f25756f5fb311b2fafd2b974254ad840993b5428841fb7",
        1: "2c3e47dfa76ee586297fd107419deec52482d164096c817fdf450d7c6264f93e",
        2: "59c0244d56d8c8ef18a220870d9f88dbda6727358d06a290c223d94be1c54ab4",
    },
    "six_per_outfit": {
        0: "783f2ef575c70d37d8a335307c1bfb9b022998afa5c84cc70acdc9febc9efb46",
        1: "6fad8420b96eec73e0219c609eb6c323ff0b5aca8689086b727a5ea38817bf95",
        2: "61a47000129ca2dac499aa8ded5d07189174253b06494a4fafec1b9fc17a7b65",
    },
}
PLANNED_CASES = [(name, seed) for name, by_seed in GOLDEN_DIGESTS.items() for seed in by_seed]


class TestSyntheticPlan:
    @pytest.mark.parametrize("name,seed", PLANNED_CASES)
    def test_files_match_the_golden_digest(self, tmp_path, name, seed):
        paths = write_dataset(generate_synthetic(PLANNED_CONFIGS[name], seed), tmp_path)
        digest = hashlib.sha256()
        for path in paths.values():
            digest.update(path.read_bytes())
        assert digest.hexdigest() == GOLDEN_DIGESTS[name][seed]

    @pytest.mark.parametrize("name,seed", PLANNED_CASES)
    def test_clusters_and_categories_follow_the_ids(self, name, seed):
        cfg = PLANNED_CONFIGS[name]
        ds = generate_synthetic(cfg, seed)
        k, n_placed = cfg.n_clusters, cfg.n_items - int(cfg.n_items * cfg.unused_item_fraction)
        assert all(item.category == i % cfg.n_categories for i, item in ds.items.items())
        for oid, members in ds.outfits.items():
            assert all(i % k == oid % k and i < n_placed for i in members), (oid, members)
        n = min(cfg.interactions_per_user, cfg.n_outfits)
        for u in ds.users:
            own = len(range(u % k, cfg.n_outfits, k))
            in_cluster = sum(o % k == u % k for v, o in ds.interactions if v == u)
            assert in_cluster == min(round(cfg.cluster_purity * n), own), u
