import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fashiongraph
from fashiongraph import dataio
from fashiongraph.cli import main, make_run_config, parse_config_file, prepare
from fashiongraph.dataio import (
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    read_features,
    write_dataset,
    write_features,
)
from fashiongraph.embed import check_checkpoints, commit_checkpoint, read_arrays
from fashiongraph.graph import build_fashion_graph

from conftest import tiny_dataset

SYNTH_CFG = """mode=synthetic
seed={seed}
out_dir={out}
epochs={epochs}
dtype=float32
synth_users=8
synth_outfits=12
synth_items=24
synth_interactions_per_user=6
"""


def write_cfg(tmp_path, name="run.cfg", seed=13, epochs=2, out="out", **extra):
    out_dir = tmp_path / out
    text = SYNTH_CFG.format(seed=seed, out=out_dir, epochs=epochs)
    # A key in ``extra`` replaces the template's line for it.
    text = "".join(line for line in text.splitlines(keepends=True)
                   if line.partition("=")[0] not in extra)
    for key, value in extra.items():
        text += f"{key}={value}\n"
    path = tmp_path / name
    path.write_text(text)
    return path, out_dir


@pytest.mark.parametrize("mode", ["synthetic", "files"])
def test_prepare_validates_the_dataset_once(tmp_path, monkeypatch, mode):
    files = {}
    if mode == "files":
        paths = write_dataset(tiny_dataset(), tmp_path / "data")
        files = dict(mode="files", visual_features=paths["visual"],
                     textual_features=paths["textual"],
                     **{key: paths[key] for key in ("interactions", "outfits", "items")})
    cfg, _ = write_cfg(tmp_path, **files)
    real, checked = dataio.validate_dataset, []
    for module in (dataio, fashiongraph.graph):  # wherever a step looks the check up
        monkeypatch.setattr(module, "validate_dataset",
                            lambda ds: checked.append(ds) or real(ds), raising=False)
    ds, _, _ = prepare(make_run_config(parse_config_file(cfg), {}))
    assert checked == [ds]


class TestConfig:
    def test_parse_and_override(self, tmp_path):
        path, _ = write_cfg(tmp_path, seed=5)
        rc = make_run_config(parse_config_file(path), {"seed": 9, "out_dir": None})
        assert rc.seed == 9 and rc.synth_users == 8

    def test_missing_seed_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("mode=synthetic\n")
        with pytest.raises(ValueError, match="seed"):
            make_run_config(parse_config_file(p), {})

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("seed=1\nwat=2\n")
        with pytest.raises(ValueError, match="wat"):
            make_run_config(parse_config_file(p), {})

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\nseed=3\n")
        assert parse_config_file(p) == {"seed": "3"}

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, tmp_path, k):
        path, _ = write_cfg(tmp_path, k=k)
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            make_run_config(parse_config_file(path), {})

    def test_key_given_twice_rejected_naming_both_lines(self, tmp_path):
        p = tmp_path / "twice.cfg"
        p.write_text("seed=1\nmode=synthetic\nseed=2\n")
        with pytest.raises(ValueError, match=r"twice.cfg:3: 'seed' is already set on line 1"):
            parse_config_file(p)

    def test_files_mode_needs_paths(self, tmp_path):
        p = tmp_path / "f.cfg"
        p.write_text("seed=1\nmode=files\n")
        with pytest.raises(ValueError, match="path"):
            make_run_config(parse_config_file(p), {})


class TestIngest:
    def test_synthetic_summary(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path)
        assert main(["ingest", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "users: 8" in out and "outfits: 12" in out and "items: 24" in out
        assert "categories: 6" in out
        assert "top-5 co-occurring category pairs:" in out
        rc = make_run_config(parse_config_file(path), {})
        graph = build_fashion_graph(generate_synthetic(rc.synthetic_config(), rc.seed))
        n_item_item = len(graph.levels["item_item"].tgt)
        assert n_item_item > 0
        # the largest level, printed right after the user-outfit + outfit-item count
        assert f"graph edges: {graph.n_edges}\nitem-item edges: {n_item_item}\n" in out

    def test_category_histogram_counts_every_item_once(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path)
        assert main(["ingest", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        rc = make_run_config(parse_config_file(path), {})
        ds = generate_synthetic(rc.synthetic_config(), rc.seed)
        counts = [0] * len(ds.categories)
        for item in ds.items.values():
            counts[item.category] += 1
        lines = "".join(f"  {name}: {n}\n" for name, n in zip(ds.categories, counts))
        assert f"category histogram (items per category):\n{lines}top-5" in out

    def test_bad_training_key_exits_one(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, epochs=0)
        assert main(["ingest", "--config", str(path)]) == 1
        assert "epochs must be positive" in capsys.readouterr().err

    def test_files_mode_counts(self, tmp_path, capsys):
        ds = tiny_dataset()
        paths = write_dataset(ds, tmp_path / "data")
        cfg = tmp_path / "files.cfg"
        cfg.write_text(
            "seed=1\nmode=files\n"
            f"interactions={paths['interactions']}\noutfits={paths['outfits']}\n"
            f"items={paths['items']}\nvisual_features={paths['visual']}\n"
            f"textual_features={paths['textual']}\n"
        )
        assert main(["ingest", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "users: 2" in out and "interactions: 4" in out

    def test_corrupt_file_exits_one(self, tmp_path, capsys):
        ds = tiny_dataset()
        paths = write_dataset(ds, tmp_path / "data")
        with open(paths["outfits"], "a", encoding="utf-8") as fh:
            fh.write("7\t0,12345\n")  # dangling item
        cfg = tmp_path / "files.cfg"
        cfg.write_text(
            "seed=1\nmode=files\n"
            f"interactions={paths['interactions']}\noutfits={paths['outfits']}\n"
            f"items={paths['items']}\nvisual_features={paths['visual']}\n"
            f"textual_features={paths['textual']}\n"
        )
        assert main(["ingest", "--config", str(cfg)]) == 1
        assert "12345" in capsys.readouterr().err


class TestTrain:
    def test_smoke_run_writes_outputs(self, tmp_path):
        path, out_dir = write_cfg(tmp_path, epochs=2)
        assert main(["train", "--config", str(path)]) == 0
        assert (out_dir / "best.ckpt").exists()
        assert (out_dir / "last.ckpt").exists()
        log = (out_dir / "train_log.csv").read_text().splitlines()
        assert len(log) == 2
        assert len(log[0].split(",")) == 6

    def test_zero_lr_keeps_initial_parameters(self, tmp_path):
        path, out_dir = write_cfg(tmp_path, epochs=2, lr="0.0",
                                  dropout_embed="0.0", dropout_attn="0.0")
        assert main(["train", "--config", str(path)]) == 0
        from fashiongraph.cli import load_run_data, prepare
        from fashiongraph.train import make_model

        rc = make_run_config(parse_config_file(path), {})
        ds, splits, graph = prepare(rc)
        init = make_model(graph, ds, rc.train_config())
        saved = read_arrays(out_dir / "last.ckpt")
        for name, p in init.parameters():
            np.testing.assert_array_equal(saved[name], p.data.astype(np.float32))

    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        pa, out_a = write_cfg(tmp_path, name="a.cfg", epochs=6, out="out_a")
        pb, out_b = write_cfg(tmp_path, name="b.cfg", epochs=6, out="out_b")
        assert main(["train", "--config", str(pa)]) == 0
        assert main(["train", "--config", str(pb), "--epochs", "3"]) == 0
        assert main(["train", "--config", str(pb), "--resume"]) == 0
        assert (out_a / "best.ckpt").read_bytes() == (out_b / "best.ckpt").read_bytes()
        assert (out_a / "last.ckpt").read_bytes() == (out_b / "last.ckpt").read_bytes()

    def test_k_below_one_exits_one_before_training(self, tmp_path, capsys):
        path, out_dir = write_cfg(tmp_path, k=0)
        assert main(["train", "--config", str(path)]) == 1
        assert "k must be >= 1, got 0" in capsys.readouterr().err
        assert not (out_dir / "train_log.csv").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("dtype", "int64", "dtype"),
        ("dtype", "bogus", "dtype"),
        ("dtype", "float16", "dtype"),
        ("lr", "nan", "lr"),
        ("l2", "nan", "l2"),
        ("lambda_rec", "nan", "lambda_rec"),
        ("lambda_rec", "inf", "lambda_rec"),
        ("lambda_comp", "-1", "lambda_comp"),
        ("d_h", "0", "d_h"),
        ("view_hidden", "0", "view_hidden"),
        ("batch_size", "1.5", "batch_size"),
        ("synth_noise", "nan", "feature_noise"),
        ("synth_noise", "-0.5", "feature_noise"),
        ("synth_unused_fraction", "nan", "unused_item_fraction"),
        ("synth_categories", "0", "n_categories"),
        ("synth_categories", "-2", "n_categories"),
        ("synth_dv", "0", "d_v"),
        ("synth_dv", "-1", "d_v"),
        ("synth_dt", "0", "d_t"),
        ("synth_users", "0", "n_users"),
        ("synth_outfits", "0", "n_outfits"),
        ("synth_items", "0", "n_items"),
        ("synth_clusters", "0", "n_clusters"),
        ("synth_interactions_per_user", "0", "interactions_per_user"),
        ("synth_items_per_outfit", "1", "items_per_outfit"),
    ])
    def test_bad_config_value_exits_one_naming_the_key(self, tmp_path, capsys, key, value,
                                                       named):
        path, out_dir = write_cfg(tmp_path, **{key: value})
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, err
        assert not (out_dir / "train_log.csv").exists()

    def test_resume_without_checkpoint_fails(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        assert main(["train", "--config", str(path), "--resume"]) == 1

    def _resume_fails_naming(self, path, out_dir, capsys, missing):
        # A log line past last.ckpt's epoch, as a crash before its commit
        # leaves, shows whether the resume cut the log.
        log = out_dir / "train_log.csv"
        log.write_bytes(log.read_bytes() + b"3,0,0,0,0,0\n")
        before = log.read_bytes()
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--resume", "--epochs", "3"]) == 1
        last = out_dir / "last.ckpt"
        assert capsys.readouterr().err == (
            f"error: {last}: checkpoint is missing section '{missing}'\n")
        assert log.read_bytes() == before

    @pytest.mark.parametrize("missing", ["meta/epoch", "meta/best_hr", "meta/best_epoch", "opt/t",
                                         "opt/m/user_table", "opt/v/user_table"])
    def test_resume_without_a_bookkeeping_section_exits_one_naming_the_file(
            self, tmp_path, capsys, missing):
        path, out_dir = write_cfg(tmp_path, epochs=2)
        assert main(["train", "--config", str(path)]) == 0
        last = out_dir / "last.ckpt"
        arrays = read_arrays(last)
        del arrays[missing]
        commit_checkpoint(last, check_checkpoints({last: (arrays,)})[last])
        self._resume_fails_naming(path, out_dir, capsys, missing)

    def test_resume_from_a_copy_of_best_exits_one_naming_the_file(self, tmp_path, capsys):
        path, out_dir = write_cfg(tmp_path, epochs=2)
        assert main(["train", "--config", str(path)]) == 0
        shutil.copyfile(out_dir / "best.ckpt", out_dir / "last.ckpt")
        self._resume_fails_naming(path, out_dir, capsys, "meta/best_hr")


class TestEvaluateCommand:
    def _trained(self, tmp_path):
        path, out_dir = write_cfg(tmp_path, epochs=2)
        assert main(["train", "--config", str(path)]) == 0
        return path, out_dir

    def test_report_bytes_reproducible(self, tmp_path):
        path, out_dir = self._trained(tmp_path)
        for name in ("r1.txt", "r2.txt"):
            assert main([
                "evaluate", "--config", str(path),
                "--checkpoint", str(out_dir / "best.ckpt"),
                "--out", str(tmp_path / name),
            ]) == 0
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()

    def test_missing_checkpoint(self, tmp_path, capsys):
        path, _ = self._trained(tmp_path)
        assert main([
            "evaluate", "--config", str(path), "--checkpoint", str(tmp_path / "nope.ckpt"),
        ]) in (1, 2)

    def test_report_bytes_independent_of_blas_threads(self, tmp_path):
        # One checkpoint evaluated in fresh processes with one and with two
        # OpenBLAS threads gives the same per-user report bytes.  The data is
        # big enough that two threads already change a 1-epoch train's bytes.
        path, out_dir = write_cfg(
            tmp_path, epochs=1, synth_users=300, synth_outfits=400, synth_items=600,
            synth_dv=256, synth_dt=64,
        )
        assert main(["train", "--config", str(path)]) == 0
        src = str(Path(fashiongraph.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            report = tmp_path / f"report_{threads}.txt"
            proc = subprocess.run(
                [sys.executable, "-m", "fashiongraph.cli", "evaluate", "--config", str(path),
                 "--checkpoint", str(out_dir / "best.ckpt"), "--out", str(report), "--per-user"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        assert reports[0].count(b"\n") > 300  # the per-user rows are there

    def test_thread_flag_is_gone(self, tmp_path, capsys):
        path, out_dir = self._trained(tmp_path)
        with pytest.raises(SystemExit):
            main(["evaluate", "--config", str(path), "--checkpoint",
                  str(out_dir / "best.ckpt"), "--threads", "2"])
        assert "--threads" in capsys.readouterr().err


class TestRecommendAndFltb:
    def _trained(self, tmp_path):
        path, out_dir = write_cfg(tmp_path, epochs=2)
        assert main(["train", "--config", str(path)]) == 0
        return path, out_dir

    def test_recommend_top_k(self, tmp_path, capsys):
        path, out_dir = self._trained(tmp_path)
        capsys.readouterr()  # drop the training summary
        assert main([
            "recommend", "--config", str(path),
            "--checkpoint", str(out_dir / "best.ckpt"), "--user", "3", "--k", "5",
        ]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5
        scores = [float(r.split("\t")[2]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_recommend_k_above_the_outfit_count_lists_every_candidate(self, tmp_path, capsys):
        path, out_dir = self._trained(tmp_path)
        ds, splits, _ = prepare(make_run_config(parse_config_file(path), {}))
        user = ds.users[0]
        capsys.readouterr()  # drop the training summary
        assert main([
            "recommend", "--config", str(path),
            "--checkpoint", str(out_dir / "best.ckpt"), "--user", str(user), "--k", "1000",
        ]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        candidates = set(ds.outfits) - splits.train[user] - splits.val.get(user, frozenset())
        assert sorted(int(r.split("\t")[1]) for r in rows) == sorted(candidates)

    def test_recommend_excludes_training_outfits(self, tmp_path, capsys):
        path, out_dir = self._trained(tmp_path)
        rc = make_run_config(parse_config_file(path), {})
        from fashiongraph.cli import prepare

        ds, splits, graph = prepare(rc)
        user = ds.users[0]
        capsys.readouterr()  # drop the training summary
        assert main([
            "recommend", "--config", str(path),
            "--checkpoint", str(out_dir / "best.ckpt"),
            "--user", str(user), "--k", "12",
        ]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        recommended = {int(r.split("\t")[1]) for r in rows}
        blocked = set(splits.train[user]) | set(splits.val[user])
        assert not blocked & recommended

    @pytest.mark.parametrize("k", [0, -3])
    def test_recommend_k_below_one_exits_one(self, tmp_path, capsys, k):
        path, out_dir = self._trained(tmp_path)
        capsys.readouterr()  # drop the training summary
        assert main([
            "recommend", "--config", str(path),
            "--checkpoint", str(out_dir / "best.ckpt"), "--user", "3", "--k", str(k),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"k must be >= 1, got {k}" in captured.err

    def test_unknown_user_exits_one(self, tmp_path, capsys):
        path, out_dir = self._trained(tmp_path)
        assert main([
            "recommend", "--config", str(path),
            "--checkpoint", str(out_dir / "best.ckpt"), "--user", "999",
        ]) == 1

    def test_unknown_user_message_has_no_repr_quotes(self, tmp_path, capsys):
        path, out_dir = self._trained(tmp_path)
        capsys.readouterr()  # drop the training summary
        assert main([
            "recommend", "--config", str(path),
            "--checkpoint", str(out_dir / "best.ckpt"), "--user", "999",
        ]) == 1
        assert capsys.readouterr().err == "error: unknown user id 999\n"

    def test_fltb_seeded(self, tmp_path, capsys):
        path, out_dir = self._trained(tmp_path)
        capsys.readouterr()  # drop the training summary
        values = []
        for _ in range(2):
            assert main([
                "fltb", "--config", str(path),
                "--checkpoint", str(out_dir / "best.ckpt"),
            ]) == 0
            out = capsys.readouterr().out
            values.append(out)
            assert "fltb_accuracy=" in out
        assert values[0] == values[1]

    def test_fltb_zero_trials_exits_one(self, tmp_path, capsys):
        path, out_dir = self._trained(tmp_path)
        capsys.readouterr()  # drop the training summary
        assert main([
            "fltb", "--config", str(path),
            "--checkpoint", str(out_dir / "best.ckpt"), "--trials", "0",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials must be >= 1, got 0" in captured.err

    def test_export_embeddings(self, tmp_path):
        path, out_dir = self._trained(tmp_path)
        target = tmp_path / "items.bin"
        assert main([
            "export-embeddings", "--config", str(path),
            "--checkpoint", str(out_dir / "best.ckpt"),
            "--which", "items", "--out", str(target),
        ]) == 0
        table = read_features(target)
        assert len(table) == 24
        assert next(iter(table.values())).shape == (64,)


class TestBadFilesExitOne:
    """Bad data files stop ``train`` with exit 1 and a message naming the file."""

    def _files_cfg(self, tmp_path, paths):
        cfg = tmp_path / "files.cfg"
        cfg.write_text(
            f"seed=7\nmode=files\nout_dir={tmp_path / 'out'}\nepochs=1\ndtype=float64\n"
            f"interactions={paths['interactions']}\noutfits={paths['outfits']}\n"
            f"items={paths['items']}\nvisual_features={paths['visual']}\n"
            f"textual_features={paths['textual']}\n"
        )
        return cfg

    def _train_fails(self, tmp_path, paths, capsys, *also):
        assert main(["train", "--config", str(self._files_cfg(tmp_path, paths))]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err, err
        for text in also:
            assert text in err, err

    def test_duplicate_feature_record(self, tmp_path, capsys):
        paths = write_dataset(tiny_dataset(), tmp_path / "data")
        blob = paths["visual"].read_bytes()
        count, dim = struct.unpack_from("<II", blob, 12)
        record = blob[20 : 20 + 8 + 4 * dim]  # item 0, repeated at the end
        paths["visual"].write_bytes(
            blob[:12] + struct.pack("<I", count + 1) + blob[16:] + record
        )
        self._train_fails(tmp_path, paths, capsys, str(paths["visual"]), "duplicate item id 0")

    def test_empty_interactions_file(self, tmp_path, capsys):
        paths = write_dataset(tiny_dataset(), tmp_path / "data")
        paths["interactions"].write_text("")
        self._train_fails(tmp_path, paths, capsys, str(paths["interactions"]), "no interactions")

    def test_feature_value_overflowing_float32_checkpoint(self, tmp_path, capsys):
        ds = generate_synthetic(
            SyntheticConfig(n_users=8, n_outfits=12, n_items=24, interactions_per_user=6), seed=7
        )
        paths = write_dataset(ds, tmp_path / "data")
        visual = read_features(paths["visual"])
        visual[min(visual)][0] = 3e38  # finite as float32; its squares are not
        write_features(paths["visual"], visual)
        out = tmp_path / "out"
        # Epoch 1 would write best.ckpt, then last.ckpt, whose Adam moments
        # are the first to leave float32's range.  Both files are checked
        # before either is opened, so the refusal names last.ckpt and leaves
        # no checkpoint, temporary file or log line behind.
        assert main(["train", "--config", str(self._files_cfg(tmp_path, paths))]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and ".tmp" not in err, err
        assert f"error: {out / 'last.ckpt'}: section 'opt/v/user_table'" in err, err
        assert "non-finite" in err, err
        assert sorted(p.name for p in out.iterdir()) == ["train_log.csv"]
        assert (out / "train_log.csv").read_text() == ""


SHIFT = 2**63 + 1000  # ids from 2^63 up do not fit an int64


def shifted(ds: Dataset, users: int = 0, outfits: int = 0, items: int = 0) -> Dataset:
    """``ds`` with every user, outfit and item id raised by the given amount."""
    return Dataset(
        users=[u + users for u in ds.users],
        outfits={o + outfits: [i + items for i in m] for o, m in ds.outfits.items()},
        items={i + items: item for i, item in ds.items.items()},
        interactions=frozenset((u + users, o + outfits) for u, o in ds.interactions),
        categories=ds.categories,
    )


class TestIdsFromTwoToTheSixtyThree:
    """Ids stay unsigned 64-bit from the files to the output: the default
    synthetic data with its ids raised past 2^63 trains, evaluates and
    recommends like the data it came from."""

    def _run(self, tmp_path, name, ds, user):
        paths = write_dataset(ds, tmp_path / name / "data")
        out = tmp_path / name / "out"
        cfg = tmp_path / name / "run.cfg"
        cfg.write_text(
            f"seed=7\nmode=files\nout_dir={out}\nepochs=2\n"
            f"interactions={paths['interactions']}\noutfits={paths['outfits']}\n"
            f"items={paths['items']}\nvisual_features={paths['visual']}\n"
            f"textual_features={paths['textual']}\n"
        )
        common = ["--config", str(cfg), "--checkpoint", str(out / "best.ckpt")]
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["evaluate", *common, "--per-user", "--out", str(out / "report.txt")]) == 0
        return out, main(["recommend", *common, "--user", str(user), "--k", "5"])

    def test_shifted_item_and_outfit_ids_give_the_same_bytes(self, tmp_path, capsys):
        ds = generate_synthetic(SyntheticConfig(), seed=7)
        user = ds.users[3]
        plain, code = self._run(tmp_path, "plain", ds, user)
        assert code == 0
        plain_top = capsys.readouterr().out.strip().splitlines()[-5:]
        high, code = self._run(tmp_path, "high", shifted(ds, outfits=SHIFT, items=SHIFT), user)
        assert code == 0
        high_top = capsys.readouterr().out.strip().splitlines()[-5:]
        for name in ("best.ckpt", "last.ckpt", "train_log.csv", "report.txt"):
            assert (high / name).read_bytes() == (plain / name).read_bytes(), name
        for a, b in zip(plain_top, high_top, strict=True):
            rank_a, oid_a, score_a = a.split("\t")
            rank_b, oid_b, score_b = b.split("\t")
            assert (rank_b, int(oid_b), score_b) == (rank_a, int(oid_a) + SHIFT, score_a)

    def test_shifted_user_ids_train_and_recommend(self, tmp_path, capsys):
        ds = shifted(generate_synthetic(SyntheticConfig(), seed=7), users=SHIFT)
        _, code = self._run(tmp_path, "users", ds, ds.users[3])
        assert code == 0
        top = capsys.readouterr().out.strip().splitlines()[-5:]
        assert [line.split("\t")[0] for line in top] == ["1", "2", "3", "4", "5"]
