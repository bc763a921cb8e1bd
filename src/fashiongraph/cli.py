"""Command-line entry point.

Runs are driven by a line-oriented ``key=value`` config file; any flag
given on the command line overrides the file.  All randomness flows from
the single ``seed`` key through named substreams, so reruns with the same
config are byte-identical.

Subcommands: ingest, train, evaluate, recommend, fltb, export-embeddings.
Exit codes: 0 ok, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataio import (
    Dataset,
    DatasetError,
    SyntheticConfig,
    Splits,
    generate_synthetic,
    load_dataset,
    split_interactions,
    write_features,
)
from .embed import ModelState, check_checkpoints, commit_checkpoint, load_checkpoint
from .evaluate import evaluate, fltb_accuracy, format_report, ranked_outfits
from .graph import FashionGraph, build_fashion_graph
from .propagate import forward
from .train import Adam, TrainConfig, TrainingDivergedError, make_model, train_epoch


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """``TrainConfig``'s training keys plus a run's data and output keys."""

    mode: str = "synthetic"  # synthetic | files
    out_dir: str = "out"
    k: int = 10
    split_scheme: str = "per_user_80_20"
    # files mode
    interactions: str = ""
    outfits: str = ""
    items: str = ""
    visual_features: str = ""
    textual_features: str = ""
    # synthetic mode
    synth_users: int = 20
    synth_outfits: int = 40
    synth_items: int = 60
    synth_categories: int = 6
    synth_clusters: int = 2
    synth_dv: int = 16
    synth_dt: int = 8
    synth_items_per_outfit: int = 4
    synth_interactions_per_user: int = 12
    synth_purity: float = 0.95
    synth_noise: float = 0.2
    synth_unused_fraction: float = 0.2

    def train_config(self) -> TrainConfig:
        """The training keys of this config as a plain ``TrainConfig``."""
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def synthetic_config(self) -> SyntheticConfig:
        return SyntheticConfig(
            n_users=self.synth_users,
            n_outfits=self.synth_outfits,
            n_items=self.synth_items,
            n_categories=self.synth_categories,
            n_clusters=self.synth_clusters,
            d_v=self.synth_dv,
            d_t=self.synth_dt,
            items_per_outfit=self.synth_items_per_outfit,
            interactions_per_user=self.synth_interactions_per_user,
            cluster_purity=self.synth_purity,
            feature_noise=self.synth_noise,
            unused_item_fraction=self.synth_unused_fraction,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """The file's ``key=value`` lines as a dict; a key given twice is refused."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ValueError(f"{path}:{lineno}: {key!r} is already set on line {lines[key]}")
        values[key], lines[key] = value.strip(), lineno
    return values


def make_run_config(file_values: dict[str, str], overrides: dict[str, object]) -> RunConfig:
    merged: dict[str, object] = {}
    for key, raw in file_values.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = raw
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if "seed" not in merged:
        raise ValueError("config must set a seed (wall-clock seeding is not allowed)")
    typed: dict[str, object] = {}
    for key, value in merged.items():
        annotation = str(_FIELD_TYPES[key])
        if isinstance(value, str) and annotation in ("int", "float"):
            try:
                value = int(value) if annotation == "int" else float(value)
            except ValueError:
                raise ValueError(
                    f"config key {key!r}: cannot parse {value!r} as {annotation}") from None
        typed[key] = value
    rc = RunConfig(**typed)
    if rc.mode not in ("synthetic", "files"):
        raise ValueError(f"mode must be 'synthetic' or 'files', got {rc.mode!r}")
    if rc.k < 1:
        raise ValueError(f"config key k must be >= 1, got {rc.k}")
    if rc.mode == "files":
        paths = {
            "interactions": rc.interactions,
            "outfits": rc.outfits,
            "items": rc.items,
            "visual_features": rc.visual_features,
            "textual_features": rc.textual_features,
        }
        for name, p in paths.items():
            if not p:
                raise ValueError(f"files mode requires the {name} path")
            if not Path(p).exists():
                raise FileNotFoundError(f"{name} file not found: {p}")
    return rc


def load_run_data(rc: RunConfig) -> Dataset:
    if rc.mode == "synthetic":
        return generate_synthetic(rc.synthetic_config(), rc.seed)
    return load_dataset(
        interactions=rc.interactions,
        outfits=rc.outfits,
        items=rc.items,
        visual=rc.visual_features,
        textual=rc.textual_features,
    )


def prepare(rc: RunConfig) -> tuple[Dataset, Splits, FashionGraph]:
    ds = load_run_data(rc)
    splits = split_interactions(ds, rc.seed, scheme=rc.split_scheme)
    graph = build_fashion_graph(ds, splits)
    return ds, splits, graph


def load_model(
    rc: RunConfig, checkpoint: str
) -> tuple[Dataset, Splits, FashionGraph, ModelState]:
    """``prepare`` plus the model of ``rc`` with the checkpoint's parameters."""
    ds, splits, graph = prepare(rc)
    model = make_model(graph, ds, rc.train_config())
    load_checkpoint(model, checkpoint)
    return ds, splits, graph, model


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(rc: RunConfig) -> int:
    ds = load_run_data(rc)
    graph = build_fashion_graph(ds)
    print(f"users: {len(ds.users)}")
    print(f"outfits: {len(ds.outfits)}")
    print(f"items: {len(ds.items)}")
    print(f"interactions: {len(ds.interactions)}")
    print(f"categories: {len(ds.categories)}")
    print(f"graph nodes: {graph.n_nodes}")
    print(f"graph edges: {graph.n_edges}")
    print(f"item-item edges: {len(graph.levels['item_item'].tgt)}")
    print("category histogram (items per category):")
    counts = np.bincount(graph.item_categories, minlength=len(ds.categories))
    for name, count in zip(ds.categories, counts.tolist()):
        print(f"  {name}: {count}")
    # co(c_i, c_j) = co(c_j, c_i): one entry per unordered pair
    pair_counts = {(min(p), max(p)): n for p, n in graph.category_graph.co_counts.items()}
    top = sorted(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    print("top-5 co-occurring category pairs:")
    for (c_i, c_j), n in top:
        print(f"  {ds.categories[c_i]}+{ds.categories[c_j]}: {n}")
    return 0


def _truncate_log(log_path: Path, epochs: int) -> None:
    """Keep the first ``epochs`` lines of the training log; raise
    ``ValueError`` if it holds fewer."""
    lines = log_path.read_bytes().splitlines(keepends=True) if log_path.exists() else []
    if len(lines) < epochs:
        raise ValueError(
            f"cannot resume: {log_path} has {len(lines)} lines but the checkpoint "
            f"is at epoch {epochs}"
        )
    os.truncate(log_path, sum(len(line) for line in lines[:epochs]))


def cmd_train(rc: RunConfig, resume: bool = False) -> int:
    out_dir = Path(rc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_path = out_dir / "best.ckpt"
    last_path = out_dir / "last.ckpt"
    log_path = out_dir / "train_log.csv"

    ds, splits, graph = prepare(rc)
    cfg = rc.train_config()
    model = make_model(graph, ds, cfg)
    optimizer = Adam.from_config(cfg)

    start_epoch = 1
    best_hr = np.float32(-np.inf)
    best_epoch = 0
    if resume:
        if not last_path.exists():
            raise FileNotFoundError(f"cannot resume: {last_path} does not exist")
        extra = load_checkpoint(model, last_path)
        moments = [f"opt/{k}/{name}" for name, _ in model.parameters() for k in "mv"]
        for name in ("meta/epoch", "meta/best_hr", "meta/best_epoch", "opt/t", *moments):
            if name not in extra:
                raise ValueError(f"{last_path}: checkpoint is missing section {name!r}")
        optimizer.load_state_arrays(extra, model.dtype)
        start_epoch = int(extra["meta/epoch"][0]) + 1
        best_hr = np.float32(extra["meta/best_hr"][0])
        best_epoch = int(extra["meta/best_epoch"][0])
        _truncate_log(log_path, start_epoch - 1)

    # last.ckpt is the commit point of an epoch: best.ckpt and the log line
    # are complete before it is replaced, so a crash anywhere leaves at least
    # meta/epoch log lines, and --resume cuts the log back to exactly those.
    with open(log_path, "a" if resume else "w", encoding="utf-8") as log:
        for epoch in range(start_epoch, cfg.epochs + 1):
            stats = train_epoch(model, graph, ds, splits, cfg, optimizer, epoch)
            val = evaluate(
                model, graph, ds, splits, seed=rc.seed, k=rc.k, on="val", include_compat=False
            )
            hr32 = np.float32(val.hr)
            improved = hr32 >= best_hr  # ties go to the later, longer-trained epoch
            if improved:
                best_hr = hr32
                best_epoch = epoch
            # Both files are cast and checked before either is opened, so a
            # refused epoch leaves no file of its own; both share the one
            # ``params`` part, cast once, straight from the model.
            params = {name: p.data for name, p in model.parameters()}
            meta = {"meta/epoch": np.array([epoch], dtype=np.float32)}
            files = {best_path: (params, meta)} if improved else {}
            files[last_path] = (params, {
                **optimizer.state_arrays(),
                **meta,
                "meta/best_hr": np.array([best_hr], dtype=np.float32),
                "meta/best_epoch": np.array([best_epoch], dtype=np.float32),
            })
            images = check_checkpoints(files)
            if improved:
                commit_checkpoint(best_path, images[best_path])
            log.write(
                f"{epoch},{stats.l_rec:.10f},{stats.l_comp:.10f},{stats.l_total:.10f},"
                f"{val.hr:.10f},{val.ndcg:.10f}\n"
            )
            log.flush()
            commit_checkpoint(last_path, images[last_path])
            del images  # no image is kept through the next epoch's training
    print(f"trained {cfg.epochs} epochs; best val HR@{rc.k} {float(best_hr):.6f} "
          f"at epoch {best_epoch}")
    print(f"checkpoints: {best_path} (best), {last_path} (last); log: {log_path}")
    return 0


def cmd_evaluate(rc: RunConfig, checkpoint: str, out: str | None, per_user: bool) -> int:
    ds, splits, graph, model = load_model(rc, checkpoint)
    report = evaluate(model, graph, ds, splits, seed=rc.seed, k=rc.k, on="test")
    text = format_report(report, per_user=per_user)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def cmd_recommend(rc: RunConfig, checkpoint: str, user: int, k: int | None) -> int:
    ds, splits, graph, model = load_model(rc, checkpoint)
    prop = forward(graph, ds, model, mode="eval")
    top_k = k if k is not None else rc.k
    _, ranked, scores = next(ranked_outfits([user], prop, graph, splits, k=top_k))
    for rank, (oid, score) in enumerate(zip(ranked, scores), start=1):
        print(f"{rank}\t{oid}\t{score:.10f}")
    return 0


def cmd_fltb(rc: RunConfig, checkpoint: str, trials: int) -> int:
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    ds, splits, graph, model = load_model(rc, checkpoint)
    prop = forward(graph, ds, model, mode="eval")
    accuracy, n = fltb_accuracy(
        ds, splits, prop, model, seed=rc.seed, trials_per_outfit=trials
    )
    print(f"fltb_accuracy={accuracy:.10f}")
    print(f"fltb_trials={n}")
    return 0


def cmd_export_embeddings(rc: RunConfig, checkpoint: str, which: str, out: str) -> int:
    ds, splits, graph, model = load_model(rc, checkpoint)
    prop = forward(graph, ds, model, mode="eval")
    table = {
        "users": (graph.user_ids, prop.h_user_star),
        "outfits": (graph.outfit_ids, prop.h_outfit_star),
        "items": (graph.item_ids, prop.h_item_star),
    }
    if which not in table:
        raise ValueError(f"--which must be one of {sorted(table)}, got {which!r}")
    ids, embeddings = table[which]
    write_features(out, {int(i): embeddings[k].astype(np.float32) for k, i in enumerate(ids)})
    print(f"wrote {len(ids)} {which} embeddings to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", required=True, help="key=value config file")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out-dir", default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fashiongraph",
        description="Graph-attention outfit recommendation and compatibility engine",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ingest", help="load, validate, and summarize a dataset")
    _add_common(p)

    p = subs.add_parser("train", help="train and write checkpoints plus a log")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--resume", action="store_true", help="continue from last.ckpt")

    p = subs.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="report file path")
    p.add_argument("--per-user", action="store_true")

    p = subs.add_parser("recommend", help="top-k outfits for one user")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    p = subs.add_parser("fltb", help="fill-in-the-blank accuracy on test outfits")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trials", type=int, default=1, help="trials per outfit")

    p = subs.add_parser("export-embeddings", help="write embeddings as a features file")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--which", default="items", choices=["users", "outfits", "items"])
    p.add_argument("--out", required=True)
    return parser


def _run(args: argparse.Namespace) -> int:
    overrides: dict[str, object] = {"seed": args.seed, "out_dir": args.out_dir}
    if getattr(args, "epochs", None) is not None:
        overrides["epochs"] = args.epochs
    rc = make_run_config(parse_config_file(args.config), overrides)
    if args.command == "ingest":
        return cmd_ingest(rc)
    if args.command == "train":
        return cmd_train(rc, resume=args.resume)
    if args.command == "evaluate":
        return cmd_evaluate(rc, args.checkpoint, args.out, args.per_user)
    if args.command == "recommend":
        return cmd_recommend(rc, args.checkpoint, args.user, args.k)
    if args.command == "fltb":
        return cmd_fltb(rc, args.checkpoint, args.trials)
    if args.command == "export-embeddings":
        return cmd_export_embeddings(rc, args.checkpoint, args.which, args.out)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (DatasetError, FileNotFoundError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
