"""Benchmark inputs: dataset files and a files-mode run config per workload.

Every input the program sees is written here from the workload's seed, so
the same ``--seed`` always gives byte-identical files.  Regenerate them
without running anything with

    python3 perfbench/inputs.py --workload mid-train --seed 1 --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fashiongraph.dataio import SyntheticConfig, generate_synthetic, write_dataset  # noqa: E402

# The planted two-cluster data of acceptance criterion 6.  Its FLTB >= 0.9
# after 50 epochs is the property the desk workload checks; other data seeds
# do not all reach it, so the seed varies the run (split, initialisation,
# sampling, dropout, FLTB draws) and not this dataset.
DESK_DATA = SyntheticConfig()
DESK_DATA_SEED = 7

# 500 users, 2000 outfits, 3000 items at the paper's feature widths.
MID_DATA = SyntheticConfig(n_users=500, n_outfits=2000, n_items=3000, d_v=2048, d_t=768)


@dataclass(frozen=True)
class Spec:
    data: SyntheticConfig
    fixed_data_seed: int | None  # None: the data come from the run seed
    dtype: str


SPECS = {
    "desk-converge": Spec(DESK_DATA, DESK_DATA_SEED, "float64"),
    "mid-train": Spec(MID_DATA, None, "float32"),
    "mid-eval": Spec(MID_DATA, None, "float32"),
}


def write_inputs(spec: Spec, seed: int, directory: Path) -> Path:
    """Write the dataset files and ``run.cfg`` into ``directory``; return the config path."""
    data_seed = seed if spec.fixed_data_seed is None else spec.fixed_data_seed
    ds = generate_synthetic(spec.data, data_seed)
    paths = write_dataset(ds, directory / "data")
    config = directory / "run.cfg"
    config.write_text(
        "\n".join(
            [
                "mode=files",
                f"seed={seed}",
                f"out_dir={directory / 'out'}",
                "epochs=50",  # criterion 6; mid-train runs its epochs one by one
                f"dtype={spec.dtype}",
                f"interactions={paths['interactions']}",
                f"outfits={paths['outfits']}",
                f"items={paths['items']}",
                f"visual_features={paths['visual']}",
                f"textual_features={paths['textual']}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(write_inputs(SPECS[args.workload], args.seed, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
