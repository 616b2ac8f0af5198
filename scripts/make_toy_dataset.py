#!/usr/bin/env python3
"""Write the bundled toy dataset plus a ready-to-run config.

Creates toy.csv (two Gaussian clusters labeled attack/normal), the matching
schema JSON, and a run config wired for a quick end-to-end experiment.
"""

import argparse
from pathlib import Path

from synthflow import toydata
from synthflow.dataio import schema_to_json, write_json


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="toy_data", help="directory to create")
    parser.add_argument("--rows", type=int, default=toydata.TOY_ROWS)
    parser.add_argument("--seed", type=int, default=toydata.TOY_SEED)
    parser.add_argument(
        "--gen-steps", type=int, default=2000,
        help="generator steps to put in the run config",
    )
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    toydata.write_toy_csv(out / "toy.csv", n_rows=args.rows, seed=args.seed)
    schema_to_json(toydata.toy_schema(), out / "toy_schema.json")
    config = {
        "dataset": "custom",
        "csv": ["toy.csv"],
        "labels": ["attack"],
        "schema": "toy_schema.json",
        "seed": args.seed,
        "out": "run",
        "gan": {
            "noise_dim": 8,
            "generator_hidden": [32, 32],
            "critic_hidden": [32, 32],
            "gen_steps": args.gen_steps,
        },
    }
    write_json(out / "config.json", config, indent=2)
    print(f"wrote {out}/toy.csv, {out}/toy_schema.json, {out}/config.json")
    print(f"next: synthflow ingest --config {out}/config.json")


if __name__ == "__main__":
    main()
