#!/usr/bin/env python3
"""End-to-end toy experiment: ingest, train, generate, evaluate, report.

Self-contained demo of the whole pipeline on the bundled two-cluster
dataset; finishes in well under a minute on a laptop CPU.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

from synthflow import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default=None, help="default: a temp directory")
    parser.add_argument("--gen-steps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="synthflow_toy_"))
    make = Path(__file__).with_name("make_toy_dataset.py")
    rc = subprocess.call(
        [sys.executable, str(make), "--out", str(workdir),
         "--gen-steps", str(args.gen_steps), "--seed", str(args.seed)]
    )
    if rc != 0:
        return rc

    config = str(workdir / "config.json")
    for argv in (["ingest"], ["train"], ["generate", "--count", "500"],
                 ["evaluate"], ["report"]):
        rc = cli.main([*argv, "--config", config])
        if rc != 0:
            print(f"{argv[0]} failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"\nartifacts in {workdir / 'run'}; see report.md for the summary")
    return 0


if __name__ == "__main__":
    sys.exit(main())
