"""Run the five synthflow verbs as child processes and check their outputs.

Each verb runs as ``python -m synthflow.cli <verb> ...`` with the BLAS and
OpenMP thread pools pinned to one thread. Its wall time is taken around the
child, and its peak resident set comes from the child's own rusage
(``os.wait4``), so nothing outside the benchmark's processes is touched.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

VERBS = ("ingest", "train", "generate", "evaluate", "report")

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env(root: Path, extra_paths=()) -> dict:
    """Environment for a child that imports synthflow from ``root/src``."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), *map(str, extra_paths)])
    env.pop("PYTHONHASHSEED", None)
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float


def run_child(argv, cwd: Path, env: dict, log_path: Path) -> ChildResult:
    """Run one child to completion; stdout and stderr go to ``log_path``."""
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def verb_argv(verb: str, config: Path, count: int, prefix=None) -> list[str]:
    """Command line of one verb; ``prefix`` replaces the plain CLI entry."""
    argv = list(prefix or [sys.executable, "-m", "synthflow.cli"])
    argv += [verb, "--config", str(config)]
    if verb == "generate":
        argv += ["--count", str(count)]
    return argv


@dataclass
class VerbOutcome:
    verb: str
    problems: list[str]

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def check_verb(verb: str, rc: int, out_dir: Path, count: int,
               n_features: int) -> list[str]:
    """Problems with one verb's outputs; an empty list means it passed."""
    if rc != 0:
        return [f"{verb} exited {rc}"]
    manifest = out_dir / f"{verb}_manifest.json"
    if not manifest.exists():
        return [f"{verb} wrote no manifest"]
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    problems = [f"{verb}: listed artifact {name} is missing"
                for name in doc.get("artifacts", []) if not (out_dir / name).exists()]
    if problems:
        return problems
    if verb == "generate":
        return _check_synthetic(out_dir / "synthetic.csv", count, n_features)
    if verb == "evaluate":
        auc = json.loads((out_dir / "quality_report.json").read_text())["auc"]
        if not 0.0 <= auc <= 1.0:
            return [f"evaluate: auc {auc} outside [0, 1]"]
    return []


def _check_synthetic(path: Path, count: int, n_features: int) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = 0
        for row in reader:
            rows += 1
            try:
                finite = len(row) == n_features and all(math.isfinite(float(c)) for c in row)
            except ValueError:
                finite = False
            if not finite:
                return [f"generate: synthetic row {rows} is not {n_features} finite cells"]
    if len(header) != n_features:
        return [f"generate: header has {len(header)} columns, expected {n_features}"]
    if rows != count:
        return [f"generate: {rows} synthetic rows, expected {count}"]
    return []


def artifact_digests(out_dir: Path, verb: str) -> dict[str, str]:
    """SHA-256 of each artifact a verb's manifest lists.

    The wall-clock fields are left out, as the determinism contract allows:
    ``timings_ms`` in manifests and the ``wall_ms`` column of the train log.
    """
    manifest = out_dir / f"{verb}_manifest.json"
    if not manifest.exists():
        return {}
    names = json.loads(manifest.read_text(encoding="utf-8")).get("artifacts", [])
    digests = {}
    for name in sorted(names):
        path = out_dir / name
        if not path.exists():
            continue
        digest = hashlib.sha256()
        if name.endswith("_manifest.json"):
            doc = json.loads(path.read_bytes())
            doc.pop("timings_ms", None)
            digest.update(json.dumps(doc, sort_keys=True).encode())
        elif name == "train_log.csv":
            digest.update(_drop_column(path.read_text(encoding="utf-8"), "wall_ms").encode())
        else:
            with open(path, "rb") as fh:  # in blocks: keeps this process small
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
        digests[name] = digest.hexdigest()
    return digests


def _drop_column(text: str, column: str) -> str:
    lines = text.splitlines()
    if not lines:
        return text
    header = lines[0].split(",")
    if column not in header:
        return text
    k = header.index(column)
    return "\n".join(
        ",".join(c for i, c in enumerate(line.split(",")) if i != k) for line in lines
    )
