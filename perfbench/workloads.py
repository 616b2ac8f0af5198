"""The benchmark's workloads: input fixture, run config and generate count.

Both read a CICIDS2017-shaped CSV through the bundled ``cicids2017`` schema.
Sizes are scaled from the reference runs so that a workload repeats its
whole pipeline at least four times within the benchmark's run length on a
2-core machine; each keeps the property it was chosen for.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixtures

SMALL_NETS = {
    "noise_dim": 8,
    "generator_hidden": [32, 32],
    "critic_hidden": [32, 32],
}

DAY_LABELS = (
    ("BENIGN", 0.80),
    ("DoS Hulk", 0.09),
    ("DoS GoldenEye", 0.05),
    ("DoS slowloris", 0.03),
    ("DoS Slowhttptest", 0.03),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    label_mix: tuple[tuple[str, float], ...]
    labels: tuple[str, ...]
    gan: dict
    eval: dict
    count: int
    dataset: str = "cicids2017"
    feature_count: int = fixtures.CICIDS_FEATURE_COUNT

    def write_fixture(self, path, seed: int) -> None:
        fixtures.write_cicids_csv(path, rows=self.rows, labels=self.label_mix, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="goldeneye",
            why="CICIDS-shaped 5k rows, half DoS GoldenEye, reference nets: "
                "FLOP-bound train, split-search-bound evaluate, large generate",
            rows=5000,
            label_mix=(("BENIGN", 0.5), ("DoS GoldenEye", 0.5)),
            labels=("DoS GoldenEye",),
            # batch 32 halves the GEMM work of the default 64; a step still
            # spends most of its time in GEMMs, not in call overhead
            gan={"gen_steps": 200, "batch_size": 32},
            eval={"n_trees": 10},
            count=8000,
        ),
        Workload(
            name="ingest_day",
            why="CICIDS-shaped 30k rows, five labels, one 5% label kept: the "
                "dataio write path (parse, clean) dominates; 32x32 nets, tiny evaluate",
            rows=30000,
            label_mix=DAY_LABELS,
            labels=("DoS GoldenEye",),
            gan={**SMALL_NETS, "gen_steps": 200},
            eval={"n_trees": 5},
            count=1000,
        ),
    )
}
