"""Two-cluster toy flow dataset.

2,000 rows of two features: one Gaussian cluster labeled "attack" and a
shifted one labeled "normal". Generated deterministically so the test suite
and the example scripts never need the external datasets.
"""

from __future__ import annotations

import numpy as np

from .dataio import LABEL, NUMERIC, Column, FeatureSchema, write_csv

TOY_ROWS = 2000
TOY_SEED = 7

_ATTACK_MEAN = (0.35, 0.65)
_NORMAL_MEAN = (0.65, 0.35)
_CLUSTER_STD = 0.06


def toy_schema() -> FeatureSchema:
    return FeatureSchema(
        (Column("f1", NUMERIC), Column("f2", NUMERIC), Column("label", LABEL))
    )


def toy_rows(n_rows: int = TOY_ROWS, seed: int = TOY_SEED) -> list[tuple[float, float, str]]:
    """Deterministic (f1, f2, label) rows, half attack and half normal."""
    rng = np.random.default_rng(seed)
    half = n_rows // 2
    attack = rng.normal(_ATTACK_MEAN, _CLUSTER_STD, size=(half, 2))
    normal = rng.normal(_NORMAL_MEAN, _CLUSTER_STD, size=(n_rows - half, 2))
    rows = [(float(x), float(y), "attack") for x, y in attack]
    rows += [(float(x), float(y), "normal") for x, y in normal]
    return rows


def write_toy_csv(path, n_rows: int = TOY_ROWS, seed: int = TOY_SEED) -> None:
    write_csv(path, ("f1", "f2", "label"), toy_rows(n_rows, seed))
