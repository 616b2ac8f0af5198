"""Metric definitions and the arithmetic that turns runs into metrics.

Every metric names its layer and the end-to-end metric it feeds; the
``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds (a test keeps the two in step).
"""

from __future__ import annotations

import csv
import json
import re
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .pipeline import VERBS
from .tracer import spans_from_dict, self_times

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
P95_MIN_STEPS = 200  # so that at least ten samples lie beyond the 95th percentile


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    feeds: str
    bound: float | None = None


def _e2e(name, unit, bound, feeds="pipeline_s", layer="cli"):
    return Metric(name, unit, "lower", layer, feeds, bound)


# Bounds are shares of the median. On a shared 2-core x86 VM the speed of the
# machine swings by up to 1.5x over seconds to minutes; timings are scaled to
# a reference speed (perfbench.run.Sample), which leaves run-to-run spreads
# of 2-10%, and every timing gets the widest bound (0.25), 2.5 times the
# largest of them. Peak memory barely moves.
END_TO_END = (
    _e2e("setup_s", "s", 0.25, feeds="every verb", layer="process"),
    _e2e("pipeline_s", "s", 0.25, feeds="-"),
    _e2e("ingest_s", "s", 0.25),
    _e2e("train_s", "s", 0.25),
    _e2e("generate_s", "s", 0.25),
    _e2e("evaluate_s", "s", 0.25),
    _e2e("report_s", "s", 0.25),
    _e2e("peak_rss_mb", "MB", 0.1, feeds="-", layer="process"),
)

NETS_FUNCS = ("mlp_forward", "mlp_param_grad", "mlp_input_grad",
              "penalty_param_grad", "rmsprop_step")
EVAL_FUNCS = ("tree_predict", "gbm_predict", "roc_auc", "rmse_quality",
              "histogram_compare", "feature_importance")
DATAIO_FUNCS = ("parse_csv", "clean_numeric", "minmax_normalize",
                "filter_by_label", "save_dataset", "load_dataset")


def _per_layer() -> tuple[Metric, ...]:
    m = []
    for fn in NETS_FUNCS:
        m.append(Metric(f"nets.{fn}.s", "s", "lower", "nets", "train_s"))
        m.append(Metric(f"nets.{fn}.calls_per_step", "count", "lower", "nets", "train_s"))
    m.append(Metric("nets.gemm_gflop_per_step", "GFLOP_computed", "lower", "nets", "train_s"))
    m += [
        Metric("gan.critic_loss.s", "s", "lower", "gan", "train_s"),
        Metric("gan.generator_loss.s", "s", "lower", "gan", "train_s"),
        Metric("gan.train.self_s", "s", "lower", "gan", "train_s"),
        Metric("gan.step_ms.p50", "ms", "lower", "gan", "train_s"),
        Metric("gan.step_ms.p95", "ms", "lower", "gan", "train_s"),
        Metric("gan.generate.s", "s", "lower", "gan", "generate_s"),
        Metric("gan.save_checkpoint.s", "s", "lower", "gan", "train_s"),
        Metric("gan.load_checkpoint.s", "s", "lower", "gan", "generate_s"),
        Metric("gan.load_checkpoint.calls", "count", "lower", "gan", "generate_s"),
        Metric("gan.checkpoint_mb", "MB", "lower", "gan", "peak_rss_mb"),
        Metric("evaluator.gbm_fit.self_s", "s", "lower", "evaluator", "evaluate_s"),
        Metric("evaluator.split_search.s", "s", "lower", "evaluator", "evaluate_s"),
        Metric("evaluator.split_search.calls", "count", "lower", "evaluator", "evaluate_s"),
    ]
    m += [Metric(f"evaluator.{fn}.s", "s", "lower", "evaluator", "evaluate_s")
          for fn in EVAL_FUNCS]
    m += [
        Metric("evaluator.fit_rows", "count", "higher", "evaluator", "evaluate_s"),
        Metric("evaluator.low_cardinality_share", "ratio", "higher", "evaluator", "evaluate_s"),
        Metric("auc_gap", "ratio", "lower", "evaluator", "-"),
        Metric("rmse_means", "ratio", "lower", "evaluator", "-"),
    ]
    m += [Metric(f"dataio.{fn}.s", "s", "lower", "dataio",
                 "ingest_s" if fn != "load_dataset" else "train_s")
          for fn in DATAIO_FUNCS]
    m += [
        Metric("dataio.load_dataset.calls", "count", "lower", "dataio", "train_s"),
        Metric("dataio.rows_parsed", "count", "higher", "dataio", "ingest_s"),
        Metric("dataio.rows_dropped", "count", "lower", "dataio", "ingest_s"),
        Metric("dataio.rows_selected", "count", "higher", "dataio", "ingest_s"),
        Metric("dataio.cache_mb", "MB", "lower", "dataio", "train_s"),
    ]
    m += [Metric(f"cli.{v}.self_s", "s", "lower", "cli", f"{v}_s") for v in VERBS]
    m += [Metric(f"cli.{v}.peak_rss_mb", "MB", "lower", "cli", "peak_rss_mb") for v in VERBS]
    m.append(Metric("cli.artifacts_mb", "MB", "lower", "cli", "-"))
    m.append(Metric("trace.overhead_s", "s", "lower", "trace", "-"))
    return tuple(m)


PER_LAYER = _per_layer()


def median(values) -> float:
    return float(statistics.median(values))


def output_observations(out_dir: Path) -> dict[str, float]:
    """Per-layer facts read from one untraced pipeline's artifacts."""
    obs: dict[str, float] = {}
    with open(out_dir / "train_log.csv", newline="", encoding="utf-8") as fh:
        wall = sorted(float(row["wall_ms"]) for row in csv.DictReader(fh))
    obs["gan.step_ms.p50"] = median(wall)
    if len(wall) >= P95_MIN_STEPS:
        obs["gan.step_ms.p95"] = statistics.quantiles(wall, n=20, method="inclusive")[-1]
    report = json.loads((out_dir / "quality_report.json").read_text(encoding="utf-8"))
    obs["auc_gap"] = abs(report["auc"] - 0.5)
    obs["rmse_means"] = report["rmse_means"]
    fp = json.loads((out_dir / "ingest_manifest.json").read_text(encoding="utf-8"))
    fp = fp["dataset_fingerprint"]
    obs["dataio.rows_parsed"] = fp["rows_parsed"]
    obs["dataio.rows_dropped"] = fp["rows_dropped"]
    obs["dataio.rows_selected"] = fp["rows_selected"]
    mb = 1024.0 * 1024.0
    obs["dataio.cache_mb"] = (out_dir / "dataset.json").stat().st_size / mb
    obs["gan.checkpoint_mb"] = (out_dir / "model.sgmodel").stat().st_size / mb
    obs["cli.artifacts_mb"] = sum(p.stat().st_size for p in out_dir.iterdir()
                                  if p.is_file()) / mb
    return obs


def span_metrics(traces: dict[str, dict], steps: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pipeline (verb -> trace)."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    train_calls: Counter = Counter()
    for verb, doc in traces.items():
        spans = spans_from_dict(doc)
        for span, own in zip(spans, self_times(spans)):
            self_s[span.name] += own
            calls[span.name] += 1
            if verb == "train":
                train_calls[span.name] += 1
    m: dict[str, float] = {}
    for fn in NETS_FUNCS:
        m[f"nets.{fn}.s"] = self_s[f"nets.{fn}"]
        m[f"nets.{fn}.calls_per_step"] = train_calls[f"nets.{fn}"] / steps
    m["nets.gemm_gflop_per_step"] = (
        traces["train"]["counters"].get("nets.gemm_flop", 0) / steps / 1e9
    )
    for name in ("critic_loss", "generator_loss", "generate", "save_checkpoint",
                 "load_checkpoint"):
        m[f"gan.{name}.s"] = self_s[f"gan.{name}"]
    m["gan.train.self_s"] = self_s["gan.train"]
    m["gan.load_checkpoint.calls"] = calls["gan.load_checkpoint"]
    m["evaluator.gbm_fit.self_s"] = self_s["evaluator.gbm_fit"]
    m["evaluator.split_search.s"] = self_s["evaluator.split_search"]
    m["evaluator.split_search.calls"] = calls["evaluator.split_search"]
    for fn in EVAL_FUNCS:
        m[f"evaluator.{fn}.s"] = self_s[f"evaluator.{fn}"]
    observed = traces["evaluate"].get("observed", {})
    for key in ("evaluator.fit_rows", "evaluator.low_cardinality_share"):
        if key in observed:
            m[key] = observed[key]
    for fn in DATAIO_FUNCS:
        m[f"dataio.{fn}.s"] = self_s[f"dataio.{fn}"]
    m["dataio.load_dataset.calls"] = calls["dataio.load_dataset"]
    for verb in VERBS:
        m[f"cli.{verb}.self_s"] = self_s[f"cli.{verb}"]
    return m


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over repeats (keys missing from a repeat are skipped)."""
    keys = sorted({k for s in samples for k in s})
    return {k: median([s[k] for s in samples if k in s]) for k in keys}
