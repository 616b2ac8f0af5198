"""Tests of the benchmark's own parts: fixtures, tracer arithmetic, metric
names and failure accounting."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from perfbench import fixtures, metrics, pipeline, run, tracer
from perfbench.tracer import Span, self_times
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
TWO_LABELS = (("BENIGN", 0.5), ("DoS GoldenEye", 0.5))


def test_fixtures_are_byte_identical_for_a_seed(tmp_path):
    a, b, c = (tmp_path / f"cicids-{k}.csv" for k in "abc")
    fixtures.write_cicids_csv(a, rows=2500, labels=TWO_LABELS, seed=3)
    fixtures.write_cicids_csv(b, rows=2500, labels=TWO_LABELS, seed=3)
    fixtures.write_cicids_csv(c, rows=2500, labels=TWO_LABELS, seed=4)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_cicids_fixture_has_the_real_header_quirks(tmp_path):
    path = tmp_path / "day.csv"
    fixtures.write_cicids_csv(path, rows=3000, labels=TWO_LABELS, seed=1)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert len(header) == 85 and len(lines) == 3001
    assert header[1] == " Source IP" and header[-1] == " Label"
    assert [h.strip() for h in header].count("Fwd Header Length") == 2
    rate_col = [h.strip() for h in header].index("Flow Bytes/s")
    cells = [line.split(",")[rate_col] for line in lines[1:]]
    assert 10 <= cells.count("Infinity") <= 60
    assert 3 <= cells.count("NaN") <= 35


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, -1, "w/v"),
        Span("a", 1.0, 4.0, 0, "w/v"),
        Span("a.x", 1.5, 2.0, 1, "w/v"),
        Span("b", 5.0, 9.0, 0, "w/v"),
        Span("b.y", 5.0, 6.0, 3, "w/v"),
        Span("b.z", 5.5, 7.0, 3, "w/v"),  # overlaps b.y: the union counts once
    ]
    assert self_times(spans) == [3.0, 2.5, 0.5, 2.0, 1.0, 1.5]


def test_sample_is_scaled_by_the_reference_runs_around_it():
    at_reference = run.Sample(3.0, run.REFERENCE_S, run.REFERENCE_S)
    assert abs(at_reference.scaled() - 3.0) < 1e-12
    # the host ran 1.5x slower than the reference speed while the child ran
    slow = run.Sample(4.5, 1.4 * run.REFERENCE_S, 1.6 * run.REFERENCE_S)
    assert abs(slow.scaled() - 3.0) < 1e-12


def test_metric_names_and_benchmark_json_agree():
    every = metrics.END_TO_END + metrics.PER_LAYER
    names = [m.name for m in every]
    assert len(names) == len(set(names))
    assert all(metrics.NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit) for m in every)

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_verb_exiting_with_missing_prerequisite_is_a_failure(tmp_path):
    fixtures.write_cicids_csv(tmp_path / "day.csv", rows=100, labels=TWO_LABELS, seed=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": "cicids2017", "csv": ["day.csv"], "labels": ["DoS GoldenEye"],
        "seed": 1, "out": "run",
    }))
    (tmp_path / "run").mkdir()  # ingest never ran: no dataset cache
    child = pipeline.run_child(
        pipeline.verb_argv("train", config, 10), tmp_path,
        pipeline.child_env(ROOT), tmp_path / "train.log",
    )
    assert child.returncode == 5  # synthflow's exit code for a missing prerequisite
    problems = pipeline.check_verb("train", child.returncode, tmp_path / "run", 10,
                                   fixtures.CICIDS_FEATURE_COUNT)
    assert pipeline.VerbOutcome("train", problems).failed


def test_digests_ignore_wall_clock_fields(tmp_path):
    def write(wall_ms, timing):
        (tmp_path / "train_log.csv").write_text(
            f"step,critic_loss,wall_ms\n1,0.5,{wall_ms}\n")
        (tmp_path / "train_manifest.json").write_text(json.dumps({
            "artifacts": ["train_log.csv", "train_manifest.json"],
            "timings_ms": {"total": timing},
        }))
        return pipeline.artifact_digests(tmp_path, "train")

    assert write(1.5, 10.0) == write(2.5, 20.0)
    (tmp_path / "train_log.csv").write_text("step,critic_loss,wall_ms\n1,0.6,1.5\n")
    assert pipeline.artifact_digests(tmp_path, "train") != write(1.5, 10.0)


def test_traced_training_counts_calls_per_step():
    from synthflow import dataio, gan

    rng = np.random.default_rng(0)
    schema = dataio.FeatureSchema((
        dataio.Column("f1", dataio.NUMERIC), dataio.Column("f2", dataio.NUMERIC),
        dataio.Column("label", dataio.LABEL),
    ))
    data = dataio.DatasetMatrix(
        rng.uniform(size=(32, 2)), ["attack"] * 32,
        dataio.NormalizationStats(np.zeros(2), np.ones(2)), schema,
    )
    config = gan.GanConfig.small(gen_steps=3, batch_size=8)
    t = tracer.Tracer("test/train")
    t.install()
    try:
        gan.train(data, config)
    finally:
        t.uninstall()
    calls = {name: t.names.count(name) / config.gen_steps for name in set(t.names)}
    assert calls == {
        "nets.mlp_forward": 28, "nets.mlp_param_grad": 11, "nets.mlp_input_grad": 6,
        "nets.penalty_param_grad": 5, "nets.rmsprop_step": 6,
        "gan.critic_loss": 5, "gan.generator_loss": 1,
    }
    assert not hasattr(gan.critic_loss, "__wrapped__")
    assert t.counters["nets.gemm_flop"] > 0
