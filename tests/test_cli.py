import ctypes
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from synthflow import cli, dataio
from synthflow.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_MISSING,
    EXIT_OK,
)
from synthflow.dataio import (
    DatasetMatrix,
    FeatureSchema,
    NormalizationStats,
    load_dataset,
    save_dataset,
)

from helpers import write_toy_run

ROOT = Path(__file__).resolve().parents[1]


def run(config_path, *args):
    return cli.main([*args, "--config", str(config_path)])


@pytest.fixture(scope="module")
def toy_pipeline(tmp_path_factory):
    """One full toy run shared by the read-only assertions below."""
    tmp = tmp_path_factory.mktemp("pipeline")
    config = write_toy_run(tmp)
    for verb in ("ingest", "train"):
        assert run(config, verb) == EXIT_OK
    assert run(config, "generate", "--count", "100") == EXIT_OK
    for verb in ("evaluate", "report"):
        assert run(config, verb) == EXIT_OK
    return tmp / "run"


def test_pipeline_artifacts_exist(toy_pipeline):
    for name in (
        cli.DATASET_FILE,
        cli.DATASET_MATRIX_FILE,
        cli.SUMMARY_FILE,
        cli.MODEL_FILE,
        cli.TRAIN_LOG_FILE,
        cli.SYNTH_FILE,
        cli.REPORT_JSON_FILE,
        cli.IMPORTANCE_FILE,
        cli.REPORT_MD_FILE,
    ):
        assert (toy_pipeline / name).exists(), name
    for verb in ("ingest", "train", "generate", "evaluate", "report"):
        assert (toy_pipeline / f"{verb}_manifest.json").exists()


def test_ingest_summary_contents(toy_pipeline):
    summary = (toy_pipeline / cli.SUMMARY_FILE).read_text()
    assert "rows parsed: 2000" in summary
    assert "attack: 1000" in summary
    assert "rows after label filter: 1000" in summary
    assert "warning" in summary  # 1000 < 5000 triggers the low-sample note


def test_generate_writes_count_rows_in_feature_units(toy_pipeline):
    lines = (toy_pipeline / cli.SYNTH_FILE).read_text().strip().splitlines()
    assert lines[0] == "f1,f2"
    assert len(lines) == 101
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    cache = json.loads((toy_pipeline / cli.DATASET_FILE).read_text())
    lo = np.array(cache["stats"]["min"])
    hi = np.array(cache["stats"]["max"])
    assert (data >= lo - 1e-12).all() and (data <= hi + 1e-12).all()


def test_ingest_manifest_times_each_stage(toy_pipeline):
    timings = json.loads((toy_pipeline / "ingest_manifest.json").read_text())["timings_ms"]
    stages = ("parse_clean", "normalize")
    assert set(timings) == {*stages, "save", "total"}
    assert min(timings.values()) >= 0.0
    assert timings["total"] == pytest.approx(sum(timings[s] for s in stages))


def test_generate_manifest_times_the_write_beside_the_total(toy_pipeline):
    timings = json.loads((toy_pipeline / "generate_manifest.json").read_text())["timings_ms"]
    assert set(timings) == {"total", "write"}
    assert min(timings.values()) >= 0.0


def test_generate_count_over_the_cell_cap_is_config_error(tmp_path, capsys, monkeypatch):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 2})
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "train") == EXIT_OK
    capsys.readouterr()
    assert run(config, "generate", "--count", "10000000000000") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"over {cli.MAX_SYNTHETIC_CELLS}" in err and "Traceback" not in err
    assert not (tmp_path / "run" / cli.SYNTH_FILE).exists()
    monkeypatch.setattr(cli, "MAX_SYNTHETIC_CELLS", 20)  # 10 rows of the 2 toy features
    assert run(config, "generate", "--count", "11") == EXIT_CONFIG
    assert not (tmp_path / "run" / cli.SYNTH_FILE).exists()
    assert run(config, "generate", "--count", "10") == EXIT_OK


def test_quality_report_fields(toy_pipeline):
    report = json.loads((toy_pipeline / cli.REPORT_JSON_FILE).read_text())
    assert set(report) >= {
        "rmse_means", "rmse_hist", "auc", "roc_points", "importances",
        "histograms",
    }
    assert 0.0 <= report["auc"] <= 1.0
    assert len(report["histograms"]) >= 1


def test_train_log_columns(toy_pipeline):
    lines = (toy_pipeline / cli.TRAIN_LOG_FILE).read_text().strip().splitlines()
    assert lines[0] == "step,critic_loss,generator_loss,penalty_mean,grad_norm_mean,wall_ms"
    assert len(lines) == 61  # 60 generator steps


def test_report_markdown_renders(toy_pipeline):
    text = (toy_pipeline / cli.REPORT_MD_FILE).read_text()
    assert "0.10" in text and "0.75" in text  # reference points
    assert "rmse_means" in text and "auc" in text
    assert "{" not in text  # no unresolved placeholders


def test_manifests_list_artifacts(toy_pipeline):
    manifest = json.loads((toy_pipeline / "train_manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert cli.MODEL_FILE in manifest["artifacts"]
    assert cli.TRAIN_LOG_FILE in manifest["artifacts"]
    assert manifest["tool_version"]
    for name in manifest["artifacts"]:
        assert (toy_pipeline / name).exists()


def test_missing_input_file_fails_validation(tmp_path):
    config = write_toy_run(tmp_path)
    (tmp_path / "toy.csv").unlink()
    assert run(config, "ingest") == EXIT_CONFIG
    assert not (tmp_path / "run" / cli.DATASET_FILE).exists()


def test_unknown_label_is_data_error(tmp_path):
    config_path = write_toy_run(tmp_path)
    doc = json.loads(config_path.read_text())
    doc["labels"] = ["teardrop"]
    config_path.write_text(json.dumps(doc))
    assert run(config_path, "ingest") == EXIT_DATA


def test_train_without_ingest_names_prerequisite(tmp_path, capsys):
    config = write_toy_run(tmp_path)
    assert run(config, "train") == EXIT_MISSING
    assert "run the 'ingest' command first" in capsys.readouterr().err


def test_generate_without_train_is_missing(tmp_path):
    config = write_toy_run(tmp_path)
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "generate") == EXIT_MISSING


def test_train_smoke_run_finishes_quickly(tmp_path):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 10})
    assert run(config, "ingest") == EXIT_OK
    start = time.perf_counter()
    assert run(config, "train") == EXIT_OK
    assert time.perf_counter() - start < 60.0


def test_divergent_training_exit_code(tmp_path):
    config = write_toy_run(tmp_path, gan_overrides={"lr": 1e200, "gen_steps": 20})
    assert run(config, "ingest") == EXIT_OK
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(config, "train") == EXIT_DIVERGED
    manifest = json.loads((tmp_path / "run" / "train_manifest.json").read_text())
    assert manifest["status"] == "diverged"
    assert manifest["failure_step"] >= 1
    assert (tmp_path / "run" / cli.LASTGOOD_MODEL_FILE).exists()
    assert not (tmp_path / "run" / cli.MODEL_FILE).exists()


def test_diverged_retrain_removes_earlier_model(tmp_path, capsys):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "train") == EXIT_OK
    assert (tmp_path / "run" / cli.MODEL_FILE).exists()
    doc = json.loads(config.read_text())
    doc["gan"].update(lr=1e200, gen_steps=20)
    config.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(config, "train") == EXIT_DIVERGED
    assert not (tmp_path / "run" / cli.MODEL_FILE).exists()
    capsys.readouterr()
    for verb in ("generate", "evaluate"):
        assert run(config, verb) == EXIT_MISSING
        assert "'train'" in capsys.readouterr().err


def test_reingest_removes_artifacts_of_earlier_dataset(tmp_path, capsys):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "train") == EXIT_OK
    doc = json.loads(config.read_text())
    doc["labels"] = ["normal"]
    config.write_text(json.dumps(doc))
    assert run(config, "ingest") == EXIT_OK
    out = tmp_path / "run"
    assert not (out / cli.MODEL_FILE).exists()
    assert not (out / "train_manifest.json").exists()
    capsys.readouterr()
    for verb in ("generate", "evaluate"):
        assert run(config, verb) == EXIT_MISSING
        assert "'train'" in capsys.readouterr().err


def test_bad_config_rejected(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"dataset": "nope"}')
    assert run(config_path, "ingest") == EXIT_CONFIG
    config_path.write_text("{not json")
    assert run(config_path, "ingest") == EXIT_CONFIG
    assert cli.main(["ingest", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG


def test_seed_flag_overrides_config(tmp_path):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 5})
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "train", "--seed", "1") == EXIT_OK
    first = (tmp_path / "run" / cli.MODEL_FILE).read_bytes()
    assert run(config, "train", "--seed", "2") == EXIT_OK
    second = (tmp_path / "run" / cli.MODEL_FILE).read_bytes()
    assert first != second
    assert json.loads(first)["config"]["seed"] == 1


def test_checkpoint_schema_mismatch_is_data_error(tmp_path):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "train") == EXIT_OK
    # swap in a cache with a different width
    cache_path = tmp_path / "run" / cli.DATASET_FILE
    data = load_dataset(cache_path)
    schema = FeatureSchema.from_dict({"columns": [
        {"name": "f1", "role": "numeric"},
        {"name": "label", "role": "label"},
    ]})
    stats = NormalizationStats([0.0], [1.0])
    save_dataset(DatasetMatrix(data.features[:, :1], data.labels, stats, schema), cache_path)
    assert run(config, "generate") == EXIT_DATA


def test_checkpoint_noise_dim_mismatch_is_data_error(tmp_path, capsys):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "train") == EXIT_OK
    model_path = tmp_path / "run" / cli.MODEL_FILE
    doc = json.loads(model_path.read_text())
    doc["config"]["noise_dim"] += 1  # the generator still takes the old width
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    for verb in ("generate", "evaluate"):
        assert run(config, verb) == EXIT_DATA
        err = capsys.readouterr().err
        assert cli.MODEL_MATRIX_FILE in err and "records" in err


def _damage_cache(out, damage):
    """Break one part of a two-file dataset cache; returns the file the
    error must name."""
    doc_path = out / cli.DATASET_FILE
    npy_path = out / cli.DATASET_MATRIX_FILE
    doc = json.loads(doc_path.read_text())
    matrix = np.load(npy_path)
    if damage == "list":
        doc_path.write_text("[]")
        return cli.DATASET_FILE
    if damage in doc:
        del doc[damage]
        doc_path.write_text(json.dumps(doc))
        return cli.DATASET_FILE
    if damage == "missing":
        npy_path.unlink()
    elif damage == "truncated":
        npy_path.write_bytes(npy_path.read_bytes()[:-8])
    elif damage == "header":
        npy_path.write_bytes(npy_path.read_bytes()[:20])
    elif damage == "dtype":
        np.save(npy_path, matrix.astype(np.float32))
    elif damage == "big-endian":
        np.save(npy_path, matrix.astype(">f8"))
    elif damage == "rows":
        np.save(npy_path, matrix[:-1])  # the document still records every row
    elif damage == "width":
        # matrix and recorded shape agree, the schema does not
        np.save(npy_path, np.hstack([matrix, matrix[:, :1]]))
        doc["features"]["shape"][1] += 1
        doc_path.write_text(json.dumps(doc))
        return cli.DATASET_FILE
    elif damage == "label count":
        doc["labels"] = doc["labels"][:-1]
        doc_path.write_text(json.dumps(doc))
        return cli.DATASET_FILE
    elif damage == "version 1":
        doc["version"] = 1
        doc["features"] = matrix.tolist()
        doc_path.write_text(json.dumps(doc))
        return cli.DATASET_FILE
    return cli.DATASET_MATRIX_FILE


@pytest.mark.parametrize("damage", [
    "list", "schema", "stats", "labels", "features",
    "missing", "truncated", "header", "dtype", "big-endian", "rows", "width",
    "label count", "version 1",
])
def test_malformed_dataset_cache_is_data_error(tmp_path, capsys, damage):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    named = _damage_cache(tmp_path / "run", damage)
    capsys.readouterr()
    assert run(config, "train") == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and named in err
    if damage == "version 1":
        assert "version 1 unsupported" in err
    assert not (tmp_path / "run" / cli.MODEL_FILE).exists()


def test_interrupted_ingest_leaves_no_dataset_json(tmp_path, capsys, monkeypatch):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    out = tmp_path / "run"
    old_matrix = (out / cli.DATASET_MATRIX_FILE).read_bytes()
    doc = json.loads(config.read_text())
    doc["labels"] = ["normal"]
    config.write_text(json.dumps(doc))

    def interrupted(path, doc, indent=None):
        raise KeyboardInterrupt

    # stops the save between the matrix and the document that describes it
    monkeypatch.setattr(dataio, "write_json", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(config, "ingest")
    monkeypatch.undo()
    assert not (out / cli.DATASET_FILE).exists()
    assert (out / cli.DATASET_MATRIX_FILE).read_bytes() != old_matrix
    capsys.readouterr()
    assert run(config, "train") == EXIT_MISSING
    assert "'ingest'" in capsys.readouterr().err


def test_reingest_lists_and_replaces_both_cache_files(tmp_path):
    config = write_toy_run(tmp_path)
    out = tmp_path / "run"
    names = (cli.DATASET_FILE, cli.DATASET_MATRIX_FILE)
    saved = []
    for labels in (["attack"], ["normal"]):
        doc = json.loads(config.read_text())
        doc["labels"] = labels
        config.write_text(json.dumps(doc))
        assert run(config, "ingest") == EXIT_OK
        manifest = json.loads((out / "ingest_manifest.json").read_text())
        assert set(names) <= set(manifest["artifacts"])
        saved.append([(out / name).read_bytes() for name in names])
    assert all(old != new for old, new in zip(*saved))
    assert load_dataset(out / cli.DATASET_FILE).labels == ["normal"] * 1000
    assert not list(out.glob("*.tmp"))


def test_ragged_row_in_second_file_names_that_file(tmp_path, capsys):
    from synthflow import toydata

    toydata.write_toy_csv(tmp_path / "a.csv", n_rows=20, seed=1)
    toydata.write_toy_csv(tmp_path / "b.csv", n_rows=20, seed=2)
    lines = (tmp_path / "b.csv").read_text().splitlines(keepends=True)
    lines[5] = "0.5,attack\n"  # data row 5 of b.csv has two cells, not three
    (tmp_path / "b.csv").write_text("".join(lines))
    config = write_toy_run(tmp_path)
    doc = json.loads(config.read_text())
    doc["csv"] = ["a.csv", "b.csv"]
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(config, "ingest") == EXIT_DATA
    err = capsys.readouterr().err
    assert "b.csv: ragged row 5: expected 3 cells, got 2" in err
    assert not (tmp_path / "run" / cli.DATASET_FILE).exists()


def test_unbalanced_quote_names_its_file_and_row(tmp_path, capsys):
    from synthflow import toydata

    config = write_toy_run(tmp_path)
    toydata.write_toy_csv(tmp_path / "toy.csv", n_rows=20_000)
    lines = (tmp_path / "toy.csv").read_text().splitlines(keepends=True)
    # the open quote takes in the rest of the file, past the csv module's field limit
    lines[10] = '"1.5,2,attack\n'
    (tmp_path / "toy.csv").write_text("".join(lines))
    capsys.readouterr()
    assert run(config, "ingest") == EXIT_DATA
    err = capsys.readouterr().err
    assert "toy.csv: unreadable row 10: field larger than field limit" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / cli.DATASET_FILE).exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"n_trees": -1},
        {"max_depth": 0},
        {"shrinkage": 0.0},
        {"shrinkage": 1.5},
        {"holdout_fraction": 0.0},
        {"holdout_fraction": 1.5},
        {"histogram_features": ["f1", "no such feature"]},
        {"histogram_features": 5},
        {"histogram_features": True},
        {"histogram_features": "f1"},
    ],
)
def test_bad_eval_config_rejected_at_load(tmp_path, capsys, bad):
    config = write_toy_run(tmp_path, eval_overrides=bad)
    assert run(config, "ingest") == EXIT_CONFIG
    assert next(iter(bad)) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bad", [{"lr": -1}, {"rho": 1.0}, {"epsilon": 0.0}])
def test_bad_optimizer_config_rejected_at_load(tmp_path, capsys, bad):
    config = write_toy_run(tmp_path, gan_overrides=bad)
    for verb in ("ingest", "train"):
        assert run(config, verb) == EXIT_CONFIG
        assert next(iter(bad)) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_on_fewer_rows_than_batch_size_is_data_error(tmp_path, capsys):
    config = write_toy_run(tmp_path, gan_overrides={"batch_size": 5000})
    assert run(config, "ingest") == EXIT_OK  # 1000 attack rows
    capsys.readouterr()
    assert run(config, "train") == EXIT_DATA
    assert "batch_size=5000" in capsys.readouterr().err
    assert not (tmp_path / "run" / cli.MODEL_FILE).exists()


# --------------------------------------------- bundled dataset schemas

def nsl_kdd_row(service, label, scale):
    """One synthetic 43-field NSL-KDD-style record."""
    cells = ["1", "tcp", service, "SF"]
    cells += [str((i + 1) * scale) for i in range(37)]
    cells += [label, "15"]
    return ",".join(cells)


def test_nsl_kdd_ingest_headerless(tmp_path):
    rows = [
        nsl_kdd_row("http", "smurf", 1),
        nsl_kdd_row("ecr_i", "smurf", 2),
        nsl_kdd_row("private", "normal", 3),
        nsl_kdd_row("http", "smurf", 4),
    ]
    (tmp_path / "kdd.csv").write_text("\n".join(rows) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": "nsl-kdd",
        "csv": ["kdd.csv"],
        "labels": ["smurf"],
        "seed": 1,
        "out": "run",
    }))
    assert run(config, "ingest") == EXIT_OK
    data = load_dataset(tmp_path / "run" / cli.DATASET_FILE)
    assert data.features.shape == (3, 41)
    assert data.labels == ["smurf", "smurf", "smurf"]


def cicids_header():
    from synthflow.schemas import _CICIDS2017_FEATURES

    features = [
        "Fwd Header Length" if name == "Fwd Header Length.1" else name
        for name in _CICIDS2017_FEATURES
    ]
    # real files: identifiers, protocol, timestamp, the 77 stats, label
    head = ["Flow ID", " Source IP", " Source Port", " Destination IP",
            " Destination Port", " Protocol", " Timestamp"]
    return head + [f" {name}" for name in features[1:]] + [" Label"]


def test_cicids_ingest_with_duplicate_header_and_infinity(tmp_path):
    header = cicids_header()
    assert len(header) == 85

    def row(label, flow_bytes, scale):
        cells = []
        for name in header:
            name = name.strip()
            if name == "Flow ID":
                cells.append("192.168.0.1-8.8.8.8-1-2-6")
            elif name in ("Source IP", "Destination IP"):
                cells.append("192.168.0.1")
            elif name == "Timestamp":
                cells.append("5/7/2017 8:42")
            elif name == "Label":
                cells.append(label)
            elif name == "Flow Bytes/s":
                cells.append(flow_bytes)
            else:
                cells.append(str(scale))
        return ",".join(cells)

    lines = [",".join(header)]
    lines += [row("DoS GoldenEye", "100.5", i + 1) for i in range(4)]
    lines += [row("DoS GoldenEye", "Infinity", 9)]
    lines += [row("DoS GoldenEye", "NaN", 2)]
    lines += [row("BENIGN", "7.0", 5)]
    (tmp_path / "wed.csv").write_text("\n".join(lines) + "\n")

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": "cicids2017",
        "csv": ["wed.csv"],
        "labels": ["DoS GoldenEye"],
        "seed": 1,
        "out": "run",
    }))
    assert run(config, "ingest") == EXIT_OK
    summary = (tmp_path / "run" / cli.SUMMARY_FILE).read_text()
    assert "rows dropped (unparseable): 1" in summary
    assert "feature count: 78" in summary
    data = load_dataset(tmp_path / "run" / cli.DATASET_FILE)
    assert data.features.shape == (5, 78)


def test_multi_csv_ingest_concatenates(tmp_path):
    from synthflow import toydata

    toydata.write_toy_csv(tmp_path / "a.csv", n_rows=100, seed=1)
    toydata.write_toy_csv(tmp_path / "b.csv", n_rows=100, seed=2)
    from synthflow.dataio import schema_to_json

    schema_to_json(toydata.toy_schema(), tmp_path / "schema.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": "custom",
        "csv": ["a.csv", "b.csv"],
        "labels": ["attack"],
        "schema": "schema.json",
        "seed": 1,
        "out": "run",
    }))
    assert run(config, "ingest") == EXIT_OK
    summary = (tmp_path / "run" / cli.SUMMARY_FILE).read_text()
    assert "rows parsed: 200" in summary


def test_two_file_ingest_equals_ingest_of_joined_file(tmp_path):
    from synthflow import toydata

    toydata.write_toy_csv(tmp_path / "a.csv", n_rows=100, seed=1)
    toydata.write_toy_csv(tmp_path / "b.csv", n_rows=100, seed=2)
    b_rows = (tmp_path / "b.csv").read_text().splitlines(keepends=True)[1:]
    (tmp_path / "ab.csv").write_text((tmp_path / "a.csv").read_text() + "".join(b_rows))
    config = write_toy_run(tmp_path)
    doc = json.loads(config.read_text())
    caches = []
    for files, out in ((["a.csv", "b.csv"], "two"), (["ab.csv"], "one")):
        doc.update(csv=files, out=out)
        config.write_text(json.dumps(doc))
        assert run(config, "ingest") == EXIT_OK
        caches.append([
            (tmp_path / out / name).read_bytes()
            for name in (cli.DATASET_FILE, cli.DATASET_MATRIX_FILE)
        ])
    assert caches[0] == caches[1]
    assert "rows parsed: 200" in (tmp_path / "two" / cli.SUMMARY_FILE).read_text()


def test_truncated_quality_report_is_data_error(tmp_path, capsys):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3},
                           eval_overrides={"n_trees": 2})
    for verb in ("ingest", "train", "evaluate"):
        assert run(config, verb) == EXIT_OK
    path = tmp_path / "run" / cli.REPORT_JSON_FILE
    path.write_text(path.read_text()[:100])
    capsys.readouterr()
    assert run(config, "report") == EXIT_DATA
    assert cli.REPORT_JSON_FILE in capsys.readouterr().err
    assert not (tmp_path / "run" / cli.REPORT_MD_FILE).exists()


@pytest.mark.parametrize("text", ["{not json", "[]"])
def test_corrupt_manifest_read_by_report_is_data_error(tmp_path, capsys, text):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3},
                           eval_overrides={"n_trees": 2})
    for verb in ("ingest", "train", "evaluate"):
        assert run(config, verb) == EXIT_OK
    (tmp_path / "run" / "train_manifest.json").write_text(text)
    capsys.readouterr()
    assert run(config, "report") == EXIT_DATA
    assert "train_manifest.json" in capsys.readouterr().err


def test_corrupt_manifest_on_reingest_is_data_error(tmp_path, capsys):
    config = write_toy_run(tmp_path)
    assert run(config, "ingest") == EXIT_OK
    (tmp_path / "run" / "train_manifest.json").write_text("not json")
    capsys.readouterr()
    assert run(config, "ingest") == EXIT_DATA
    assert "train_manifest.json" in capsys.readouterr().err


def test_report_reads_feature_names_from_the_quality_report(tmp_path, monkeypatch):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3},
                           eval_overrides={"n_trees": 2})
    for verb in ("ingest", "train", "evaluate", "report"):
        assert run(config, verb) == EXIT_OK
    first = (tmp_path / "run" / cli.REPORT_MD_FILE).read_bytes()

    def no_load(path):
        raise AssertionError("report must not parse the dataset cache")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    assert run(config, "report") == EXIT_OK
    assert (tmp_path / "run" / cli.REPORT_MD_FILE).read_bytes() == first
    (tmp_path / "run" / cli.DATASET_FILE).unlink()  # report reads nothing from it
    assert run(config, "report") == EXIT_OK
    assert (tmp_path / "run" / cli.REPORT_MD_FILE).read_bytes() == first


@pytest.fixture(scope="module")
def evaluated_run(tmp_path_factory):
    """A toy run through evaluate; each malformed-input case damages a copy."""
    tmp = tmp_path_factory.mktemp("evaluated")
    config = write_toy_run(tmp, gan_overrides={"gen_steps": 3},
                           eval_overrides={"n_trees": 2})
    for verb in ("ingest", "train", "evaluate"):
        assert run(config, verb) == EXIT_OK
    return tmp


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


# parameters of the toy nets: generator 8-32-32-2, critic 2-32-32-1
TOY_PARAMETERS = (8 + 1) * 32 + (32 + 1) * 32 + (32 + 1) * 2 + (2 + 1) * 32 + (32 + 1) * 33

# (file, damage, verb, exit code). The damage is the file's new bytes, None
# for a directory in its place, or fields to update in its JSON object.
MALFORMED_INPUTS = {
    "config not utf-8": ("config.json", b'{"seed": "\xff"}', "ingest", EXIT_CONFIG),
    "config is a directory": ("config.json", None, "ingest", EXIT_CONFIG),
    "schema not utf-8": ("toy_schema.json", b'{"columns": "\xff"}', "ingest", EXIT_CONFIG),
    "schema column not an object": (
        "toy_schema.json", b'{"columns": [5]}', "ingest", EXIT_CONFIG),
    "schema column without name": (
        "toy_schema.json", b'{"columns": [{"role": "label"}]}', "ingest", EXIT_CONFIG),
    "dataset.json not utf-8": ("run/dataset.json", b'{"format": "\xff"}', "train", EXIT_DATA),
    "artifacts 5, report": ("run/train_manifest.json", {"artifacts": 5}, "report", EXIT_DATA),
    "artifacts 5, re-ingest": (
        "run/train_manifest.json", {"artifacts": 5}, "ingest", EXIT_DATA),
    "artifacts [1], report": (
        "run/train_manifest.json", {"artifacts": [1]}, "report", EXIT_DATA),
    "artifacts [1], re-ingest": (
        "run/train_manifest.json", {"artifacts": [1]}, "ingest", EXIT_DATA),
    "fingerprint a list": (
        "run/ingest_manifest.json", {"dataset_fingerprint": [1]}, "report", EXIT_DATA),
    "model a directory": ("run/model.sgmodel", None, "generate", EXIT_DATA),
    "model not utf-8": ("run/model.sgmodel", b'{"format": "\xff"}', "generate", EXIT_DATA),
    "model version 2": ("run/model.sgmodel", {"version": 2}, "generate", EXIT_DATA),
    "model.npy a directory": ("run/model.npy", None, "generate", EXIT_DATA),
    "model.npy truncated": (
        "run/model.npy", npy_bytes(np.zeros(TOY_PARAMETERS))[:-8], "generate", EXIT_DATA),
    "model.npy wrong length": (
        "run/model.npy", npy_bytes(np.zeros(TOY_PARAMETERS + 1)), "generate", EXIT_DATA),
    "model.npy non-finite": (
        "run/model.npy", npy_bytes(np.full(TOY_PARAMETERS, np.nan)), "generate", EXIT_DATA),
    "model.npy float32": (
        "run/model.npy", npy_bytes(np.zeros(TOY_PARAMETERS, np.float32)), "generate",
        EXIT_DATA),
    "report auc a string": ("run/quality_report.json", {"auc": "x"}, "report", EXIT_DATA),
    "report importances a list": (
        "run/quality_report.json", {"importances": []}, "report", EXIT_DATA),
    "input csv a directory": ("toy.csv", None, "ingest", EXIT_CONFIG),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_with_its_code_and_names_the_file(
    evaluated_run, tmp_path, capsys, case
):
    name, damage, verb, code = MALFORMED_INPUTS[case]
    shutil.copytree(evaluated_run, tmp_path, dirs_exist_ok=True)
    config, path = tmp_path / "config.json", tmp_path / name
    if damage is None:
        path.unlink()
        path.mkdir()
    elif isinstance(damage, bytes):
        path.write_bytes(damage)
    else:
        path.write_text(json.dumps({**json.loads(path.read_text()), **damage}))
    capsys.readouterr()
    assert run(config, verb) == code  # an escaping exception fails the test
    assert path.name in capsys.readouterr().err


def test_missing_checkpoint_vector_is_data_error(evaluated_run, tmp_path, capsys):
    shutil.copytree(evaluated_run, tmp_path, dirs_exist_ok=True)
    (tmp_path / "run" / cli.MODEL_MATRIX_FILE).unlink()
    capsys.readouterr()
    assert run(tmp_path / "config.json", "generate") == EXIT_DATA
    assert cli.MODEL_MATRIX_FILE in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    {"generator_hidden": [32]}, {"critic_hidden": [32, 16]}, {"feature_count": 3},
], ids=repr)
def test_checkpoint_header_edit_that_changes_the_layers_names_the_vector(
    evaluated_run, tmp_path, capsys, edit
):
    shutil.copytree(evaluated_run, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "run" / cli.MODEL_FILE
    doc = json.loads(path.read_text())
    (doc if "feature_count" in edit else doc["config"]).update(edit)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path / "config.json", "generate") == EXIT_DATA
    err = capsys.readouterr().err
    assert cli.MODEL_MATRIX_FILE in err and "records" in err


def test_zeroed_checkpoint_vector_of_the_right_length_loads(evaluated_run, tmp_path):
    # the damaged rows above differ from a valid vector only in their defect
    shutil.copytree(evaluated_run, tmp_path, dirs_exist_ok=True)
    (tmp_path / "run" / cli.MODEL_MATRIX_FILE).write_bytes(npy_bytes(np.zeros(TOY_PARAMETERS)))
    assert run(tmp_path / "config.json", "generate") == EXIT_OK


@pytest.mark.parametrize("overrides, name", [
    ({"gan_overrides": {"batch_size": 64.5}}, "batch_size"),
    ({"gan_overrides": {"gp_lambda": float("nan")}}, "gp_lambda"),
    ({"gan_overrides": {"gen_steps": True}}, "gen_steps"),
    ({"gan_overrides": {"generator_hidden": [32.5]}}, "generator_hidden"),
    ({"eval_overrides": {"n_trees": 2.5}}, "n_trees"),
    ({"eval_overrides": {"max_depth": True}}, "max_depth"),
    ({"seed": True}, "seed"),
    ({"gan_overrides": {"lr": True}}, "lr must be a finite number"),
    ({"eval_overrides": {"shrinkage": True}}, "shrinkage must be a finite number"),
    ({"gan_overrides": {"noise_dim": 2**70}}, "noise_dim, generator_hidden and critic_hidden"),
    ({"gan_overrides": {"critic_hidden": [2**40]}}, f"over {cli.MAX_PARAMETERS}"),
])
def test_wrongly_typed_config_value_rejected_at_every_verb(
    tmp_path, capsys, overrides, name
):
    config = write_toy_run(tmp_path, **overrides)
    for verb in ("ingest", "train", "generate", "evaluate", "report"):
        assert run(config, verb) == EXIT_CONFIG
        assert name in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_reingest_and_diverged_retrain_remove_both_checkpoint_files(tmp_path):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    out = tmp_path / "run"
    model = [out / cli.MODEL_FILE, out / cli.MODEL_MATRIX_FILE]
    lastgood = [out / cli.LASTGOOD_MODEL_FILE, out / cli.LASTGOOD_MODEL_MATRIX_FILE]
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "train") == EXIT_OK
    assert all(p.exists() for p in model)
    assert run(config, "ingest") == EXIT_OK
    assert not any(p.exists() for p in model)
    assert run(config, "train") == EXIT_OK
    doc = json.loads(config.read_text())
    doc["gan"].update(lr=1e200, gen_steps=20)
    config.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(config, "train") == EXIT_DIVERGED
    assert not any(p.exists() for p in model)
    assert all(p.exists() for p in lastgood)
    assert run(config, "ingest") == EXIT_OK  # the diverged manifest lists both
    assert not any(p.exists() for p in lastgood)


def test_good_train_removes_an_earlier_diverged_runs_lastgood_files(tmp_path):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    out = tmp_path / "run"
    lastgood = [out / cli.LASTGOOD_MODEL_FILE, out / cli.LASTGOOD_MODEL_MATRIX_FILE]
    good = config.read_text()
    diverging = json.loads(good)
    diverging["gan"].update(lr=1e200, gen_steps=20)
    assert run(config, "ingest") == EXIT_OK
    config.write_text(json.dumps(diverging))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(config, "train") == EXIT_DIVERGED
    assert all(p.exists() for p in lastgood)
    config.write_text(good)
    assert run(config, "train") == EXIT_OK
    assert not any(p.exists() for p in lastgood)
    manifest = json.loads((out / "train_manifest.json").read_text())
    assert cli.LASTGOOD_MODEL_FILE not in manifest["artifacts"]


def test_gan_seed_is_rejected(tmp_path, capsys):
    config = write_toy_run(tmp_path, gan_overrides={"seed": 99})
    assert run(config, "ingest") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "gan.seed" in err and "--seed" in err
    assert not (tmp_path / "run").exists()


# every key a run config can set, and values of every JSON type
CONFIG_KEYS = [
    *(f.name for f in fields(cli.RunConfig)),
    *(f"gan.{f.name}" for f in fields(cli.GanConfig)),
    *(f"eval.{f.name}" for f in fields(cli.EvalConfig)),
]
CONFIG_VALUES = [
    None, True, 0, -1, 2**70, 0.5, float("nan"), float("inf"), "", "x", [], [1], ["a"], {},
]


def toy_run_with(tmp_path, key, value):
    """A toy run config with ``key`` ("name" or "section.name") set to ``value``."""
    config = write_toy_run(tmp_path)
    doc = json.loads(config.read_text())
    *section, name = key.split(".")
    (doc[section[0]] if section else doc)[name] = value
    config.write_text(json.dumps(doc))
    return config


@pytest.mark.parametrize("value", CONFIG_VALUES, ids=repr)
@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_any_config_value_is_accepted_or_a_config_error(tmp_path, key, value):
    config = toy_run_with(tmp_path, key, value)
    # a label that no row carries is a data error, not a config error
    allowed = {EXIT_DATA} if (key, value) == ("labels", ["a"]) else {EXIT_OK, EXIT_CONFIG}
    assert run(config, "ingest") in allowed  # an escaping exception fails the test


@pytest.mark.parametrize("value", ["", []], ids=repr)
@pytest.mark.parametrize("key", ["gan", "eval"])
def test_config_section_that_is_not_an_object_names_the_key(tmp_path, capsys, key, value):
    assert run(toy_run_with(tmp_path, key, value), "ingest") == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err


def _listed_artifacts(out):
    return {
        name for manifest in out.glob("*_manifest.json")
        for name in json.loads(manifest.read_text())["artifacts"]
    }


def test_retrain_removes_what_the_earlier_model_built(tmp_path, capsys):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3},
                           eval_overrides={"n_trees": 2})
    out = tmp_path / "run"
    good = config.read_text()
    diverging = json.loads(good)
    diverging["gan"]["lr"] = 1e200
    assert run(config, "ingest") == EXIT_OK
    for retrain, code in ((good, EXIT_OK), (json.dumps(diverging), EXIT_DIVERGED)):
        config.write_text(good)
        assert run(config, "train") == EXIT_OK
        assert run(config, "generate", "--count", "10") == EXIT_OK
        for verb in ("evaluate", "report"):
            assert run(config, verb) == EXIT_OK
        config.write_text(retrain)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(config, "train") == code
        manifests = sorted(p.name for p in out.glob("*_manifest.json"))
        assert manifests == ["ingest_manifest.json", "train_manifest.json"]
        assert {p.name for p in out.iterdir()} == _listed_artifacts(out)
        capsys.readouterr()
        assert run(config, "report") == EXIT_MISSING
        assert "'evaluate'" in capsys.readouterr().err


def test_reevaluate_leaves_only_the_histograms_its_manifest_lists(tmp_path):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3},
                           eval_overrides={"n_trees": 2})
    out = tmp_path / "run"
    for verb in ("ingest", "train", "evaluate", "report"):
        assert run(config, verb) == EXIT_OK
    assert sorted(p.name for p in out.glob("hist_*.csv")) == ["hist_f1.csv", "hist_f2.csv"]
    doc = json.loads(config.read_text())
    doc["eval"]["histogram_features"] = ["f2"]
    config.write_text(json.dumps(doc))
    assert run(config, "evaluate") == EXIT_OK
    assert sorted(p.name for p in out.glob("hist_*.csv")) == ["hist_f2.csv"]
    assert not (out / cli.REPORT_MD_FILE).exists()  # it rendered the earlier report
    assert {p.name for p in out.iterdir()} == _listed_artifacts(out)


def test_artifact_that_cannot_be_written_exits_3_and_keeps_the_earlier_file(
    evaluated_run, tmp_path, capsys
):
    shutil.copytree(evaluated_run, tmp_path, dirs_exist_ok=True)
    config, out = tmp_path / "config.json", tmp_path / "run"
    assert run(config, "generate", "--count", "10") == EXIT_OK
    earlier = (out / cli.SYNTH_FILE).read_bytes()
    (out / "synthetic.csv.part").mkdir()  # the forked worker cannot open its part
    capsys.readouterr()
    assert run(config, "generate", "--count", "20") == EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "synthetic.csv.part" in err
    assert (out / cli.SYNTH_FILE).read_bytes() == earlier
    assert not (out / "synthetic.csv.tmp").exists()


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except TypeError:  # Windows loads no CDLL(None)
        return False


def train_minor_faults(config, gen_steps: int) -> int:
    """Minor page faults of the train verb run as a child for ``gen_steps``."""
    doc = json.loads(config.read_text())
    doc["gan"]["gen_steps"] = gen_steps
    config.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "synthflow.cli", "train", "--config", str(config)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    assert proc.returncode == EXIT_OK
    return usage.ru_minflt


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt (not glibc)")
def test_train_verb_does_not_fault_its_heap_back_in_every_step(tmp_path):
    # reference hidden sizes: each gradient is a parameter-sized vector of
    # about 0.5 MB, freed every critic update
    reference = {"noise_dim": 64, "generator_hidden": [256, 128, 128, 128],
                 "critic_hidden": [256, 128, 128, 128], "batch_size": 32}
    config = write_toy_run(tmp_path, gan_overrides=reference)
    assert run(config, "ingest") == EXIT_OK
    steps = 5
    extra = train_minor_faults(config, 4 * steps) - train_minor_faults(config, steps)
    # about 1000 per step when glibc trims the freed heap top after each step
    assert extra / (3 * steps) < 200


def test_train_without_mallopt_writes_the_same_model(tmp_path, monkeypatch):
    asked, models = [], []
    for name in ("glibc", "other"):
        (tmp_path / name).mkdir()
        config = write_toy_run(tmp_path / name, gan_overrides={"gen_steps": 5})
        assert run(config, "ingest") == EXIT_OK
        if name == "other":  # a C library without mallopt
            monkeypatch.setattr(cli.ctypes, "CDLL", lambda lib: asked.append(lib) or object())
        assert run(config, "train") == EXIT_OK
        models.append((tmp_path / name / "run" / cli.MODEL_MATRIX_FILE).read_bytes())
    assert asked == [None]
    assert models[1] == models[0]
