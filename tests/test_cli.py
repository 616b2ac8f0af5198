import ctypes
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from synthflow import cli, dataio, evaluator, gan, nets
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

from helpers import (
    act_in_the_worker,
    count_forks,
    leaves_nothing_open,
    nan_generator_input,
    nan_penalty_input,
    nan_scored_rows,
    needs_openblas,
    set_gradient_entry,
    spoil_generator_score,
    write_toy_run,
)

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


def test_evaluate_manifest_times_generate_and_write_beside_the_total(toy_pipeline):
    timings = json.loads((toy_pipeline / "evaluate_manifest.json").read_text())["timings_ms"]
    assert set(timings) == {"total", "generate", "write"}
    assert min(timings.values()) >= 0.0
    assert timings["generate"] <= timings["total"]


def test_train_manifest_times_critic_and_generator_updates_beside_the_total(toy_pipeline):
    timings = json.loads((toy_pipeline / "train_manifest.json").read_text())["timings_ms"]
    assert set(timings) == {"total", "critic", "generator"}
    assert min(timings.values()) > 0.0
    assert timings["critic"] + timings["generator"] <= timings["total"]


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


def test_train_progress_line_shows_the_wasserstein_estimate(tmp_path, capsys):
    config = write_toy_run(tmp_path)
    assert run(config, "ingest") == EXIT_OK
    capsys.readouterr()
    assert run(config, "train") == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 10  # every sixth of 60 steps
    last = (tmp_path / "run" / cli.TRAIN_LOG_FILE).read_text().splitlines()[-1]
    closs, gloss, penalty = map(float, last.split(",")[1:4])
    # the critic's estimate of the Wasserstein distance: mean f(real) - mean f(fake)
    assert lines[-1] == (
        f"step 60/60 critic_loss={closs:.4f} generator_loss={gloss:.4f} "
        f"w_estimate={penalty - closs:.4f}"
    )


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


def test_checkpoint_of_another_width_is_data_error(tmp_path, capsys):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "train") == EXIT_OK
    model = gan.build_model(gan.GanConfig.small(), 1, np.random.default_rng(0))
    gan.save_checkpoint(model, tmp_path / "run" / cli.MODEL_FILE)
    capsys.readouterr()
    for verb in ("generate", "evaluate"):
        assert run(config, verb) == EXIT_DATA
        assert "checkpoint generates 1 features" in capsys.readouterr().err


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
    elif damage in ("non-finite", "out of range"):
        # a well-formed .npy; DatasetMatrix's range check names the document
        matrix[3:5, 0] = (np.nan, np.inf) if damage == "non-finite" else 2.0
        np.save(npy_path, matrix)
        return cli.DATASET_FILE
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
    return cli.DATASET_MATRIX_FILE


@pytest.mark.parametrize("damage", [
    "list", "schema", "stats", "labels", "features",
    "missing", "truncated", "header", "dtype", "big-endian", "rows", "width",
    "label count", "non-finite", "out of range",
])
def test_malformed_dataset_cache_is_data_error(tmp_path, capsys, damage):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    named = _damage_cache(tmp_path / "run", damage)
    capsys.readouterr()
    assert run(config, "train") == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and named in err
    assert not (tmp_path / "run" / cli.MODEL_FILE).exists()


@pytest.mark.parametrize("damage", ["format", "version", "not an object"])
@pytest.mark.parametrize("cache", ["dataset", "model"])
def test_cache_header_names_the_file_and_the_command_to_run_again(
    tmp_path, capsys, cache, damage
):
    # both caches' headers are checked by one protocol, dataio.load_cache
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    assert run(config, "train") == EXIT_OK
    name, load, verb, kind, version = {
        "dataset": (cli.DATASET_FILE, load_dataset, "ingest",
                    dataio.DATASET_FORMAT, dataio.DATASET_VERSION),
        "model": (cli.MODEL_FILE, gan.load_checkpoint, "train",
                  gan.CHECKPOINT_FORMAT, gan.CHECKPOINT_VERSION),
    }[cache]
    path = tmp_path / "run" / name
    doc = json.loads(path.read_text())
    assert list(doc.items())[:2] == [("format", kind), ("version", version)]
    problem = f"not a '{kind}' cache"
    if damage == "format":
        doc["format"] = "other"
    elif damage == "version":
        doc["version"] = version - 1
        problem = f"'{kind}' version {version - 1} unsupported (expected {version})"
    else:
        doc = [doc]
    path.write_text(json.dumps(doc))
    message = f"{path}: {problem}; run the '{verb}' command again"
    with pytest.raises(dataio.DataError, match=f"^{re.escape(message)}$"):
        load(path)
    capsys.readouterr()
    assert run(config, "generate", "--count", "10") == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and name in err
    assert f"{problem}; run the '{verb}' command again" in err


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


def test_second_file_with_another_header_exits_3_naming_both(tmp_path, capsys):
    from synthflow import toydata

    toydata.write_toy_csv(tmp_path / "a.csv", n_rows=20, seed=1)
    (tmp_path / "b.csv").write_text("f1,f3,label\n0.5,0.5,attack\n")
    config = write_toy_run(tmp_path)
    doc = json.loads(config.read_text())
    doc["csv"] = ["a.csv", "b.csv"]
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(config, "ingest") == EXIT_DATA
    err = capsys.readouterr().err
    assert err == (
        f"data error: CSV header of {tmp_path / 'b.csv'} differs from {tmp_path / 'a.csv'}\n"
    )
    assert not (tmp_path / "run").exists()


def test_column_spanning_more_than_float64_exits_3_naming_it(tmp_path, capsys):
    config = write_toy_run(tmp_path)
    lines = (tmp_path / "toy.csv").read_text().splitlines(keepends=True)
    lines[1] = "1.7976931348623157e+308,0.5,attack\n"
    lines[-1] = "-1e300,0.5,normal\n"
    (tmp_path / "toy.csv").write_text("".join(lines))
    capsys.readouterr()
    assert run(config, "ingest") == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "data error: column 'f1' spans more than the float64 range\n"
    assert not (tmp_path / "run").exists()


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
    # a short file: the open quote reaches the end of the file, within the limit
    (tmp_path / "toy.csv").write_text(
        'f1,f2,label\n0.1,0.2,attack\n0.3,0.4,"attack\n0.5,0.6,attack\n0.7,0.8,normal\n'
    )
    assert run(config, "ingest") == EXIT_DATA
    err = capsys.readouterr().err
    assert "toy.csv: unreadable row 2: a quoted cell is still open at the end of the file" in err
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


@pytest.mark.parametrize(
    "names, selected, first",
    [
        # the default selection: no preferred flow feature, so the first four
        (["Flow-Bytes-s", "x", "flow bytes s"], None, "Flow-Bytes-s"),
        (["Flow Duration", "Flow Bytes-s", "flow bytes s"], ["Flow Bytes-s", "flow bytes s"],
         "Flow Bytes-s"),
        (["Flow Duration", "x", "flow bytes s"], ["flow bytes s", "x", "flow bytes s"],
         "flow bytes s"),
    ],
)
def test_histogram_features_sharing_a_file_name_exit_2(tmp_path, capsys, names, selected, first):
    config = write_toy_run(tmp_path, eval_overrides={"histogram_features": selected})
    columns = [{"name": name, "role": "numeric"} for name in names]
    schema = {"columns": [*columns, {"name": "label", "role": "label"}]}
    (tmp_path / "toy_schema.json").write_text(json.dumps(schema))
    capsys.readouterr()
    assert run(config, "ingest") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{first!r} and 'flow bytes s' would share the file hist_flow_bytes_s.csv" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb", ["train", "generate", "evaluate"])
def test_dataset_of_another_schema_exits_3_before_writing(tmp_path, capsys, verb):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3},
                           eval_overrides={"n_trees": 2})
    out = tmp_path / "run"
    for step in ("ingest", "train"):
        assert run(config, step) == EXIT_OK
    schema = json.loads((tmp_path / "toy_schema.json").read_text())
    schema["columns"][1]["name"] = "f3"  # f2, renamed
    (tmp_path / "other_schema.json").write_text(json.dumps(schema))
    doc = json.loads(config.read_text())
    doc["schema"] = "other_schema.json"
    doc["eval"]["histogram_features"] = ["f3"]
    config.write_text(json.dumps(doc))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(config, verb) == EXIT_DATA
    err = capsys.readouterr().err
    assert cli.DATASET_FILE in err and "'ingest'" in err
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_constant_feature_too_large_for_float_bins_evaluates(tmp_path, capsys):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3},
                           eval_overrides={"n_trees": 2})
    lines = (tmp_path / "toy.csv").read_text().splitlines(keepends=True)
    rows = [line.split(",") for line in lines[1:]]
    text = lines[0] + "".join(f"{f1},1e17,{label}" for f1, _, label in rows)
    (tmp_path / "toy.csv").write_text(text)
    for verb in ("ingest", "train", "evaluate", "report"):
        assert run(config, verb) == EXIT_OK
    rows = (tmp_path / "run" / "hist_f2.csv").read_text().splitlines()[1:]
    assert len(rows) == 32
    assert sum(int(row.split(",")[3]) for row in rows) == 1000


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


# --------------------------------------------- ingest byte oracle

def _numeric_schema(*names):
    return {"columns": [{"name": n, "role": "numeric"} for n in names]
            + [{"name": "label", "role": "label"}]}


def _three_blocks() -> str:
    """600 records: the first and last blocks for numpy's C reader, the middle
    one (records 257-512) for the csv module, which a quoted comma and an
    empty cell send it to."""
    rows = ["a,b,label\n"]
    for i in range(600):
        label = "normal" if i % 3 == 0 else "attack"
        a = "" if i == 300 else repr(i / 4)
        if i in (270, 400):
            label = '"dos, slow"'
        rows.append(f"{a},{i % 9 - 4},{label}\n")
    return "".join(rows)


# case: (files, schema, labels, extra config keys)
GOLDEN_INGESTS = {
    "c reader and csv module": (
        {"a.csv": _three_blocks().encode()},
        _numeric_schema("a", "b"), ["attack", "dos, slow"], {},
    ),
    "bom, duplicate name, specials, crlf": (
        {"a.csv": b"\xef\xbb\xbf a ,b,a,label\r\n"
                  b"1,-0,2,x\r\n"
                  b"Infinity,3,-0,x\r\n"
                  b"-Infinity,4,5,y\r\n"
                  b"NaN,1,1,x\r\n"
                  b"2,-0.0,7, x \r\n"
                  b"5,6,Infinity,x\r\n"
                  b"-0,-Infinity,3,x\r\n"},
        _numeric_schema("a", "b", "a.1"), ["x"], {},
    ),
    "two files": (
        {"a.csv": b"f1,f2,label\n1,2,attack\n3,4,normal\n0.5,-1,attack",
         "b.csv": b"f1,f2,label\n5,6,attack\n\n7,8e3,attack\n"},
        _numeric_schema("f1", "f2"), ["attack"], {},
    ),
    "headerless, categorical": (
        {"kdd.csv": b"0,tcp,100,normal,21\n1,udp,5,smurf,15\n2,icmp,7,smurf,3\n"
                    b"3,bogus,9,smurf,1\n4,tcp,-2.5,smurf,9\n"},
        {"columns": [
            {"name": "duration", "role": "numeric"},
            {"name": "proto", "role": "categorical", "categories": ["icmp", "tcp", "udp"]},
            {"name": "bytes", "role": "numeric"},
            {"name": "label", "role": "label"},
            {"name": "difficulty", "role": "drop"},
        ]},
        ["smurf"], {"has_header": False},
    ),
}

# sha256 of dataset.npy, dataset.json and ingest_summary.txt for each case: a
# change to ingest must leave every byte of them as it is
GOLDEN_DIGESTS = {
    "c reader and csv module": [
        "f67ec69b93abbe2184ec35977596865971114bf9aa540fda42e18520323abbe6",
        "ef83305bfd6a51e3e58e30aac79a30728afcb4c779bddb70a87aa518e9a2476f",
        "5bf4f930561b36ee90e38a3727f1b21d6fc7cae1c59b12bb2f4f6b7dff78c882",
    ],
    "bom, duplicate name, specials, crlf": [
        "6d3ef45d53a9593947d7fa5cbaf0ea9c30c5313d102a89d4fd3cd501a4608f8a",
        "7cd56b3e372bde2907b808372514130722a2d9df9094715b64f5730992d9d2c7",
        "c8cdca976658a7dc35d0f39036173941fa50867a30b291d307173f7e899eb058",
    ],
    "two files": [
        "9c57d761c117358ae5a1c71f3e0a547d4479a9ebbcd28df36b8cf59acb846cdb",
        "f05a3ccc90e1e6f0ee4612a9b5efafb44ecafc7edbf4f70cb07a93d12ed16d24",
        "c7001a82b4f2733cbf4be2fc0812e9b7e8d29205508955544effd8aeb753d6a2",
    ],
    "headerless, categorical": [
        "4241138350df70b9176f518941b2ab2e433186ed01a9c35a54ab1e438fe802a2",
        "91c14798e4e5fb0edc443d7f07cd57b826f8bb838fa2e91bc85b315e9892c076",
        "bcc81948586e2ce97b0540c3e40729dd107bb57a1fb08085099202af0be78e58",
    ],
}


@pytest.mark.parametrize("case", GOLDEN_INGESTS)
def test_ingest_bytes_match_their_golden_digests(tmp_path, case):
    files, schema, labels, extra = GOLDEN_INGESTS[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": "custom", "csv": list(files), "labels": labels,
        "schema": "schema.json", "seed": 1, "out": "run", **extra,
    }))
    assert run(config, "ingest") == EXIT_OK
    digests = [
        hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in (cli.DATASET_MATRIX_FILE, cli.DATASET_FILE, cli.SUMMARY_FILE)
    ]
    assert digests == GOLDEN_DIGESTS[case]


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
    # values evaluate never writes
    "report n_real a bool": ("run/quality_report.json", {"n_real": True}, "report", EXIT_DATA),
    "report auc NaN": ("run/quality_report.json", {"auc": float("nan")}, "report", EXIT_DATA),
    "report importance a string": (
        "run/quality_report.json", {"importances": {"f1": "inf"}}, "report", EXIT_DATA),
    "report importance infinite": (
        "run/quality_report.json", {"importances": {"f1": float("inf")}}, "report", EXIT_DATA),
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


def test_custom_schema_file_is_decoded_once_per_verb(tmp_path, monkeypatch):
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3},
                           eval_overrides={"n_trees": 2})
    calls = []

    def counted(path):
        calls.append(path)
        return dataio.schema_from_json(path)

    monkeypatch.setattr(cli, "schema_from_json", counted)
    for args in (["ingest"], ["train"], ["generate", "--count", "10"], ["evaluate"],
                 ["report"]):
        calls.clear()
        assert run(config, *args) == EXIT_OK
        assert len(calls) == 1, args


def readme_run_config():
    """The run-config example of README.md, its ``//`` comments stripped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("### Run config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"\s+//.*", "", block))


def test_readme_run_config_is_every_key_with_the_defaults(tmp_path):
    doc = readme_run_config()
    assert set(doc) == {f.name for f in fields(cli.RunConfig)}
    assert set(doc["gan"]) == {f.name for f in fields(cli.GanConfig)} - {"seed"}
    assert set(doc["eval"]) == {f.name for f in fields(cli.EvalConfig)}
    assert cli.config_from_dict(cli.GanConfig, doc["gan"]) == cli.GanConfig()
    assert cli.config_from_dict(cli.EvalConfig, doc["eval"]) == cli.EvalConfig()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    cfg = cli.load_run_config(path)  # the one decoder takes it as documented
    assert (cfg.dataset, cfg.seed, cfg.gan.seed) == (doc["dataset"], doc["seed"], doc["seed"])


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_artifact_that_cannot_be_written_exits_3_and_keeps_the_earlier_file(
    evaluated_run, tmp_path, capsys
):
    shutil.copytree(evaluated_run, tmp_path, dirs_exist_ok=True)
    config, out = tmp_path / "config.json", tmp_path / "run"
    assert run(config, "generate", "--count", "10") == EXIT_OK
    earlier = (out / cli.SYNTH_FILE).read_bytes()
    (out / "synthetic.csv.tmp").symlink_to("/dev/full")  # every write: no space left
    capsys.readouterr()
    # more than one block of rows, so a forked worker formats some of them
    assert run(config, "generate", "--count", "600") == EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "synthetic.csv.tmp" in err
    assert "No space left on device" in err
    assert (out / cli.SYNTH_FILE).read_bytes() == earlier
    assert not (out / "synthetic.csv.tmp").exists()


def test_killed_fit_worker_exits_3_and_names_it(evaluated_run, tmp_path, capsys, monkeypatch):
    shutil.copytree(evaluated_run, tmp_path, dirs_exist_ok=True)
    monkeypatch.setattr(evaluator, "_FIT_WORKER_CELLS", 0)  # the toy fit forks too
    act_in_the_worker(
        monkeypatch, evaluator, "split_search", lambda: os.kill(os.getpid(), signal.SIGKILL)
    )
    capsys.readouterr()
    with leaves_nothing_open():
        assert run(tmp_path / "config.json", "evaluate") == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: the worker searching split features exited with {-signal.SIGKILL}\n"


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


def diverged_toy_trains(tmp_path, monkeypatch, capsys, spoil) -> list:
    """For a 5-step toy ``train`` in one process, then in two, each run with
    ``spoil(patch)`` applied: its failure step, last good model, train log
    without ``wall_ms`` and stderr. Each exits 4 and leaves no model."""
    kept = []
    for name, gate, forks in (("alone", 2**62, 0), ("both", 0, 1)):
        (tmp_path / name).mkdir()
        config = write_toy_run(tmp_path / name, gan_overrides={"gen_steps": 5})
        assert run(config, "ingest") == EXIT_OK
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(gan, "_PENALTY_WORKER_PARAMETERS", gate)
            spoil(patch)
            counted = count_forks(patch)
            with leaves_nothing_open():
                assert run(config, "train") == EXIT_DIVERGED
        assert len(counted) == forks
        out = tmp_path / name / "run"
        assert not (out / cli.MODEL_FILE).exists()
        manifest = json.loads((out / "train_manifest.json").read_text())
        lastgood = (out / cli.LASTGOOD_MODEL_MATRIX_FILE).read_bytes()
        lines = (out / cli.TRAIN_LOG_FILE).read_text().splitlines()
        log = [line.rsplit(",", 1)[0] for line in lines]  # wall_ms, the last column, goes
        kept.append((manifest["failure_step"], lastgood, log, capsys.readouterr().err))
    return kept


@needs_openblas
def test_penalty_worker_divergence_exits_4_with_the_one_process_model(
    tmp_path, monkeypatch, capsys
):
    kept = diverged_toy_trains(  # the third update of step 3
        tmp_path, monkeypatch, capsys, lambda patch: nan_penalty_input(patch, call=13)
    )
    assert kept[1] == kept[0]
    assert kept[0][0] == 3


# the toy generator's parameters: 8 noise inputs, 32 x 32 hidden, 2 features
TOY_GENERATOR_SIZE = nets.parameter_count(nets.layer_shapes([8, 32, 32, 2]))


@needs_openblas
@pytest.mark.parametrize("spoil, message", [
    (lambda patch: spoil_generator_score(patch, 3, nan_scored_rows),
     "forward pass produced non-finite values"),
    (lambda patch: spoil_generator_score(patch, 3, lambda score, critic, fake: -np.inf),
     "non-finite generator loss: -inf"),
    (lambda patch: set_gradient_entry(
        patch, "mlp_param_grad", 3, TOY_GENERATOR_SIZE // 2, np.inf, critic=False
    ), f"non-finite gradient for parameter {TOY_GENERATOR_SIZE // 2}"),
    (lambda patch: nan_generator_input(patch, call=18),  # drawn during step 3's update 5
     "forward pass produced non-finite values"),
], ids=["score-forward", "score-loss", "gradient-upper-half", "batch-drawn-ahead"])
def test_generator_divergence_in_two_processes_exits_4_as_one_process(
    tmp_path, monkeypatch, capsys, spoil, message
):
    kept = diverged_toy_trains(tmp_path, monkeypatch, capsys, spoil)
    assert kept[1] == kept[0]
    step, _, log, err = kept[0]
    assert step == 3
    assert len(log) == 3  # the header and steps 1 and 2
    assert err.splitlines()[-1] == f"error: training diverged at generator step 3: {message}"


def train_with_a_failing_penalty_worker(
    tmp_path, capsys, monkeypatch, name, act, owner=nets, when=None
) -> str:
    """The stderr of a toy ``train`` whose penalty worker runs ``act()`` as it
    calls ``owner.<name>`` (:func:`act_in_the_worker`); the verb exits 3 and
    leaves no model."""
    config = write_toy_run(tmp_path, gan_overrides={"gen_steps": 3})
    assert run(config, "ingest") == EXIT_OK
    monkeypatch.setattr(gan, "_PENALTY_WORKER_PARAMETERS", 0)  # the toy critic forks too
    act_in_the_worker(monkeypatch, owner, name, act, when)
    capsys.readouterr()
    with leaves_nothing_open():
        assert run(config, "train") == EXIT_DATA
    out = tmp_path / "run"
    assert not any((out / file).exists() for file in (
        cli.MODEL_FILE, cli.MODEL_MATRIX_FILE,
        cli.LASTGOOD_MODEL_FILE, cli.LASTGOOD_MODEL_MATRIX_FILE,
    ))
    return capsys.readouterr().err


def kill_this_process():
    os.kill(os.getpid(), signal.SIGKILL)


@needs_openblas
def test_killed_penalty_worker_exits_3_and_leaves_no_model(tmp_path, capsys, monkeypatch):
    err = train_with_a_failing_penalty_worker(
        tmp_path, capsys, monkeypatch, "penalty_param_grad", kill_this_process
    )
    assert err == (
        f"error: the worker computing the gradient penalty exited with {-signal.SIGKILL}\n"
    )


def raise_runtime_error():
    raise RuntimeError("rmsprop failed")


@needs_openblas
@pytest.mark.parametrize("act, reason", [
    (kill_this_process, f"exited with {-signal.SIGKILL}"),
    (raise_runtime_error, "failed: RuntimeError: rmsprop failed"),
], ids=["killed", "raises"])
def test_penalty_worker_failing_in_its_half_of_rmsprop_exits_3_and_leaves_no_model(
    tmp_path, capsys, monkeypatch, act, reason
):
    err = train_with_a_failing_penalty_worker(tmp_path, capsys, monkeypatch, "rmsprop_step", act)
    assert err == f"error: the worker computing the gradient penalty {reason}\n"


def raise_in_the_generator_half():
    raise RuntimeError("generator half failed")


def is_the_toy_generators_upper_half(params, *rest):
    return params.size == TOY_GENERATOR_SIZE - TOY_GENERATOR_SIZE // 2


@needs_openblas
@pytest.mark.parametrize("act, reason", [
    (kill_this_process, f"exited with {-signal.SIGKILL}"),
    (raise_in_the_generator_half, "failed: RuntimeError: generator half failed"),
], ids=["killed", "raises"])
@pytest.mark.parametrize("owner, name, when", [
    (gan, "_generator_score", None),
    (nets, "rmsprop_step", is_the_toy_generators_upper_half),
], ids=["score", "rmsprop"])
def test_penalty_worker_failing_in_its_generator_half_exits_3_and_leaves_no_model(
    tmp_path, capsys, monkeypatch, act, reason, owner, name, when
):
    err = train_with_a_failing_penalty_worker(
        tmp_path, capsys, monkeypatch, name, act, owner, when
    )
    assert err == f"error: the worker computing the gradient penalty {reason}\n"


def test_train_output_does_not_depend_on_how_blas_threads_are_set(tmp_path):
    # reference nets: the critic trains in two processes once BLAS runs one thread
    reference = {"noise_dim": 64, "generator_hidden": [256, 128, 128, 128],
                 "critic_hidden": [256, 128, 128, 128], "batch_size": 32, "gen_steps": 3}
    outputs = []
    for name, threads in (("unset", None), ("one", "1")):
        (tmp_path / name).mkdir()
        config = write_toy_run(tmp_path / name, gan_overrides=reference)
        assert run(config, "ingest") == EXIT_OK
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        subprocess.run(
            [sys.executable, "-m", "synthflow.cli", "train", "--config", str(config)],
            env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        out = tmp_path / name / "run"
        lines = (out / cli.TRAIN_LOG_FILE).read_text().splitlines()
        log = [line.rsplit(",", 1)[0] for line in lines]  # wall_ms, the last column, goes
        outputs.append(((out / cli.MODEL_MATRIX_FILE).read_bytes(), log))
    assert outputs[1] == outputs[0]
