"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 8-10 need the
external datasets and are skipped unless SYNTHFLOW_NSLKDD_CSV /
SYNTHFLOW_CICIDS_CSV point at the raw CSV files.
"""

import functools
import json
import os
import time

import numpy as np
import pytest

from synthflow import cli, nets
from synthflow.dataio import load_dataset
from synthflow.evaluator import (
    EvalConfig,
    LabeledSet,
    evaluate,
    gbm_fit,
    gbm_predict,
    roc_auc,
)
from synthflow.gan import GanConfig, GanModel, critic_loss, generate, interpolate, train
from synthflow.nets import mlp_forward, mlp_input_grad, mlp_param_grad, penalty_param_grad

from helpers import (
    config_for,
    fd_input_grad,
    fd_param_grad,
    mlp,
    rel_err,
    toy_attack_dataset,
    write_toy_run,
)
from test_evaluator import brute_force_split, pairwise_auc, search_one

NSLKDD_ENV = "SYNTHFLOW_NSLKDD_CSV"
CICIDS_ENV = "SYNTHFLOW_CICIDS_CSV"

needs_nslkdd = pytest.mark.skipif(
    NSLKDD_ENV not in os.environ, reason=f"set {NSLKDD_ENV} to run"
)
needs_cicids = pytest.mark.skipif(
    CICIDS_ENV not in os.environ, reason=f"set {CICIDS_ENV} to run"
)


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {description}")
                raise
            print(f"[PASS] criterion {num}: {description}")

        return wrapper

    return decorate


def random_mlp(rng, scalar_output=False):
    """Random net with width <= 8 and depth <= 4, clear of ReLU kinks."""
    while True:
        depth = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, 9)) for _ in range(depth)]
        sizes.append(1 if scalar_output else int(rng.integers(1, 9)))
        in_dim = int(rng.integers(1, 9))
        net = nets.build_mlp([in_dim, *sizes], rng)
        x = rng.normal(size=(int(rng.integers(1, 6)), in_dim))
        _, cache = mlp_forward(net, x)
        if min(float(np.abs(z).min()) for z in cache.preacts) >= 1e-3:
            return net, x


@criterion(1, "parameter and input gradients match finite differences (1e-5)")
def test_c1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(20_001)
    for _ in range(20):
        net, x = random_mlp(rng)
        weighting = rng.normal(size=(x.shape[0], net.out_dim))
        _, cache = mlp_forward(net, x)
        analytic = mlp_param_grad(net, cache, weighting)
        oracle = fd_param_grad(
            net, lambda: float((mlp_forward(net, x)[0] * weighting).sum())
        )
        assert rel_err(analytic, oracle) < 1e-5
    for _ in range(20):
        net, x = random_mlp(rng, scalar_output=True)
        assert rel_err(mlp_input_grad(net, x), fd_input_grad(net, x)) < 1e-5
    assert time.perf_counter() - start < 10.0


@criterion(2, "penalty double backprop matches finite differences (1e-4)")
def test_c2_double_backprop():
    critic = mlp((np.array([[2.0]]), np.zeros(1)))
    penalty, grads = penalty_param_grad(critic, np.array([[0.4]]), 10.0)
    assert penalty == 10.0
    assert grads[0] == np.array([[20.0]])

    rng = np.random.default_rng(20_002)
    for _ in range(20):
        net, x_hat = random_mlp(rng, scalar_output=True)
        _, analytic = penalty_param_grad(net, x_hat, 10.0)
        oracle = fd_param_grad(net, lambda: penalty_param_grad(net, x_hat, 10.0)[0])
        assert rel_err(analytic, oracle) < 1e-4


@criterion(3, "critic loss assembles its three terms exactly; hand case = 8")
def test_c3_loss_assembly():
    critic = mlp((np.array([[2.0]]), np.zeros(1)))
    generator = nets.build_mlp([2, 4, 1], np.random.default_rng(0))
    model = GanModel(generator, critic, config_for(generator, critic))
    real = np.array([[1.0]])
    fake = np.array([[0.0]])
    x_hat = interpolate(real, fake, np.array([0.7]))
    out = critic_loss(model, real, fake, x_hat)
    assert out.loss == 8.0
    assert out.loss == out.fake_term - out.real_term + out.penalty_term

    rng = np.random.default_rng(20_003)
    for _ in range(10):
        net, _ = random_mlp(rng, scalar_output=True)
        d = net.layers[0].in_dim
        generator = nets.build_mlp([2, 4, d], rng)
        m = GanModel(generator, net, config_for(generator, net))
        real = rng.normal(size=(5, d))
        fake = rng.normal(size=(5, d))
        out = critic_loss(m, real, fake, interpolate(real, fake, rng.uniform(0, 1, 5)))
        decomposed = out.fake_term - out.real_term + out.penalty_term
        assert abs(out.loss - decomposed) <= 1e-12 * max(1.0, abs(out.loss))


@criterion(4, "toy GAN matches per-feature means within 0.05 and rmse_means <= 0.1")
def test_c4_toy_convergence():
    start = time.perf_counter()
    data = toy_attack_dataset()
    model, records = train(data, GanConfig.small(seed=7))
    assert len(records) == 2000  # well under the 10k step budget
    synth = generate(model, data.n_rows, np.random.default_rng(123))
    gaps = np.abs(synth.mean(axis=0) - data.features.mean(axis=0))
    assert (gaps <= 0.05).all(), f"mean gaps {gaps}"
    from synthflow.evaluator import rmse_quality

    rmse_means, _ = rmse_quality(data.features, synth)
    assert rmse_means <= 0.1
    assert time.perf_counter() - start < 300.0


@criterion(5, "evaluator oracles: exact AUC, exact split search, XOR >= 0.95")
def test_c5_evaluator_oracles():
    rng = np.random.default_rng(20_005)
    for _ in range(100):
        real = rng.integers(0, 8, size=int(rng.integers(1, 15))) / 4.0
        synth = rng.integers(0, 8, size=int(rng.integers(1, 15))) / 4.0
        auc, _ = roc_auc(real, synth)
        assert auc == pairwise_auc(real.tolist(), synth.tolist())

    for _ in range(300):
        n = int(rng.integers(2, 33))
        values = rng.integers(-16, 17, size=n) / 2.0
        residuals = rng.integers(-16, 17, size=n) / 16.0
        hessians = rng.choice([0.0625, 0.125, 0.1875, 0.25], size=n)
        assert search_one(values, residuals, hessians) == brute_force_split(
            values, residuals, hessians
        )

    xor_rng = np.random.default_rng(42)
    x = xor_rng.uniform(0.0, 1.0, size=(200, 2))
    y = ((x[:, 0] > 0.5) ^ (x[:, 1] > 0.5)).astype(int)
    model = gbm_fit(LabeledSet(x, y), EvalConfig(n_trees=50, max_depth=2))
    accuracy = ((gbm_predict(model, x) > 0.5).astype(int) == y).mean()
    assert accuracy >= 0.95


@criterion(6, "controls: copy AUC in [0.4, 0.6]; shifted AUC >= 0.99")
def test_c6_controls():
    data = toy_attack_dataset()
    copy_report = evaluate(
        data, data.features.copy(), EvalConfig(), np.random.default_rng(11)
    )
    assert 0.4 <= copy_report.auc <= 0.6, f"copy AUC {copy_report.auc}"

    shifted = np.clip(data.features + 10.0, 0.0, 1.0)
    shift_report = evaluate(data, shifted, EvalConfig(), np.random.default_rng(11))
    assert shift_report.auc >= 0.99, f"shifted AUC {shift_report.auc}"


def _run_pipeline(config_path):
    for verb in ("ingest", "train"):
        assert cli.main([verb, "--config", str(config_path)]) == 0
    assert cli.main(["generate", "--count", "50", "--config", str(config_path)]) == 0
    for verb in ("evaluate", "report"):
        assert cli.main([verb, "--config", str(config_path)]) == 0


def _strip_wall_ms(log_text):
    lines = log_text.strip().splitlines()
    assert lines[0].endswith(",wall_ms")
    return [line.rsplit(",", 1)[0] for line in lines]


@criterion(7, "identical seed and config reproduce byte-identical artifacts")
def test_c7_determinism(tmp_path):
    config = write_toy_run(tmp_path)
    _run_pipeline(config)
    out = tmp_path / "run"
    deterministic = [
        cli.DATASET_FILE, cli.SUMMARY_FILE, cli.MODEL_FILE, cli.SYNTH_FILE,
        cli.REPORT_JSON_FILE, cli.IMPORTANCE_FILE, cli.REPORT_MD_FILE,
    ] + [p.name for p in out.glob("hist_*.csv")]
    first = {name: (out / name).read_bytes() for name in deterministic}
    first_log = _strip_wall_ms((out / cli.TRAIN_LOG_FILE).read_text())
    first_manifests = {}
    for p in out.glob("*_manifest.json"):
        doc = json.loads(p.read_text())
        doc.pop("timings_ms")
        first_manifests[p.name] = doc

    _run_pipeline(config)
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload, f"{name} differs"
    assert _strip_wall_ms((out / cli.TRAIN_LOG_FILE).read_text()) == first_log
    for name, doc in first_manifests.items():
        again = json.loads((out / name).read_text())
        again.pop("timings_ms")
        assert again == doc, f"{name} differs beyond timings"


# ----------------------------------------------------------- dataset-gated

def _external_run(tmp_path, dataset, csv_env, label, gan_overrides=None):
    config = {
        "dataset": dataset,
        "csv": [os.environ[csv_env]],
        "labels": [label],
        "seed": 7,
        "out": str(tmp_path / "run"),
        "gan": gan_overrides or {},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@needs_cicids
@needs_nslkdd
@criterion(8, "ingest row counts: GoldenEye > 10k; smurf ~2k with warning")
def test_c8_ingest_counts(tmp_path):
    cicids = _external_run(
        tmp_path / "cicids", "cicids2017", CICIDS_ENV, "DoS GoldenEye"
    )
    assert cli.main(["ingest", "--config", str(cicids)]) == 0
    rows = load_dataset(tmp_path / "cicids" / "run" / cli.DATASET_FILE).n_rows
    assert rows > 10_000, f"GoldenEye rows {rows}"

    nsl = _external_run(tmp_path / "nsl", "nsl-kdd", NSLKDD_ENV, "smurf")
    assert cli.main(["ingest", "--config", str(nsl)]) == 0
    smurf = load_dataset(tmp_path / "nsl" / "run" / cli.DATASET_FILE).n_rows
    assert 1800 <= smurf <= 2200, f"smurf rows {smurf}"
    summary = (tmp_path / "nsl" / "run" / cli.SUMMARY_FILE).read_text()
    assert "warning" in summary


@pytest.fixture(scope="module")
def cicids_full_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cicids_full")
    config = _external_run(tmp, "cicids2017", CICIDS_ENV, "DoS GoldenEye")
    for verb in ("ingest", "train", "evaluate"):
        assert cli.main([verb, "--config", str(config)]) == 0
    return tmp / "run"


@needs_cicids
@criterion(9, "full GoldenEye run: AUC in [0.60, 0.90], rmse_means <= 0.20")
def test_c9_goldeneye_quality(cicids_full_run):
    report = json.loads((cicids_full_run / cli.REPORT_JSON_FILE).read_text())
    assert 0.60 <= report["auc"] <= 0.90, f"AUC {report['auc']}"
    assert report["rmse_means"] <= 0.20, f"rmse_means {report['rmse_means']}"


@needs_cicids
@criterion(10, "smurf importances rank dst_host_count top-5; GoldenEye histograms")
@needs_nslkdd
def test_c10_importances_and_histograms(tmp_path, cicids_full_run):
    for feature in ("Packet Length Mean", "Flow Bytes/s", "Flow Duration", "Fwd IAT Mean"):
        assert (cicids_full_run / cli.histogram_file_name(feature)).exists()

    config = _external_run(tmp_path, "nsl-kdd", NSLKDD_ENV, "smurf")
    for verb in ("ingest", "train", "evaluate"):
        assert cli.main([verb, "--config", str(config)]) == 0
    report = json.loads((tmp_path / "run" / cli.REPORT_JSON_FILE).read_text())
    top5 = sorted(report["importances"], key=report["importances"].get, reverse=True)[:5]
    assert "dst_host_count" in top5, f"top-5 importances {top5}"
