import ctypes
import json
import os
import signal
import tracemalloc
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthflow import gan, nets
from synthflow.dataio import (
    LABEL,
    NUMERIC,
    Column,
    DataError,
    DatasetMatrix,
    FeatureSchema,
    NormalizationStats,
    config_from_dict,
    denormalize,
)
from synthflow.gan import (
    CHECKPOINT_VERSION,
    GENERATE_BLOCK_ROWS,
    GanConfig,
    GanModel,
    TrainingDiverged,
    build_model,
    critic_loss,
    generate,
    generator_loss,
    interpolate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from synthflow.worker import blas_threads, set_blas_threads

from helpers import (
    act_in_the_worker,
    config_for,
    constant_dataset,
    count_forks,
    fd_param_grad,
    leaves_nothing_open,
    mlp,
    nan_penalty_input,
    needs_openblas,
    rel_err,
    toy_attack_dataset,
)


def scalar_linear_critic(weights):
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    return mlp((w, np.zeros(1)))


def tiny_model(feature_count=1, seed=0, **cfg_overrides):
    cfg = GanConfig.small(**cfg_overrides)
    return build_model(cfg, feature_count, np.random.default_rng(seed))


# ------------------------------------------------------------- interpolation

def test_interpolation_endpoints():
    real = np.array([[1.0, 2.0]])
    fake = np.array([[5.0, 6.0]])
    assert np.array_equal(interpolate(real, fake, np.array([1.0])), real)
    assert np.array_equal(interpolate(real, fake, np.array([0.0])), fake)


def test_interpolation_hand_case():
    x_hat = interpolate(
        np.array([[0.0, 0.0]]), np.array([[2.0, 2.0]]), np.array([0.25])
    )
    assert x_hat.tolist() == [[1.5, 1.5]]


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 100_000), rows=st.integers(1, 8), cols=st.integers(1, 5))
def test_interpolation_stays_on_segment(seed, rows, cols):
    rng = np.random.default_rng(seed)
    real = rng.normal(size=(rows, cols))
    fake = rng.normal(size=(rows, cols))
    x_hat = interpolate(real, fake, rng.uniform(0.0, 1.0, size=rows))
    lo = np.minimum(real, fake)
    hi = np.maximum(real, fake)
    assert (x_hat >= lo - 1e-12).all() and (x_hat <= hi + 1e-12).all()


# --------------------------------------------------------------- critic loss

def make_model_with_critic(critic, noise_dim=2):
    generator = nets.build_mlp(
        [noise_dim, 4, critic.layers[0].in_dim], np.random.default_rng(0)
    )
    return GanModel(generator, critic, config_for(generator, critic))


def test_critic_loss_vanishes_for_unit_norm_critic_on_equal_batches():
    model = make_model_with_critic(scalar_linear_critic([[0.6, 0.8]]))
    batch = np.array([[0.1, 0.2], [0.3, 0.4]])
    x_hat = interpolate(batch, batch, np.array([0.5, 0.5]))
    out = critic_loss(model, batch, batch, x_hat)
    assert out.loss == 0.0
    assert out.fake_term == out.real_term
    assert out.penalty_term == 0.0


def test_critic_loss_lambda_zero_is_wasserstein_surrogate():
    critic = scalar_linear_critic([[3.0, -1.0]])
    generator = nets.build_mlp([2, 4, 2], np.random.default_rng(0))
    model = GanModel(generator, critic, config_for(generator, critic, gp_lambda=0.0))
    rng = np.random.default_rng(8)
    real = rng.normal(size=(6, 2))
    fake = rng.normal(size=(6, 2))
    x_hat = interpolate(real, fake, rng.uniform(0.0, 1.0, 6))
    out = critic_loss(model, real, fake, x_hat)
    closed_form = (fake @ np.array([3.0, -1.0])).mean() - (
        real @ np.array([3.0, -1.0])
    ).mean()
    assert out.penalty_term == 0.0
    assert abs(out.loss - closed_form) < 1e-12


def test_critic_loss_linear_hand_case():
    model = make_model_with_critic(scalar_linear_critic([[2.0]]))
    real = np.array([[1.0]])
    fake = np.array([[0.0]])
    x_hat = interpolate(real, fake, np.array([0.3]))
    out = critic_loss(model, real, fake, x_hat)
    assert out.loss == 8.0
    assert (out.fake_term, out.real_term, out.penalty_term) == (0.0, 2.0, 10.0)
    assert out.loss == out.fake_term - out.real_term + out.penalty_term


def margin_through(net, x):
    _, cache = nets.mlp_forward(net, x)
    return min(float(np.abs(z).min()) for z in cache.preacts)


def test_critic_loss_gradient_matches_finite_differences():
    cfg = GanConfig.small(noise_dim=2, generator_hidden=(4,), critic_hidden=(4, 4))
    seed = 42
    while True:  # keep all pre-activations clear of ReLU kinks for the oracle
        rng = np.random.default_rng(seed)
        model = build_model(cfg, 3, rng)
        real = rng.normal(size=(4, 3))
        fake = rng.normal(size=(4, 3))
        x_hat = interpolate(real, fake, rng.uniform(0.0, 1.0, size=4))
        batches = np.vstack([real, fake, x_hat])
        if margin_through(model.critic, batches) >= 1e-3:
            break
        seed += 1
    analytic = critic_loss(model, real, fake, x_hat).grad

    def loss_value():
        return critic_loss(model, real, fake, x_hat).loss

    oracle = fd_param_grad(model.critic, loss_value)
    assert rel_err(analytic, oracle) < 1e-4


# ------------------------------------------------------------ generator loss

def test_generator_loss_is_negated_mean_score():
    # critic f(x) = x on 1-d fakes; generator is identity-ish via fixed nets
    critic = scalar_linear_critic([[1.0]])
    generator = mlp((np.array([[1.0]]), np.zeros(1)))
    model = GanModel(generator, critic, config_for(generator, critic))
    loss, _ = generator_loss(model, np.array([[2.0], [4.0]]))
    assert loss == -3.0


def test_generator_loss_zero_gradient_for_constant_critic():
    critic = mlp((np.zeros((1, 2)), np.array([5.0])))
    model = make_model_with_critic(critic)
    loss, grad = generator_loss(
        model, np.random.default_rng(0).uniform(-1, 1, (6, 2))
    )
    assert loss == -5.0
    assert np.all(grad == 0.0)


def test_generator_loss_gradient_matches_finite_differences():
    cfg = GanConfig.small(noise_dim=2, generator_hidden=(4, 4), critic_hidden=(4,))
    seed = 7
    while True:  # kinks in either network break the finite-difference oracle
        rng = np.random.default_rng(seed)
        model = build_model(cfg, 3, rng)
        noise = rng.uniform(-1, 1, size=(5, 2))
        fake, _ = nets.mlp_forward(model.generator, noise)
        if (
            margin_through(model.generator, noise) >= 1e-3
            and margin_through(model.critic, fake) >= 1e-3
        ):
            break
        seed += 1
    _, analytic = generator_loss(model, noise)
    oracle = fd_param_grad(
        model.generator, lambda: generator_loss(model, noise)[0]
    )
    assert rel_err(analytic, oracle) < 1e-4


def test_generator_update_leaves_critic_untouched():
    rng = np.random.default_rng(3)
    config = GanConfig.small(noise_dim=2)
    model = build_model(config, 2, rng)
    before = model.critic.vector.copy()
    _, grad = generator_loss(model, rng.uniform(-1, 1, (4, 2)))
    state = nets.rmsprop_state(model.generator.vector, config.lr, config.rho, config.epsilon)
    nets.rmsprop_step(model.generator.vector, grad, state)
    assert np.array_equal(model.critic.vector, before)


# -------------------------------------------------------------------- train

def test_train_zero_steps_returns_initialized_model():
    data = constant_dataset(n_rows=80)
    model, records = train(data, GanConfig.small(gen_steps=0, seed=1))
    assert records == []
    assert model.feature_count == 1


def test_train_is_seed_deterministic(tmp_path):
    data = toy_attack_dataset()
    cfg = GanConfig.small(gen_steps=8, seed=5)
    model_a, records_a = train(data, cfg)
    model_b, records_b = train(data, cfg)
    assert checkpoint_bytes(model_a, tmp_path / "a") == checkpoint_bytes(
        model_b, tmp_path / "b"
    )
    # the header above holds no parameter; the vectors are in the .npy files
    assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()
    assert len(records_a) == len(records_b) == cfg.gen_steps
    for ra, rb in zip(records_a, records_b):
        assert (ra.step, ra.critic_loss, ra.generator_loss) == (
            rb.step, rb.critic_loss, rb.generator_loss,
        )
        assert (ra.penalty_mean, ra.grad_norm_mean) == (rb.penalty_mean, rb.grad_norm_mean)


def test_train_converges_on_constant_target():
    # toy experiment: all-0.5 1-d data, small config
    data = constant_dataset(0.5, n_rows=500)
    model, records = train(data, GanConfig.small(seed=3))
    assert len(records) == 2000
    out = generate(model, 500, np.random.default_rng(5))
    assert abs(out.mean() - 0.5) <= 0.05


def test_train_divergence_aborts_with_step_and_model():
    data = constant_dataset(n_rows=80)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as excinfo:
            train(data, GanConfig.small(lr=1e200, gen_steps=50, seed=2))
    err = excinfo.value
    assert err.step >= 1
    assert isinstance(err.model, GanModel)
    assert np.isfinite(err.model.critic.vector).all()
    assert np.isfinite(err.model.generator.vector).all()


def test_train_requires_enough_rows():
    with pytest.raises(ValueError, match="batch_size"):
        train(constant_dataset(n_rows=10), GanConfig.small(batch_size=64))


def test_train_progress_sink_sees_every_record():
    data = constant_dataset(n_rows=80)
    seen = []
    _, records = train(data, GanConfig.small(gen_steps=5, seed=1), seen.append)
    assert [r.step for r in seen] == [1, 2, 3, 4, 5]
    assert seen == records


# ------------------------------------------------------ training on two cores

def uniform_dataset(n_rows, n_features, seed=0):
    schema = FeatureSchema(
        tuple(Column(f"f{j}", NUMERIC) for j in range(n_features)) + (Column("label", LABEL),)
    )
    stats = NormalizationStats(np.zeros(n_features), np.ones(n_features))
    features = np.random.default_rng(seed).uniform(size=(n_rows, n_features))
    return DatasetMatrix(features, ["x"] * n_rows, stats, schema)


def trained(model, records):
    """What a run produces but its wall-clock field: both parameter vectors'
    bytes and every record's values."""
    vectors = model.generator.vector.tobytes(), model.critic.vector.tobytes()
    return vectors, [astuple(r)[:-1] for r in records]


@pytest.fixture
def two_processes(monkeypatch):
    """Any critic trains in two processes: no size gate, one BLAS thread (the
    count the test started with comes back afterwards)."""
    if blas_threads() is None:
        pytest.skip("numpy's BLAS here is not a loaded OpenBLAS")
    monkeypatch.setattr(gan, "_PENALTY_WORKER_PARAMETERS", 0)
    set_blas_threads(1)


def train_alone(monkeypatch, data, config):
    """``train`` with the size gate above every critic: one process."""
    with monkeypatch.context() as patch:
        patch.setattr(gan, "_PENALTY_WORKER_PARAMETERS", 2**62)
        return train(data, config)


@pytest.mark.parametrize("n_features, overrides", [
    (1, {"batch_size": 2}),
    (3, {"critic_steps": 1}),
    (3, {"critic_steps": 5, "gp_lambda": 0.0}),
    (2, {"gen_steps": 0}),
    (78, {"batch_size": 32, "noise_dim": 16, "critic_hidden": (64, 64)}),
    # 86,273 critic parameters, an odd count: the two halves of RMSProp differ in length
    (78, {"batch_size": 32, "gen_steps": 2, "noise_dim": 64,
          "generator_hidden": (256, 128, 128, 128), "critic_hidden": (256, 128, 128, 128)}),
], ids=["1-feature-batch-2", "critic-steps-1", "gp-lambda-0", "gen-steps-0", "78-features",
        "reference-nets"])
def test_two_process_training_matches_one_process(
    monkeypatch, two_processes, n_features, overrides
):
    data = uniform_dataset(120, n_features)
    config = GanConfig.small(**{"gen_steps": 6, "seed": 4, **overrides})
    counted = count_forks(monkeypatch)
    with leaves_nothing_open():
        both = trained(*train(data, config))
    assert len(counted) == 1
    assert both == trained(*train_alone(monkeypatch, data, config))
    assert len(counted) == 1


def reference_train(data, config):
    """The plain training loop: each critic update draws its batch, then
    computes and applies its update; then one generator update. Returns
    what :func:`trained` does."""
    rng = np.random.default_rng(config.seed)
    model = build_model(config, data.features.shape[1], rng)
    critic_state, gen_state = (
        nets.rmsprop_state(net.vector, config.lr, config.rho, config.epsilon)
        for net in (model.critic, model.generator)
    )
    records = []
    for step in range(1, config.gen_steps + 1):
        updates = []
        for _ in range(config.critic_steps):
            idx = rng.integers(0, data.n_rows, size=config.batch_size)
            real = data.features[idx]
            noise = rng.uniform(-1.0, 1.0, size=(config.batch_size, config.noise_dim))
            fake, _ = nets.mlp_forward(model.generator, noise)
            eps = rng.uniform(0.0, 1.0, size=config.batch_size)
            cl = critic_loss(model, real, fake, interpolate(real, fake, eps))
            nets.rmsprop_step(model.critic.vector, cl.grad, critic_state)
            updates.append(cl)
        noise = rng.uniform(-1.0, 1.0, size=(config.batch_size, config.noise_dim))
        gloss, ggrad = generator_loss(model, noise)
        nets.rmsprop_step(model.generator.vector, ggrad, gen_state)
        records.append((
            step,
            sum(cl.loss for cl in updates) / config.critic_steps,
            gloss,
            sum(cl.penalty_term for cl in updates) / config.critic_steps,
            sum(cl.grad_norm_mean for cl in updates) / config.critic_steps,
        ))
    return (model.generator.vector.tobytes(), model.critic.vector.tobytes()), records


@pytest.mark.parametrize("processes", [1, 2])
def test_training_matches_the_plain_reference_loop(request, monkeypatch, processes):
    if processes == 2:
        request.getfixturevalue("two_processes")
    data = uniform_dataset(100, 5)
    config = GanConfig.small(gen_steps=3, seed=9)
    counted = count_forks(monkeypatch)
    with leaves_nothing_open():
        got = trained(*train(data, config))
    assert len(counted) == processes - 1
    assert got == reference_train(data, config)


def test_critics_below_the_size_gate_train_in_one_process(monkeypatch, two_processes):
    data = uniform_dataset(80, 2)
    config = GanConfig.small(gen_steps=2)
    size = nets.parameter_count(nets.layer_shapes([2, *config.critic_hidden, 1]))
    counted = count_forks(monkeypatch)
    for gate, forks in ((size + 1, 0), (size, 1)):
        monkeypatch.setattr(gan, "_PENALTY_WORKER_PARAMETERS", gate)
        train(data, config)
        assert len(counted) == forks


def no_cdll(name, *args, **kwargs):  # no library can be loaded
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("unpinned", [
    lambda patch: patch.setattr(gan, "blas_threads", lambda: 2),
    lambda patch: patch.setattr(gan, "blas_threads", lambda: None),
    lambda patch: patch.setattr(ctypes, "CDLL", lambda lib: object()),
    lambda patch: patch.setattr(ctypes, "CDLL", no_cdll),
    lambda patch: patch.delattr(os, "fork"),
], ids=["two-blas-threads", "count-unread", "no-mallopt-cdll", "no-cdll", "no-fork"])
def test_training_stays_in_one_process_unless_blas_runs_one_thread(
    monkeypatch, two_processes, unpinned
):
    data = uniform_dataset(80, 3)
    config = GanConfig.small(gen_steps=3)
    want = trained(*train_alone(monkeypatch, data, config))
    counted = count_forks(monkeypatch)
    unpinned(monkeypatch)
    assert trained(*train(data, config)) == want
    assert counted == []


@needs_openblas
def test_blas_threads_reads_the_count_set():
    for count in (1, 2, 1):
        set_blas_threads(count)
        assert blas_threads() == count


def test_blas_threads_unreadable_without_a_loadable_library(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    assert blas_threads() is None
    set_blas_threads(1)  # nothing to set, and no error


def test_non_finite_penalty_in_the_worker_diverges_as_one_process(
    monkeypatch, two_processes, tmp_path
):
    data = uniform_dataset(80, 3)
    config = GanConfig.small(gen_steps=5, seed=2)
    counted = count_forks(monkeypatch)
    runs = []
    for gate in (2**62, 0):  # one process, then two
        with monkeypatch.context() as patch:
            patch.setattr(gan, "_PENALTY_WORKER_PARAMETERS", gate)
            nan_penalty_input(patch, call=13)  # the third update of step 3
            with leaves_nothing_open():
                with pytest.raises(TrainingDiverged) as caught:
                    train(data, config)
        runs.append(caught.value)
    assert len(counted) == 1
    alone, both = runs
    assert both.step == alone.step == 3
    assert str(both) == str(alone)
    assert "forward pass produced non-finite values" in str(both)
    assert trained(both.model, both.records) == trained(alone.model, alone.records)
    # the worker is gone; the model it shared the critic with still works
    save_checkpoint(both.model, tmp_path / "model.sgmodel")
    assert load_checkpoint(tmp_path / "model.sgmodel").critic.vector.tobytes() == (
        alone.model.critic.vector.tobytes()
    )
    rng = np.random.default_rng(0)
    assert generate(both.model, 5, rng).shape == (5, 3)


def set_critic_gradient_entry(monkeypatch, name, call, index, value):
    """Set entry ``index`` of the gradient vector returned by the ``call``-th
    call of ``nets.<name>`` on a critic, in whichever process makes it."""
    calls, fn = [], getattr(nets, name)

    def patched(net, *args):
        out = fn(net, *args)
        if net.out_dim == 1:
            calls.append(1)
            if len(calls) == call:
                (out[1] if isinstance(out, tuple) else out)[index] = value
        return out

    monkeypatch.setattr(nets, name, patched)


BIG = 0.75 * np.finfo(float).max


@pytest.mark.parametrize("entry, penalty_value, score_value", [
    (lambda size: 0, np.inf, None),
    (lambda size: size - 1, np.inf, None),
    (lambda size: size // 2, BIG, BIG),  # each finite, their sum not
], ids=["inf-first-entry", "inf-last-entry", "sum-overflows"])
def test_non_finite_critic_gradient_in_either_half_diverges_as_one_process(
    monkeypatch, two_processes, entry, penalty_value, score_value
):
    data = uniform_dataset(80, 3)
    config = GanConfig.small(gen_steps=5, seed=2)
    size = nets.parameter_count(nets.layer_shapes([3, *config.critic_hidden, 1]))
    assert size % 2  # the halves differ in length
    index = entry(size)
    counted = count_forks(monkeypatch)
    runs = []
    for gate in (2**62, 0):  # one process, then two
        with monkeypatch.context() as patch:
            patch.setattr(gan, "_PENALTY_WORKER_PARAMETERS", gate)
            # the third update of step 3; its fake batch's score gradient is
            # the first of its two critic parameter gradients
            set_critic_gradient_entry(patch, "penalty_param_grad", 13, index, penalty_value)
            if score_value is not None:
                set_critic_gradient_entry(patch, "mlp_param_grad", 25, index, score_value)
            with leaves_nothing_open(), np.errstate(over="ignore"):
                with pytest.raises(TrainingDiverged) as caught:
                    train(data, config)
        runs.append(caught.value)
    assert len(counted) == 1
    alone, both = runs
    assert both.step == alone.step == 3
    assert str(both) == str(alone)
    assert str(both).endswith(f"non-finite gradient for parameter {index}")
    assert trained(both.model, both.records) == trained(alone.model, alone.records)


def test_non_finite_batch_drawn_ahead_diverges_after_the_update_as_one_process(
    monkeypatch, two_processes
):
    data = uniform_dataset(80, 3)
    config = GanConfig.small(gen_steps=5, seed=2)
    calls, forward = [], nets.mlp_forward

    def nan_generator_forward(net, x):
        if net.out_dim != 1:  # the generator's
            calls.append(1)
            if len(calls) == 14:  # the batch of step 3's second critic update
                x = np.full_like(x, np.nan)
        return forward(net, x)

    runs = []
    for gate in (2**62, 0):  # one process, then two
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(gan, "_PENALTY_WORKER_PARAMETERS", gate)
            patch.setattr(nets, "mlp_forward", nan_generator_forward)
            with leaves_nothing_open():
                with pytest.raises(TrainingDiverged) as caught:
                    train(data, config)
        runs.append(caught.value)
    alone, both = runs
    assert both.step == alone.step == 3
    assert str(both) == str(alone)
    assert "forward pass produced non-finite values" in str(both)
    # step 3's first critic update was applied before the failed draw
    assert trained(both.model, both.records) == trained(alone.model, alone.records)


def raise_runtime_error():
    raise RuntimeError("penalty failed")


worker_failures = pytest.mark.parametrize("act, reason", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"exited with {-signal.SIGKILL}"),
    (raise_runtime_error, "failed: RuntimeError: penalty failed"),
], ids=["killed", "raises"])


@worker_failures
def test_failed_penalty_worker_raises_an_oserror_naming_it(
    monkeypatch, two_processes, act, reason
):
    act_in_the_worker(monkeypatch, nets, "penalty_param_grad", act)
    with leaves_nothing_open():
        with pytest.raises(OSError, match=f"the worker computing the gradient penalty {reason}"):
            train(uniform_dataset(80, 3), GanConfig.small(gen_steps=3))


@worker_failures
def test_worker_failing_in_its_half_of_rmsprop_raises_an_oserror_naming_it(
    monkeypatch, two_processes, act, reason
):
    act_in_the_worker(monkeypatch, nets, "rmsprop_step", act)
    with leaves_nothing_open():
        with pytest.raises(OSError, match=f"the worker computing the gradient penalty {reason}"):
            train(uniform_dataset(80, 3), GanConfig.small(gen_steps=3))


def test_interrupted_training_reaps_the_penalty_worker(monkeypatch, two_processes):
    parent, param_grad, calls = os.getpid(), nets.mlp_param_grad, []

    def interrupted_on_the_third_call(*args):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt
        return param_grad(*args)

    monkeypatch.setattr(nets, "mlp_param_grad", interrupted_on_the_third_call)
    counted = count_forks(monkeypatch)
    with leaves_nothing_open():
        # the traceback is held while the check runs
        with pytest.raises(KeyboardInterrupt) as caught:
            train(uniform_dataset(80, 3), GanConfig.small(gen_steps=3))
    assert caught.traceback and len(counted) == 1


# ----------------------------------------------------------------- generate

def test_generate_clamps_to_unit_range():
    model = tiny_model()
    out = generate(model, 32, np.random.default_rng(0))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_generate_denormalizes_with_stats():
    generator = mlp((np.zeros((1, 1)), np.array([0.5])))
    critic = scalar_linear_critic([[1.0]])
    model = GanModel(generator, critic, config_for(generator, critic))
    stats = NormalizationStats(np.array([0.0]), np.array([10.0]))
    out = generate(model, 3, np.random.default_rng(0), stats=stats)
    assert out.tolist() == [[5.0], [5.0], [5.0]]


def test_generate_is_deterministic_given_seed():
    model = tiny_model()
    a = generate(model, 4, np.random.default_rng(11))
    b = generate(model, 4, np.random.default_rng(11))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        generate(model, 0, np.random.default_rng(0))


@pytest.fixture(scope="module")
def reference_model():
    """Reference-size networks (default config) on CICIDS-wide rows."""
    return build_model(GanConfig(), 78, np.random.default_rng(3))


B = GENERATE_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, 15, B - 1, B, B + 1, B + 15, 2 * B + 1, 8000])
def test_generate_matches_one_forward_over_all_rows(reference_model, n):
    stats = NormalizationStats(np.linspace(-5.0, 0.0, 78), np.linspace(1.0, 1e6, 78))
    noise = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 64))
    oracle = denormalize(
        np.clip(nets.mlp_output(reference_model.generator, noise), 0.0, 1.0), stats
    )
    out = generate(reference_model, n, np.random.default_rng(n), stats=stats)
    assert out.tobytes() == oracle.tobytes()


def test_generate_memory_is_bounded_by_the_output(reference_model):
    n = 50_000
    tracemalloc.start()
    try:
        out = generate(reference_model, n, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 16 * 2**20


# -------------------------------------------------------------- checkpoints

def checkpoint_bytes(model, path):
    save_checkpoint(model, path)
    return path.read_bytes()


def test_checkpoint_round_trip_is_exact(tmp_path):
    model = tiny_model(feature_count=3, seed=9)
    path = tmp_path / "model.sgmodel"
    payload = checkpoint_bytes(model, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.generator.vector, model.generator.vector)
    assert np.array_equal(loaded.critic.vector, model.critic.vector)
    assert loaded.config == model.config
    assert checkpoint_bytes(loaded, tmp_path / "again.sgmodel") == payload
    assert (tmp_path / "again.npy").read_bytes() == (tmp_path / "model.npy").read_bytes()
    assert set(json.loads(payload)) == {"format", "version", "config", "feature_count"}


@pytest.mark.parametrize("noise_dim, generator_hidden, critic_hidden, feature_count", [
    (3, (), (), 5),
    (2, (7,), (4, 3, 6, 2), 1),
    (9, (5, 4, 3, 2), (6,), 4),
])
def test_checkpoint_round_trip_over_layouts(
    tmp_path, noise_dim, generator_hidden, critic_hidden, feature_count
):
    cfg = GanConfig.small(
        noise_dim=noise_dim, generator_hidden=generator_hidden, critic_hidden=critic_hidden
    )
    model = build_model(cfg, feature_count, np.random.default_rng(4))
    save_checkpoint(model, tmp_path / "model.sgmodel")
    loaded = load_checkpoint(tmp_path / "model.sgmodel")
    assert loaded.config == cfg and loaded.feature_count == feature_count
    for net, back in [(model.generator, loaded.generator), (model.critic, loaded.critic)]:
        assert net.shapes == back.shapes
        assert net.vector.tobytes() == back.vector.tobytes()


def test_checkpoint_vector_is_generator_then_critic_loaded_as_views(tmp_path):
    model = tiny_model(feature_count=3, seed=9)
    path = tmp_path / "model.sgmodel"
    save_checkpoint(model, path)
    stored = np.load(tmp_path / "model.npy")
    assert stored.tobytes() == model.generator.vector.tobytes() + model.critic.vector.tobytes()
    loaded = load_checkpoint(path)
    array = loaded.generator.vector.base
    assert array.shape == stored.shape
    for net in (loaded.generator, loaded.critic):
        assert np.shares_memory(net.vector, array)
        assert all(np.shares_memory(layer.weights, net.vector) for layer in net.layers)
        assert all(np.shares_memory(layer.bias, net.vector) for layer in net.layers)


def test_checkpoint_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.sgmodel"
    payload = checkpoint_bytes(tiny_model(), path)
    path.write_bytes(payload[: len(payload) // 2])
    with pytest.raises(DataError, match="truncated|corrupt"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_rejected(tmp_path):
    path = tmp_path / "model.sgmodel"
    payload = checkpoint_bytes(tiny_model(), path)
    current = f'"version": {CHECKPOINT_VERSION}'.encode()
    path.write_bytes(payload.replace(current, b'"version": 99'))
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)


def test_checkpoint_wrong_format_rejected(tmp_path):
    path = tmp_path / "model.sgmodel"
    path.write_bytes(b'{"format": "something-else"}')
    with pytest.raises(DataError, match="not a model checkpoint"):
        load_checkpoint(path)
    doc = json.loads(checkpoint_bytes(tiny_model(), path))
    doc["feature_count"] = 0
    path.write_bytes(json.dumps(doc).encode())
    with pytest.raises(DataError, match="feature_count"):
        load_checkpoint(path)


@pytest.mark.parametrize("config", [
    GanConfig.small(noise_dim=2, generator_hidden=(32,)),
    GanConfig.small(noise_dim=2, critic_hidden=(32, 16)),
    GanConfig.small(noise_dim=3),
])
def test_model_rejects_networks_its_config_does_not_describe(config):
    model = build_model(GanConfig.small(noise_dim=2), 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="not the ones this config describes for 3 features"):
        GanModel(model.generator, model.critic, config)


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError, match="gp_lambda"):
        GanConfig(gp_lambda=-1.0)
    with pytest.raises(ValueError, match="batch_size"):
        GanConfig(batch_size=1)
    with pytest.raises(ValueError, match="critic_steps"):
        GanConfig(critic_steps=0)


def test_config_dict_round_trip():
    cfg = GanConfig.small(seed=42)
    assert config_from_dict(GanConfig, asdict(cfg)) == cfg
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict(GanConfig, {"nope": 1})


def test_default_config_matches_reference_hyperparameters():
    cfg = GanConfig()
    assert cfg.gp_lambda == 10.0
    assert (cfg.lr, cfg.rho, cfg.epsilon) == (0.001, 0.9, 1e-6)
    assert cfg.generator_hidden == (256, 128, 128, 128)
    assert cfg.critic_hidden == (256, 128, 128, 128)
