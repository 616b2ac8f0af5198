"""Gradient-penalty Wasserstein training for tabular flow features.

The critic loss is

    mean f(fake) - mean f(real) + weight * mean (||grad_x f(x_hat)|| - 1)^2

with x_hat drawn uniformly on segments between paired real and fake rows.
The generator minimizes -mean f(G(z)) with the critic frozen. Both networks
are ReLU MLPs whose layers follow from the config and the data width alone
(:func:`_layer_sizes`, counted by :func:`parameter_count`), trained with
RMSProp, alternating several critic updates per generator update. Everything
is driven by one seeded generator so runs are bit reproducible. One loop in
:func:`train` runs every critic update, in one process or two: a large
critic shares each update with a forked worker, with the same bits
(:func:`_penalty_worker`). The worker computes the x_hat branch while this
process draws the next batch and computes the score terms, and each process
then applies half of the RMSProp update.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .dataio import (
    DataError,
    DatasetMatrix,
    NormalizationStats,
    check_count,
    check_finite,
    config_from_dict,
    denormalize,
    load_cache_matrix,
    matrix_path,
    read_json,
    save_cache,
    write_csv,
)
from . import nets
from .nets import MlpNetwork, NonFiniteError
from .worker import blas_threads, forked

CHECKPOINT_FORMAT = "sgmodel"
CHECKPOINT_VERSION = 3

# Rows per generator forward in :func:`generate`: the activations held at
# once are bounded by the block, not by the number of rows asked for.
GENERATE_BLOCK_ROWS = 1024

# Critic parameters from which training shares each critic update with a
# forked worker (:func:`_penalty_worker`). Each update then pays two pipe
# round trips. Median step time of 60-step trains on 2500 x 78 rows, one
# process against two (9 alternating runs each, each run a fresh process
# with `train`'s heap setting and BLAS on one thread, on a shared 2-core
# Xeon VM), critic hidden sizes with GanConfig.small's 32 x 32 generator,
# or the reference nets, at batch 32 / batch 64, with the pairs of runs
# that two processes won:
#   32 x 32 (3,617 parameters)  2.19 -> 2.30 ms (4/9) / 3.05 -> 2.85 ms (5/9)
#   48 x 48 (6,193)             2.75 -> 2.40 (5/9) / 3.75 -> 4.16 (7/9)
#   64 x 64 (9,281)             3.19 -> 3.25 (4/9) / 4.59 -> 5.11 (7/9)
#   80 x 80 (12,881)            3.80 -> 2.97 (7/9) / 8.87 -> 6.48 (6/9)
#   96 x 96 (16,993)            4.40 -> 3.35 (7/9) / 8.33 -> 7.16 (6/9)
#   128 x 128 (26,753)          6.17 -> 5.48 (7/9) / 13.57 -> 9.78 (9/9)
#   reference (86,273)          20.51 -> 15.24 (9/9) / 37.42 -> 29.15 (9/9)
# Below the gate the medians go both ways; from 80 x 80 up both batch sizes
# gain.
_PENALTY_WORKER_PARAMETERS = 12_000


class TrainingDiverged(RuntimeError):
    """Raised when training hits a non-finite loss or gradient.

    Carries the step number, the last good model (parameter checks run
    before any mutation, so the attached model is the state after the last
    completed update), and the log records collected so far.
    """

    def __init__(self, step: int, model: "GanModel", records: list, cause: Exception):
        self.step = step
        self.model = model
        self.records = records
        super().__init__(f"training diverged at generator step {step}: {cause}")


@dataclass(frozen=True)
class GanConfig:
    """All training hyperparameters; defaults follow the reference setup
    (penalty weight 10, RMSProp lr=0.001 rho=0.9 eps=1e-6, hidden stacks
    256/128/128/128)."""

    gp_lambda: float = 10.0
    lr: float = 1e-3
    rho: float = 0.9
    epsilon: float = 1e-6
    noise_dim: int = 64
    batch_size: int = 64
    critic_steps: int = 5
    gen_steps: int = 10_000
    generator_hidden: tuple[int, ...] = (256, 128, 128, 128)
    critic_hidden: tuple[int, ...] = (256, 128, 128, 128)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("gp_lambda", "lr", "rho", "epsilon"):
            check_finite(name, getattr(self, name))
        if self.gp_lambda < 0:
            raise ValueError(f"gp_lambda must be >= 0, got {self.gp_lambda}")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        check_count("batch_size", self.batch_size, 2)  # interpolation pairs samples
        check_count("critic_steps", self.critic_steps, 1)
        check_count("gen_steps", self.gen_steps, 0)
        check_count("noise_dim", self.noise_dim, 1)
        for name in ("generator_hidden", "critic_hidden"):
            for size in getattr(self, name):
                check_count(name, size, 1)

    @classmethod
    def small(cls, **overrides) -> "GanConfig":
        """Small preset for low-dimensional data and smoke tests."""
        base = dict(
            noise_dim=8,
            generator_hidden=(32, 32),
            critic_hidden=(32, 32),
            gen_steps=2_000,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class GanModel:
    """Generator/critic pair plus the config that built them: the networks
    have the layers :func:`_layer_sizes` gives for ``feature_count``."""

    generator: MlpNetwork
    critic: MlpNetwork
    config: GanConfig

    def __post_init__(self) -> None:
        sizes = _layer_sizes(self.config, self.feature_count)
        if [self.generator.shapes, self.critic.shapes] != list(map(nets.layer_shapes, sizes)):
            raise ValueError(
                "these networks are not the ones this config describes for "
                f"{self.feature_count} features"
            )

    @property
    def feature_count(self) -> int:
        return self.generator.out_dim


def _layer_sizes(config: GanConfig, feature_count: int) -> list[list[int]]:
    """The generator's and the critic's ``[in_dim, hidden..., out_dim]``: the
    generator's linear output is clamped only at generation time, and the
    critic ends in one linear unit."""
    return [
        [config.noise_dim, *config.generator_hidden, feature_count],
        [feature_count, *config.critic_hidden, 1],
    ]


def parameter_count(config: GanConfig, feature_count: int) -> int:
    """Parameters of the generator and the critic together."""
    shapes = map(nets.layer_shapes, _layer_sizes(config, feature_count))
    return sum(map(nets.parameter_count, shapes))


def build_model(config: GanConfig, feature_count: int, rng: np.random.Generator) -> GanModel:
    """Fresh generator, drawn first, and critic for ``feature_count``-wide data."""
    generator, critic = [nets.build_mlp(s, rng) for s in _layer_sizes(config, feature_count)]
    return GanModel(generator, critic, config)


def interpolate(real_batch, fake_batch, epsilon) -> np.ndarray:
    """x_hat = eps*real + (1-eps)*fake, one coefficient per row.

    The batches are float64 arrays of one shape and ``epsilon`` holds one
    value in [0, 1] per row. :func:`train` draws them so; nothing here
    checks it.
    """
    eps = epsilon[:, None]
    return eps * real_batch + (1.0 - eps) * fake_batch


@dataclass
class CriticLoss:
    """Critic loss value, its three terms, gradient vector, and diagnostics."""

    loss: float
    fake_term: float
    real_term: float
    penalty_term: float
    grad: np.ndarray
    grad_norm_mean: float


def _penalty_branch(critic: MlpNetwork, x_hat, weight: float) -> tuple[float, np.ndarray, float]:
    """The x_hat branch of a critic update: the gradient penalty, its
    parameter gradient and the mean norm of the critic's input gradient."""
    penalty_term, penalty_grad = nets.penalty_param_grad(critic, x_hat, weight)
    norms = np.linalg.norm(nets.mlp_input_grad(critic, x_hat), axis=1)
    return penalty_term, penalty_grad, float(norms.mean())


def critic_loss(model: GanModel, real_batch, fake_batch, x_hat, penalty=None) -> CriticLoss:
    """Loss and critic-parameter gradient for one batch.

    The value decomposes exactly as fake_term - real_term + penalty_term;
    the gradient adds the reverse pass on the score terms and the penalty
    double backprop, (fake + real) + penalty. The sum is made in place in
    the penalty's gradient vector, which is the one returned.

    The x_hat branch (:func:`_penalty_branch`) needs nothing from the score
    branch. It runs here, after the score branch, unless it already runs
    elsewhere: then ``penalty()`` waits for its result.
    """
    fake_scores, fake_cache = nets.mlp_forward(model.critic, fake_batch)
    real_scores, real_cache = nets.mlp_forward(model.critic, real_batch)
    fake_term = float(fake_scores.mean())
    real_term = float(real_scores.mean())
    up_fake = np.full_like(fake_scores, 1.0 / fake_scores.shape[0])
    up_real = np.full_like(real_scores, -1.0 / real_scores.shape[0])
    grad = nets.mlp_param_grad(model.critic, fake_cache, up_fake)
    grad += nets.mlp_param_grad(model.critic, real_cache, up_real)

    penalty_term, penalty_grad, grad_norm_mean = (
        _penalty_branch(model.critic, x_hat, model.config.gp_lambda) if penalty is None
        else penalty()
    )
    loss = fake_term - real_term + penalty_term
    if not np.isfinite(loss):
        raise NonFiniteError(
            f"non-finite critic loss: fake_term={fake_term}, "
            f"real_term={real_term}, penalty_term={penalty_term}"
        )
    penalty_grad += grad  # addition commutes: the bits of (fake + real) + penalty
    return CriticLoss(loss, fake_term, real_term, penalty_term, penalty_grad, grad_norm_mean)


def generator_loss(model: GanModel, noise_batch) -> tuple[float, np.ndarray]:
    """Generator loss -mean f(G(z)) and its generator-parameter gradient.

    The critic contributes only through its input gradient, so its
    parameters stay untouched.
    """
    fake, gen_cache = nets.mlp_forward(model.generator, noise_batch)
    scores, _ = nets.mlp_forward(model.critic, fake)
    loss = float(-scores.mean())
    if not np.isfinite(loss):
        raise NonFiniteError(f"non-finite generator loss: {loss}")
    upstream = -nets.mlp_input_grad(model.critic, fake) / fake.shape[0]
    return loss, nets.mlp_param_grad(model.generator, gen_cache, upstream)


@dataclass
class TrainRecord:
    """One per-generator-step log entry.

    critic_loss/penalty/grad-norm values are averaged over that step's
    critic updates; wall_ms is the measured wall-clock time of the step and
    is the one field that is not reproducible across runs.
    """

    step: int
    critic_loss: float
    generator_loss: float
    penalty_mean: float
    grad_norm_mean: float
    wall_ms: float


TRAIN_LOG_COLUMNS = tuple(f.name for f in fields(TrainRecord))


def write_train_log(records: list[TrainRecord], path) -> None:
    write_csv(path, TRAIN_LOG_COLUMNS, map(astuple, records))


@contextmanager
def _penalty_worker(model: GanModel, config: GanConfig):
    """``(start, apply)`` for the block's duration: ``start(x_hat)`` starts
    a critic update's x_hat branch and returns :func:`critic_loss`'s
    ``penalty``, and ``apply(grad)`` applies RMSProp with its gradient.

    In one process ``start`` returns None, so :func:`critic_loss` computes
    the x_hat branch after the score branch, and ``apply`` is one
    :func:`nets.rmsprop_step`. A worker made with ``os.fork``
    (:func:`.worker.forked`) shares the work when ``os.fork`` exists, the
    critic has at least :data:`_PENALTY_WORKER_PARAMETERS` parameters and
    this process's BLAS runs one thread. The critic's parameter vector and
    its RMSProp accumulator then move into an anonymous shared mapping,
    beside the x_hat and gradient buffers, and each update takes two round
    trips:

    1. ``start`` writes x_hat and sends ``False``. The worker runs
       :func:`_penalty_branch`, writes the penalty's gradient, and replies
       with the penalty and the mean norm, or with the ``NonFiniteError`` it
       raised, which the returned waiter raises here. Meanwhile
       :func:`train` draws the next batch and :func:`critic_loss` adds the
       score branch's gradient into the shared one.
    2. ``apply`` checks the whole gradient as :func:`nets.rmsprop_step`
       does and sends ``True``. The worker applies the upper half of the
       RMSProp update while this process applies the lower half, and this
       process waits for the worker's reply before the next score branch
       reads the vector.

    The same numbers go through the same elementwise operations in the same
    order, so the bits are those of one process, and a failed check changes
    neither half. The model stays valid after the worker is reaped: the
    mapping lives as long as the critic's vector.
    """
    critic = model.critic
    size = critic.vector.size
    if not hasattr(os, "fork") or size < _PENALTY_WORKER_PARAMETERS or blas_threads() != 1:
        state = nets.rmsprop_state(critic.vector, config.lr, config.rho, config.epsilon)
        yield (lambda x_hat: None), (lambda grad: nets.rmsprop_step(critic.vector, grad, state))
        return
    import mmap  # imported here: at module level it adds about 0.1 MB to every verb's peak RSS

    shared = mmap.mmap(-1, 8 * (3 * size + config.batch_size * model.feature_count))  # float64s
    vector, grad, cache, x_hat = np.split(np.frombuffer(shared), [size, 2 * size, 3 * size])
    x_hat = x_hat.reshape(config.batch_size, model.feature_count)
    vector[:] = critic.vector
    (model.critic,) = nets.networks([critic.shapes], vector)
    half = size // 2
    lower, upper = (
        nets.RmsPropState(config.lr, config.rho, config.epsilon, part)
        for part in (cache[:half], cache[half:])  # the mapping starts zeroed
    )

    def serve(channel):
        while True:
            if channel.receive():  # the gradient is checked: apply the upper half
                nets.rmsprop_step(vector[half:], grad[half:], upper)
                channel.send(None)
                continue
            try:
                penalty_term, penalty_grad, grad_norm_mean = _penalty_branch(
                    model.critic, x_hat, config.gp_lambda
                )
            except NonFiniteError as exc:  # a reply: training diverged, the worker did not fail
                channel.send(exc)
                continue
            grad[:] = penalty_grad
            channel.send((penalty_term, grad_norm_mean))

    with forked(serve, "computing the gradient penalty") as worker:

        def penalty():
            reply = worker.receive()
            if isinstance(reply, NonFiniteError):
                raise reply
            penalty_term, grad_norm_mean = reply
            return penalty_term, grad, grad_norm_mean

        def start(batch_x_hat):
            x_hat[:] = batch_x_hat
            worker.send(False)
            return penalty

        def apply(summed):  # critic_loss's sum lies in the shared gradient buffer
            nets.check_gradient(summed)
            worker.send(True)
            nets.rmsprop_step(vector[:half], summed[:half], lower)
            worker.receive()

        yield start, apply


def train(
    data: DatasetMatrix, config: GanConfig, progress=None
) -> tuple[GanModel, list[TrainRecord]]:
    """Run the alternating training loop.

    Batches are drawn uniformly with replacement. Each outer step applies
    ``critic_steps`` critic updates followed by one generator update, and
    appends one TrainRecord (also passed to ``progress`` when given). A
    non-finite loss or gradient aborts with :class:`TrainingDiverged`.

    Each critic update starts its x_hat branch, draws the next update's
    batch (the generator is fixed through a step's critic updates, and the
    updates draw nothing), computes :func:`critic_loss` and applies it; a
    failure drawing the batch is raised once the update is applied. A large
    enough critic shares each update with a worker process
    (:func:`_penalty_worker`): the worker computes the x_hat branch and half
    of the RMSProp update while this process draws, computes the score
    branch and the other half, bit for bit as one process. A worker that
    fails raises ``OSError("the worker computing the gradient penalty
    ...")``, and is reaped on every path.
    """
    n = data.n_rows
    if n < config.batch_size:
        raise DataError(
            f"dataset has {n} rows, need at least batch_size={config.batch_size}"
        )
    rng = np.random.default_rng(config.seed)
    model = build_model(config, data.features.shape[1], rng)
    gen_state = nets.rmsprop_state(
        model.generator.vector, config.lr, config.rho, config.epsilon
    )
    features = data.features

    def draw():
        """One critic update's real, fake and interpolated batches."""
        idx = rng.integers(0, n, size=config.batch_size)
        real = features[idx]
        noise = rng.uniform(-1.0, 1.0, size=(config.batch_size, config.noise_dim))
        fake, _ = nets.mlp_forward(model.generator, noise)
        eps = rng.uniform(0.0, 1.0, size=config.batch_size)
        return real, fake, interpolate(real, fake, eps)

    records: list[TrainRecord] = []
    with _penalty_worker(model, config) as (start, apply):
        for step in range(1, config.gen_steps + 1):
            t0 = time.perf_counter()
            try:
                closs_sum = penalty_sum = norm_sum = 0.0
                batch = draw()
                for update in range(1, config.critic_steps + 1):
                    penalty = start(batch[2])
                    try:  # drawn while a worker computes the x_hat branch
                        following = draw() if update < config.critic_steps else None
                    except NonFiniteError as exc:  # raised once this update is applied
                        following = exc
                    cl = critic_loss(model, *batch, penalty)
                    apply(cl.grad)
                    if isinstance(following, NonFiniteError):
                        raise following
                    batch = following
                    closs_sum += cl.loss
                    penalty_sum += cl.penalty_term
                    norm_sum += cl.grad_norm_mean
                noise = rng.uniform(-1.0, 1.0, size=(config.batch_size, config.noise_dim))
                gloss, ggrad = generator_loss(model, noise)
                nets.rmsprop_step(model.generator.vector, ggrad, gen_state)
            except NonFiniteError as exc:
                raise TrainingDiverged(step, model, records, exc) from exc
            wall_ms = (time.perf_counter() - t0) * 1000.0
            record = TrainRecord(
                step=step,
                critic_loss=closs_sum / config.critic_steps,
                generator_loss=gloss,
                penalty_mean=penalty_sum / config.critic_steps,
                grad_norm_mean=norm_sum / config.critic_steps,
                wall_ms=wall_ms,
            )
            records.append(record)
            if progress is not None:
                progress(record)
    return model, records


def generate(
    model: GanModel,
    n: int,
    rng: np.random.Generator,
    stats: NormalizationStats | None = None,
) -> np.ndarray:
    """Sample n synthetic rows from the generator.

    The raw outputs are clipped to [0, 1] (the normalized feature range);
    with ``stats`` they are then mapped back to feature units.

    Rows are made in ceil(n / GENERATE_BLOCK_ROWS) balanced blocks, noise
    drawn block by block (the bytes of one full draw). Balanced blocks are
    never under half a block once n exceeds one: OpenBLAS rounds a GEMM of
    a few rows differently, and with these sizes the output has the bytes
    of one forward over all n rows.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = np.empty((n, model.feature_count))
    for block in np.array_split(out, -(-n // GENERATE_BLOCK_ROWS)):
        noise = rng.uniform(-1.0, 1.0, size=(len(block), model.config.noise_dim))
        np.clip(nets.mlp_output(model.generator, noise), 0.0, 1.0, out=block)
        if stats is not None:
            block[:] = denormalize(block, stats)
    return out


def save_checkpoint(model: GanModel, path) -> None:
    """Write the model as a two-file cache (:func:`dataio.save_cache`): the
    generator's parameter vector then the critic's, as one float64 vector in
    ``.npy``, and at ``path`` a versioned JSON header holding the config and
    the feature count, from which the layers follow."""
    save_cache(path, {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "feature_count": model.feature_count,
    }, np.concatenate((model.generator.vector, model.critic.vector)))


def load_checkpoint(path) -> GanModel:
    """The model saved at ``path``; any defect in either file is a DataError
    naming that file, the ``.npy`` one when the header's layers do not fit it."""

    def decode(doc) -> GanModel:
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise DataError("not a model checkpoint")
        if doc.get("version") != CHECKPOINT_VERSION:
            raise DataError(
                f"checkpoint version {doc.get('version')} is incompatible "
                f"(expected {CHECKPOINT_VERSION}); run the 'train' command again"
            )
        # a KeyError, TypeError or ValueError reads as malformed
        config = config_from_dict(GanConfig, doc["config"])
        check_count("feature_count", doc["feature_count"], 1)
        shapes = list(map(nets.layer_shapes, _layer_sizes(config, doc["feature_count"])))
        vector = load_cache_matrix(path, (sum(map(nets.parameter_count, shapes)),))
        if not np.isfinite(vector).all():
            raise DataError(f"{matrix_path(path)} holds non-finite values")
        return GanModel(*nets.networks(shapes, vector), config)

    return read_json(path, decode)
