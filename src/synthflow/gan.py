"""Gradient-penalty Wasserstein training for tabular flow features.

The critic loss is

    mean f(fake) - mean f(real) + weight * mean (||grad_x f(x_hat)|| - 1)^2

with x_hat drawn uniformly on segments between paired real and fake rows.
The generator minimizes -mean f(G(z)) with the critic frozen. Both networks
are ReLU MLPs whose layers follow from the config and the data width alone
(:func:`_layer_sizes`, counted by :func:`parameter_count`), trained with
RMSProp, alternating several critic updates per generator update. Everything
is driven by one seeded generator so runs are bit reproducible. One loop in
:func:`train` runs every update, in one process or two: with a large
critic, each critic and generator update is shared with a forked worker,
with the same bits (:func:`_penalty_worker`). For a critic update the
worker computes the x_hat branch while this process draws the next batch
and computes the score terms; for a generator update it scores the fake
rows while this process computes the generator's gradient. Each process
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
    load_cache,
    matrix_path,
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

# Critic parameters from which training shares each critic and generator
# update with a forked worker (:func:`_penalty_worker`). Each update then
# pays two pipe round trips. Median step time of 60-step trains on 2500 x 78
# rows, one process against two (9 alternating runs each, each run a fresh
# process with `train`'s heap setting and BLAS on one thread, on a shared
# 2-core Xeon VM), critic hidden sizes with GanConfig.small's 32 x 32
# generator, or the reference nets, at batch 32 / batch 64, with the pairs
# of runs that two processes won:
#   32 x 32 (3,617 parameters)  2.24 -> 2.75 ms (2/9) / 3.57 -> 3.83 ms (4/9)
#   48 x 48 (6,193)             4.28 -> 3.47 (7/9) / 5.49 -> 4.34 (8/9)
#   64 x 64 (9,281)             3.33 -> 3.90 (3/9) / 6.04 -> 3.67 (8/9)
#   80 x 80 (12,881)            3.90 -> 3.36 (6/9) / 5.91 -> 5.45 (7/9)
#   96 x 96 (16,993)            4.67 -> 3.49 (7/9) / 6.85 -> 4.84 (9/9)
#   128 x 128 (26,753)          8.59 -> 6.52 (8/9) / 10.07 -> 8.29 (9/9)
#   reference (86,273)          20.89 -> 14.13 (9/9) / 35.34 -> 27.44 (9/9)
# Below the gate the medians go both ways, and GanConfig.small's critic loses
# in two processes at both batch sizes; from 96 x 96 up both sizes gain.
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


def _generator_score(critic: MlpNetwork, fake) -> float:
    """The score branch of a generator update: the loss -mean f(fake)."""
    scores, _ = nets.mlp_forward(critic, fake)
    return float(-scores.mean())


def generator_loss(model: GanModel, fake, cache, score=None) -> tuple[float, np.ndarray]:
    """Generator loss -mean f(G(z)) and its generator-parameter gradient, for
    the generator's output ``fake`` on a noise batch and its forward
    ``cache``.

    The critic contributes only through its input gradient, so its
    parameters stay untouched. The loss (:func:`_generator_score`) needs
    nothing from the gradient. It is computed here, after the gradient,
    unless it already runs elsewhere: then ``score()`` waits for it.
    """
    upstream = -nets.mlp_input_grad(model.critic, fake) / fake.shape[0]
    grad = nets.mlp_param_grad(model.generator, cache, upstream)
    loss = _generator_score(model.critic, fake) if score is None else score()
    if not np.isfinite(loss):
        raise NonFiniteError(f"non-finite generator loss: {loss}")
    return loss, grad


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


def _shared_arrays(counts) -> list[np.ndarray]:
    """Zeroed float64 arrays of these lengths in one anonymous shared mapping,
    each on pages of its own. Packed end to end instead, the arrays of both
    networks slowed this process's half of the critic's RMSProp update from
    about 0.33 to 0.43-0.52 ms (reference nets, batch 32, medians of
    300-step trains)."""
    import mmap  # imported here: at module level it adds about 0.1 MB to every verb's peak RSS

    spans = [-(-8 * count // mmap.PAGESIZE) * mmap.PAGESIZE for count in counts]
    mapping = np.frombuffer(mmap.mmap(-1, sum(spans)), np.uint8)
    starts = np.cumsum([0, *spans])
    return [
        mapping[start:start + 8 * count].view(np.float64) for start, count in zip(starts, counts)
    ]


@contextmanager
def _penalty_worker(model: GanModel, config: GanConfig):
    """``(start, apply)`` for the block's duration. Each takes the name of
    the network an update changes, ``"critic"`` or ``"generator"``.
    ``start("critic", x_hat)`` starts a critic update's x_hat branch and
    returns :func:`critic_loss`'s ``penalty``; ``start("generator", fake)``
    starts a generator update's score branch and returns
    :func:`generator_loss`'s ``score``. ``apply(name, grad)`` applies
    RMSProp to that network's vector with its gradient.

    In one process ``start`` returns None, so the loss computes the branch
    itself, and ``apply`` is one :func:`nets.rmsprop_step`. A worker made
    with ``os.fork`` (:func:`.worker.forked`) shares the work when
    ``os.fork`` exists, the critic has at least
    :data:`_PENALTY_WORKER_PARAMETERS` parameters and this process's BLAS
    runs one thread. Both networks' parameter vectors and RMSProp
    accumulators then move into an anonymous shared mapping
    (:func:`_shared_arrays`), beside a gradient buffer per network and one
    batch buffer, and each update takes two round trips:

    1. ``start`` writes its rows into the batch buffer and sends the name.
       For the critic, the worker runs :func:`_penalty_branch`, writes the
       penalty's gradient into the critic's buffer, and replies with the
       penalty and the mean norm; for the generator it replies with
       :func:`_generator_score`. A ``NonFiniteError`` it raised is the reply
       instead, and the returned waiter raises it here. Meanwhile
       :func:`train` draws the next batch and the loss computes the rest:
       :func:`critic_loss` adds the score branch's gradient into the shared
       one, and :func:`generator_loss` computes the generator's gradient.
    2. ``apply`` checks the whole gradient as :func:`nets.rmsprop_step`
       does, puts the generator's upper half into its buffer, and sends the
       name again. The worker applies the upper half of the network's
       RMSProp update while this process applies the lower half, neither
       checking its half again, and this process waits for the worker's
       reply before the vector is read again.

    The same numbers go through the same elementwise operations in the same
    order, so the bits are those of one process, and a failed check changes
    neither half. The model stays valid after the worker is reaped: the
    mapping lives as long as the networks' vectors.
    """
    names = ("generator", "critic")
    hyper = config.lr, config.rho, config.epsilon
    if (
        not hasattr(os, "fork")
        or model.critic.vector.size < _PENALTY_WORKER_PARAMETERS
        or blas_threads() != 1
    ):
        states = {name: nets.rmsprop_state(getattr(model, name).vector, *hyper) for name in names}

        def apply_alone(name, grad):
            nets.rmsprop_step(getattr(model, name).vector, grad, states[name])

        yield (lambda name, rows: None), apply_alone
        return
    sizes = [getattr(model, name).vector.size for name in names]
    rows, *arrays = _shared_arrays(
        [config.batch_size * model.feature_count, *(size for size in sizes for _ in range(3))]
    )
    rows = rows.reshape(config.batch_size, model.feature_count)
    parts = {}  # each network's vector, gradient buffer, half and halves' RMSProp states
    for name, (vector, grad, cache) in zip(names, (arrays[:3], arrays[3:])):
        net = getattr(model, name)
        vector[:] = net.vector
        setattr(model, name, nets.networks([net.shapes], vector)[0])
        half = vector.size // 2
        parts[name] = vector, grad, half, [  # the mapping starts zeroed
            nets.RmsPropState(*hyper, part) for part in (cache[:half], cache[half:])
        ]

    critic_grad = parts["critic"][1]

    def branch(name):
        if name == "generator":
            return _generator_score(model.critic, rows)
        penalty_term, penalty_grad, grad_norm_mean = _penalty_branch(
            model.critic, rows, config.gp_lambda
        )
        critic_grad[:] = penalty_grad
        return penalty_term, grad_norm_mean

    def serve(channel):
        while True:
            name, checked = channel.receive()
            if checked:  # the gradient is checked: apply the upper half
                params, part_grad, half, (_, upper) = parts[name]
                nets.rmsprop_step(params[half:], part_grad[half:], upper, checked=True)
                channel.send(None)
                continue
            try:
                answer = branch(name)
            except NonFiniteError as exc:  # a reply: training diverged, the worker did not fail
                answer = exc
            channel.send(answer)

    with forked(serve, "computing the gradient penalty") as worker:

        def reply():
            out = worker.receive()
            if isinstance(out, NonFiniteError):
                raise out
            return out

        def penalty():
            penalty_term, grad_norm_mean = reply()
            return penalty_term, critic_grad, grad_norm_mean

        waiters = {"critic": penalty, "generator": reply}

        def start(name, batch_rows):
            rows[:] = batch_rows
            worker.send((name, False))
            return waiters[name]

        def apply(name, summed):
            params, part_grad, half, (lower, _) = parts[name]
            nets.check_gradient(summed)
            if summed is not part_grad:  # critic_loss's sum already lies in the buffer
                part_grad[half:] = summed[half:]
            worker.send((name, True))
            nets.rmsprop_step(params[:half], summed[:half], lower, checked=True)
            worker.receive()

        yield start, apply


def train(
    data: DatasetMatrix, config: GanConfig, progress=None, timings=None
) -> tuple[GanModel, list[TrainRecord]]:
    """Run the alternating training loop.

    Batches are drawn uniformly with replacement. Each outer step applies
    ``critic_steps`` critic updates followed by one generator update, and
    appends one TrainRecord (also passed to ``progress`` when given). A
    non-finite loss or gradient aborts with :class:`TrainingDiverged`.
    ``timings``, when given, maps ``"critic"`` and ``"generator"`` to wall
    milliseconds, to which each completed step adds the time of its critic
    updates and of its generator update.

    Each update starts its worker branch, computes its loss and applies it.
    The generator is fixed through a step's critic updates, and they draw
    nothing, so each critic update draws the next update's batch after its
    start: the next critic batch, or during the last one the generator
    update's noise and forward pass. A failure there is raised once the
    update is applied. A large enough critic shares each update with a
    worker process (:func:`_penalty_worker`): the worker computes the x_hat
    branch of a critic update, or the score branch of a generator update,
    and half of the RMSProp update, while this process draws, computes the
    rest and the other half, bit for bit as one process. A worker that fails
    raises ``OSError("the worker computing the gradient penalty ...")``, and
    is reaped on every path.
    """
    n = data.n_rows
    if n < config.batch_size:
        raise DataError(
            f"dataset has {n} rows, need at least batch_size={config.batch_size}"
        )
    rng = np.random.default_rng(config.seed)
    model = build_model(config, data.features.shape[1], rng)
    features = data.features

    def generated():
        """The generator's output on a fresh noise batch, and its forward cache."""
        noise = rng.uniform(-1.0, 1.0, size=(config.batch_size, config.noise_dim))
        return nets.mlp_forward(model.generator, noise)

    def draw():
        """One critic update's real, fake and interpolated batches."""
        idx = rng.integers(0, n, size=config.batch_size)
        real = features[idx]
        fake, _ = generated()
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
                    penalty = start("critic", batch[2])
                    try:  # drawn while a worker computes the x_hat branch
                        following = draw() if update < config.critic_steps else generated()
                    except NonFiniteError as exc:  # raised once this update is applied
                        following = exc
                    cl = critic_loss(model, *batch, penalty)
                    apply("critic", cl.grad)
                    if isinstance(following, NonFiniteError):
                        raise following
                    batch = following
                    closs_sum += cl.loss
                    penalty_sum += cl.penalty_term
                    norm_sum += cl.grad_norm_mean
                t1 = time.perf_counter()
                fake, cache = batch  # drawn during the last critic update
                gloss, ggrad = generator_loss(model, fake, cache, start("generator", fake))
                apply("generator", ggrad)
            except NonFiniteError as exc:
                raise TrainingDiverged(step, model, records, exc) from exc
            t2 = time.perf_counter()
            if timings is not None:
                timings["critic"] += (t1 - t0) * 1000.0
                timings["generator"] += (t2 - t1) * 1000.0
            record = TrainRecord(
                step=step,
                critic_loss=closs_sum / config.critic_steps,
                generator_loss=gloss,
                penalty_mean=penalty_sum / config.critic_steps,
                grad_norm_mean=norm_sum / config.critic_steps,
                wall_ms=(t2 - t0) * 1000.0,
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
    save_cache(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, {
        "config": asdict(model.config),
        "feature_count": model.feature_count,
    }, np.concatenate((model.generator.vector, model.critic.vector)))


def load_checkpoint(path) -> GanModel:
    """The model saved at ``path`` (:func:`dataio.load_cache`); a parameter
    vector that does not fit the header's layers, or holds a non-finite
    value, is a DataError naming the ``.npy`` file."""

    def decode(doc):
        # a KeyError, TypeError or ValueError reads as malformed
        config = config_from_dict(GanConfig, doc["config"])
        check_count("feature_count", doc["feature_count"], 1)
        shapes = list(map(nets.layer_shapes, _layer_sizes(config, doc["feature_count"])))

        def build(vector):
            if not np.isfinite(vector).all():
                raise DataError(f"{matrix_path(path)} holds non-finite values")
            return GanModel(*nets.networks(shapes, vector), config)

        return (sum(map(nets.parameter_count, shapes)),), build

    return load_cache(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, "train", decode)
