"""Shared test utilities: finite-difference oracles, toy data builders and
the leak checks for forked workers.

The oracles only ever call ``mlp_forward`` (or a supplied scalar function)
so they stay independent of the gradient code they check.
"""

from __future__ import annotations

import json
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from synthflow import dataio, gan, nets, toydata
from synthflow.gan import GanConfig
from synthflow.worker import blas_threads

# training forks its penalty worker only where the BLAS thread count can be read
needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="numpy's BLAS here is not a loaded OpenBLAS"
)

FD_STEP = 1e-4
# Pre-activations must clear this margin so FD perturbation cannot flip a
# ReLU mask.
KINK_MARGIN = 1e-3


def fd_param_grad(net, scalar_fn, h=FD_STEP):
    """Central finite differences of scalar_fn() over every entry of
    ``net.vector``, laid out like it."""
    p = net.vector
    g = np.zeros_like(p)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        up = scalar_fn()
        p[i] = orig - h
        down = scalar_fn()
        p[i] = orig
        g[i] = (up - down) / (2.0 * h)
    return g


def mlp(*layers):
    """A network holding a copy of the given (weights, bias) pairs."""
    vector = np.concatenate([np.append(w, b) for w, b in layers], dtype=np.float64)
    (net,) = nets.networks([[np.shape(w) for w, _ in layers]], vector)
    return net


def config_for(generator, critic, **overrides):
    """The small config whose layer sizes are the ones these networks have."""
    return GanConfig.small(
        noise_dim=generator.layers[0].in_dim,
        generator_hidden=tuple(layer.out_dim for layer in generator.layers[:-1]),
        critic_hidden=tuple(layer.out_dim for layer in critic.layers[:-1]),
        **overrides,
    )


def fd_input_grad(net, x, h=FD_STEP):
    """Central finite differences of the scalar output w.r.t. each input."""
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            fd[i, j] = (
                nets.mlp_forward(net, xp)[0][i, 0]
                - nets.mlp_forward(net, xm)[0][i, 0]
            ) / (2.0 * h)
    return fd


def rel_err(analytic, reference):
    """Vector-level relative error between two gradient arrays."""
    a = np.ravel(analytic)
    b = np.ravel(reference)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def min_preact_margin(net, x):
    _, cache = nets.mlp_forward(net, x)
    return min(float(np.abs(z).min()) for z in cache.preacts)


def random_net_and_batch(seed, sizes=(3, 5, 4, 1), batch=4, margin=KINK_MARGIN):
    """Deterministic random network and batch clear of ReLU kinks.

    Re-seeds until every pre-activation magnitude exceeds ``margin`` so the
    finite-difference step cannot cross a kink.
    """
    attempt = seed
    while True:
        rng = np.random.default_rng(attempt)
        net = nets.build_mlp(list(sizes), rng)
        x = rng.normal(size=(batch, sizes[0]))
        if min_preact_margin(net, x) >= margin:
            return net, x
        attempt += 100_003


def toy_attack_dataset():
    """The toy dataset ingested the way the CLI ingests toy.csv, attack rows only."""
    schema = toydata.toy_schema()
    lines = (f"{x!r},{y!r},{label}\n" for x, y, label in toydata.toy_rows())
    values, labels, _, _, stats = dataio.clean_numeric(
        ["f1", "f2", "label"], lines, schema, {"attack"}
    )
    return dataio.DatasetMatrix(dataio.minmax_normalize(values, stats), labels, stats, schema)


def constant_dataset(value=0.5, n_rows=500):
    """Single-feature dataset where every entry equals ``value``."""
    schema = dataio.FeatureSchema(
        (dataio.Column("f1", dataio.NUMERIC), dataio.Column("label", dataio.LABEL))
    )
    stats = dataio.NormalizationStats(np.zeros(1), np.ones(1))
    return dataio.DatasetMatrix(
        np.full((n_rows, 1), value), ["x"] * n_rows, stats, schema
    )


def write_toy_run(tmp_path, gan_overrides=None, eval_overrides=None, seed=7):
    """Write toy.csv, toy_schema.json, and a run config; returns config path."""
    csv_path = tmp_path / "toy.csv"
    schema_path = tmp_path / "toy_schema.json"
    toydata.write_toy_csv(csv_path)
    dataio.schema_to_json(toydata.toy_schema(), schema_path)
    gan_cfg = {
        "noise_dim": 8,
        "generator_hidden": [32, 32],
        "critic_hidden": [32, 32],
        "gen_steps": 60,
    }
    gan_cfg.update(gan_overrides or {})
    eval_cfg = {"n_trees": 30}
    eval_cfg.update(eval_overrides or {})
    config = {
        "dataset": "custom",
        "csv": ["toy.csv"],
        "labels": ["attack"],
        "schema": "toy_schema.json",
        "seed": seed,
        "out": "run",
        "gan": gan_cfg,
        "eval": eval_cfg,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path


def nan_penalty_input(monkeypatch, call):
    """Make the ``call``-th gradient penalty's x_hat NaN, so its forward pass
    is non-finite, in whichever process computes the penalty."""
    calls, penalty = [], nets.penalty_param_grad

    def patched(net, x_hat, weight):
        calls.append(1)
        if len(calls) == call:
            x_hat = np.full_like(x_hat, np.nan)
        return penalty(net, x_hat, weight)

    monkeypatch.setattr(nets, "penalty_param_grad", patched)


def nan_generator_input(monkeypatch, call):
    """Make the noise of the ``call``-th generator forward pass NaN, so its
    output is non-finite. Only this process runs the generator forward."""
    calls, forward = [], nets.mlp_forward

    def patched(net, x):
        if net.out_dim != 1:  # the generator's
            calls.append(1)
            if len(calls) == call:
                x = np.full_like(x, np.nan)
        return forward(net, x)

    monkeypatch.setattr(nets, "mlp_forward", patched)


def spoil_generator_score(monkeypatch, call, spoil):
    """Have the ``call``-th generator score return ``spoil(score, critic,
    fake)`` instead of ``score(critic, fake)``, in whichever process scores
    the rows. Returns this process's list of calls."""
    calls, score = [], gan._generator_score

    def patched(critic, fake):
        calls.append(1)
        if len(calls) == call:
            return spoil(score, critic, fake)
        return score(critic, fake)

    monkeypatch.setattr(gan, "_generator_score", patched)
    return calls


def nan_scored_rows(score, critic, fake):
    """A generator score of NaN rows: its critic forward pass is non-finite."""
    return score(critic, np.full_like(fake, np.nan))


def set_gradient_entry(monkeypatch, name, call, index, value, critic=True):
    """Set entry ``index`` of the gradient vector returned by the ``call``-th
    call of ``nets.<name>`` on a critic, or with ``critic=False`` on a
    generator, in whichever process makes it."""
    calls, fn = [], getattr(nets, name)

    def patched(net, *args):
        out = fn(net, *args)
        if (net.out_dim == 1) == critic:
            calls.append(1)
            if len(calls) == call:
                (out[1] if isinstance(out, tuple) else out)[index] = value
        return out

    monkeypatch.setattr(nets, name, patched)


def count_forks(monkeypatch):
    """Count the os.fork calls of this process."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def leaves_nothing_open(seconds=20):
    """The block leaves no child process and no open descriptor behind; a
    block still running after ``seconds`` raises TimeoutError."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    fds = sorted(os.listdir("/proc/self/fd"))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()
    assert sorted(os.listdir("/proc/self/fd")) == fds


def act_in_the_worker(monkeypatch, owner, name, act, when=None):
    """Patch the function ``owner.name`` so that a call made in a forked
    worker runs ``act()`` first, if ``when(*args)`` holds or no ``when`` is
    given; calls made in this process run as before."""
    parent, fn = os.getpid(), getattr(owner, name)

    def patched(*args, **kwargs):
        if os.getpid() != parent and (when is None or when(*args)):
            act()
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)
