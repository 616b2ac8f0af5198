"""In-memory span tracer for one synthflow verb, plus the traced-verb runner.

The tracer wraps public functions of ``synthflow`` at the module attribute
their caller looks them up through (``synthflow.cli.parse_csv``,
``synthflow.nets.mlp_forward``, ``synthflow.evaluator.split_search`` ...),
so the program's own files stay untouched. Each call becomes a span with a
name, start, end, parent span and the workload/verb it ran under. Spans are
kept in memory and written once, when the verb ends.

Run as ``python -m perfbench.tracer --out FILE --context WORKLOAD/VERB --
VERB --config ...``: it installs the wrappers, runs the verb in-process
through ``synthflow.cli.main`` and exits with the verb's exit code.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# (module, attribute path, span name). The module is the one whose global
# name the caller resolves at call time.
WRAPS = (
    ("synthflow.cli", "parse_csv", "dataio.parse_csv"),
    ("synthflow.cli", "clean_numeric", "dataio.clean_numeric"),
    ("synthflow.cli", "minmax_normalize", "dataio.minmax_normalize"),
    ("synthflow.cli", "filter_by_label", "dataio.filter_by_label"),
    ("synthflow.cli", "save_dataset", "dataio.save_dataset"),
    ("synthflow.cli", "load_dataset", "dataio.load_dataset"),
    ("synthflow.cli", "train", "gan.train"),
    ("synthflow.cli", "generate", "gan.generate"),
    ("synthflow.cli", "save_checkpoint", "gan.save_checkpoint"),
    ("synthflow.cli", "load_checkpoint", "gan.load_checkpoint"),
    ("synthflow.cli", "evaluate", "evaluator.evaluate"),
    ("synthflow.gan", "critic_loss", "gan.critic_loss"),
    ("synthflow.gan", "generator_loss", "gan.generator_loss"),
    ("synthflow.nets", "mlp_forward", "nets.mlp_forward"),
    ("synthflow.nets", "mlp_param_grad", "nets.mlp_param_grad"),
    ("synthflow.nets", "mlp_input_grad", "nets.mlp_input_grad"),
    ("synthflow.nets", "penalty_param_grad", "nets.penalty_param_grad"),
    ("synthflow.nets", "rmsprop_step", "nets.rmsprop_step"),
    ("synthflow.evaluator", "gbm_fit", "evaluator.gbm_fit"),
    ("synthflow.evaluator", "split_search", "evaluator.split_search"),
    ("synthflow.evaluator", "RegressionTree.predict", "evaluator.tree_predict"),
    ("synthflow.evaluator", "gbm_predict", "evaluator.gbm_predict"),
    ("synthflow.evaluator", "roc_auc", "evaluator.roc_auc"),
    ("synthflow.evaluator", "rmse_quality", "evaluator.rmse_quality"),
    ("synthflow.evaluator", "histogram_compare", "evaluator.histogram_compare"),
    ("synthflow.evaluator", "feature_importance", "evaluator.feature_importance"),
)

PROBE_SPAN = "trace.probe"
GEMM_SPANS = ("nets.mlp_forward", "nets.mlp_param_grad", "nets.mlp_input_grad",
              "nets.penalty_param_grad")
LOW_CARDINALITY = 1000


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    context: str  # "workload/verb"


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


def _layer_dims(net) -> list[tuple[int, int]]:
    return [layer.weights.shape for layer in net.layers]


def gemm_flops(name: str, args) -> int:
    """Floating-point operations of the matrix products one nets call does
    itself, computed from its operand shapes (2 per multiply-add).

    A nested ``mlp_forward`` is its own span and counts there.
    """
    net = args[0]
    rows = np.shape(args[2] if name == "nets.mlp_param_grad" else args[1])[0]
    per_layer = [2 * rows * out_dim * in_dim for out_dim, in_dim in _layer_dims(net)]
    full = sum(per_layer)
    if name == "nets.mlp_forward":
        return full
    if name == "nets.mlp_param_grad":
        return 2 * full - per_layer[0]  # delta.T @ input everywhere, delta @ W above layer 0
    if name == "nets.mlp_input_grad":
        return full  # one delta @ W per layer
    return 3 * full - per_layer[-1]  # penalty: deltas, then the double-backprop chain


class Tracer:
    """Span recorder for one process; wrappers feed it, ``to_dict`` is what
    gets written when the verb ends."""

    def __init__(self, context: str):
        self.context = context
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.observed: dict[str, float] = {}
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if probe is not None:
                probe(name, args)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def install(self) -> None:
        """Wrap every entry of :data:`WRAPS`."""
        for module_name, path, name in WRAPS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            probe = None
            if name in GEMM_SPANS:
                probe = self._count_flops
            elif name == "evaluator.gbm_fit":
                probe = self._probe_fit_matrix
            self.wrap(owner, attr, name, probe)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def _count_flops(self, name: str, args) -> None:
        self.counters["nets.gemm_flop"] += gemm_flops(name, args)

    def _probe_fit_matrix(self, name: str, args) -> None:
        # inside its own span so the parent's self time does not absorb it
        idx = self.open(PROBE_SPAN)
        try:
            features = args[0].features
            distinct = [np.unique(features[:, j]).size for j in range(features.shape[1])]
            self.observed["evaluator.fit_rows"] = float(features.shape[0])
            self.observed["evaluator.low_cardinality_share"] = float(
                np.mean(np.array(distinct) <= LOW_CARDINALITY)
            )
        finally:
            self.close(idx)

    def to_dict(self) -> dict:
        return {
            "context": self.context,
            "spans": [
                [n, s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counters": dict(self.counters),
            "observed": self.observed,
        }


def spans_from_dict(doc: dict) -> list[Span]:
    return [Span(n, s, e, p, doc["context"]) for n, s, e, p in doc["spans"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one synthflow verb under the tracer.")
    parser.add_argument("--out", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--context", required=True, help="workload/verb id for every span")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from synthflow import cli

    tracer = Tracer(args.context)
    tracer.install()
    root = tracer.open(f"cli.{cli_args[0]}")
    try:
        return cli.main(cli_args)
    finally:
        tracer.close(root)
        tracer.uninstall()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main())
