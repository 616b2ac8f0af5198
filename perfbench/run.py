"""Benchmark entry point: one workload, closed loop, one result line.

    python3 -m perfbench.run --workload goldeneye --seed 3 --seconds 60 --trace 0

From the repository root, the benchmark writes the workload's input CSV from
``--seed``, then repeats the whole pipeline until ``--seconds`` are used up:
two ``python -m synthflow.cli --version`` start-ups (the set-up every verb
pays), then ingest, train, generate, evaluate and report, one after another,
each a child process. One client, closed loop: a verb starts when the one
before it has ended. Every verb's outputs are checked, and the data
artifacts must be byte-identical across repeats. The short fixed task of
:mod:`perfbench.reference` runs before and after every timed child, to
measure how fast the shared host runs at that moment.

``--trace 0`` reports the end-to-end metrics: wall times scaled to the
host's reference speed (see :class:`Sample`), as run means.
``--trace 1`` alternates an untraced pipeline with one whose verbs run
in-process under :mod:`perfbench.tracer`, and reports the per-layer
metrics. The last line of standard output is the JSON result; the
environment, raw repeats and failures are also written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics, pipeline
from .workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES_PER_REPEAT = 2
# Typical wall time of perfbench/reference.py on the 2-core Xeon VM the
# bounds were set on; timings are reported as if the host ran at that speed.
REFERENCE_S = 0.2
# a run must end well inside the three minutes a run is allowed
HARD_LIMIT_S = 150.0


def environment() -> dict:
    """What the numbers depend on besides the code."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": pipeline.THREAD_PINS,
        "commit": commit,
    }


@dataclass
class Sample:
    """Wall time of one timed child and of the reference runs around it.

    The shared host runs the same code up to 1.5 times faster or slower for
    seconds to minutes at a time, and every process slows together. The
    reference task imports nothing from synthflow, so a change to the
    program cannot move it; the mean of the two reference runs that bracket
    a child measures the host's speed while that child ran, and
    :meth:`scaled` gives the child's time at the reference speed.
    """

    wall_s: float
    ref_before_s: float
    ref_after_s: float = math.nan

    def scaled(self) -> float:
        return self.wall_s * 2.0 * REFERENCE_S / (self.ref_before_s + self.ref_after_s)


@dataclass
class Repeat:
    traced: bool
    samples: dict[str, Sample] = field(default_factory=dict)
    rss: dict[str, float] = field(default_factory=dict)
    outcomes: list[pipeline.VerbOutcome] = field(default_factory=list)
    # read only after the last child has run, so the spans do not raise the
    # benchmark's peak memory, which children inherit as a floor of ru_maxrss
    span_files: dict[str, Path] = field(default_factory=dict)
    observations: dict[str, float] = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        """All verbs back to back, at the reference speed."""
        return sum(sample.scaled() for sample in self.samples.values())


class Runner:
    """Runs one workload's pipelines in its own work directory."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path, csv_path: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.out_dir = run_dir / "out"
        self.logs = run_dir / "logs"
        self.logs.mkdir(parents=True)
        self.env = pipeline.child_env(ROOT)
        self.traced_env = pipeline.child_env(ROOT, extra_paths=[ROOT])
        self.config = self._write_config(csv_path)
        self.reference_digests: dict[str, dict[str, str]] = {}
        self.setup_samples: list[Sample] = []
        self.reference_samples: list[float] = []
        self._unbracketed: list[Sample] = []
        self.count = 0

    def _write_config(self, csv_path: Path) -> Path:
        w = self.workload
        doc = {
            "dataset": w.dataset,
            "csv": [str(csv_path)],
            "labels": list(w.labels),
            "seed": self.seed,
            "out": str(self.out_dir),
            "gan": w.gan,
            "eval": w.eval,
        }
        path = self.run_dir / "config.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path

    def reference(self) -> float:
        """Run the reference task; it closes the samples still waiting for it."""
        self.count += 1
        log = self.logs / f"reference-{self.count}.log"
        child = pipeline.run_child(
            [sys.executable, str(Path(__file__).with_name("reference.py"))],
            self.run_dir, self.env, log,
        )
        if child.returncode != 0:
            raise RuntimeError(f"the reference task exited {child.returncode}; see {log}")
        for sample in self._unbracketed:
            sample.ref_after_s = child.wall_s
        self._unbracketed = []
        self.reference_samples.append(child.wall_s)
        return child.wall_s

    def run_timed(self, argv, env: dict, log: Path) -> tuple[pipeline.ChildResult, Sample]:
        """Run one child after a reference run; the next reference run closes it."""
        before = self.reference()
        child = pipeline.run_child(argv, self.run_dir, env, log)
        sample = Sample(child.wall_s, before)
        self._unbracketed.append(sample)
        return child, sample

    def setup(self, record: bool = True) -> bool:
        self.count += 1
        child, sample = self.run_timed(
            [sys.executable, "-m", "synthflow.cli", "--version"],
            self.env, self.logs / f"setup-{self.count}.log",
        )
        if record and child.returncode == 0:
            self.setup_samples.append(sample)
        return child.returncode == 0

    def pipeline(self, traced: bool) -> Repeat:
        self.count += 1
        rep = Repeat(traced)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        for verb in pipeline.VERBS:
            prefix = None
            span_file = self.logs / f"spans-{self.count}-{verb}.json"
            if traced:
                prefix = [sys.executable, "-m", "perfbench.tracer", "--out", str(span_file),
                          "--context", f"{self.workload.name}/{verb}", "--"]
            argv = pipeline.verb_argv(verb, self.config, self.workload.count, prefix)
            child, rep.samples[verb] = self.run_timed(
                argv, self.traced_env if traced else self.env,
                self.logs / f"{self.count}-{verb}.log")
            rep.rss[verb] = child.peak_rss_mb
            problems = pipeline.check_verb(verb, child.returncode, self.out_dir,
                                           self.workload.count,
                                           self.workload.feature_count)
            if not problems:
                problems = self._check_determinism(verb)
            rep.outcomes.append(pipeline.VerbOutcome(verb, problems))
            if traced and span_file.exists():
                rep.span_files[verb] = span_file
        if not traced and not any(o.failed for o in rep.outcomes):
            rep.observations = metrics.output_observations(self.out_dir)
        return rep

    def _check_determinism(self, verb: str) -> list[str]:
        digests = pipeline.artifact_digests(self.out_dir, verb)
        reference = self.reference_digests.setdefault(verb, digests)
        changed = sorted(name for name in set(digests) | set(reference)
                         if digests.get(name) != reference.get(name))
        return [f"{verb}: {name} differs from the first repeat" for name in changed]


def end_to_end(untraced: list[Repeat], setup_samples: list[Sample],
               scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics of one run, at the reference speed unless ``scaled``
    is false.

    A verb's time is the mean over the run's repeats, and ``pipeline_s`` the
    sum of those means: a run has only four to six repeats, and their mean
    moves less from run to run than their median. Start-up time has many
    short samples and takes their median."""
    def t(sample: Sample) -> float:
        return sample.scaled() if scaled else sample.wall_s

    m = {"setup_s": metrics.median([t(s) for s in setup_samples])}
    for verb in pipeline.VERBS:
        m[f"{verb}_s"] = statistics.fmean(t(r.samples[verb]) for r in untraced)
    m["pipeline_s"] = sum(m[f"{verb}_s"] for verb in pipeline.VERBS)
    m["peak_rss_mb"] = metrics.median([max(r.rss.values()) for r in untraced])
    return m


def per_layer(untraced: list[Repeat], traced: list[Repeat], steps: int) -> dict[str, float]:
    m = metrics.medians([
        metrics.span_metrics({verb: json.loads(path.read_text(encoding="utf-8"))
                              for verb, path in r.span_files.items()}, steps)
        for r in traced if set(r.span_files) == set(pipeline.VERBS)
    ])
    m.update(metrics.medians([r.observations for r in untraced if r.observations]))
    for verb in pipeline.VERBS:
        m[f"cli.{verb}.peak_rss_mb"] = metrics.median([r.rss[verb] for r in untraced])
    m["trace.overhead_s"] = (metrics.median([r.pipeline_s for r in traced])
                             - metrics.median([r.pipeline_s for r in untraced]))
    return m


def measure(runner: Runner, seconds: float, traced: bool) -> list[Repeat]:
    """Repeat the start-ups and the pipeline for about ``seconds``."""
    if not runner.setup(record=False):  # warm-up: byte-compiles the package
        raise RuntimeError(f"python -m synthflow.cli --version failed; see {runner.logs}")
    repeats: list[Repeat] = []
    start = time.perf_counter()
    iterations = 0
    while True:
        for _ in range(SETUP_SAMPLES_PER_REPEAT):
            runner.setup()
        repeats.append(runner.pipeline(traced=False))
        if traced:
            repeats.append(runner.pipeline(traced=True))
        iterations += 1
        elapsed = time.perf_counter() - start
        per_iteration = elapsed / iterations
        # stop when the next iteration would end past the run length, so that
        # a run measures at most about --seconds; the first always runs
        if elapsed + per_iteration > min(seconds, HARD_LIMIT_S):
            break
    runner.reference()  # closes the last sample
    if not runner.setup_samples:
        raise RuntimeError(f"every start-up failed; see {runner.logs}")
    return repeats


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_child, which kills its child


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "synthflow" / "cli.py").exists():
        print(f"error: {ROOT / 'src' / 'synthflow'} not found; run from a synthflow "
              f"checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    made = subprocess.run(
        [sys.executable, "-m", "perfbench.fixtures", "--workload", workload.name,
         "--seed", str(args.seed), "--cache", str(WORK / "fixtures")],
        cwd=ROOT, capture_output=True, text=True,
    )
    if made.returncode != 0:
        print(f"error: writing the fixture failed:\n{made.stderr}", file=sys.stderr)
        return 1
    csv_path = Path(made.stdout.strip())
    run_dir = WORK / "runs" / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(workload, args.seed, run_dir, csv_path)
    start = time.perf_counter()
    try:
        repeats = measure(runner, args.seconds, traced)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    untraced = [r for r in repeats if not r.traced]
    outcomes = [o for r in repeats for o in r.outcomes]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    steps = workload.gan["gen_steps"]
    unscaled: dict[str, float] = {}
    if traced:
        values = per_layer(untraced, [r for r in repeats if r.traced], steps)
        table = metrics.PER_LAYER
    else:
        values = end_to_end(untraced, runner.setup_samples)
        unscaled = end_to_end(untraced, runner.setup_samples, scaled=False)
        table = metrics.END_TO_END

    env = environment()
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"pipelines {len(repeats)}  measured {time.perf_counter() - start:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"reference task: {REFERENCE_S} s at the reference speed; median here "
          f"{metrics.median(runner.reference_samples):.4g} s over "
          f"{len(runner.reference_samples)} runs")
    for m in table:
        value = values.get(m.name)
        shown = "missing" if value is None else f"{value:.6g}"
        raw = f"  unscaled {unscaled[m.name]:.6g}" if m.name in unscaled else ""
        print(f"  {m.name:<36} {shown:>12} {m.unit:<15} layer={m.layer} "
              f"feeds={m.feeds}{raw}")
    quality = untraced[-1].observations
    for name in ("auc_gap", "rmse_means"):
        if name in quality and not traced:
            print(f"  {name:<36} {quality[name]:>12.6g} ratio")
    print(f"  {'fail_ratio':<36} {failed / attempted:>12.6g} ratio "
          f"({failed} of {attempted} verb invocations)")
    for o in outcomes:
        for problem in o.problems:
            print(f"  FAILED {problem}")

    result = {
        "correct": failed == 0 and all(m.name in values for m in table),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table if m.name in values},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            "environment": env,
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "result": result,
            "unscaled": unscaled,
            "setup_samples": [vars(s) for s in runner.setup_samples],
            "reference_samples": runner.reference_samples,
            # a floor under every child's ru_maxrss (children start as copies)
            "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "repeats": [{"traced": r.traced,
                         "samples": {v: vars(s) for v, s in r.samples.items()},
                         "rss": r.rss,
                         "observations": r.observations,
                         "problems": [p for o in r.outcomes for p in o.problems]}
                        for r in repeats],
        }, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
