"""Command-line pipeline: ingest, train, generate, evaluate, report.

Every command takes one JSON run config (``--config``), with ``--seed`` and
``--out`` as overriding flags. Relative paths inside the config resolve
against the config file's directory. Commands validate the full config
before touching the filesystem and write a manifest listing their outputs;
identical (config, inputs, seed) runs reproduce identical data artifacts
byte for byte (manifests and the train log's wall_ms column carry wall-clock
measurements and are the documented exception).

Every artifact is replaced atomically: it is written to ``<name>.tmp`` and
renamed over the old file only once complete, so a failed or interrupted
command leaves the previous file or none, never a partial one. The dataset
cache is two files, the matrix ``dataset.npy`` and the small
``dataset.json`` that describes it; ingest removes the old ``dataset.json``
before it writes the new matrix and writes ``dataset.json`` last, so an
interrupted ingest leaves no ``dataset.json`` (later commands exit 5)
rather than old labels and stats beside a new matrix. The model checkpoint
is two files the same way, the parameters ``model.npy`` and the header
``model.sgmodel``, saved in the same order. A train that diverges removes
both files of any model left by an earlier run. Each command removes what
later commands built from its earlier output (ingest: train, generate,
evaluate and report; train: generate, evaluate and report; evaluate: its
own and report's), so later commands stop with exit code 5 instead of using
a stale model or report.

Exit codes: 0 success, 2 config/validation error, 3 data error, 4 training
divergence, 5 missing prerequisite artifact. A run config or schema that
cannot be read or decoded is exit 2, a dataset cache document, model
checkpoint, manifest or quality report exit 3, and so is an artifact that
cannot be written; the message names the file.
"""

from __future__ import annotations

import argparse
import ctypes
import re
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, schemas
from .dataio import (
    DataError,
    DatasetMatrix,
    FeatureSchema,
    atomic_write,
    check_count,
    clean_numeric,
    config_from_dict,
    filter_by_label,  # for perfbench/tracer.py WRAPS; goes when ROADMAP item 1 allows it absent
    load_dataset,
    matrix_path,
    minmax_normalize,
    parse_csv,
    read_json,
    save_dataset,
    schema_from_json,
    write_csv,
    write_json,
    write_matrix_csv,
)
from .evaluator import EvalConfig, QualityReport, default_histogram_features, evaluate
from .gan import (
    GanConfig,
    TrainingDiverged,
    generate,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
    train,
    write_train_log,
)
from .worker import set_blas_threads

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_MISSING = 5

# Most parameters a run config's two networks may hold together: 80 MB as one
# float64 vector, of which training keeps several. The reference nets hold 178,895.
MAX_PARAMETERS = 10_000_000
# Most cells `generate --count` may ask for: the (count, features) float64
# output is held whole, 800 MB at this cap (about 1.3M CICIDS2017 rows).
MAX_SYNTHETIC_CELLS = 100_000_000

# Both of train's heap thresholds: glibc's 64-bit ceiling for the mmap threshold,
# far above the few MB a generator step frees and the next step faults back in.
HEAP_KEEP_BYTES = 32 * 1024 * 1024
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters

DATASET_FILE = "dataset.json"
DATASET_MATRIX_FILE = matrix_path(DATASET_FILE).name
SUMMARY_FILE = "ingest_summary.txt"
MODEL_FILE = "model.sgmodel"
MODEL_MATRIX_FILE = matrix_path(MODEL_FILE).name
LASTGOOD_MODEL_FILE = "model_lastgood.sgmodel"
LASTGOOD_MODEL_MATRIX_FILE = matrix_path(LASTGOOD_MODEL_FILE).name
TRAIN_LOG_FILE = "train_log.csv"
SYNTH_FILE = "synthetic.csv"
REPORT_JSON_FILE = "quality_report.json"
IMPORTANCE_FILE = "feature_importance.csv"
REPORT_MD_FILE = "report.md"

LOW_SAMPLE_THRESHOLD = 5000
TOP_FEATURES = 15

# Reference quality targets printed next to measured values in reports.
REFERENCE_RMSE_MEANS = 0.10
REFERENCE_AUC = 0.75

DATASET_KINDS = (*schemas.BUNDLED_SCHEMAS, "custom")


class ConfigError(ValueError):
    """Run config is missing, malformed, or fails validation."""


class MissingArtifactError(FileNotFoundError):
    """A prerequisite artifact from an earlier command is absent."""


@dataclass(frozen=True)
class RunConfig:
    dataset: str
    csv: tuple[str, ...]
    labels: tuple[str, ...]
    out: str
    seed: int = 0
    schema: str | None = None
    has_header: bool | None = None
    gan: GanConfig = GanConfig()
    eval: EvalConfig = EvalConfig()

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_KINDS:
            raise ValueError(f"dataset must be one of {DATASET_KINDS}, got {self.dataset!r}")
        if not isinstance(self.csv, tuple) or not self.csv or not all(
            isinstance(p, str) for p in self.csv
        ):
            raise ValueError("'csv' must be a nonempty list of paths")
        if not isinstance(self.labels, tuple) or not self.labels or not all(
            isinstance(lbl, str) and lbl.strip() for lbl in self.labels
        ):
            raise ValueError("'labels' must be a nonempty list of label texts")
        if not isinstance(self.out, str) or not self.out:
            raise ValueError("'out' must be a nonempty directory path")
        check_count("seed", self.seed, 0)
        if self.schema is None and self.dataset == "custom":
            raise ValueError("dataset kind 'custom' needs a schema path")
        if self.schema is not None and not isinstance(self.schema, str):
            raise ValueError("'schema' must be a path string")
        if self.has_header is not None and not isinstance(self.has_header, bool):
            raise ValueError("'has_header' must be a boolean")

    @property
    def out_dir(self) -> Path:
        return Path(self.out)

    def headered(self) -> bool:
        if self.has_header is not None:
            return self.has_header
        return self.dataset != "nsl-kdd"  # NSL-KDD files ship headerless

    @cached_property
    def feature_schema(self) -> FeatureSchema:
        """The schema file's, decoded on first use, or the bundled one."""
        if self.schema is not None:
            return schema_from_json(self.schema)
        return schemas.BUNDLED_SCHEMAS[self.dataset]()


def load_run_config(
    path, seed_override: int | None = None, out_override: str | None = None
) -> RunConfig:
    """Decode and validate the JSON run config; flags win over file values.
    Each dataclass checks its own fields; the checks that need the schema
    follow here."""
    try:
        doc = read_json(path)
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if isinstance(doc.get("gan"), dict) and "seed" in doc["gan"]:
        raise ConfigError("'gan.seed' is not a setting; set 'seed' or pass --seed")
    for key, section in (("gan", GanConfig), ("eval", EvalConfig)):
        try:
            doc[key] = config_from_dict(section, doc.get(key, {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad '{key}' config: {exc}") from exc
    overrides = {"seed": seed_override, "out": out_override}
    doc.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        cfg = config_from_dict(RunConfig, doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    # relative paths resolve against the config's directory (an absolute one
    # stays as it is), and the run seed is the single source of randomness
    base = Path(path).resolve().parent
    cfg = replace(
        cfg,
        csv=tuple(str(base / p) for p in cfg.csv),
        out=cfg.out if out_override is not None else str(base / cfg.out),
        schema=None if cfg.schema is None else str(base / cfg.schema),
        gan=replace(cfg.gan, seed=cfg.seed),
    )
    try:
        names = cfg.feature_schema.feature_names()
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    if (count := parameter_count(cfg.gan, len(names))) > MAX_PARAMETERS:
        raise ConfigError(
            f"bad 'gan' config: noise_dim, generator_hidden and critic_hidden give "
            f"{count} parameters on {len(names)} features, over {MAX_PARAMETERS}"
        )
    selected = cfg.eval.histogram_features
    unknown = [f for f in selected or () if f not in names]
    if unknown:
        raise ConfigError(
            f"eval.histogram_features {unknown} are not schema features; "
            f"candidates: {names}"
        )
    files: dict[str, str] = {}
    for feature in default_histogram_features(names) if selected is None else selected:
        name = histogram_file_name(feature)
        if name in files:  # two features, or one feature listed twice
            raise ConfigError(
                f"histogram features {files[name]!r} and {feature!r} would share the file {name}"
            )
        files[name] = feature
    return cfg


def write_manifest(
    cfg: RunConfig,
    command: str,
    artifacts: list[str],
    timings_ms: dict,
    fingerprint: dict | None = None,
    status: str = "ok",
    extra: dict | None = None,
) -> Path:
    name = f"{command}_manifest.json"
    doc = {
        "command": command,
        "tool_version": __version__,
        "status": status,
        "config": asdict(cfg),
        "dataset_fingerprint": fingerprint,
        "artifacts": sorted(artifacts + [name]),
        "timings_ms": timings_ms,
    }
    if extra:
        doc.update(extra)
    path = cfg.out_dir / name
    write_json(path, doc, indent=2)
    return path


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(
            f"{path} not found; run the '{producer}' command first"
        )
    return path


def _feature_slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def histogram_file_name(feature: str) -> str:
    return f"hist_{_feature_slug(feature)}.csv"


def _top_features(report: QualityReport) -> list[tuple[str, float]]:
    """The TOP_FEATURES largest importances; ties keep schema feature order,
    the order ``evaluate`` writes the importances in (the sort is stable)."""
    ranked = sorted(report.importances.items(), key=lambda kv: -kv[1])
    return ranked[:TOP_FEATURES]


def _manifest(doc) -> dict:
    """``read_json`` decoder: checks the manifest fields later verbs read."""
    if not isinstance(doc, dict):
        raise DataError("not a JSON object")
    artifacts = doc.get("artifacts", [])
    if not isinstance(artifacts, list) or not all(isinstance(a, str) for a in artifacts):
        raise DataError("'artifacts' is not a list of file names")
    if not isinstance(doc.get("dataset_fingerprint"), (dict, type(None))):
        raise DataError("'dataset_fingerprint' is neither an object nor null")
    return doc


def _remove_downstream_artifacts(out_dir: Path, commands) -> None:
    """Delete what an earlier run of each of ``commands`` built: every
    artifact its manifest lists, the manifest included."""
    for command in commands:
        manifest = out_dir / f"{command}_manifest.json"
        if not manifest.exists():
            continue
        for name in read_json(manifest, _manifest).get("artifacts", []):
            (out_dir / Path(name).name).unlink(missing_ok=True)
        manifest.unlink(missing_ok=True)


def cmd_ingest(cfg: RunConfig) -> int:
    for p in cfg.csv:
        if not Path(p).is_file():
            raise ConfigError(f"input CSV not found or not a file: {p}")
    schema = cfg.feature_schema
    stamps = [time.perf_counter()]

    # every header is checked before any data row is read; the rows of all
    # files then stream through clean_numeric one block at a time
    names = None if cfg.headered() else [c.name for c in schema.columns]
    table = parse_csv(cfg.csv, names)
    values, labels, label_counts, dropped, stats = clean_numeric(table, schema, cfg.labels)
    stamps.append(time.perf_counter())
    data = DatasetMatrix(minmax_normalize(values, stats), labels, stats, schema)
    stamps.append(time.perf_counter())
    kept_rows = label_counts.total()
    parsed_rows = kept_rows + dropped

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _remove_downstream_artifacts(cfg.out_dir, ("train", "generate", "evaluate", "report"))
    save_dataset(data, cfg.out_dir / DATASET_FILE)  # the matrix, then dataset.json
    stamps.append(time.perf_counter())
    ms = (np.diff(stamps) * 1000.0).tolist()
    timings_ms = dict(zip(("parse_clean", "normalize", "save"), ms))
    timings_ms["total"] = sum(ms[:2])  # the work before the save, as in the other verbs

    lines = [
        "ingest summary",
        "==============",
        f"dataset kind: {cfg.dataset}",
        f"rows parsed: {parsed_rows}",
        f"rows dropped (unparseable): {dropped}",
        f"rows kept: {kept_rows}",
        f"feature count: {len(schema.feature_names())}",
        "label histogram:",
    ]
    for name, count in sorted(label_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {name}: {count}")
    lines.append(f"selected labels: {', '.join(cfg.labels)}")
    lines.append(f"rows after label filter: {data.n_rows}")
    if data.n_rows < LOW_SAMPLE_THRESHOLD:
        warning = (
            f"warning: only {data.n_rows} rows match the selected labels "
            f"(< {LOW_SAMPLE_THRESHOLD}); expect weak statistical relevance"
        )
        lines.append(warning)
        print(warning, file=sys.stderr)
    with atomic_write(cfg.out_dir / SUMMARY_FILE) as fh:
        fh.write("\n".join(lines) + "\n")

    fingerprint = {
        "rows_parsed": parsed_rows,
        "rows_dropped": dropped,
        "rows_kept": kept_rows,
        "rows_selected": data.n_rows,
        "features": len(schema.feature_names()),
    }
    write_manifest(
        cfg, "ingest", [DATASET_FILE, DATASET_MATRIX_FILE, SUMMARY_FILE],
        timings_ms, fingerprint,
    )
    print(
        f"ingested {data.n_rows} rows "
        f"({len(schema.feature_names())} features) -> {cfg.out_dir / DATASET_FILE}"
    )
    return EXIT_OK


def _keep_freed_heap() -> None:
    """Have glibc's allocator keep up to HEAP_KEEP_BYTES of freed memory, for
    the whole process. No result changes; a C library without ``mallopt``
    (not glibc) keeps its own allocator."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # TypeError: Windows loads no CDLL(None)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD):
        mallopt(param, HEAP_KEEP_BYTES)


def _load_ingested(cfg: RunConfig) -> DatasetMatrix:
    """The dataset cache, which must hold the run config's schema: the
    config was checked against that schema, and later verbs compute on the
    cache's."""
    path = _require(cfg.out_dir / DATASET_FILE, "ingest")
    data = load_dataset(path)
    if data.schema != cfg.feature_schema:
        raise DataError(
            f"{path} was ingested under another schema than the run config's; "
            "run the 'ingest' command again"
        )
    return data


def cmd_train(cfg: RunConfig) -> int:
    data = _load_ingested(cfg)
    fingerprint = {"rows": data.n_rows, "features": data.features.shape[1]}
    every = max(1, cfg.gan.gen_steps // 10)

    def progress(record):
        if record.step % every == 0 or record.step == cfg.gan.gen_steps:
            print(
                f"step {record.step}/{cfg.gan.gen_steps} "
                f"critic_loss={record.critic_loss:.4f} "
                f"generator_loss={record.generator_loss:.4f} "
                f"w_estimate={record.penalty_mean - record.critic_loss:.4f}",
                file=sys.stderr,
            )

    # here, not in gan.train: library callers keep their allocator and their
    # BLAS threads; one BLAS thread lets training use a second core
    _keep_freed_heap()
    set_blas_threads(1)
    t0 = time.perf_counter()
    failure = None
    try:
        model, records = train(data, cfg.gan, progress)
    except TrainingDiverged as exc:
        model, records, failure = exc.model, exc.records, exc
    wall_ms = (time.perf_counter() - t0) * 1000.0

    files = [(MODEL_FILE, MODEL_MATRIX_FILE), (LASTGOOD_MODEL_FILE, LASTGOOD_MODEL_MATRIX_FILE)]
    saved, stale = files if failure is None else files[::-1]
    # the other outcome's model, left by an earlier run, is in no manifest
    # from here on; what was built from the earlier model goes too
    for name in stale:
        (cfg.out_dir / name).unlink(missing_ok=True)
    _remove_downstream_artifacts(cfg.out_dir, ("generate", "evaluate", "report"))
    save_checkpoint(model, cfg.out_dir / saved[0])
    write_train_log(records, cfg.out_dir / TRAIN_LOG_FILE)
    write_manifest(
        cfg, "train", [*saved, TRAIN_LOG_FILE], {"total": wall_ms}, fingerprint,
        status="ok" if failure is None else "diverged",
        extra=None if failure is None else {"failure_step": failure.step},
    )
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"trained {cfg.gan.gen_steps} generator steps -> {cfg.out_dir / MODEL_FILE}")
    return EXIT_OK


def _load_model_and_data(cfg: RunConfig):
    data = _load_ingested(cfg)
    model = load_checkpoint(_require(cfg.out_dir / MODEL_FILE, "train"))
    width = data.features.shape[1]
    if model.feature_count != width:
        raise DataError(
            f"checkpoint generates {model.feature_count} features but the "
            f"dataset schema has {width}"
        )
    return model, data


def cmd_generate(cfg: RunConfig, count: int) -> int:
    if count < 1:
        raise ConfigError(f"--count must be >= 1, got {count}")
    if count * (width := len(cfg.feature_schema.feature_names())) > MAX_SYNTHETIC_CELLS:
        raise ConfigError(
            f"--count {count} on {width} features is over {MAX_SYNTHETIC_CELLS} cells"
        )
    model, data = _load_model_and_data(cfg)
    t0 = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, 1])
    rows = generate(model, count, rng, stats=data.stats)
    t1 = time.perf_counter()

    names = data.schema.feature_names()
    out_path = cfg.out_dir / SYNTH_FILE
    write_matrix_csv(out_path, names, rows)  # this process and one forked worker
    t2 = time.perf_counter()
    # total is the generation alone; the write is timed beside it, as ingest's save
    timings_ms = {"total": (t1 - t0) * 1000.0, "write": (t2 - t1) * 1000.0}
    write_manifest(
        cfg, "generate", [SYNTH_FILE], timings_ms,
        {"rows": count, "features": len(names)},
    )
    print(f"generated {count} synthetic rows -> {out_path}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig) -> int:
    model, data = _load_model_and_data(cfg)
    t0 = time.perf_counter()
    synth = generate(model, data.n_rows, np.random.default_rng([cfg.seed, 3]))
    t1 = time.perf_counter()
    report = evaluate(data, synth, cfg.eval, np.random.default_rng([cfg.seed, 2]))
    t2 = time.perf_counter()

    # an earlier evaluate's histograms may be of other features
    _remove_downstream_artifacts(cfg.out_dir, ("evaluate", "report"))
    artifacts = [REPORT_JSON_FILE, IMPORTANCE_FILE]
    write_json(cfg.out_dir / REPORT_JSON_FILE, asdict(report), indent=2)

    names = data.schema.feature_names()
    ranked = enumerate(_top_features(report), start=1)
    write_csv(
        cfg.out_dir / IMPORTANCE_FILE,
        ("rank", "feature", "weight"),
        ((rank, name, weight) for rank, (name, weight) in ranked),
    )

    for hist in report.histograms:
        fname = histogram_file_name(hist.feature)
        artifacts.append(fname)
        write_csv(
            cfg.out_dir / fname,
            ("feature", "bin_low", "bin_high", "count_real", "count_synth"),
            zip(
                repeat(hist.feature), hist.edges, hist.edges[1:],
                hist.count_real, hist.count_synth,
            ),
        )

    # total is the synthetic rows and the scoring; the files are timed beside it
    timings_ms = {
        "total": (t2 - t0) * 1000.0,
        "generate": (t1 - t0) * 1000.0,
        "write": (time.perf_counter() - t2) * 1000.0,
    }
    write_manifest(
        cfg, "evaluate", artifacts, timings_ms,
        {"rows": data.n_rows, "features": len(names)},
    )
    print(
        f"auc={report.auc:.4f} (reference {REFERENCE_AUC:.2f})  "
        f"rmse_means={report.rmse_means:.4f} (reference {REFERENCE_RMSE_MEANS:.2f})  "
        f"rmse_hist={report.rmse_hist:.4f}"
    )
    print(f"wrote {REPORT_JSON_FILE} and {len(report.histograms)} histogram CSVs")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    report_path = _require(cfg.out_dir / REPORT_JSON_FILE, "evaluate")
    report = read_json(report_path, QualityReport.from_dict)
    t0 = time.perf_counter()

    # fold in the manifests' reproducible fields (fingerprints, artifact
    # lists); wall-clock timings stay out so the report is byte-stable
    manifests = {}
    for path in sorted(cfg.out_dir.glob("*_manifest.json")):
        if path.name == "report_manifest.json":
            continue
        manifests[path.name] = read_json(path, _manifest)

    lines = [
        "# Synthetic flow quality report",
        "",
        f"- dataset kind: {cfg.dataset}",
        f"- selected labels: {', '.join(cfg.labels)}",
        f"- seed: {cfg.seed}",
        f"- real rows: {report.n_real}, synthetic rows: {report.n_synth}, "
        f"features: {len(report.importances)}",
        "",
        "## Quality metrics",
        "",
        "Reference values are the published quality targets for this "
        "pipeline; they are reference points, not pass thresholds.",
        "",
        "| metric | measured | reference |",
        "|---|---|---|",
        f"| rmse_means | {report.rmse_means:.4f} | {REFERENCE_RMSE_MEANS:.2f} |",
        f"| auc | {report.auc:.4f} | {REFERENCE_AUC:.2f} |",
        f"| rmse_hist | {report.rmse_hist:.4f} | - |",
        "",
        "An AUC near 0.5 means the evaluator cannot tell synthetic rows "
        "from real ones.",
        "",
        "## Top features (evaluator split gain)",
        "",
        "| rank | feature | weight |",
        "|---|---|---|",
    ]
    for rank, (name, weight) in enumerate(_top_features(report), start=1):
        lines.append(f"| {rank} | {name} | {weight:.4f} |")
    lines += ["", "## Histograms", ""]
    for hist in report.histograms:
        lines.append(f"- {hist.feature}: `{histogram_file_name(hist.feature)}`")
    fp = manifests.get("ingest_manifest.json", {}).get("dataset_fingerprint")
    if fp:
        lines += [
            "",
            "## Ingest fingerprint",
            "",
            f"- rows parsed: {fp.get('rows_parsed')}",
            f"- rows dropped (unparseable): {fp.get('rows_dropped')}",
            f"- rows matching the selected labels: {fp.get('rows_selected')}",
        ]
    artifact_names = sorted(
        {name for doc in manifests.values() for name in doc.get("artifacts", [])}
    )
    if artifact_names:
        lines += ["", "## Run artifacts", ""]
        lines += [f"- `{name}`" for name in artifact_names]
    text = "\n".join(lines) + "\n"

    with atomic_write(cfg.out_dir / REPORT_MD_FILE) as fh:
        fh.write(text)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    write_manifest(cfg, "report", [REPORT_MD_FILE], {"total": wall_ms})
    print(f"wrote {cfg.out_dir / REPORT_MD_FILE}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthflow",
        description="Train a GP-WGAN on attack flow features, generate "
        "synthetic flows, and score their quality.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ingest", "parse, clean, normalize, and cache the input CSVs"),
        ("train", "train the GAN on the ingested cache"),
        ("generate", "sample synthetic rows from a trained model"),
        ("evaluate", "score synthetic data against the real cache"),
        ("report", "merge evaluation outputs into one readable report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "generate":
            p.add_argument(
                "--count", type=int, default=1000,
                help="number of synthetic rows (default 1000)",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.seed, args.out)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "generate":
            return cmd_generate(cfg, args.count)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        return cmd_report(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # an artifact that cannot be written; the message names it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
