"""Seeded, numpy-only input files for the benchmark workloads.

The fixture is a CICIDS2017-shaped flow table with the real 85-column
header: identifier columns that ingest drops, the leading spaces of most
header cells, and the duplicated ``Fwd Header Length`` column. Feature
columns mix binary flags, constant columns, Poisson counts and heavy-tailed
values; about 1% of rows carry ``Infinity`` and about 0.5% ``NaN`` in the
rate columns, so ingest's clamp and drop paths both run.

The same (rows, labels, seed) always gives a byte-identical file.
Files are cached under a caller-chosen directory by workload and seed.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

# Header of the labelled-flows CICIDS2017 files, spaces included.
CICIDS_HEADER = (
    "Flow ID, Source IP, Source Port, Destination IP, Destination Port, "
    "Protocol, Timestamp, Flow Duration, Total Fwd Packets, Total Backward "
    "Packets,Total Length of Fwd Packets, Total Length of Bwd Packets, Fwd "
    "Packet Length Max, Fwd Packet Length Min, Fwd Packet Length Mean, Fwd "
    "Packet Length Std,Bwd Packet Length Max, Bwd Packet Length Min, Bwd "
    "Packet Length Mean, Bwd Packet Length Std,Flow Bytes/s, Flow Packets/s, "
    "Flow IAT Mean, Flow IAT Std, Flow IAT Max, Flow IAT Min,Fwd IAT Total, "
    "Fwd IAT Mean, Fwd IAT Std, Fwd IAT Max, Fwd IAT Min,Bwd IAT Total, Bwd "
    "IAT Mean, Bwd IAT Std, Bwd IAT Max, Bwd IAT Min,Fwd PSH Flags, Bwd PSH "
    "Flags, Fwd URG Flags, Bwd URG Flags, Fwd Header Length, Bwd Header "
    "Length,Fwd Packets/s, Bwd Packets/s, Min Packet Length, Max Packet "
    "Length, Packet Length Mean, Packet Length Std, Packet Length Variance,"
    "FIN Flag Count, SYN Flag Count, RST Flag Count, PSH Flag Count, ACK Flag "
    "Count, URG Flag Count, CWE Flag Count, ECE Flag Count, Down/Up Ratio, "
    "Average Packet Size, Avg Fwd Segment Size, Avg Bwd Segment Size, Fwd "
    "Header Length,Fwd Avg Bytes/Bulk, Fwd Avg Packets/Bulk, Fwd Avg Bulk "
    "Rate, Bwd Avg Bytes/Bulk, Bwd Avg Packets/Bulk,Bwd Avg Bulk Rate,"
    "Subflow Fwd Packets, Subflow Fwd Bytes, Subflow Bwd Packets, Subflow Bwd "
    "Bytes,Init_Win_bytes_forward, Init_Win_bytes_backward, act_data_pkt_fwd, "
    "min_seg_size_forward,Active Mean, Active Std, Active Max, Active Min,"
    "Idle Mean, Idle Std, Idle Max, Idle Min, Label"
).split(",")

CICIDS_FEATURE_COUNT = 78

_IDENTIFIERS = {
    "Flow ID", "Source IP", "Source Port", "Destination IP",
    "Destination Port", "Timestamp",
}
_CONSTANT = {
    "Bwd PSH Flags", "Bwd URG Flags", "CWE Flag Count", "Fwd Avg Bytes/Bulk",
    "Fwd Avg Packets/Bulk", "Fwd Avg Bulk Rate", "Bwd Avg Bytes/Bulk",
    "Bwd Avg Packets/Bulk", "Bwd Avg Bulk Rate",
}
_FLAGS = {
    "Fwd PSH Flags", "Fwd URG Flags", "FIN Flag Count", "SYN Flag Count",
    "RST Flag Count", "PSH Flag Count", "ACK Flag Count", "URG Flag Count",
    "ECE Flag Count",
}
_COUNTS = {
    "Total Fwd Packets", "Total Backward Packets", "Subflow Fwd Packets",
    "Subflow Bwd Packets", "act_data_pkt_fwd", "Down/Up Ratio",
}
_RATES = ("Flow Bytes/s", "Flow Packets/s")
# Heavy-tailed columns written as integers (durations in microseconds,
# byte totals, header lengths); every other remaining column is a float.
_INTEGER_TAILS = ("Duration", "IAT", "Total Length", "Length Max",
                  "Length Min", "Header Length", "Init_Win", "Subflow",
                  "Active", "Idle")

_CHUNK_ROWS = 4096


def _column_kind(name: str) -> str:
    if name in _IDENTIFIERS:
        return name
    if name in ("Protocol", "Label", "min_seg_size_forward"):
        return name
    if name in _CONSTANT:
        return "constant"
    if name in _FLAGS:
        return "flag"
    if name in _COUNTS:
        return "count"
    if name in _RATES:
        return "rate"
    if any(part in name for part in _INTEGER_TAILS) and "Mean" not in name \
            and "Std" not in name:
        return "int_tail"
    return "float_tail"


def _fmt_int(values: np.ndarray) -> list[str]:
    return [str(v) for v in values.tolist()]


def _fmt_float(values: np.ndarray) -> list[str]:
    return [repr(v) for v in values.tolist()]


def write_cicids_csv(path, rows: int, labels, seed: int) -> None:
    """Write a CICIDS2017-shaped CSV of ``rows`` flows.

    ``labels`` is a sequence of (label text, share) pairs whose shares sum
    to 1. Each label shifts the location of every heavy-tailed and count
    column and the probability of every flag, so classes are separable but
    overlap.
    """
    names = [h.strip() for h in CICIDS_HEADER]
    kinds = [_column_kind(n) for n in names]
    label_texts = [text for text, _ in labels]
    shares = np.array([share for _, share in labels], dtype=np.float64)
    if not np.isclose(shares.sum(), 1.0):
        raise ValueError(f"label shares sum to {shares.sum()}, not 1")

    rng = np.random.default_rng([seed, 2017])
    width = len(names)
    # per-column, per-label distribution parameters
    loc = rng.uniform(1.0, 9.0, size=width)
    shift = rng.normal(0.0, 0.8, size=(len(labels), width))
    spread = rng.uniform(0.5, 2.0, size=width)
    flag_p = rng.uniform(0.05, 0.6, size=(len(labels), width))
    count_mean = rng.uniform(1.0, 30.0, size=width)
    count_scale = rng.uniform(0.5, 2.0, size=(len(labels), width))

    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CICIDS_HEADER) + "\n")
        done = 0
        while done < rows:
            n = min(_CHUNK_ROWS, rows - done)
            lab = rng.choice(len(labels), size=n, p=shares)
            special = rng.uniform(size=n)
            is_inf = special < 0.01
            is_nan = (special >= 0.01) & (special < 0.015)
            cols: list[list[str]] = []
            for j, kind in enumerate(kinds):
                if kind == "Flow ID":
                    a = rng.integers(0, 256, size=(n, 2))
                    ports = rng.integers(1024, 65536, size=n)
                    cols.append([
                        f"192.168.10.{x}-172.16.0.{y}-{p}-80-6"
                        for x, y, p in zip(a[:, 0].tolist(), a[:, 1].tolist(),
                                           ports.tolist())
                    ])
                elif kind in ("Source IP", "Destination IP"):
                    a = rng.integers(0, 256, size=n)
                    cols.append([f"192.168.10.{x}" for x in a.tolist()])
                elif kind in ("Source Port", "Destination Port"):
                    cols.append(_fmt_int(rng.integers(0, 65536, size=n)))
                elif kind == "Timestamp":
                    minute = rng.integers(0, 60, size=n)
                    cols.append([f"5/7/2017 9:{m:02d}" for m in minute.tolist()])
                elif kind == "Protocol":
                    cols.append(_fmt_int(rng.choice([6, 17, 0], size=n,
                                                    p=[0.85, 0.13, 0.02])))
                elif kind == "min_seg_size_forward":
                    cols.append(_fmt_int(rng.choice([20, 32, 0], size=n,
                                                    p=[0.6, 0.35, 0.05])))
                elif kind == "Label":
                    cols.append([label_texts[k] for k in lab.tolist()])
                elif kind == "constant":
                    cols.append(["0"] * n)
                elif kind == "flag":
                    p = flag_p[lab, j]
                    cols.append(_fmt_int((rng.uniform(size=n) < p).astype(np.int64)))
                elif kind == "count":
                    lam = count_mean[j] * count_scale[lab, j]
                    cols.append(_fmt_int(rng.poisson(lam)))
                else:
                    v = rng.lognormal(loc[j] + shift[lab, j], spread[j])
                    if kind == "int_tail":
                        cols.append(_fmt_int(np.floor(v).astype(np.int64)))
                    elif kind == "float_tail":
                        cols.append(_fmt_float(v))
                    else:
                        cells = _fmt_float(v)
                        for i in np.flatnonzero(is_inf).tolist():
                            cells[i] = "Infinity"
                        if names[j] == "Flow Bytes/s":
                            for i in np.flatnonzero(is_nan).tolist():
                                cells[i] = "NaN"
                        cols.append(cells)
            fh.write("\n".join(",".join(cells) for cells in zip(*cols)))
            fh.write("\n")
            done += n
    os.replace(tmp, path)


CACHE_KEEP = 6


def cached_csv(cache_dir: Path, workload, seed: int) -> Path:
    """Return the fixture for (workload, seed), writing it on first use.

    Only the ``CACHE_KEEP`` most recently used files are kept, so a long
    series of seeds does not fill the disk.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{workload.name}-{seed}.csv"
    if path.exists():
        path.touch()
    else:
        workload.write_fixture(path, seed)
    cached = sorted(cache_dir.glob("*.csv"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in cached[CACHE_KEEP:]:
        old.unlink()
    return path


def main(argv=None) -> int:
    """Write (or reuse) one workload's fixture and print its path.

    The benchmark runs this as a child process, so that building the file
    does not raise the benchmark's own peak memory, which every child it
    spawns inherits as a floor of its ``ru_maxrss``.
    """
    import argparse

    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True, type=Path)
    args = parser.parse_args(argv)
    print(cached_csv(args.cache, WORKLOADS[args.workload], args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
