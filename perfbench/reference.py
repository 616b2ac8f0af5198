"""A fixed reference task that measures how fast the host runs right now.

    python3 perfbench/reference.py

The benchmark runs this as a child process between pipelines and scales its
timings by the reference's wall time (see :func:`perfbench.run.end_to_end`).
The task imports nothing from synthflow, so a change to the program under
test cannot move it. It does in small what the verbs do: start an
interpreter and import numpy, format and parse floats in Python (as ingest
and generate do with CSV cells), multiply matrices on one BLAS thread (as
training does) and touch freshly allocated memory (as every large array
does). It prints the time of each part as one JSON object.
"""

from __future__ import annotations

import json
import time


def main() -> int:
    t0 = time.perf_counter()
    import numpy as np

    t1 = time.perf_counter()
    cells = [repr(i * 0.37) for i in range(30_000)]
    total = sum(float(c) for c in cells)
    t2 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256) / 256.0
    b = a
    for _ in range(25):
        b = np.tanh(b @ a)
    t3 = time.perf_counter()
    block = np.ones(4_000_000)  # 32 MB of fresh pages
    total += float(block[::4096].sum() + b[0, 0])
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "python_s": t2 - t1, "blas_s": t3 - t2,
                      "memory_s": t4 - t3, "checksum": round(total, 3)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
