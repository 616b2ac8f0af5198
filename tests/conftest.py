import os

import pytest

from synthflow.worker import blas_threads, set_blas_threads


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    a forked worker (:func:`synthflow.worker.forked`) must be reaped on
    every path."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "running" if pid == 0 else f"{pid} unreaped, status {status}"
    pytest.fail(f"the test left a child process ({state})")


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """Give back the BLAS thread count a test started with: the train verb,
    run in-process, sets it to one, and with one thread a large critic
    trains in two processes."""
    threads = blas_threads()
    yield
    if threads is not None and blas_threads() != threads:
        set_blas_threads(threads)
