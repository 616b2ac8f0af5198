import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    the forked workers of ``dataio`` must be reaped on every path."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "running" if pid == 0 else f"{pid} unreaped, status {status}"
    pytest.fail(f"the test left a child process ({state})")
