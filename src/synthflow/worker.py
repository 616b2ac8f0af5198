"""A second process for the work of one call: a worker made with ``os.fork``.

:func:`forked` starts the worker and hands this process a :class:`Channel`
to it: requests go down one pipe and replies come up another, pickled. The
worker inherits this process's memory, so a request names its work and the
data the worker already holds need not travel. Three callers use it:
:func:`two_process_map`, which parses ingest blocks and formats the rows of
``synthetic.csv``; the evaluator's tree fit, whose worker runs the same
boosting rounds and searches half of the features at every node, so only
splits travel; and training, whose worker computes each critic update's
gradient penalty and applies half of its RMSProp update.

The worker leaves by ``os._exit`` alone: it flushes no inherited buffer,
runs no ``atexit`` hook and never unwinds into the caller's frames. A fork
copies only the calling thread, so a worker's work must need no other
thread of this process. The map's and the fit's workers run no BLAS
product. The penalty worker runs little else, so training forks it only
while this process's OpenBLAS runs one thread (:func:`blas_threads`), which
computes every product in the calling thread. Two processes that each ran a
pool of BLAS threads would also oversubscribe the cores: on 2 cores, a
reference-net training step took 150-171 ms that way, against 28-32 ms in
one process.
"""

from __future__ import annotations

import ctypes
import os
import pickle
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from itertools import chain, islice


class _Failure(str):
    """The type and text of the exception that ended a worker's ``serve``,
    sent up in place of a reply."""


class Channel:
    """One process's ends of the two pipes between this process and its
    worker: ``send`` pickles an object down ``outbox``, ``receive`` loads
    one from ``inbox``. A :class:`_Failure` received raises
    ``OSError("the worker <what> failed: <type>: <text>")``."""

    def __init__(self, inbox, outbox, what: str):
        self._inbox, self._outbox, self._what = inbox, outbox, what

    def send(self, obj) -> None:
        pickle.dump(obj, self._outbox, pickle.HIGHEST_PROTOCOL)
        self._outbox.flush()

    def receive(self):
        obj = pickle.load(self._inbox)
        if isinstance(obj, _Failure):
            raise OSError(f"the worker {self._what} failed: {obj}")
        return obj


def _pipe():
    """A pipe's read and write ends as binary file objects."""
    read_fd, write_fd = os.pipe()
    return open(read_fd, "rb"), open(write_fd, "wb")


@contextmanager
def forked(serve, what: str):
    """Run ``serve(channel)`` in a worker made with ``os.fork`` while the
    block runs, and yield this process's :class:`Channel` to it. The worker
    is reaped when the block ends, on every path.

    The worker exits 0 once ``serve`` returns, or raises ``EOFError``: its
    requests end when this process closes its ends of the pipes, which it
    does as the block ends, before the reap. If ``serve`` raises anything
    else, its type and text go up in place of a reply and the worker exits
    255. A worker that failed, or was killed by a signal, raises
    ``OSError("the worker <what> exited with <code>")`` after the block. So
    does an ``EOFError``, a truncated pickle or a broken pipe from the
    block: that is how a worker that stopped early shows to a process
    reading or writing its pipes. Any other error of the block wins over
    the worker's, such as the reason a worker sent up its pipe.
    """
    (inbox, to_worker), (from_worker, outbox) = _pipe(), _pipe()
    with inbox, to_worker, from_worker, outbox:
        pid = os.fork()
        if pid == 0:
            code = 255
            try:
                # the worker drops its copies of this process's ends: its
                # input then ends when this process closes to_worker, and its
                # writes fail once this process closes from_worker
                to_worker.close()
                from_worker.close()
                channel = Channel(inbox, outbox, what)
                try:
                    serve(channel)
                except EOFError:
                    pass
                except Exception as exc:  # the reason goes up in place of a reply
                    with suppress(OSError):
                        channel.send(_Failure(f"{type(exc).__name__}: {exc}"))
                    raise
                code = 0
            finally:
                os._exit(code)
        inbox.close()
        outbox.close()
        ended_early = False
        try:
            with to_worker, from_worker:  # closed first, so the worker ends
                yield Channel(from_worker, to_worker, what)
        except (EOFError, pickle.UnpicklingError, BrokenPipeError):  # its exit code says why
            ended_early = True
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status or ended_early:
            raise OSError(f"the worker {what} exited with {status}")


def two_process_map(work, items, share: tuple[int, int], what: str) -> Iterator:
    """``work(item)`` for each of ``items``, in order, from two processes.

    ``items`` are taken in rounds of ``r`` for a ``share`` of ``(w, r)``. A
    worker (:func:`forked`, which names it by ``what``) computes the first
    ``len(round) * w // r`` items of each round, ``w`` of a full one: they
    go down to it in one request, and their results come up in one reply.
    This process computes the round's other items, then takes the next
    round while the worker is busy. When the first round gives the worker
    nothing, or without ``os.fork``, this process computes every item. When
    ``work`` raises in the worker, the iterator raises ``OSError("the worker
    <what> failed: <type>: <text>")``. Close the iterator when done with it:
    that reaps the worker.
    """
    w, r = share
    items = iter(items)
    batch = list(islice(items, r))
    k = len(batch) * w // r
    if not k or not hasattr(os, "fork"):
        for item in chain(batch, items):
            yield work(item)
        return

    def serve(channel):
        while True:
            # a round's results are freed once the next round's are made:
            # freed first, glibc trims the heap top and the worker faults it
            # back in (about 4,000 more minor faults on the ingest_day fixture)
            results = [work(item) for item in channel.receive()]
            channel.send(results)

    with forked(serve, what) as worker:
        worker.send(batch[:k])
        while batch:
            mine = [work(item) for item in batch[k:]]
            batch.clear()  # sent or computed: freed before the next round is taken
            batch += islice(items, r)
            k = len(batch) * w // r
            theirs = worker.receive()
            if batch:
                worker.send(batch[:k])
            yield from theirs
            yield from mine
            del theirs, mine  # consumed: freed before the next round is computed


def _openblas():
    """The get and set thread-count functions of the OpenBLAS this process
    has loaded, or None: none is mapped, ``/proc/self/maps`` cannot be read,
    or the library exports neither the plain nor numpy's prefixed names."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            path = next(line.split(maxsplit=5)[5].rstrip() for line in maps if "openblas" in line)
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # the loaded library, never a new one
    except (OSError, StopIteration, TypeError):  # TypeError: a loader that takes no mode
        return None
    for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        if get is not None:
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


def blas_threads() -> int | None:
    """The threads this process's OpenBLAS runs, or None when that cannot be read."""
    functions = _openblas()
    return None if functions is None else functions[0]()


def set_blas_threads(count: int) -> None:
    """Have this process's OpenBLAS run ``count`` threads; nothing when it
    cannot be found. No result changes."""
    functions = _openblas()
    if functions is not None:
        functions[1](count)
