"""The cell map behind `bench` and `sweep`: independent cells run on every
free core that memory allows, and the core count changes none of the
results, warnings and errors that a call reports.

A call that can use two cores or more forks its workers with `os.fork` and
joins them before it returns; it keeps no pool, thread or module state
between calls. The calling process hands out cell indices as 4-byte tokens
through one pipe that every worker reads, so the cells go out one at a time,
in index order, to whichever worker is free. Each worker runs its cells,
sends back one pickled list of outcome records (index, result, exception,
warnings) through a pipe of its own and exits. The calling process runs no
cell itself and only waits on the pipes.
"""

from __future__ import annotations

import functools
import os
import pickle
import select
import signal
import struct
import threading
import traceback
import warnings
from typing import Callable, NoReturn, TypeVar

from .graph import dense_budget

T = TypeVar("T")

# a cell index as the workers read it from the token pipe
_TOKEN = struct.Struct("<I")


@functools.cache
def _native_threads() -> int:
    """Threads of this process that Python did not start, counted once, on
    first use. The count is kept because a Python thread that is ending has
    left `threading`'s list while it is still listed in /proc/self/task, and
    a later count would take it for a native thread."""
    return max(len(os.listdir("/proc/self/task")) - threading.active_count(), 0)


def _free_cores() -> int:
    """Usable cores per thread a forked worker would run.

    Native threads that Python did not start belong to a BLAS or OpenMP
    pool; every worker starts that pool again, and its idle threads spin,
    so each worker counts as that many threads plus its own. Without the
    Linux affinity call or /proc, the cells run in the loop.
    """
    try:
        return len(os.sched_getaffinity(0)) // (1 + _native_threads())
    except (AttributeError, OSError):
        return 1


def _run_cell(cell: Callable[[int], object], index: int):
    """One cell's outcome record: (index, result, exception or None, its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the caller's filters judge the re-emitted copies
        try:
            result, error = cell(index), None
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller in cell order
            result, error = None, exc
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # noqa: BLE001 - an exception the pipe could not carry back
            error = RuntimeError(f"{type(error).__name__}: {error}")
    return index, result, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _work(cell: Callable[[int], object], tokens: int, out: int, inherited: set[int]) -> NoReturn:
    """A forked worker: close the descriptors it inherited but does not use,
    run the cell of each token it reads until the pipe is closed, write its
    outcome records to `out` and exit, with code 0 only if all went out."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        records = []
        while token := os.read(tokens, _TOKEN.size):
            records.append(_run_cell(cell, *_TOKEN.unpack(token)))
        with open(out, "wb") as sink:
            pickle.dump(records, sink)
        code = 0
    except BaseException:  # noqa: BLE001 - the worker ends here; the parent sees its exit code
        traceback.print_exc()
    finally:
        os._exit(code)


def _fork_join(cell: Callable[[int], object], count: int, workers: int) -> list:
    """The outcome records of cells 0 .. count - 1, in index order, from
    `workers` forked workers.

    Raises ChildProcessError as soon as a worker ends without sending its
    records. However this returns or raises, every worker has been killed
    if it still ran, and reaped, and every pipe is closed.
    """
    tokens_r, tokens_w = os.pipe()
    fds = {tokens_r, tokens_w}  # the open descriptors of this process
    running: dict[int, int] = {}  # read end of a worker's outcome pipe -> its pid

    def close(fd: int) -> None:
        fds.discard(fd)
        os.close(fd)

    try:
        for _ in range(workers):
            out_r, out_w = os.pipe()
            fds |= {out_r, out_w}
            pid = os.fork()
            if pid == 0:
                _work(cell, tokens_r, out_w, fds - {tokens_r, out_w})
            running[out_r] = pid
            close(out_w)
        # the workers hold the only read ends, so if all of them end, the
        # writes below fail instead of blocking
        close(tokens_r)
        tokens = b"".join(map(_TOKEN.pack, range(count)))
        step = select.PIPE_BUF - select.PIPE_BUF % _TOKEN.size  # atomic writes of whole tokens
        try:
            for start in range(0, len(tokens), step):
                os.write(tokens_w, tokens[start:start + step])
        except BrokenPipeError:
            pass  # every worker has ended: the loop below says how
        close(tokens_w)

        received: dict[int, list[bytes]] = {fd: [] for fd in running}
        records = []
        poller = select.poll()
        for fd in running:
            poller.register(fd, select.POLLIN)
        while running:
            for fd, _ in poller.poll():
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    received[fd].append(chunk)
                    continue
                poller.unregister(fd)
                close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(running[fd], 0)[1])
                del running[fd]
                if code:
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"exited with code {code}")
                    raise ChildProcessError(f"a cell worker {how} before it sent its cells back")
                records += pickle.loads(b"".join(received.pop(fd)))
        return sorted(records, key=lambda record: record[0])
    finally:
        for fd in fds:
            os.close(fd)
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _map_cells(cell: Callable[[int], T], count: int, cell_bytes: int) -> list[T]:
    """[cell(i) for i in range(count)], on every free core memory allows.

    `cell_bytes` is the dense-array peak of one cell. With two free cores
    (see `_free_cores`), two cells and room in physical memory for two cells
    at once, the cells run in workers forked for this call; otherwise they
    run in a loop. The workers inherit `cell` and all it reaches without
    pickling, and each cell runs the serial code with the serial seeds, so
    the results are the loop's. There are no more workers than cells fit in
    memory at once, and all of them have ended when this returns or raises.
    Forking two workers, handing them four trivial cells and joining them
    takes 4-5 ms (median; up to 7 ms) in a warmed process with one BLAS
    thread on 2 CPUs, which outweighs the gain only on the smallest calls;
    a cell's cost is not known before it runs. Either way every cell runs,
    through `_run_cell`; the warnings of the cells up to the first failing
    one are re-emitted in cell order, each distinct warning once per call
    under the default filter, and then that cell's exception is raised (a
    RuntimeError naming it if it cannot be pickled). A worker that ends
    without sending its cells back (killed, say) raises ChildProcessError.
    """
    workers = min(_free_cores(), count, dense_budget() // max(cell_bytes, 1))
    # all records come before any re-emission: catch_warnings clears the registry
    records = (_fork_join(cell, count, workers) if workers >= 2
               else [_run_cell(cell, i) for i in range(count)])
    registry: dict = {}
    results = []
    for _, result, error, caught in records:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
        if error is not None:
            raise error
        results.append(result)
    return results
