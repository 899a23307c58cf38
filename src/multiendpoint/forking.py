"""The one rule for fanning work out over forked worker processes.

Null studies split their trials, and long label streams their replicate
range, into contiguous shares that :func:`run_shares` runs:

- ``worker_count`` allows one worker per usable core, and one alone when
  ``fork`` is missing, the caller is daemonic or other Python threads are
  alive; then the caller runs the whole range and nothing is forked.
- Otherwise each share runs in a ``fork``-started process, which imports
  nothing again and inherits shared anonymous memory. The caller runs no
  share: it collects the results in share order, issues the warnings each
  worker recorded again, and raises the first failing share's exception,
  or a ``RuntimeError`` with the exit code of a worker that sent nothing.
- Every worker runs the ``exit_with`` watcher. Those whose results are no
  longer needed are terminated, and all are joined, before the call ends.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import warnings
from typing import Callable, Sequence


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def worker_count(
    n_items: int, *, cores: int, start_methods: Sequence[str], daemon: bool, threads: int
) -> int:
    """How many processes share ``n_items`` units of work; 1 means the
    caller alone. Pure: the caller passes the host's usable cores, start
    methods, whether it is daemonic and how many Python threads are alive.
    A forked copy of a thread-holding process may inherit a held lock, so
    such a process stays serial; every worker runs the ``exit_with``
    watcher, so it never fans out again."""
    if "fork" not in start_methods or daemon or threads > 1:
        return 1
    return min(cores, n_items)


def host_worker_count(n_items: int) -> int:
    """``worker_count`` on this host, for this process."""
    import multiprocessing

    return worker_count(
        n_items, cores=usable_cores(),
        start_methods=multiprocessing.get_all_start_methods(),
        daemon=multiprocessing.current_process().daemon,
        threads=threading.active_count(),
    )


def shares(n_items: int, n_workers: int) -> list[tuple[int, int]]:
    """``[0, n_items)`` as ``n_workers`` contiguous ``(start, stop)`` shares
    whose sizes differ by at most one."""
    bounds = [n_items * k // n_workers for k in range(n_workers + 1)]
    return list(zip(bounds, bounds[1:]))


def run_shares(task: Callable[[int, int], object], n_items: int, n_workers: int) -> list:
    """``task(start, stop)`` for each of ``shares(n_items, n_workers)``, in
    share order, run as the module docstring states."""
    if n_workers == 1:
        return [task(0, n_items)]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers, results = [], []
    try:
        for start, stop in shares(n_items, n_workers):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_run_share, args=(task, start, stop, send, os.getpid()))
            worker.start()
            send.close()
            workers.append((worker, receive))
        for worker, receive in workers:
            try:
                value, caught, error = receive.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(f"a worker exited with code {worker.exitcode}") from None
            _reissue(caught)
            if error is not None:
                raise error
            results.append(value)
        return results
    finally:
        # A worker blocked sending a result that is no longer read would
        # never end: its own fork holds the pipe's read end open.
        for worker, _ in workers[len(results) :]:
            worker.terminate()
        for worker, receive in workers:
            receive.close()
            worker.join()


def _run_share(task: Callable[[int, int], object], start: int, stop: int, send, parent: int):
    """A worker's share: send ``task(start, stop)``, the warnings it issued
    (message, category, file, line) and the exception that stopped it, if
    any. The caller's warning filters, inherited at the fork, apply."""
    exit_with(parent)
    with warnings.catch_warnings(record=True) as caught:
        try:
            value, error = task(start, stop), None
        except Exception as exc:  # sent to the caller, which raises it in share order
            value, error = None, exc
    send.send((value, [(w.message, w.category, w.filename, w.lineno) for w in caught], error))


def _reissue(caught: list[tuple]) -> None:
    """Issue warnings a worker recorded as a call in this process would
    have: under the issuing module's name and once-registry."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
        else:
            warnings.warn_explicit(
                message, category, filename, lineno, module=module.__name__,
                registry=vars(module).setdefault("__warningregistry__", {}),
            )


def exit_with(parent: int) -> None:
    """End this worker as soon as ``parent`` is gone. A worker whose caller
    was killed would otherwise run its share to the end."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()
