"""The one rule for fanning work out over forked worker processes.

Null studies split their trials and long label streams split their
replicate range into contiguous shares, one per worker. Both fork: a forked
worker starts without importing the package again, and it inherits the
caller's shared anonymous memory. Whether to fork, and into how many
workers, is decided here alone.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Sequence


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
    such a process stays serial; a study's workers run the ``exit_with``
    watcher, so they never fan out again."""
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


def exit_with(parent: int) -> None:
    """Worker initializer: end the worker as soon as ``parent`` is gone. A
    worker whose caller was killed would otherwise run its share to the
    end and then wait for work forever."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()
