import os

import pytest

from qcong import forkmap


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every fork_map that verify opens. Two CPUs
    count as usable, so that `--jobs 2` is not clamped to one."""
    opened = []
    real = forkmap.fork_map

    def counting(fn, tasks, workers):
        opened.append(workers)
        return real(fn, tasks, workers)

    monkeypatch.setattr(forkmap, "fork_map", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    return opened
