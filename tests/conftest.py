import concurrent.futures
import os

import pytest


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool that verify opens. Two CPUs
    count as usable, so that `--jobs 2` is not clamped to one."""
    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    return opened
