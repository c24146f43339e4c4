"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from pwcalc import harness


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of each thread pool parallel_map starts, in order. The pools
    are real; the process is taken to have 2 usable CPUs, so a pool of 2
    starts on any box."""
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    return sizes
