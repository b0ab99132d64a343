import os

import numpy as np
import pytest

import proxymark as pm


@pytest.fixture(scope="session")
def blob_data():
    return pm.make_blobs(4, 2, 40, 0.6, seed=7)


@pytest.fixture(scope="session")
def blob_split(blob_data):
    return pm.split(blob_data, pm.SplitSpec(0.5, seed=3))


@pytest.fixture(scope="session")
def small_spec():
    return pm.ModelSpec(2, (16,), 4)


@pytest.fixture(scope="session")
def trained_source(blob_split, small_spec):
    train_data, _ = blob_split
    cfg = pm.TrainConfig(epochs=60, seed=11)
    return pm.train(small_spec, train_data, cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def force_workers(monkeypatch):
    """force_workers(n) makes the harness fan out over n workers, by faking
    the CPUs this process may run on, and returns the list of the pids it
    then forks. No child may be left from the case before, nor at the end of
    the test."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def force(n: int) -> list[int]:
        _assert_no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forks.clear()
        return forks

    monkeypatch.setattr(os, "fork", counting_fork)
    yield force
    _assert_no_child_left()
