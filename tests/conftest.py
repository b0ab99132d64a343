import os
import re
from pathlib import Path

import numpy as np
import pytest

import proxymark as pm

# the one message of nn.fit_many's TrainingDivergedError
DIVERGED = "training diverged: the largest |theta| is not <= 1 / PROB_FLOOR = 1e12"


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


def written_files(root: Path) -> dict[str, bytes]:
    """Every file under root by relative path; summary.txt without its
    wall-clock line, the one line that may differ between two runs."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "summary.txt":
                data = re.sub(rb"wall clock: .*\n", b"", data)
            files[str(path.relative_to(root))] = data
    return files


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
