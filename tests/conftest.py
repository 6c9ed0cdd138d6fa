"""One deterministic hypothesis profile for every property suite: fixed
example generation, no deadline and no example database, so a suite reads
the same on every run. Per-test settings still override it.

The `child` fixture runs a fresh interpreter on the cmtforest under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import cmtforest

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def run_child(argv, blas=None, cwd=None):
    """Standard output of a fresh interpreter run with argv, importing the
    same cmtforest as this process, installed or not; OPENBLAS_NUM_THREADS
    is `blas`, or unset."""
    here = str(Path(cmtforest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update({} if blas is None else {"OPENBLAS_NUM_THREADS": blas})
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          check=True, env=env, cwd=cwd).stdout


@pytest.fixture
def child():
    return run_child
