"""Fixtures shared by the test modules."""

import os
import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def lapack_calls(monkeypatch):
    """The ``(routine, shape)`` of every ``eigh``, ``eigvalsh`` and ``svd``
    call made through ``numpy.linalg`` while the test runs. The kernel
    looks each routine up at call time, so wrapping the attribute sees
    every LAPACK call of the package."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(a, *args, _name=name, _routine=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _routine(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps what it starts: ``verify`` forks a child to decode arrays."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: what ``fn()`` returns and the peak, in bytes, of the memory tracemalloc traces while it runs."""

    def measure(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
