"""Fixtures shared by the test modules."""
import os
from array import array
from contextlib import contextmanager

import pytest

from hooprobot import sim
from hooprobot.sim import Trajectory


@pytest.fixture
def leaves_no_child_or_fd():
    """A context manager that asserts its body left no child process behind
    and no more open file descriptors (counted in /proc/self/fd) than it found."""
    @contextmanager
    def check():
        before = len(os.listdir("/proc/self/fd"))
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == before

    return check


@pytest.fixture
def interrupt_at_row(monkeypatch):
    """``interrupt_at_row(t)``: the trajectories ``sim`` builds from then on
    raise KeyboardInterrupt when the loop records a row at time t or later,
    before any column of that row."""
    def install(t_stop):
        class Times(array):
            def append(self, t):
                if t >= t_stop:
                    raise KeyboardInterrupt
                super().append(t)

        monkeypatch.setattr(sim, "Trajectory", lambda: Trajectory(t=Times("d")))
    return install
