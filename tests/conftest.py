"""Fixtures shared by the test modules."""
import os
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from hooprobot import sim
from hooprobot.plant import PlantParams, derive_mass_constants
from hooprobot.sim import Trajectory


@pytest.fixture
def singular_plant():
    """Stand-in for a plant whose input-coupling denominator
    i_a + m_a l^2 - m_a r l cos(theta_a) vanishes at theta_a = acos(pend / amp).

    PlantParams rejects such a plant (its pendulum inertia 0.06 is below the
    coupling amplitude 0.1), so this duck-typed copy carries the same fields,
    derived constants and inertia to keep the singularity guards tested.
    """
    fake = SimpleNamespace(m_h=1.0, i_h=0.05, r=0.2, m_a=5.0, i_a=0.01, l=0.1,
                           beta=0.0, g=9.81, delta_s=0.0, delta_a=0.0)
    derive_mass_constants(fake)
    fake.inertia = lambda theta_a: PlantParams.inertia(fake, theta_a)
    return fake


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
        class Times(list):
            def append(self, t):
                if t >= t_stop:
                    raise KeyboardInterrupt
                super().append(t)

        monkeypatch.setattr(sim, "Trajectory", lambda: Trajectory(t=Times()))
    return install
