"""Reference trajectories for the hoop center: hold a point, ramp, or sinusoid.

Each generator returns a callable of time producing the reference position
together with its first two derivatives, which the controller needs to form
velocity errors (and optionally acceleration feedforward).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple


class ReferenceSample(NamedTuple):
    """Reference position (m), velocity (m/s) and acceleration (m/s^2) at one instant."""

    o_ref: float
    o_dot_ref: float
    o_ddot_ref: float


Reference = Callable[[float], ReferenceSample]

# Builds a sample from a ready tuple, skipping the Python-level __new__ of
# the named tuple; the samplers below run several times per RK4 step.
_sample = tuple.__new__


def constant(o0: float) -> Reference:
    """Hold the hoop center at ``o0``."""
    sample = ReferenceSample(o0, 0.0, 0.0)  # immutable, so one instance serves every t
    return lambda t: sample


def ramp(o0: float, v: float) -> Reference:
    """Constant-velocity reference starting from ``o0``."""
    return lambda t: _sample(ReferenceSample, (o0 + v * t, v, 0.0))


def sinusoid(o0: float, amplitude: float, rate: float) -> Reference:
    """Sinusoidal velocity reference: o_dot_ref = amplitude * sin(rate * t).

    The position starts at ``o0`` with zero initial velocity and drifts
    forward by construction (velocity integrates to a one-sided profile).
    """
    if not rate > 0.0:
        raise ValueError(f"sinusoid rate must be positive, got {rate!r}")
    cos, sin = math.cos, math.sin
    amplitude_rate = amplitude * rate

    def sample(t: float) -> ReferenceSample:
        phase = rate * t
        cos_phase = cos(phase)
        return _sample(ReferenceSample, (
            o0 + amplitude * (1.0 - cos_phase) / rate,
            amplitude * sin(phase),
            amplitude_rate * cos_phase,
        ))

    return sample


_SAMPLERS = {"fixed_point": constant, "ramp": ramp, "sinusoid": sinusoid}
SCENARIOS = tuple(_SAMPLERS)


def make_reference(scenario: str, o0: float, **params: float) -> Reference:
    """Build the reference for a scenario id ("fixed_point", "ramp", "sinusoid").

    ``params`` carries ``v`` for the ramp and ``amplitude``/``rate`` for the
    sinusoid; the sampler rejects a keyword it does not take with TypeError.
    """
    if scenario not in _SAMPLERS:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    return _SAMPLERS[scenario](o0, **params)
