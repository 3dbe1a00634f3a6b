"""Reference trajectories for the hoop center: hold a point, ramp, or sinusoid.

Each generator returns a callable of time producing the reference position
together with its first two derivatives, which the controller needs to form
velocity errors (and optionally acceleration feedforward).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

SCENARIOS = ("fixed_point", "ramp", "sinusoid")

DEFAULT_RAMP_SPEED = 0.2
DEFAULT_SIN_AMPLITUDE = 0.3
DEFAULT_SIN_RATE = 0.5


class ReferenceSample(NamedTuple):
    """Reference position (m), velocity (m/s) and acceleration (m/s^2) at one instant."""

    o_ref: float
    o_dot_ref: float
    o_ddot_ref: float


Reference = Callable[[float], ReferenceSample]


def constant(o0: float) -> Reference:
    """Hold the hoop center at ``o0``."""
    sample = ReferenceSample(o0, 0.0, 0.0)  # immutable, so one instance serves every t
    return lambda t: sample


def ramp(o0: float, v: float = DEFAULT_RAMP_SPEED) -> Reference:
    """Constant-velocity reference starting from ``o0``."""
    return lambda t: ReferenceSample(o0 + v * t, v, 0.0)


def sinusoid(
    o0: float,
    amplitude: float = DEFAULT_SIN_AMPLITUDE,
    rate: float = DEFAULT_SIN_RATE,
) -> Reference:
    """Sinusoidal velocity reference: o_dot_ref = amplitude * sin(rate * t).

    The position starts at ``o0`` with zero initial velocity and drifts
    forward by construction (velocity integrates to a one-sided profile).
    """
    if not rate > 0.0:
        raise ValueError(f"sinusoid rate must be positive, got {rate!r}")
    return lambda t: ReferenceSample(
        o0 + amplitude * (1.0 - math.cos(rate * t)) / rate,
        amplitude * math.sin(rate * t),
        amplitude * rate * math.cos(rate * t),
    )


def make_reference(scenario: str, o0: float = 0.0, **params: float) -> Reference:
    """Build the reference for a scenario id ("fixed_point", "ramp", "sinusoid").

    ``params`` may carry ``v`` for the ramp and ``amplitude``/``rate`` for the
    sinusoid; unknown keys for the chosen scenario are rejected so config
    typos do not pass silently.
    """
    if scenario == "fixed_point":
        allowed: tuple[str, ...] = ()
    elif scenario == "ramp":
        allowed = ("v",)
    elif scenario == "sinusoid":
        allowed = ("amplitude", "rate")
    else:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    extra = set(params) - set(allowed)
    if extra:
        raise ValueError(f"scenario {scenario!r} does not take parameters {sorted(extra)}")
    if scenario == "fixed_point":
        return constant(o0)
    if scenario == "ramp":
        return ramp(o0, params.get("v", DEFAULT_RAMP_SPEED))
    return sinusoid(
        o0,
        params.get("amplitude", DEFAULT_SIN_AMPLITUDE),
        params.get("rate", DEFAULT_SIN_RATE),
    )
