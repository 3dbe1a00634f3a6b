"""Reference trajectories for the hoop center: hold a point, ramp, or sinusoid.

Each generator returns a callable of time producing the reference position
together with its first two derivatives, which the controller needs to form
velocity errors (and optionally acceleration feedforward).  Each scenario's
arithmetic is written once, as source text over a time expression
(``SAMPLES``): ``make_reference`` compiles it into its callable, once per
scenario, and ``sim``'s RK4 loop inlines it at each stage time.
"""

from __future__ import annotations

import functools
import linecache
import math
from textwrap import indent
from typing import Callable, NamedTuple


class ReferenceSample(NamedTuple):
    """Reference position (m), velocity (m/s) and acceleration (m/s^2) at one instant."""

    o_ref: float
    o_dot_ref: float
    o_ddot_ref: float


Reference = Callable[[float], ReferenceSample]

# Builds a sample from a ready tuple, skipping the Python-level __new__ of
# the named tuple; simulate's writer samples once per row.
_sample = tuple.__new__

# Per scenario: the parameters it takes after o0, the constants read from
# them once, and the lines that set o_ref, o_dot_ref and o_ddot_ref at the
# time expression {t}, with math's cos and sin.  The sinusoid's velocity is
# amplitude * sin(rate * t) from rest, so its position drifts forward.
SAMPLES = {
    "fixed_point": ((), "", "o_ref, o_dot_ref, o_ddot_ref = o0, 0.0, 0.0\n"),
    "ramp": (("v",), "", "o_ref, o_dot_ref, o_ddot_ref = o0 + v * {t}, v, 0.0\n"),
    "sinusoid": (
        ("amplitude", "rate"),
        "if not rate > 0.0:\n"
        '    raise ValueError(f"sinusoid rate must be positive, got {rate!r}")\n'
        "amplitude_rate = amplitude * rate\n",
        "phase = rate * {t}\n"
        "cos_phase = cos(phase)\n"
        "o_ref = o0 + amplitude * (1.0 - cos_phase) / rate\n"
        "o_dot_ref = amplitude * sin(phase)\n"
        "o_ddot_ref = amplitude_rate * cos_phase\n",
    ),
}
SCENARIOS = tuple(SAMPLES)


def sample_source(scenario: str, t: str) -> str:
    """The lines that sample ``scenario`` at the time expression ``t``."""
    return SAMPLES[scenario][2].replace("{t}", t)


def define(name: str, source: str, flags: str, namespace: dict) -> Callable:
    """The function ``name`` that ``source`` defines in ``namespace``; tracebacks show its lines."""
    filename = f"<{namespace['__name__']} {name} {flags}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope: dict = {}
    exec(compile(source, filename, "exec"), namespace, scope)
    return scope[name]


@functools.cache
def _factory(scenario: str) -> Callable:
    params, constants, _ = SAMPLES[scenario]
    source = (
        f"def factory(o0{''.join(', ' + name for name in params)}):\n"
        + indent("cos, sin = math.cos, math.sin\n" + constants, "    ")
        + "    def sample(t):\n" + indent(sample_source(scenario, "t"), " " * 8)
        + "        return _sample(ReferenceSample, (o_ref, o_dot_ref, o_ddot_ref))\n"
        + "    return sample\n"
    )
    return define("factory", source, scenario, globals())


def make_reference(scenario: str, o0: float, **params: float) -> Reference:
    """Build the reference for a scenario id ("fixed_point", "ramp", "sinusoid").

    ``params`` carries ``v`` for the ramp and ``amplitude``/``rate`` for the
    sinusoid; a keyword the scenario does not take raises TypeError.
    """
    if scenario not in SAMPLES:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    sample = _factory(scenario)(o0, **params)
    if "{t}" not in SAMPLES[scenario][2]:  # immutable, so one instance serves every t
        fixed = sample(0.0)
        return lambda t: fixed
    return sample


def constant(o0: float) -> Reference:
    """Hold the hoop center at ``o0``."""
    return make_reference("fixed_point", o0)


def ramp(o0: float, v: float) -> Reference:
    """Constant-velocity reference starting from ``o0``."""
    return make_reference("ramp", o0, v=v)


def sinusoid(o0: float, amplitude: float, rate: float) -> Reference:
    """Sinusoidal velocity reference: o_dot_ref = amplitude * sin(rate * t)."""
    return make_reference("sinusoid", o0, amplitude=amplitude, rate=rate)
