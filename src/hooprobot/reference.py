"""Reference trajectories for the hoop center: hold a point, ramp, or sinusoid.

Each reference is a callable of time producing the reference position
together with its first two derivatives, which the controller needs to form
velocity errors (and optionally acceleration feedforward).  Each scenario's
arithmetic is written once, as source text over a time expression
(``SAMPLES``): ``make_reference`` compiles it into its callable, once per
scenario, and ``sim``'s RK4 loop inlines it at each stage time and records
its ``o_ref``, so the CSV writers need no reference.
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

# Per scenario: the parameters it takes, named after the SimConfig fields
# that hold them, the constants read from them once, and the lines that set
# o_ref, o_dot_ref and o_ddot_ref at the time expression {t}, with math's cos
# and sin.  The sinusoid's velocity is sin_amplitude * sin(sin_rate * t) from
# rest, so its position drifts forward.
SAMPLES = {
    "fixed_point": (("o_ref0",), "", "o_ref, o_dot_ref, o_ddot_ref = o_ref0, 0.0, 0.0\n"),
    "ramp": (("o_ref0", "ramp_v"), "",
             "o_ref, o_dot_ref, o_ddot_ref = o_ref0 + ramp_v * {t}, ramp_v, 0.0\n"),
    "sinusoid": (
        ("o_ref0", "sin_amplitude", "sin_rate"),
        "if not sin_rate > 0.0:\n"
        '    raise ValueError(f"sinusoid rate must be positive, got {sin_rate!r}")\n'
        "amplitude_rate = sin_amplitude * sin_rate\n",
        "phase = sin_rate * {t}\n"
        "cos_phase = cos(phase)\n"
        "o_ref = o_ref0 + sin_amplitude * (1.0 - cos_phase) / sin_rate\n"
        "o_dot_ref = sin_amplitude * sin(phase)\n"
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
        f"def factory({', '.join(params)}):\n"
        + indent("cos, sin = math.cos, math.sin\n" + constants, "    ")
        + "    def sample(t):\n" + indent(sample_source(scenario, "t"), " " * 8)
        + "        return ReferenceSample(o_ref, o_dot_ref, o_ddot_ref)\n"
        + "    return sample\n"
    )
    return define("factory", source, scenario, globals())


def make_reference(scenario: str, **params: float) -> Reference:
    """Build the reference for a scenario id ("fixed_point", "ramp", "sinusoid").

    ``params`` are the scenario's parameters, ``SAMPLES[scenario][0]``:
    ``o_ref0``, plus ``ramp_v`` for the ramp and ``sin_amplitude``/``sin_rate``
    for the sinusoid; a missing keyword or one the scenario does not take
    raises TypeError.
    """
    if scenario not in SAMPLES:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    return _factory(scenario)(**params)
