"""Reference generators: values, derivative consistency, option validation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hooprobot.reference import (
    SCENARIOS,
    ReferenceSample,
    constant,
    make_reference,
    ramp,
    sinusoid,
)


def test_scenario_ids():
    assert SCENARIOS == ("fixed_point", "ramp", "sinusoid")


def test_constant_holds_position():
    ref = constant(-2.5)
    for t in (0.0, 1.0, 17.3):
        sample = ref(t)
        assert sample.o_ref == -2.5
        assert sample.o_dot_ref == 0.0
        assert sample.o_ddot_ref == 0.0
    assert ref(0.0) is ref(17.3)  # one immutable sample, built once


def test_ramp_values():
    ref = ramp(1.0, 0.2)
    assert ref(0.0).o_ref == 1.0
    assert ref(5.0).o_ref == pytest.approx(2.0)
    assert ref(5.0).o_dot_ref == 0.2
    assert ref(5.0).o_ddot_ref == 0.0


def test_ramp_with_zero_speed_is_constant():
    ref = ramp(0.7, 0.0)
    assert ref(9.0).o_ref == 0.7
    assert ref(9.0).o_dot_ref == 0.0


def test_sinusoid_starts_at_rest():
    ref = sinusoid(0.3, amplitude=0.3, rate=0.5)
    sample = ref(0.0)
    assert sample.o_ref == pytest.approx(0.3)
    assert sample.o_dot_ref == 0.0
    assert sample.o_ddot_ref == pytest.approx(0.15)


def test_sinusoid_velocity_profile():
    ref = sinusoid(0.0, amplitude=0.3, rate=0.5)
    t = 2.0
    assert ref(t).o_dot_ref == pytest.approx(0.3 * math.sin(1.0), rel=1e-14)
    # velocity is periodic with period 2 pi / rate
    period = 2.0 * math.pi / 0.5
    assert ref(t + period).o_dot_ref == pytest.approx(ref(t).o_dot_ref, rel=1e-12)


def plain_ramp(o0, v):
    """The ramp as first written, through the named tuple's constructor."""
    return lambda t: ReferenceSample(o0 + v * t, v, 0.0)


def plain_sinusoid(o0, amplitude, rate):
    """The sinusoid as first written: three trig calls per sample."""
    return lambda t: ReferenceSample(
        o0 + amplitude * (1.0 - math.cos(rate * t)) / rate,
        amplitude * math.sin(rate * t),
        amplitude * rate * math.cos(rate * t),
    )


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(o0=finite(-5.0, 5.0), v=finite(-2.0, 2.0), amplitude=finite(-2.0, 2.0),
       rate=finite(1e-3, 20.0), t=finite(0.0, 200.0))
def test_samples_equal_the_plain_constructions_bitwise(o0, v, amplitude, rate, t):
    for built, plain in ((ramp(o0, v), plain_ramp(o0, v)),
                         (sinusoid(o0, amplitude, rate), plain_sinusoid(o0, amplitude, rate))):
        sample, want = built(t), plain(t)
        assert type(sample) is ReferenceSample
        assert [x.hex() for x in sample] == [x.hex() for x in want]
        assert (sample.o_ref, sample.o_dot_ref, sample.o_ddot_ref) == tuple(want)


def test_sinusoid_rejects_bad_rate():
    with pytest.raises(ValueError, match="rate"):
        sinusoid(0.0, 0.3, rate=0.0)
    with pytest.raises(ValueError, match="rate"):
        sinusoid(0.0, 0.3, rate=-0.5)


@pytest.mark.parametrize("scenario,params", [
    ("fixed_point", {}),
    ("ramp", {"v": 0.4}),
    ("sinusoid", {"amplitude": 0.2, "rate": 0.8}),
])
def test_derivatives_are_consistent(scenario, params):
    # o_dot_ref and o_ddot_ref must be the actual time derivatives of o_ref
    ref = make_reference(scenario, -1.0, **params)
    h = 1e-4
    for t in np.linspace(0.1, 30.0, 40):
        a, b = ref(t - h), ref(t + h)
        fd_vel = (b.o_ref - a.o_ref) / (2.0 * h)
        fd_acc = (b.o_dot_ref - a.o_dot_ref) / (2.0 * h)
        mid = ref(t)
        assert mid.o_dot_ref == pytest.approx(fd_vel, rel=1e-6, abs=1e-8)
        assert mid.o_ddot_ref == pytest.approx(fd_acc, rel=1e-6, abs=1e-8)


def test_make_reference_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        make_reference("spiral", 0.0)


def test_make_reference_rejects_foreign_parameters():
    with pytest.raises(TypeError, match="unexpected keyword argument 'v'"):
        make_reference("fixed_point", 0.0, v=0.2)
    with pytest.raises(TypeError, match="unexpected keyword argument 'amplitude'"):
        make_reference("ramp", 0.0, v=0.2, amplitude=0.3)
    with pytest.raises(TypeError, match="unexpected keyword argument 'v'"):
        make_reference("sinusoid", 0.0, amplitude=0.3, rate=0.5, v=0.1)
