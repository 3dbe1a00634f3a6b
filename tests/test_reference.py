"""Reference generators: values, derivative consistency, option validation."""
import math

import numpy as np
import pytest

from hooprobot.reference import (
    DEFAULT_RAMP_SPEED,
    DEFAULT_SIN_AMPLITUDE,
    DEFAULT_SIN_RATE,
    SCENARIOS,
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


def test_sinusoid_rejects_bad_rate():
    with pytest.raises(ValueError, match="rate"):
        sinusoid(0.0, rate=0.0)
    with pytest.raises(ValueError, match="rate"):
        sinusoid(0.0, rate=-0.5)


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


def test_make_reference_defaults():
    assert make_reference("ramp", 0.0)(1.0).o_dot_ref == DEFAULT_RAMP_SPEED
    sample = make_reference("sinusoid", 0.0)(0.0)
    assert sample.o_ddot_ref == pytest.approx(DEFAULT_SIN_AMPLITUDE * DEFAULT_SIN_RATE)


def test_make_reference_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        make_reference("spiral", 0.0)


def test_make_reference_rejects_foreign_parameters():
    with pytest.raises(ValueError, match="does not take"):
        make_reference("fixed_point", 0.0, v=0.2)
    with pytest.raises(ValueError, match="does not take"):
        make_reference("ramp", 0.0, amplitude=0.3)
    with pytest.raises(ValueError, match="does not take"):
        make_reference("sinusoid", 0.0, v=0.1)
