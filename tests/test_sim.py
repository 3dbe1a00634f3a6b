"""Integrator behavior: configs, determinism, energy accounting, the stage texts."""
import csv
import itertools
import linecache
import math
import os
import random
import re
import traceback
import tracemalloc
from array import array
from dataclasses import replace
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hooprobot import controller, sim
from hooprobot.cli import FIGURES, build_sim_config, load_config
from hooprobot.controller import Gains
from hooprobot.plant import HoopState, PlantParams, derivative
from hooprobot.reference import SCENARIOS, ReferenceSample, make_reference, sample_source
from hooprobot.regularizer import nominal_from_true
from hooprobot.sim import (
    CSV_CHUNK,
    CSV_HEADER,
    SETTLING_BAND,
    DivergenceError,
    RunSummary,
    SimConfig,
    Trajectory,
    closed_loop,
    energy,
    integrate,
    summarize,
)

from euler_lagrange import (
    THETA_A,
    euler_lagrange_accelerations,
    exact_accelerations,
    sympy_math,
)

TRUE = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14,
                   beta=math.radians(20.0))
FLAT = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14, beta=0.0)
GAINS = Gains(k_p=16.0, k_d=7.0, k_i=4.0, k_c=0.1)
# the PID torque of the stage template, in every instance whatever its suffix
PID_EXPRESSION = "-n_inertia * (k_p * eta_e + k_d * omega_e + k_i * o_i"


def flat(source):
    """``source`` with each line stripped, so text compares across indents."""
    return "".join(line.strip() + "\n" for line in source.splitlines())


def make_config(plant=TRUE, mismatch=1.5, **overrides):
    return SimConfig(plant=plant, nominal=nominal_from_true(plant, mismatch),
                     gains=GAINS, **overrides)


class TestSimConfig:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="dt"):
            make_config(dt=0.0)
        with pytest.raises(ValueError, match="t_end"):
            make_config(t_end=-1.0)
        with pytest.raises(ValueError, match="stride"):
            make_config(stride=0)
        with pytest.raises(ValueError, match="stride"):
            make_config(stride=1.5)
        with pytest.raises(ValueError, match="hold_dt"):
            make_config(hold_dt=0.0)
        with pytest.raises(ValueError, match="hold_dt must be positive and cover a finite"):
            make_config(dt=1e-300, t_end=1e-297, hold_dt=1e10)  # hold_dt / dt overflows

    def test_rejects_t_end_of_no_step_or_endless_steps(self):
        # the run takes round(t_end / dt) steps: 0.5 rounds to none, 0.6 to one
        with pytest.raises(ValueError, match="t_end must cover a finite number of steps"):
            make_config(t_end=0.0005, dt=1e-3)
        assert len(integrate(make_config(t_end=0.0006, dt=1e-3, stride=1))) == 2
        with pytest.raises(ValueError, match="t_end must cover a finite number of steps"):
            make_config(t_end=1e300, dt=1e-10)  # the quotient overflows to inf

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            make_config(scenario="spiral")

    def test_reference_dispatch(self):
        cfg = make_config(scenario="ramp", o_ref0=1.0, ramp_v=0.4)
        assert cfg.reference()(2.0).o_ref == pytest.approx(1.8)
        cfg = make_config(scenario="sinusoid", sin_amplitude=0.2, sin_rate=0.8)
        assert cfg.reference()(0.0).o_ddot_ref == pytest.approx(0.16)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["o_ref0", "ramp_v", "sin_amplitude", "sin_rate"])
    def test_rejects_non_finite_reference_parameter(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make_config(**{name: value})

    @pytest.mark.parametrize("name", ["theta", "o", "omega", "theta_a", "omega_a"])
    def test_rejects_non_finite_initial_state(self, name):
        values = dict(theta=0.0, o=-2.0, omega=-0.1, theta_a=0.0, omega_a=0.1)
        values[name] = math.nan
        with pytest.raises(ValueError, match=f"initial {name} must be finite"):
            make_config(initial=HoopState(**values))

    @pytest.mark.parametrize("rate", [0.0, -0.5])
    def test_scenario_rules_run_at_construction(self, rate):
        with pytest.raises(ValueError, match="sinusoid rate must be positive"):
            make_config(scenario="sinusoid", sin_rate=rate)
        make_config(scenario="ramp", sin_rate=rate)  # only the sinusoid reads the rate


class TestEnergy:
    def test_zero_at_rest_flat(self):
        ke, pe = energy(FLAT, HoopState(0.0, 0.0, 0.0, 0.0, 0.0))
        assert ke == 0.0
        # at rest the potential is center height minus hanging arm
        expected = (
            FLAT.m_total * FLAT.g * FLAT.r - FLAT.m_a * FLAT.g * FLAT.l
        )
        assert pe == pytest.approx(expected, rel=1e-12)

    def test_pure_rolling_kinetic_energy(self):
        # with the arm frozen, KE collapses to (i_h + M r^2) omega^2 / 2
        s = HoopState(theta=0.0, o=0.0, omega=1.7, theta_a=0.4, omega_a=0.0)
        ke, _ = energy(FLAT, s)
        assert ke == pytest.approx(0.5 * FLAT.rolling_inertia * 1.7**2, rel=1e-12)

    def test_position_term_uses_incline(self):
        s0 = HoopState(0.0, 0.0, 0.0, 0.0, 0.0)
        s1 = HoopState(0.0, 2.0, 0.0, 0.0, 0.0)
        pe0 = energy(TRUE, s0)[1]
        pe1 = energy(TRUE, s1)[1]
        expected = TRUE.m_total * TRUE.g * 2.0 * math.sin(TRUE.beta)
        assert pe1 - pe0 == pytest.approx(expected, rel=1e-12)


class TestEulerLagrange:
    def test_input_routing_sensitivities(self):
        # d(omega_dot)/d(tau_u) = 1/I and d(omega_a_dot)/d(tau_u) = B/I
        # exactly, with B = (A_c / A) cos theta_a - I / (A - A_c cos theta_a)
        # as in ``plant.coupling_gain`` (A the pendulum inertia, A_c the
        # coupling amplitude).  sin theta_a reaches these derivatives only as
        # the sin^2 of the mass matrix, which becomes 1 - cos^2 for ``cancel``
        accelerations, p, _, (_, _, tau_u) = euler_lagrange_accelerations()
        sin, cos = sympy.sin(THETA_A), sympy.cos(THETA_A)
        inertia = p.rolling_inertia - p.inertia_dip * cos**2
        gain = (p.coupling_amp / p.pendulum_inertia * cos
                - inertia / (p.pendulum_inertia - p.coupling_amp * cos))
        for acceleration, routed in zip(accelerations, (1 / inertia, gain / inertia)):
            difference = sympy.diff(acceleration, tau_u) - routed
            assert sympy.cancel(difference.subs(sin**2, 1 - cos**2)) == 0

    @pytest.mark.parametrize("plant", [TRUE, FLAT], ids=["incline", "flat"])
    def test_matches_closed_form_on_random_states(self, plant):
        # criterion 01 checks the disturbed plant; here the undisturbed one,
        # on and off the incline, against the exact accelerations
        rng = random.Random(42)
        worst = 0.0
        for _ in range(100):
            s = HoopState(theta=rng.uniform(-math.pi, math.pi), o=rng.uniform(-3, 3),
                          omega=rng.uniform(-5, 5), theta_a=rng.uniform(-math.pi, math.pi),
                          omega_a=rng.uniform(-5, 5))
            tau = rng.uniform(-2, 2)
            rates = derivative(plant, s, tau)
            od, oad = exact_accelerations(plant, s, tau)
            worst = max(worst, abs(rates[2] - od), abs(rates[4] - oad))
        assert worst < 1e-9


# (theta, o, omega, theta_a, omega_a, o_I) at t = 60 s of the default run
# and of its sinusoid with feedforward at stride 1, as float.hex, from the
# stage that took sin(theta_a + beta), sin 2 theta_a and cos(theta_a)**2
# from libm and pow: the reference path of the 1e-12 rule.
REFERENCE_FINAL_STATES = {
    "default": ("-0x1.638e7d3285ac9p+3", "0x1.8974ed981f3cap-18", "0x1.0e11de253eee8p-18",
                "0x1.0c5f052332268p-2", "0x1.d9c2c9121072fp-26", "0x1.2d805984f42f1p+2"),
    "sinusoid_feedforward_dense": (
        "-0x1.bf30143c5df6cp+3", "0x1.07e6a0addb674p-1", "0x1.af73e1eadf7c2p+0",
        "0x1.0efc523fb6204p-2", "0x1.2c5906af6616ap-7", "0x1.2b7c6131c0006p+2"),
}


class TestIntegrate:
    def test_sample_counts(self):
        cfg = make_config(t_end=1.0, dt=1e-3, stride=10)
        assert len(integrate(cfg)) == 101
        cfg = make_config(t_end=1.0, dt=1e-3, stride=7)
        assert len(integrate(cfg)) == 1000 // 7 + 1
        cfg = make_config(t_end=0.5, dt=1e-2, stride=1)
        assert len(integrate(cfg)) == 51

    def test_deterministic(self):
        a = integrate(make_config(t_end=5.0))
        b = integrate(make_config(t_end=5.0))
        for column in TRAJECTORY_COLUMNS:
            assert bits(getattr(a, column)) == bits(getattr(b, column)), column

    def test_rest_at_origin_stays_put(self):
        cfg = make_config(plant=FLAT, mismatch=1.0, t_end=1.0,
                          initial=HoopState(0.0, 0.0, 0.0, 0.0, 0.0))
        traj = integrate(cfg)
        assert all(v == 0.0 for v in traj.o)
        assert all(v == 0.0 for v in traj.omega_a)
        assert all(v == 0.0 for v in traj.tau_u)
        assert all(v == 0.0 for v in traj.o_I)

    def test_rolling_constraint_holds_along_trajectory(self):
        traj = integrate(make_config(t_end=10.0))
        worst = max(
            abs((o - traj.o[0]) + TRUE.r * (th - traj.theta[0]))
            for o, th in zip(traj.o, traj.theta)
        )
        assert worst < 1e-9

    def test_open_loop_conserves_energy_without_gravity(self):
        weightless = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035,
                                 l=0.14, beta=math.radians(20.0), g=0.0)
        cfg = make_config(plant=weightless, t_end=10.0,
                          initial=HoopState(0.0, 0.0, 2.0, 0.7, 3.0),
                          open_loop=True)
        traj = integrate(cfg)
        assert all(v == 0.0 for v in traj.tau_u)
        drift = max(abs(e - traj.energy[0]) for e in traj.energy)
        assert drift / abs(traj.energy[0]) < 1e-9

    def test_open_loop_conserves_energy_on_flat_ground(self):
        cfg = make_config(plant=FLAT, t_end=10.0,
                          initial=HoopState(0.0, 0.0, 0.5, 0.3, 0.0),
                          open_loop=True)
        traj = integrate(cfg)
        drift = max(abs(e - traj.energy[0]) for e in traj.energy)
        assert drift / abs(traj.energy[0]) < 1e-9

    def test_divergence_carries_partial_trajectory(self):
        cfg = make_config(t_end=1.0,
                          initial=HoopState(0.0, 2.0e6, 0.0, 0.0, 0.0))
        with pytest.raises(DivergenceError, match="diverged at") as excinfo:
            integrate(cfg)
        err = excinfo.value
        assert err.time == pytest.approx(1e-3)
        assert len(err.trajectory) == 1  # only the initial sample was recorded

    @pytest.mark.parametrize("k_p, overrides, rows, time, cause", [
        (1e200, {}, 1, 1e-3, OverflowError),
        (16.0, dict(initial=HoopState(0.0, 1e300, -0.1, 0.0, 0.1)), 1, 1e-3, OverflowError),
        (16.0, dict(scenario="ramp", ramp_v=1e300), 1, 1e-3, OverflowError),
        (1e300, dict(hold_dt=0.01), 1, 1e-3, OverflowError),
        # the energy of the row at t = 0 overflows, before any step
        (16.0, dict(initial=HoopState(0.0, -2.0, 1e200, 0.0, 0.1), open_loop=True), 0, 0.0,
         OverflowError),
        # the torque at t = 0 is infinite: the row at t = 0 holds it
        (1e308, {}, 1, 1e-3, ValueError),
        (16.0, dict(o_ref0=1e308), 1, 1e-3, ValueError),
        (16.0, dict(initial=HoopState(0.0, 1e308, 0.0, 0.0, 0.0)), 1, 1e-3, ValueError),
        (1e308, dict(hold_dt=0.01), 1, 1e-3, ValueError),
    ], ids=["kp", "o0", "ramp_v", "hold", "open_loop",
            "kp_inf", "o_ref0_inf", "o0_inf", "hold_inf"])
    def test_overflow_diverges_with_the_rows_recorded_before_it(self, k_p, overrides, rows,
                                                                 time, cause):
        # x**2 of a double past about 1.3e154 raises OverflowError, where
        # x*x would give inf; an infinite torque makes k3's actuator angle
        # infinite, whose cos raises ValueError.  In k1 or the row at t the
        # failure reports t, in k2 to k4 t + dt, with the state at t either way
        cfg = replace(make_config(t_end=1.0, **overrides), gains=Gains(k_p, 7.0, 4.0, 0.1))
        with pytest.raises(DivergenceError, match="diverged at") as excinfo:
            integrate(cfg)
        err = excinfo.value
        assert isinstance(err.__cause__, cause)
        assert err.time == pytest.approx(time)
        assert len(err.trajectory) == rows
        s = cfg.initial
        assert err.state == (s.theta, s.o, s.omega, s.theta_a, s.omega_a, 0.0)

    @pytest.mark.parametrize("name", REFERENCE_FINAL_STATES)
    def test_final_state_stays_within_1e_12_of_the_reference_path(self, name):
        # a rewrite of the stage's arithmetic may move the path by rounding only
        cfg = build_sim_config(load_config(None))
        if name == "sinusoid_feedforward_dense":
            cfg = replace(cfg, scenario="sinusoid", feedforward=True, stride=1)
        traj = integrate(cfg)
        assert traj.t[-1] == 60.0
        final = [getattr(traj, c)[-1] for c in ("theta", "o", "omega", "theta_a", "omega_a", "o_I")]
        reference = [float.fromhex(h) for h in REFERENCE_FINAL_STATES[name]]
        assert max(abs(x - y) for x, y in zip(final, reference)) <= 1e-12

    def test_hold_mode_still_converges(self):
        held = integrate(make_config(t_end=40.0, hold_dt=0.01))
        smooth = integrate(make_config(t_end=40.0))
        assert held.tau_u != smooth.tau_u  # genuinely different control signal
        assert abs(held.o_e[-1]) < 1e-3

    def test_feedforward_tightens_sinusoid_tracking(self):
        plain = integrate(make_config(scenario="sinusoid", t_end=45.0))
        assisted = integrate(make_config(scenario="sinusoid", t_end=45.0,
                                         feedforward=True))
        # compare steady oscillation only, after the initial transient is gone
        window = [i for i, t in enumerate(plain.t) if t >= 35.0]
        sup_plain = max(abs(plain.o_e[i]) for i in window)
        sup_assisted = max(abs(assisted.o_e[i]) for i in window)
        assert sup_assisted < 0.5 * sup_plain


class TestControllerEvaluations:
    @pytest.mark.parametrize("hold_dt, expected", [
        (None, 4 * 1000 + 1),  # four RK4 stages per step, plus the last sample
        (0.01, 101),  # one torque per hold instant; stages advance only o_I
    ])
    def test_each_torque_is_computed_once(self, hold_dt, expected):
        hold = hold_dt is not None
        copies = sim._loop_source("fixed_point", False, False, hold).count(PID_EXPRESSION)
        assert sim._loop_source("fixed_point", True, False, False).count(PID_EXPRESSION) == 0
        # every copy runs at each of the 1000 steps, or k1's alone at each of
        # the 100 hold instants before the last; k1's once more for the last row
        assert copies * (100 if hold else 1000) + 1 == expected
        cfg = make_config(t_end=1.0, stride=1, hold_dt=hold_dt)
        traj = integrate(cfg)
        stage, ref_fn = closed_loop(cfg), cfg.reference()
        for i in range(len(traj)):
            j = i - i % 10 if hold else i  # the row of the last hold instant
            y = tuple(getattr(traj, column)[j] for column in TRAJECTORY_COLUMNS[1:7])
            _, tau_u, tilde = stage(ref_fn(traj.t[j]), y, None)
            assert bits((traj.tau_u[i], traj.tilde_tau_u[i])) == bits((tau_u, tilde))

    @pytest.mark.parametrize("hold_dt", [None, 0.01])
    def test_reference_is_sampled_once_per_distinct_stage_time(self, hold_dt):
        # k1 and the row at t, k2 and k3 at t + dt/2, k4 at t + dt: each
        # step runs the sample text once per time, in that order
        loop = flat(sim._loop_source("sinusoid", False, True, hold_dt is not None))
        at = [flat(sample_source("sinusoid", t)) for t in ("t", "(t + half)", "(t + dt)")]
        assert [loop.count(text) for text in at] == [1, 1, 1]
        assert loop.index(at[0]) < loop.index(at[1]) < loop.index(at[2])

    def test_open_loop_samples_the_reference_only_at_step_times(self):
        # the open-loop stage ignores its sample, so only the recorded rows take one
        loop = flat(sim._loop_source("sinusoid", True, False, False))
        at = [flat(sample_source("sinusoid", t)) for t in ("t", "(t + half)", "(t + dt)")]
        assert [loop.count(text) for text in at] == [1, 0, 0]
        assert loop.index("if i % stride == 0:") < loop.index(at[0])

    def test_recorded_energy_does_not_call_energy(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("integrate called sim.energy")

        monkeypatch.setattr(sim, "energy", refuse)
        assert len(integrate(make_config(t_end=1.0, stride=1))) == 1001

    def test_recorded_torque_is_the_torque_at_the_recorded_state(self):
        cfg = make_config(t_end=1.0)
        traj = integrate(cfg)
        ref = make_reference("fixed_point", o_ref0=0.0)
        for i in (0, 37, len(traj) - 1):
            s = HoopState(traj.theta[i], traj.o[i], traj.omega[i],
                          traj.theta_a[i], traj.omega_a[i])
            tau_u, tilde, _ = controller.step(cfg.nominal, GAINS, s, ref(traj.t[i]), traj.o_I[i])
            assert (traj.tau_u[i], traj.tilde_tau_u[i]) == (tau_u, tilde)


# -- the fused stage against the modular composition -------------------------

def bits(values):
    """Floats as exact hex strings: equal only if bit-identical (-0.0 != 0.0)."""
    return tuple(float(v).hex() for v in values)


def modular_torque(cfg, ref_fn, t, y):
    """Torque, PID torque and integrator rate from ``controller.step`` (plus
    feedforward in both torques); zeros for an open loop."""
    if cfg.open_loop:
        return 0.0, 0.0, 0.0
    n = cfg.nominal
    s = HoopState(*y[:5])
    ref = ref_fn(t)
    tau_u, tilde, o_i_rate = controller.step(n, cfg.gains, s, ref, y[5])
    if cfg.feedforward:
        tau_ref = n.inertia(s.theta_a) * (-ref.o_ddot_ref / n.r)
        tau_u += tau_ref
        tilde += tau_ref
    return tau_u, tilde, o_i_rate


def modular_rates(cfg, ref_fn, t, y, held):
    """Six closed-loop rates and the (tau_u, tilde_tau_u) pair in force:
    ``plant.derivative`` at the computed torque, or at the held pair with
    only the integrator rate evaluated."""
    n = cfg.nominal
    s = HoopState(*y[:5])
    if held is None:
        tau_u, tilde, o_i_rate = modular_torque(cfg, ref_fn, t, y)
    else:
        eta_e = controller.error(s, ref_fn(t), n.r)[2]
        tau_u, tilde = held
        o_i_rate = controller.integrator_rate(n, y[3], y[4], y[5], eta_e)
    return derivative(cfg.plant, s, tau_u) + (o_i_rate,), (tau_u, tilde)


def modular_integrate(cfg):
    """RK4 over the modular composition with tuples, sampling the reference
    at every stage and taking the energy from ``energy``: the loop
    ``integrate`` ran before the stage was fused."""
    ref_fn = cfg.reference()
    n, dt = cfg.nominal, cfg.dt
    steps = int(round(cfg.t_end / dt))
    hold = cfg.hold_dt is not None and not cfg.open_loop
    hold_steps = max(1, int(round(cfg.hold_dt / dt))) if hold else None
    traj = Trajectory()

    def record(t, y, torques):
        s = HoopState(*y[:5])
        o_e, omega_e, _ = controller.error(s, ref_fn(t), n.r)
        ke, pe = energy(cfg.plant, s)
        for column, value in zip(
            TRAJECTORY_COLUMNS, (t, *y, o_e, omega_e, *torques, ke + pe, ref_fn(t).o_ref),
        ):
            getattr(traj, column).append(value)

    y = (cfg.initial.theta, cfg.initial.o, cfg.initial.omega,
         cfg.initial.theta_a, cfg.initial.omega_a, 0.0)
    held = None
    for i in range(steps + 1):
        t = i * dt
        if hold_steps is not None and i % hold_steps == 0:
            held = torques = modular_torque(cfg, ref_fn, t, y)[:2]
        if i < steps:
            k1, torques = modular_rates(cfg, ref_fn, t, y, held)
        elif i % cfg.stride == 0 and held is None:
            torques = modular_torque(cfg, ref_fn, t, y)[:2]
        if i % cfg.stride == 0:
            record(t, y, torques)
        if i == steps:
            break
        y2 = tuple(y[j] + dt / 2.0 * k1[j] for j in range(6))
        k2 = modular_rates(cfg, ref_fn, t + dt / 2.0, y2, held)[0]
        y3 = tuple(y[j] + dt / 2.0 * k2[j] for j in range(6))
        k3 = modular_rates(cfg, ref_fn, t + dt / 2.0, y3, held)[0]
        y4 = tuple(y[j] + dt * k3[j] for j in range(6))
        k4 = modular_rates(cfg, ref_fn, t + dt, y4, held)[0]
        y_next = tuple(
            y[j] + dt / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
            for j in range(6)
        )
        if not all(math.isfinite(v) and abs(v) <= sim.DIVERGENCE_LIMIT for v in y_next):
            raise DivergenceError(t + dt, y, traj)
        y = y_next
    return traj


TRAJECTORY_COLUMNS = ("t", "theta", "o", "omega", "theta_a", "omega_a", "o_I",
                      "o_e", "omega_e", "tau_u", "tilde_tau_u", "energy", "o_ref")
DISTURBED = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14,
                        beta=math.radians(20.0), delta_s=0.1, delta_a=-0.05)
ORACLE_CONFIGS = {
    "default": {},
    "hold": dict(hold_dt=0.01),
    "hold_uneven_stride": dict(hold_dt=0.007, stride=3),
    "sinusoid_feedforward": dict(scenario="sinusoid", feedforward=True, stride=1),
    "ramp": dict(scenario="ramp"),
    "open_loop": dict(open_loop=True, initial=HoopState(0.0, 0.0, 2.0, 0.7, 3.0)),
    "open_loop_hold": dict(open_loop=True, hold_dt=0.01),
    "disturbed_hold_feedforward": dict(plant=DISTURBED, mismatch=0.8, hold_dt=0.01,
                                       feedforward=True),
}


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def draw_config(draw, **run):
    """A valid plant, a belief, gains and a scenario with non-zero offset,
    ramp speed and sinusoid, feedforward and open loop drawn; ``run`` sets
    the remaining ``SimConfig`` fields."""
    r = draw(finite(0.1, 0.5))
    l = r * draw(finite(0.1, 0.95))
    m_a = draw(finite(0.3, 5.0))
    # i_a above m_a l (r - l) keeps the pendulum inertia above the coupling amplitude
    i_a = m_a * l * (r - l) * draw(finite(1.01, 4.0))
    plant = PlantParams(
        m_h=draw(finite(0.2, 5.0)), i_h=draw(finite(0.005, 0.1)), r=r, m_a=m_a, i_a=i_a,
        l=l, beta=draw(finite(-0.6, 0.6)), g=draw(st.sampled_from([9.81, 0.0])),
        delta_s=draw(finite(-0.3, 0.3)), delta_a=draw(finite(-0.3, 0.3)),
    )
    nonzero = lambda hi: finite(-hi, -0.01) | finite(0.01, hi)
    return SimConfig(
        plant=plant,
        nominal=nominal_from_true(plant, draw(finite(0.5, 1.5))),
        gains=Gains(k_p=draw(finite(0.1, 150.0)), k_d=draw(finite(0.1, 20.0)),
                    k_i=draw(finite(0.1, 10.0))),
        scenario=draw(st.sampled_from(SCENARIOS)),
        o_ref0=draw(nonzero(3.0)),
        ramp_v=draw(nonzero(0.5)),
        sin_amplitude=draw(finite(0.05, 0.5)),  # nonzero, so feedforward acts
        sin_rate=draw(finite(0.05, 3.0)),
        feedforward=draw(st.booleans()),
        open_loop=draw(st.booleans()),
        **run,
    )


@st.composite
def stage_cases(draw):
    """A drawn configuration, a stage time, a state and a held torque."""
    cfg = draw_config(draw)
    t = draw(finite(0.0, 60.0))
    y = (draw(finite(-10.0, 10.0)), draw(finite(-5.0, 5.0)), draw(finite(-10.0, 10.0)),
         draw(finite(-7.0, 7.0)), draw(finite(-30.0, 30.0)), draw(finite(-5.0, 5.0)))
    held = draw(st.none() | st.tuples(finite(-20.0, 20.0), finite(-20.0, 20.0)))
    return cfg, t, y, held


@st.composite
def run_cases(draw):
    """A drawn configuration and start, run for 1 to 50 steps, recorded every
    1, 2, 3 or 7 steps."""
    dt = draw(st.sampled_from([1e-3, 2.5e-3, 0.01]))
    initial = HoopState(
        theta=draw(finite(-1.0, 1.0)), o=draw(finite(-3.0, 3.0)),
        omega=draw(finite(-2.0, 2.0)), theta_a=draw(finite(-1.5, 1.5)),
        omega_a=draw(finite(-3.0, 3.0)),
    )
    return draw_config(
        draw, dt=dt, t_end=draw(st.integers(1, 50)) * dt,
        stride=draw(st.sampled_from([1, 2, 3, 7])), initial=initial,
        hold_dt=draw(st.none() | st.sampled_from([dt, 0.007, 0.01])),
    )


def assert_o_e_is_o_minus_o_ref(traj):
    assert bits(traj.o_e) == bits([o - o_ref for o, o_ref in zip(traj.o, traj.o_ref)])


def run_outcome(run, cfg):
    """The trajectory ``run`` records, with (time, state bits) if it diverged."""
    try:
        return run(cfg), None
    except DivergenceError as exc:
        return exc.trajectory, (exc.time, bits(exc.state))


class TestClosedLoopStage:
    @settings(max_examples=300, deadline=None)
    @given(stage_cases())
    def test_equals_modular_composition(self, case):
        cfg, t, y, held = case
        ref_fn = cfg.reference()
        rates, tau_u, tilde_tau_u = closed_loop(cfg)(ref_fn(t), y, held)
        if cfg.open_loop:  # no torque, nothing held
            expected = derivative(cfg.plant, HoopState(*y[:5]), 0.0) + (0.0,)
            torques = (0.0, 0.0)
        else:
            expected, torques = modular_rates(cfg, ref_fn, t, y, held)
        assert bits(rates) == bits(expected)
        assert bits((tau_u, tilde_tau_u)) == bits(torques)

    @settings(max_examples=100, deadline=None)
    @given(stage_cases(), st.sampled_from([math.inf, -math.inf, math.nan]))
    def test_non_finite_torque_gives_non_finite_omega_dot(self, case, torque):
        # the state bound of the RK4 step relies on this: the torque enters
        # omega_dot as a summand over a finite, positive inertia
        cfg, t, y, _ = case
        cfg = replace(cfg, open_loop=False)
        rates, _, _ = closed_loop(cfg)(cfg.reference()(t), y, (torque, 0.0))
        assert not math.isfinite(rates[2])

    @settings(max_examples=150, deadline=None)
    @given(run_cases())
    def test_integrate_equals_modular_loop_on_drawn_runs(self, cfg):
        fused, fused_end = run_outcome(integrate, cfg)
        modular, modular_end = run_outcome(modular_integrate, cfg)
        assert fused_end == modular_end
        assert len(fused) == len(modular)
        for column in TRAJECTORY_COLUMNS:
            assert bits(getattr(fused, column)) == bits(getattr(modular, column)), column
        assert_o_e_is_o_minus_o_ref(fused)

    @pytest.mark.parametrize("name", ORACLE_CONFIGS)
    def test_integrate_is_bit_identical_to_modular_loop(self, name):
        cfg = make_config(t_end=1.0, **ORACLE_CONFIGS[name])
        fused, modular = integrate(cfg), modular_integrate(cfg)
        assert len(fused) == len(modular)
        for column in TRAJECTORY_COLUMNS:
            assert bits(getattr(fused, column)) == bits(getattr(modular, column)), column

    def test_divergence_is_bit_identical_to_modular_loop(self):
        cfg = make_config(t_end=1.0, stride=1, initial=HoopState(0.0, 0.0, 0.0, 0.0, 900.0))
        with pytest.raises(DivergenceError) as fused:
            integrate(cfg)
        with pytest.raises(DivergenceError) as modular:
            modular_integrate(cfg)
        a, b = fused.value, modular.value
        assert a.time == b.time and a.time > 0.05
        assert bits(a.state) == bits(b.state)
        assert len(a.trajectory) == len(b.trajectory)
        for column in TRAJECTORY_COLUMNS:
            assert bits(getattr(a.trajectory, column)) == bits(getattr(b.trajectory, column))
        assert_o_e_is_o_minus_o_ref(a.trajectory)


class TestSymbolicStage:
    def test_linearisation_at_rest_is_the_hoop_cubic_times_the_pendulum(self):
        # The stage template is plain arithmetic, so it runs on sympy symbols
        # as it stands.  On flat ground with belief = truth, its Jacobian in
        # (o, omega, theta_a, omega_a, o_I) at the origin splits into the
        # PID's cubic (the gains act as r k_p and r k_i on o in metres) and
        # the pendulum hanging from the hoop centre.  The characteristic
        # polynomial is det(lambda I - J) of the cancelled entries by
        # Berkowitz's division-free expansion, compared through the numerator
        # of the difference: no step takes a polynomial gcd, so a wrong stage
        # fails in seconds where sympy's charpoly of the entries would not end.
        m_h, i_h, r, m_a, i_a, l, grav, k_p, k_d, k_i = sympy.symbols(
            "m_h i_h r m_a i_a l g k_p k_d k_i", positive=True)
        lam = sympy.Symbol("lambda")
        pend, amp = i_a + m_a * l**2, m_a * r * l
        params = SimpleNamespace(
            r=r, m_a=m_a, l=l, g=grav, beta=0, delta_s=0, delta_a=0, m_total=m_h + m_a,
            pendulum_inertia=pend, coupling_amp=amp, inertia_dip=amp**2 / pend,
            rolling_inertia=i_h + (m_h + m_a) * r**2,
        )
        state = sympy.symbols("o omega theta_a omega_a o_i")
        scope = dict(math=sympy_math(), p=params, n=params,
                     g=SimpleNamespace(k_p=k_p, k_d=k_d, k_i=k_i),
                     o_ref=0, o_dot_ref=0, o_ddot_ref=0, **{str(x): x for x in state})
        exec(sim._CONSTANTS + sim._stage_source(False, False, "fresh"), scope)
        rates = sympy.Matrix([-r * state[1], scope["omega_dot"], state[3],
                              scope["omega_a_dot"], scope["o_i_rate"]])
        jacobian = rates.jacobian(state).subs({x: 0 for x in state})
        jacobian = jacobian.applyfunc(lambda e: sympy.cancel(sympy.nsimplify(e, rational=True)))
        charpoly = (lam * sympy.eye(5) - jacobian).det(method="berkowitz")
        expected = ((lam**3 + k_d * lam**2 + r * k_p * lam + r * k_i)
                    * (lam**2 + m_a * grav * l / (i_a + m_a * l**2 - m_a * r * l)))
        assert sympy.expand(sympy.numer(sympy.together(charpoly - expected))) == 0

    @pytest.mark.parametrize("feedforward", [False, True])
    def test_controller_text_is_the_double_angle_law_exactly(self, feedforward):
        # The stage takes sin 2 theta_a as 2 sin cos and cos^2 as a product,
        # and hoists h = m_a^2 r l^2 g / (i_a + m_a l^2) where the law reads
        # (h/2) sin 2 theta_a: with every parameter a free symbol, its
        # integrator rate and torques are the law's written with sin 2
        # theta_a, exactly, so the rewrite changed rounding only.
        scope = symbolic_stage_scope()
        exec(sim._CONSTANTS + sim._stage_source(False, feedforward, "fresh"), scope)
        n, g = scope["n"], scope["g"]
        sin, cos = sympy.sin, sympy.cos
        o, omega, theta_a, omega_a, o_i, o_ref, o_dot_ref, o_ddot_ref = (
            scope[name] for name in STAGE_INPUTS)
        n_inertia = n.rolling_inertia - n.inertia_dip * cos(theta_a)**2
        slope = n.inertia_dip * sin(2 * theta_a)
        h = n.m_a**2 * n.r * n.l**2 * n.g / n.pendulum_inertia
        eta_e, omega_e = o_ref - o, omega + o_dot_ref / n.r
        tilde = -n_inertia * (g.k_p * eta_e + g.k_d * omega_e + g.k_i * o_i)
        tau_u = (-slope / 2 * omega_a * omega_e + n.coupling_amp * sin(theta_a) * omega_a**2
                 + h / 2 * sin(2 * theta_a) + tilde)
        if feedforward:
            tau_ref = n_inertia * (-o_ddot_ref / n.r)
            tau_u, tilde = tau_u + tau_ref, tilde + tau_ref
        expected = {"o_i_rate": eta_e - slope / (2 * n_inertia) * omega_a * o_i,
                    "tau_u": tau_u, "tilde": tilde}
        for name, law in expected.items():
            text = sympy.nsimplify(scope[name], rational=True)
            assert sympy.cancel(sympy.expand_trig(text - law)) == 0, name

    def test_plant_text_is_the_euler_lagrange_equations_exactly(self):
        # Independent of the plant module: the accelerations of Lagrange's
        # equations for ``energy`` on symbols, with the input as the pair
        # (tau, -tau) and the disturbances added over I, equal the plant
        # text's at 20 random rational points, exactly.
        residuals = euler_lagrange_residuals(sim._PLANT, points=20)
        assert residuals == [(0, 0)] * 20

    @pytest.mark.parametrize("name", [
        "rolling", "dip", "amp", "pend", "delta_s", "delta_a", "spin_incline", "spin_hang",
        "amp_ratio", "hang_ratio", "act_quad"])
    def test_euler_lagrange_check_sees_a_coefficient_off_by_a_thousandth(self, name):
        plant = re.sub(rf"\b{name}\b", f"({name} * 1001 / 1000)", sim._PLANT)
        assert plant != sim._PLANT
        assert euler_lagrange_residuals(plant, points=1) != [(0, 0)]


# the names of the stage's state and reference sample
STAGE_INPUTS = ("o", "omega", "theta_a", "omega_a", "o_i", "o_ref", "o_dot_ref", "o_ddot_ref")


def symbolic_stage_scope():
    """An ``exec`` scope for the stage text in which the true plant p, the
    belief n and the gains g hold independent symbols for every field the
    text reads, and the state and sample are symbols."""
    def fields(prefix, names):
        return SimpleNamespace(**{name: sympy.Symbol(f"{prefix}{name}", positive=True)
                                  for name in names})

    masses = ("r", "m_a", "l", "g", "m_total", "pendulum_inertia", "coupling_amp",
              "inertia_dip", "rolling_inertia")
    p = fields("", masses)
    p.beta, p.delta_s, p.delta_a = sympy.symbols("beta delta_s delta_a", real=True)
    n, g = fields("n_", masses), fields("", ("k_p", "k_d", "k_i"))
    return dict(math=sympy_math(), p=p, n=n, g=g,
                **{name: sympy.Symbol(name, real=True) for name in STAGE_INPUTS})


def euler_lagrange_residuals(plant_text, points):
    """(omega_dot, omega_a_dot) of Lagrange's equations minus those of
    ``_CONSTANTS + _TRIG + plant_text`` at ``points`` seeded rational
    points, each difference exact: theta_a and beta enter through the
    half-angle substitution sin = 2u/(1 + u^2), cos = (1 - u^2)/(1 + u^2)
    at rational u, so every value is a rational number."""
    accelerations, p, params, (w1, w2, tau_u) = euler_lagrange_accelerations()
    scope = dict(math=sympy_math(), p=p, n=p,
                 g=SimpleNamespace(k_p=1, k_d=1, k_i=1), theta_a=THETA_A, omega_a=w2, tau_u=tau_u)
    exec(sim._CONSTANTS + sim._TRIG + plant_text, scope)
    text = [sympy.expand_trig(sympy.nsimplify(scope[name], rational=True))
            for name in ("omega_dot", "omega_a_dot")]
    rng = random.Random(10)
    draw = lambda lo, hi: sympy.Rational(rng.randint(lo, hi), 100)
    residuals = []
    for _ in range(points):
        # a hoop of radius 0.1 to 0.5 m with its arm inside; a point where
        # the mass matrix were singular would give no rational residual
        radius = draw(10, 50)
        values = dict(zip(params, (draw(20, 500), draw(1, 10) / 10, radius, draw(30, 500),
                                   draw(1, 10) / 10, radius * draw(10, 95) / 100, draw(0, 1000),
                                   draw(-300, 300), draw(-30, 30), draw(-30, 30))))
        values.update({w1: draw(-300, 300), w2: draw(-300, 300), tau_u: draw(-500, 500)})
        for angle, u in ((THETA_A, draw(-300, 300)), (p.beta, draw(-60, 60))):
            values[sympy.sin(angle)] = 2 * u / (1 + u**2)
            values[sympy.cos(angle)] = (1 - u**2) / (1 + u**2)
        residual = tuple(sympy.cancel(a.xreplace(values) - b.xreplace(values))
                         for a, b in zip(accelerations, text))
        assert all(value.is_Rational for value in residual), residual
        residuals.append(residual)
    return residuals


class TestCompiledLoop:
    """The loop source is compiled once per combination of flags and holds no
    value of a run: the constants, dt and stride come in as arguments."""

    def test_a_run_between_two_equal_runs_leaves_them_equal(self):
        flags = dict(scenario="sinusoid", feedforward=True, hold_dt=0.01, stride=1)
        a = make_config(t_end=0.5, **flags)
        other = PlantParams(m_h=2.0, i_h=0.05, r=0.3, m_a=1.5, i_a=0.05, l=0.2, beta=-0.3,
                            delta_s=0.05)
        b = SimConfig(plant=other, nominal=nominal_from_true(other, 0.8),
                      gains=Gains(k_p=40.0, k_d=3.0, k_i=1.0), dt=2.5e-3, t_end=0.5, **flags)
        first, between, again = integrate(a), integrate(b), integrate(a)
        modular = modular_integrate(b)
        assert len(between) == len(modular) != len(first)
        for column in TRAJECTORY_COLUMNS:
            assert bits(getattr(again, column)) == bits(getattr(first, column)), column
            assert bits(getattr(between, column)) == bits(getattr(modular, column)), column

    def test_traceback_shows_the_line_that_raised(self):
        cfg = replace(make_config(t_end=1.0), gains=Gains(1e200, 7.0, 4.0, 0.1))
        with pytest.raises(DivergenceError) as excinfo:
            integrate(cfg)
        overflow = excinfo.value.__cause__
        assert isinstance(overflow, OverflowError)
        frame = traceback.extract_tb(overflow.__traceback__)[-1]
        assert frame.filename.startswith("<hooprobot.sim loop ")
        assert frame.line == "omega_a_sq = omega_a_2**2"

    @pytest.mark.parametrize("open_loop, feedforward, torque, suffix", itertools.product(
        (False, True), (False, True), ("fresh", "held", "either"), ("", "_2")))
    def test_a_stage_calls_sin_cos_and_pow_once_each(self, open_loop, feedforward, torque,
                                                     suffix):
        source = sim._stage_source(open_loop, feedforward, torque, suffix)
        assert (source.count("sin("), source.count("cos("), source.count("**")) == (1, 1, 1)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_the_state_bound_negates_no_limit_in_the_loop(self, scenario):
        for flags in itertools.product((False, True), repeat=3):
            source = sim._loop_source(scenario, *flags)
            body = source.split("for i in range(steps + 1):\n", 1)[1].split("\n    except ")[0]
            assert "<= limit" in body and "-limit" not in body

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_the_loop_inlines_the_text_make_reference_compiles(self, scenario):
        cfg = make_config(scenario=scenario, o_ref0=-0.7, ramp_v=0.3, sin_amplitude=0.4,
                          sin_rate=1.3)
        sample = cfg.reference()
        text = flat(sample_source(scenario, "t"))
        compiled = flat("".join(linecache.getlines(f"<hooprobot.reference factory {scenario}>")))
        assert text in compiled
        for flags in itertools.product((False, True), repeat=3):
            assert text in flat(sim._loop_source(scenario, *flags))
        o0, v, amplitude, rate = -0.7, 0.3, 0.4, 1.3
        plain = {
            "fixed_point": lambda t: ReferenceSample(o0, 0.0, 0.0),
            "ramp": lambda t: ReferenceSample(o0 + v * t, v, 0.0),
            "sinusoid": lambda t: ReferenceSample(
                o0 + amplitude * (1.0 - math.cos(rate * t)) / rate,
                amplitude * math.sin(rate * t),
                amplitude * rate * math.cos(rate * t),
            ),
        }[scenario]
        dt = cfg.dt
        for i in range(0, 60000, 7):  # k1, k2 and k3, k4 of every 7th step of 60 s
            for t in (i * dt, i * dt + dt / 2.0, i * dt + dt):
                assert type(sample(t)) is ReferenceSample
                assert bits(sample(t)) == bits(plain(t))


class TestTrajectoryCsv:
    def test_header_and_shape(self, tmp_path):
        traj = integrate(make_config(t_end=1.0))
        target = tmp_path / "out.csv"
        traj.write_csv(target)
        lines = target.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == "t,theta,o,omega,theta_a,omega_a,o_I,o_e,omega_e,tau_u,energy"
        assert len(lines) == 1 + len(traj)
        first = [float(v) for v in lines[1].split(",")]
        assert len(first) == 11
        assert first[0] == 0.0

    def test_full_precision_round_trip(self, tmp_path):
        traj = integrate(make_config(t_end=0.5))
        target = tmp_path / "out.csv"
        traj.write_csv(target)
        lines = target.read_text().splitlines()[1:]
        read_back = [float(line.split(",")[2]) for line in lines]
        assert read_back == traj.o.tolist()  # repr() loses nothing

    def test_empty_trajectory_writes_header_only(self, tmp_path):
        target = tmp_path / "empty.csv"
        Trajectory().write_csv(target)
        assert target.read_text() == CSV_HEADER + "\n"


class TestColumnLayout:
    """Each column is an ``array('d')``, 8 bytes per recorded value."""

    def test_every_column_is_an_array_of_doubles(self):
        cfg = make_config(scenario="sinusoid", feedforward=True, t_end=1.0, stride=7)
        diverging = make_config(t_end=1.0, stride=1, initial=HoopState(0.0, 0.0, 0.0, 0.0, 900.0))
        with pytest.raises(DivergenceError) as excinfo:
            integrate(diverging)
        runs = {"integrate": integrate(cfg), "DivergenceError": excinfo.value.trajectory}
        for name, traj in runs.items():
            assert len(traj) > 1, name
            for column in TRAJECTORY_COLUMNS:
                values = getattr(traj, column)
                assert type(values) is array and values.typecode == "d", (name, column)

    def test_a_dense_run_holds_about_8_bytes_per_value(self):
        # 13 columns of 8-byte doubles, 104 bytes a row.  An array grows its
        # buffer by about 1/16 of its length, so with the spare room a row
        # takes up to about 111 bytes (107 on CPython 3.11), under the 144
        # allowed (12 * 8 * 1.5); the fixed 64 KiB covers the Trajectory and
        # array objects, the loop's frame and the few floats alive in a step.
        # Columns as lists would hold an 8-byte slot and a 24-byte float per
        # value, 416 bytes a row.
        cfg = make_config(t_end=5.0, stride=1)
        integrate(replace(cfg, t_end=0.01))  # compiles the loop before the measurement
        tracemalloc.start()
        try:
            traj = integrate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = len(traj)
        assert rows >= 5000
        assert peak < 12 * 8 * rows * 1.5 + 64 * 1024


def parent_write_csv(traj, path):
    """The per-row writer ``Trajectory.write_csv`` replaced: one join per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in zip(
            traj.t, traj.theta, traj.o, traj.omega, traj.theta_a,
            traj.omega_a, traj.o_I, traj.o_e, traj.omega_e, traj.tau_u,
            traj.energy,
        ):
            fh.write(",".join(repr(v) for v in row) + "\n")


def parent_write_figures(out_dir, traj):
    """The csv.writer figure loop the one-pass writer replaced."""
    def dump(name, header, rows):
        with open(out_dir / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(v) for v in row])

    dump(
        "fig_position.csv", ["t", "o", "o_ref"],
        zip(traj.t, traj.o, traj.o_ref),
    )
    dump("fig_tracking_error.csv", ["t", "o_e"], zip(traj.t, traj.o_e))
    dump("fig_velocity_error.csv", ["t", "omega_e"], zip(traj.t, traj.omega_e))
    dump("fig_actuator_velocity.csv", ["t", "omega_a"], zip(traj.t, traj.omega_a))


def synthetic_trajectory(rows, seed=0):
    """``rows`` samples on the 1 ms grid, other columns spread over 40 decades."""
    rng = random.Random(seed)
    traj = Trajectory()
    for i in range(rows):
        traj.t.append(i * 1e-3)
        for column in TRAJECTORY_COLUMNS[1:]:
            getattr(traj, column).append(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20))
    return traj


REFERENCES = {
    "fixed_point": make_reference("fixed_point", o_ref0=0.7),
    "ramp": make_reference("ramp", o_ref0=-1.3, ramp_v=0.25),
    "sinusoid": make_reference("sinusoid", o_ref0=0.4, sin_amplitude=0.3, sin_rate=0.5),
}


def following(traj, reference):
    """``traj`` with the o_ref column of ``reference`` sampled at its times."""
    return replace(traj, o_ref=array("d", (reference(t).o_ref for t in traj.t)))


class TestOnePassWriter:
    """``write_csv`` with the figure tables equals the two writers it replaced."""

    def assert_matches_parent(self, traj, tmp_path, oracle=None):
        """The files of ``traj`` equal those the replaced writers write of
        ``oracle``, by default ``traj`` itself."""
        oracle = traj if oracle is None else oracle
        new, old = tmp_path / "new", tmp_path / "old"
        new.mkdir()
        old.mkdir()
        traj.write_csv(new / "trajectory.csv", [(new / name, columns) for name, columns in FIGURES])
        parent_write_csv(oracle, old / "trajectory.csv")
        parent_write_figures(old, oracle)
        names = ["trajectory.csv", *(name for name, _ in FIGURES)]
        assert sorted(p.name for p in new.iterdir()) == sorted(names)
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name

    @pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1])
    @pytest.mark.parametrize("scenario", ["ramp", "sinusoid"])
    def test_bytes_equal_at_block_edges(self, rows, scenario, tmp_path):
        self.assert_matches_parent(following(synthetic_trajectory(rows), REFERENCES[scenario]),
                                   tmp_path)

    @pytest.mark.parametrize("scenario", ["fixed_point", "ramp"])
    def test_bytes_equal_on_extreme_floats(self, scenario, tmp_path):
        specials = [-0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan, 5e-324]
        traj = Trajectory()
        for i in range(2 * len(specials)):
            for k, column in enumerate(TRAJECTORY_COLUMNS):
                getattr(traj, column).append(specials[(i + k) % len(specials)])
        self.assert_matches_parent(following(traj, REFERENCES[scenario]), tmp_path)

    @pytest.mark.parametrize("run", [
        dict(scenario="fixed_point", stride=1),
        dict(scenario="ramp", ramp_v=0.25, stride=1),
        dict(scenario="sinusoid", feedforward=True, stride=1),
        dict(scenario="ramp", hold_dt=0.007, stride=3),
        dict(scenario="sinusoid", open_loop=True, stride=1),
    ], ids=["fixed_point", "ramp", "sinusoid", "hold", "open_loop"])
    def test_bytes_equal_on_integrated_run(self, run, tmp_path):
        # the replaced writers sampled the reference at each row; the loop records it
        cfg = make_config(o_ref0=0.4, t_end=1.0, **run)
        traj = integrate(cfg)
        self.assert_matches_parent(traj, tmp_path, oracle=following(traj, cfg.reference()))


def streamed(cfg, out):
    """``integrate_to_csv`` of ``cfg`` into a new directory ``out``."""
    out.mkdir()
    return sim.integrate_to_csv(
        cfg, out / "trajectory.csv", [(out / name, columns) for name, columns in FIGURES],
    )


def written(traj, out):
    """``write_csv`` of ``traj`` into a new directory ``out``, as ``simulate`` did
    before it streamed its rows to a writer process."""
    out.mkdir()
    traj.write_csv(out / "trajectory.csv", [(out / name, columns) for name, columns in FIGURES])


def assert_same_files(a, b):
    names = sorted(["trajectory.csv", *(name for name, _ in FIGURES)])
    assert sorted(p.name for p in a.iterdir()) == names
    assert sorted(p.name for p in b.iterdir()) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestIntegrateToCsv:
    """The forked writer writes the bytes of ``write_csv`` of ``integrate``,
    also for a run that fails or is interrupted, and leaves nothing behind."""

    @pytest.mark.parametrize("stride", [1, 7, 10])
    @pytest.mark.parametrize("hold_dt", [None, 0.01])
    @pytest.mark.parametrize("feedforward", [False, True])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_bytes_equal_write_csv_of_integrate(
        self, scenario, feedforward, hold_dt, stride, tmp_path, leaves_no_child_or_fd,
    ):
        # 1801 steps: at stride 7 the 258 rows end one block in with 2 rows
        cfg = make_config(scenario=scenario, o_ref0=0.4, feedforward=feedforward,
                          hold_dt=hold_dt, stride=stride, t_end=1.8)
        with leaves_no_child_or_fd():
            summary = streamed(cfg, tmp_path / "streamed")
        expected = integrate(cfg)
        assert type(summary) is RunSummary
        assert summary == summarize(expected)
        written(expected, tmp_path / "written")
        assert_same_files(tmp_path / "streamed", tmp_path / "written")

    @pytest.mark.parametrize("raised, overrides", [
        # the state bound fails after 526 rows, two blocks and 14 rows
        (DivergenceError, dict(dt=5e-4, initial=HoopState(0.0, 0.0, 0.0, 0.0, 300.0))),
        # the torque at t = 0 is inf and cos of k3's angle raises: the row at t = 0 only
        (ValueError, dict(initial=HoopState(0.0, 1e308, 0.0, 0.0, 0.0))),
    ])
    def test_failed_run_writes_the_partial_files_of_write_csv(
        self, raised, overrides, tmp_path, leaves_no_child_or_fd,
    ):
        # either way the run ends in DivergenceError; ``raised`` is what the
        # loop raised first, the error itself or its cause
        cfg = make_config(t_end=1.0, stride=1, **overrides)
        with leaves_no_child_or_fd():
            with pytest.raises(DivergenceError) as streaming:
                streamed(cfg, tmp_path / "streamed")
        with pytest.raises(DivergenceError) as plain:
            integrate(cfg)
        for failure in (streaming.value, plain.value):
            assert type(failure.__cause__ or failure) is raised
        assert str(streaming.value) == str(plain.value)
        assert streaming.value.time == plain.value.time
        assert bits(streaming.value.state) == bits(plain.value.state)
        # the rows went to the files; the streaming run keeps none of them
        assert len(plain.value.trajectory) > 0
        for column in TRAJECTORY_COLUMNS:
            assert len(getattr(streaming.value.trajectory, column)) == 0, column
        written(plain.value.trajectory, tmp_path / "written")
        assert_same_files(tmp_path / "streamed", tmp_path / "written")

    def test_interrupt_writes_the_rows_recorded_before_it(
        self, monkeypatch, tmp_path, leaves_no_child_or_fd, interrupt_at_row,
    ):
        cfg = make_config(scenario="sinusoid", t_end=1.0, stride=1)
        interrupt_at_row(300 * cfg.dt)  # the row of step 300
        with leaves_no_child_or_fd():
            with pytest.raises(KeyboardInterrupt):
                streamed(cfg, tmp_path / "streamed")
        monkeypatch.undo()
        rows = len((tmp_path / "streamed" / "trajectory.csv").read_text().splitlines()) - 1
        assert rows == 300  # a whole block and 44 rows
        full = integrate(cfg)
        head = Trajectory(**{column: getattr(full, column)[:rows] for column in TRAJECTORY_COLUMNS})
        written(head, tmp_path / "written")
        assert_same_files(tmp_path / "streamed", tmp_path / "written")

    @pytest.mark.parametrize("writer", ["write_csv", "integrate_to_csv"])
    def test_unknown_column_leaves_the_files_of_an_earlier_run(
        self, writer, tmp_path, leaves_no_child_or_fd,
    ):
        # the column names are resolved before any table is opened, so none
        # is truncated and no new one is made
        cfg = make_config(t_end=0.5)
        out = tmp_path / "run"
        streamed(cfg, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert all(before.values())
        figures = [(out / name, columns) for name, columns in FIGURES]
        figures.append((out / "fig_bogus.csv", ("t", "bogus")))
        with leaves_no_child_or_fd():
            with pytest.raises(AttributeError, match="'bogus'"):
                if writer == "write_csv":
                    integrate(cfg).write_csv(out / "trajectory.csv", figures)
                else:
                    sim.integrate_to_csv(cfg, out / "trajectory.csv", figures)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_without_fork_the_same_writer_runs_in_this_process(
        self, monkeypatch, tmp_path, leaves_no_child_or_fd,
    ):
        monkeypatch.delattr(os, "fork")
        cfg = make_config(scenario="sinusoid", feedforward=True, stride=7, t_end=1.8)
        with leaves_no_child_or_fd():
            streamed(cfg, tmp_path / "streamed")
        written(integrate(cfg), tmp_path / "written")
        assert_same_files(tmp_path / "streamed", tmp_path / "written")

    def test_memory_does_not_grow_with_the_run(self, tmp_path):
        # the rows go to the writer process block by block, and this process
        # keeps none it has sent, so ten times the rows take no more memory
        cfg = make_config(scenario="sinusoid", feedforward=True, stride=1, t_end=2.0)
        streamed(replace(cfg, t_end=0.01), tmp_path / "warm")  # compiles the loop first
        peaks = []
        for t_end in (2.0, 20.0):
            tracemalloc.start()
            try:
                summary = streamed(replace(cfg, t_end=t_end), tmp_path / f"run_{t_end}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert summary.rows == round(t_end / cfg.dt) + 1
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks


def settling_by_definition(t, o_e):
    """The settling time row by row: the t after the last row outside the
    band, inf if that is the last row, t[0] if no row is outside."""
    outside = [i for i, value in enumerate(o_e) if abs(value) >= SETTLING_BAND]
    if not outside:
        return t[0]
    return t[outside[-1] + 1] if outside[-1] + 1 < len(t) else math.inf


def summary_columns(o_e, omega_a):
    """A trajectory of ``o_e`` and ``omega_a`` on the 1 ms grid, other columns empty."""
    return Trajectory(t=array("d", (i * 1e-3 for i in range(len(o_e)))),
                      o_e=array("d", o_e), omega_a=array("d", omega_a))


def fold(traj, sizes):
    """``summarize`` folded over consecutive blocks of ``traj``, their
    lengths taken from ``sizes`` in turn."""
    summary, start = None, 0
    for size in itertools.cycle(sizes):
        if start >= len(traj):
            return summary
        block = Trajectory(**{name: getattr(traj, name)[start:start + size]
                              for name in ("t", "o_e", "omega_a")})
        summary = summarize(block) if summary is None else summarize(block, summary)
        start += size


# values inside, on and outside the band, of either sign
O_E_VALUES = (0.0, -0.0, 0.004, -SETTLING_BAND / 2, SETTLING_BAND, -SETTLING_BAND,
              0.0100000001, -0.3, 2.0)
# each a column of o_e and the row whose t is its settling time, None for inf
SUMMARY_CASES = {
    # a block whose last row is outside: the next block starts the settled tail
    "block_ends_outside": ([0.0] * (CSV_CHUNK - 1) + [0.5] + [0.0] * CSV_CHUNK, CSV_CHUNK),
    "run_ends_outside": ([0.0] * CSV_CHUNK + [0.0, -0.02], None),
    "never_outside": ([0.009, -0.009] * CSV_CHUNK, 0),
    "re_excursion": ([0.5] * 3 + [0.0] * 300 + [-SETTLING_BAND] + [0.001] * 5, 304),
}


class TestRunSummary:
    """``summarize`` folded over any split of a run equals it over the whole
    run, and that equals the row-by-row definition."""

    @pytest.mark.parametrize("size", [1, 2, CSV_CHUNK - 1, CSV_CHUNK])
    @pytest.mark.parametrize("case", SUMMARY_CASES)
    def test_fold_equals_the_whole_and_the_definition(self, case, size):
        o_e, row = SUMMARY_CASES[case]
        omega_a = [(-1.0) ** i * (i % 97) for i in range(len(o_e))]
        traj = summary_columns(o_e, omega_a)
        settling = math.inf if row is None else traj.t[row]
        whole = summarize(traj)
        assert fold(traj, [size]) == whole
        assert whole == RunSummary(len(o_e), abs(o_e[-1]), 96.0, settling)
        assert settling_by_definition(traj.t, traj.o_e) == settling

    @settings(max_examples=300, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.sampled_from(O_E_VALUES), st.integers(1, 2 * CSV_CHUNK)),
                      min_size=1, max_size=6),
        omega_a=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=9),
        sizes=st.lists(st.sampled_from([1, 2, 3, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1]),
                       min_size=1, max_size=4),
    )
    def test_any_split_folds_to_the_whole(self, runs, omega_a, sizes):
        o_e = [value for value, count in runs for _ in range(count)]
        traj = summary_columns(o_e, [omega_a[i % len(omega_a)] for i in range(len(o_e))])
        whole = summarize(traj)
        assert fold(traj, sizes) == whole
        assert whole.rows == len(o_e)
        assert whole.terminal_o_e == abs(o_e[-1])
        assert whole.max_omega_a == max(abs(v) for v in traj.omega_a)
        assert whole.settling_time == settling_by_definition(traj.t, traj.o_e)
