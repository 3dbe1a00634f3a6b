"""Integrator behavior: configs, determinism, energy accounting, the oracle."""
import csv
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hooprobot import controller, sim
from hooprobot.cli import FIGURES
from hooprobot.controller import ControllerState, Gains
from hooprobot.plant import (
    HoopState,
    PlantParams,
    SingularCouplingError,
    coupling_gain,
    derivative,
)
from hooprobot.reference import SCENARIOS, make_reference
from hooprobot.regularizer import nominal_from_true
from hooprobot.sim import (
    CSV_CHUNK,
    CSV_HEADER,
    DivergenceError,
    SimConfig,
    Trajectory,
    closed_loop,
    energy,
    integrate,
    lagrangian_oracle,
)

TRUE = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14,
                   beta=math.radians(20.0))
FLAT = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14, beta=0.0)
GAINS = Gains(k_p=16.0, k_d=7.0, k_i=4.0, k_c=0.1)


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

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            make_config(scenario="spiral")

    def test_reference_dispatch(self):
        cfg = make_config(scenario="ramp", o_ref0=1.0, ramp_v=0.4)
        assert cfg.reference()(2.0).o_ref == pytest.approx(1.8)
        cfg = make_config(scenario="sinusoid", sin_amplitude=0.2, sin_rate=0.8)
        assert cfg.reference()(0.0).o_ddot_ref == pytest.approx(0.16)


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


class TestLagrangianOracle:
    def test_matches_closed_form_on_random_states(self):
        rng = np.random.default_rng(42)
        disturbed = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035,
                                l=0.14, beta=math.radians(20.0),
                                delta_s=0.1, delta_a=0.05)
        worst = 0.0
        for _ in range(100):
            s = HoopState(
                theta=float(rng.uniform(-math.pi, math.pi)),
                o=float(rng.uniform(-3, 3)),
                omega=float(rng.uniform(-5, 5)),
                theta_a=float(rng.uniform(-math.pi, math.pi)),
                omega_a=float(rng.uniform(-5, 5)),
            )
            tau = float(rng.uniform(-2, 2))
            rates = derivative(disturbed, s, tau)
            od, oad = lagrangian_oracle(disturbed, s, tau)
            worst = max(worst, abs(rates[2] - od), abs(rates[4] - oad))
        assert worst < 1e-6

    def test_input_routing_sensitivities(self):
        # d(omega_dot)/d(tau_u) = 1/I and d(omega_a_dot)/d(tau_u) = B/I,
        # probed through the oracle alone
        s = HoopState(theta=0.2, o=-0.5, omega=0.6, theta_a=0.9, omega_a=-0.8)
        lo = lagrangian_oracle(TRUE, s, -0.5)
        hi = lagrangian_oracle(TRUE, s, 0.5)
        inertia = TRUE.inertia(s.theta_a)
        spin_sens = (hi[0] - lo[0]) / 1.0
        act_sens = (hi[1] - lo[1]) / 1.0
        assert spin_sens == pytest.approx(1.0 / inertia, rel=1e-6)
        assert act_sens == pytest.approx(
            coupling_gain(TRUE, s.theta_a) / inertia, rel=1e-6
        )

    def test_singular_input_allocation_raises(self, singular_plant):
        bad_angle = math.acos(singular_plant.pendulum_inertia / singular_plant.coupling_amp)
        s = HoopState(0.0, 0.0, 0.1, bad_angle, 0.1)
        with pytest.raises(SingularCouplingError):
            lagrangian_oracle(singular_plant, s, 0.3)

    def test_singular_mass_matrix_raises(self):
        # fake parameter object tuned so the generalized mass matrix
        # determinant pend * (J - K cos^2) collapses at theta_a = 0: a nearly
        # massless hoop whose rolling inertia equals the coupling dip
        m_a, r, l = 2.0, 0.2, 0.1
        amp = m_a * r * l                 # 0.04
        pend = amp**2 / (m_a * r**2)      # dip = amp^2/pend = J = m_a r^2
        fake = SimpleNamespace(
            m_h=1e-12, i_h=1e-12, r=r, m_a=m_a, i_a=pend - m_a * l**2, l=l,
            beta=0.0, g=9.81, delta_s=0.0, delta_a=0.0,
            m_total=m_a + 1e-12, pendulum_inertia=pend, coupling_amp=amp,
            inertia=lambda q: 1e-13,
        )
        s = HoopState(0.0, 0.0, 0.1, 0.0, 0.1)
        with pytest.raises(ValueError, match="mass matrix"):
            lagrangian_oracle(fake, s, 0.0)


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
        assert a.o == b.o
        assert a.omega_a == b.omega_a
        assert a.tau_u == b.tau_u
        assert a.energy == b.energy

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
        assert err.trajectory.diverged_at == err.time
        assert len(err.trajectory) == 1  # only the initial sample was recorded

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
    def test_each_torque_is_computed_once(self, monkeypatch, hold_dt, expected):
        calls = []
        build = sim.closed_loop

        def counting_closed_loop(cfg, reference):
            stage = build(cfg, reference)

            def counted(t, y, held):
                if held is None:  # the stage computes a torque only when none is held
                    calls.append(t)
                return stage(t, y, held)

            return counted

        monkeypatch.setattr(sim, "closed_loop", counting_closed_loop)
        integrate(make_config(t_end=1.0, hold_dt=hold_dt))
        assert len(calls) == expected

    def test_recorded_torque_is_the_torque_at_the_recorded_state(self):
        cfg = make_config(t_end=1.0)
        traj = integrate(cfg)
        ref = make_reference("fixed_point", 0.0)
        for i in (0, 37, len(traj) - 1):
            s = HoopState(traj.theta[i], traj.o[i], traj.omega[i],
                          traj.theta_a[i], traj.omega_a[i])
            cs = ControllerState(o_I=traj.o_I[i])
            tau_u, _ = controller.step(cfg.nominal, GAINS, s, ref(traj.t[i]), cs)
            assert (traj.tau_u[i], traj.tilde_tau_u[i]) == (tau_u, cs.last_pid_torque)


# -- the fused stage against the modular composition -------------------------

def bits(values):
    """Floats as exact hex strings: equal only if bit-identical (-0.0 != 0.0)."""
    return tuple(float(v).hex() for v in values)


def modular_torque(cfg, ref_fn, cs, t, y):
    """Torque and integrator rate from ``controller.step`` (plus feedforward),
    logging the torques in ``cs``; zero for an open loop."""
    if cfg.open_loop:
        return 0.0, 0.0
    n = cfg.nominal
    s = HoopState(*y[:5])
    ref = ref_fn(t)
    cs.o_I = y[5]
    tau_u, o_i_rate = controller.step(n, cfg.gains, s, ref, cs)
    if cfg.feedforward:
        tau_ref = n.inertia(s.theta_a) * (-ref.o_ddot_ref / n.r)
        tau_u += tau_ref
        cs.last_pid_torque += tau_ref
        cs.last_torque = tau_u
    return tau_u, o_i_rate


def modular_rates(cfg, ref_fn, cs, t, y, held_tau):
    """Six closed-loop rates: ``plant.derivative`` at the computed torque, or
    at the held one with only the integrator rate evaluated."""
    n = cfg.nominal
    s = HoopState(*y[:5])
    if held_tau is None:
        tau_u, o_i_rate = modular_torque(cfg, ref_fn, cs, t, y)
    else:
        eta_e = controller.error(s, ref_fn(t), n.r)[2]
        tau_u = held_tau
        o_i_rate = controller.integrator_rate(n, y[3], y[4], y[5], eta_e)
    return derivative(cfg.plant, s, tau_u) + (o_i_rate,)


def modular_integrate(cfg):
    """RK4 over the modular composition, one ``ControllerState`` and tuples:
    the loop ``integrate`` ran before the stage was fused."""
    ref_fn = cfg.reference()
    cs = ControllerState()
    n, dt = cfg.nominal, cfg.dt
    steps = int(round(cfg.t_end / dt))
    hold = cfg.hold_dt is not None and not cfg.open_loop
    hold_steps = max(1, int(round(cfg.hold_dt / dt))) if hold else None
    traj = Trajectory()

    def record(t, y):
        s = HoopState(*y[:5])
        o_e, omega_e, _ = controller.error(s, ref_fn(t), n.r)
        ke, pe = energy(cfg.plant, s)
        for column, value in zip(
            ("t", "theta", "o", "omega", "theta_a", "omega_a", "o_I", "o_e",
             "omega_e", "tau_u", "tilde_tau_u", "energy"),
            (t, *y, o_e, omega_e, cs.last_torque, cs.last_pid_torque, ke + pe),
        ):
            getattr(traj, column).append(value)

    y = (cfg.initial.theta, cfg.initial.o, cfg.initial.omega,
         cfg.initial.theta_a, cfg.initial.omega_a, 0.0)
    held_tau = None
    for i in range(steps + 1):
        t = i * dt
        if hold_steps is not None and i % hold_steps == 0:
            held_tau = modular_torque(cfg, ref_fn, cs, t, y)[0]
        if i < steps:
            k1 = modular_rates(cfg, ref_fn, cs, t, y, held_tau)
        elif i % cfg.stride == 0 and held_tau is None:
            modular_torque(cfg, ref_fn, cs, t, y)
        if i % cfg.stride == 0:
            record(t, y)
        if i == steps:
            break
        y2 = tuple(y[j] + dt / 2.0 * k1[j] for j in range(6))
        k2 = modular_rates(cfg, ref_fn, cs, t + dt / 2.0, y2, held_tau)
        y3 = tuple(y[j] + dt / 2.0 * k2[j] for j in range(6))
        k3 = modular_rates(cfg, ref_fn, cs, t + dt / 2.0, y3, held_tau)
        y4 = tuple(y[j] + dt * k3[j] for j in range(6))
        k4 = modular_rates(cfg, ref_fn, cs, t + dt, y4, held_tau)
        y_next = tuple(
            y[j] + dt / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
            for j in range(6)
        )
        if not all(math.isfinite(v) and abs(v) <= sim.DIVERGENCE_LIMIT for v in y_next):
            traj.diverged_at = t + dt
            raise DivergenceError(t + dt, y, traj)
        y = y_next
    return traj


TRAJECTORY_COLUMNS = ("t", "theta", "o", "omega", "theta_a", "omega_a", "o_I",
                      "o_e", "omega_e", "tau_u", "tilde_tau_u", "energy")
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


@st.composite
def stage_cases(draw):
    """A valid plant, a belief, gains, a scenario, a state and a held torque."""
    unit = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    r = draw(unit(0.1, 0.5))
    l = r * draw(unit(0.1, 0.95))
    m_a = draw(unit(0.3, 5.0))
    # i_a above m_a l (r - l) keeps the pendulum inertia above the coupling amplitude
    i_a = m_a * l * (r - l) * draw(unit(1.01, 4.0))
    plant = PlantParams(
        m_h=draw(unit(0.2, 5.0)), i_h=draw(unit(0.005, 0.1)), r=r, m_a=m_a, i_a=i_a,
        l=l, beta=draw(unit(-0.6, 0.6)), g=draw(st.sampled_from([9.81, 0.0])),
        delta_s=draw(unit(-0.3, 0.3)), delta_a=draw(unit(-0.3, 0.3)),
    )
    cfg = SimConfig(
        plant=plant,
        nominal=nominal_from_true(plant, draw(unit(0.5, 1.5))),
        gains=Gains(k_p=draw(unit(0.1, 150.0)), k_d=draw(unit(0.1, 20.0)),
                    k_i=draw(unit(0.1, 10.0))),
        scenario=draw(st.sampled_from(SCENARIOS)),
        o_ref0=draw(unit(-3.0, 3.0)),
        ramp_v=draw(unit(-0.5, 0.5)),
        sin_amplitude=draw(unit(0.05, 0.5)),  # nonzero, so feedforward acts
        sin_rate=draw(unit(0.05, 3.0)),
        feedforward=draw(st.booleans()),
        open_loop=draw(st.booleans()),
    )
    t = draw(unit(0.0, 60.0))
    y = (draw(unit(-10.0, 10.0)), draw(unit(-5.0, 5.0)), draw(unit(-10.0, 10.0)),
         draw(unit(-7.0, 7.0)), draw(unit(-30.0, 30.0)), draw(unit(-5.0, 5.0)))
    held = draw(st.none() | st.tuples(unit(-20.0, 20.0), unit(-20.0, 20.0)))
    return cfg, t, y, held


class TestClosedLoopStage:
    @settings(max_examples=300, deadline=None)
    @given(stage_cases())
    def test_equals_modular_composition(self, case):
        cfg, t, y, held = case
        ref_fn = cfg.reference()
        rates, tau_u, tilde_tau_u = closed_loop(cfg, ref_fn)(t, y, held)
        cs = ControllerState()
        if cfg.open_loop:  # no torque, nothing held
            expected = derivative(cfg.plant, HoopState(*y[:5]), 0.0) + (0.0,)
            torques = (0.0, 0.0)
        elif held is None:
            expected = modular_rates(cfg, ref_fn, cs, t, y, None)
            torques = (cs.last_torque, cs.last_pid_torque)
        else:
            expected = modular_rates(cfg, ref_fn, cs, t, y, held[0])
            torques = held
        assert bits(rates) == bits(expected)
        assert bits((tau_u, tilde_tau_u)) == bits(torques)

    def test_rejects_non_finite_torque_like_the_plant(self):
        cfg = make_config()
        stage = closed_loop(cfg, cfg.reference())
        y = (0.0, -2.0, -0.1, 0.0, 0.1, 0.0)
        with pytest.raises(ValueError, match="control torque must be finite"):
            stage(0.0, y, (math.inf, 0.0))
        with pytest.raises(ValueError, match="control torque must be finite"):
            integrate(make_config(t_end=1.0, initial=HoopState(0.0, 1e308, 0.0, 0.0, 0.0)))

    def test_singular_input_allocation_raises(self, singular_plant):
        bad_angle = math.acos(singular_plant.pendulum_inertia / singular_plant.coupling_amp)
        cfg = SimConfig(plant=singular_plant, nominal=nominal_from_true(singular_plant, 1.5),
                        gains=GAINS, initial=HoopState(0.0, 0.0, 0.1, bad_angle, 0.1))
        stage = closed_loop(cfg, cfg.reference())
        with pytest.raises(SingularCouplingError):
            stage(0.0, (0.0, 0.0, 0.1, bad_angle, 0.1, 0.0), None)
        with pytest.raises(SingularCouplingError):
            stage(0.0, (0.0, 0.0, 0.1, -bad_angle, 0.1, 0.0), (0.3, 0.3))
        with pytest.raises(SingularCouplingError):
            integrate(cfg)

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
        assert a.trajectory.diverged_at == b.trajectory.diverged_at
        for column in TRAJECTORY_COLUMNS:
            assert bits(getattr(a.trajectory, column)) == bits(getattr(b.trajectory, column))


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
        assert read_back == traj.o  # repr() loses nothing

    def test_empty_trajectory_writes_header_only(self, tmp_path):
        target = tmp_path / "empty.csv"
        Trajectory().write_csv(target)
        assert target.read_text() == CSV_HEADER + "\n"


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


def parent_write_figures(out_dir, traj, ref_fn):
    """The csv.writer figure loop the one-pass writer replaced."""
    def dump(name, header, rows):
        with open(out_dir / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(v) for v in row])

    dump(
        "fig_position.csv", ["t", "o", "o_ref"],
        ((t, o, ref_fn(t).o_ref) for t, o in zip(traj.t, traj.o)),
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
    "fixed_point": make_reference("fixed_point", 0.7),
    "ramp": make_reference("ramp", -1.3, v=0.25),
    "sinusoid": make_reference("sinusoid", 0.4, amplitude=0.3, rate=0.5),
}


class TestOnePassWriter:
    """``write_csv`` with the figure tables equals the two writers it replaced."""

    def assert_matches_parent(self, traj, reference, tmp_path):
        new, old = tmp_path / "new", tmp_path / "old"
        new.mkdir()
        old.mkdir()
        traj.write_csv(
            new / "trajectory.csv",
            [(new / name, columns) for name, columns in FIGURES],
            reference,
        )
        parent_write_csv(traj, old / "trajectory.csv")
        parent_write_figures(old, traj, reference)
        names = ["trajectory.csv", *(name for name, _ in FIGURES)]
        assert sorted(p.name for p in new.iterdir()) == sorted(names)
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name

    @pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1])
    @pytest.mark.parametrize("scenario", ["ramp", "sinusoid"])
    def test_bytes_equal_at_block_edges(self, rows, scenario, tmp_path):
        self.assert_matches_parent(synthetic_trajectory(rows), REFERENCES[scenario], tmp_path)

    @pytest.mark.parametrize("scenario", ["fixed_point", "ramp"])
    def test_bytes_equal_on_extreme_floats(self, scenario, tmp_path):
        specials = [-0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan, 5e-324]
        traj = Trajectory()
        for i in range(2 * len(specials)):
            for k, column in enumerate(TRAJECTORY_COLUMNS):
                getattr(traj, column).append(specials[(i + k) % len(specials)])
        self.assert_matches_parent(traj, REFERENCES[scenario], tmp_path)

    def test_bytes_equal_on_integrated_run(self, tmp_path):
        cfg = make_config(scenario="sinusoid", o_ref0=0.4, feedforward=True, t_end=1.0, stride=1)
        self.assert_matches_parent(integrate(cfg), cfg.reference(), tmp_path)
