"""Integrator behavior: configs, determinism, energy accounting, the oracle."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hooprobot import controller
from hooprobot.controller import ControllerState, Gains
from hooprobot.plant import (
    HoopState,
    PlantParams,
    SingularCouplingError,
    coupling_gain,
    derivative,
)
from hooprobot.reference import make_reference
from hooprobot.regularizer import nominal_from_true
from hooprobot.sim import (
    CSV_HEADER,
    DivergenceError,
    SimConfig,
    Trajectory,
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

    def test_singular_input_allocation_raises(self):
        heavy_arm = PlantParams(m_h=1.0, i_h=0.05, r=0.2, m_a=5.0, i_a=0.01, l=0.1)
        bad_angle = math.acos(heavy_arm.pendulum_inertia / heavy_arm.coupling_amp)
        s = HoopState(0.0, 0.0, 0.1, bad_angle, 0.1)
        with pytest.raises(SingularCouplingError):
            lagrangian_oracle(heavy_arm, s, 0.3)

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
        step = controller.step

        def counted(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(controller, "step", counted)
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
