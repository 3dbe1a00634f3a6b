"""Outer-loop PID: error conventions, transported integrator, torque assembly."""
import math

import numpy as np
import pytest

from hooprobot.controller import Gains, error, integrator_rate, pid, step
from hooprobot.geometry import christoffel
from hooprobot.plant import HoopState, PlantParams, inertia_field
from hooprobot.reference import ReferenceSample, make_reference
from hooprobot.regularizer import (
    NominalParams,
    nominal_from_true,
    regularize,
)
from hooprobot.sim import SimConfig, integrate

BELIEVED = NominalParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14)
GAINS = Gains(k_p=16.0, k_d=7.0, k_i=4.0, k_c=0.1)


class TestGains:
    @pytest.mark.parametrize("name", ["k_p", "k_d", "k_i"])
    def test_rejects_non_positive(self, name):
        values = dict(k_p=16.0, k_d=7.0, k_i=4.0)
        values[name] = 0.0
        with pytest.raises(ValueError, match=name):
            Gains(**values)

    def test_rejects_non_finite_coupling_gain(self):
        with pytest.raises(ValueError, match="k_c"):
            Gains(k_p=16.0, k_d=7.0, k_i=4.0, k_c=math.inf)

    def test_coupling_gain_is_inert(self):
        # k_c is carried for config fidelity only; it must not change any output
        a = Gains(k_p=16.0, k_d=7.0, k_i=4.0, k_c=0.1)
        b = Gains(k_p=16.0, k_d=7.0, k_i=4.0, k_c=99.0)
        s = HoopState(theta=0.2, o=-1.0, omega=0.3, theta_a=0.5, omega_a=-0.7)
        ref = ReferenceSample(0.5, 0.1, 0.0)
        out_a = step(BELIEVED, a, s, ref, 0.3)
        out_b = step(BELIEVED, b, s, ref, 0.3)
        assert out_a == out_b


class TestError:
    def test_position_error_sign(self):
        s = HoopState(theta=0.0, o=-2.0, omega=0.0, theta_a=0.0, omega_a=0.0)
        o_e, omega_e, eta_e = error(s, ReferenceSample(0.0, 0.0, 0.0), 0.18)
        assert o_e == -2.0
        assert eta_e == 2.0
        assert omega_e == 0.0

    def test_velocity_error_uses_rolling_map(self):
        # o_dot_ref = 0.36 with r = 0.18 means the hoop should spin at -2 rad/s
        s = HoopState(theta=0.0, o=0.0, omega=0.5, theta_a=0.0, omega_a=0.0)
        _, omega_e, _ = error(s, ReferenceSample(0.0, 0.36, 0.0), 0.18)
        assert omega_e == pytest.approx(0.5 - (-2.0), rel=1e-14)

    def test_zero_for_perfect_tracking(self):
        ref = make_reference("ramp", o_ref0=-1.0, ramp_v=0.2)(3.0)
        s = HoopState(theta=0.0, o=ref.o_ref, omega=-ref.o_dot_ref / 0.18,
                      theta_a=0.0, omega_a=0.0)
        o_e, omega_e, eta_e = error(s, ref, 0.18)
        assert o_e == 0.0
        assert omega_e == 0.0
        assert eta_e == 0.0

    def test_eta_rate_is_radius_times_omega_e_along_run(self):
        # eta_e is in metres and omega_e in rad/s, so the rolling constraint
        # gives d(eta_e)/dt = r * omega_e, not omega_e.  Checked on the default
        # closed-loop run by central differences at the record spacing h.
        plant = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035,
                            l=0.14, beta=math.radians(20.0))
        cfg = SimConfig(plant=plant, nominal=nominal_from_true(plant, 1.5),
                        gains=GAINS)
        traj = integrate(cfg)
        ref_fn = cfg.reference()
        r = cfg.nominal.r
        eta, omega_e = [], []
        for k, t in enumerate(traj.t):
            s = HoopState(theta=traj.theta[k], o=traj.o[k], omega=traj.omega[k],
                          theta_a=traj.theta_a[k], omega_a=traj.omega_a[k])
            _, w, e = error(s, ref_fn(t), r)
            eta.append(e)
            omega_e.append(w)
        eta, omega_e = np.array(eta), np.array(omega_e)
        h = cfg.stride * cfg.dt

        def residual(span):
            rate = (eta[2 * span:] - eta[:-2 * span]) / (2.0 * span * h)
            return np.abs(rate - r * omega_e[span:-span])

        # the central difference errs by h^2/6 * |d^3 eta/dt^3|; bound that
        # derivative by the largest third difference along the run, with a
        # factor 2 of margin
        third = float(np.max(np.abs(np.diff(eta, 3)))) / h**3
        tol = 2.0 * h**2 / 6.0 * third
        worst = float(residual(1).max())
        assert worst < tol
        # the residual is pure O(h^2) truncation: doubling h quadruples it
        assert 3.0 < float(residual(2).max()) / worst < 5.0
        # and the unit-free reading d(eta_e)/dt = omega_e misses by far more
        assert float(np.max(np.abs(
            (eta[2:] - eta[:-2]) / (2.0 * h) - omega_e[1:-1]))) > 100.0 * tol


class TestIntegratorRate:
    def test_plain_accumulation_when_transport_vanishes(self):
        # omega_a = 0 or a connection zero (theta_a = 0) leaves eta_e
        assert integrator_rate(BELIEVED, 1.2, 0.0, 5.0, 0.7) == 0.7
        assert integrator_rate(BELIEVED, 0.0, 3.0, 5.0, 0.7) == 0.7

    def test_transport_term_matches_connection(self):
        field = inertia_field(BELIEVED)
        rng = np.random.default_rng(31)
        for _ in range(50):
            q = float(rng.uniform(-math.pi, math.pi))
            omega_a = float(rng.uniform(-4, 4))
            o_i = float(rng.uniform(-3, 3))
            eta = float(rng.uniform(-2, 2))
            expected = eta - christoffel(field, q) * omega_a * o_i
            assert integrator_rate(BELIEVED, q, omega_a, o_i, eta) == pytest.approx(
                expected, rel=1e-12, abs=1e-14
            )


class TestPid:
    def test_value(self):
        assert pid(BELIEVED, GAINS, 0.0, 2.0, 0.0, 0.0) == pytest.approx(
            -2.907581725888324, rel=1e-12
        )
        # which is just -I(0) * k_p * eta_e
        assert pid(BELIEVED, GAINS, 0.0, 2.0, 0.0, 0.0) == pytest.approx(
            -BELIEVED.inertia(0.0) * 32.0, rel=1e-14
        )

    def test_linear_in_each_channel(self):
        base = pid(BELIEVED, GAINS, 0.4, 1.0, 0.0, 0.0)
        assert pid(BELIEVED, GAINS, 0.4, 2.0, 0.0, 0.0) == pytest.approx(2 * base)
        d_term = pid(BELIEVED, GAINS, 0.4, 0.0, 1.0, 0.0)
        i_term = pid(BELIEVED, GAINS, 0.4, 0.0, 0.0, 1.0)
        assert d_term == pytest.approx(-BELIEVED.inertia(0.4) * GAINS.k_d, rel=1e-14)
        assert i_term == pytest.approx(-BELIEVED.inertia(0.4) * GAINS.k_i, rel=1e-14)
        combined = pid(BELIEVED, GAINS, 0.4, 1.0, 1.0, 1.0)
        assert combined == pytest.approx(base + d_term + i_term, rel=1e-13)

    def test_scales_with_believed_inertia(self):
        lo = pid(BELIEVED, GAINS, 0.0, 1.0, 0.5, 0.2)
        hi = pid(BELIEVED, GAINS, math.pi / 2, 1.0, 0.5, 0.2)
        assert hi / lo == pytest.approx(
            BELIEVED.inertia(math.pi / 2) / BELIEVED.inertia(0.0), rel=1e-13
        )


class TestStep:
    def test_composition_matches_manual_pipeline(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            s = HoopState(
                theta=float(rng.uniform(-3, 3)),
                o=float(rng.uniform(-3, 3)),
                omega=float(rng.uniform(-3, 3)),
                theta_a=float(rng.uniform(-math.pi, math.pi)),
                omega_a=float(rng.uniform(-3, 3)),
            )
            ref = ReferenceSample(*(float(v) for v in rng.uniform(-1, 1, size=3)))
            o_i = float(rng.uniform(-2, 2))

            o_e, omega_e, eta_e = error(s, ref, BELIEVED.r)
            want_tilde = pid(BELIEVED, GAINS, s.theta_a, eta_e, omega_e, o_i)
            want_tau = regularize(BELIEVED, s.theta_a, s.omega_a, omega_e, want_tilde)
            want_rate = integrator_rate(BELIEVED, s.theta_a, s.omega_a, o_i, eta_e)

            assert step(BELIEVED, GAINS, s, ref, o_i) == (want_tau, want_tilde, want_rate)

    def test_quiescent_at_origin(self):
        s = HoopState(theta=0.0, o=0.0, omega=0.0, theta_a=0.0, omega_a=0.0)
        assert step(BELIEVED, GAINS, s, ReferenceSample(0.0, 0.0, 0.0), 0.0) == (0.0, 0.0, 0.0)

    def test_translation_invariance(self):
        # shifting the world position of both plant and reference by the same
        # amount must not change the torque at all
        s1 = HoopState(theta=0.1, o=-2.0, omega=0.4, theta_a=0.6, omega_a=-1.0)
        s2 = HoopState(theta=0.1, o=8.0, omega=0.4, theta_a=0.6, omega_a=-1.0)
        out1 = step(BELIEVED, GAINS, s1, ReferenceSample(1.0, 0.2, 0.0), 0.8)
        out2 = step(BELIEVED, GAINS, s2, ReferenceSample(11.0, 0.2, 0.0), 0.8)
        assert out1 == out2
