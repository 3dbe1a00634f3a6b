"""Plant parameter validation, torque terms, dynamics and rest equilibria."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from hooprobot.geometry import christoffel
from hooprobot.plant import (
    COUPLING_SINGULARITY_TOL,
    EquilibriumResult,
    HoopState,
    PlantParams,
    actuator_equilibrium,
    coupling_gain,
    derivative,
    gravity_torques,
    inertia_field,
)
from hooprobot.regularizer import NominalParams
from hooprobot.sim import lagrangian_oracle


def make_plant(**overrides):
    base = dict(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14,
                beta=math.radians(20.0))
    base.update(overrides)
    return PlantParams(**base)


PLANT = make_plant()
FLAT = make_plant(beta=0.0)


class TestParams:
    def test_derived_quantities(self):
        assert PLANT.m_total == pytest.approx(4.28)
        assert PLANT.pendulum_inertia == pytest.approx(0.035 + 3.28 * 0.14**2, rel=1e-14)
        assert PLANT.rolling_inertia == pytest.approx(0.021 + 4.28 * 0.18**2, rel=1e-14)
        assert PLANT.coupling_amp == pytest.approx(3.28 * 0.18 * 0.14, rel=1e-14)
        assert PLANT.inertia_dip == pytest.approx(
            PLANT.coupling_amp**2 / PLANT.pendulum_inertia, rel=1e-14
        )

    def test_inertia_profile(self):
        assert PLANT.inertia(0.0) == pytest.approx(0.09086192893401013, rel=1e-12)
        assert PLANT.inertia(math.pi / 2) == pytest.approx(PLANT.rolling_inertia, rel=1e-14)

    @pytest.mark.parametrize("name", ["m_h", "i_h", "r", "m_a", "i_a", "l"])
    def test_rejects_non_positive_core_params(self, name):
        with pytest.raises(ValueError, match=name):
            make_plant(**{name: 0.0})
        with pytest.raises(ValueError, match=name):
            make_plant(**{name: -1.0})

    def test_rejects_arm_longer_than_radius(self):
        with pytest.raises(ValueError, match="fit inside"):
            make_plant(l=0.18)
        with pytest.raises(ValueError, match="fit inside"):
            make_plant(l=0.25)

    def test_rejects_vertical_incline(self):
        with pytest.raises(ValueError, match="incline"):
            make_plant(beta=math.pi / 2)
        with pytest.raises(ValueError, match="incline"):
            make_plant(beta=-2.0)

    def test_rejects_negative_gravity_and_bad_disturbance(self):
        with pytest.raises(ValueError, match="g must"):
            make_plant(g=-9.81)
        with pytest.raises(ValueError, match="delta_s"):
            make_plant(delta_s=math.nan)

    def test_reduced_inertia_stays_positive_in_degenerate_limit(self):
        # J*A - (m_a r l)^2 expands to i_h*i_a + i_h*m_a*l^2 + M*r^2*i_a
        # + m_h*m_a*r^2*l^2, so positive inputs can never make the reduced
        # inertia indefinite; check the worst case stays barely positive.
        # PlantParams rejects this set (i_a + m_a l^2 < m_a r l); a belief
        # shares the derivation and may hold it.
        p = NominalParams(m_h=1e-6, i_h=1e-9, r=0.2, m_a=2.0, i_a=1e-6, l=0.19)
        assert 0.0 < p.rolling_inertia - p.coupling_amp**2 / p.pendulum_inertia < 1e-4

    @pytest.mark.parametrize("overrides", [
        dict(i_a=0.001, l=0.17),  # 0.0958 < 0.1004: singular near 17.4 degrees
        dict(m_h=1.0, i_h=0.05, r=0.2, m_a=5.0, i_a=0.01, l=0.1),  # 0.06 < 0.1
        dict(r=0.2, m_a=1.0, i_a=0.01, l=0.1),  # 0.02 = 0.02: singular at 0
        # 0.0200000000005 - 0.02 < 1e-12: the denominator at 0 is below the margin
        dict(r=0.2, m_a=1.0, i_a=0.0100000000005, l=0.1),
    ])
    def test_rejects_vanishing_input_coupling(self, overrides):
        with pytest.raises(ValueError, match="input coupling can vanish.*by at least 1e-12"):
            make_plant(**overrides)
        # the controller never divides by the believed coupling denominator
        base = dict(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14)
        base.update(overrides)
        believed = NominalParams(**base)
        assert believed.pendulum_inertia - believed.coupling_amp < COUPLING_SINGULARITY_TOL


class TestGravityTorques:
    def test_flat_ground_hanging_pendulum_is_torque_free(self):
        tau_spin, tau_act = gravity_torques(FLAT, 0.0)
        assert tau_spin == 0.0
        assert tau_act == 0.0

    def test_incline_values(self):
        tau_spin, tau_act = gravity_torques(PLANT, 0.0)
        assert tau_spin == pytest.approx(1.3022331886124716, rel=1e-12)
        assert tau_act == pytest.approx(-0.325870542446403, rel=1e-12)

    def test_flat_ground_horizontal_arm(self):
        # coupling path dies with cos(theta_a) = 0, leaving the plain pendulum torque
        tau_spin, tau_act = gravity_torques(FLAT, math.pi / 2)
        assert abs(tau_spin) < 1e-15
        expected = (
            -FLAT.inertia(math.pi / 2) * FLAT.m_a * FLAT.g * FLAT.l
            / FLAT.pendulum_inertia
        )
        assert tau_act == pytest.approx(expected, rel=1e-12)

    def test_periodic_in_actuator_angle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = float(rng.uniform(-math.pi, math.pi))
            a = gravity_torques(PLANT, q)
            b = gravity_torques(PLANT, q + 2.0 * math.pi)
            assert a[0] == pytest.approx(b[0], rel=1e-12, abs=1e-12)
            assert a[1] == pytest.approx(b[1], rel=1e-12, abs=1e-12)


class TestCouplingGain:
    def test_values(self):
        assert coupling_gain(PLANT, math.pi / 2) == pytest.approx(
            -1.6081701716219476, rel=1e-12
        )
        assert coupling_gain(PLANT, 0.0) == pytest.approx(-4.630591630591622, rel=1e-12)

    def test_even_in_angle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = float(rng.uniform(-math.pi, math.pi))
            assert coupling_gain(PLANT, q) == pytest.approx(
                coupling_gain(PLANT, -q), rel=1e-13
            )

    @given(
        r=st.floats(0.05, 2.0), arm=st.floats(0.05, 0.95), m_a=st.floats(0.1, 10.0),
        m_h=st.floats(0.1, 10.0), i_h=st.floats(1e-3, 1.0), gap=st.floats(1e-12, 1e-11),
        q=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_denominator_keeps_the_margin_on_barely_admitted_plants(
        self, r, arm, m_a, m_h, i_h, gap, q,
    ):
        # pend - amp = i_a - m_a l (r - l), so this i_a puts it at about gap
        l = arm * r
        try:
            p = PlantParams(m_h=m_h, i_h=i_h, r=r, m_a=m_a, i_a=m_a * l * (r - l) + gap, l=l)
        except ValueError:
            p = None
        assume(p is not None and p.pendulum_inertia - p.coupling_amp <= 1e-11)
        for angle in (0.0, -0.0, 5e-324, 1e-8, -1e-8, math.pi, 2.0 * math.pi, q):
            denom = p.pendulum_inertia - p.coupling_amp * math.cos(angle)
            assert denom >= COUPLING_SINGULARITY_TOL, angle
            assert math.isfinite(coupling_gain(p, angle))


class TestDerivative:
    def test_kinematic_rows(self):
        s = HoopState(theta=0.3, o=-1.2, omega=0.7, theta_a=0.9, omega_a=-1.1)
        rates = derivative(PLANT, s, 0.25)
        assert rates[0] == s.omega
        assert rates[1] == -PLANT.r * s.omega
        assert rates[3] == s.omega_a

    def test_rest_on_flat_ground_is_equilibrium(self):
        s = HoopState(theta=0.0, o=0.0, omega=0.0, theta_a=0.0, omega_a=0.0)
        assert derivative(FLAT, s, 0.0) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_independent_of_hoop_angle_and_position(self):
        a = HoopState(theta=0.1, o=-2.0, omega=0.5, theta_a=0.4, omega_a=1.3)
        b = HoopState(theta=2.6, o=7.0, omega=0.5, theta_a=0.4, omega_a=1.3)
        ra = derivative(PLANT, a, 0.8)
        rb = derivative(PLANT, b, 0.8)
        assert ra[2] == rb[2]
        assert ra[4] == rb[4]

    def test_periodic_in_actuator_angle(self):
        a = HoopState(theta=0.0, o=0.0, omega=0.5, theta_a=0.4, omega_a=1.3)
        b = HoopState(theta=0.0, o=0.0, omega=0.5, theta_a=0.4 + 2 * math.pi, omega_a=1.3)
        ra = derivative(PLANT, a, 0.8)
        rb = derivative(PLANT, b, 0.8)
        assert ra[2] == pytest.approx(rb[2], rel=1e-12)
        assert ra[4] == pytest.approx(rb[4], rel=1e-12)

    def test_rejects_non_finite_torque(self):
        s = HoopState(theta=0.0, o=0.0, omega=0.0, theta_a=0.0, omega_a=0.0)
        with pytest.raises(ValueError, match="torque"):
            derivative(PLANT, s, math.inf)

    def test_matches_lagrangian_oracle(self):
        # one moderate-velocity state pinned against the independently
        # assembled Euler-Lagrange equations
        s = HoopState(
            theta=0.25019093320933394,
            o=0.794427601939151,
            omega=0.8270570707355804,
            theta_a=-1.7265741463697049,
            omega_a=-0.5995011452663237,
        )
        rates = derivative(PLANT, s, 0.7)
        omega_dot, omega_a_dot = lagrangian_oracle(PLANT, s, 0.7)
        assert abs(rates[2] - omega_dot) < 1e-9
        assert abs(rates[4] - omega_a_dot) < 1e-9


def test_inertia_field_matches_params():
    field = inertia_field(PLANT)
    for q in np.linspace(-math.pi, math.pi, 41):
        assert field.evaluate(q) == pytest.approx(PLANT.inertia(q), rel=1e-14)
        assert math.isfinite(christoffel(field, q))


class TestActuatorEquilibrium:
    def test_flat_ground_rest_angle_is_zero(self):
        result = actuator_equilibrium(FLAT)
        assert result.theta_a is not None
        assert abs(result.theta_a) < 1e-9

    def test_incline_rest_angle(self):
        result = actuator_equilibrium(PLANT)
        assert result.theta_a == pytest.approx(0.2620812647333793, abs=1e-9)
        assert math.degrees(result.theta_a) == pytest.approx(15.016150, abs=1e-4)

    def test_beta_max(self):
        result = actuator_equilibrium(PLANT)
        assert result.beta_max == pytest.approx(0.6385776763581759, rel=1e-12)
        # the holdable-incline bound is arcsin(m_a l / (M r))
        expected = math.asin(PLANT.m_a * PLANT.l / (PLANT.m_total * PLANT.r))
        assert result.beta_max == pytest.approx(expected, rel=1e-14)

    def test_torque_balance_relation_at_root(self):
        # with zero disturbances the rest angle satisfies
        # m_a l sin(theta_a + beta) = M r sin(beta)
        root = actuator_equilibrium(PLANT).theta_a
        lhs = PLANT.m_a * PLANT.l * math.sin(root + PLANT.beta)
        rhs = PLANT.m_total * PLANT.r * math.sin(PLANT.beta)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_root_is_restoring(self):
        # residual slope at the returned root must be negative (computed here
        # from the public torque functions, not the module internals)
        def residual(q):
            tau_spin, tau_act = gravity_torques(PLANT, q)
            return (
                tau_act + PLANT.delta_a
                - coupling_gain(PLANT, q) * (tau_spin + PLANT.delta_s)
            )

        root = actuator_equilibrium(PLANT).theta_a
        assert abs(residual(root)) < 1e-10
        h = 1e-6
        slope = (residual(root + h) - residual(root - h)) / (2.0 * h)
        assert slope < 0.0

    def test_too_steep_incline_has_no_equilibrium(self):
        steep = make_plant(beta=math.radians(40.0))
        result = actuator_equilibrium(steep)
        assert result.theta_a is None
        assert result.beta_max == pytest.approx(0.6385776763581759, rel=1e-12)

    def test_disturbances_shift_the_root(self):
        disturbed = make_plant(delta_s=0.1, delta_a=0.05)
        result = actuator_equilibrium(disturbed)
        assert math.degrees(result.theta_a) == pytest.approx(16.486289320332983, abs=1e-6)

    def test_coarse_grid_finds_same_root(self):
        fine = actuator_equilibrium(PLANT).theta_a
        coarse = actuator_equilibrium(PLANT, grid=512).theta_a
        assert coarse == pytest.approx(fine, abs=1e-9)

    def test_result_type(self):
        result = actuator_equilibrium(FLAT)
        assert isinstance(result, EquilibriumResult)
