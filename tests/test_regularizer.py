"""The inner-loop transformation: cancellation terms and the covariant identity."""
import math

import numpy as np
import pytest

from hooprobot.geometry import christoffel
from hooprobot.plant import (
    HoopState,
    PlantParams,
    derivative,
    gravity_torques,
    inertia_field,
)
from hooprobot.regularizer import (
    NominalParams,
    nominal_from_true,
    regularize,
    shaping_torque,
)

TRUE = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14,
                   beta=math.radians(20.0))
FLAT = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14, beta=0.0)
# believed set with identical numbers (no mismatch, no incline knowledge)
BELIEVED = NominalParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14)


class TestNominalParams:
    def test_matches_plant_derivations_when_identical(self):
        assert BELIEVED.m_total == pytest.approx(TRUE.m_total, rel=1e-14)
        assert BELIEVED.pendulum_inertia == pytest.approx(TRUE.pendulum_inertia, rel=1e-14)
        assert BELIEVED.rolling_inertia == pytest.approx(TRUE.rolling_inertia, rel=1e-14)
        assert BELIEVED.inertia(0.7) == pytest.approx(TRUE.inertia(0.7), rel=1e-14)

    def test_arm_may_exceed_radius(self):
        # a 50% overestimate pushes the believed arm past the known radius;
        # that must stay representable
        n = NominalParams(m_h=1.5, i_h=0.0315, r=0.18, m_a=4.92, i_a=0.0525, l=0.21)
        assert n.l > n.r
        assert n.inertia(0.0) > 0.0

    def test_rejects_non_positive_params(self):
        with pytest.raises(ValueError, match="m_a"):
            NominalParams(m_h=1.0, i_h=0.02, r=0.18, m_a=0.0, i_a=0.03, l=0.14)

    def test_believed_inertia_positive_even_in_degenerate_limit(self):
        # positivity of the components already forces the believed reduced
        # inertia positive (Schur complement of a positive definite mass
        # matrix), so only a sliver remains in the near-massless-hoop limit
        n = NominalParams(m_h=1e-6, i_h=1e-9, r=0.2, m_a=2.0, i_a=1e-6, l=0.19)
        assert 0.0 < n.inertia(0.0) < 1e-4


class TestNominalFromTrue:
    def test_scales_mass_properties_only(self):
        n = nominal_from_true(TRUE, 1.5)
        assert n.m_h == pytest.approx(1.5 * TRUE.m_h)
        assert n.i_h == pytest.approx(1.5 * TRUE.i_h)
        assert n.m_a == pytest.approx(1.5 * TRUE.m_a)
        assert n.i_a == pytest.approx(1.5 * TRUE.i_a)
        assert n.l == pytest.approx(1.5 * TRUE.l)
        assert n.r == TRUE.r
        assert n.g == TRUE.g

    def test_factor_one_reproduces_plant_profile(self):
        n = nominal_from_true(TRUE, 1.0)
        field_n = inertia_field(n)
        field_p = inertia_field(TRUE)
        for q in np.linspace(-math.pi, math.pi, 21):
            assert field_n.evaluate(q) == pytest.approx(field_p.evaluate(q), rel=1e-14)

    def test_rejects_bad_factor(self):
        for factor in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="factor"):
                nominal_from_true(TRUE, factor)


class TestShapingTorque:
    def test_vanishes_at_hanging_and_horizontal(self):
        assert shaping_torque(BELIEVED, 0.0) == 0.0
        assert abs(shaping_torque(BELIEVED, math.pi / 2)) < 1e-15

    def test_cancels_flat_ground_spin_gravity(self):
        # on flat ground the spin-channel gravity torque is exactly the
        # negative of the shaping torque, for every angle
        for q in np.linspace(-math.pi, math.pi, 41):
            tau_spin, _ = gravity_torques(FLAT, q)
            assert shaping_torque(BELIEVED, q) == pytest.approx(
                -tau_spin, rel=1e-12, abs=1e-12
            )

    def test_value(self):
        assert shaping_torque(BELIEVED, math.pi / 4) == pytest.approx(
            1.875074436548223, rel=1e-12
        )


class TestRegularize:
    def test_identity_at_hanging_angle(self):
        # every added term carries a sin(theta_a) factor
        assert regularize(BELIEVED, 0.0, 3.0, 1.5, 0.42) == 0.42

    def test_zero_actuator_velocity_leaves_shaping_only(self):
        q = 0.9
        out = regularize(BELIEVED, q, 0.0, 1.5, 0.0)
        assert out == pytest.approx(shaping_torque(BELIEVED, q), rel=1e-14)

    def test_covariant_identity_on_flat_ground(self):
        # with true parameters and no incline, the transformed spin equation
        # must reduce to I * (omega_e_dot + Gamma omega_a omega_e) = pid torque
        field = inertia_field(FLAT)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(200):
            theta_a = float(rng.uniform(-math.pi, math.pi))
            omega_a = float(rng.uniform(-5.0, 5.0))
            omega = float(rng.uniform(-5.0, 5.0))
            omega_ref = float(rng.uniform(-2.0, 2.0))
            tilde = float(rng.uniform(-3.0, 3.0))
            omega_e = omega - omega_ref
            s = HoopState(theta=0.3, o=-1.0, omega=omega, theta_a=theta_a,
                          omega_a=omega_a)
            tau_u = regularize(BELIEVED, theta_a, omega_a, omega_e, tilde)
            rates = derivative(FLAT, s, tau_u)
            inertia = field.evaluate(theta_a)
            gamma = christoffel(field, theta_a)
            residual = inertia * rates[2] + inertia * gamma * omega_a * omega_e - tilde
            worst = max(worst, abs(residual))
        assert worst < 1e-12

    def test_centrifugal_sign_is_pinned(self):
        # the transformation must CANCEL the plant's centrifugal torque; the
        # opposite sign (injecting it twice) wrecks the covariant identity by
        # many orders of magnitude
        theta_a, omega_a, omega_e, tilde = 1.0, 3.0, 0.5, 0.2
        s = HoopState(theta=0.0, o=0.0, omega=omega_e, theta_a=theta_a,
                      omega_a=omega_a)
        field = inertia_field(FLAT)
        good = regularize(BELIEVED, theta_a, omega_a, omega_e, tilde)
        flipped = good - 2.0 * BELIEVED.coupling_amp * math.sin(theta_a) * omega_a**2

        def residual(tau_u):
            rates = derivative(FLAT, s, tau_u)
            inertia = field.evaluate(theta_a)
            gamma = christoffel(field, theta_a)
            return abs(inertia * rates[2] + inertia * gamma * omega_a * omega_e - tilde)

        assert residual(good) < 1e-12
        assert residual(flipped) > 1e-2

    def test_incline_residual_is_velocity_independent(self):
        # with true believed params the leftover torque on the transformed spin
        # equation depends only on the actuator angle (gravity + shaping), not
        # on any of the velocities
        field = inertia_field(TRUE)
        rng = np.random.default_rng(17)
        for theta_a in (0.3, -1.1, 2.0):
            expected = gravity_torques(TRUE, theta_a)[0] + shaping_torque(BELIEVED, theta_a)
            for _ in range(10):
                omega = float(rng.uniform(-4, 4))
                omega_a = float(rng.uniform(-4, 4))
                omega_e = omega  # constant zero reference
                s = HoopState(theta=0.0, o=0.0, omega=omega, theta_a=theta_a,
                              omega_a=omega_a)
                tau_u = regularize(BELIEVED, theta_a, omega_a, omega_e, 0.0)
                rates = derivative(TRUE, s, tau_u)
                inertia = field.evaluate(theta_a)
                gamma = christoffel(field, theta_a)
                residual = inertia * rates[2] + inertia * gamma * omega_a * omega_e
                assert residual == pytest.approx(expected, rel=1e-9, abs=1e-9)

