"""Reduced forward dynamics of a hoop robot rolling without slip on an incline.

The robot is a hoop of mass m_h and radius r with an internal pendulum
actuator (mass m_a, arm l) hung at the hoop center.  Rolling without slip
ties the center position to the hoop rotation (o_dot = -r * omega), which
eliminates the contact forces and leaves a two degree of freedom model in
the hoop rotation and the actuator angle.  The angle-dependent inertia

    I(theta_a) = i_h + M r^2 - (m_a r l)^2 cos(theta_a)^2 / (i_a + m_a l^2)

multiplies both accelerations, and one scalar torque input drives both
channels through the coupling gain B(theta_a).  Constant disturbance
torques on the two channels are carried in the parameter set because the
integral controller is expected to reject exactly that class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .geometry import InertiaField, cos_squared_field

# Least margin by which the pendulum inertia i_a + m_a l^2 must exceed the
# coupling amplitude m_a r l.  Every coupling denominator the code computes,
# pend - amp * cos(theta_a), is then at least fl(pend - amp) >= this bound:
# amp > 0 and |cos| <= 1, and rounding is monotone.  Below it the input
# matrix is effectively singular and no torque allocation is meaningful.
COUPLING_SINGULARITY_TOL = 1e-12


def derive_mass_constants(params) -> None:
    """Check the mass properties and gravity of a true or believed parameter
    set, then fill in its derived fields (m_total, pendulum_inertia,
    rolling_inertia, inertia_dip, coupling_amp)."""
    for name in ("m_h", "i_h", "r", "m_a", "i_a", "l"):
        value = getattr(params, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not (math.isfinite(params.g) and params.g >= 0.0):
        raise ValueError(f"g must be finite and non-negative, got {params.g!r}")
    m_total = params.m_h + params.m_a
    pend = params.i_a + params.m_a * params.l**2
    rolling = params.i_h + m_total * params.r**2
    amp = params.m_a * params.r * params.l
    dip = amp**2 / pend
    if not rolling > dip:
        raise ValueError(
            "reduced inertia not positive definite: "
            f"i_h + M r^2 = {rolling!r} must exceed (m_a r l)^2/(i_a + m_a l^2) = {dip!r}"
        )
    object.__setattr__(params, "m_total", m_total)
    object.__setattr__(params, "pendulum_inertia", pend)
    object.__setattr__(params, "rolling_inertia", rolling)
    object.__setattr__(params, "inertia_dip", dip)
    object.__setattr__(params, "coupling_amp", amp)


@dataclass(frozen=True)
class PlantParams:
    """Physical parameters of the hoop robot on an incline.

    Disturbances ``delta_s`` (spin channel) and ``delta_a`` (actuator channel)
    are constant torques added to the respective reduced equations; they
    default to zero.  ``g`` is kept as a parameter so conservation tests can
    switch gravity off.  The pendulum inertia i_a + m_a l^2 must exceed the
    coupling amplitude m_a r l by at least ``COUPLING_SINGULARITY_TOL``, so
    that, rounding being monotone, no coupling denominator
    i_a + m_a l^2 - m_a r l cos(theta_a) computed at any actuator angle falls
    below that margin; near zero no torque would reach both channels.
    """

    m_h: float
    i_h: float
    r: float
    m_a: float
    i_a: float
    l: float
    beta: float = 0.0
    g: float = 9.81
    delta_s: float = 0.0
    delta_a: float = 0.0

    # derived, filled in by derive_mass_constants
    m_total: float = field(init=False, repr=False)
    pendulum_inertia: float = field(init=False, repr=False)
    rolling_inertia: float = field(init=False, repr=False)
    inertia_dip: float = field(init=False, repr=False)
    coupling_amp: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        derive_mass_constants(self)
        if not self.l < self.r:
            raise ValueError(
                f"actuator arm must fit inside the hoop: l={self.l!r} >= r={self.r!r}"
            )
        if not self.pendulum_inertia - self.coupling_amp >= COUPLING_SINGULARITY_TOL:
            raise ValueError(
                f"input coupling can vanish: i_a + m_a l^2 = {self.pendulum_inertia!r} "
                f"must exceed m_a r l = {self.coupling_amp!r} "
                f"by at least {COUPLING_SINGULARITY_TOL:g}"
            )
        if not (-math.pi / 2 < self.beta < math.pi / 2):
            raise ValueError(f"incline angle must lie in (-pi/2, pi/2), got {self.beta!r}")
        for name in ("delta_s", "delta_a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def inertia(self, theta_a: float) -> float:
        """Reduced inertia I(theta_a), shared by both acceleration equations."""
        cos_a = math.cos(theta_a)
        return self.rolling_inertia - self.inertia_dip * (cos_a * cos_a)


@dataclass(frozen=True)
class HoopState:
    """Reduced state: hoop angle and position, both angular velocities.

    The rolling constraint makes o redundant with theta (o - o0 =
    -r*(theta - theta0)); both are kept so trajectories expose the center
    position directly and integration errors in the pair stay observable.
    """

    theta: float
    o: float
    omega: float
    theta_a: float
    omega_a: float


def inertia_field(p) -> InertiaField:
    """Angle-dependent reduced inertia of a true or believed parameter set
    as a geometric field."""
    return cos_squared_field(p.rolling_inertia, p.inertia_dip)


def gravity_torques(p: PlantParams, theta_a: float) -> tuple[float, float]:
    """Gravity torques (spin channel, actuator channel) at actuator angle theta_a."""
    sin_incline = math.sin(p.beta)
    sin_a = math.sin(theta_a)
    cos_a = math.cos(theta_a)
    sin_hang = sin_a * math.cos(p.beta) + cos_a * sin_incline  # sin(theta_a + beta)
    tau_spin = (
        p.r * p.m_total * p.g * sin_incline
        - (p.m_a**2 * p.r * p.l**2 * p.g / p.pendulum_inertia) * cos_a * sin_hang
    )
    tau_act = (p.coupling_amp / p.pendulum_inertia) * cos_a * tau_spin - (
        p.m_a * p.g * p.l / p.pendulum_inertia
    ) * p.inertia(theta_a) * sin_hang
    return tau_spin, tau_act


def coupling_gain(p: PlantParams, theta_a: float) -> float:
    """Gain B(theta_a) mapping the input torque onto the actuator equation."""
    cos_a = math.cos(theta_a)
    denom = p.pendulum_inertia - p.coupling_amp * cos_a
    return (p.coupling_amp / p.pendulum_inertia) * cos_a - p.inertia(theta_a) / denom


def derivative(
    p: PlantParams, s: HoopState, tau_u: float
) -> tuple[float, float, float, float, float]:
    """Reduced state rates (theta_dot, o_dot, omega_dot, theta_a_dot, omega_a_dot).

    tau_u is the single control torque; it enters the spin equation directly
    and the actuator equation through the coupling gain.  The constant
    disturbances stored in ``p`` are added here, on their channels.
    """
    if not math.isfinite(tau_u):
        raise ValueError(f"control torque must be finite, got {tau_u!r}")
    sin_a = math.sin(s.theta_a)
    cos_a = math.cos(s.theta_a)
    inertia = p.rolling_inertia - p.inertia_dip * (cos_a * cos_a)
    tau_spin, tau_act = gravity_torques(p, s.theta_a)
    gain = coupling_gain(p, s.theta_a)
    quad = p.coupling_amp * sin_a * s.omega_a**2
    omega_dot = (-quad + tau_spin + p.delta_s + tau_u) / inertia
    omega_a_dot = (
        -(p.coupling_amp**2 / p.pendulum_inertia) * (sin_a * cos_a) * s.omega_a**2
        + tau_act
        + p.delta_a
        + gain * tau_u
    ) / inertia
    return (s.omega, -p.r * s.omega, omega_dot, s.omega_a, omega_a_dot)


@dataclass(frozen=True)
class EquilibriumResult:
    """Steady actuator angle for zero tracking error, if one exists.

    ``theta_a`` is None when the incline is too steep for the pendulum to
    counter-torque gravity.  ``beta_max`` is the steepest incline the
    parameter set can hold, independent of the actual ``beta``.
    """

    theta_a: Optional[float]
    beta_max: float


def _equilibrium_residual(p: PlantParams, theta_a: float) -> float:
    # At a zero-error rest point both accelerations vanish, so the input
    # torque that freezes the spin channel must also balance the actuator
    # channel.  The leftover is this residual.
    tau_spin, tau_act = gravity_torques(p, theta_a)
    return tau_act + p.delta_a - coupling_gain(p, theta_a) * (tau_spin + p.delta_s)


def actuator_equilibrium(p: PlantParams, grid: int = 4096) -> EquilibriumResult:
    """Locate the attracting rest angle of the actuator under zero-error control.

    Scans the torque-balance residual over [-pi, pi), brackets its sign
    changes and solves each by Brent's method, then keeps the roots where the
    residual slope is negative (restoring).  Among those the one closest to
    hanging (theta_a = 0) is returned.  Existence requires
    sin(beta) <= m_a l / (M r); the bound is reported as ``beta_max``.
    """
    from scipy.optimize import brentq  # imported here: no other command needs scipy

    ratio = p.m_a * p.l / (p.m_total * p.r)
    beta_max = math.asin(min(1.0, ratio))

    if math.sin(p.beta) > ratio:
        return EquilibriumResult(theta_a=None, beta_max=beta_max)

    res = lambda q: _equilibrium_residual(p, q)
    qs = [-math.pi + 2.0 * math.pi * i / grid for i in range(grid + 1)]
    vals = [res(q) for q in qs]
    stable: list[float] = []
    for a, b, fa, fb in zip(qs, qs[1:], vals, vals[1:]):
        if fa == 0.0:
            root = a
        elif fa * fb < 0.0:
            root = brentq(res, a, b, xtol=1e-13)
        else:
            continue
        h = 1e-6
        slope = (res(root + h) - res(root - h)) / (2.0 * h)
        if slope < 0.0:
            stable.append(root)
    if not stable:
        return EquilibriumResult(theta_a=None, beta_max=beta_max)
    return EquilibriumResult(theta_a=min(stable, key=abs), beta_max=beta_max)
