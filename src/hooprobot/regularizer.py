"""Inner-loop feedback regularization computed from believed parameters.

The raw reduced dynamics are not a mechanical system in the tracking error:
the actuator's centrifugal term and the angle-dependent gravity coupling
spoil the structure.  The regularizing transformation cancels exactly those
pieces and adds a flat-ground potential-shaping torque, so that what remains
is the covariant error equation

    I(theta_a) * covariant_rate(omega_e)  =  residual + pid_torque

where the residual lumps gravity on the (unknown) incline, disturbances and
parameter mismatch, and is constant at a steady configuration.  The outer
PID loop then only has to fight a constant.  With belief = truth and no
disturbance the residual is the incline's alone, spin-channel gravity plus
the shaping torque:

    sin(beta) * (r m_t g - h cos^2(theta_a)) + (h/2) * sin(2 theta_a) * (1 - cos(beta)),
    h = m_a^2 r l^2 g / (i_a + m_a l^2),

which vanishes on flat ground for every theta_a.

Everything here uses the controller's nominal parameter set, which may be
badly wrong; the mismatch lands in the residual by design.

Note on the velocity-quadratic term: the transformation must cancel the
plant's centrifugal torque -m_a r l sin(theta_a) omega_a^2, so the control
adds that amount back with a positive sign.  Flipping it (injecting the
term a second time instead of cancelling it) destroys the covariant form
and destabilizes the loop; the closed-form residual check in the test
suite pins the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .plant import PlantParams, derive_mass_constants, inertia_field


@dataclass(frozen=True)
class NominalParams:
    """Parameters the controller believes, with the incline deliberately absent.

    Unlike the true plant there is no l < r constraint: a 50% overestimate of
    the arm can exceed the (known) hoop radius and the controller must still
    function.  The reduced-inertia positivity constraint is kept because the
    control law divides by the believed inertia.  Nor must the believed
    pendulum inertia exceed the coupling amplitude: the controller never
    divides by the believed coupling denominator.
    """

    m_h: float
    i_h: float
    r: float
    m_a: float
    i_a: float
    l: float
    g: float = 9.81

    m_total: float = field(init=False, repr=False)
    pendulum_inertia: float = field(init=False, repr=False)
    rolling_inertia: float = field(init=False, repr=False)
    inertia_dip: float = field(init=False, repr=False)
    coupling_amp: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        derive_mass_constants(self)

    def inertia(self, theta_a: float) -> float:
        """Believed reduced inertia at actuator angle theta_a."""
        return self.rolling_inertia - self.inertia_dip * math.cos(theta_a) ** 2


def nominal_from_true(p: PlantParams, factor: float) -> NominalParams:
    """Mismatched belief: scale each mass property of ``p`` by ``factor``.

    The hoop radius and gravity are treated as known (directly measurable),
    so only m_h, i_h, m_a, i_a and l are scaled.  factor = 1.5 reproduces a
    50% parameter error on every scaled quantity.
    """
    if not (math.isfinite(factor) and factor > 0.0):
        raise ValueError(f"mismatch factor must be finite and positive, got {factor!r}")
    return NominalParams(
        m_h=factor * p.m_h,
        i_h=factor * p.i_h,
        r=p.r,
        m_a=factor * p.m_a,
        i_a=factor * p.i_a,
        l=factor * p.l,
        g=p.g,
    )


def shaping_torque(n: NominalParams, theta_a: float) -> float:
    """Flat-ground potential-shaping torque S(theta_a).

    This is the torque that, added to the input, makes the believed zero-incline
    gravity coupling on the spin channel vanish; equivalently it reshapes the
    closed-loop potential so the spin equation sees no angle-dependent gravity.
    """
    coeff = n.m_a**2 * n.r * n.l**2 * n.g / (2.0 * n.pendulum_inertia)
    return coeff * math.sin(2.0 * theta_a)


def regularize(
    n: NominalParams,
    theta_a: float,
    omega_a: float,
    omega_e: float,
    tilde_tau_u: float,
) -> float:
    """Total input torque: cancellation terms plus the outer-loop torque.

    Three pieces are added to ``tilde_tau_u``: the connection correction
    -I*Gamma*omega_a*omega_e that turns the plain acceleration into a
    covariant one, the cancellation of the actuator centrifugal torque, and
    the flat-ground potential shaping.  All coefficients come from the
    believed parameters.
    """
    # I * Gamma = I' / 2
    connection = 0.5 * inertia_field(n).derivative(theta_a) * omega_a * omega_e
    centrifugal = n.coupling_amp * math.sin(theta_a) * omega_a**2
    return -connection + centrifugal + shaping_torque(n, theta_a) + tilde_tau_u
