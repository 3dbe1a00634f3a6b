"""Riemannian structure on the circle induced by a configuration-dependent inertia.

The actuator angle lives on the circle, and the reduced inertia seen by the
rolling hoop depends on that angle.  Treating the inertia as a metric on the
circle gives a Levi-Civita connection with a single Christoffel symbol

    Gamma(q) = (dI/dq) / (2 I(q))

and a covariant rate  I * (eta_dot + Gamma * zeta * eta)  that shows up
verbatim in the tracking-error dynamics.  Everything here is dimension one,
so the general Koszul construction collapses to these closed forms; the
functions below hard-code the 1-D case on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class InertiaField:
    """Positive inertia profile on the circle with its angular derivative.

    ``evaluate`` maps the angle (rad) to the inertia (kg m^2), ``derivative``
    maps the angle to d(inertia)/d(angle).  Both must be 2*pi periodic and
    ``evaluate`` must stay strictly positive, otherwise the metric degenerates
    and none of the connection formulas make sense.
    """

    evaluate: Callable[[float], float]
    derivative: Callable[[float], float]


def cos_squared_field(base: float, dip: float) -> InertiaField:
    """Inertia profile of the form base - dip * cos(q)^2.

    This is the shape the rolling hoop produces: ``base`` is the inertia with
    the pendulum horizontal, ``dip`` is how much the cos^2 coupling removes.
    Requires base > dip so the profile stays positive.
    """
    if not (base > dip):
        raise ValueError(
            f"inertia profile not positive: base={base!r} must exceed dip={dip!r}"
        )
    return InertiaField(
        evaluate=lambda q: base - dip * (math.cos(q) * math.cos(q)),
        derivative=lambda q: 2.0 * dip * (math.sin(q) * math.cos(q)),
    )


def christoffel(field: InertiaField, theta_a: float) -> float:
    """Single Christoffel symbol of the inertia metric at ``theta_a`` (1/rad)."""
    if not math.isfinite(theta_a):
        raise ValueError(f"angle must be finite, got {theta_a!r}")
    inertia = field.evaluate(theta_a)
    if inertia <= 0.0:
        raise ValueError(f"inertia must be positive, got {inertia!r} at {theta_a!r}")
    return field.derivative(theta_a) / (2.0 * inertia)


def covariant_derivative(
    field: InertiaField,
    theta_a: float,
    zeta: float,
    eta_dot: float,
    eta: float,
) -> float:
    """Inertia-weighted covariant rate  I*eta_dot + I*Gamma*zeta*eta.

    ``zeta`` is the transport direction (the actuator velocity in the error
    dynamics), ``eta`` the transported quantity and ``eta_dot`` its ordinary
    time derivative.  Bilinear in (zeta, eta) apart from the I*eta_dot term.
    """
    inertia = field.evaluate(theta_a)
    gamma = christoffel(field, theta_a)
    return inertia * eta_dot + inertia * gamma * zeta * eta


def metricity_residual(
    field: InertiaField,
    trajectory_sample: tuple[float, float, float, float, float, float],
) -> float:
    """Defect of metric compatibility at one trajectory sample.

    The sample is (theta_a, omega_a, X, X_dot, Y, Y_dot).  For a metric
    connection the product rule

        d/dt ( I X Y ) = <I grad X, Y> + <I grad Y, X>

    holds exactly, where the covariant rates are transported along omega_a.
    Returns the absolute difference of the two sides; analytically zero for
    any inputs, so anything above rounding noise indicates a wiring bug.
    """
    theta_a, omega_a, x, x_dot, y, y_dot = trajectory_sample
    inertia = field.evaluate(theta_a)
    inertia_rate = field.derivative(theta_a) * omega_a
    lhs = inertia_rate * x * y + inertia * x_dot * y + inertia * x * y_dot
    rhs = (
        covariant_derivative(field, theta_a, omega_a, x_dot, x) * y
        + covariant_derivative(field, theta_a, omega_a, y_dot, y) * x
    )
    return abs(lhs - rhs)
