"""Outer-loop geometric PID on the rolling-position error.

The integrator state is not a plain integral of the error: it is transported
with the same connection that governs the error dynamics, so its rate picks
up a -Gamma * omega_a * o_I correction.  That is what lets a constant lumped
disturbance be cancelled exactly despite the configuration-dependent inertia.

All quantities here use believed (nominal) parameters; the true plant never
enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import christoffel
from .plant import HoopState, inertia_field
from .reference import ReferenceSample
from .regularizer import NominalParams, regularize


@dataclass(frozen=True)
class Gains:
    """PID gains. k_c is carried for config fidelity but drives nothing.

    k_c appears in the published gain set for this system without a defining
    equation; it is stored and written to the manifest so configurations
    round-trip, and deliberately left out of every control computation.
    """

    k_p: float
    k_d: float
    k_i: float
    k_c: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k_p", "k_d", "k_i"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.k_c):
            raise ValueError(f"k_c must be finite, got {self.k_c!r}")


def error(s: HoopState, ref: ReferenceSample, r: float) -> tuple[float, float, float]:
    """Tracking errors (o_e, omega_e, eta_e) against a reference sample.

    The rolling constraint maps the reference velocity to a hoop rate via
    omega_ref = -o_dot_ref / r; ``r`` is the believed hoop radius.  eta_e is
    the negated position error, the "uphill" direction the proportional term
    pushes along.

    Units: o_e and eta_e are in m, omega_e in rad/s.  Since o_dot = -r omega,
    the error rates are mixed: d(eta_e)/dt = r * omega_e, not omega_e.
    """
    o_e = s.o - ref.o_ref
    omega_e = s.omega + ref.o_dot_ref / r
    return o_e, omega_e, -o_e


def integrator_rate(
    n: NominalParams, theta_a: float, omega_a: float, o_I: float, eta_e: float
) -> float:
    """Rate of the transported integrator state: eta_e - Gamma * omega_a * o_I."""
    return eta_e - christoffel(inertia_field(n), theta_a) * omega_a * o_I


def pid(
    n: NominalParams,
    g: Gains,
    theta_a: float,
    eta_e: float,
    omega_e: float,
    o_I: float,
) -> float:
    """Inertia-scaled PID torque -I(theta_a) (k_p eta_e + k_d omega_e + k_i o_I).

    Units: eta_e in m, omega_e in rad/s, o_I in m*s.  Because
    d(eta_e)/dt = r * omega_e, the gains act as (r k_p, k_d, r k_i) on the
    hoop-angle error -o_e / r.
    """
    return -n.inertia(theta_a) * (g.k_p * eta_e + g.k_d * omega_e + g.k_i * o_I)


def step(
    n: NominalParams,
    g: Gains,
    s: HoopState,
    ref: ReferenceSample,
    o_I: float,
) -> tuple[float, float, float]:
    """One control evaluation at integrator value ``o_I``: returns
    (plant torque, PID torque before regularization, integrator rate).

    Composes the error computation, the PID law and the regularizing
    transformation.  The integrator rate is returned for the caller to
    advance alongside the plant state.
    """
    o_e, omega_e, eta_e = error(s, ref, n.r)
    tilde = pid(n, g, s.theta_a, eta_e, omega_e, o_I)
    tau_u = regularize(n, s.theta_a, s.omega_a, omega_e, tilde)
    return tau_u, tilde, integrator_rate(n, s.theta_a, s.omega_a, o_I, eta_e)
