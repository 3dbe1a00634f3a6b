"""Fixed-step closed-loop simulation, energy bookkeeping, and a dynamics oracle.

The plant state and the controller's transported integrator form one
augmented six-dimensional ODE advanced by classical fourth-order
Runge-Kutta with the control torque re-evaluated inside every stage
(continuous-control idealization; an optional hold mode freezes the torque
between sampling instants instead).  Everything is plain-float arithmetic in
a fixed order, so identical configurations produce bit-identical
trajectories.

The energy and Lagrangian-oracle routines are deliberately built from the
frame geometry rather than the closed-form reduced equations, so they can
catch sign and wiring mistakes in the plant module instead of inheriting
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import controller as ctl
from . import plant as plt
from .controller import ControllerState, Gains
from .plant import HoopState, PlantParams, SingularCouplingError
from .reference import SCENARIOS, make_reference
from .regularizer import NominalParams

DIVERGENCE_LIMIT = 1e6

CSV_HEADER = "t,theta,o,omega,theta_a,omega_a,o_I,o_e,omega_e,tau_u,energy"


class DivergenceError(RuntimeError):
    """State left the bounded region; carries failure time and last finite state."""

    def __init__(self, time: float, state: tuple, trajectory: "Trajectory"):
        super().__init__(
            f"simulation diverged at t={time:.6f}: state magnitude exceeded "
            f"{DIVERGENCE_LIMIT:g} or became non-finite"
        )
        self.time = time
        self.state = state
        self.trajectory = trajectory


@dataclass
class SimConfig:
    """One reproducible closed-loop run: who simulates what, how, for how long."""

    plant: PlantParams
    nominal: NominalParams
    gains: Gains
    scenario: str = "fixed_point"
    o_ref0: float = 0.0
    ramp_v: float = 0.2
    sin_amplitude: float = 0.3
    sin_rate: float = 0.5
    initial: HoopState = dc_field(
        default_factory=lambda: HoopState(theta=0.0, o=-2.0, omega=-0.1, theta_a=0.0, omega_a=0.1)
    )
    dt: float = 1e-3
    t_end: float = 60.0
    stride: int = 10
    feedforward: bool = False
    hold_dt: Optional[float] = None
    open_loop: bool = False  # zero input torque, controller bypassed (energy audits)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        if not (isinstance(self.stride, int) and self.stride >= 1):
            raise ValueError(f"record stride must be an integer >= 1, got {self.stride!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.hold_dt is not None and not (math.isfinite(self.hold_dt) and self.hold_dt > 0.0):
            raise ValueError(f"hold_dt must be positive when set, got {self.hold_dt!r}")

    def reference(self):
        if self.scenario == "fixed_point":
            return make_reference("fixed_point", self.o_ref0)
        if self.scenario == "ramp":
            return make_reference("ramp", self.o_ref0, v=self.ramp_v)
        return make_reference(
            "sinusoid", self.o_ref0, amplitude=self.sin_amplitude, rate=self.sin_rate
        )


@dataclass
class Trajectory:
    """Recorded closed-loop run on a uniform grid (one entry per column list)."""

    t: list[float] = dc_field(default_factory=list)
    theta: list[float] = dc_field(default_factory=list)
    o: list[float] = dc_field(default_factory=list)
    omega: list[float] = dc_field(default_factory=list)
    theta_a: list[float] = dc_field(default_factory=list)
    omega_a: list[float] = dc_field(default_factory=list)
    o_I: list[float] = dc_field(default_factory=list)
    o_e: list[float] = dc_field(default_factory=list)
    omega_e: list[float] = dc_field(default_factory=list)
    tau_u: list[float] = dc_field(default_factory=list)
    tilde_tau_u: list[float] = dc_field(default_factory=list)
    energy: list[float] = dc_field(default_factory=list)
    diverged_at: Optional[float] = None

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, path) -> None:
        """Full-precision CSV export, fixed column set."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in zip(
                self.t, self.theta, self.o, self.omega, self.theta_a,
                self.omega_a, self.o_I, self.o_e, self.omega_e, self.tau_u,
                self.energy,
            ):
                fh.write(",".join(repr(v) for v in row) + "\n")


def energy(p: PlantParams, s: HoopState) -> tuple[float, float]:
    """Kinetic and potential energy from the frame geometry.

    The hoop translates with the center (speed r*omega along the incline) and
    spins; the actuator mass rides the center plus an arm of length l swinging
    at omega_a, with the arm hanging toward the contact when theta_a = 0; the
    actuator body additionally spins at omega_a.  Heights are measured in the
    gravity frame: the center sits at o*sin(beta) + r*cos(beta) above the
    incline origin and the actuator mass hangs l*cos(theta_a + beta) below
    the center.
    """
    # actuator COM velocity in incline coordinates (x along slope, y normal)
    v_x = -p.r * s.omega + p.l * s.omega_a * math.cos(s.theta_a)
    v_y = p.l * s.omega_a * math.sin(s.theta_a)
    ke = (
        0.5 * (p.i_h + p.m_h * p.r**2) * s.omega**2
        + 0.5 * p.m_a * (v_x**2 + v_y**2)
        + 0.5 * p.i_a * s.omega_a**2
    )
    center_height = s.o * math.sin(p.beta) + p.r * math.cos(p.beta)
    pe = (
        p.m_total * p.g * center_height
        - p.m_a * p.g * p.l * math.cos(s.theta_a + p.beta)
    )
    return ke, pe


def lagrangian_oracle(
    p: PlantParams, s: HoopState, tau_u: float
) -> tuple[float, float]:
    """Accelerations (omega_dot, omega_a_dot) from numerically assembled
    Euler-Lagrange equations; independent of the closed-form plant module.

    Generalized coordinates are (theta, theta_a) with the center position
    eliminated through rolling (do/dtheta = -r).  The mass matrix and force
    terms come from finite differences of the energy function; the input
    torque enters as the pair (tau, -tau) on the two coordinates with
    tau = tau_u * A / (A - m_a r l cos(theta_a)), the inverse of the input
    allocation used by the reduced model.  The constant disturbance torques
    are defined directly on the reduced equations, so they are passed through
    verbatim rather than re-derived.
    """
    h_v = 1.0     # exact for the velocity-quadratic kinetic energy
    h_q = 1e-5

    def ke_at(q1: float, q2: float, w1: float, w2: float) -> float:
        state = HoopState(
            theta=q1, o=s.o - p.r * (q1 - s.theta), omega=w1, theta_a=q2, omega_a=w2
        )
        return energy(p, state)[0]

    def pe_at(q1: float, q2: float) -> float:
        state = HoopState(
            theta=q1, o=s.o - p.r * (q1 - s.theta), omega=0.0, theta_a=q2, omega_a=0.0
        )
        return energy(p, state)[1]

    q = (s.theta, s.theta_a)
    w = (s.omega, s.omega_a)

    def momentum(i: int, q1: float, q2: float, w1: float, w2: float) -> float:
        vp = [w1, w2]
        vm = [w1, w2]
        vp[i] += h_v
        vm[i] -= h_v
        return (ke_at(q1, q2, *vp) - ke_at(q1, q2, *vm)) / (2.0 * h_v)

    # mass matrix: velocity gradient of the momenta (exact, KE quadratic)
    mm = [[0.0, 0.0], [0.0, 0.0]]
    for i in range(2):
        for j in range(2):
            vp = list(w)
            vm = list(w)
            vp[j] += h_v
            vm[j] -= h_v
            mm[i][j] = (
                momentum(i, q[0], q[1], *vp) - momentum(i, q[0], q[1], *vm)
            ) / (2.0 * h_v)

    # configuration gradients of momenta, kinetic and potential energy
    dp_dq = [[0.0, 0.0], [0.0, 0.0]]
    dke_dq = [0.0, 0.0]
    dpe_dq = [0.0, 0.0]
    for j in range(2):
        qp = list(q)
        qm = list(q)
        qp[j] += h_q
        qm[j] -= h_q
        for i in range(2):
            dp_dq[i][j] = (
                momentum(i, qp[0], qp[1], *w) - momentum(i, qm[0], qm[1], *w)
            ) / (2.0 * h_q)
        dke_dq[j] = (ke_at(qp[0], qp[1], *w) - ke_at(qm[0], qm[1], *w)) / (2.0 * h_q)
        dpe_dq[j] = (pe_at(qp[0], qp[1]) - pe_at(qm[0], qm[1])) / (2.0 * h_q)

    denom = p.pendulum_inertia - p.coupling_amp * math.cos(s.theta_a)
    if abs(denom) < 1e-12:
        raise SingularCouplingError(
            f"input allocation singular at theta_a={s.theta_a!r}"
        )
    tau = tau_u * p.pendulum_inertia / denom
    rhs = [
        tau + dke_dq[0] - dpe_dq[0] - (dp_dq[0][0] * w[0] + dp_dq[0][1] * w[1]),
        -tau + dke_dq[1] - dpe_dq[1] - (dp_dq[1][0] * w[0] + dp_dq[1][1] * w[1]),
    ]

    det = mm[0][0] * mm[1][1] - mm[0][1] * mm[1][0]
    if abs(det) < 1e-12:
        raise ValueError(f"singular generalized mass matrix, det={det!r}")
    omega_dot = (rhs[0] * mm[1][1] - rhs[1] * mm[0][1]) / det
    omega_a_dot = (rhs[1] * mm[0][0] - rhs[0] * mm[1][0]) / det

    inertia = p.inertia(s.theta_a)
    return omega_dot + p.delta_s / inertia, omega_a_dot + p.delta_a / inertia


def integrate(cfg: SimConfig) -> Trajectory:
    """Run the closed loop; returns the recorded trajectory.

    Raises DivergenceError (with the partial trajectory attached) if any
    state component leaves [-1e6, 1e6] or becomes non-finite.  In hold mode
    the control torque is recomputed every ``hold_dt`` and frozen in between,
    while the integrator state keeps its continuous dynamics; by default the
    torque follows the stage states exactly.
    """
    p, n, g = cfg.plant, cfg.nominal, cfg.gains
    ref_fn = cfg.reference()
    cs = ControllerState()
    dt = cfg.dt
    steps = int(round(cfg.t_end / dt))
    # an open loop has no torque to hold
    hold = cfg.hold_dt is not None and not cfg.open_loop
    hold_steps = max(1, int(round(cfg.hold_dt / dt))) if hold else None

    def control(t: float, s: HoopState, o_i: float) -> tuple[float, float]:
        """Torque and integrator rate at one (possibly stage) state."""
        if cfg.open_loop:
            return 0.0, 0.0
        ref = ref_fn(t)
        cs.o_I = o_i
        tau_u, o_i_rate = ctl.step(n, g, s, ref, cs)
        if cfg.feedforward:
            tau_ref = n.inertia(s.theta_a) * (-ref.o_ddot_ref / n.r)
            tau_u += tau_ref
            cs.last_pid_torque += tau_ref
            cs.last_torque = tau_u
        return tau_u, o_i_rate

    held_tau: Optional[float] = None

    def rhs(t: float, y: tuple) -> tuple:
        s = HoopState(theta=y[0], o=y[1], omega=y[2], theta_a=y[3], omega_a=y[4])
        if held_tau is None:
            tau_u, o_i_rate = control(t, s, y[5])
        else:  # the torque is frozen; only the integrator keeps its dynamics
            eta_e = ctl.error(s, ref_fn(t), n.r)[2]
            tau_u, o_i_rate = held_tau, ctl.integrator_rate(n, y[3], y[4], y[5], eta_e)
        return plt.derivative(p, s, tau_u) + (o_i_rate,)

    traj = Trajectory()

    def record(t: float, y: tuple) -> None:
        """Append one sample.  The torques are the ones ``cs`` logged last: the
        k1 evaluation at this (t, y), or the held torque in hold mode."""
        s = HoopState(theta=y[0], o=y[1], omega=y[2], theta_a=y[3], omega_a=y[4])
        o_e, omega_e, _ = ctl.error(s, ref_fn(t), n.r)
        ke, pe = energy(p, s)
        traj.t.append(t)
        traj.theta.append(y[0])
        traj.o.append(y[1])
        traj.omega.append(y[2])
        traj.theta_a.append(y[3])
        traj.omega_a.append(y[4])
        traj.o_I.append(y[5])
        traj.o_e.append(o_e)
        traj.omega_e.append(omega_e)
        traj.tau_u.append(cs.last_torque)
        traj.tilde_tau_u.append(cs.last_pid_torque)
        traj.energy.append(ke + pe)

    y = (
        cfg.initial.theta, cfg.initial.o, cfg.initial.omega,
        cfg.initial.theta_a, cfg.initial.omega_a, 0.0,
    )
    half = dt / 2.0
    sixth = dt / 6.0
    for i in range(steps + 1):
        t = i * dt
        if hold_steps is not None and i % hold_steps == 0:
            held_tau = control(t, HoopState(*y[:5]), y[5])[0]
        if i < steps:
            k1 = rhs(t, y)
        elif i % cfg.stride == 0 and held_tau is None:
            control(t, HoopState(*y[:5]), y[5])  # no k1 at the last sample
        if i % cfg.stride == 0:
            record(t, y)
        if i == steps:
            break
        y2 = tuple(y[j] + half * k1[j] for j in range(6))
        k2 = rhs(t + half, y2)
        y3 = tuple(y[j] + half * k2[j] for j in range(6))
        k3 = rhs(t + half, y3)
        y4 = tuple(y[j] + dt * k3[j] for j in range(6))
        k4 = rhs(t + dt, y4)
        y_next = tuple(
            y[j] + sixth * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
            for j in range(6)
        )
        ok = True
        for component in y_next:
            if not (math.isfinite(component) and abs(component) <= DIVERGENCE_LIMIT):
                ok = False
                break
        if not ok:
            traj.diverged_at = t + dt
            raise DivergenceError(t + dt, y, traj)
        y = y_next
    return traj
