"""Fixed-step closed-loop simulation, energy bookkeeping, and a dynamics oracle.

The plant state and the controller's transported integrator form one
augmented six-dimensional ODE advanced by classical fourth-order
Runge-Kutta with the control torque re-evaluated inside every stage
(continuous-control idealization; an optional hold mode freezes the torque
between sampling instants instead).  Everything is plain-float arithmetic in
a fixed order, so identical configurations produce bit-identical
trajectories.

Each RK4 stage is one call of the fused kernel that ``closed_loop`` builds:
the controller, the regularizer and the plant derivative in one function,
bit-identical to the composition of the modular functions in
``controller``, ``regularizer`` and ``plant``, which stay its readable
reference and its test oracle.

The energy and Lagrangian-oracle routines are deliberately built from the
frame geometry rather than the closed-form reduced equations, so they can
catch sign and wiring mistakes in the plant module instead of inheriting
them.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

from .controller import Gains
from .plant import (
    COUPLING_SINGULARITY_TOL,
    HoopState,
    PlantParams,
    SingularCouplingError,
    coupling_gain,
)
from .reference import SCENARIOS, Reference, make_reference
from .regularizer import NominalParams

DIVERGENCE_LIMIT = 1e6

CSV_HEADER = "t,theta,o,omega,theta_a,omega_a,o_I,o_e,omega_e,tau_u,energy"
CSV_CHUNK = 256  # rows per block of Trajectory.write_csv; bounds its string memory


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


# The make_reference parameters of each scenario, as (keyword, SimConfig field).
_SCENARIO_PARAMS = {
    "fixed_point": (),
    "ramp": (("v", "ramp_v"),),
    "sinusoid": (("amplitude", "sin_amplitude"), ("rate", "sin_rate")),
}


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

    def reference(self) -> Reference:
        params = {key: getattr(self, name) for key, name in _SCENARIO_PARAMS[self.scenario]}
        return make_reference(self.scenario, self.o_ref0, **params)


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

    def write_csv(self, path, figures=(), reference: Optional[Reference] = None) -> None:
        """Full-precision CSV export of the fixed column set, LF line ends.

        ``figures`` are more tables written in the same pass, each a
        (path, columns) pair, with the CRLF line ends of ``csv.writer``.  A
        column is a trajectory column or ``o_ref``, the position of
        ``reference`` at each t.  Rows go out in blocks of ``CSV_CHUNK``;
        within a block every column that any table needs is turned into
        text once, by ``repr``, and each table's lines are joined from
        those strings.
        """
        tables = [(path, CSV_HEADER.split(","), "\n")]
        tables += [(target, columns, "\r\n") for target, columns in figures]
        needed = list(dict.fromkeys(name for _, columns, _ in tables for name in columns))
        with ExitStack() as stack:
            sinks = []
            for target, columns, end in tables:
                fh = stack.enter_context(open(target, "w", encoding="utf-8", newline=""))
                fh.write(",".join(columns) + end)
                sinks.append((fh.writelines, ",".join(["{}"] * len(columns)) + end, columns))
            for start in range(0, len(self.t), CSV_CHUNK):
                rows = slice(start, start + CSV_CHUNK)
                text = {}
                for name in needed:
                    if name == "o_ref":
                        values = [reference(t).o_ref for t in self.t[rows]]
                    else:
                        values = getattr(self, name)[rows]
                    text[name] = list(map(repr, values))
                for writelines, line, columns in sinks:
                    writelines(map(line.format, *(text[name] for name in columns)))


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


def closed_loop(
    cfg: SimConfig, reference: Reference
) -> Callable[[float, tuple, Optional[tuple]], tuple]:
    """The closed-loop right-hand side of ``cfg`` as one fused stage function.

    Returns ``stage(t, y, held) -> (rates, tau_u, tilde_tau_u)``.  ``y`` is
    the augmented state (theta, o, omega, theta_a, omega_a, o_I) and
    ``rates`` its six time derivatives.  With ``held`` None the stage
    computes the control torque at (t, y) and returns it next to the PID
    torque before regularization (both including feedforward, when set).
    In hold mode ``held`` is the (tau_u, tilde_tau_u) pair frozen at the
    last sampling instant: the plant takes that torque, only the
    integrator rate is evaluated, and the pair is returned as given.  An
    open loop gives zero torque and a zero integrator rate.

    This is ``controller.step`` (error, PID, ``regularize``,
    ``integrator_rate``) followed by ``plant.derivative``, with the
    parameter constants read once per run and cos, sin, sin 2 of theta_a,
    sin(theta_a + beta) and the reference sampled once per stage.  Every
    expression keeps the operand order of those functions, and a constant
    is hoisted only where it is a left-to-right prefix of one, so the rates
    and torques equal the modular composition bit for bit; the tests hold
    the two against each other.  The checks are the same as well: a
    non-finite torque raises ValueError, a vanishing input-coupling
    denominator SingularCouplingError.
    """
    p, n, g = cfg.plant, cfg.nominal, cfg.gains
    sin, cos, isfinite = math.sin, math.cos, math.isfinite
    open_loop, feedforward = cfg.open_loop, cfg.feedforward
    # true plant (plant.gravity_torques, coupling_gain, derivative)
    beta, neg_r = p.beta, -p.r
    rolling, dip = p.rolling_inertia, p.inertia_dip
    amp, pend = p.coupling_amp, p.pendulum_inertia
    m_a, grav, l = p.m_a, p.g, p.l
    delta_s, delta_a = p.delta_s, p.delta_a
    spin_incline = p.r * p.m_total * p.g * sin(p.beta)
    spin_hang = p.m_a**2 * p.r * p.l**2 * p.g / p.pendulum_inertia
    act_quad = -(p.coupling_amp**2 / p.pendulum_inertia)
    # believed parameters and gains (controller, regularizer)
    n_r, n_rolling, n_dip, n_amp = n.r, n.rolling_inertia, n.inertia_dip, n.coupling_amp
    shaping = n.m_a**2 * n.r * n.l**2 * n.g / (2.0 * n.pendulum_inertia)
    k_p, k_d, k_i = g.k_p, g.k_d, g.k_i

    def stage(t: float, y: tuple, held: Optional[tuple]) -> tuple:
        theta, o, omega, theta_a, omega_a, o_i = y
        cos_a = cos(theta_a)
        sin_a = sin(theta_a)
        sin_2a = sin(2.0 * theta_a)
        omega_a_sq = omega_a**2
        if open_loop:
            tau_u = tilde = o_i_rate = 0.0
        else:
            ref = reference(t)
            eta_e = -(o - ref.o_ref)
            n_inertia = n_rolling - n_dip * cos_a**2
            slope = n_dip * sin_2a
            o_i_rate = eta_e - slope / (2.0 * n_inertia) * omega_a * o_i
            if held is None:
                omega_e = omega + ref.o_dot_ref / n_r
                tilde = -n_inertia * (k_p * eta_e + k_d * omega_e + k_i * o_i)
                tau_u = (
                    -(0.5 * slope * omega_a * omega_e)
                    + n_amp * sin_a * omega_a_sq
                    + shaping * sin_2a
                    + tilde
                )
                if feedforward:
                    tau_ref = n_inertia * (-ref.o_ddot_ref / n_r)
                    tau_u += tau_ref
                    tilde += tau_ref
            else:
                tau_u, tilde = held
        if not isfinite(tau_u):
            raise ValueError(f"control torque must be finite, got {tau_u!r}")
        inertia = rolling - dip * cos_a**2
        sin_hang = sin(theta_a + beta)
        coupling = amp * cos_a
        denom = pend - coupling
        if abs(denom) < COUPLING_SINGULARITY_TOL:
            coupling_gain(p, theta_a)  # raises the plant's SingularCouplingError
        coupling_ratio = coupling / pend
        tau_spin = spin_incline - spin_hang * cos_a * sin_hang
        tau_act = coupling_ratio * tau_spin - inertia * m_a * grav * l * sin_hang / pend
        omega_dot = (-(amp * sin_a * omega_a_sq) + tau_spin + delta_s + tau_u) / inertia
        omega_a_dot = (
            act_quad * sin_a * cos_a * omega_a_sq
            + tau_act
            + delta_a
            + (coupling_ratio - inertia / denom) * tau_u
        ) / inertia
        rates = (omega, neg_r * omega, omega_dot, omega_a, omega_a_dot, o_i_rate)
        return rates, tau_u, tilde

    return stage


def integrate(cfg: SimConfig) -> Trajectory:
    """Run the closed loop; returns the recorded trajectory.

    Raises DivergenceError (with the partial trajectory attached) if any
    state component leaves [-1e6, 1e6] or becomes non-finite.  In hold mode
    the control torque is recomputed every ``hold_dt`` and frozen in between,
    while the integrator state keeps its continuous dynamics; by default the
    torque follows the stage states exactly.
    """
    p, n = cfg.plant, cfg.nominal
    reference = cfg.reference()
    stage = closed_loop(cfg, reference)
    dt = cfg.dt
    steps = int(round(cfg.t_end / dt))
    stride = cfg.stride
    # an open loop has no torque to hold
    hold = cfg.hold_dt is not None and not cfg.open_loop
    hold_steps = max(1, int(round(cfg.hold_dt / dt))) if hold else None

    traj = Trajectory()

    def record(t: float, y: tuple, tau_u: float, tilde_tau_u: float) -> None:
        """Append one sample with the torques in force at (t, y)."""
        theta, o, omega, theta_a, omega_a, o_i = y
        ref = reference(t)
        ke, pe = energy(p, HoopState(theta, o, omega, theta_a, omega_a))
        traj.t.append(t)
        traj.theta.append(theta)
        traj.o.append(o)
        traj.omega.append(omega)
        traj.theta_a.append(theta_a)
        traj.omega_a.append(omega_a)
        traj.o_I.append(o_i)
        traj.o_e.append(o - ref.o_ref)
        traj.omega_e.append(omega + ref.o_dot_ref / n.r)
        traj.tau_u.append(tau_u)
        traj.tilde_tau_u.append(tilde_tau_u)
        traj.energy.append(ke + pe)

    y = (
        cfg.initial.theta, cfg.initial.o, cfg.initial.omega,
        cfg.initial.theta_a, cfg.initial.omega_a, 0.0,
    )
    held = None  # hold mode: the (tau_u, tilde_tau_u) frozen at the last instant
    half = dt / 2.0
    sixth = dt / 6.0
    limit = DIVERGENCE_LIMIT
    for i in range(steps + 1):
        t = i * dt
        if hold_steps is not None and i % hold_steps == 0:
            held = None  # sample a fresh torque at this instant
        if i < steps:
            k1, tau_u, tilde_tau_u = stage(t, y, held)
            if hold_steps is not None:
                held = (tau_u, tilde_tau_u)
        elif i % stride == 0 and held is None:
            _, tau_u, tilde_tau_u = stage(t, y, None)  # no k1 at the last sample
        if i % stride == 0:
            record(t, y, tau_u, tilde_tau_u)
        if i == steps:
            break
        theta, o, omega, theta_a, omega_a, o_i = y
        k1_th, k1_o, k1_w, k1_qa, k1_wa, k1_oi = k1
        (k2_th, k2_o, k2_w, k2_qa, k2_wa, k2_oi), _, _ = stage(t + half, (
            theta + half * k1_th, o + half * k1_o, omega + half * k1_w,
            theta_a + half * k1_qa, omega_a + half * k1_wa, o_i + half * k1_oi,
        ), held)
        (k3_th, k3_o, k3_w, k3_qa, k3_wa, k3_oi), _, _ = stage(t + half, (
            theta + half * k2_th, o + half * k2_o, omega + half * k2_w,
            theta_a + half * k2_qa, omega_a + half * k2_wa, o_i + half * k2_oi,
        ), held)
        (k4_th, k4_o, k4_w, k4_qa, k4_wa, k4_oi), _, _ = stage(t + dt, (
            theta + dt * k3_th, o + dt * k3_o, omega + dt * k3_w,
            theta_a + dt * k3_qa, omega_a + dt * k3_wa, o_i + dt * k3_oi,
        ), held)
        theta_n = theta + sixth * (k1_th + 2.0 * k2_th + 2.0 * k3_th + k4_th)
        o_n = o + sixth * (k1_o + 2.0 * k2_o + 2.0 * k3_o + k4_o)
        omega_n = omega + sixth * (k1_w + 2.0 * k2_w + 2.0 * k3_w + k4_w)
        theta_a_n = theta_a + sixth * (k1_qa + 2.0 * k2_qa + 2.0 * k3_qa + k4_qa)
        omega_a_n = omega_a + sixth * (k1_wa + 2.0 * k2_wa + 2.0 * k3_wa + k4_wa)
        o_i_n = o_i + sixth * (k1_oi + 2.0 * k2_oi + 2.0 * k3_oi + k4_oi)
        # a NaN or an infinity fails the comparison as well
        if not (
            abs(theta_n) <= limit and abs(o_n) <= limit and abs(omega_n) <= limit
            and abs(theta_a_n) <= limit and abs(omega_a_n) <= limit and abs(o_i_n) <= limit
        ):
            traj.diverged_at = t + dt
            raise DivergenceError(t + dt, y, traj)
        y = (theta_n, o_n, omega_n, theta_a_n, omega_a_n, o_i_n)
    return traj
