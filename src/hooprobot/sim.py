"""Fixed-step closed-loop simulation, energy bookkeeping, and a dynamics oracle.

The plant state and the controller's transported integrator form one
augmented six-dimensional ODE advanced by classical fourth-order
Runge-Kutta with the control torque re-evaluated inside every stage
(continuous-control idealization; an optional hold mode freezes the torque
between sampling instants instead).  Everything is plain-float arithmetic in
a fixed order, so identical configurations produce bit-identical
trajectories.

The closed-loop stage (controller, regularizer and plant derivative in one
body) is held once, as a source template, bit-identical to the composition
of the modular functions in ``controller``, ``regularizer`` and ``plant``,
its readable reference and test oracle; squares stay ``**2`` as there.  It
is compiled as the stage function of ``closed_loop``, and inlined at the
four stages of each step of ``integrate``'s RK4 loop next to the scenario's
sample text from ``reference`` and the recorded row; so the loop, compiled
once per process for each scenario and combination of flags, makes no
stage, reference or record calls.

The energy and Lagrangian-oracle routines are deliberately built from the
frame geometry rather than the closed-form reduced equations, so they can
catch sign and wiring mistakes in the plant module instead of inheriting
them.  ``integrate`` records the energy with ``energy``'s expressions and
their constant prefixes read once per run, so ``energy`` is the oracle of
the recorded column as well.

``integrate`` and ``Trajectory.write_csv`` run in the calling process.
``integrate_to_csv``, which ``hooprobot simulate`` calls, forks one writer
process that turns the rows into CSV text while the caller integrates; both
writers share one formatting loop, so their files are byte-identical.
"""

from __future__ import annotations

import functools
import math
import os
import re
import signal
from array import array
from contextlib import ExitStack
from dataclasses import dataclass, field as dc_field
from textwrap import indent
from typing import Callable, Optional

from .controller import Gains
from .plant import HoopState, PlantParams
from .reference import (
    SAMPLES, SCENARIOS, Reference, ReferenceSample, define, make_reference, sample_source,
)
from .regularizer import NominalParams

DIVERGENCE_LIMIT = 1e6

CSV_HEADER = "t,theta,o,omega,theta_a,omega_a,o_I,o_e,omega_e,tau_u,energy"
CSV_COLUMNS = tuple(CSV_HEADER.split(","))
# Rows per block of the CSV writer.  It bounds the writer's string memory and
# sizes one pipe message of integrate_to_csv: CSV_CHUNK rows of the tables'
# columns as raw doubles, 24 KiB for simulate's 12.
CSV_CHUNK = 256


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


class WriterError(RuntimeError):
    """The writer process of ``integrate_to_csv`` did not exit with 0.

    A writer that fails reports why on stderr itself; ``status`` is its
    exit code, or minus the signal that ended it.
    """

    def __init__(self, status: int):
        how = f"killed by signal {-status}" if status < 0 else f"exited with {status}"
        super().__init__(f"CSV writer process {how}")
        self.status = status


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
        if not 0.5 < self.t_end / self.dt < math.inf:  # the run takes round(t_end / dt) steps
            raise ValueError(
                f"t_end must cover a finite number of steps, at least one, "
                f"got t_end={self.t_end!r} at dt={self.dt!r}"
            )
        if not (isinstance(self.stride, int) and self.stride >= 1):
            raise ValueError(f"record stride must be an integer >= 1, got {self.stride!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.hold_dt is not None and not (  # the torque holds round(hold_dt / dt) steps
                self.hold_dt > 0.0 and self.hold_dt / self.dt < math.inf):
            raise ValueError(f"hold_dt must be positive and cover a finite number of steps when "
                             f"set, got hold_dt={self.hold_dt!r} at dt={self.dt!r}")
        for name in ("o_ref0", "ramp_v", "sin_amplitude", "sin_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("theta", "o", "omega", "theta_a", "omega_a"):
            if not math.isfinite(getattr(self.initial, name)):
                raise ValueError(
                    f"initial {name} must be finite, got {getattr(self.initial, name)!r}"
                )
        self.reference()  # the scenario's own checks (a sinusoid rate > 0) run now

    def _reference_params(self) -> dict:
        """The keywords of ``make_reference`` after the scenario."""
        return {name: getattr(self, name) for name in SAMPLES[self.scenario][0]}

    def reference(self) -> Reference:
        return make_reference(self.scenario, **self._reference_params())


_column = functools.partial(array, "d")


@dataclass
class Trajectory:
    """Recorded closed-loop run on a uniform grid, one ``array('d')`` per column."""

    t: array = dc_field(default_factory=_column)
    theta: array = dc_field(default_factory=_column)
    o: array = dc_field(default_factory=_column)
    omega: array = dc_field(default_factory=_column)
    theta_a: array = dc_field(default_factory=_column)
    omega_a: array = dc_field(default_factory=_column)
    o_I: array = dc_field(default_factory=_column)
    o_e: array = dc_field(default_factory=_column)
    omega_e: array = dc_field(default_factory=_column)
    tau_u: array = dc_field(default_factory=_column)
    tilde_tau_u: array = dc_field(default_factory=_column)
    energy: array = dc_field(default_factory=_column)
    o_ref: array = dc_field(default_factory=_column)

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, path, figures=()) -> None:
        """Full-precision CSV export of the fixed column set, LF line ends.

        ``figures`` are more tables written in the same pass, each a
        (path, columns) pair of trajectory columns, with the CRLF line ends
        of ``csv.writer``.  Rows go out in blocks of ``CSV_CHUNK`` through
        the formatting loop that ``integrate_to_csv``'s writer process runs
        as well.
        """
        with ExitStack() as stack:
            tables = _open_tables(stack, path, figures)
            columns = [getattr(self, name) for name in _block_columns(tables)]
            write = _table_writer(tables)
            for start in range(0, len(self.t), CSV_CHUNK):
                write([column[start:start + CSV_CHUNK] for column in columns])


def _open_tables(stack: ExitStack, path, figures) -> list:
    """Open the tables of ``Trajectory.write_csv`` on ``stack``; returns
    (file, columns, line end) triples, the trajectory table first."""
    tables = [(path, CSV_COLUMNS, "\n")]
    tables += [(target, columns, "\r\n") for target, columns in figures]
    return [
        (stack.enter_context(open(target, "w", encoding="utf-8", newline="")), columns, end)
        for target, columns, end in tables
    ]


def _block_columns(tables: list) -> list:
    """The columns ``tables`` name, once each in order of first use: a block's."""
    return list(dict.fromkeys(name for _, columns, _ in tables for name in columns))


def _table_writer(tables: list) -> Callable[[list], None]:
    """Write the header of each open table; returns ``write(block)``, which
    appends one block of rows to every table.

    A block holds one sequence of floats per column of ``_block_columns``.
    Within a block each column is turned into text once, by ``repr``, and
    each table's block is joined from those strings into one string, written
    at once; an empty block writes nothing.
    """
    names = _block_columns(tables)
    for fh, columns, end in tables:
        fh.write(",".join(columns) + end)

    def write(block: list) -> None:
        if not block[0]:
            return
        text = {name: list(map(repr, column)) for name, column in zip(names, block)}
        for fh, columns, end in tables:
            fh.write(end.join(map(",".join, zip(*(text[name] for name in columns)))) + end)

    return write


def _fork_writer(tables: list) -> tuple:
    """Fork a process that writes the open ``tables`` from blocks sent to it.

    Returns ``(send, finish)`` for this process.  ``send(block)`` puts a
    block of ``_table_writer``, ``array('d')`` slices of the columns, down a
    pipe as their bytes, column after column.  Every block but the last has
    ``CSV_CHUNK`` rows, so one read of that size takes one block, and a
    shorter one ends the stream.
    ``finish()`` closes the pipe, waits for the writer and raises
    WriterError unless it exited with 0.

    This process closes its copies of the tables and writes nothing to
    them.  The writer writes the headers and every row; it ignores SIGINT,
    so that after a Ctrl-C it still writes the rows sent to it, and it ends
    through ``os._exit``, which flushes none of the buffers it inherited.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(write_fd)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            write = _table_writer(tables)
            width = len(_block_columns(tables))
            with open(read_fd, "rb") as pipe:
                while data := pipe.read(CSV_CHUNK * width * 8):
                    values = array("d", data)
                    rows, torn = divmod(len(values), width)
                    if torn:
                        raise EOFError("pipe closed inside a block")
                    write([values[j * rows:(j + 1) * rows] for j in range(width)])
            for fh, _, _ in tables:
                fh.close()
            status = 0
        except BaseException as exc:  # the writer's last frame: one line, status 1
            os.write(2, f"error: CSV writer: {str(exc) or type(exc).__name__}\n".encode())
        finally:
            os._exit(status)
    os.close(read_fd)
    for fh, _, _ in tables:
        fh.close()

    def send(block: list) -> None:
        data = memoryview(b"".join(block))
        while data:
            data = data[os.write(write_fd, data):]

    def finish() -> None:
        os.close(write_fd)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            raise WriterError(status)

    return send, finish


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


# The closed-loop stage, held once as source: ``_stage_source`` assembles it
# for a run's flags, ``closed_loop`` compiles it as a function and ``_run``
# inlines it at each RK4 stage.  It reads the state o, omega, theta_a,
# omega_a, o_i and the sample o_ref, o_dot_ref, o_ddot_ref, and sets
# omega_dot, omega_a_dot, o_i_rate, tau_u and tilde, by arithmetic and the sin
# and cos of ``math`` alone, so it runs on symbols too.  Squares stay ``**2``
# as in the modular functions: glibc's pow(x, 2.0) differs from x*x in the
# last bit for 2485 of 3,000,000 doubles drawn from U(-10, 10) (glibc 2.36,
# x86-64), so x*x would break the bit-equality with them.  ``_CONSTANTS``
# reads the true plant p, the belief n and the gains g once per run.
_CONSTANTS = """\
sin, cos = math.sin, math.cos
beta, neg_r = p.beta, -p.r
rolling, dip = p.rolling_inertia, p.inertia_dip
amp, pend = p.coupling_amp, p.pendulum_inertia
m_a, grav, l = p.m_a, p.g, p.l
delta_s, delta_a = p.delta_s, p.delta_a
spin_incline = p.r * p.m_total * p.g * sin(p.beta)
spin_hang = p.m_a**2 * p.r * p.l**2 * p.g / p.pendulum_inertia
act_quad = -(p.coupling_amp**2 / p.pendulum_inertia)
n_r, n_rolling, n_dip, n_amp = n.r, n.rolling_inertia, n.inertia_dip, n.coupling_amp
shaping = n.m_a**2 * n.r * n.l**2 * n.g / (2.0 * n.pendulum_inertia)
k_p, k_d, k_i = g.k_p, g.k_d, g.k_i
"""
_TRIG = """\
cos_a = cos(theta_a)
sin_a = sin(theta_a)
sin_2a = sin(2.0 * theta_a)
omega_a_sq = omega_a**2
"""
_INTEGRATOR = """\
eta_e = -(o - o_ref)
n_inertia = n_rolling - n_dip * cos_a**2
slope = n_dip * sin_2a
o_i_rate = eta_e - slope / (2.0 * n_inertia) * omega_a * o_i
"""
_PID = """\
omega_e = omega + o_dot_ref / n_r
tilde = -n_inertia * (k_p * eta_e + k_d * omega_e + k_i * o_i)
tau_u = (
    -(0.5 * slope * omega_a * omega_e)
    + n_amp * sin_a * omega_a_sq
    + shaping * sin_2a
    + tilde
)
"""
_FEEDFORWARD = """\
tau_ref = n_inertia * (-o_ddot_ref / n_r)
tau_u += tau_ref
tilde += tau_ref
"""
_PLANT = """\
inertia = rolling - dip * cos_a**2
sin_hang = sin(theta_a + beta)
coupling = amp * cos_a
denom = pend - coupling
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
"""


def _stage_source(open_loop: bool, feedforward: bool, torque: str, suffix: str = "") -> str:
    """One instance of the stage.  A closed loop's ``torque`` is "fresh",
    "held" (unpacked from ``held``) or "either" (by ``held is None``); a
    ``suffix`` goes on the names of the state it reads and the rates it
    sets, so that instances can follow one another in one function."""
    fresh = _PID + (_FEEDFORWARD if feedforward else "")
    held = "tau_u, tilde = held\n"
    if open_loop:
        control = "tau_u = tilde = o_i_rate = 0.0\n"
    elif torque == "either":
        control = f"{_INTEGRATOR}if held is None:\n{indent(fresh, '    ')}else:\n    {held}"
    else:
        control = _INTEGRATOR + (fresh if torque == "fresh" else held)
    source = _TRIG + control + _PLANT
    if suffix:
        names = r"\b(o|omega|theta_a|omega_a|o_i|omega_dot|omega_a_dot|o_i_rate)\b"
        source = re.sub(names, rf"\g<1>{suffix}", source)
    return source


@functools.cache
def _stage_factory(open_loop: bool, feedforward: bool) -> Callable:
    sample = "" if open_loop else "o_ref, o_dot_ref, o_ddot_ref = ref\n"
    source = (
        "def factory(p, n, g):\n" + indent(_CONSTANTS, "    ")
        + "    def stage(ref, y, held):\n        theta, o, omega, theta_a, omega_a, o_i = y\n"
        + indent(sample + _stage_source(open_loop, feedforward, "either"), " " * 8)
        + "        rates = (omega, neg_r * omega, omega_dot, omega_a, omega_a_dot, o_i_rate)\n"
        + "        return rates, tau_u, tilde\n    return stage\n"
    )
    return define("factory", source, f"open_loop={open_loop} feedforward={feedforward}", globals())


def closed_loop(cfg: SimConfig) -> Callable[[ReferenceSample, tuple, Optional[tuple]], tuple]:
    """The closed-loop right-hand side of ``cfg`` as one fused stage function.

    Returns ``stage(ref, y, held) -> (rates, tau_u, tilde_tau_u)``.  ``ref``
    is the ``ReferenceSample`` at the stage time, drawn by the caller from
    ``cfg.reference()``, so stages at one time can share one sample.  ``y``
    is the augmented state (theta, o, omega, theta_a, omega_a, o_I) and
    ``rates`` its six time derivatives.  With ``held`` None the stage
    computes the control torque at (ref, y) and returns it next to the PID
    torque before regularization (both including feedforward, when set).
    In hold mode ``held`` is the (tau_u, tilde_tau_u) pair frozen at the
    last sampling instant: the plant takes that torque, only the
    integrator rate is evaluated, and the pair is returned as given.  An
    open loop gives zero torque and a zero integrator rate.

    The body is the module's one stage template, which ``integrate``'s
    loop inlines at each RK4 stage: ``controller.step`` (error, PID,
    ``regularize``, ``integrator_rate``) then ``plant.derivative``, with the
    constants read once per run and cos, sin, sin 2 of theta_a and
    sin(theta_a + beta) once per stage.  Every expression keeps the operand
    order of those functions, ``**2`` included, and a constant is hoisted
    only where it is a left-to-right prefix of one, so the rates and torques
    equal the modular composition bit for bit, as the tests check.  It
    checks nothing: a non-finite torque gives a non-finite ``omega_dot``,
    which ends the step of ``integrate`` that takes it.
    """
    return _stage_factory(cfg.open_loop, cfg.feedforward)(cfg.plant, cfg.nominal, cfg.gains)


def integrate(cfg: SimConfig) -> Trajectory:
    """Run the closed loop; returns the recorded trajectory, whose columns
    hold the recorded values as exact doubles at 8 bytes per value.

    Raises DivergenceError (with the partial trajectory attached) if any
    state component leaves [-1e6, 1e6] or becomes non-finite, or a value
    within a step overflows when squared.  In hold mode the control torque
    is recomputed every ``max(1, round(hold_dt / dt))`` steps and frozen in
    between, while the integrator state keeps its continuous dynamics; by
    default the torque follows the stage states exactly.

    Each RK4 step runs the scenario's sample text once per distinct time:
    at t for k1 and the recorded row, at t + dt/2 for k2 and k3, at t + dt
    for k4; an open loop, whose stages ignore the sample, only at t for a
    recorded row.  An overflow in k1 or in the row at t reports a
    divergence at t, one in k2 to k4 at t + dt; both carry the state at t.
    A step whose stage computes a non-finite torque diverges at t + dt; a
    row at t holds k1's torque, finite or not.
    """
    traj = Trajectory()
    _run(cfg, traj)
    return traj


def integrate_to_csv(cfg: SimConfig, path, figures=()) -> Trajectory:
    """``integrate(cfg)`` that writes ``write_csv(path, figures)`` of its
    trajectory as it runs; returns the trajectory.

    The tables are opened before the run starts, so an error opening one
    raises before any step.  A forked writer process (``_fork_writer``)
    formats and writes them while this process integrates; every
    ``CSV_CHUNK`` recorded rows go to it as the bytes of the columns, exact
    doubles at 8 bytes per value as in ``integrate``.  However the run ends,
    normally or by an exception (DivergenceError, KeyboardInterrupt), the
    rows not yet sent follow and the writer is waited for, so the files hold
    every recorded row, byte for byte what ``write_csv`` writes.  A failed
    writer raises WriterError.  Without ``os.fork`` the same writer takes
    the blocks in this process.

    A fork copies only the calling thread, so call this from a process
    that runs no other thread, as ``hooprobot simulate`` does.
    """
    traj = Trajectory()
    sent = 0
    with ExitStack() as stack:
        tables = _open_tables(stack, path, figures)
        columns = [getattr(traj, name) for name in _block_columns(tables)]
        if hasattr(os, "fork"):
            send, finish = _fork_writer(tables)
        else:
            send, finish = _table_writer(tables), lambda: None

        def flush() -> None:
            nonlocal sent
            block = [column[sent:] for column in columns]
            sent = len(traj)
            send(block)

        try:
            _run(cfg, traj, flush)
        finally:
            try:
                if sent < len(traj):
                    flush()
            finally:
                finish()
    return traj


# The RK4 loop of ``_run``: the state in six floats; the scenario's sample
# and the stage template at k1 and, under the suffixes _2 to _4, at k2 to k4;
# and the recorded row.  ``_RATES`` pairs each state variable with its rate;
# no stage reads theta.  Every failure leaves as a DivergenceError, at ``at``:
# t in k1 and the row, which read the state at t, and t + dt in k2 to k4.
_LOOP = """\
def loop(p, n, g, flush, traj, dt, steps, stride, hold_steps,
         theta, o, omega, theta_a, omega_a, o_i{params}):
{constants}
    half, sixth, limit = dt / 2.0, dt / 6.0, DIVERGENCE_LIMIT
    held = None  # hold mode: the (tau_u, tilde) frozen at the last instant
    try:
        for i in range(steps + 1):
            t = at = i * dt
{k1}
            if i % stride == 0:
{row}
                if flush is not None and len(traj.t) % CSV_CHUNK == 0:
                    flush()
            if i == steps:
                break
            at = t + dt
{k2_to_k4}
            if not ({bounded}):  # a NaN fails as well
                raise DivergenceError(at, (theta, o, omega, theta_a, omega_a, o_i), traj)
{advance}
    # x**2 past about 1.3e154 raises OverflowError where x*x gives inf; cos or
    # sin of an infinite angle, after a non-finite torque, raises ValueError,
    # which nothing else here raises: the tables stay open for the whole run
    except (OverflowError, ValueError) as exc:
        raise DivergenceError(at, (theta, o, omega, theta_a, omega_a, o_i), traj) from exc
"""
_RATES = (("theta", "omega"), ("o", "o_rate"), ("omega", "omega_dot"),
          ("theta_a", "omega_a"), ("omega_a", "omega_a_dot"), ("o_i", "o_i_rate"))
# The recorded row at t: each ``Trajectory`` column with its value, from the
# state, the sample, k1's trig and the torques in force.  The energy keeps
# ``energy``'s expressions, operand order and ``**2``, its constant prefixes
# read once per run, so ``energy`` is its oracle bit for bit; it is computed
# before the first append, so an overflow leaves no part of a row.
_ROW_CONSTANTS = """\
half_rolling = 0.5 * (p.i_h + p.m_h * p.r**2)
half_m_a, half_i_a = 0.5 * p.m_a, 0.5 * p.i_a
sin_beta, r_cos_beta = sin(p.beta), p.r * cos(p.beta)
weight, hang = p.m_total * p.g, p.m_a * p.g * p.l
"""
_ROW = """\
v_x = neg_r * omega + l * omega_a * cos_a
v_y = l * omega_a * sin_a
ke = half_rolling * omega**2 + half_m_a * (v_x**2 + v_y**2) + half_i_a * omega_a_sq
pe = weight * (o * sin_beta + r_cos_beta) - hang * cos(theta_a + beta)
"""
_ROW_VALUES = (("t", "t"), ("theta", "theta"), ("o", "o"), ("omega", "omega"),
               ("theta_a", "theta_a"), ("omega_a", "omega_a"), ("o_I", "o_i"),
               ("o_e", "o - o_ref"), ("omega_e", "omega + o_dot_ref / n_r"),
               ("tau_u", "tau_u"), ("tilde_tau_u", "tilde"), ("energy", "ke + pe"),
               ("o_ref", "o_ref"))


def _loop_source(scenario: str, open_loop: bool, feedforward: bool, hold: bool) -> str:
    """``_run``'s loop for one scenario and combination of flags.  An open
    loop samples the reference only for a recorded row; in hold mode k1
    takes a fresh or the held torque and k2 to k4 the held one.  k1 runs
    once more for a recorded last row, unless a torque is held, when only
    its trig does; the sums keep the tuple loop's order."""
    params, constants, _ = SAMPLES[scenario]
    sample = (lambda at: "") if open_loop else functools.partial(sample_source, scenario)
    k1 = indent(_stage_source(open_loop, feedforward, "either" if hold else "fresh"), "    ")
    if hold:
        k1 = ("if i % hold_steps == 0:\n    held = None\n"
              f"if i < steps or i % stride == 0 and held is None:\n{k1}    held = (tau_u, tilde)\n"
              f"else:\n{indent(_TRIG, '    ')}")
    else:
        k1 = f"if i < steps or i % stride == 0:\n{k1}"
    stages = []
    for k, at, step in ((2, "(t + half)", "half"), (3, None, "half"), (4, "(t + dt)", "dt")):
        last = f"_{k - 1}" if k > 2 else ""
        stages.append(
            (sample(at) if at else "")
            + f"o_rate{last} = neg_r * omega{last}\n"
            + "".join(f"{x}_{k} = {x} + {step} * {rate}{last}\n" for x, rate in _RATES[1:])
            + _stage_source(open_loop, feedforward, "held" if hold else "fresh", f"_{k}")
        )
    stages.append("o_rate_4 = neg_r * omega_4\n")
    stages += [f"{x}_n = {x} + sixth * ({r} + 2.0 * {r}_2 + 2.0 * {r}_3 + {r}_4)\n"
               for x, r in _RATES]
    constants += _ROW_CONSTANTS + "".join(f"put_{c} = traj.{c}.append\n" for c, _ in _ROW_VALUES)
    row = ((sample_source(scenario, "t") if open_loop else "") + _ROW
           + "".join(f"put_{c}({value})\n" for c, value in _ROW_VALUES))
    return _LOOP.format(
        params="".join(f", {name}" for name in params),
        constants=indent(_CONSTANTS + constants, "    ").rstrip("\n"),
        k1=indent(sample("t") + k1, " " * 12).rstrip("\n"),
        row=indent(row, " " * 16).rstrip("\n"),
        k2_to_k4=indent("".join(stages), " " * 12).rstrip("\n"),
        bounded=" and ".join(f"-limit <= {x}_n <= limit" for x, _ in _RATES),
        advance="\n".join(f"            {x} = {x}_n" for x, _ in _RATES),
    )


@functools.cache
def _loop(scenario: str, open_loop: bool, feedforward: bool, hold: bool) -> Callable:
    flags = f"scenario={scenario} open_loop={open_loop} feedforward={feedforward} hold={hold}"
    return define("loop", _loop_source(scenario, open_loop, feedforward, hold), flags, globals())


def _run(cfg: SimConfig, traj: Trajectory, flush: Optional[Callable[[], None]] = None) -> None:
    """The RK4 loop of ``integrate``, recording into ``traj``; ``flush()``,
    when given, runs after every ``CSV_CHUNK``-th recorded row."""
    dt = cfg.dt
    # an open loop has no torque to hold
    hold = cfg.hold_dt is not None and not cfg.open_loop
    hold_steps = max(1, int(round(cfg.hold_dt / dt))) if hold else None
    s = cfg.initial
    _loop(cfg.scenario, cfg.open_loop, cfg.feedforward, hold)(
        cfg.plant, cfg.nominal, cfg.gains, flush, traj, dt, int(round(cfg.t_end / dt)),
        cfg.stride, hold_steps, s.theta, s.o, s.omega, s.theta_a, s.omega_a, 0.0,
        **cfg._reference_params(),
    )
