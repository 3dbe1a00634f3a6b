"""Fixed-step closed-loop simulation and energy bookkeeping.

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
its readable reference and test oracle, with their operand order.  It
is compiled as the stage function of ``closed_loop``, and inlined at the
four stages of each step of ``integrate``'s RK4 loop next to the scenario's
sample text from ``reference`` and the recorded row; so the loop, compiled
once per process for each scenario and combination of flags, makes no
stage, reference or record calls.

The energy is written once, as the recorded row's text: the loop inlines
it, and ``energy`` is compiled from it for one state.  It is built from the
frame geometry rather than the closed-form reduced equations, so Lagrange's
equations of it, which the tests derive exactly, catch sign and wiring
mistakes in the plant instead of inheriting them.

``integrate`` and ``Trajectory.write_csv`` run in the calling process.
``integrate_to_csv``, which ``hooprobot simulate`` calls, forks one writer
process that turns the rows into CSV text while the caller integrates; both
writers share one formatting loop, so their files are byte-identical.  The
caller folds each block it sends into a ``RunSummary`` and drops it.
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
from typing import Callable, NamedTuple, Optional

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
SETTLING_BAND = 0.01  # |o_e| threshold for the settling-time summary metric


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
            tables, columns = _open_tables(stack, path, figures, self)
            write = _table_writer(tables)
            for start in range(0, len(self.t), CSV_CHUNK):
                write([column[start:start + CSV_CHUNK] for column in columns])


class RunSummary(NamedTuple):
    """What ``simulate`` reports of a run's recorded rows."""

    rows: int
    terminal_o_e: float  # |o_e| at the last row
    max_omega_a: float  # max |omega_a|, 0.0 over no rows
    settling_time: float  # the earliest t after which |o_e| < SETTLING_BAND; inf if never


_NO_ROWS = RunSummary(0, 0.0, 0.0, math.inf)  # before the first row: where a fold starts


def summarize(traj: Trajectory, before: RunSummary = _NO_ROWS) -> RunSummary:
    """The summary of the rows of ``traj`` (at least one) after those that
    ``before`` summarizes: folded block by block, that of the whole run.
    Only a block with a row outside the band is scanned in Python, backwards
    to its last such row; a block that ends outside leaves the settling
    time inf until the first t of the next."""
    t, o_e = traj.t, traj.o_e
    settling = before.settling_time
    if max(map(abs, o_e)) >= SETTLING_BAND:
        last = len(o_e) - 1
        while abs(o_e[last]) < SETTLING_BAND:
            last -= 1
        settling = t[last + 1] if last + 1 < len(t) else math.inf
    elif settling == math.inf:
        settling = t[0]
    max_omega_a = max(before.max_omega_a, max(map(abs, traj.omega_a), default=0.0))
    return RunSummary(before.rows + len(t), abs(o_e[-1]), max_omega_a, settling)


def _open_tables(stack: ExitStack, path, figures, traj: "Trajectory") -> tuple[list, list]:
    """Open the tables of ``Trajectory.write_csv`` on ``stack``; returns
    (file, columns, line end) triples, the trajectory table first, and the
    columns of ``traj`` a block holds, looked up first: a name ``traj`` lacks
    raises before any file is opened, so it truncates none."""
    tables = [(path, CSV_COLUMNS, "\n")]
    tables += [(target, columns, "\r\n") for target, columns in figures]
    block = [getattr(traj, name) for name in _block_columns(tables)]
    return [
        (stack.enter_context(open(target, "w", encoding="utf-8", newline="")), columns, end)
        for target, columns, end in tables
    ], block


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
    block of ``_table_writer``, ``array('d')`` columns, down a pipe as
    their bytes, column after column.  Every block but the last has
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


# The closed-loop stage, held once as source: ``_stage_source`` assembles it
# for a run's flags, ``closed_loop`` compiles it as a function and ``_run``
# inlines it at each RK4 stage.  It reads the state o, omega, theta_a,
# omega_a, o_i and the sample o_ref, o_dot_ref, o_ddot_ref, and sets
# omega_dot, omega_a_dot, o_i_rate, tau_u and tilde, by arithmetic and the sin
# and cos of ``math`` alone, so it runs on symbols too.  Its trig is cos and
# sin of theta_a: sin(theta_a + beta) and sin 2 theta_a come by the
# angle-addition forms.  cos^2 is a product, since |cos| <= 1 cannot
# overflow; omega_a^2 stays ``**2``, so a huge omega_a raises OverflowError
# where x*x would give inf.  The modular functions write each form the same
# way (pow(x, 2.0) and x*x differ in the last bit for some x), so the two
# stay equal bit for bit.
# ``_CONSTANTS`` reads the true plant p, the belief n and the gains g once
# per run; its ``_GEOMETRY`` lines serve ``energy`` as well.
_GEOMETRY = """\
sin, cos = math.sin, math.cos
beta, neg_r, l = p.beta, -p.r, p.l
"""
_CONSTANTS = _GEOMETRY + """\
rolling, dip = p.rolling_inertia, p.inertia_dip
amp, pend = p.coupling_amp, p.pendulum_inertia
delta_s, delta_a = p.delta_s, p.delta_a
sin_beta, cos_beta = sin(p.beta), cos(p.beta)
spin_incline = p.r * p.m_total * p.g * sin_beta
spin_hang = p.m_a**2 * p.r * p.l**2 * p.g / p.pendulum_inertia
amp_ratio = p.coupling_amp / p.pendulum_inertia
hang_ratio = p.m_a * p.g * p.l / p.pendulum_inertia
act_quad = -(p.coupling_amp**2 / p.pendulum_inertia)
n_r, n_rolling, n_dip, n_amp = n.r, n.rolling_inertia, n.inertia_dip, n.coupling_amp
n_dip_2 = 2.0 * n.inertia_dip
shaping = n.m_a**2 * n.r * n.l**2 * n.g / n.pendulum_inertia
k_p, k_d, k_i = g.k_p, g.k_d, g.k_i
"""
_TRIG = """\
cos_a = cos(theta_a)
sin_a = sin(theta_a)
cos_sq = cos_a * cos_a
sin_cos = sin_a * cos_a
omega_a_sq = omega_a**2
"""
_INTEGRATOR = """\
eta_e = -(o - o_ref)
n_inertia = n_rolling - n_dip * cos_sq
slope = n_dip_2 * sin_cos
o_i_rate = eta_e - slope / (2.0 * n_inertia) * omega_a * o_i
"""
_PID = """\
omega_e = omega + o_dot_ref / n_r
tilde = -n_inertia * (k_p * eta_e + k_d * omega_e + k_i * o_i)
tau_u = (
    -(0.5 * slope * omega_a * omega_e)
    + n_amp * sin_a * omega_a_sq
    + shaping * sin_cos
    + tilde
)
"""
_FEEDFORWARD = """\
tau_ref = n_inertia * (-o_ddot_ref / n_r)
tau_u += tau_ref
tilde += tau_ref
"""
_PLANT = """\
inertia = rolling - dip * cos_sq
sin_hang = sin_a * cos_beta + cos_a * sin_beta
coupling_ratio = amp_ratio * cos_a
tau_spin = spin_incline - spin_hang * cos_a * sin_hang
tau_act = coupling_ratio * tau_spin - hang_ratio * inertia * sin_hang
omega_dot = (-(amp * sin_a * omega_a_sq) + tau_spin + delta_s + tau_u) / inertia
omega_a_dot = (
    act_quad * sin_cos * omega_a_sq
    + tau_act
    + delta_a
    + (coupling_ratio - inertia / (pend - amp * cos_a)) * tau_u
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
    constants read once per run and cos and sin of theta_a once per stage.
    Every expression keeps the operand order of those functions, ``**2``
    included, and a constant or product is hoisted only where it is a
    left-to-right prefix or a parenthesised factor of one, so the rates and
    torques equal the modular composition bit for bit, as the tests check.  It
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


def integrate_to_csv(cfg: SimConfig, path, figures=()) -> RunSummary:
    """``integrate(cfg)`` that writes ``write_csv(path, figures)`` of its
    trajectory as it runs; returns ``summarize`` of that trajectory.

    The tables are opened before the run starts, so an error opening one
    raises before any step.  A forked writer process (``_fork_writer``)
    formats and writes them while this process integrates; every
    ``CSV_CHUNK`` recorded rows go to it as the bytes of the columns, exact
    doubles at 8 bytes per value as in ``integrate``, are folded into the
    summary and dropped, so this process holds at most one block of rows.
    However the run ends, normally or by an exception (DivergenceError,
    KeyboardInterrupt), the rows not yet sent follow and the writer is
    waited for, so the files hold every recorded row, byte for byte what
    ``write_csv`` writes; a DivergenceError's ``trajectory`` then holds no
    rows.  A failed writer raises WriterError.  Without ``os.fork`` the same
    writer takes the blocks in this process.

    A fork copies only the calling thread, so call this from a process
    that runs no other thread, as ``hooprobot simulate`` does.
    """
    traj = Trajectory()
    summary = _NO_ROWS
    with ExitStack() as stack:
        tables, columns = _open_tables(stack, path, figures, traj)
        if hasattr(os, "fork"):
            send, finish = _fork_writer(tables)
        else:
            send, finish = _table_writer(tables), lambda: None

        def flush() -> None:
            nonlocal summary
            send(columns)
            summary = summarize(traj, summary)
            for column in vars(traj).values():
                del column[:]

        try:
            _run(cfg, traj, flush)
        finally:
            try:
                if len(traj):
                    flush()
            finally:
                finish()
    return summary


# The RK4 loop of ``_run``: the state in six floats; the scenario's sample
# and the stage template at k1 and, under the suffixes _2 to _4, at k2 to k4;
# and the recorded row.  ``_RATES`` pairs each state variable with its rate;
# no stage reads theta.  Every failure leaves as a DivergenceError, at ``at``:
# t in k1 and the row, which read the state at t, and t + dt in k2 to k4.
_LOOP = """\
def loop(p, n, g, flush, traj, dt, steps, stride, hold_steps,
         theta, o, omega, theta_a, omega_a, o_i{params}):
{constants}
    half, sixth, limit, neg_limit = dt / 2.0, dt / 6.0, DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT
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
# state, the sample, k1's trig and the torques in force.  The energy comes
# from the frame geometry: the hoop translates with the centre, at speed
# r*omega along the incline, and spins; the actuator mass rides the centre on
# an arm of length l swinging at omega_a, hanging toward the contact at
# theta_a = 0, and the actuator body spins at omega_a as well.  v_x and v_y
# are the mass's velocity along the slope and normal to it.  Heights are in
# the gravity frame: the centre sits o*sin(beta) + r*cos(beta) above the
# incline origin, and the mass hangs l*cos(theta_a + beta) below it.  The
# loop reads the constant prefixes once per run and computes the energy
# before the first append, so an overflow leaves no part of a row.
_ROW_CONSTANTS = """\
half_rolling = 0.5 * (p.i_h + p.m_h * p.r**2)
half_m_a, half_i_a = 0.5 * p.m_a, 0.5 * p.i_a
r_cos_beta = p.r * cos(p.beta)
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
# ``energy`` is the row's energy text run on one state: the geometry lines of
# ``_CONSTANTS`` and sin(beta), ``_ROW_CONSTANTS``, k1's trig and ``_ROW``.
_ENERGY = (
    'def energy(p, s):\n'
    '    """Kinetic and potential energy (ke, pe) of the plant p at the state s."""\n'
    + indent(_GEOMETRY + "sin_beta = sin(beta)\n" + _ROW_CONSTANTS
             + "o, omega, theta_a, omega_a = s.o, s.omega, s.theta_a, s.omega_a\n"
             + _TRIG + _ROW + "return ke, pe\n", "    ")
)
energy: Callable[[PlantParams, HoopState], tuple[float, float]] = define(
    "energy", _ENERGY, "of one state", globals())


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
        bounded=" and ".join(f"neg_limit <= {x}_n <= limit" for x, _ in _RATES),
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
