"""The four benchmark workloads and the round structure they share.

A run repeats rounds until the program time it measured reaches the run
length.  A round is a fixed list of operations (calls of the ``hooprobot``
CLI or of ``sim.integrate``); it returns a function that checks their
outputs, which runs after the timed phase so that neither its time nor its
memory lands in the measurement.  An operation that raises, or a check that
fails, counts every operation of its round as failed.  Inputs of round k
come from the benchmark seed and k alone, so the same seed gives the same
inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checks

# Mass properties, incline and gains the workloads hand the program.  They
# are the CLI defaults, passed explicitly so the checks know them.
M_H, I_H, R, M_A, I_A, L = 1.0, 0.021, 0.18, 3.28, 0.035, 0.14
BETA = math.radians(20.0)
GAINS = (16.0, 7.0, 4.0)
MISMATCH = 1.5
PLANT_FLAGS = [
    "--m-h", "1.0", "--i-h", "0.021", "--r", "0.18", "--m-a", "3.28",
    "--i-a", "0.035", "--l", "0.14", "--beta", "20deg", "--mismatch", "1.5",
]
SIM_FLAGS = [*PLANT_FLAGS, "--kp", "16", "--kd", "7", "--ki", "4",
             "--dt", "0.001", "--t-end", "60"]
SIN_AMPLITUDE, SIN_RATE = 0.3, 0.5  # the sinusoid defaults of the reference
KINEMATIC_COLUMNS = ("t", "theta", "o", "omega", "theta_a", "omega_a")


class OpFailed(RuntimeError):
    """A CLI call returned a non-zero exit code."""


@dataclass
class Round:
    work: float = 0.0
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    verify: Optional[Callable[[], None]] = None
    bursts: list[float] = field(default_factory=list)  # calibration bursts, s


class Context:
    """What a round needs: the package, a scratch directory and a timer."""

    def __init__(self, package, out_dir: Path, tracer=None, calibrator=None):
        self.hooprobot = package
        self.out_dir = out_dir
        self.tracer = tracer
        self.tracing = False
        self.calibrator = calibrator
        self.round = Round()

    def scratch(self, name: str) -> Path:
        path = self.out_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    @contextlib.contextmanager
    def timed(self, work: float):
        """Time one program operation; ``work`` counts only if it completes.

        Calibration bursts that ran inside the operation are moved from its
        time to the round's list of bursts.
        """
        tracer = self.tracer if self.tracing else None
        sampling = self.calibrator.sampling() if self.calibrator else contextlib.nullcontext([])
        start = time.perf_counter()
        try:
            with sampling as bursts:
                if tracer is not None:
                    tracer.active = True
                try:
                    yield
                finally:
                    if tracer is not None:
                        tracer.active = False
        finally:
            # The alarm is off by now, so every burst ran inside this interval.
            self.round.seconds += time.perf_counter() - start - sum(bursts)
            self.round.bursts += bursts
            bursts.clear()
        self.round.work += work

    def cli(self, work: float, argv: list[str]) -> str:
        """Run ``hooprobot <argv>`` in this process; returns what it printed."""
        out = io.StringIO()
        with self.timed(work), contextlib.redirect_stdout(out):
            code = self.hooprobot.cli.main(argv)
            if code != 0:
                raise OpFailed(f"hooprobot {' '.join(argv)} exited with {code}")
        return out.getvalue()

    def integrate(self, work: float, cfg):
        with self.timed(work):
            return self.hooprobot.sim.integrate(cfg)

    def run_round(self, workload, k: int) -> Round:
        self.round = Round(attempted=workload.ops_per_round)
        try:
            self.round.verify = workload.round(self, k)
        except Exception as exc:  # a failed operation must not end the run
            self.round.failed = workload.ops_per_round
            self.round.problems.append(f"round {k}: {type(exc).__name__}: {exc}")
        return self.round


def verify(rounds: list[Round]) -> None:
    """Check the outputs of every completed round."""
    for k, rnd in enumerate(rounds):
        if rnd.verify is None:
            continue
        try:
            rnd.verify()
        except Exception as exc:  # a failed check marks its round, the rest still run
            rnd.failed = rnd.attempted
            rnd.problems.append(f"round {k} check: {type(exc).__name__}: {exc}")
        rnd.verify = None


def _plant(pkg, **overrides):
    values = dict(m_h=M_H, i_h=I_H, r=R, m_a=M_A, i_a=I_A, l=L, beta=BETA)
    values.update(overrides)
    return pkg.plant.PlantParams(**values)


def _final_state(traj) -> list[float]:
    return [traj.theta[-1], traj.o[-1], traj.omega[-1], traj.theta_a[-1],
            traj.omega_a[-1], traj.o_I[-1]]


class Regulate:
    """Default ``simulate``, then the same run fed back from its manifest."""

    name = "regulate"
    ops_per_round = 2

    def __init__(self, seed: int):
        self.seed = seed  # the default scenario has no random input

    def order_check(self, pkg) -> float:
        # A 1 s horizon at coarse steps keeps the RK4 error far above rounding.
        finals = []
        for dt in (0.01, 0.005, 0.0025):
            steps = int(round(1.0 / dt))
            p = _plant(pkg)
            cfg = pkg.sim.SimConfig(
                plant=p, nominal=pkg.regularizer.nominal_from_true(p, MISMATCH),
                gains=pkg.controller.Gains(*GAINS), dt=dt, t_end=1.0, stride=steps,
            )
            finals.append(_final_state(pkg.sim.integrate(cfg)))
        return checks.convergence_order(finals)

    def round(self, ctx: Context, k: int) -> Callable[[], None]:
        first, rerun = ctx.scratch(f"{k}/first"), ctx.scratch(f"{k}/rerun")
        ctx.cli(60.0, ["simulate", *SIM_FLAGS, "--stride", "10", "--out", str(first)])
        ctx.cli(60.0, ["simulate", "--config", str(first / "manifest.ini"),
                       "--out", str(rerun)])
        return lambda: self.check(ctx.hooprobot, first, rerun)

    def check(self, pkg, first: Path, rerun: Path) -> None:
        data = (first / "trajectory.csv").read_bytes()
        checks.identical(data, (rerun / "trajectory.csv").read_bytes(),
                         "trajectory.csv and its rerun from manifest.ini")
        cols = checks.parse_float_csv(data.decode().splitlines(keepends=True),
                                      checks.TRAJECTORY_COLUMNS)
        checks.uniform_grid(cols["t"], 0.01, 6001)
        checks.rolling_constraint(cols["o"], cols["theta"], R)
        checks.reaches(cols["theta_a"][-1], checks.balance_angle(M_H, M_A, R, L, BETA),
                       1e-6, "final theta_a")
        self.order_check(pkg)


class TrackDense:
    """Sinusoid tracking with feedforward, every step recorded and written."""

    name = "track_dense"
    ops_per_round = 1

    def __init__(self, seed: int):
        self.seed = seed  # the default sinusoid scenario has no random input

    def round(self, ctx: Context, k: int) -> Callable[[], None]:
        out = ctx.scratch(str(k))
        ctx.cli(60.0, ["simulate", *SIM_FLAGS, "--scenario", "sinusoid",
                       "--feedforward", "--stride", "1", "--out", str(out)])
        return lambda: self.check(out)

    def check(self, out: Path) -> None:
        # Parsed line by line and only the needed columns kept, so the check
        # stays below the program's own peak memory.
        with open(out / "trajectory.csv", encoding="utf-8", newline="") as fh:
            cols = checks.parse_float_csv(fh, checks.TRAJECTORY_COLUMNS, KINEMATIC_COLUMNS)
        dt = 0.001
        checks.uniform_grid(cols["t"], dt, 60001)
        checks.rolling_constraint(cols["o"], cols["theta"], R)
        checks.central_difference(cols["o"], cols["omega"], -R, dt, "o vs -r omega")
        checks.central_difference(cols["theta_a"], cols["omega_a"], 1.0, dt,
                                  "theta_a vs omega_a")
        del cols
        with open(out / "fig_position.csv", encoding="utf-8", newline="") as fh:
            fig = checks.parse_float_csv(fh, ("t", "o", "o_ref"), ("t", "o_ref"))
        checks.uniform_grid(fig["t"], dt, 60001)
        checks.sinusoid_reference(fig["t"], fig["o_ref"], 0.0, SIN_AMPLITUDE, SIN_RATE)


class Ensemble:
    """Short seeded closed-loop runs through the Python API, no files."""

    name = "ensemble"
    ops_per_round = 6
    T_END = 20.0

    def __init__(self, seed: int):
        self.seed = seed

    def configs(self, pkg, k: int) -> tuple[list, int]:
        """Round k: each scenario with and without hold; one run to rerun."""
        rng = random.Random(f"ensemble-{self.seed}-{k}")
        cfgs = []
        for scenario in ("fixed_point", "ramp", "sinusoid"):
            for hold_dt in (None, 0.01):
                p = _plant(
                    pkg, beta=math.radians(rng.uniform(-20.0, 20.0)),
                    delta_s=rng.uniform(-0.2, 0.2), delta_a=rng.uniform(-0.2, 0.2),
                )
                initial = pkg.plant.HoopState(
                    theta=rng.uniform(-1.0, 1.0), o=rng.uniform(-2.0, 2.0),
                    omega=rng.uniform(-0.2, 0.2), theta_a=rng.uniform(-0.3, 0.3),
                    omega_a=rng.uniform(-0.2, 0.2),
                )
                cfgs.append(pkg.sim.SimConfig(
                    plant=p,
                    nominal=pkg.regularizer.nominal_from_true(p, rng.uniform(0.7, 1.5)),
                    gains=pkg.controller.Gains(*GAINS), scenario=scenario,
                    initial=initial, t_end=self.T_END, stride=100,
                    feedforward=rng.random() < 0.5, hold_dt=hold_dt,
                ))
        return cfgs, rng.randrange(len(cfgs))

    def round(self, ctx: Context, k: int) -> Callable[[], None]:
        cfgs, again = self.configs(ctx.hooprobot, k)
        # Keep only what the checks read, so memory does not grow with rounds.
        kept = []
        for cfg in cfgs:
            traj = ctx.integrate(self.T_END, cfg)
            kept.append((array("d", traj.o), array("d", traj.theta), _final_state(traj)))
        return lambda: self.check(ctx.hooprobot, k, cfgs, kept, again)

    def check(self, pkg, k: int, cfgs: list, kept: list, again: int) -> None:
        for cfg, (o, theta, _) in zip(cfgs, kept):
            checks.rolling_constraint(o, theta, cfg.plant.r)
        if k > 0:  # one rerun per benchmark run is enough to catch state leaking between runs
            return
        alone = pkg.sim.integrate(cfgs[again])
        checks.same_state(_final_state(alone), kept[again][2], 1e-12,
                          f"run {again} rerun alone")


class Sweep:
    """``sweep --jobs 1`` over admissible triples plus a ``check-gains`` table."""

    name = "sweep"
    ops_per_round = 2
    COUNT = 8000
    TABLE_ROWS = 200

    def __init__(self, seed: int):
        self.seed = seed

    def matrices(self, pkg):
        """proof_matrices at the certificate inputs `sweep` uses by default."""
        cert = pkg.certificate
        believed = pkg.regularizer.nominal_from_true(_plant(pkg), 1.0)
        kappa = cert.kappa_mid(cert.derived_constants(believed, 6.0))
        i_max = believed.rolling_inertia
        i_min = i_max - believed.inertia_dip

        def matrices(k_p, k_d, k_i):
            return cert.proof_matrices(pkg.controller.Gains(k_p, k_d, k_i), None, kappa,
                                       1.0, i_min, i_max)
        return matrices

    def round(self, ctx: Context, k: int) -> Callable[[], None]:
        rng = random.Random(f"sweep-{self.seed}-{k}")
        sweep_seed = str(rng.randrange(2**31))
        k_d, k_i = rng.uniform(2.0, 9.0), rng.uniform(0.5, 6.0)
        start, step = float(rng.randrange(5, 60)), rng.choice((0.5, 1.0, 2.0))
        stop = start + (self.TABLE_ROWS - 0.5) * step
        out = ctx.scratch(str(k))
        argv = ["sweep", *PLANT_FLAGS, "--count", str(self.COUNT),
                "--seed", sweep_seed]
        ctx.cli(self.COUNT, [*argv, "--jobs", "1", "--out", str(out / "jobs1.csv")])
        table = ctx.cli(self.TABLE_ROWS, [
            "check-gains", *PLANT_FLAGS, "--kd", repr(k_d), "--ki", repr(k_i),
            "--sweep", "kp", f"{start!r}:{stop!r}:{step!r}",
        ])
        return lambda: self.check(ctx.hooprobot, k, argv, out, table, start, step)

    def check(self, pkg, k: int, argv: list[str], out: Path, table: str,
              start: float, step: float) -> None:
        data = (out / "jobs1.csv").read_bytes()
        rows = checks.parse_sweep_csv(data.decode().splitlines(keepends=True))
        checks.all_certified(rows, self.COUNT)
        checks.eigenvalues_match(rows, self.matrices(pkg))
        checks.margin_steps(table, start, step, self.TABLE_ROWS)
        if k == 0:  # one parallel run per benchmark run keeps process start-up out of rounds
            with contextlib.redirect_stdout(io.StringIO()):
                code = pkg.cli.main(
                    [*argv, "--jobs", "2", "--out", str(out / "jobs2.csv")])
            if code != 0:
                raise OpFailed(f"sweep --jobs 2 exited with {code}")
            checks.identical(data, (out / "jobs2.csv").read_bytes(), "sweep --jobs 2 output")


WORKLOADS = {w.name: w for w in (Regulate, TrackDense, Ensemble, Sweep)}
