"""Tests of the benchmark's output checks: each passes on genuine program
output and fails once one value in that output is corrupted.

Run from the root of the checkout (about half a minute):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import math

import pytest

import checks
import run
import workloads

pkg = run.import_program()


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def _round(workload, out_dir):
    ctx = workloads.Context(pkg, out_dir)
    rnd = ctx.run_round(workload, 0)
    assert rnd.problems == [] and rnd.verify is not None
    return rnd


@pytest.fixture(scope="module")
def regulate(out):
    rnd = _round(workloads.Regulate(0), out)
    rnd.verify()
    text = (out / "0" / "first" / "trajectory.csv").read_text(encoding="utf-8")
    return text.splitlines(keepends=True)


@pytest.fixture(scope="module")
def dense(out):
    rnd = _round(workloads.TrackDense(0), out / "dense")
    rnd.verify()
    with open(out / "dense" / "0" / "trajectory.csv", encoding="utf-8", newline="") as fh:
        cols = checks.parse_float_csv(fh, checks.TRAJECTORY_COLUMNS, workloads.KINEMATIC_COLUMNS)
    with open(out / "dense" / "0" / "fig_position.csv", encoding="utf-8", newline="") as fh:
        fig = checks.parse_float_csv(fh, ("t", "o", "o_ref"), ("t", "o_ref"))
    return cols, fig


@pytest.fixture(scope="module")
def sweep(out):
    workload = workloads.Sweep(0)
    workload.COUNT = 300
    rnd = _round(workload, out / "sweep")
    rnd.verify()
    text = (out / "sweep" / "0" / "jobs1.csv").read_text(encoding="utf-8")
    return workload, checks.parse_sweep_csv(text.splitlines(keepends=True))


def _bumped(values, k, delta):
    copy = list(values)
    copy[k] += delta
    return copy


def test_csv_fields_must_round_trip(regulate):
    cols = checks.parse_float_csv(regulate, checks.TRAJECTORY_COLUMNS)
    lines = list(regulate)
    fields = lines[3000].split(",")
    fields[2] = repr(float(fields[2])) + "0"
    lines[3000] = ",".join(fields)
    with pytest.raises(checks.CheckFailed, match="round-trip"):
        checks.parse_float_csv(lines, checks.TRAJECTORY_COLUMNS)
    lines[3000] = regulate[3000][:-1]
    with pytest.raises(checks.CheckFailed):
        checks.parse_float_csv(lines, checks.TRAJECTORY_COLUMNS)
    assert len(cols["t"]) == 6001


def test_grid(regulate):
    t = checks.parse_float_csv(regulate, checks.TRAJECTORY_COLUMNS)["t"]
    checks.uniform_grid(t, 0.01, 6001)
    with pytest.raises(checks.CheckFailed):
        checks.uniform_grid(_bumped(t, 17, 1e-6), 0.01, 6001)


def test_rolling_constraint(regulate):
    cols = checks.parse_float_csv(regulate, checks.TRAJECTORY_COLUMNS)
    assert checks.rolling_constraint(cols["o"], cols["theta"], workloads.R) < 1e-12
    with pytest.raises(checks.CheckFailed):
        checks.rolling_constraint(_bumped(cols["o"], 4000, 1e-9), cols["theta"], workloads.R)
    with pytest.raises(checks.CheckFailed):
        checks.rolling_constraint(cols["o"], _bumped(cols["theta"], 5, 1e-8), workloads.R)


def test_balance_angle(regulate):
    final = checks.parse_float_csv(regulate, checks.TRAJECTORY_COLUMNS)["theta_a"][-1]
    target = checks.balance_angle(workloads.M_H, workloads.M_A, workloads.R, workloads.L,
                                  workloads.BETA)
    # The closed form agrees with the program's own equilibrium solver.
    assert target == pytest.approx(pkg.plant.actuator_equilibrium(
        pkg.plant.PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14,
                              beta=math.radians(20.0))).theta_a, abs=1e-9)
    checks.reaches(final, target, 1e-6, "final theta_a")
    with pytest.raises(checks.CheckFailed):
        checks.reaches(final + 2e-6, target, 1e-6, "final theta_a")


def test_convergence_order():
    finals = []
    for dt in (0.01, 0.005, 0.0025):
        cfg = pkg.sim.SimConfig(
            plant=workloads._plant(pkg),
            nominal=pkg.regularizer.nominal_from_true(workloads._plant(pkg), 1.5),
            gains=pkg.controller.Gains(*workloads.GAINS), dt=dt, t_end=1.0,
            stride=int(round(1.0 / dt)),
        )
        finals.append(workloads._final_state(pkg.sim.integrate(cfg)))
    assert 3.6 <= checks.convergence_order(finals) <= 4.4
    gap = max(abs(a - b) for a, b in zip(finals[1], finals[2]))
    with pytest.raises(checks.CheckFailed):
        checks.convergence_order([finals[0], finals[1], _bumped(finals[2], 4, 10 * gap)])


def test_identical():
    checks.identical(b"1.0,2.0\n", b"1.0,2.0\n", "files")
    with pytest.raises(checks.CheckFailed, match="byte 6"):
        checks.identical(b"1.0,2.0\n", b"1.0,2.1\n", "files")


def test_kinematics(dense):
    cols, _ = dense
    dt, r = 0.001, workloads.R
    assert checks.central_difference(cols["o"], cols["omega"], -r, dt, "o") < 1.0
    with pytest.raises(checks.CheckFailed):
        checks.central_difference(_bumped(cols["o"], 30000, 1e-8), cols["omega"], -r, dt, "o")
    with pytest.raises(checks.CheckFailed):
        checks.central_difference(cols["o"], _bumped(cols["omega"], 30000, 1e-5), -r, dt, "o")
    with pytest.raises(checks.CheckFailed):
        checks.central_difference(_bumped(cols["theta_a"], 30000, 1e-7), cols["omega_a"], 1.0,
                                  dt, "theta_a")
    with pytest.raises(checks.CheckFailed):
        checks.central_difference(cols["theta_a"], _bumped(cols["omega_a"], 30000, 1e-5), 1.0,
                                  dt, "theta_a")


def test_sinusoid_reference(dense):
    _, fig = dense
    args = (0.0, workloads.SIN_AMPLITUDE, workloads.SIN_RATE)
    checks.sinusoid_reference(fig["t"], fig["o_ref"], *args)
    with pytest.raises(checks.CheckFailed):
        checks.sinusoid_reference(fig["t"], _bumped(fig["o_ref"], 777, 1e-9), *args)


def test_ensemble_checks(out):
    rnd = _round(workloads.Ensemble(3), out / "ensemble")
    rnd.verify()
    workload = workloads.Ensemble(3)
    cfgs, again = workload.configs(pkg, 0)
    traj = pkg.sim.integrate(cfgs[again])
    state = workloads._final_state(traj)
    checks.same_state(state, workloads._final_state(pkg.sim.integrate(cfgs[again])), 1e-12, "")
    with pytest.raises(checks.CheckFailed):
        checks.same_state(state, _bumped(state, 1, 1e-11), 1e-12, "rerun")
    with pytest.raises(checks.CheckFailed):
        checks.rolling_constraint(_bumped(traj.o, 50, 1e-9), traj.theta, cfgs[again].plant.r)


def test_sweep_certified(sweep):
    workload, rows = sweep
    checks.all_certified(rows, workload.COUNT)
    with pytest.raises(checks.CheckFailed):
        checks.all_certified(rows[:-1], workload.COUNT)
    for column in (3, 4, 5):
        row = list(rows[10])
        row[column] = -row[column]
        with pytest.raises(checks.CheckFailed):
            checks.all_certified(rows[:10] + [tuple(row)] + rows[11:], workload.COUNT)
    row = rows[10][:-1] + (False,)
    with pytest.raises(checks.CheckFailed):
        checks.all_certified(rows[:10] + [row] + rows[11:], workload.COUNT)


def test_sweep_eigenvalues(sweep):
    workload, rows = sweep
    matrices = workload.matrices(pkg)
    assert checks.eigenvalues_match(rows, matrices) < 1e-12
    for column in (5, 6):
        row = list(rows[42])
        row[column] *= 1.0 + 1e-6
        with pytest.raises(checks.CheckFailed, match="sweep row 42"):
            checks.eigenvalues_match(rows[:42] + [tuple(row)] + rows[43:], matrices)


def test_margin_table():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert pkg.cli.main(["check-gains", *workloads.PLANT_FLAGS, "--kd", "3.5",
                             "--ki", "2.25", "--sweep", "kp", "7.0:26.5:0.5"]) == 0
    table = buf.getvalue()
    assert checks.margin_steps(table, 7.0, 0.5, 40) < 1e-3
    lines = table.split("\n")
    fields = lines[20].split("\t")
    fields[2] = f"{float(fields[2]) + 0.25:.6g}"
    corrupted = "\n".join(lines[:20] + ["\t".join(fields)] + lines[21:])
    with pytest.raises(checks.CheckFailed, match="row 19|row 20"):
        checks.margin_steps(corrupted, 7.0, 0.5, 40)
    with pytest.raises(checks.CheckFailed):
        checks.margin_steps(table, 7.0, 0.5, 41)
