"""Acceptance gate: twelve behavioral criteria, one verdict line each.

Every criterion test prints a single "criterion NN PASS/FAIL" line with the
measured quantity next to its threshold, then asserts.  Long closed-loop runs
are shared through module-scoped fixtures so the whole gate stays fast.  One
further test feeds the criterion-09 decay fit synthetic signals, to show the
fit can still reject decay that is not exponential.
"""
import math
import time

import numpy as np
import pytest

from hooprobot.certificate import (
    admissible_gain_sample,
    check_gains,
    derived_constants,
    kappa_mid,
)
from hooprobot.controller import Gains
from hooprobot.geometry import christoffel, metricity_residual
from hooprobot.plant import (
    HoopState,
    PlantParams,
    actuator_equilibrium,
    derivative,
    gravity_torques,
    inertia_field,
)
from hooprobot.regularizer import (
    NominalParams,
    nominal_from_true,
    regularize,
    shaping_torque,
)
from hooprobot.sim import SimConfig, integrate

from euler_lagrange import exact_accelerations

TRUE = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14,
                   beta=math.radians(20.0))
FLAT = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14,
                   beta=0.0)
DISTURBED = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14,
                        beta=math.radians(20.0), delta_s=0.1, delta_a=0.05)
GAINS = Gains(k_p=16.0, k_d=7.0, k_i=4.0, k_c=0.1)

POSITION_BAND = 0.01      # |o_e| bound for t >= 25 s
VELOCITY_BAND = 0.05      # |omega_e| bound for t >= 25 s
ACTUATOR_SETTLE = 0.05    # |omega_a - omega_a(end)| bound for t >= 25 s
ACTUATOR_LIMIT = 20.0     # hard bound on |omega_a| over the whole run
DECAY_FIT_R2 = 0.95       # log-linear fit quality demanded of the error envelope


def emit(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} {'PASS' if passed else 'FAIL'}  {detail}")


def closed_loop(plant, scenario="fixed_point", t_end=60.0, mismatch=1.5):
    cfg = SimConfig(plant=plant, nominal=nominal_from_true(plant, mismatch),
                    gains=GAINS, scenario=scenario, t_end=t_end)
    start = time.perf_counter()
    traj = integrate(cfg)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def run_fixed():
    return closed_loop(TRUE)


@pytest.fixture(scope="module")
def run_ramp():
    return closed_loop(TRUE, scenario="ramp")


@pytest.fixture(scope="module")
def run_sinusoid():
    return closed_loop(TRUE, scenario="sinusoid")


@pytest.fixture(scope="module")
def run_disturbed():
    return closed_loop(DISTURBED)


@pytest.fixture(scope="module")
def run_long():
    # long enough that |o_e| decays through the whole fit band
    return closed_loop(TRUE, t_end=70.0)


def decay_fit(t, err, envelope=True):
    """Least-squares line through log|err| over samples with 1e-6 < |err| < 0.5.

    Locally exponential convergence promises a bound |err| <= C e^{-lambda t},
    not a pure exponential.  With an underdamped dominant mode |err| itself
    crosses zero and each crossing notches log|err|, so by default the fit is
    made to the tightest non-increasing bound env(t) = max_{s >= t} |err(s)|
    (a reverse cumulative max).  ``envelope=False`` fits |err| itself.
    Returns (slope, R^2, number of samples).
    """
    t = np.asarray(t, dtype=float)
    mag = np.abs(np.asarray(err, dtype=float))
    if envelope:
        mag = np.maximum.accumulate(mag[::-1])[::-1]
    keep = (mag > 1e-6) & (mag < 0.5)
    tt = t[keep]
    yy = np.log(mag[keep])
    design = np.vstack([tt, np.ones_like(tt)]).T
    coef, *_ = np.linalg.lstsq(design, yy, rcond=None)
    fit = design @ coef
    r2 = 1.0 - float(np.sum((yy - fit) ** 2)) / float(np.sum((yy - yy.mean()) ** 2))
    return float(coef[0]), r2, int(keep.sum())


def tracking_metrics(traj, settle_from=25.0):
    tail = [i for i, t in enumerate(traj.t) if t >= settle_from]
    return {
        "max_o_e": max(abs(traj.o_e[i]) for i in tail),
        "max_omega_e": max(abs(traj.omega_e[i]) for i in tail),
        "actuator_dev": max(abs(traj.omega_a[i] - traj.omega_a[-1]) for i in tail),
        "max_omega_a": max(abs(v) for v in traj.omega_a),
    }


def test_criterion_01_dynamics_match_euler_lagrange(capsys):
    # the oracle is Lagrange's equations of the energy, derived with sympy
    # and lambdified once per process: on first use, inside the wall time
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        s = HoopState(
            theta=float(rng.uniform(-math.pi, math.pi)),
            o=float(rng.uniform(-3.0, 3.0)),
            omega=float(rng.uniform(-5.0, 5.0)),
            theta_a=float(rng.uniform(-math.pi, math.pi)),
            omega_a=float(rng.uniform(-5.0, 5.0)),
        )
        tau = float(rng.uniform(-2.0, 2.0))
        rates = derivative(DISTURBED, s, tau)
        od, oad = exact_accelerations(DISTURBED, s, tau)
        worst = max(worst, abs(rates[2] - od), abs(rates[4] - oad))
    wall = time.perf_counter() - start
    ok = worst < 1e-6 and wall < 10.0
    emit(capsys, 1, ok,
         f"Euler-Lagrange max |accel diff| = {worst:.3e} (tol 1e-06), {wall:.2f} s wall")
    assert worst < 1e-6
    assert wall < 10.0


def test_criterion_02_energy_conserved_without_input(capsys):
    weightless = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035,
                             l=0.14, beta=math.radians(20.0), g=0.0)
    cfg = SimConfig(plant=weightless, nominal=nominal_from_true(weightless, 1.5),
                    gains=GAINS, initial=HoopState(0.0, 0.0, 2.0, 0.7, 3.0),
                    dt=1e-3, t_end=10.0, open_loop=True)
    traj = integrate(cfg)
    drift = max(abs(e - traj.energy[0]) for e in traj.energy) / abs(traj.energy[0])
    ok = drift < 1e-6
    emit(capsys, 2, ok, f"relative energy drift = {drift:.3e} (tol 1e-06)")
    assert drift < 1e-6


def test_criterion_03_regularized_error_dynamics(capsys):
    # with exact believed parameters on flat ground the transformed spin
    # equation must collapse to I * covariant_rate(omega_e) = pid torque
    believed = NominalParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035,
                             l=0.14)
    field = inertia_field(FLAT)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        theta_a = float(rng.uniform(-math.pi, math.pi))
        omega_a = float(rng.uniform(-5.0, 5.0))
        omega = float(rng.uniform(-5.0, 5.0))
        omega_ref = float(rng.uniform(-2.0, 2.0))
        tilde = float(rng.uniform(-3.0, 3.0))
        omega_e = omega - omega_ref
        s = HoopState(theta=0.3, o=-1.0, omega=omega, theta_a=theta_a,
                      omega_a=omega_a)
        tau_u = regularize(believed, theta_a, omega_a, omega_e, tilde)
        rates = derivative(FLAT, s, tau_u)
        inertia = field.evaluate(theta_a)
        gamma = christoffel(field, theta_a)
        worst = max(worst, abs(inertia * rates[2]
                               + inertia * gamma * omega_a * omega_e - tilde))
    ok = worst < 1e-10
    emit(capsys, 3, ok, f"covariant identity residual = {worst:.3e} (tol 1e-10)")
    assert worst < 1e-10


def test_criterion_04_maximum_holdable_incline(capsys):
    beta_max_deg = math.degrees(actuator_equilibrium(TRUE).beta_max)
    ok = abs(beta_max_deg - 36.0) < 1.0
    emit(capsys, 4, ok, f"beta_max = {beta_max_deg:.4f} deg (want 36 +- 1)")
    assert abs(beta_max_deg - 36.0) < 1.0


def test_criterion_05_fixed_point_regulation(capsys, run_fixed):
    # Fails on the as-built loop: controller.error feeds eta_e = -o_e in metres
    # but omega_e in rad/s, so d(eta_e)/dt = r * omega_e and the gains (16, 7, 4)
    # act as (r k_p, k_d, r k_i) = (2.88, 7, 0.72) in the hoop angle.  The
    # dominant closed-loop pair sits near -0.21 +- 0.26j, whose envelope is
    # about 0.01 m at t = 25 s, right on the band.  Which unit the gains are
    # meant in is not settled by the paper's abstract; see CHANGES.md.
    traj, wall = run_fixed
    m = tracking_metrics(traj)
    ok = (m["max_o_e"] < POSITION_BAND and m["max_omega_e"] < VELOCITY_BAND
          and m["actuator_dev"] < ACTUATOR_SETTLE
          and m["max_omega_a"] < ACTUATOR_LIMIT and wall < 10.0)
    emit(capsys, 5, ok,
         f"max|o_e| t>=25 = {m['max_o_e']:.4e} (tol {POSITION_BAND}), "
         f"max|omega_e| = {m['max_omega_e']:.4e}, "
         f"actuator dev = {m['actuator_dev']:.2e}, "
         f"max|omega_a| = {m['max_omega_a']:.2f}, wall {wall:.2f} s")
    assert m["max_omega_e"] < VELOCITY_BAND
    assert m["actuator_dev"] < ACTUATOR_SETTLE
    assert m["max_omega_a"] < ACTUATOR_LIMIT
    assert wall < 10.0
    assert m["max_o_e"] < POSITION_BAND, (
        f"position error tail {m['max_o_e']:.6e} exceeds {POSITION_BAND}"
    )


def test_criterion_06_ramp_tracking(capsys, run_ramp):
    # Fails for the unit reason noted at criterion 05.
    traj, _ = run_ramp
    m = tracking_metrics(traj)
    ok = (m["max_o_e"] < POSITION_BAND and m["max_omega_e"] < VELOCITY_BAND
          and m["actuator_dev"] < ACTUATOR_SETTLE
          and m["max_omega_a"] < ACTUATOR_LIMIT)
    emit(capsys, 6, ok,
         f"max|o_e| t>=25 = {m['max_o_e']:.4e} (tol {POSITION_BAND}), "
         f"actuator dev = {m['actuator_dev']:.2e}, "
         f"max|omega_a| = {m['max_omega_a']:.2f}")
    assert m["max_omega_e"] < VELOCITY_BAND
    assert m["actuator_dev"] < ACTUATOR_SETTLE
    assert m["max_omega_a"] < ACTUATOR_LIMIT
    assert m["max_o_e"] < POSITION_BAND, (
        f"position error tail {m['max_o_e']:.6e} exceeds {POSITION_BAND}"
    )


def test_criterion_07_sinusoid_tracking(capsys, run_sinusoid):
    # Fails on the as-built loop: with feedforward off the reference
    # acceleration 0.15 cos(0.5 t) m/s^2 enters as a time-varying disturbance,
    # and the mismatched shaping torque leaves a theta_a-dependent incline
    # residual; integral action rejects only constant disturbances.  Whether
    # the paper's tracking law carries the feedforward term is not settled by
    # its abstract; see CHANGES.md.
    traj, _ = run_sinusoid
    tail = [i for i, t in enumerate(traj.t) if t >= traj.t[-1] - 20.0]
    sup_o_e = max(abs(traj.o_e[i]) for i in tail)
    max_omega_a = max(abs(v) for v in traj.omega_a)
    tail_omega_a = [traj.omega_a[i] for i in tail]
    swing = max(tail_omega_a) - min(tail_omega_a)
    ok = sup_o_e < 0.05 and max_omega_a < ACTUATOR_LIMIT and swing > 0.01
    emit(capsys, 7, ok,
         f"sup|o_e| last 20 s = {sup_o_e:.4e} (tol 0.05), "
         f"max|omega_a| = {max_omega_a:.2f}, "
         f"actuator swing = {swing:.4f} (> 0.01 means not constant)")
    assert max_omega_a < ACTUATOR_LIMIT
    assert swing > 0.01, "actuator velocity should keep oscillating"
    assert sup_o_e < 0.05, f"steady sinusoid error {sup_o_e:.6e} exceeds 0.05"


def test_criterion_08_constant_disturbance_rejection(capsys, run_disturbed):
    # Fails for the unit reason noted at criterion 05.
    traj, _ = run_disturbed
    m = tracking_metrics(traj)
    nominal = nominal_from_true(DISTURBED, 1.5)
    theta_end = traj.theta_a[-1]
    integrator_torque = -nominal.inertia(theta_end) * GAINS.k_i * traj.o_I[-1]
    lumped = (gravity_torques(DISTURBED, theta_end)[0] + DISTURBED.delta_s
              + shaping_torque(nominal, theta_end))
    rel = abs(integrator_torque + lumped) / abs(lumped)
    ok = (m["max_o_e"] < POSITION_BAND and m["max_omega_e"] < VELOCITY_BAND
          and m["actuator_dev"] < ACTUATOR_SETTLE
          and m["max_omega_a"] < ACTUATOR_LIMIT and rel < 0.02)
    emit(capsys, 8, ok,
         f"max|o_e| t>=25 = {m['max_o_e']:.4e} (tol {POSITION_BAND}), "
         f"integrator torque {integrator_torque:.6f} cancels residual "
         f"{lumped:.6f} to {rel:.2e} (tol 2e-02)")
    assert rel < 0.02
    assert m["max_omega_e"] < VELOCITY_BAND
    assert m["max_omega_a"] < ACTUATOR_LIMIT
    assert m["max_o_e"] < POSITION_BAND, (
        f"position error tail {m['max_o_e']:.6e} exceeds {POSITION_BAND}"
    )


def test_criterion_09_exponential_decay_fit(capsys, run_long):
    traj, _ = run_long
    slope, r2, samples = decay_fit(traj.t, traj.o_e)
    _, r2_raw, _ = decay_fit(traj.t, traj.o_e, envelope=False)
    ok = slope < 0.0 and r2 > DECAY_FIT_R2
    emit(capsys, 9, ok,
         f"log-envelope fit: slope = {slope:.4f} (< 0), R^2 = {r2:.4f} "
         f"(> {DECAY_FIT_R2}), {samples} samples; raw log|o_e| R^2 = {r2_raw:.4f}")
    assert slope < 0.0
    assert r2 > DECAY_FIT_R2, f"decay fit R^2 {r2:.6f} below {DECAY_FIT_R2}"


@pytest.mark.parametrize("signal, exponential", [
    pytest.param(lambda t: 2.0 * np.exp(-0.21 * t) * np.cos(0.255 * t), True,
                 id="underdamped-exponential"),
    pytest.param(lambda t: 2.0 / (1.0 + t) ** 3, False, id="algebraic"),
    pytest.param(lambda t: 2.0 * np.exp(-0.3 * t) + 1e-4, False, id="stalled"),
    pytest.param(lambda t: 0.3 * np.cos(t), False, id="undamped"),
])
def test_decay_fit_separates_exponential_from_other_decay(signal, exponential):
    # same 0.01 s grid and 70 s horizon as the criterion-09 run
    t = np.arange(7001) * 0.01
    slope, r2, _ = decay_fit(t, signal(t))
    assert (slope < 0.0 and r2 > DECAY_FIT_R2) == exponential, (
        f"slope {slope:.4f}, R^2 {r2:.4f}"
    )


def test_criterion_10_certificate_sweep(capsys):
    believed = NominalParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035,
                             l=0.14)
    constants = derived_constants(believed, 5.0)
    kappa = kappa_mid(constants)

    p_mins = []
    for g in admissible_gain_sample(100, 2026, constants, kappa):
        report = check_gains(g, constants, kappa)
        assert report.passed
        p_mins.append(report.p_eigenvalues[0])

    q_mins = []
    ray_ok = True
    for s in (1, 2, 3, 4):
        g = Gains(k_p=12.0 * s**2, k_d=2.0 * s, k_i=4.0 * s**3)
        report = check_gains(g, constants, kappa)
        ray_ok = ray_ok and report.passed
        q_mins.append(report.q_eigenvalues[0])
    monotone = all(a < b for a, b in zip(q_mins, q_mins[1:]))

    ok = min(p_mins) > 0.0 and ray_ok and monotone
    emit(capsys, 10, ok,
         f"100 admissible triples: min lambda_min(P_s) = {min(p_mins):.4f} (> 0); "
         f"lambda_min(Q_s) along ray = {[f'{v:.2f}' for v in q_mins]} monotone={monotone}")
    assert min(p_mins) > 0.0
    assert ray_ok
    assert monotone


def test_criterion_11_integrator_order(capsys):
    def final_state(dt):
        cfg = SimConfig(plant=FLAT, nominal=nominal_from_true(FLAT, 1.0),
                        gains=GAINS, initial=HoopState(0.0, -0.5, -0.1, 0.0, 0.1),
                        dt=dt, t_end=10.0)
        traj = integrate(cfg)
        return np.array([traj.theta[-1], traj.o[-1], traj.omega[-1],
                         traj.theta_a[-1], traj.omega_a[-1], traj.o_I[-1]])

    baseline = final_state(1.25e-4)
    err_full = float(np.linalg.norm(final_state(1e-3) - baseline))
    err_half = float(np.linalg.norm(final_state(5e-4) - baseline))
    order = math.log2(err_full / err_half)
    ok = 3.5 <= order <= 4.5
    emit(capsys, 11, ok,
         f"observed convergence order = {order:.3f} (want 3.5 .. 4.5)")
    assert 3.5 <= order <= 4.5


def test_criterion_12_metric_compatibility(capsys):
    field = inertia_field(TRUE)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        sample = (
            float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-5, 5)),
            float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
            float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
        )
        worst = max(worst, metricity_residual(field, sample))
    ok = worst < 1e-10
    emit(capsys, 12, ok, f"metric compatibility residual = {worst:.3e} (tol 1e-10)")
    assert worst < 1e-10
