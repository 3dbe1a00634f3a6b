"""Output checks for the benchmark workloads.

Every check derives its expectation from an independent computation or from
a property of the numerical method, never from a stored copy of an earlier
output.  A check raises ``CheckFailed`` with a message naming the first
offending value; it returns a small figure of merit when it passes.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

TRAJECTORY_COLUMNS = (
    "t", "theta", "o", "omega", "theta_a", "omega_a", "o_I", "o_e", "omega_e",
    "tau_u", "energy",
)
SWEEP_COLUMNS = (
    "k_p", "k_d", "k_i", "k_i_margin", "k_p_margin", "lambda_min_P",
    "lambda_min_Q", "certified",
)

# RK4 advances the linear rolling constraint o - o0 + r (theta - theta0) = 0
# exactly, so any drift is accumulated rounding (about 1e-14 over 60k steps).
ROLLING_TOL = 1e-10


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent expectation."""


def parse_float_csv(
    lines: Iterable[str], columns: Sequence[str], keep: Optional[Sequence[str]] = None
) -> dict[str, list[float]]:
    """Columns ``keep`` (default all) of a CSV whose every field is ``repr`` of a float.

    ``lines`` keep their line endings, as iterating over a file gives them.
    Each field must parse as a finite float whose ``repr`` is the field text
    again, so the file round-trips without loss.
    """
    keep = columns if keep is None else keep
    it = iter(lines)
    header = next(it, "").rstrip("\r\n")
    if header != ",".join(columns):
        raise CheckFailed(f"CSV header {header!r} != {','.join(columns)!r}")
    index = [columns.index(name) for name in keep]
    cols: list[list[float]] = [[] for _ in keep]
    for number, line in enumerate(it, start=2):
        if not line.endswith("\n"):
            raise CheckFailed(f"CSV line {number} is cut short")
        fields = line.rstrip("\r\n").split(",")
        if len(fields) != len(columns):
            raise CheckFailed(f"CSV line {number} has {len(fields)} fields")
        values = []
        for text in fields:
            try:
                value = float(text)
            except ValueError:
                raise CheckFailed(f"CSV line {number}: {text!r} is not a number") from None
            if not math.isfinite(value) or repr(value) != text:
                raise CheckFailed(f"CSV line {number}: {text!r} does not round-trip")
            values.append(value)
        for col, i in zip(cols, index):
            col.append(values[i])
    return dict(zip(keep, cols))


def uniform_grid(t: Sequence[float], spacing: float, count: int) -> None:
    """Sample times are 0, spacing, 2 spacing, ... with ``count`` entries."""
    if len(t) != count:
        raise CheckFailed(f"{len(t)} samples, expected {count}")
    for k, value in enumerate(t):
        if abs(value - k * spacing) > 1e-9 * max(1.0, k * spacing):
            raise CheckFailed(f"sample {k} at t={value!r}, expected {k * spacing!r}")


def rolling_constraint(
    o: Sequence[float], theta: Sequence[float], r: float, tol: float = ROLLING_TOL
) -> float:
    """Largest |o - o0 + r (theta - theta0)|; rolling without slip keeps it 0."""
    o0, theta0 = o[0], theta[0]
    worst = 0.0
    for k, (o_k, theta_k) in enumerate(zip(o, theta)):
        drift = abs(o_k - o0 + r * (theta_k - theta0))
        if not drift <= tol:
            raise CheckFailed(f"rolling constraint off by {drift:.3e} at sample {k}")
        worst = max(worst, drift)
    return worst


def balance_angle(m_h: float, m_a: float, r: float, l: float, beta: float) -> float:
    """Actuator angle at which the robot rests on the incline.

    At rest the internal torque acts as (+tau, -tau) on the hoop and
    actuator angles, so the gravity torques about the contact point must
    cancel on the sum of the two coordinates.  With the hoop centre at
    o sin(beta) + r cos(beta) and the actuator mass l cos(theta_a + beta)
    below it, and do/dtheta = -r, that reads

        (m_h + m_a) g r sin(beta) = m_a g l sin(theta_a + beta),

    solved here on the hanging branch, cos(theta_a + beta) > 0.
    """
    ratio = (m_h + m_a) * r * math.sin(beta) / (m_a * l)
    if abs(ratio) > 1.0:
        raise CheckFailed(f"incline {beta!r} cannot be held: sin ratio {ratio!r}")
    return math.asin(ratio) - beta


def reaches(value: float, target: float, tol: float, what: str) -> float:
    gap = abs(value - target)
    if not gap <= tol:
        raise CheckFailed(f"{what} = {value!r}, expected {target!r} within {tol:g}")
    return gap


def convergence_order(finals: Sequence[Sequence[float]]) -> float:
    """Observed order from final states at dt, dt/2 and dt/4.

    For a p-th order method the gap between the dt and dt/2 results is 2^p
    times the gap between the dt/2 and dt/4 results; RK4 must show p near 4.
    """
    coarse, mid, fine = finals
    gap_1 = max(abs(a - b) for a, b in zip(coarse, mid))
    gap_2 = max(abs(a - b) for a, b in zip(mid, fine))
    if not (gap_2 > 0.0 and gap_1 > 0.0):
        raise CheckFailed(f"step halving changed nothing: gaps {gap_1!r}, {gap_2!r}")
    order = math.log2(gap_1 / gap_2)
    if not 3.6 <= order <= 4.4:
        raise CheckFailed(f"observed order {order:.3f} (gaps {gap_1:.3e}, {gap_2:.3e}), expected 4")
    return order


def identical(a: bytes, b: bytes, what: str) -> None:
    if a != b:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        raise CheckFailed(f"{what} differ from byte {at}")


def _second_differences(y: Sequence[float], dt: float) -> list[float]:
    return [
        (y[k + 1] - 2.0 * y[k] + y[k - 1]) / (dt * dt) for k in range(1, len(y) - 1)
    ]


def central_difference(
    y: Sequence[float], rate: Sequence[float], scale: float, dt: float, what: str
) -> float:
    """Central differences of ``y`` match ``scale * rate`` to O(dt^2).

    The truncation error of (y[k+1] - y[k-1]) / (2 dt) is dt^2/6 |y'''| at a
    point within one step of t_k, and y''' = scale * rate''.  rate'' is taken
    from second differences of ``rate`` two samples either side, a and b,
    which involve neither y nor rate[k], so a corrupted value cannot widen
    its own bound; 2 (max(|a|, |b|) + |b - a|) covers the change of rate''
    across that window.  Returns the largest error as a share of its bound.
    """
    accel = _second_differences(rate, dt)  # accel[j] is rate'' at sample j + 1
    worst = 0.0
    for k in range(3, len(y) - 3):
        a, b = accel[k - 3], accel[k + 1]
        local = 2.0 * (max(abs(a), abs(b)) + abs(b - a))
        bound = dt * dt / 6.0 * abs(scale) * local + 1e-9
        err = abs((y[k + 1] - y[k - 1]) / (2.0 * dt) - scale * rate[k])
        if not err <= bound:
            raise CheckFailed(
                f"{what}: central difference off by {err:.3e} at sample {k}, bound {bound:.3e}"
            )
        worst = max(worst, err / bound)
    return worst


def sinusoid_reference(
    t: Sequence[float], o_ref: Sequence[float], o0: float, amplitude: float, rate: float
) -> float:
    """o_ref(t) = o0 + A (1 - cos(nu t)) / nu, the integral of A sin(nu t)."""
    worst = 0.0
    for k, (t_k, value) in enumerate(zip(t, o_ref)):
        expected = o0 + amplitude * (1.0 - math.cos(rate * t_k)) / rate
        gap = abs(value - expected)
        if not gap <= 1e-12:
            raise CheckFailed(f"o_ref at t={t_k!r} is {value!r}, expected {expected!r}")
        worst = max(worst, gap)
    return worst


def same_state(a: Sequence[float], b: Sequence[float], tol: float, what: str) -> float:
    gap = max(abs(x - y) for x, y in zip(a, b))
    if len(a) != len(b) or not gap <= tol:
        raise CheckFailed(f"{what}: states differ by {gap!r}")
    return gap


def parse_sweep_csv(lines: Iterable[str]) -> list[tuple]:
    """Rows of ``hooprobot sweep`` output: seven floats and a certified flag."""
    it = iter(lines)
    if next(it, "").rstrip("\r\n") != ",".join(SWEEP_COLUMNS):
        raise CheckFailed("sweep CSV header wrong")
    rows = []
    for number, line in enumerate(it, start=2):
        fields = line.rstrip("\r\n").split(",")
        if not line.endswith("\n") or len(fields) != len(SWEEP_COLUMNS) \
                or fields[-1] not in ("True", "False"):
            raise CheckFailed(f"sweep CSV line {number} malformed: {line!r}")
        try:
            values = tuple(float(f) for f in fields[:-1])
        except ValueError:
            raise CheckFailed(f"sweep CSV line {number} has a non-number") from None
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"sweep CSV line {number} has a non-finite value")
        rows.append(values + (fields[-1] == "True",))
    return rows


def all_certified(rows: Sequence[tuple], count: int) -> None:
    """The sampler builds every triple to pass, so every row is certified."""
    if len(rows) != count:
        raise CheckFailed(f"{len(rows)} sweep rows, expected {count}")
    for k, row in enumerate(rows):
        _, _, _, k_i_margin, k_p_margin, lam_p, lam_q, certified = row
        if not (certified and k_i_margin > 0.0 and k_p_margin > 0.0 and lam_p > 0.0):
            raise CheckFailed(f"sweep row {k} not certified: {row!r}")


def eigenvalues_match(
    rows: Sequence[tuple], matrices: Callable[[float, float, float], tuple]
) -> float:
    """lambda_min of P_s and Q_s agree with a general (non-symmetric) solver.

    ``matrices(k_p, k_d, k_i)`` returns the pair (P_s, Q_s); the reported
    minima came from a symmetric solver, so agreement to rounding shows the
    matrices are symmetric and the reported values are their minima.
    """
    stack = np.array([matrices(*row[:3]) for row in rows])  # (n, 2, 3, 3)
    eigs = np.linalg.eigvals(stack)
    scale = 1.0 + np.abs(eigs).max(axis=-1)
    if np.any(np.abs(eigs.imag) > 1e-11 * scale[..., None]):
        raise CheckFailed("complex eigenvalue in a symmetric bound matrix")
    lowest = eigs.real.min(axis=-1)
    reported = np.array([row[5:7] for row in rows])
    gap = np.abs(lowest - reported) / scale
    worst = int(np.argmax(gap.max(axis=-1)))
    if not gap.max() <= 1e-11:
        raise CheckFailed(
            f"sweep row {worst}: lambda_min (P, Q) = {reported[worst].tolist()}, "
            f"general solver gives {lowest[worst].tolist()}"
        )
    return float(gap.max())


def _print_tol(value: float) -> float:
    """Half a unit in the last place of a value printed with %.6g."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 5)


def margin_steps(table: str, start: float, step: float, count: int) -> float:
    """In a ``check-gains --sweep kp`` table, k_p_margin rises by exactly the step.

    k_p_margin = k_p - floor, and the floor depends on k_d and k_i only, so
    consecutive rows differ by the k_p step up to the %.6g print rounding.
    """
    lines = table.strip("\n").split("\n")
    if lines[0] != "kp\tk_i_margin\tk_p_margin\tlambda_min_P\tpassed":
        raise CheckFailed(f"check-gains table header {lines[0]!r}")
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != count or any(len(row) != 5 for row in rows):
        raise CheckFailed(f"check-gains table has {len(rows)} rows, expected {count}")
    try:
        kp = [float(row[0]) for row in rows]
        margin = [float(row[2]) for row in rows]
    except ValueError:
        raise CheckFailed("check-gains table has a non-number") from None
    worst = 0.0
    for k in range(count):
        expected = start + k * step
        if abs(kp[k] - expected) > _print_tol(expected) + 1e-9:
            raise CheckFailed(f"table row {k}: kp {kp[k]!r}, expected {expected!r}")
    for k in range(count - 1):
        rise = margin[k + 1] - margin[k]
        tol = _print_tol(margin[k]) + _print_tol(margin[k + 1]) + 1e-9
        if not abs(rise - step) <= tol:
            raise CheckFailed(f"table row {k + 1}: k_p_margin rose by {rise!r}, step {step!r}")
        worst = max(worst, abs(rise - step))
    return worst
