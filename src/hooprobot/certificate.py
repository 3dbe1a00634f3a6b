"""Numeric stability certificate: gain conditions and Lyapunov matrices.

The convergence guarantee for the geometric PID loop rests on two gain
inequalities (an upper bound on the integral gain, a lower bound on the
proportional gain) plus a pair of 3x3 matrices: P_s bounding the Lyapunov
function from below and Q_s bounding its decay rate.  This module evaluates
all of them numerically for a concrete parameter set so a gain choice can be
audited before running anything.  One assembly audits a chunk of triples
as numpy columns, with two batch entries: ``certify_chunk`` audits given
triples (``check_gains`` wraps its audit of one triple into a
``CertificateReport``, ``check-gains --sweep`` tabulates its chunks), and
``certify_sample`` samples and audits ``sweep``'s triples in one pass.  All
take the believed plant as one ``DerivedConstants``.  The threshold, bound
and matrix-entry formulas are written once, in float arithmetic, and run on
floats (``gain_thresholds`` and ``lyapunov_matrices`` are the per-triple
references) and on columns (``_column``), bit for bit alike.

Caveat recorded here because it is easy to trip over: the positive
definiteness of P_s under the stated gain conditions is an asymptotic claim.
Near the corner where k_i approaches its upper bound with kappa near the top
of its admissible range, P_s can lose definiteness even though both gain
inequalities hold with margin.  The report carries the eigenvalues so such
cases are visible rather than silently certified.

numpy is imported inside the functions that call it: the CLI imports this
module for every command, and only ``check-gains`` and ``sweep`` need
numpy, so ``simulate`` starts without paying for its import.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple, Optional

from .controller import Gains
from .regularizer import NominalParams

if TYPE_CHECKING:
    import numpy as np


class DerivedConstants(NamedTuple):
    """Interconnection bound mu, admissible kappa interval, and the believed
    inertia bounds i_min <= I(theta_a) <= i_max; the inertia spread delta
    follows from the bounds."""

    mu: float
    kappa_range: tuple[float, float]
    i_min: float
    i_max: float

    @property
    def delta(self) -> float:
        return 1.0 - self.i_min / self.i_max


def derived_constants(n: NominalParams, k_x: float) -> DerivedConstants:
    """Constants of the gain conditions from believed params and a velocity bound.

    ``k_x`` bounds the actuator velocity magnitude over the certified
    operating region; it scales how strongly the actuator channel can pump
    the error channel, hence the size of mu.  k_x = 0 decouples them
    (mu = 1).
    """
    if not (math.isfinite(k_x) and k_x >= 0.0):
        raise ValueError(f"operating-region velocity bound must be >= 0, got {k_x!r}")
    i_max = n.rolling_inertia
    i_min = n.rolling_inertia - n.inertia_dip
    discriminant = i_max * (i_max * n.pendulum_inertia - n.coupling_amp**2)
    if discriminant <= 0.0:
        raise ValueError(
            "inertia condition violated: "
            f"I_max * (I_max * A - (m_a r l)^2) = {discriminant!r} must be positive"
        )
    mu = 1.0 + n.coupling_amp**2 * k_x / (2.0 * math.sqrt(discriminant))
    return DerivedConstants(mu=mu, kappa_range=(1.0 / mu, 2.0 / mu), i_min=i_min, i_max=i_max)


def kappa_mid(constants: DerivedConstants) -> float:
    """Midpoint of the admissible kappa interval, the default working choice."""
    lo, hi = constants.kappa_range
    return 0.5 * (lo + hi)


def gain_thresholds(
    k_d: float, k_i: float, kappa: float, r_const: float
) -> tuple[float, float, float]:
    """The two proportional-gain thresholds and their max with 2*kappa*k_d^2,
    of floats or of columns (``_column``) k_d and k_i."""
    k_1 = (k_i / (2.0 * k_d)) * (
        _sqrt(1.0 + 16.0 * r_const * kappa**2 * k_d**2 / k_i) - 1.0
    )
    k_2 = (r_const * k_i**2 / (2.0 * k_d**4)) * (
        1.0
        + _sqrt(
            1.0
            + 4.0
            * k_d**3
            * (k_i**2 + 4.0 * kappa * k_d**3 * (1.0 + kappa * k_d**3))
            / (r_const * k_i**3)
        )
    )
    return k_1, k_2, _max(k_1, k_2, 2.0 * kappa * k_d**2)


def admissible_gain_sample(count: int, seed: int, constants: DerivedConstants, kappa: float,
                           r_const: float = 1.0) -> list[Gains]:
    """Seeded gain triples constructed to satisfy both gain conditions.

    k_d is drawn uniformly from [1, 10), k_i as a fraction in [0.05, 0.9) of
    its upper bound, and k_p as a multiple in [1.05, 3) of its lower
    threshold, so every returned triple passes check_gains by construction.
    The fraction range stays below 1 on purpose: right at the k_i bound
    (with kappa near the top of its range) the P_s matrix can lose
    definiteness even though the inequalities hold, see the module docstring.
    """
    import numpy as np

    # One draw of the whole (count, 3) block consumes the generator in the
    # same order as per-triple scalar uniform(k_d), uniform(fraction),
    # uniform(margin) calls.
    audit = certify_sample(np.random.default_rng(seed).random((count, 3)), constants, kappa,
                           r_const)
    return [Gains(k_p=p, k_d=d, k_i=i) for p, d, i in zip(
        *(audit[name].tolist() for name in ("k_p", "k_d", "k_i")))]


@dataclass(frozen=True)
class CertificateReport:
    """Audit of one gain set: every constant, threshold, margin, flag and
    the eigenvalues of P_s and Q_s.

    Serialization is stable-order key = value text, one field per line.
    """

    k_p: float
    k_d: float
    k_i: float
    delta: float
    mu: float
    kappa: float
    r_const: float
    k_i_upper: float
    k_1: float
    k_2: float
    k_p_floor: float
    k_i_margin: float
    k_p_margin: float
    kappa_ok: bool
    k_i_ok: bool
    k_p_ok: bool
    passed: bool
    p_eigenvalues: tuple[float, float, float]
    q_eigenvalues: tuple[float, float, float]
    p_positive_definite: bool
    q_positive_definite: bool

    def serialize(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = " ".join(repr(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines)


def check_r_const(r_const: float) -> None:
    """Raise ValueError unless the thresholds' constant r is finite and positive."""
    if not (math.isfinite(r_const) and r_const > 0.0):
        raise ValueError(f"r_const must be positive, got {r_const!r}")


def _k_i_upper(k_d: float, delta: float, mu: float) -> float:
    """Upper bound of the integral gain at derivative gain k_d."""
    return k_d**3 * (1.0 - delta**2) / mu


def check_gains(g: Gains, constants: DerivedConstants, kappa: float,
                r_const: float = 1.0) -> CertificateReport:
    """Evaluate the two gain inequalities and the Lyapunov matrices, and
    report margins, flags and eigenvalues.

    The symbol r in the k_1/k_2 thresholds is an abstract constant of the
    general theory, not the hoop radius; it is exposed as ``r_const``
    (default 1).
    """
    audit = certify_chunk(g.k_p, g.k_d, g.k_i, constants, kappa, r_const)
    report = {name: column[0].tolist() for name, column in audit.items()}
    return CertificateReport(**{name: tuple(v) if isinstance(v, list) else v  # the eigenvalues
                                for name, v in report.items()})


def proof_matrices(g: Gains, alpha: Optional[float], kappa: float, theta_bound: float,
                   mu_min: float, mu_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the symmetric bound matrices P_s and Q_s.

    The free parameters are the choices that make the argument work:
    beta = k_i/k_d, sigma = 2 kappa k_i, gamma = k_i (alpha k_d + k_p)/k_d,
    and, when ``alpha`` is None, alpha = k_i/k_d^2.  That alpha is a
    deliberate deviation-prone choice: it is the unique value annihilating
    the (2,3) entry of Q_s, which maximizes diagonal dominance, but nothing
    in the theory forces it.
    """
    import numpy as np

    if not (math.isfinite(mu_min) and math.isfinite(mu_max) and 0.0 < mu_min <= mu_max):
        raise ValueError(f"need 0 < mu_min <= mu_max, got {mu_min!r}, {mu_max!r}")
    if not (math.isfinite(theta_bound) and theta_bound > 0.0):
        raise ValueError(f"theta_bound must be positive, got {theta_bound!r}")
    p, q = _bound_entries(g.k_p, g.k_d, g.k_i, alpha, kappa, theta_bound,
                          1.0 - mu_min / mu_max, mu_max)
    p_s, q_s = np.array(p).reshape(3, 3), np.array(q).reshape(3, 3)
    _check_finite(p_s, q_s)
    return p_s, q_s


def _check_finite(p_s: np.ndarray, q_s: np.ndarray) -> None:
    import numpy as np

    if not (np.isfinite(p_s).all() and np.isfinite(q_s).all()):
        raise ValueError("non-finite entry in Lyapunov matrices")


def _weights(
    k_p: float, k_d: float, k_i: float, alpha: Optional[float], kappa: float,
) -> tuple[float, float, float, float]:
    """The proof's free parameters alpha, beta, sigma and gamma; alpha None
    gives k_i/k_d^2 (see ``proof_matrices``)."""
    if alpha is None:
        alpha = k_i / k_d**2
    return alpha, k_i / k_d, 2.0 * kappa * k_i, k_i * (alpha * k_d + k_p) / k_d


def _bound_entries(k_p: float, k_d: float, k_i: float, alpha: Optional[float], kappa: float,
                   theta_bound: float, delta: float, mu_max: float) -> tuple[list, list]:
    """Entries of P_s and Q_s, row by row; ``delta`` is 1 - mu_min/mu_max.

    Of floats, or of columns (``_column``), where the constant entries stand
    for columns of equal values.
    """
    alpha, beta, sigma, gamma = _weights(k_p, k_d, k_i, alpha, kappa)
    p = [
        gamma, -sigma, -beta,
        -sigma, k_p / theta_bound, -alpha,
        -beta, -alpha, 1.0,
    ]
    q_23 = (k_i - alpha * k_d**2) / (2.0 * k_d)
    q = [
        k_i**2 / k_d, 0.0, -delta * k_i,
        0.0, alpha * k_p - 2.0 * k_d / mu_max, q_23,
        -delta * k_i, q_23, k_d - alpha * mu_max,
    ]
    return p, q


class LyapunovEigs(NamedTuple):
    p_eigenvalues: np.ndarray
    q_eigenvalues: np.ndarray
    p_positive_definite: bool
    q_positive_definite: bool


def lyapunov_matrices(g: Gains, constants: DerivedConstants, kappa: float) -> LyapunovEigs:
    """Eigenvalues and definiteness flags of the bound matrices P_s and Q_s,
    with ``proof_matrices``' default alpha and theta_bound 1, one matrix at a
    time: the reference for the stacked eigenvalues of ``certify_chunk``."""
    import numpy as np

    p_s, q_s = proof_matrices(g, None, kappa, 1.0, constants.i_min, constants.i_max)
    p_eigs, q_eigs = np.linalg.eigvalsh(p_s), np.linalg.eigvalsh(q_s)
    return LyapunovEigs(p_eigs, q_eigs, bool(p_eigs[0] > 0.0), bool(q_eigs[0] > 0.0))


# Triples per chunk of a batch audit, one pass over numpy columns: large enough
# that numpy's per-call overhead is spread thin, small enough that one chunk's
# columns and (n, 3, 3) stacks stay small next to the triples of a long sweep.
CHUNK = 512


def certify_chunk(k_p, k_d, k_i, constants: DerivedConstants, kappa: float,
                  r_const: float) -> dict:
    """The audit of the triples of columns k_p, k_d and k_i, valid gains (a
    float stands for a column of equal values): the ``CertificateReport``
    fields by name, each a column, the eigenvalues (n, 3) from one stacked
    ``eigvalsh`` call per matrix, bit for bit ``lyapunov_matrices``' one call
    per matrix.  Takes any number of triples, none too."""
    import numpy as np

    check_r_const(r_const)
    triple = _column(np.empty((3, np.broadcast(k_p, k_d, k_i).size)))
    triple[0], triple[1], triple[2] = k_p, k_d, k_i  # a float fills its column
    k_p, k_d, k_i = triple
    with np.errstate(all="ignore"):
        return _certify(k_p, k_d, k_i, _k_i_upper(k_d, constants.delta, constants.mu),
                        *gain_thresholds(k_d, k_i, kappa, r_const), constants, kappa, r_const)


def certify_sample(u: np.ndarray, constants: DerivedConstants, kappa: float,
                   r_const: float) -> dict:
    """``certify_chunk``'s audit of the triples ``admissible_gain_sample``
    describes, drawn from this (n, 3) block of uniforms (u_d, u_f, u_m), in
    one pass: thresholds once.  low + (high - low) * u is Generator.uniform's
    arithmetic, each span exact, so the triples are bit-identical to
    per-triple uniform draws; k_p is checked as ``Gains`` checks it."""
    import numpy as np

    check_r_const(r_const)
    u_d, u_f, u_m = _column(u).T
    with np.errstate(all="ignore"):
        k_d = 1.0 + 9.0 * u_d
        k_i_upper = _k_i_upper(k_d, constants.delta, constants.mu)
        k_i = (0.05 + 0.85 * u_f) * k_i_upper
        k_1, k_2, floor = gain_thresholds(k_d, k_i, kappa, r_const)
        k_p = (1.05 + 1.95 * u_m) * floor
        bad = ~(np.isfinite(k_p) & (k_p > 0.0))
        if bad.any():
            raise ValueError(f"k_p must be finite and positive, got {k_p[bad][0].item()!r}")
        return _certify(k_p, k_d, k_i, k_i_upper, k_1, k_2, floor, constants, kappa, r_const)


def _certify(k_p, k_d, k_i, k_i_upper, k_1, k_2, k_p_floor, constants: DerivedConstants,
             kappa: float, r_const: float) -> dict:
    """``certify_chunk``'s audit from the columns of its triples and thresholds."""
    import numpy as np

    lo, hi = constants.kappa_range
    kappa_ok = lo < kappa < hi
    k_i_ok = (0.0 < k_i) & (k_i < k_i_upper)
    k_p_ok = k_p > k_p_floor
    stacks = np.empty((2, len(k_p), 9))  # P_s and Q_s, entry by entry
    for stack, entries in zip(stacks, _bound_entries(k_p, k_d, k_i, None, kappa, 1.0,
                                                     constants.delta, constants.i_max)):
        for j, entry in enumerate(entries):
            stack[:, j] = entry
    p_s, q_s = stacks.reshape(2, -1, 3, 3)
    _check_finite(p_s, q_s)
    p_eigs, q_eigs = np.linalg.eigvalsh(p_s), np.linalg.eigvalsh(q_s)
    shared = functools.partial(np.full, len(k_p))  # one value for the chunk
    return dict(
        k_p=k_p, k_d=k_d, k_i=k_i, delta=shared(constants.delta), mu=shared(constants.mu),
        kappa=shared(kappa), r_const=shared(r_const), k_i_upper=k_i_upper, k_1=k_1, k_2=k_2,
        k_p_floor=k_p_floor, k_i_margin=k_i_upper - k_i, k_p_margin=k_p - k_p_floor,
        kappa_ok=shared(kappa_ok), k_i_ok=k_i_ok, k_p_ok=k_p_ok, passed=kappa_ok & k_i_ok & k_p_ok,
        p_eigenvalues=p_eigs, q_eigenvalues=q_eigs,
        p_positive_definite=p_eigs[:, 0] > 0.0, q_positive_definite=q_eigs[:, 0] > 0.0,
    )


def _sqrt(x):
    """``math.sqrt`` of a float, or ``Column.sqrt`` of a column."""
    return math.sqrt(x) if isinstance(x, float) else x.sqrt()


def _max(first, *rest):
    """``max`` of floats, or ``Column.greatest`` of columns."""
    return max(first, *rest) if isinstance(first, float) else first.greatest(*rest)


def _column(values) -> np.ndarray:
    """``values`` as a float64 column on which this module's float formulas run."""
    import numpy as np

    return np.asarray(values, dtype=float).view(_column_type())


@functools.cache
def _column_type() -> type:
    import numpy as np

    class Column(np.ndarray):
        """Elementwise numpy in the float path's order of operations, except
        that ``**`` is Python's (libm pow) on each value: numpy's array power
        differs from it in the last ulp for some k_d.  A division by zero or
        the square root of a negative raises the float path's error."""

        def __pow__(self, exponent):
            return _column([value**exponent for value in self.tolist()])

        def __truediv__(self, divisor):
            if np.count_nonzero(divisor == 0.0):
                1.0 / 0.0  # raises the float path's ZeroDivisionError, message and all
            return np.true_divide(self, divisor)

        def sqrt(self):
            for value in self[self < 0.0][:1].tolist():
                math.sqrt(value)  # raises the float path's ValueError
            return np.sqrt(self)

        def greatest(self, *others):  # as in max, a later value wins only where greater
            top = self
            for other in others:
                top = np.where(other > top, other, top).view(Column)
            return top

    return Column


class MonitorResult(NamedTuple):
    t: list[float]
    w: list[float]
    dw: list[float]
    increase_intervals: list[tuple[float, float]]


def lyapunov_monitor(
    trajectory,
    g: Gains,
    kappa: float,
    z_floor: float = 0.0,
) -> MonitorResult:
    """Evaluate the candidate Lyapunov function along a recorded trajectory.

    ``trajectory`` needs attributes t, o_e, omega_e, o_I (the sim trajectory
    qualifies).  Uses the proof's cross-term weights; the position error
    enters through V = o_e^2/2 and eta = -o_e.  The cross terms assume
    d(eta)/dt = omega_e, whereas the simulated loop has d(eta)/dt = r * omega_e
    (see ``controller.error``).  Returns the W time series,
    its per-sample increments, and the merged time intervals where W
    increased while the error norm ||(o_I, o_e, omega_e)|| exceeded
    ``z_floor`` (increases inside the terminal neighborhood are expected and
    not reported).
    """
    k_p, k_d, k_i = g.k_p, g.k_d, g.k_i
    alpha, beta, sigma, gamma = _weights(k_p, k_d, k_i, None, kappa)

    t = list(trajectory.t)
    w: list[float] = []
    z: list[float] = []
    for o_e, omega_e, o_i in zip(trajectory.o_e, trajectory.omega_e, trajectory.o_I):
        eta = -o_e
        w.append(
            k_p * o_e**2 / 2.0
            + omega_e**2 / 2.0
            + gamma * o_i**2 / 2.0
            + alpha * eta * omega_e
            + beta * o_i * omega_e
            + sigma * o_i * eta
        )
        z.append(math.sqrt(o_i**2 + o_e**2 + omega_e**2))

    dw = [w1 - w0 for w0, w1 in zip(w, w[1:])]
    intervals: list[tuple[float, float]] = []
    open_start: Optional[float] = None
    for i, d in enumerate(dw):
        rising = d > 0.0 and z[i] > z_floor and z[i + 1] > z_floor
        if rising and open_start is None:
            open_start = t[i]
        elif not rising and open_start is not None:
            intervals.append((open_start, t[i]))
            open_start = None
    if open_start is not None:
        intervals.append((open_start, t[-1]))
    return MonitorResult(t=t, w=w, dw=dw, increase_intervals=intervals)
