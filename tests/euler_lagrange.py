"""Lagrange's equations of the hoop, derived exactly from ``sim.energy``.

The tests of the plant text, ``plant.derivative`` and acceptance criterion 01
share these helpers.  sympy is imported plainly: a check that cannot run
without it fails rather than skips.
"""
import functools
import re
from types import SimpleNamespace

import pytest
import sympy

from hooprobot import sim
from hooprobot.plant import HoopState

THETA_A = sympy.Symbol("theta_a", real=True)


def sympy_math():
    """A stand-in for ``math`` in the texts of ``sim``: sympy's function of
    each name that ``_CONSTANTS`` and ``energy`` take from ``math``."""
    names = dict.fromkeys(re.findall(r"\bmath\.(\w+)", sim._CONSTANTS + sim._ENERGY))
    return SimpleNamespace(**{name: getattr(sympy, name) for name in names})


@functools.cache
def euler_lagrange_accelerations():
    """The plant's (omega_dot, omega_a_dot) from Lagrange's equations for
    ``energy``, as sympy expressions in the symbols of the parameters, the
    velocities w1, w2, tau_u and sin and cos of theta_a and beta; with the
    parameter namespace and those symbols.

    The coordinates are (theta, theta_a), the centre at o = -r theta + c.
    M w' = Q + dL/dq - (dp/dq) w, with p = dL/dw and M = d2L/dw2, and
    Q = (tau, -tau), tau = tau_u A / (A - m_a r l cos theta_a); the
    disturbances add delta / I to the accelerations, as in ``plant``.
    """
    m_h, i_h, r, m_a, i_a, l, grav = sympy.symbols("m_h i_h r m_a i_a l g", positive=True)
    beta, delta_s, delta_a, tau_u, c = sympy.symbols("beta delta_s delta_a tau_u c", real=True)
    q1, q2, w1, w2 = sympy.symbols("q1 q2 w1 w2", real=True)
    pend, amp = i_a + m_a * l**2, m_a * r * l
    p = SimpleNamespace(
        m_h=m_h, i_h=i_h, r=r, m_a=m_a, i_a=i_a, l=l, g=grav, beta=beta, delta_s=delta_s,
        delta_a=delta_a, m_total=m_h + m_a, pendulum_inertia=pend, coupling_amp=amp,
        inertia_dip=amp**2 / pend, rolling_inertia=i_h + (m_h + m_a) * r**2,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "math", sympy_math())
        ke, pe = sim.energy(p, HoopState(theta=q1, o=-r * q1 + c, omega=w1, theta_a=q2,
                                         omega_a=w2))
    lagrangian = sympy.nsimplify(ke - pe, rational=True)  # its 0.5 as 1/2
    q, w = (q1, q2), (w1, w2)
    momenta = [sympy.diff(lagrangian, v) for v in w]
    mass = sympy.Matrix(2, 2, lambda i, j: sympy.diff(momenta[i], w[j]))
    tau = tau_u * pend / (pend - amp * sympy.cos(q2))
    forces = sympy.Matrix([
        force + sympy.diff(lagrangian, q[i]) - sum(sympy.diff(momenta[i], q[j]) * w[j]
                                                   for j in range(2))
        for i, force in enumerate((tau, -tau))
    ])
    inertia = p.rolling_inertia - p.inertia_dip * sympy.cos(q2)**2
    accelerations = mass.LUsolve(forces) + sympy.Matrix([delta_s, delta_a]) / inertia
    # sin and cos of theta_a + beta become those of theta_a and beta; the
    # angle symbols then appear only inside sin and cos
    accelerations = [sympy.expand_trig(a).subs(q2, THETA_A) for a in accelerations]
    return accelerations, p, (m_h, i_h, r, m_a, i_a, l, grav, c, delta_s, delta_a), (w1, w2, tau_u)


@functools.cache
def _float_accelerations():
    """The accelerations lambdified to ``math`` floats, with the plant fields
    they take first; the centre's offset c drops out of them."""
    accelerations, p, params, inputs = euler_lagrange_accelerations()
    fields = tuple(x for x in (*params, p.beta) if x.name != "c")
    return fields, sympy.lambdify((*fields, THETA_A, *inputs), accelerations, modules="math")


def exact_accelerations(plant, s, tau_u):
    """(omega_dot, omega_a_dot) of Lagrange's equations for the plant
    ``plant`` at the state ``s`` and the input torque ``tau_u``, in floats."""
    fields, accelerations = _float_accelerations()
    omega_dot, omega_a_dot = accelerations(*(getattr(plant, x.name) for x in fields),
                                           s.theta_a, s.omega, s.omega_a, tau_u)
    return omega_dot, omega_a_dot
