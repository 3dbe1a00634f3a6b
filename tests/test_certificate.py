"""Gain conditions, Lyapunov bound matrices and the trajectory monitor."""
import math
import random
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from hooprobot.certificate import (
    CHUNK,
    CertificateReport,
    admissible_gain_sample,
    certify_chunk,
    check_gains,
    derived_constants,
    gain_thresholds,
    kappa_mid,
    lyapunov_matrices,
    lyapunov_monitor,
    proof_matrices,
)
from hooprobot.controller import Gains
from hooprobot.plant import PlantParams
from hooprobot.regularizer import NominalParams, nominal_from_true
from hooprobot.sim import SimConfig, integrate

BELIEVED = NominalParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035, l=0.14)
GAINS = Gains(k_p=16.0, k_d=7.0, k_i=4.0, k_c=0.1)

I_MAX = BELIEVED.rolling_inertia
I_MIN = BELIEVED.rolling_inertia - BELIEVED.inertia_dip


def charpoly_eigs(m):
    """Eigenvalues via the characteristic cubic, independent of eigvalsh."""
    c2 = float(np.trace(m))
    minors = (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    )
    c0 = float(np.linalg.det(m))
    roots = np.roots([1.0, -c2, float(minors), -c0])
    return np.sort(roots.real)


class TestDerivedConstants:
    def test_frozen_values(self):
        c = derived_constants(BELIEVED, 5.0)
        assert c.delta == pytest.approx(0.4309463842501493, rel=1e-12)
        assert c.mu == pytest.approx(1.4500233389724089, rel=1e-12)
        assert c.kappa_range == pytest.approx((1.0 / c.mu, 2.0 / c.mu), rel=1e-14)
        c6 = derived_constants(BELIEVED, 6.0)
        assert c6.mu == pytest.approx(1.5400280067668906, rel=1e-12)
        assert c6.delta == c.delta  # delta does not involve the velocity bound

    def test_zero_velocity_bound_decouples(self):
        assert derived_constants(BELIEVED, 0.0).mu == 1.0

    def test_weak_coupling_limit(self):
        n = NominalParams(m_h=1.0, i_h=0.021, r=0.18, m_a=1e-9, i_a=0.035, l=0.14)
        c = derived_constants(n, 5.0)
        assert c.delta < 1e-12
        assert c.mu == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError, match="velocity bound"):
            derived_constants(BELIEVED, -1.0)

    def test_rejects_violated_inertia_condition(self):
        # physically constructed params always satisfy the condition, so feed
        # the guard a duck-typed stand-in with an oversized coupling amplitude
        fake = SimpleNamespace(rolling_inertia=0.1, inertia_dip=0.05,
                               pendulum_inertia=0.05, coupling_amp=0.5)
        with pytest.raises(ValueError, match="inertia condition"):
            derived_constants(fake, 2.0)

    def test_kappa_mid(self):
        c = derived_constants(BELIEVED, 5.0)
        assert kappa_mid(c) == pytest.approx(1.0344661080165842, rel=1e-12)
        assert c.kappa_range[0] < kappa_mid(c) < c.kappa_range[1]


class TestGainThresholds:
    def test_vanish_with_integral_gain(self):
        k_1, k_2, _ = gain_thresholds(7.0, 1e-10, 1.0, 1.0)
        assert k_1 < 1e-4
        assert k_2 < 1e-4

    def test_floor_reduces_to_damping_bound_for_tiny_integral_gain(self):
        kappa = 1.1
        _, _, floor = gain_thresholds(7.0, 1e-10, kappa, 1.0)
        assert floor == pytest.approx(2.0 * kappa * 49.0, rel=1e-4)

    def test_increasing_in_r_const(self):
        lo = gain_thresholds(3.0, 2.0, 1.0, 0.5)
        hi = gain_thresholds(3.0, 2.0, 1.0, 2.0)
        assert hi[0] > lo[0]
        assert hi[1] > lo[1]


class TestCheckGains:
    def test_published_gain_set_fails_the_proportional_floor(self):
        # the demonstration gains satisfy the integral-gain bound but sit far
        # below the (conservative, sufficient-only) proportional floor
        c = derived_constants(BELIEVED, 6.0)
        report = check_gains(GAINS, c, kappa_mid(c))
        assert report.kappa_ok
        assert report.k_i_ok
        assert not report.k_p_ok
        assert not report.passed
        assert 90.0 < report.k_p_floor < 100.0

    def test_integral_bound_scales_with_damping_cubed(self):
        c = derived_constants(BELIEVED, 5.0)
        kappa = kappa_mid(c)
        r1 = check_gains(Gains(200.0, 2.0, 1.0), c, kappa)
        r2 = check_gains(Gains(200.0, 4.0, 1.0), c, kappa)
        assert r2.k_i_upper == pytest.approx(8.0 * r1.k_i_upper, rel=1e-12)

    def test_proportional_margin_is_monotone(self):
        c = derived_constants(BELIEVED, 5.0)
        kappa = kappa_mid(c)
        base = check_gains(Gains(50.0, 3.0, 2.0), c, kappa)
        for dk in (1.0, 10.0, 100.0):
            bigger = check_gains(Gains(50.0 + dk, 3.0, 2.0), c, kappa)
            assert bigger.k_p_margin == pytest.approx(base.k_p_margin + dk, rel=1e-12)
            assert bigger.k_p_floor == base.k_p_floor

    def test_constructed_integral_violation_is_flagged(self):
        c = derived_constants(BELIEVED, 5.0)
        kappa = kappa_mid(c)
        upper = 3.0**3 * (1.0 - c.delta**2) / c.mu
        report = check_gains(Gains(500.0, 3.0, 1.1 * upper), c, kappa)
        assert not report.k_i_ok
        assert not report.passed

    def test_rejects_bad_r_const(self):
        c = derived_constants(BELIEVED, 5.0)
        with pytest.raises(ValueError, match="r_const"):
            check_gains(GAINS, c, 1.0, r_const=0.0)


class TestProofMatrices:
    def test_default_alpha_annihilates_mixed_decay_entry(self):
        _, q_s = proof_matrices(GAINS, alpha=None, kappa=1.0, theta_bound=1.0,
                                mu_min=I_MIN, mu_max=I_MAX)
        assert abs(q_s[1, 2]) < 1e-15
        assert q_s[2, 1] == q_s[1, 2]

    def test_symmetry(self):
        p_s, q_s = proof_matrices(GAINS, alpha=None, kappa=1.2, theta_bound=1.0,
                                  mu_min=I_MIN, mu_max=I_MAX)
        assert np.array_equal(p_s, p_s.T)
        assert np.array_equal(q_s, q_s.T)

    def test_rejects_bad_inertia_bounds(self):
        with pytest.raises(ValueError, match="mu_min"):
            proof_matrices(GAINS, None, 1.0, 1.0, mu_min=0.2, mu_max=0.1)
        with pytest.raises(ValueError, match="theta_bound"):
            proof_matrices(GAINS, None, 1.0, 0.0, mu_min=0.1, mu_max=0.2)

    def test_rejects_non_finite_free_parameter(self):
        with pytest.raises(ValueError, match="non-finite"):
            proof_matrices(GAINS, math.nan, 1.0, 1.0, mu_min=0.1, mu_max=0.2)


class TestLyapunovMatrices:
    def test_eigenvalues_match_characteristic_cubic(self):
        # dual route: eigvalsh against the closed-form characteristic
        # polynomial of each 3x3 matrix
        c = derived_constants(BELIEVED, 5.0)
        kappa = kappa_mid(c)
        for g in admissible_gain_sample(20, 99, c, kappa):
            p_s, q_s = proof_matrices(g, None, kappa, 1.0, I_MIN, I_MAX)
            eigs = lyapunov_matrices(g, c, kappa)
            assert np.allclose(eigs.p_eigenvalues, charpoly_eigs(p_s),
                               rtol=1e-9, atol=1e-9)
            assert np.allclose(eigs.q_eigenvalues, charpoly_eigs(q_s),
                               rtol=1e-9, atol=1e-9)

    def test_definiteness_flags_match_eigenvalues(self):
        c = derived_constants(BELIEVED, 5.0)
        kappa = kappa_mid(c)
        eigs = lyapunov_matrices(GAINS, c, kappa)
        assert eigs.p_positive_definite == bool(eigs.p_eigenvalues[0] > 0.0)
        assert eigs.q_positive_definite == bool(eigs.q_eigenvalues[0] > 0.0)


class TestAdmissibleGainSample:
    def test_reproducible_and_sized(self):
        c = derived_constants(BELIEVED, 5.0)
        kappa = kappa_mid(c)
        a = admissible_gain_sample(10, 7, c, kappa)
        b = admissible_gain_sample(10, 7, c, kappa)
        assert a == b
        assert len(a) == 10

    def test_all_triples_pass_and_p_is_definite(self):
        c = derived_constants(BELIEVED, 5.0)
        kappa = kappa_mid(c)
        lmins = []
        for g in admissible_gain_sample(100, 2026, c, kappa):
            report = check_gains(g, c, kappa)
            assert report.passed
            lmins.append(report.p_eigenvalues[0])
        assert min(lmins) == pytest.approx(0.2593809575880058, rel=1e-9)
        assert min(lmins) > 0.0

    def test_decay_floor_grows_along_scaling_ray(self):
        # along (s^2 k_p, s k_d, s^3 k_i) every point stays admissible and the
        # smallest eigenvalue of the decay matrix increases with s
        c = derived_constants(BELIEVED, 5.0)
        kappa = kappa_mid(c)
        q_mins = []
        for s in (1, 2, 3, 4):
            g = Gains(k_p=12.0 * s**2, k_d=2.0 * s, k_i=4.0 * s**3)
            report = check_gains(g, c, kappa)
            assert report.passed
            q_mins.append(report.q_eigenvalues[0])
        assert q_mins == sorted(q_mins)
        assert q_mins[0] < q_mins[-1]


def interleaved_sample(count, seed, constants, kappa, r_const=1.0):
    """The sampler as first written: three scalar uniform draws per triple."""
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(count):
        k_d = float(rng.uniform(1.0, 10.0))
        upper = k_d**3 * (1.0 - constants.delta**2) / constants.mu
        k_i = float(rng.uniform(0.05, 0.9)) * upper
        _, _, floor = gain_thresholds(k_d, k_i, kappa, r_const)
        k_p = float(rng.uniform(1.05, 3.0)) * floor
        triples.append(Gains(k_p=k_p, k_d=k_d, k_i=k_i))
    return triples


def hexed(value):
    """A value with every float spelled exactly (so -0.0 != 0.0) and its type."""
    if isinstance(value, tuple):
        return tuple(hexed(v) for v in value)
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    return type(value).__name__, value


class TestSamplerStream:
    @pytest.mark.parametrize("options", [{}, {"r_const": 0.3}, {"r_const": 4.0}])
    @pytest.mark.parametrize("seed", [0, 7, 2026, 2**40 + 3])
    def test_one_draw_matches_interleaved_uniform_draws(self, seed, options):
        c = derived_constants(BELIEVED, 5.0)
        kappa = kappa_mid(c)
        got = admissible_gain_sample(300, seed, c, kappa, **options)
        want = interleaved_sample(300, seed, c, kappa, **options)
        assert [hexed((g.k_p, g.k_d, g.k_i, g.k_c)) for g in got] == \
            [hexed((g.k_p, g.k_d, g.k_i, g.k_c)) for g in want]


gain_triples = st.tuples(
    st.floats(0.01, 2000.0),  # k_p, mostly below or above the floor
    st.floats(0.2, 15.0),     # k_d
    st.floats(1e-3, 3000.0),  # k_i, often above its upper bound
)


class TestCertifyGains:
    @pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    # No shrink phase: every shrink step certifies up to CHUNK + 1 triples,
    # which made shrinking a failure take minutes and hundreds of MB, so a
    # failure is reported as first found.
    @settings(max_examples=15, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(
        drawn=st.lists(gain_triples, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        r_const=st.floats(0.05, 20.0),
        kappa_scale=st.floats(0.8, 2.2),
        scales=st.tuples(*[st.floats(0.2, 5.0)] * 6),
        k_x=st.floats(0.0, 20.0),
    )
    def test_equals_check_gains_field_for_field(
        self, count, drawn, seed, r_const, kappa_scale, scales, k_x,
    ):
        # check_gains wraps the row of its one triple, so this compares each
        # row of a batch with the audit of its triple alone, and the row with
        # the per-matrix eigenvalues and the thresholds
        believed = NominalParams(*(scale * getattr(BELIEVED, name) for scale, name in
                                   zip(scales, ("m_h", "i_h", "r", "m_a", "i_a", "l"))))
        c = derived_constants(believed, k_x)
        kappa = kappa_scale / c.mu  # admissible only inside (1, 2)
        rng = random.Random(seed)
        triples = [Gains(*t) for t in drawn[:count]]
        while len(triples) < count:
            k_d = rng.uniform(0.2, 15.0)
            triples.append(Gains(k_p=rng.uniform(0.01, 2000.0), k_d=k_d,
                                 k_i=rng.uniform(0.01, 1.2) * k_d**3))
        rows, p_eigs, q_eigs = certify_chunk(triples, c, kappa, r_const)
        assert len(rows) == count and p_eigs.shape == q_eigs.shape == (count, 3)
        # a row holds the report fields k_p .. passed; the eigenvalues follow
        names = [f.name for f in fields(CertificateReport)][:-2]
        for g, row, p_row, q_row in zip(triples, rows, p_eigs.tolist(), q_eigs.tolist()):
            got = dict(zip(names, [*row, tuple(p_row), tuple(q_row)], strict=True))
            want = check_gains(g, c, kappa, r_const)
            for name, value in got.items():
                assert hexed(value) == hexed(getattr(want, name)), name
            eigs = lyapunov_matrices(g, c, kappa)
            assert hexed(got["p_eigenvalues"]) == hexed(tuple(eigs.p_eigenvalues.tolist()))
            assert hexed(got["q_eigenvalues"]) == hexed(tuple(eigs.q_eigenvalues.tolist()))
            assert want.p_positive_definite == eigs.p_positive_definite
            assert want.q_positive_definite == eigs.q_positive_definite
            floor = gain_thresholds(g.k_d, g.k_i, kappa, r_const)[2]
            assert hexed(got["k_p_floor"]) == hexed(floor)

    def test_mixed_verdicts_are_reported(self):
        c = derived_constants(BELIEVED, 6.0)
        kappa = kappa_mid(c)
        rows, _, _ = certify_chunk([GAINS, Gains(120.0, 7.0, 4.0)], c, kappa, 1.0)
        assert [row[-1] for row in rows] == [False, True]  # passed ends a row

    def test_empty_input_gives_no_reports(self):
        c = derived_constants(BELIEVED, 6.0)
        rows, p_eigs, q_eigs = certify_chunk([], c, kappa_mid(c), 1.0)
        assert rows == [] and p_eigs.shape == q_eigs.shape == (0, 3)

    @pytest.mark.parametrize("position", [0, CHUNK])
    def test_non_finite_entry_raises(self, position):
        c = derived_constants(BELIEVED, 6.0)
        # finite gains whose products overflow: gamma and alpha k_p become inf
        huge = Gains(1e300, 7.0, 1e102)
        with pytest.raises(ValueError, match="non-finite"):
            check_gains(huge, c, kappa_mid(c))
        triples = [Gains(120.0, 7.0, 4.0)] * (CHUNK + 1)
        triples[position] = huge
        with pytest.raises(ValueError, match="non-finite"):
            certify_chunk(triples, c, kappa_mid(c), 1.0)

    def test_validates_like_the_scalar_path(self):
        c = derived_constants(BELIEVED, 6.0)
        kappa = kappa_mid(c)
        with pytest.raises(ValueError, match="r_const"):
            certify_chunk([GAINS], c, kappa, 0.0)


class TestReport:
    def test_serialize_is_stable_and_complete(self):
        c = derived_constants(BELIEVED, 6.0)
        report = check_gains(GAINS, c, kappa_mid(c))
        text = report.serialize()
        lines = text.splitlines()
        assert lines[0].startswith("k_p = ")
        assert any(line.startswith("passed = False") for line in lines)
        assert any(line.startswith("p_eigenvalues = ") for line in lines)
        # stable: serializing twice gives identical text
        assert text == report.serialize()

    def test_fields_round_trip(self):
        c = derived_constants(BELIEVED, 6.0)
        report = check_gains(GAINS, c, kappa_mid(c))
        assert isinstance(report, CertificateReport)
        assert report.k_i_margin == pytest.approx(report.k_i_upper - GAINS.k_i)
        assert report.k_p_margin == pytest.approx(GAINS.k_p - report.k_p_floor)


class TestMonitor:
    def test_zero_error_trajectory_gives_zero_energy(self):
        traj = SimpleNamespace(t=[0.0, 0.1, 0.2], o_e=[0.0] * 3,
                               omega_e=[0.0] * 3, o_I=[0.0] * 3)
        result = lyapunov_monitor(traj, GAINS, 1.0)
        assert result.w == [0.0, 0.0, 0.0]
        assert result.increase_intervals == []

    def test_quadratic_scaling(self):
        base = SimpleNamespace(t=[0.0, 0.1], o_e=[0.3, 0.2],
                               omega_e=[-0.1, 0.05], o_I=[0.4, 0.35])
        doubled = SimpleNamespace(t=[0.0, 0.1],
                                  o_e=[2 * v for v in base.o_e],
                                  omega_e=[2 * v for v in base.omega_e],
                                  o_I=[2 * v for v in base.o_I])
        w1 = lyapunov_monitor(base, GAINS, 1.0).w
        w2 = lyapunov_monitor(doubled, GAINS, 1.0).w
        for a, b in zip(w1, w2):
            assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_decays_on_residual_free_run(self):
        # flat ground, exact parameters, no disturbance: the integrator has
        # nothing to absorb, so the candidate energy must die out and all
        # rising stretches (outside the terminal neighborhood) end early
        plant = PlantParams(m_h=1.0, i_h=0.021, r=0.18, m_a=3.28, i_a=0.035,
                            l=0.14, beta=0.0)
        cfg = SimConfig(plant=plant, nominal=nominal_from_true(plant, 1.0),
                        gains=GAINS, t_end=40.0)
        traj = integrate(cfg)
        c = derived_constants(nominal_from_true(plant, 1.0), 6.0)
        result = lyapunov_monitor(traj, GAINS, kappa_mid(c), z_floor=0.02)
        assert result.w[-1] < 1e-5 * result.w[0]
        assert result.increase_intervals  # transient wiggles do exist
        assert max(end for _, end in result.increase_intervals) < 30.0
