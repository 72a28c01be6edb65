import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from steinbreak import (
    DimensionMismatch,
    ShrinkageFunction,
    mc_cross_identity,
    mc_quadratic_identity,
    mc_vector_identity,
    negative_control_setup,
    random_gaussian_setup,
    random_scaffold,
    run_verification_suite,
    setup_from_scaffold,
)
from steinbreak import stein_oracle

N_FAST = 60_000

H_ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))  # noqa: E731
H_INV = lambda x: 1.0 / np.asarray(x, dtype=float)  # noqa: E731


def h_indicator(cut):
    # with its piece, the closed form takes the exact kernel route; as a
    # plain callable it got quadrature without the jump
    return ShrinkageFunction.from_pieces(f"h=ind(x<{cut:g})", ((0.0, cut, 1.0, 0.0),))


def test_setup_hypotheses_hold():
    for seed in range(3):
        setup = random_gaussian_setup(8, 4, seed)
        assert max(setup.hypothesis_errors().values()) <= 1e-8
        assert setup.k == 4
        assert setup.has_joint


def test_quadratic_form_matches_einsum():
    # x'Ax and x'Wx on one draw block, y'Wx on a second independent one
    setup = random_gaussian_setup(9, 4, 3, joint="general")
    rng = np.random.default_rng(8)
    x = setup.mu_x + rng.standard_normal((5000, 9))
    y = rng.standard_normal((5000, 9))
    for u, m, v in ((x, setup.a, x), (x, setup.w, x), (y, setup.w, x)):
        direct = np.einsum("ni,ij,nj->n", u, m, v)
        scale = ((np.abs(u) @ np.abs(m)) * np.abs(v)).sum(axis=1)
        assert np.all(np.abs(stein_oracle._quadratic_form(u, m, v) - direct) <= 1e-12 * scale)


def test_constant_rule_reduces_to_plain_means():
    setup = random_gaussian_setup(7, 3, 1)
    chk = mc_vector_identity(setup, H_ONE, N_FAST, 2)
    assert_allclose(chk.closed_form, setup.w @ setup.mu_x, rtol=1e-9)
    assert chk.passed()
    quad = mc_quadratic_identity(setup, H_ONE, N_FAST, 3)
    expected = np.trace(setup.w @ setup.sigma) + setup.mu_x @ setup.w @ setup.mu_x
    assert_allclose(quad.closed_form, [expected], rtol=1e-9)
    assert quad.passed()


def test_zero_mean_vector_identity():
    scaffold = random_scaffold(8, 4, 5, mu_scale=0.0)
    setup = setup_from_scaffold(scaffold)
    chk = mc_vector_identity(setup, H_INV, N_FAST, 4)
    assert_allclose(chk.closed_form, np.zeros(8), atol=1e-12)
    assert chk.passed()


def test_zero_mean_cross_identity_keeps_trace_term():
    scaffold = random_scaffold(8, 4, 6, mu_scale=0.0)
    setup = setup_from_scaffold(scaffold)
    chk = mc_cross_identity(setup, H_INV, N_FAST, 5)
    expected = np.trace(setup.sigma12 @ setup.w @ setup.sigma @ setup.a)
    # only the trace term survives at mu = 0 (and it vanishes for
    # model-derived joints under a compatible weight)
    assert_allclose(chk.closed_form, [expected], atol=1e-10)
    assert chk.passed()


def test_identities_with_all_rules():
    for seed, joint in ((11, "scaffold"), (12, "general")):
        setup = random_gaussian_setup(8, 4, seed, joint=joint)
        rules = [H_ONE, H_INV, h_indicator(float(setup.k + 1))]
        for j, h in enumerate(rules):
            for fn in (mc_vector_identity, mc_quadratic_identity, mc_cross_identity):
                chk = fn(setup, h, N_FAST, 100 + j)
                assert chk.passed(), (joint, j, fn.__name__, chk.sigma_excess())


def test_quadratic_identity_with_squared_reciprocal_rule():
    # the rule behind the squared shrinkage correction: h(x) = (k-2)^2 / x^2
    setup = random_gaussian_setup(9, 6, 13)
    k = setup.k
    h = lambda x: (k - 2.0) ** 2 / np.asarray(x, dtype=float) ** 2  # noqa: E731
    chk = mc_quadratic_identity(setup, h, 200_000, 14)
    assert chk.passed(), chk.sigma_excess()


def test_general_joint_exercises_nonzero_cross_terms():
    setup = random_gaussian_setup(8, 4, 12, joint="general")
    assert np.linalg.norm(setup.sigma12 @ setup.w) > 0.1
    chk = mc_cross_identity(setup, H_INV, 200_000, 6)
    assert chk.passed()


def test_cross_identity_needs_joint_block():
    setup = random_gaussian_setup(6, 3, 7)
    stripped = type(setup)(
        mu_x=setup.mu_x,
        sigma=setup.sigma,
        a=setup.a,
        w=setup.w,
        w_star=setup.w_star,
    )
    with pytest.raises(DimensionMismatch):
        mc_cross_identity(stripped, H_INV, N_FAST, 8)


def test_sample_floor():
    setup = random_gaussian_setup(6, 3, 8)
    with pytest.raises(ValueError):
        mc_vector_identity(setup, H_ONE, 9_999, 9)


def test_deterministic_across_chunk_boundaries():
    setup = random_gaussian_setup(6, 3, 9)
    # 70_000 spans two chunks of 65_536; reruns must agree bitwise
    a = mc_vector_identity(setup, H_INV, 70_000, 10)
    b = mc_vector_identity(setup, H_INV, 70_000, 10)
    assert np.array_equal(a.mc_estimate, b.mc_estimate)
    assert np.array_equal(a.mc_stderr, b.mc_stderr)


def test_negative_control_fails_detectably():
    bad = negative_control_setup(8, 4, 3)
    assert bad.hypothesis_errors()["a_s_a"] > 0.1
    chk = mc_vector_identity(bad, H_INV, 200_000, 11)
    assert chk.sigma_excess() > 3.0


def test_suite_shape_and_negative_control():
    entries = run_verification_suite(n_samples=20_000, seed=7, n_setups=2)
    # 2 setups x 3 rules x 3 identities + 1 negative control
    assert len(entries) == 19
    control = entries[-1]
    assert control.expect_fail
    assert control.ok  # i.e. it failed, as expected
    identities = {e.identity for e in entries}
    assert identities == {"vector", "quadratic", "cross"}
    # one bound for the suite: two-sided Bonferroni over the 54 components
    # of the regular checks (3 rules x (6 + 8 vector + 2 scalar) per setup)
    assert len({e.bound for e in entries}) == 1
    assert control.bound == pytest.approx(norm.isf(1e-6 / 108))
    assert control.check.sigma_excess() > control.bound
    worst = max(entries[:-1], key=lambda e: e.check.sigma_excess())
    assert worst.ok
    assert not dataclasses.replace(worst, bound=0.99 * worst.check.sigma_excess()).ok


@pytest.mark.parametrize("seed", [2, 3])
def test_suite_at_1e5_draws_passes_under_family_wise_bound(seed):
    # a per-component 3-sigma bound flags some of these 150 components
    # (seed 2: one at 3.18 sigma; seed 3: three, up to 3.26 sigma)
    entries = run_verification_suite(n_samples=100_000, seed=seed)
    assert entries[0].bound == pytest.approx(5.80, abs=5e-3)
    assert any(e.check.sigma_excess() > 3.0 for e in entries[:-1])
    assert all(e.ok for e in entries)
