import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special
from scipy import stats as sps

from helpers import (
    gram_plugin,
    kkt_restricted_ls,
    mp_restricted_ls,
    mp_wald_psi,
    nullspace_restricted_fit,
    random_restriction,
    segment_sparse_restriction,
)
from steinbreak import (
    CoefEstimate,
    KTooSmall,
    MismatchedPartitions,
    Partition,
    PluginMatrices,
    RegressionData,
    Restriction,
    ShrinkageFunction,
    build_case1,
    build_case2,
    build_design,
    build_plugin_matrices,
    estimate_class,
    estimate_omega,
    fit_restricted,
    fit_unrestricted,
    make_james_stein,
    make_positive_part,
    make_pretest,
    newey_west_bandwidth,
    shrinkage_estimate,
    simulate_dataset,
    wald_distance,
)
from steinbreak import estimators, stein_oracle
from steinbreak.cli import power_trend_basis, restriction_from_spec
from steinbreak.linalg import rel_error, wald_metric
from steinbreak.errors import SegmentRankDeficient


def test_fit_unrestricted_exact_recovery():
    rng = np.random.default_rng(0)
    z = rng.normal(1.0, 1.0, size=(20, 2))
    delta0 = np.array([1.0, 2.0, -0.5, 0.25])
    part = Partition((10,))
    y = np.concatenate([z[:10] @ delta0[:2], z[10:] @ delta0[2:]])
    fit = fit_unrestricted(RegressionData(y=y, z=z), part)
    assert_allclose(fit.delta, delta0, atol=1e-9)
    assert fit.ssr <= 1e-18


def test_fit_unrestricted_single_segment_scalar():
    z = np.arange(1.0, 9.0).reshape(-1, 1)
    data = RegressionData(y=2.0 * z[:, 0], z=z)
    fit = fit_unrestricted(data, Partition(()))
    assert_allclose(fit.delta, [2.0], rtol=1e-12)


def test_fit_unrestricted_mc_mean_near_truth():
    # average of the estimator over replications approaches the truth
    delta0 = np.array([1.0, -0.5])
    total = np.zeros(2)
    reps = 300
    for rep in range(reps):
        rng = np.random.default_rng(1000 + rep)
        z = rng.normal(1.0, 1.0, size=(60, 2))
        y = z @ delta0 + rng.normal(0, 1, 60)
        total += fit_unrestricted(RegressionData(y=y, z=z), Partition(())).delta
    mean = total / reps
    # MC stderr of each component is about 0.02 at T=60, 300 reps
    assert np.max(np.abs(mean - delta0)) < 0.02


def test_fit_restricted_projection_is_identity_when_satisfied():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(16, 1))
    y = rng.normal(size=16)
    data = RegressionData(y=y, z=z)
    part = Partition((8,))
    d_ue = fit_unrestricted(data, part).delta
    rmat = np.array([[1.0, 3.0]])
    restr = Restriction(matrix=rmat, rhs=rmat @ d_ue)
    fit = fit_restricted(data, part, restr)
    assert_allclose(fit.delta, d_ue, rtol=1e-10)


def test_fit_restricted_identity_to_zero():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(12, 1))
    y = rng.normal(size=12)
    data = RegressionData(y=y, z=z)
    restr = Restriction(matrix=np.eye(2), rhs=np.zeros(2))
    fit = fit_restricted(data, Partition((6,)), restr)
    assert_allclose(fit.delta, np.zeros(2), atol=1e-12)
    assert_allclose(fit.ssr, float(y @ y), rtol=1e-12)


def test_fit_restricted_matches_nullspace_oracle():
    rng = np.random.default_rng(3)
    for seed in range(20):
        r = np.random.default_rng(seed)
        t_total = int(r.integers(15, 40))
        q = int(r.choice([1, 2]))
        m = int(r.choice([0, 1]))
        if (m + 1) * q * 3 > t_total:
            m = 0
        z = r.normal(1.0, 1.0, size=(t_total, q))
        y = r.normal(size=t_total)
        data = RegressionData(y=y, z=z)
        breaks = (t_total // 2,) if m == 1 else ()
        part = Partition(breaks)
        n = (m + 1) * q
        k = int(r.integers(1, n + 1)) if n > 1 else 1
        restr = random_restriction(rng, n, k)
        fit = fit_restricted(data, part, restr)
        delta_o, ssr_o = nullspace_restricted_fit(data, part, restr)
        assert abs(fit.ssr - ssr_o) <= 1e-8 * max(ssr_o, 1.0), f"seed {seed}"
        assert_allclose(fit.delta, delta_o, atol=1e-7)
        gap = np.max(np.abs(restr.matrix @ fit.delta - restr.rhs))
        assert gap <= 1e-8 * (1.0 + np.max(np.abs(restr.rhs)))


def test_fit_restricted_per_component_matches_kkt_reference():
    # segment-sparse restrictions split into several components, some of
    # null width 0 (every coefficient they hold is fixed by R)
    rng = np.random.default_rng(15)
    layouts = []
    for _ in range(120):
        m, q = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        restr = segment_sparse_restriction(rng, m, q)
        components = restr.segment_components(q)
        layouts.append((len(components), min(c.null.shape[1] for c in components), bool(restr.rhs.any())))
        t_total = 8 * (m + 1) * q
        data = RegressionData(y=rng.normal(size=t_total), z=rng.normal(1.0, 1.0, size=(t_total, q)))
        part = Partition(tuple(sorted(rng.choice(np.arange(q, t_total - q + 1, q), size=m, replace=False))))
        fit = fit_restricted(data, part, restr)
        rows = [(data.z[s:e], data.y[s:e]) for s, e in part.segments(t_total)]
        ref = kkt_restricted_ls(np.array([z.T @ z for z, _ in rows]), np.array([z.T @ y for z, y in rows]), restr)
        assert np.max(np.abs(fit.delta - ref)) <= 1e-10 * np.max(np.abs(ref)), layouts[-1]
        resid = data.y - build_design(data, part) @ ref
        assert abs(fit.ssr - resid @ resid) <= 1e-10 * (resid @ resid)
        gap = np.max(np.abs(restr.matrix @ fit.delta - restr.rhs))
        assert gap <= estimators.CONSTRAINT_TOL * (1.0 + np.max(np.abs(restr.rhs)))
    n_comp, min_width, nonzero_rhs = zip(*layouts)
    assert set(n_comp) >= {2, 3, 4}
    assert 0 in min_width and any(nonzero_rhs) and not all(nonzero_rhs)


def test_fits_carry_their_residuals():
    # y - Zbar delta of each fit on its own partition, formed segment by
    # segment; the SSR is their sum of squares
    rng = np.random.default_rng(16)
    for _ in range(60):
        m, q = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        t_total = 8 * (m + 1) * q
        data = RegressionData(y=rng.normal(size=t_total), z=rng.normal(1.0, 1.0, size=(t_total, q)))
        part = Partition(tuple(sorted(rng.choice(np.arange(2 * q, t_total - 2 * q + 1, 2 * q), size=m, replace=False))))
        restr = segment_sparse_restriction(rng, m, q) if m else random_restriction(rng, q, 1)
        zbar = build_design(data, part)
        for fit in (fit_unrestricted(data, part), fit_restricted(data, part, restr)):
            dense = data.y - zbar @ fit.delta
            assert fit.residuals.shape == (t_total,)
            assert np.max(np.abs(fit.residuals - dense)) <= 1e-12 * np.max(np.abs(dense))
            assert abs(fit.ssr - fit.residuals @ fit.residuals) <= 1e-12 * fit.ssr


def test_estimate_class_rejects_a_rank_deficient_shrink_partition():
    # The plug-ins solve on the factors of the UE fit at the shrink
    # partition and take its rank verdict: a segment that repeats a column
    # has no Q coordinates, and a triangular solve with its factor would
    # give a finite, meaningless A_hat instead of an error.  The UE and RE
    # partitions here are of full rank.  A one-row segment at q = 1 has
    # full rank and passes.
    rng = np.random.default_rng(17)
    z = rng.normal(1.0, 1.0, size=(20, 3))
    z[10:, 2] = z[10:, 0]
    data = RegressionData(y=rng.normal(size=20), z=z)
    restr = random_restriction(rng, 6, 3)
    assert np.isfinite(estimate_class(data, restr, Partition((5,)), Partition((6,)), Partition((5,)))["psi"])
    for ue_part, re_part in ((Partition((5,)), Partition((6,))), (Partition((10,)), Partition((10,)))):
        with pytest.raises(SegmentRankDeficient) as exc:
            estimate_class(data, restr, ue_part, re_part, Partition((10,)))
        assert exc.value.segments == ((10, 20),)
        assert "segment 2 (times 11..20)" in str(exc.value)
    one_row = RegressionData(y=rng.normal(size=6), z=np.ones((6, 1)))
    fit = fit_unrestricted(one_row, Partition((1,)))
    plug = build_plugin_matrices(one_row, fit, Restriction(matrix=np.eye(2)[1:], rhs=np.zeros(1)))
    assert np.all(np.isfinite(plug.a_hat)) and plug.a_hat[1, 1] > 0.0


def test_estimate_omega_constant_residuals():
    data = RegressionData(y=np.zeros(8), z=np.ones((8, 1)))
    omega = estimate_omega(build_design(data, Partition(())), np.full(8, 3.0))
    assert_allclose(omega, [[9.0]], rtol=1e-12)


def test_estimate_omega_hc0_matches_sigma2_gamma():
    rng = np.random.default_rng(5)
    t_total = 4000
    z = rng.normal(1.0, 1.0, size=(t_total, 2))
    u = rng.normal(0.0, 1.5, size=t_total)
    data = RegressionData(y=z @ [1.0, 1.0] + u, z=z)
    zbar = build_design(data, Partition(()))
    gamma = zbar.T @ zbar / t_total
    omega = estimate_omega(zbar, u)
    err = np.linalg.norm(omega - 1.5**2 * gamma) / np.linalg.norm(1.5**2 * gamma)
    assert err < 0.08


def test_estimate_omega_hac_closer_to_long_run_variance():
    # AR(1) scores with constant regressor: the long-run variance is
    # var(u) (1 + phi) / (1 - phi); the Bartlett estimate must beat HC0
    rng = np.random.default_rng(6)
    phi, sigma_e = 0.6, 1.0
    t_total = 6000
    u = np.empty(t_total)
    u[0] = rng.normal(0, sigma_e / np.sqrt(1 - phi**2))
    for t in range(1, t_total):
        u[t] = phi * u[t - 1] + rng.normal(0, sigma_e)
    var_u = sigma_e**2 / (1 - phi**2)
    lrv = var_u * (1 + phi) / (1 - phi)
    data = RegressionData(y=u, z=np.ones((t_total, 1)))
    zbar = build_design(data, Partition(()))
    hc0 = estimate_omega(zbar, u)[0, 0]
    hac = estimate_omega(zbar, u, method="hac")[0, 0]
    assert abs(hac - lrv) < abs(hc0 - lrv)


def test_newey_west_bandwidth():
    assert newey_west_bandwidth(100) == 4
    assert newey_west_bandwidth(500) == int(np.floor(4 * 5 ** (2 / 9)))


def _unit_plugin(n):
    return PluginMatrices(a_hat=np.eye(n), sandwich=np.eye(n), omega_method="hc0")


def _pair(delta_ue, delta_re):
    part = Partition(())
    ue = CoefEstimate(delta=np.asarray(delta_ue, float), partition=part, ssr=0.0)
    re = CoefEstimate(delta=np.asarray(delta_re, float), partition=part, ssr=0.0)
    return ue, re


def test_shrinkage_constant_rules_recover_endpoints():
    ue, re = _pair([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    plug = _unit_plugin(4)
    h_one = ShrinkageFunction(evaluate=lambda x: 1.0, name="one")
    h_zero = ShrinkageFunction(evaluate=lambda x: 0.0, name="zero")
    psi = wald_distance(ue, re, plug, 10)
    assert_allclose(shrinkage_estimate(ue, re, psi, h_one).delta, ue.delta)
    assert_allclose(shrinkage_estimate(ue, re, psi, h_zero).delta, re.delta)


def test_shrinkage_james_stein_midpoint():
    # k = 4, unit A-hat, T ||d||^2 = 4 -> psi = 4, h(4) = 1 - 2/4 = 0.5
    ue, re = _pair([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0])
    plug = _unit_plugin(4)
    psi = wald_distance(ue, re, plug, 4)
    assert_allclose(psi, 4.0)
    est = shrinkage_estimate(ue, re, psi, make_james_stein(4))
    assert_allclose(est.delta, 0.5 * (ue.delta + re.delta), rtol=1e-12)
    assert est.ssr is None and est.label == "james-stein"


def test_shrinkage_positive_part_clamps_to_restricted():
    # psi = 1 < k - 2 = 2 -> h+ = 0 -> restricted estimate
    ue, re = _pair([0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0])
    plug = _unit_plugin(4)
    psi = wald_distance(ue, re, plug, 4)
    assert_allclose(psi, 1.0)
    est = shrinkage_estimate(ue, re, psi, make_positive_part(4))
    assert_allclose(est.delta, re.delta)


def test_shrinkage_psi_zero_skips_h():
    ue, re = _pair([1.0, 2.0], [1.0, 2.0])
    plug = _unit_plugin(2)

    def explode(_):
        raise AssertionError("h must not be evaluated at psi = 0")

    psi = wald_distance(ue, re, plug, 10)
    est = shrinkage_estimate(ue, re, psi, ShrinkageFunction(evaluate=explode, name="boom"))
    assert_allclose(est.delta, re.delta)


def test_shrinkage_mismatched_partitions():
    ue, _ = _pair([1.0, 2.0], [0.0, 0.0])
    re = CoefEstimate(delta=np.zeros(2), partition=Partition((3,)), ssr=0.0)
    with pytest.raises(MismatchedPartitions):
        shrinkage_estimate(ue, re, 1.0, make_james_stein(3))
    with pytest.raises(MismatchedPartitions):
        wald_distance(ue, re, _unit_plugin(2), 10)


def test_shrinkage_collinearity():
    rng = np.random.default_rng(7)
    ue, re = _pair(rng.normal(size=5), rng.normal(size=5))
    plug = _unit_plugin(5)
    est = shrinkage_estimate(ue, re, wald_distance(ue, re, plug, 20), make_positive_part(5))
    d1 = est.delta - re.delta
    d2 = ue.delta - re.delta
    cross = np.outer(d1, d2) - np.outer(d2, d1)
    assert np.max(np.abs(cross)) <= 1e-10 * np.max(np.abs(np.outer(d2, d2)))


def test_rule_factories():
    js = make_james_stein(3)
    assert_allclose(js.evaluate(1.0), 0.0)
    assert js.evaluate(1e12) == pytest.approx(1.0, abs=1e-10)
    pp = make_positive_part(5)
    for x in (0.1, 1.0, 2.9, 3.0, 10.0, 1e6):
        v = pp.evaluate(x)
        assert 0.0 <= v < 1.0
        assert v == max(0.0, js_value(5, x))
    for bad in (1, 2):
        with pytest.raises(KTooSmall):
            make_james_stein(bad)
        with pytest.raises(KTooSmall):
            make_positive_part(bad)


def js_value(k, x):
    return 1.0 - (k - 2.0) / x


def _chi2_quantile_bisect(k, prob):
    """Independent quantile via bisection on the regularized gamma CDF."""
    lo, hi = 0.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if special.gammainc(k / 2.0, mid / 2.0) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_pretest_flips_at_independent_quantile():
    rule = make_pretest(4, 0.05)
    threshold = _chi2_quantile_bisect(4, 0.95)
    assert threshold == pytest.approx(9.4877, abs=1e-3)
    assert rule.evaluate(threshold - 1e-6) == 0.0
    assert rule.evaluate(threshold + 1e-6) == 1.0
    # the piece [threshold, inf) holds the threshold itself
    assert rule.evaluate(rule.breakpoints[0]) == 1.0


def hand_written_rules(k):
    """``(rule, evaluate)`` pairs: each built-in rule with the ``evaluate``
    it had when every rule was written out by hand besides its pieces."""
    threshold = float(sps.chi2.ppf(0.95, df=k))
    cut = float(k + 1)
    return [
        (make_james_stein(k), lambda x: 1.0 - (k - 2.0) / x),
        (make_positive_part(k), lambda x: max(0.0, 1.0 - (k - 2.0) / x)),
        (make_pretest(k, 0.05), lambda x: 1.0 if x > threshold else 0.0),
        (stein_oracle._H_ONE, lambda x: np.ones_like(np.asarray(x, dtype=float))),
        (stein_oracle._H_INV, lambda x: 1.0 / np.asarray(x, dtype=float)),
        (stein_oracle._h_below(cut), lambda x: (np.asarray(x, dtype=float) < cut).astype(float)),
    ]


def test_rules_from_pieces_match_hand_written_rules():
    rng = np.random.default_rng(13)
    for k in (3, 4, 7):
        draws = rng.noncentral_chisquare(k, 3.0, size=65_536)
        # the positive part below and at k - 2, the indicator at its cut
        draws[:3] = (0.5 * (k - 2.0), k - 2.0, k + 1.0)
        scalars = [float(x) for x in draws[:200]] + [1e-9, 1e9]
        for rule, by_hand in hand_written_rules(k):
            ends = set(rule.breakpoints) if rule.name.startswith("pretest") else set()
            for x in scalars:
                if x not in ends:
                    got = rule.evaluate(x)
                    assert isinstance(got, float)
                    assert np.float64(got).tobytes() == np.float64(by_hand(x)).tobytes(), (rule.name, x)
            xs = draws[~np.isin(draws, list(ends))]
            expected = np.array([float(by_hand(x)) for x in xs])
            assert rule.evaluate(xs).tobytes() == expected.tobytes(), rule.name


def test_from_pieces_derives_breakpoints_and_rejects_overlaps():
    rule = ShrinkageFunction.from_pieces("r", ((0.0, 2.0, 1.0, 0.0), (2.0, 5.0, 0.5, 1.0), (7.0, math.inf, 1.0, -1.0)))
    assert rule.breakpoints == (2.0, 5.0, 7.0)
    assert_allclose(rule.evaluate(np.array([1.0, 2.0, 4.0, 6.0, 8.0])), [1.0, 1.0, 0.75, 0.0, 0.875])
    for bad in ((), ((1.0, 1.0, 1.0, 0.0),), ((-1.0, 1.0, 1.0, 0.0),), ((0.0, 3.0, 1.0, 0.0), (2.0, 4.0, 1.0, 0.0))):
        with pytest.raises(ValueError):
            ShrinkageFunction.from_pieces("bad", bad)


def test_wald_distance_zero_iff_restriction_satisfied():
    rng = np.random.default_rng(8)
    z = rng.normal(1.0, 1.0, size=(40, 2))
    delta0 = np.array([1.0, 2.0, 1.0, 2.0])
    y = np.concatenate([z[:20] @ delta0[:2], z[20:] @ delta0[2:]])
    data = RegressionData(y=y, z=z)  # noiseless, restriction holds exactly
    part = Partition((20,))
    rmat = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [1.0, 0.0, 0.0, 0.0]])
    restr = Restriction(matrix=rmat, rhs=np.array([0.0, 0.0, 1.0]))
    ue = fit_unrestricted(data, part)
    re = fit_restricted(data, part, restr)
    # the noiseless fit's residuals are round-off; shifted, they give a
    # nonsingular Omega_hat
    plug = build_plugin_matrices(data, dataclasses.replace(ue, residuals=ue.residuals + 1.0), restr)
    assert wald_distance(ue, re, plug, 40) <= 1e-16
    # perturb the response so the restriction fails: psi > 0
    data2 = RegressionData(y=y + rng.normal(0, 0.5, 40), z=z)
    ue2 = fit_unrestricted(data2, part)
    re2 = fit_restricted(data2, part, restr)
    plug2 = build_plugin_matrices(data2, ue2, restr)
    assert wald_distance(ue2, re2, plug2, 40) > 0.0




def test_plugin_projection_idempotency():
    rng = np.random.default_rng(9)
    z = rng.normal(1.0, 1.0, size=(60, 2))
    y = rng.normal(size=60)
    data = RegressionData(y=y, z=z)
    part = Partition((30,))
    ue = fit_unrestricted(data, part)
    restr = random_restriction(rng, 4, 3)
    for method in ("hc0", "hac"):
        plug = build_plugin_matrices(data, ue, restr, method=method)
        sandwich = plug.sandwich
        lhs = plug.a_hat @ sandwich @ plug.a_hat
        rel = np.max(np.abs(lhs - plug.a_hat)) / np.max(np.abs(plug.a_hat))
        assert rel <= 1e-6
        assert np.linalg.matrix_rank(plug.a_hat, tol=1e-8) == restr.k
    assert plug.omega_method.startswith("hac(")


def test_fits_list_every_rank_deficient_segment():
    # (z, partition, 0-based (start, end) of every segment whose rows have
    # rank below q); both fits test every segment and raise once
    rng = np.random.default_rng(2)
    short = rng.normal(size=(5, 2))  # segment 1 has one row, q = 2
    gaussian = np.random.default_rng(3).normal(size=(40, 2))
    constant = np.tile([1.0, 2.0], (8, 1))  # identical rows, rank 1
    two_bad = rng.normal(size=(30, 2))
    two_bad[:10] = [1.0, 2.0]
    two_bad[20:] = [0.5, -1.0]
    # the trend basis's last 19 rows at (60, 98): full rank, though ill-conditioned
    trend = power_trend_basis(117)
    assert np.linalg.cond(trend[98:]) > 1e5
    duplicated = rng.normal(size=(20, 3))
    duplicated[10:, 2] = duplicated[10:, 0]  # segment 2 repeats a column
    cases = [
        (short, Partition((1,)), [(0, 1)]),
        (gaussian, Partition((20,)), []),
        (gaussian, Partition((2,)), []),  # exactly q rows
        (constant, Partition(()), [(0, 8)]),
        (two_bad, Partition((10, 20)), [(0, 10), (20, 30)]),
        (trend, Partition((60, 98)), []),
        (duplicated, Partition((10,)), [(10, 20)]),
    ]
    for z, part, expected in cases:
        data = RegressionData(y=rng.normal(size=len(z)), z=z)
        restr = Restriction(matrix=np.eye(part.n_segments * z.shape[1])[:1], rhs=np.zeros(1))
        for fit in (lambda: fit_unrestricted(data, part), lambda: fit_restricted(data, part, restr)):
            if not expected:
                assert np.isfinite(fit().ssr)
                continue
            with pytest.raises(SegmentRankDeficient) as exc:
                fit()
            assert list(exc.value.segments) == expected
    assert SegmentRankDeficient("no segments").segments == ()


def test_rank_verdict_matches_lstsq_on_the_rows():
    # The verdict reads the singular values of each segment's QR factor;
    # it must reject exactly the segments whose rows lstsq finds of rank
    # below q.  Random segments of 1..3q+1 rows, about half of them of
    # rank below q by construction, columns scaled over six decades.
    deficient = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 5))
        lengths = rng.integers(1, 3 * q + 2, size=int(rng.integers(1, 4)))
        if lengths.sum() < 2:
            continue
        blocks = []
        for n in lengths:
            rank = int(rng.integers(0, q)) if rng.random() < 0.5 else q
            blocks.append(rng.normal(size=(n, rank)) @ rng.normal(size=(rank, q)))
        z = np.vstack(blocks) * 10.0 ** rng.integers(-3, 4, size=q)
        data = RegressionData(y=rng.normal(size=len(z)), z=z)
        part = Partition(tuple(np.cumsum(lengths)[:-1]))
        expected = [
            (s, e) for s, e in part.segments(len(z))
            if np.linalg.lstsq(z[s:e], data.y[s:e], rcond=None)[2] < q
        ]
        deficient += bool(expected)
        try:
            fit_unrestricted(data, part)
            got = []
        except SegmentRankDeficient as exc:
            got = list(exc.segments)
        assert got == expected, seed
    assert deficient > 100


def test_fits_match_a_60_digit_reference_on_the_trend_basis():
    # The criterion-7 series on the power-trend basis at (60, 98), whose
    # segments' rows have condition numbers 832, 2.5e4 and 4.3e5.  Least
    # squares on the segments' QR factors keeps those condition numbers;
    # normal equations squared them and put the restricted fit 1.0e-8
    # (segments 1 and 3 equal) and 1.2e-9 (2 and 3) off.
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    z = power_trend_basis(117)
    y = np.where(np.arange(117) < 60, z @ [0.5, 1.0, 0.0, 0.0], z @ [0.9, 1.6, 0.0, 0.0])
    data = RegressionData(y=y + rng.normal(0, 0.05, 117), z=z)
    part = Partition((60, 98))
    # per-segment lstsq read 1.6e-11 here; the QR route reads 9.1e-12
    assert rel_error(fit_unrestricted(data, part).delta, mp_restricted_ls(data, part)) <= 2e-11
    for segments, tol in (((1, 3), 1e-11), ((2, 3), 1e-11), ((1, 2), 2e-11)):
        restr = restriction_from_spec({"pattern": "equal-segments", "segments": list(segments)}, 2, 4)
        err = rel_error(fit_restricted(data, part, restr).delta, mp_restricted_ls(data, part, restr))
        assert err <= tol, (segments, err)


def test_omega_of_an_exact_segment_fit_warns_nothing():
    # A segment of exactly q rows fits them exactly, so its scores are
    # round-off and Omega_hat has zero eigenvalues that round-off makes
    # negative about half the time; they are clipped without a warning.
    negative = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = RegressionData(y=rng.normal(size=40), z=rng.normal(1.0, 1.0, size=(40, 3)))
        for part in (Partition((3,)), Partition((20, 37))):
            ue = fit_unrestricted(data, part)
            zbar = build_design(data, part)
            scores = zbar * ue.residuals[:, None]
            negative += np.linalg.eigvalsh(scores.T @ scores / 40)[0] < 0.0
            for method in ("hc0", "hac"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    omega = estimate_omega(zbar, ue.residuals, method=method)
                vals = np.linalg.eigvalsh(omega)
                assert vals[0] >= -1e-15 * vals[-1]
    assert negative > 0


def _count_fits(monkeypatch):
    calls = []
    for name in ("fit_unrestricted", "fit_restricted"):
        original = getattr(estimators, name)

        def counted(data, part, *rest, _original=original, _name=name):
            calls.append((_name, part.breaks))
            return _original(data, part, *rest)

        monkeypatch.setattr(estimators, name, counted)
    return calls


def test_estimate_class_matches_hand_wired_fits(monkeypatch):
    rng = np.random.default_rng(10)
    z = rng.normal(1.0, 1.0, size=(60, 3))
    y = rng.normal(size=60)
    data = RegressionData(y=y, z=z)
    restr = random_restriction(rng, 6, 4)
    ue_part, re_part, other = Partition((30,)), Partition((28,)), Partition((33,))
    calls = _count_fits(monkeypatch)
    for shrink_part in (ue_part, re_part, other):
        for omega in ("hc0", "hac"):
            calls.clear()
            got = estimate_class(data, restr, ue_part, re_part, shrink_part, omega=omega)
            # each distinct partition has one UE fit, and RE is fitted
            # apart only away from the shrink partition
            assert len(calls) == len(set(calls))
            assert len(calls) == 1 + (shrink_part != ue_part) + (shrink_part != re_part)
            ue_s = fit_unrestricted(data, shrink_part)
            re_s = fit_restricted(data, shrink_part, restr)
            plug = build_plugin_matrices(data, ue_s, restr, method=omega)
            est = got["estimates"]
            assert list(est) == ["ue", "re", "js", "pp"]
            assert np.array_equal(est["ue"].delta, fit_unrestricted(data, ue_part).delta)
            assert np.array_equal(est["re"].delta, fit_restricted(data, re_part, restr).delta)
            assert np.array_equal(got["plugin"].a_hat, plug.a_hat)
            assert got["psi"] == wald_distance(ue_s, re_s, plug, 60)
            for name, rule in (("js", make_james_stein(4)), ("pp", make_positive_part(4))):
                expected = shrinkage_estimate(ue_s, re_s, got["psi"], rule)
                assert np.array_equal(est[name].delta, expected.delta)


def test_estimate_class_computes_psi_once(monkeypatch):
    # one Wald distance steers every Stein member, and the plug-ins take the
    # UE fit itself; shrinkage members carry no residuals and no factors
    rng = np.random.default_rng(12)
    data = RegressionData(y=rng.normal(size=60), z=rng.normal(1.0, 1.0, size=(60, 3)))
    restr = random_restriction(rng, 6, 4)
    part = Partition((30,))
    calls, fits = [], []
    wald, plugins = estimators.wald_distance, estimators.build_plugin_matrices

    def counted(*args):
        calls.append(args)
        return wald(*args)

    def spied(data, ue, *rest, **kwargs):
        fits.append(ue)
        return plugins(data, ue, *rest, **kwargs)

    monkeypatch.setattr(estimators, "wald_distance", counted)
    monkeypatch.setattr(estimators, "build_plugin_matrices", spied)
    got = estimate_class(data, restr, part, part, part)
    assert len(calls) == 1 and len(fits) == 1
    assert fits[0] is got["estimates"]["ue"]
    assert got["estimates"]["re"].factors is fits[0].factors
    assert got["psi"] == wald(*calls[0])
    for name in ("js", "pp"):
        est = got["estimates"][name]
        assert est.residuals is None and est.ssr is None and est.factors is None


@pytest.mark.parametrize("m", [1, 2])
def test_estimate_class_factors_each_partition_once(monkeypatch, m):
    # one dgeqrf per segment of each partition factored: the UE fit's
    # factors serve the RE fit and the plug-ins at the shrink partition
    rng = np.random.default_rng(19)
    data = RegressionData(y=rng.normal(size=60), z=rng.normal(1.0, 1.0, size=(60, 3)))
    restr = random_restriction(rng, 3 * (m + 1), 3)
    part, other = Partition((20, 40)[:m]), Partition((22, 41)[:m])
    calls = []
    dgeqrf = estimators.lapack.dgeqrf

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return dgeqrf(*args, **kwargs)

    monkeypatch.setattr(estimators.lapack, "dgeqrf", counted)
    for re_part, factored in ((part, 1), (other, 2)):
        calls.clear()
        estimate_class(data, restr, part, re_part, part, omega="hac")
        assert len(calls) == factored * (m + 1), (re_part, calls)


def test_a_hat_is_the_wald_metric_of_the_sandwich():
    rng = np.random.default_rng(13)
    for method in ("hc0", "hac"):
        data = RegressionData(y=rng.normal(size=50), z=rng.normal(1.0, 1.0, size=(50, 2)))
        part = Partition((24,))
        restr = random_restriction(rng, 4, 2)
        plug = build_plugin_matrices(data, fit_unrestricted(data, part), restr, method=method)
        assert np.array_equal(plug.a_hat, wald_metric(plug.sandwich, restr.matrix))


def test_plugins_match_the_gram_reference_on_well_conditioned_designs():
    # The QR route and Gamma_hat^-1 Omega_hat Gamma_hat^-1 by a Cholesky
    # factor of Zbar'Zbar / T agree where squaring the condition number costs
    # nothing: Gaussian regressors with at least 8 rows per coefficient.
    rng = np.random.default_rng(18)
    for _ in range(40):
        m, q = int(rng.integers(0, 4)), int(rng.integers(1, 5))
        t_total = 8 * (m + 1) * q + int(rng.integers(0, 10))
        data = RegressionData(y=rng.normal(size=t_total), z=rng.normal(1.0, 1.0, size=(t_total, q)))
        part = Partition(tuple(sorted(rng.choice(np.arange(4 * q, t_total - 4 * q, 4 * q), size=m, replace=False))))
        zbar = build_design(data, part)
        ue = fit_unrestricted(data, part)
        restr = random_restriction(rng, zbar.shape[1], int(rng.integers(1, zbar.shape[1] + 1)))
        for method in ("hc0", "hac"):
            plug = build_plugin_matrices(data, ue, restr, method=method)
            sandwich, a_hat = gram_plugin(zbar, ue.residuals, restr, method=method)
            assert rel_error(plug.sandwich, sandwich) <= 1e-12, (m, q, method)
            assert rel_error(plug.a_hat, a_hat) <= 1e-12, (m, q, method)


def test_psi_matches_a_60_digit_reference_on_the_trend_basis():
    # The criterion-7 series with the linear-trend restriction; at (60, 98)
    # the last segment's rows have condition number 4.3e5, and Zbar'Zbar / T
    # is not numerically positive definite.  There one-ulp changes of the
    # data move the reference psi itself by up to 1.6e-11 (HAC), so that
    # partition gets a few ulps of slack.
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    z = power_trend_basis(117)
    y = np.where(np.arange(117) < 60, z @ [0.5, 1.0, 0.0, 0.0], z @ [0.9, 1.6, 0.0, 0.0])
    data = RegressionData(y=y + rng.normal(0, 0.05, 117), z=z)
    for breaks, tol in (((60,), 1e-11), ((60, 98), 3e-11)):
        part = Partition(breaks)
        restr = restriction_from_spec({"pattern": "linear-trend"}, len(breaks), 4)
        for method in ("hc0", "hac"):
            psi = estimate_class(data, restr, part, part, part, omega=method)["psi"]
            err = abs(psi - mp_wald_psi(data, part, restr, method)) / psi
            assert err <= tol, (breaks, method, err)


def test_estimate_class_builds_only_requested_members():
    # k = 2 is too small for the Stein rules; without them the class still
    # has UE, RE, the plug-ins and psi
    rng = np.random.default_rng(11)
    data = RegressionData(y=rng.normal(size=40), z=rng.normal(1.0, 1.0, size=(40, 2)))
    restr = Restriction(matrix=np.eye(4)[2:], rhs=np.zeros(2))
    part = Partition((20,))
    got = estimate_class(data, restr, part, part, part, shrinkage=())
    assert list(got["estimates"]) == ["ue", "re"]
    assert got["psi"] > 0.0
    with pytest.raises(KTooSmall):
        estimate_class(data, restr, part, part, part, shrinkage=("pp",))


@pytest.mark.parametrize("builder", [build_case1, build_case2])
def test_estimate_class_invariant_under_restriction_row_mixing(builder):
    # (R, r) and (M R, M r) state the same restriction for invertible M
    design = builder(100, n_reps=1)
    restr, part = design.restriction, design.true_partition
    rng = np.random.default_rng(14)
    for rep in range(3):
        data = simulate_dataset(design, 1.5, np.random.default_rng((14, rep)))
        mix = rng.normal(size=(restr.k, restr.k)) + restr.k * np.eye(restr.k)
        mixed = Restriction(matrix=mix @ restr.matrix, rhs=mix @ restr.rhs)
        base = estimate_class(data, restr, part, part, part)
        moved = estimate_class(data, mixed, part, part, part)

        def rel(a, b):
            return np.max(np.abs(np.subtract(a, b))) / np.max(np.abs(a))

        assert rel(base["psi"], moved["psi"]) <= 1e-9
        assert rel(base["plugin"].a_hat, moved["plugin"].a_hat) <= 1e-9
        for name in ("re", "js", "pp"):
            assert rel(base["estimates"][name].delta, moved["estimates"][name].delta) <= 1e-9, name
