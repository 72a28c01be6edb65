import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    kkt_restricted_ssr,
    lockstep_refine,
    lu_ssr_table,
    moment_prefix_sums,
    reachable_mask,
    nullspace_kernel_ssr,
    nullspace_restricted_fit,
    random_instance,
    random_restriction,
    segment_sparse_restriction,
    sequential_refine,
    suffix_dp_readout,
    suffix_dp_reference,
)
from steinbreak import (
    BudgetExceeded,
    InfeasibleConfig,
    Partition,
    RegressionData,
    Restriction,
    SearchConfig,
    SegmentRankDeficient,
    block_restriction,
    count_partitions,
    find_breaks_restricted,
    find_breaks_unrestricted,
    fit_restricted,
    fit_unrestricted,
    ssr_restricted,
    ssr_unrestricted,
)
from steinbreak import segmentation
from steinbreak.segmentation import (
    MAX_REFINE_CYCLES,
    METHOD_DP,
    METHOD_EXHAUSTIVE,
    METHOD_REFINE,
    SegmentMoments,
)


def two_regime_means():
    # scalar constant regressor; segment means 0 and 5
    y = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    return RegressionData(y=y, z=np.ones((6, 1)))


def test_ssr_unrestricted_perfect_fit_is_zero():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(12, 2))
    delta = np.array([[1.0, -2.0], [3.0, 0.5]])
    y = np.concatenate([z[:6] @ delta[0], z[6:] @ delta[1]])
    data = RegressionData(y=y, z=z)
    assert ssr_unrestricted(data, Partition((6,))) <= 1e-10


def test_ssr_unrestricted_hand_example():
    data = two_regime_means()
    assert ssr_unrestricted(data, Partition((3,))) <= 1e-10
    # breaks=(2): second segment (0,5,5,5) has mean 3.75, SSR 18.75
    assert_allclose(ssr_unrestricted(data, Partition((2,))), 18.75, rtol=1e-12)


def test_ssr_unrestricted_no_breaks_is_plain_ols():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    data = RegressionData(y=y, z=z)
    beta, *_ = np.linalg.lstsq(z, y, rcond=None)
    expected = float(np.sum((y - z @ beta) ** 2))
    assert_allclose(ssr_unrestricted(data, Partition(())), expected, rtol=1e-12)


def test_ssr_restricted_inactive_constraint():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(14, 1))
    y = rng.normal(size=14)
    data = RegressionData(y=y, z=z)
    part = Partition((7,))
    # restriction already satisfied by the unrestricted fit: r = R d_ue
    from steinbreak import fit_unrestricted

    d_ue = fit_unrestricted(data, part).delta
    rmat = np.array([[1.0, 2.0]])
    restr = Restriction(matrix=rmat, rhs=rmat @ d_ue)
    assert_allclose(
        ssr_restricted(data, part, restr), ssr_unrestricted(data, part), rtol=1e-10
    )


def test_ssr_restricted_identity_restriction_forces_zero():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(10, 1))
    y = rng.normal(size=10)
    data = RegressionData(y=y, z=z)
    restr = Restriction(matrix=np.eye(2), rhs=np.zeros(2))
    assert_allclose(
        ssr_restricted(data, Partition((5,)), restr), float(y @ y), rtol=1e-12
    )


def test_ssr_restricted_matches_nullspace_oracle():
    # equality restriction between segment coefficients, checked against an
    # independent reparameterization solve
    rng = np.random.default_rng(4)
    z = rng.normal(1.0, 1.0, size=(30, 2))
    y = rng.normal(size=30)
    data = RegressionData(y=y, z=z)
    part = Partition((10, 20))
    rmat = np.zeros((2, 6))
    rmat[0, 0], rmat[0, 4] = 1.0, -1.0  # segment 1 == segment 3, coef 1
    rmat[1, 1], rmat[1, 5] = 1.0, -1.0  # segment 1 == segment 3, coef 2
    restr = Restriction(matrix=rmat, rhs=np.zeros(2))
    _, oracle = nullspace_restricted_fit(data, part, restr)
    value = ssr_restricted(data, part, restr)
    assert_allclose(value, oracle, rtol=1e-10)
    assert value >= ssr_unrestricted(data, part) - 1e-10


def test_find_breaks_noiseless_two_regime():
    data = two_regime_means()
    res = find_breaks_unrestricted(data, SearchConfig(m=1))
    assert res.partition.breaks == (3,)
    assert res.ssr <= 1e-10
    assert res.is_global


def test_find_breaks_m_zero():
    data = two_regime_means()
    res = find_breaks_unrestricted(data, SearchConfig(m=0))
    assert res.partition.breaks == ()
    assert_allclose(res.ssr, ssr_unrestricted(data, Partition(())), rtol=1e-12)


def test_dp_matches_exhaustive_on_random_instances():
    for seed in range(40):
        data, m = random_instance(seed)
        dp = find_breaks_unrestricted(data, SearchConfig(m=m))
        ex = find_breaks_unrestricted(
            data, SearchConfig(m=m, method=METHOD_EXHAUSTIVE)
        )
        assert dp.partition.breaks == ex.partition.breaks, f"seed {seed}"
        assert dp.ssr == ex.ssr, f"seed {seed}"


def test_dp_lexicographic_tie_break():
    # all-zero response: every feasible partition has SSR 0, so the search
    # must return the lexicographically smallest break vector
    data = RegressionData(y=np.zeros(12), z=np.ones((12, 1)))
    res = find_breaks_unrestricted(data, SearchConfig(m=2))
    assert res.partition.breaks == (1, 2)
    ex = find_breaks_unrestricted(data, SearchConfig(m=2, method=METHOD_EXHAUSTIVE))
    assert ex.partition.breaks == (1, 2)
    # and so does the restricted search, whose fit is zero under r = 0
    restr = Restriction(matrix=np.array([[1.0, -1.0, 0.0]]), rhs=np.zeros(1))
    re = find_breaks_restricted(data, restr, SearchConfig(m=2, method=METHOD_EXHAUSTIVE))
    assert re.partition.breaks == (1, 2)
    # refinement moves only on strict improvement: each of its five starts
    # (the DP optimum and four lattice partitions) stops after one cycle
    cr = find_breaks_restricted(data, restr, SearchConfig(m=2, method=METHOD_REFINE))
    assert (cr.partition.breaks, cr.iterations) == ((1, 2), 5)


def test_adding_a_break_never_increases_min_ssr():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(25, 1))
    y = rng.normal(size=25)
    data = RegressionData(y=y, z=z)
    prev = np.inf
    for m in range(4):
        res = find_breaks_unrestricted(data, SearchConfig(m=m))
        assert res.ssr <= prev + 1e-12
        prev = res.ssr


def test_restricted_exhaustive_and_refine_agree_small():
    # binding zero-restriction on segment 2
    rng = np.random.default_rng(6)
    z = rng.normal(1.0, 1.0, size=(30, 1))
    y = np.concatenate([2.0 * z[:14, 0], 0.4 * z[14:, 0]]) + rng.normal(0, 0.5, 30)
    data = RegressionData(y=y, z=z)
    restr = Restriction(matrix=np.array([[0.0, 1.0]]), rhs=np.zeros(1))
    ex = find_breaks_restricted(data, restr, SearchConfig(m=1, method=METHOD_EXHAUSTIVE))
    cr = find_breaks_restricted(data, restr, SearchConfig(m=1, method=METHOD_REFINE))
    assert ex.partition.breaks == cr.partition.breaks
    assert_allclose(ex.ssr, cr.ssr, rtol=1e-12)
    assert ex.is_global and not cr.is_global


def test_restricted_vacuous_restriction_noiseless():
    # noiseless data whose truth satisfies the restriction: the restricted
    # search finds the same (zero SSR) breaks as the unrestricted one
    rng = np.random.default_rng(7)
    z = rng.normal(1.0, 1.0, size=(24, 1))
    y = np.concatenate([1.5 * z[:12, 0], np.zeros(12)])
    data = RegressionData(y=y, z=z)
    restr = Restriction(matrix=np.array([[0.0, 1.0]]), rhs=np.zeros(1))
    ue = find_breaks_unrestricted(data, SearchConfig(m=1))
    re = find_breaks_restricted(data, restr, SearchConfig(m=1, method=METHOD_EXHAUSTIVE))
    assert ue.partition.breaks == re.partition.breaks == (12,)
    assert re.ssr <= 1e-10


def test_restricted_ssr_dominates_unrestricted_everywhere():
    rng = np.random.default_rng(8)
    for seed in range(10):
        data, m = random_instance(seed + 100, m_choices=(1, 2))
        n = (m + 1) * data.n_regressors
        restr = random_restriction(rng, n, min(2, n - 1) or 1)
        cfg = SearchConfig(m=m)
        ue = find_breaks_unrestricted(data, cfg)
        assert (
            ssr_restricted(data, ue.partition, restr)
            >= ssr_unrestricted(data, ue.partition) - 1e-9
        )


def test_refine_never_worse_than_initialization():
    rng = np.random.default_rng(9)
    for seed in range(10):
        data, m = random_instance(seed + 200, m_choices=(1, 2))
        n = (m + 1) * data.n_regressors
        restr = random_restriction(rng, n, 1)
        ue = find_breaks_unrestricted(data, SearchConfig(m=m))
        init_ssr = ssr_restricted(data, ue.partition, restr)
        cr = find_breaks_restricted(data, restr, SearchConfig(m=m, method=METHOD_REFINE))
        assert cr.ssr <= init_ssr + 1e-10
        assert cr.iterations <= MAX_REFINE_CYCLES


def test_result_ssr_matches_recompute():
    data, m = random_instance(42, m_choices=(2,))
    res = find_breaks_unrestricted(data, SearchConfig(m=m))
    assert_allclose(res.ssr, ssr_unrestricted(data, res.partition), rtol=1e-8)


def test_budget_exceeded_reports_count():
    data, _ = random_instance(50, t_range=(25, 30))
    restr = Restriction(matrix=np.ones((1, 3 * data.n_regressors)), rhs=np.zeros(1))
    cfg = SearchConfig(m=2, method=METHOD_EXHAUSTIVE, exhaustive_budget=5)
    min_len = cfg.min_segment_length(data.n_obs, data.n_regressors)
    for search in (
        lambda: find_breaks_restricted(data, restr, cfg),
        lambda: find_breaks_unrestricted(data, cfg),
    ):
        with pytest.raises(BudgetExceeded) as err:
            search()
        assert err.value.partition_count == count_partitions(data.n_obs, 2, min_len)


def test_infeasible_config():
    data = RegressionData(y=np.zeros(6), z=np.ones((6, 1)))
    with pytest.raises(InfeasibleConfig):
        find_breaks_unrestricted(data, SearchConfig(m=6))


def test_moments_table_shared_between_searches():
    data, _ = random_instance(60, m_choices=(1,))
    stats = SegmentMoments(data)
    res1 = find_breaks_unrestricted(data, SearchConfig(m=1), stats=stats)
    res2 = find_breaks_unrestricted(data, SearchConfig(m=1))
    assert res1.partition.breaks == res2.partition.breaks
    assert res1.ssr == res2.ssr


def constant_block_instance(seed):
    # x is held at 0.3 over the first 30 observations, so every segment
    # inside them has rank-1 rows; their Gram matrices are singular only up
    # to round-off, and their SSR table entries can be finite
    rng = np.random.default_rng(seed)
    x = rng.normal(size=100)
    x[:30] = 0.3
    y = 1.0 + 0.5 * x + rng.normal(size=100)
    return RegressionData(y=y, z=np.column_stack([np.ones(100), x]))


def test_search_skips_rank_deficient_segments():
    cfg = SearchConfig(m=2, min_seg_frac=0.02)
    for seed in range(100):
        data = constant_block_instance(seed)
        res = find_breaks_unrestricted(data, cfg)
        for s, e in res.partition.segments(data.n_obs):
            assert np.linalg.matrix_rank(data.z[s:e]) == 2, f"seed {seed}"
        if seed < 5:
            ex = find_breaks_unrestricted(data, SearchConfig(m=2, min_seg_frac=0.02, method=METHOD_EXHAUSTIVE))
            assert ex.partition.breaks == res.partition.breaks, f"seed {seed}"
            assert ex.ssr == res.ssr, f"seed {seed}"


def test_restricted_kernel_three_ways_agree():
    # moments (the search's score, in one batch and row by row), rows
    # (fit_restricted), the KKT reference on the same moments and the
    # null-space reparameterization are independent routes to one fit
    rng = np.random.default_rng(10)
    for seed in range(40):
        data, _ = random_instance(300 + seed, t_range=(20, 40), m_choices=(1, 2), q_choices=(1, 2, 3))
        t_total, q = data.n_obs, data.n_regressors
        stats = SegmentMoments(data)
        cum = moment_prefix_sums(data)
        m = 1 + seed % 2
        n = (m + 1) * q
        # k = n leaves nothing to solve; k = 1 the widest null space
        for k in (1, n, int(rng.integers(1, n + 1))):
            restr = random_restriction(rng, n, k)
            inner = [np.sort(rng.choice(np.arange(1, t_total // q), size=m, replace=False)) for _ in range(5)]
            rows = np.array([(0, *(b * q), t_total) for b in inner])
            batched = stats.restricted_ssr(rows, restr)
            for row, moments in zip(rows, batched):
                part = Partition(tuple(int(b) for b in row[1:-1]))
                delta_ns, ssr_ns = nullspace_restricted_fit(data, part, restr)
                fit = fit_restricted(data, part, restr)
                assert moments == stats.restricted_ssr(row[None, :], restr)[0]
                assert_allclose(fit.ssr, ssr_ns, rtol=1e-10)
                assert_allclose(moments, ssr_ns, rtol=1e-10)
                assert_allclose(kkt_restricted_ssr(cum, row, restr), ssr_ns, rtol=1e-10)
                assert_allclose(fit.delta, delta_ns, rtol=1e-10, atol=1e-10 * np.max(np.abs(delta_ns)))


def random_bounds(rng, t_total, m, min_len, rows):
    """``rows`` random boundary rows ``(0, T_1, ..., T_m, T)`` with every
    segment at least ``min_len`` long."""
    out = []
    while len(out) < rows:
        b = np.sort(rng.choice(np.arange(min_len, t_total - min_len + 1), size=m, replace=False))
        if np.all(np.diff(np.r_[0, b, t_total]) >= min_len):
            out.append((0, *b, t_total))
    return np.array(out)


def test_component_scores_match_the_full_null_space_kernel():
    # one score per restriction component, summed, against one null-space
    # solve on the whole restriction, on 240 random (R, r): 200 that split
    # into segment components and 40 dense ones, r != 0 on most of them
    rng = np.random.default_rng(2026)
    n_components = []
    for i in range(240):
        q, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        t_total = int(rng.integers((m + 1) * (2 * q + 2) + 6, 81))
        data = RegressionData(y=rng.normal(size=t_total), z=rng.normal(1.0, 1.0, size=(t_total, q)))
        n = (m + 1) * q
        if i < 200:
            restr = segment_sparse_restriction(rng, m, q)
        else:
            restr = random_restriction(rng, n, int(rng.integers(1, n + 1)))
        n_components.append(len(restr.segment_components(q)))
        rows = random_bounds(rng, t_total, m, 2 * q + 2, 20)
        scores = SegmentMoments(data).restricted_ssr(rows, restr)
        assert_allclose(scores, nullspace_kernel_ssr(moment_prefix_sums(data), rows, restr), rtol=1e-12)
    assert np.bincount(n_components)[1:].min() >= 5


def test_restricted_score_bits_do_not_depend_on_the_batch():
    from steinbreak.simulation import build_case2, simulate_dataset

    rng = np.random.default_rng(18)
    design = build_case2(100, n_reps=1)
    data = simulate_dataset(design, 1.5, rng)
    restrictions = [design.restriction, segment_sparse_restriction(rng, 4, 5)]
    restrictions.append(random_restriction(rng, 25, 7))
    rows = random_bounds(rng, 100, 4, 5, 60)
    for restr in restrictions:
        stats = SegmentMoments(data)
        whole = stats.restricted_ssr(rows, restr)
        order = rng.permutation(len(rows))
        assert np.array_equal(stats.restricted_ssr(rows[order], restr), whole[order])
        for chunk in np.array_split(np.arange(len(rows)), 7):
            assert np.array_equal(SegmentMoments(data).restricted_ssr(rows[chunk], restr), whole[chunk])
        for i in (0, 17, 59):
            assert np.array_equal(stats.restricted_ssr(rows[i:i + 1], restr), whole[i:i + 1])


def test_restricted_inf_pattern_matches_the_full_null_space_kernel():
    # x is exactly zero over the first 8 observations, so some segment
    # Grams and some null-space Grams are exactly singular; the scores are
    # +inf on the rows the full kernel's LU solve finds singular and on
    # every row with a segment inside an excluded one, and nowhere else
    rng = np.random.default_rng(15)
    t_total = 30
    n_inf = 0
    for trial in range(24):
        x = rng.normal(size=t_total)
        x[:8] = 0.0
        data = RegressionData(y=rng.normal(size=t_total), z=np.column_stack([np.ones(t_total), x]))
        m = 1 + trial % 2
        restr = [
            random_restriction(rng, 2 * (m + 1), 1 + trial % 2),
            Restriction(matrix=np.eye(2 * (m + 1))[[0]], rhs=np.array([0.5])),
            segment_sparse_restriction(rng, m, 2),
            Restriction(matrix=np.eye(2 * (m + 1))[[2 * m + 1]], rhs=np.array([1.0])),
        ][trial % 4]
        rows = np.array([
            (0, *c, t_total) for c in itertools.combinations(range(2, t_total - 1), m)
            if all(b - a >= 2 for a, b in zip((0, *c), (*c, t_total)))
        ])
        stats = SegmentMoments(data)
        expected = np.isinf(nullspace_kernel_ssr(moment_prefix_sums(data), rows, restr))
        assert np.array_equal(np.isinf(stats.restricted_ssr(rows, restr)), expected), trial
        n_inf += expected.sum()
        s, e = sorted(rng.choice(np.arange(t_total + 1), size=2, replace=False))
        stats.exclude([(s, e)])
        expected |= ((rows[:, :-1] >= s) & (rows[:, 1:] <= e)).any(axis=1)
        assert np.array_equal(np.isinf(stats.restricted_ssr(rows, restr)), expected), trial
    assert n_inf > 0


def test_schur_score_leaves_vanishing_pivots_to_lu():
    # column 0: A = [[1, 1], [1, 1]] with c outside its range, where the
    # elimination's second pivot is exactly 0 and would give -inf; column
    # 1: a pivot at 1e-15 of its diagonal; column 2: a well-posed matrix
    singular = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 5.0]])
    near = np.array([[1.0, 1.0, 0.5], [1.0, 1.0 + 1e-15, 0.25], [0.5, 0.25, 3.0]])
    regular = np.array([[4.0, 1.0, 2.0], [1.0, 3.0, -1.0], [2.0, -1.0, 6.0]])
    w = np.stack([singular, near, regular], axis=2)
    scores = segmentation._schur_ssr(w.copy(), 2)
    assert scores[0] == np.inf
    assert scores[1] == segmentation._lu_ssr(near[None], 2)[0]
    assert_allclose(scores[2], 6.0 - regular[:2, 2] @ np.linalg.solve(regular[:2, :2], regular[:2, 2]), rtol=1e-14)


def test_breaks_invariant_under_response_scaling():
    # (y, r) -> (c y, c r) scales every fit and every SSR by c and c^2
    rng = np.random.default_rng(11)
    for seed in range(15):
        data, m = random_instance(400 + seed, t_range=(20, 30), m_choices=(1, 2))
        n = (m + 1) * data.n_regressors
        restr = random_restriction(rng, n, 1)
        for c in (0.01, 3.0, 1e4):
            scaled = RegressionData(y=c * data.y, z=data.z)
            scaled_restr = Restriction(matrix=restr.matrix, rhs=c * restr.rhs)
            for method in (None, METHOD_EXHAUSTIVE, METHOD_REFINE):
                if method is None:
                    find = lambda d, r: find_breaks_unrestricted(d, SearchConfig(m=m))
                else:
                    find = lambda d, r: find_breaks_restricted(d, r, SearchConfig(m=m, method=method))
                assert find(data, restr).partition.breaks == find(scaled, scaled_restr).partition.breaks, (
                    seed, c, method
                )


def test_breaks_invariant_under_regressor_basis_change():
    # z -> z B with R -> R (I kron B) maps each segment's coefficients to
    # B^-1 d_p and leaves fitted values, SSRs and breaks unchanged
    rng = np.random.default_rng(12)
    for seed in range(15):
        data, m = random_instance(500 + seed, t_range=(20, 30), m_choices=(1, 2), q_choices=(2,))
        q = data.n_regressors
        basis = rng.normal(size=(q, q)) + 2.0 * np.eye(q)
        restr = random_restriction(rng, (m + 1) * q, 2)
        moved = RegressionData(y=data.y, z=data.z @ basis)
        moved_restr = Restriction(
            matrix=restr.matrix @ np.kron(np.eye(m + 1), basis), rhs=restr.rhs
        )
        ue = find_breaks_unrestricted(data, SearchConfig(m=m))
        assert ue.partition.breaks == find_breaks_unrestricted(moved, SearchConfig(m=m)).partition.breaks
        for method in (METHOD_EXHAUSTIVE, METHOD_REFINE):
            cfg = SearchConfig(m=m, method=method)
            re = find_breaks_restricted(data, restr, cfg)
            re_moved = find_breaks_restricted(moved, moved_restr, cfg)
            assert re.partition.breaks == re_moved.partition.breaks, (seed, method)
            assert_allclose(re_moved.ssr, re.ssr, rtol=1e-9)


def test_restricted_search_skips_rank_deficient_segments():
    # R ties the slope of z = [1, x] across all three segments, so it
    # identifies the slope of a segment inside the constant block and that
    # segment's moment score is finite; fit_restricted still rejects it
    restr = Restriction(
        matrix=np.array([[0.0, 1.0, 0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, -1.0]]),
        rhs=np.zeros(2),
    )
    for seed in range(100):
        data = constant_block_instance(seed)
        methods = (METHOD_REFINE, METHOD_EXHAUSTIVE) if seed < 5 else (METHOD_REFINE,)
        for method in methods:
            res = find_breaks_restricted(data, restr, SearchConfig(m=2, min_seg_frac=0.02, method=method))
            for s, e in res.partition.segments(data.n_obs):
                assert np.linalg.matrix_rank(data.z[s:e]) == 2, (seed, method)
            assert res.ssr == fit_restricted(data, res.partition, restr).ssr


def test_refine_iterations_count_cycles_from_the_start_received():
    # alone, the refinement's first start has rank-deficient segments and
    # the search runs again after excluding them; after the unrestricted
    # search on the same stats, those exclusions are already recorded.
    # The result is the same, the cycle count is not
    data = constant_block_instance(51)
    restr = Restriction(
        matrix=np.array([[0.0, 1.0, 0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, -1.0]]),
        rhs=np.zeros(2),
    )
    cfg = SearchConfig(m=2, min_seg_frac=0.02, method=METHOD_REFINE)
    alone = find_breaks_restricted(data, restr, cfg)
    stats = SegmentMoments(data)
    find_breaks_unrestricted(data, SearchConfig(m=2, min_seg_frac=0.02), stats=stats)
    shared = find_breaks_restricted(data, restr, cfg, stats=stats)
    assert shared.partition.breaks == alone.partition.breaks
    assert shared.ssr == alone.ssr
    assert (alone.iterations, shared.iterations) == (38, 9)


def test_unrestricted_exclusions_carry_to_restricted_scores():
    # the first DP optimum of seed 6 has rank-deficient segments in the
    # constant block; once the unrestricted search has excluded them, the
    # shared table and the restricted scores are +inf inside each of them
    data = constant_block_instance(6)
    cfg = SearchConfig(m=2, min_seg_frac=0.02)
    min_len = cfg.min_segment_length(data.n_obs, data.n_regressors)
    restr = Restriction(
        matrix=np.array([[0.0, 1.0, 0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, -1.0]]),
        rhs=np.zeros(2),
    )
    stats = SegmentMoments(data)
    _, first = segmentation._suffix_dp(stats.ssr_table(min_len, 2).copy(), 2, min_len)
    with pytest.raises(SegmentRankDeficient) as info:
        fit_unrestricted(data, Partition(tuple(first)))
    segments = info.value.segments
    assert segments
    rows = np.array([(0, e, e + 40, 100) if s == 0 else (0, s, e, 100) for s, e in segments])
    assert np.isfinite(SegmentMoments(data).restricted_ssr(rows, restr)).all()
    find_breaks_unrestricted(data, cfg, stats=stats)
    tab = stats.ssr_table(min_len, 2)
    excluded = np.zeros(tab.shape, dtype=bool)
    for s, e in stats._excluded:
        excluded[s:e, s:e] = True
    for s, e in segments:
        assert excluded[s:e, s:e].all()
    kept = reachable_mask(data.n_obs, min_len, 2) & ~excluded
    assert np.isinf(tab[~kept]).all()
    assert np.array_equal(tab[kept], SegmentMoments(data).ssr_table(min_len, 2)[kept])
    assert np.isinf(stats.restricted_ssr(rows, restr)).all()


def test_refinement_starts_from_the_shared_unrestricted_search(monkeypatch):
    # with shared moments, the refinement starts from the optimum the
    # unrestricted search already found: one DP and one row fit in all
    from steinbreak.simulation import build_case1, simulate_dataset

    design = build_case1(100, n_reps=1)
    data = simulate_dataset(design, 1.0, np.random.default_rng(3))
    cfg = SearchConfig(m=design.m, min_seg_frac=design.min_seg_frac)
    rcfg = SearchConfig(m=design.m, min_seg_frac=design.min_seg_frac, method=METHOD_REFINE)
    alone = find_breaks_restricted(data, design.restriction, rcfg)
    calls = {"_suffix_dp": 0, "fit_unrestricted": 0}
    for name in calls:
        original = getattr(segmentation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(segmentation, name, counted)
    stats = SegmentMoments(data)
    find_breaks_unrestricted(data, cfg, stats=stats)
    shared = find_breaks_restricted(data, design.restriction, rcfg, stats=stats)
    assert calls == {"_suffix_dp": 1, "fit_unrestricted": 1}
    assert (shared.partition, shared.ssr, shared.iterations) == (
        alone.partition, alone.ssr, alone.iterations
    )


def test_batch_with_one_singular_candidate():
    # x is exactly zero over the first 8 observations and R touches only the
    # first intercept, so N'GN is exactly singular when segment 1 ends by 8
    rng = np.random.default_rng(15)
    x = rng.normal(size=30)
    x[:8] = 0.0
    data = RegressionData(y=rng.normal(size=30), z=np.column_stack([np.ones(30), x]))
    restr = Restriction(matrix=np.array([[1.0, 0.0, 0.0, 0.0]]), rhs=np.array([0.5]))
    stats = SegmentMoments(data)
    rows = np.array([(0, b, 30) for b in (12, 13, 6, 14, 15)])
    batched = stats.restricted_ssr(rows, restr)
    assert batched[2] == np.inf
    for i in (0, 1, 3, 4):
        assert np.isfinite(batched[i])
        assert batched[i] == stats.restricted_ssr(rows[i:i + 1], restr)[0]
        assert_allclose(batched[i], ssr_restricted(data, Partition((int(rows[i, 1]),)), restr), rtol=1e-10)


def test_nan_score_is_never_chosen(monkeypatch):
    # a NaN component score for the partition every search would pick must
    # neither be returned nor stop the search at a worse partition
    rng = np.random.default_rng(16)
    y = np.concatenate([rng.normal(0.0, 0.1, 12), rng.normal(3.0, 0.1, 12)])
    data = RegressionData(y=y, z=np.ones((24, 1)))
    restr = Restriction(matrix=np.array([[1.0, 0.0]]), rhs=np.zeros(1))
    best = find_breaks_restricted(data, restr, SearchConfig(m=1, method=METHOD_EXHAUSTIVE))
    first_len = best.partition.breaks[0]
    original = segmentation._schur_ssr

    def poisoned(w, f):
        # R zeroes segment 1, so segment 2 is a free component of its own;
        # with z = 1, its Gram is its length (segment 1's pivot is the unit pad)
        hit = w[0, 0] == 24 - first_len
        ssr = original(w, f)
        ssr[hit] = np.nan
        return ssr

    monkeypatch.setattr(segmentation, "_schur_ssr", poisoned)
    stats = SegmentMoments(data)
    assert stats.restricted_ssr(np.array([(0, first_len, 24)]), restr)[0] == np.inf
    assert np.isfinite(stats.restricted_ssr(np.array([(0, first_len + 1, 24)]), restr)[0])
    for method in (METHOD_EXHAUSTIVE, METHOD_REFINE):
        res = find_breaks_restricted(data, restr, SearchConfig(m=1, method=method))
        assert res.partition.breaks != best.partition.breaks, method
        assert abs(res.partition.breaks[0] - first_len) == 1, method


def test_exhaustive_search_memory_stays_bounded():
    # 194,580 partitions at case-2 dimensions (q = 5, m = 4) are scored in
    # fixed-size chunks, about 8 MB each; one batch would take over 1.5 GB
    from steinbreak.simulation import build_case2

    rng = np.random.default_rng(17)
    t_total = 69
    data = RegressionData(y=rng.normal(size=t_total), z=rng.normal(size=(t_total, 5)))
    restr = build_case2(100, n_reps=1).restriction
    cfg = SearchConfig(m=4, method=METHOD_EXHAUSTIVE)
    assert count_partitions(t_total, 4, cfg.min_segment_length(t_total, 5)) == 194_580
    stats = SegmentMoments(data)
    tracemalloc.start()
    try:
        res = find_breaks_restricted(data, restr, cfg, stats=stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
    assert len(res.partition.breaks) == 4


def test_batched_refinement_matches_sequential_reference():
    # the batched coordinate moves take exactly the decisions of the
    # one-candidate-at-a-time loop over the KKT reference kernel
    from steinbreak.simulation import build_case1, build_case2, simulate_dataset

    for builder in (build_case1, build_case2):
        design = builder(100, n_reps=1)
        cfg = SearchConfig(m=design.m, min_seg_frac=design.min_seg_frac, method=METHOD_REFINE)
        for i in range(30):
            rng = np.random.default_rng(np.random.SeedSequence((31, i)))
            data = simulate_dataset(design, design.sigma2_grid[i % 3], rng)
            res = find_breaks_restricted(data, design.restriction, cfg)
            breaks, cycles = sequential_refine(data, design.restriction, cfg)
            assert (res.partition.breaks, res.iterations) == (breaks, cycles), (design.label, i)


def refine_both_ways(monkeypatch, data, restriction, config, shared=False):
    """``(breaks, ssr bits, iterations)`` of a refining search, run by
    ``_refine`` and by the lock-step reference, each on fresh moments (after
    the unrestricted search on them when ``shared``)."""
    out = []
    for refine in (segmentation._refine, lockstep_refine):
        with monkeypatch.context() as mp:
            mp.setattr(segmentation, "_refine", refine)
            stats = SegmentMoments(data)
            if shared:
                find_breaks_unrestricted(data, SearchConfig(m=config.m, min_seg_frac=config.min_seg_frac), stats=stats)
            res = find_breaks_restricted(data, restriction, config, stats=stats)
            out.append((res.partition.breaks, res.ssr.hex(), res.iterations))
    return out


def test_refinement_matches_the_lockstep_reference(monkeypatch):
    # scoring each (partition, break) move once makes the lock-step loop's
    # decisions: the same breaks, SSR bits and cycle counts on random
    # instances (m 1-4, q 1-3, dense and segment-sparse R, three minimum
    # segment fractions) and on designs whose exclusions rerun the search
    for seed in range(520):
        rng = np.random.default_rng(np.random.SeedSequence((19, seed)))
        frac = (0.02, 0.05, 0.15)[seed % 3]
        data, m = random_instance(seed, t_range=(20, 70), m_choices=(1, 2, 3, 4), q_choices=(1, 2, 3))
        t_total, q = data.n_obs, data.n_regressors
        while m > 1 and (m + 1) * max(int(frac * t_total), q) > t_total:
            m -= 1
        if seed % 2:
            restr = segment_sparse_restriction(rng, m, q)
        else:
            restr = random_restriction(rng, (m + 1) * q, int(rng.integers(1, (m + 1) * q)))
        cfg = SearchConfig(m=m, min_seg_frac=frac, method=METHOD_REFINE)
        new, ref = refine_both_ways(monkeypatch, data, restr, cfg)
        assert new == ref, seed
    tied = Restriction(
        matrix=np.array([[0.0, 1.0, 0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, -1.0]]),
        rhs=np.zeros(2),
    )
    cfg = SearchConfig(m=2, min_seg_frac=0.02, method=METHOD_REFINE)
    for seed in range(40):
        data = constant_block_instance(seed)
        for shared in (False, True):
            new, ref = refine_both_ways(monkeypatch, data, tied, cfg, shared)
            assert new == ref, (seed, shared)


@pytest.mark.parametrize("n_obs", [60, 100, 300])
def test_canned_refinement_matches_the_lockstep_reference(monkeypatch, n_obs):
    from steinbreak.simulation import build_case1, build_case2, simulate_dataset

    for builder in (build_case1, build_case2):
        design = builder(n_obs, n_reps=1)
        cfg = SearchConfig(m=design.m, min_seg_frac=design.min_seg_frac, method=METHOD_REFINE)
        for i in range(12):
            rng = np.random.default_rng(np.random.SeedSequence((23, n_obs, i)))
            data = simulate_dataset(design, design.sigma2_grid[i % 3], rng)
            new, ref = refine_both_ways(monkeypatch, data, design.restriction, cfg, shared=True)
            assert new == ref, (design.label, i)


def candidate_keys(rows, min_len):
    """The ``(p, other breaks)`` candidate sets that one refinement step's
    rows ``(0, T_1, ..., T_m, T)`` make up: the one break ``p`` at which the
    rows, grouped by their other breaks, are each group's feasible range of
    ``T_p`` but one position.  Asserts that exactly one ``p`` fits."""
    fits = []
    for p in range(1, rows.shape[1] - 1):
        groups = {}
        for row in rows.tolist():
            groups.setdefault((*row[:p], *row[p + 1:]), []).append(row[p])
        if all(
            sorted(ps) == sorted(set(ps))
            and len(ps) == others[p] - others[p - 1] - 2 * min_len
            and others[p - 1] + min_len <= min(ps) <= max(ps) <= others[p] - min_len
            for others, ps in groups.items()
        ):
            fits.append({(p, others) for others in groups})
    assert len(fits) == 1
    return fits[0]


def test_refinement_scores_each_candidate_set_once(monkeypatch):
    # case 2 at T = 100: after the call that scores the starts, no step
    # scores one partition twice, no (break, other breaks) candidate set is
    # scored in two steps (so a start whose neighbours have not moved is not
    # rescored), and a search scores at most 60% of the reference's rows
    from steinbreak.simulation import build_case2, simulate_dataset

    design = build_case2(100, n_reps=1)
    cfg = SearchConfig(m=design.m, min_seg_frac=design.min_seg_frac, method=METHOD_REFINE)
    min_len = cfg.min_segment_length(design.n_obs, design.q)
    calls = []
    original = SegmentMoments.restricted_ssr

    def spy(self, bounds, restriction):
        calls.append(bounds.copy())
        return original(self, bounds, restriction)

    monkeypatch.setattr(SegmentMoments, "restricted_ssr", spy)
    rows = {"reference": 0, "new": 0}
    for i in range(12):
        rng = np.random.default_rng(np.random.SeedSequence((29, i)))
        data = simulate_dataset(design, design.sigma2_grid[i % 3], rng)
        for name, refine in (("reference", lockstep_refine), ("new", segmentation._refine)):
            with monkeypatch.context() as mp:
                mp.setattr(segmentation, "_refine", refine)
                stats = SegmentMoments(data)
                find_breaks_unrestricted(data, SearchConfig(m=design.m, min_seg_frac=design.min_seg_frac), stats=stats)
                calls.clear()
                find_breaks_restricted(data, design.restriction, cfg, stats=stats)
            rows[name] += sum(len(c) for c in calls)
        seen = set()
        for step in calls[1:]:
            assert len({tuple(r) for r in step.tolist()}) == len(step), i
            keys = candidate_keys(step, min_len)
            assert not keys & seen, i
            seen |= keys
    assert rows["new"] <= 0.6 * rows["reference"], rows


def trend_series(n_obs, brk, seed):
    # the bootstrap's setting: power-trend basis, one break, restriction true
    from steinbreak.cli import power_trend_basis

    rng = np.random.default_rng(seed)
    z = power_trend_basis(n_obs)
    y = np.where(np.arange(n_obs) < brk, z @ [0.5, 1.0, 0.0, 0.0], z @ [0.9, 1.6, 0.0, 0.0])
    return RegressionData(y=y + rng.normal(0.0, 0.05, n_obs), z=z)


def test_batch_tables_match_a_fresh_state(monkeypatch):
    # each response of a batch gets, at any block size, the table bits and
    # DP optimum of a fresh one-response state on the same (z, y), finite on
    # every segment a search with this m can read and +inf on every other
    cases = [(trend_series(124, 62, 0), 18, 1), (constant_block_instance(3), 2, 2)]
    for seed in range(5):
        data, m = random_instance(700 + seed, q_choices=(1, 2, 3))
        cases.append((data, 3, m))
    for data, min_len, m in cases:
        rng = np.random.default_rng(min_len)
        reachable = reachable_mask(data.n_obs, min_len, m)
        ys = data.y + rng.normal(size=(4, data.n_obs))
        fresh = [SegmentMoments(RegressionData(y=y, z=data.z)) for y in ys]
        for block in (segmentation._TABLE_BLOCK, 7):
            monkeypatch.setattr(segmentation, "_TABLE_BLOCK", block)
            batch = SegmentMoments(RegressionData(y=ys, z=data.z))
            tabs = batch.ssr_table(min_len, m)
            assert tabs.shape == (4, data.n_obs, data.n_obs)
            for b, alone in enumerate(fresh):
                tab = alone.ssr_table(min_len, m)
                assert np.isinf(tab[~reachable]).all()
                assert np.array_equal(tabs[b], tab)
                try:
                    optimum = alone.dp_optimum(min_len, m)
                except SegmentRankDeficient:
                    continue
                assert batch.dp_optimum(min_len, m, b) == optimum


def test_batch_keeps_each_response_search_state():
    # the unrestricted search on seed 6 excludes rank-deficient segments;
    # in a batch they stay on the responses whose fits rejected them, and
    # every response finds the partition it finds alone
    data = constant_block_instance(6)
    cfg = SearchConfig(m=2, min_seg_frac=0.02)
    min_len = cfg.min_segment_length(data.n_obs, data.n_regressors)
    alone = find_breaks_unrestricted(data, cfg)
    ys = np.stack([data.y, data.y + np.random.default_rng(6).normal(size=data.n_obs)])
    batch = RegressionData(y=ys, z=data.z)
    stats = SegmentMoments(batch)
    stats.exclude([(0, 3)], [1])
    tab = stats.ssr_table(min_len, 2)
    assert np.isinf(tab[1, 0:3, 0:3]).all()
    assert np.array_equal(tab[0], SegmentMoments(data).ssr_table(min_len, 2))
    found = find_breaks_unrestricted(batch, cfg, stats=stats).results
    assert (found[0].partition, found[0].ssr) == (alone.partition, alone.ssr)
    assert len(stats._excluded) > 1
    for (s, e), mask in zip(stats._excluded, stats._excluded_for):
        assert np.isinf(stats.ssr_table(min_len, 2)[mask, s:e, s:e]).all()
    for b, extra in ((0, []), (1, [(0, 3)])):
        lone = SegmentMoments(RegressionData(y=ys[b], z=data.z))
        lone.exclude(extra)
        other = find_breaks_unrestricted(RegressionData(y=ys[b], z=data.z), cfg, stats=lone)
        assert (found[b].partition, found[b].ssr) == (other.partition, other.ssr)
        assert [seg for seg, mask in zip(stats._excluded, stats._excluded_for) if mask[b]] == lone._excluded


def test_batch_restricted_scores_match_a_fresh_state():
    # every response of a batch scores restricted partitions bit for bit
    # as a fresh state of that response alone, asked alone or with others
    rng = np.random.default_rng(21)
    linear_trend = block_restriction(1, 4, [("zero", 1, (3, 4)), ("zero", 2, (3, 4))])
    cases = [(trend_series(124, 62, 0), linear_trend, 1)]
    for seed in range(4):
        data, _ = random_instance(900 + seed, t_range=(30, 50), q_choices=(2, 3))
        cases.append((data, segment_sparse_restriction(rng, 2, data.n_regressors), 2))
    for data, restr, m in cases:
        t_total = data.n_obs
        min_len = SearchConfig(m=m).min_segment_length(t_total, data.n_regressors)
        breaks = next(segmentation._partition_chunks(t_total, m, min_len))
        bounds = segmentation._with_ends(breaks, t_total)
        ys = data.y + rng.normal(size=(3, t_total))
        batch = SegmentMoments(RegressionData(y=ys, z=data.z))
        scores = batch.restricted_ssr(bounds, restr)
        assert scores.shape == (3, len(bounds))
        for b, y in enumerate(ys):
            fresh = SegmentMoments(RegressionData(y=y, z=data.z)).restricted_ssr(bounds, restr)
            assert np.array_equal(scores[b], fresh)
            assert np.array_equal(batch.restricted_ssr(bounds, restr, b), fresh)
            assert np.array_equal(batch.restricted_ssr(bounds, restr, [2, b])[1], fresh)


def test_set_responses_keeps_only_the_factors():
    # a keep_factors state factors each segment Gram once for every later
    # response set, and each set searches as a fresh state would
    data = constant_block_instance(6)
    cfg = SearchConfig(m=2, min_seg_frac=0.02)
    min_len = cfg.min_segment_length(data.n_obs, data.n_regressors)
    stats = SegmentMoments(data, keep_factors=True)
    find_breaks_unrestricted(data, cfg, stats=stats)
    assert stats._excluded and stats._factors
    factors = stats._factors
    ys = data.y + np.random.default_rng(8).normal(size=(2, data.n_obs))
    stats.set_responses(ys)
    assert stats._excluded == [] and stats._optima == {} and stats._factors is factors
    for b, y in enumerate(ys):
        fresh = SegmentMoments(RegressionData(y=y, z=data.z))
        assert np.array_equal(stats.ssr_table(min_len, 2)[b], fresh.ssr_table(min_len, 2))


@pytest.mark.parametrize("const", [0.3, 1.0])
def test_table_inf_pattern_matches_lu_reference(const):
    # near-singular Grams of the constant block go to the LU solve, so of
    # the segments a search with m breaks reads, exactly those with an
    # exact LU zero pivot are +inf; every other entry is +inf
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=100)
        x[:30] = const
        y = 1.0 + 0.5 * x + rng.normal(size=100)
        data = RegressionData(y=y, z=np.column_stack([np.ones(100), x]))
        reference = np.isinf(lu_ssr_table(data, 2))
        for m in (1, 2, 3):
            reachable = reachable_mask(100, 2, m)
            tab = SegmentMoments(data).ssr_table(2, m)
            assert np.array_equal(np.isinf(tab[reachable]), reference[reachable]), (seed, m)
            assert np.isinf(tab[~reachable]).all(), (seed, m)


def test_table_inf_pattern_with_singular_grams_on_several_start_rows():
    # integer regressors keep the prefix sums exact, so the Grams of the
    # segments inside the constant rows 40..54 are exactly singular, and
    # those reaching into the 1e-9-collinear rows 55..69 nearly so; one
    # block sends segments of many start rows to the LU solve at once, and
    # each entry is that of its segment solved alone
    rng = np.random.default_rng(3)
    x = rng.integers(-3, 4, size=100).astype(float)
    x[40:55] = 2.0
    x[55:70] = 2.0 + 1e-9 * rng.normal(size=15)
    data = RegressionData(y=rng.normal(size=100), z=np.column_stack([np.ones(100), x]))
    reference = np.isinf(lu_ssr_table(data, 2))
    for m in (2, 3):
        stats = SegmentMoments(data)
        tab = stats.ssr_table(2, m)
        reachable = reachable_mask(100, 2, m)
        assert np.array_equal(np.isinf(tab[reachable]), reference[reachable]), m
        assert np.isinf(tab[~reachable]).all(), m
        spans = []
        for starts, ends, _, fallback in stats._factor_blocks(2, m):
            got = tab[starts[fallback], ends[fallback] - 1]
            alone = [
                max(segmentation._lu_ssr(stats._cum[0, [e]] - stats._cum[0, s], 2)[0], 0.0)
                for s, e in zip(starts[fallback], ends[fallback])
            ]
            assert np.array_equal(got, alone), m
            spans.append((len(np.unique(starts[fallback][np.isinf(got)])), np.isfinite(got).sum()))
        assert max(spans) >= (20, 100), spans


def test_coarse_lattice_needs_no_feasibility_filter():
    # a stride of at least min_len and a last point of at most T - min_len
    # make every m-subset of the lattice feasible: the lattice equals the
    # feasible subsets of every stride multiple below T, less the skip
    for t_total in range(2, 120):
        for min_len in range(1, 30):
            stride = max(min_len, t_total // segmentation._COARSE_LATTICE)
            for m in range(1, 6):
                feasible = [
                    combo for combo in itertools.combinations(range(stride, t_total, stride), m)
                    if all(b - a >= min_len for a, b in zip((0, *combo), (*combo, t_total)))
                ]
                for skip in {feasible[len(feasible) // 2] if feasible else (), (1,) * m}:
                    expected = [combo for combo in feasible if combo != skip]
                    assert segmentation._coarse_lattice(t_total, m, min_len, skip) == expected


def test_trend_table_matches_per_segment_lstsq():
    # moment differences lose digits on the trend basis (about 1.1e-5 here,
    # by Cholesky or by LU); every entry a search with m breaks reads stays
    # within 2e-5 of lstsq, with a floor for tiny SSRs, and every other
    # entry is +inf
    data = trend_series(117, 60, 7)
    min_len = 17
    floor = 1e-10 * float(data.y @ data.y)
    ref = np.full((data.n_obs, data.n_obs), np.nan)
    for s in range(data.n_obs):
        for e in range(s + min_len, data.n_obs + 1):
            _, res, *_ = np.linalg.lstsq(data.z[s:e], data.y[s:e], rcond=None)
            ref[s, e - 1] = float(res[0])
    for m in (1, 2, 3):
        reachable = reachable_mask(data.n_obs, min_len, m)
        tab = SegmentMoments(data).ssr_table(min_len, m)
        assert np.isinf(tab[~reachable]).all(), m
        for s, e1 in np.argwhere(reachable):
            assert abs(tab[s, e1] - ref[s, e1]) <= 2e-5 * max(ref[s, e1], floor), (m, s, e1 + 1)


def test_one_off_table_memory_stays_bounded():
    # at T = 2000 the table is 32 MB; m = 5 reaches 1.39e6 segments, whose
    # factors would take about 130 MB, so they are not kept and each block
    # is factored in turn
    rng = np.random.default_rng(18)
    data = RegressionData(y=rng.normal(size=2000), z=rng.normal(size=(2000, 4)))
    stats = SegmentMoments(data)
    tracemalloc.start()
    try:
        tab = stats.ssr_table(100, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 36e6, f"peak {peak / 1e6:.1f} MB"
    assert stats._factors == {}
    reachable = reachable_mask(2000, 100, 5)
    assert reachable.sum() > 1.39e6
    assert np.isfinite(tab[reachable]).all() and np.isinf(tab[~reachable]).all()
    assert np.isfinite(tab[0, 99]) and np.isinf(tab[0, 98])


def test_vectorised_dp_matches_row_by_row_recursion(monkeypatch):
    # every best[j, c] is bit for bit the row-by-row minimum, also when a
    # level is split into chunks of rows; the table is finite on every
    # segment the search reads and +inf on every other
    rng = np.random.default_rng(19)
    for seed in range(30):
        data, m = random_instance(800 + seed, t_range=(12, 40), m_choices=(1, 2, 3))
        min_len = max(2, data.n_regressors)
        if (m + 1) * min_len > data.n_obs:
            continue
        tab = SegmentMoments(data).ssr_table(min_len, m).copy()
        reachable = reachable_mask(data.n_obs, min_len, m)
        assert np.isfinite(tab[reachable]).all() and np.isinf(tab[~reachable]).all(), seed
        tab[rng.random(tab.shape) < 0.05] = np.inf
        tab[np.isfinite(tab)] = np.round(tab[np.isfinite(tab)], 1)  # ties
        expected = suffix_dp_reference(tab, m, min_len)
        for chunk in (segmentation._DP_CHUNK, 1, 37):
            monkeypatch.setattr(segmentation, "_DP_CHUNK", chunk)
            try:
                best, _ = segmentation._suffix_dp(tab, m, min_len)
            except SegmentRankDeficient:
                assert not np.isfinite(expected[0, m])
                continue
            assert np.array_equal(best, expected), (seed, chunk)


def test_reachable_segments_match_enumeration(monkeypatch):
    # the segments built for an m-break search are exactly those of some
    # feasible partition, in row-major order and in blocks of whole start
    # rows, also when (m + 1) min_len == T leaves a single partition
    monkeypatch.setattr(segmentation, "_TABLE_BLOCK", 7)
    grid = [(t, ml, m) for t in range(2, 25) for ml in range(1, 6) for m in range(5) if (m + 1) * ml <= t]
    assert sum((m + 1) * ml == t for t, ml, m in grid) > 20
    for t_total, min_len, m in grid:
        expected = set()
        for breaks in itertools.combinations(range(1, t_total), m):
            bounds = (0, *breaks, t_total)
            if all(b - a >= min_len for a, b in zip(bounds, bounds[1:])):
                expected.update(zip(bounds, bounds[1:]))
        blocks = list(segmentation._segment_blocks(t_total, min_len, m))
        built = [seg for starts, ends in blocks for seg in zip(starts.tolist(), ends.tolist())]
        assert built == sorted(expected), (t_total, min_len, m)
        assert all(prev[0][-1] < nxt[0][0] for prev, nxt in zip(blocks, blocks[1:]))
        mask = np.zeros((t_total, t_total), dtype=bool)
        mask[tuple(np.array([(s, e - 1) for s, e in expected]).T)] = True
        assert np.array_equal(reachable_mask(t_total, min_len, m), mask), (t_total, min_len, m)


def test_searches_match_a_full_table_reference():
    # the DP and exhaustive search pick the breaks, and fit the SSR, of the
    # row-by-row suffix recursion over a full LU table with the same
    # exclusions, on random instances with exactly collinear blocks
    checked = 0
    for seed in range(240):
        data, m = random_instance(1200 + seed, t_range=(12, 45), m_choices=(0, 1, 2, 3, 4), q_choices=(1, 2, 3))
        cfg = SearchConfig(m=m, min_seg_frac=0.1)
        min_len = cfg.min_segment_length(data.n_obs, data.n_regressors)
        if (m + 1) * min_len > data.n_obs:
            continue
        if seed % 3 == 0:
            z = np.array(data.z)
            block = slice(0, data.n_obs // 3)
            z[block, -1] = 0.3 * z[block, 0] if data.n_regressors > 1 else 0.0
            data = RegressionData(y=data.y, z=z)
        tab = lu_ssr_table(data, min_len)
        expected = SegmentRankDeficient
        while np.isfinite(best := suffix_dp_reference(tab, m, min_len))[0, m]:
            partition = Partition(suffix_dp_readout(tab, best, m, min_len))
            try:
                expected = (partition.breaks, fit_unrestricted(data, partition).ssr)
                break
            except SegmentRankDeficient as exc:
                for s, e in exc.segments:
                    tab[s:e, s:e] = np.inf
        for method in (METHOD_DP, METHOD_EXHAUSTIVE):
            search = SearchConfig(m=m, min_seg_frac=0.1, method=method)
            if expected is SegmentRankDeficient:
                with pytest.raises(SegmentRankDeficient):
                    find_breaks_unrestricted(data, search)
                continue
            res = find_breaks_unrestricted(data, search)
            assert (res.partition.breaks, res.ssr) == expected, (seed, method)
        checked += 1
    assert checked >= 200


def test_one_break_search_factors_linear_in_t(monkeypatch):
    # an m = 1 search builds only the segments [0, b) and [b, T):
    # 2 (T - 2 min_len + 1) of them, and the whole sample alone at m = 0
    calls = []
    original = segmentation._cholesky_rows

    def counted(grams, q):
        calls.append(grams.shape[1])
        return original(grams, q)

    monkeypatch.setattr(segmentation, "_cholesky_rows", counted)
    rng = np.random.default_rng(20)
    for t_total, frac, m in ((60, 0.15, 1), (400, 0.05, 1), (1500, 0.1, 1), (400, 0.05, 0)):
        data = RegressionData(y=rng.normal(size=t_total), z=rng.normal(size=(t_total, 3)))
        cfg = SearchConfig(m=m, min_seg_frac=frac)
        min_len = cfg.min_segment_length(t_total, 3)
        calls.clear()
        find_breaks_unrestricted(data, cfg)
        assert sum(calls) == (2 * (t_total - 2 * min_len + 1) if m else 1), (t_total, m)
    assert len(calls) == 1

