import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats as sps

from helpers import (
    central_terms,
    explicit_inverse_scaffold,
    orthonormal_rows,
    reference_adr_class,
    reference_adr_james_stein,
    reference_adr_positive_part,
    reference_rule_expectation,
)
from steinbreak import (
    DivergentMoment,
    KTooSmall,
    NonConvergence,
    Restriction,
    ShrinkageFunction,
    adr_class,
    adr_james_stein,
    adr_positive_part,
    adr_restricted,
    adr_unrestricted,
    dominance_check,
    empirical_noncentrality,
    make_james_stein,
    make_positive_part,
    make_pretest,
    make_scaffold,
    make_weight,
    nc_chi2_expectation,
    nc_chi2_moment,
    random_dominant_scaffold,
    random_scaffold,
    rule_expectation,
    scaffold_at_delta,
)
from steinbreak import risk, stein_oracle
from steinbreak.linalg import pd_factor, sandwich, symmetric_rank, wald_metric

H_ONE = ShrinkageFunction(evaluate=lambda x: 1.0, name="one")
H_ZERO = ShrinkageFunction(evaluate=lambda x: 0.0, name="zero")


# ---------------------------------------------------------------------------
# Moment kernels


def test_central_inverse_moments_closed_form():
    assert abs(nc_chi2_moment("inverse_first", 6, 0.0) - 0.25) <= 1e-10
    assert abs(nc_chi2_moment("inverse_second", 8, 0.0) - 1.0 / 24.0) <= 1e-10
    assert abs(nc_chi2_moment("inverse_first", 3, 0.0) - 1.0) <= 1e-10


def test_inverse_first_noncentral_value():
    # df=6, delta=2: independent quadrature against the noncentral density
    series = nc_chi2_moment("inverse_first", 6, 2.0)
    quad = nc_chi2_expectation(lambda x: 1.0 / x, 6, 2.0)
    assert abs(series - quad) <= 1e-9
    assert series == pytest.approx(0.1839, abs=5e-5)


def test_moment_kernels_match_quadrature():
    for df, delta in [(5, 0.7), (8, 3.0), (11, 12.5)]:
        assert nc_chi2_moment("inverse_first", df, delta) == pytest.approx(
            nc_chi2_expectation(lambda x: 1.0 / x, df, delta), abs=1e-9
        )
        assert nc_chi2_moment("inverse_second", df, delta) == pytest.approx(
            nc_chi2_expectation(lambda x: 1.0 / x**2, df, delta), abs=1e-9
        )
        c = df / 2.0
        for power in (0, -1, -2):
            kernel = nc_chi2_moment("trunc_below", df, delta, c=c, power=power)
            direct = nc_chi2_expectation(
                lambda x: x**power * (x < c), df, delta, breakpoints=(c,)
            )
            assert kernel == pytest.approx(direct, abs=1e-8)


def test_moment_large_noncentrality_window():
    # the Poisson bulk sits near delta/2 = 5000; the window must find it
    value = nc_chi2_moment("inverse_first", 6, 10_000.0)
    # E[1/X] ~ 1/(df + delta) for large delta
    assert value == pytest.approx(1.0 / (6 + 10_000.0), rel=1e-3)


def poisson_window_reference(kind, df, delta, *, tol=1e-10, c=None, power=0):
    """``nc_chi2_moment`` with its Poisson terms from ``scipy.stats.poisson``:
    the ``cdf``/``sf`` tail bounds and ``pmf`` weights the kernel replaced
    by the ufuncs behind them."""
    terms = central_terms(kind, float(df), power, c)
    lam = delta / 2.0
    if lam == 0.0:
        return float(terms(np.array([0.0]))[0])
    radius = 10.0 * math.sqrt(lam) + 20.0
    while True:
        jlo = max(0, int(math.floor(lam - radius)))
        jhi = int(math.ceil(lam + radius))
        err_below = sps.poisson.cdf(jlo - 1, lam) * terms(np.array([0.0]))[0] if jlo > 0 else 0.0
        err_above = sps.poisson.sf(jhi, lam) * terms(np.array([float(jhi + 1)]))[0]
        if err_below + err_above <= tol:
            break
        radius *= 2.0
    js = np.arange(jlo, jhi + 1, dtype=float)
    return float(np.sum(sps.poisson.pmf(js, lam) * terms(js)))


GRID_DFS = (3, 5, 6, 7, 8, 10, 14)
# the last three put jlo > 0, so the lower tail bound runs
GRID_DELTAS = (0.0, 1e-9, 0.37, 4.0, 20.0, 63.2, 250.0, 1000.0, 9876.5)


def moment_cases(df):
    """The (kind, keyword arguments) of every moment checked at ``df``."""
    cases = [("inverse_first", {}), ("inverse_second", {})]
    return cases + [
        ("trunc_below", {"c": float(c), "power": p})
        for c in (0.5, 2.0, df - 2.0, 30.0)
        for p in (0, -1, -2)
    ]


def test_moment_kernel_matches_poisson_reference_bitwise():
    count = 0
    for df in GRID_DFS:
        for kind, kwargs in moment_cases(df):
            for delta in GRID_DELTAS:
                try:
                    value = nc_chi2_moment(kind, df, delta, **kwargs)
                except DivergentMoment:
                    continue
                reference = poisson_window_reference(kind, df, delta, **kwargs)
                assert value == reference, (kind, df, delta, kwargs)
                count += 1
    assert count == 837


def test_moment_batch_matches_scalar_calls_bitwise():
    # the grid above as one batch per noncentrality, the inverse kinds as
    # trunc_below entries at c = inf
    grid = []
    for df in GRID_DFS:
        for kind, kwargs in moment_cases(df):
            if kind == "trunc_below":
                c, power = kwargs["c"], kwargs["power"]
            else:
                c, power = math.inf, -1 if kind == "inverse_first" else -2
            if df > 2 * abs(power):
                grid.append((df, c, power, kind, kwargs))
    assert len(grid) * len(GRID_DELTAS) == 837
    dfs, cs, powers, _, _ = zip(*grid)
    for delta in GRID_DELTAS:
        batch = nc_chi2_moment("trunc_below", dfs, delta, c=cs, power=powers)
        assert batch.shape == (len(grid),)
        for value, (df, _, _, kind, kwargs) in zip(batch.tolist(), grid):
            assert value == nc_chi2_moment(kind, df, delta, **kwargs), (kind, df, delta, kwargs)


def test_moment_batch_broadcasts():
    dfs = np.array([[5], [8], [11]])
    cs = (1.5, 7.0, math.inf)
    for delta in (0.0, 3.0, 700.0):
        batch = nc_chi2_moment("trunc_below", dfs, delta, c=cs, power=-1)
        assert batch.shape == (3, 3)
        for i, df in enumerate((5, 8, 11)):
            for j, c in enumerate(cs):
                assert batch[i, j] == nc_chi2_moment("trunc_below", df, delta, c=c, power=-1)
        inverse = nc_chi2_moment("inverse_second", [6, 9], delta)
        assert inverse.tolist() == [nc_chi2_moment("inverse_second", df, delta) for df in (6, 9)]
    assert type(nc_chi2_moment("inverse_first", np.int64(6), 3.0)) is float


def test_moment_batch_entry_grows_its_own_window(monkeypatch):
    # at a tiny tol the inverse moment's upper tail bound fails on the
    # shared window while the truncated moment's, far smaller, holds
    grown = []

    def spy(request, lam, radius, delta, tol):
        grown.append(radius)
        return series(request, lam, radius, delta, tol)

    series = risk._grown_series
    monkeypatch.setattr(risk, "_grown_series", spy)
    dfs, cs, powers = (6, 6), (math.inf, 0.5), (-2, 0)
    for exponent in range(20, 300, 5):
        tol = 10.0**-exponent
        grown.clear()
        batch = nc_chi2_moment("trunc_below", dfs, 4.0, tol=tol, c=cs, power=powers)
        if grown:
            break
    assert len(grown) == 1
    scalar = [
        nc_chi2_moment("trunc_below", df, 4.0, tol=tol, c=c, power=p)
        for df, c, p in zip(dfs, cs, powers)
    ]
    assert len(grown) == 2  # only the inverse moment grows in its scalar call too
    assert batch.tolist() == scalar


def test_moment_batch_rejects_each_bad_entry_like_its_scalar_call(monkeypatch):
    def no_series(*args):
        raise AssertionError("series work before every entry was checked")

    monkeypatch.setattr(risk, "_window", no_series)
    bad = [
        ((8, 4), (2.0, 2.0), (0, -2), DivergentMoment),
        ((8, 0), (2.0, 2.0), (0, 0), DivergentMoment),
        ((8, 8), (2.0, -1.0), (0, 0), ValueError),
        ((8, 8), (2.0, math.nan), (0, 0), ValueError),
        ((8, 8), (2.0, 0.0), (0, 0), ValueError),
        ((8, 8), (2.0, 2.0), (0, -3), ValueError),
        ((8, 7.5), (2.0, 2.0), (0, 0), ValueError),
    ]
    for dfs, cs, powers, error in bad:
        with pytest.raises(error) as batch_error:
            nc_chi2_moment("trunc_below", dfs, 1.0, c=cs, power=powers)
        with pytest.raises(error) as scalar_error:
            nc_chi2_moment("trunc_below", dfs[1], 1.0, c=cs[1], power=powers[1])
        assert str(batch_error.value) == str(scalar_error.value)
    with pytest.raises(DivergentMoment):
        nc_chi2_moment("inverse_second", (6, 4), 1.0)
    with pytest.raises(ValueError):
        nc_chi2_moment("trunc_below", (8, 8), 1.0, c=None, power=0)
    for empty in ((), np.empty(0, dtype=int), np.empty((2, 0), dtype=int)):
        with pytest.raises(ValueError):
            nc_chi2_moment("trunc_below", empty, 1.0, c=2.0, power=0)


def test_moment_batch_gives_up_where_its_scalar_calls_do():
    # the window first exceeds 100000 terms between these noncentralities
    dfs, cs, powers = (6, 8, 6), (math.inf, 9.0, 9.0), (-1, 0, -2)
    outcomes = []
    for delta in (4.99e7, 4.9966e7, 5.0e7, 1e9):
        try:
            scalar = [
                nc_chi2_moment("trunc_below", df, delta, c=c, power=p)
                for df, c, p in zip(dfs, cs, powers)
            ]
        except NonConvergence:
            with pytest.raises(NonConvergence):
                nc_chi2_moment("trunc_below", dfs, delta, c=cs, power=powers)
            outcomes.append(False)
        else:
            assert nc_chi2_moment("trunc_below", dfs, delta, c=cs, power=powers).tolist() == scalar
            outcomes.append(True)
    assert outcomes == [True, False, False, False]


def test_declared_jump_matches_noncentral_cdf():
    # a rule without pieces gets its jump only from breakpoints
    indicator = lambda x: float(x < 4.0)  # noqa: E731
    delta = 1.7531105284834456
    declared = nc_chi2_expectation(indicator, 7, delta, breakpoints=(4.0,))
    assert abs(declared - sps.ncx2.cdf(4.0, 7, delta)) <= 1e-11


def rules_with_pieces(k):
    """Every rule the package builds with pieces, for restriction rank k."""
    return [
        make_james_stein(k),
        make_positive_part(k),
        make_pretest(k, 0.05),
        make_pretest(k, 0.5),
        stein_oracle._H_ONE,
        stein_oracle._H_INV,
        stein_oracle._h_below(float(k + 1)),
    ]


def piecewise_rule(cut, a, b, below):
    """``a + b/x`` on [0, cut) when ``below``, on [cut, inf) otherwise."""
    lo, hi = (0.0, cut) if below else (cut, math.inf)
    return ShrinkageFunction.from_pieces(f"piecewise({cut:g})", ((lo, hi, a, b),))


def without_pieces(rule):
    return dataclasses.replace(rule, pieces=None)


def test_pieces_reproduce_evaluate():
    rng = np.random.default_rng(50)
    xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), size=400))
    for k in (3, 4, 7):
        for rule in rules_with_pieces(k):
            for x in xs:
                direct = float(np.asarray(rule.evaluate(x), dtype=float))
                by_pieces = sum(a + b / x for lo, hi, a, b in rule.pieces if lo <= x < hi)
                assert by_pieces == pytest.approx(direct, rel=1e-14, abs=1e-300), (rule.name, x)


def test_kernel_route_matches_quadrature():
    # the kernels against quadrature on the same evaluate: noncentrality 0
    # to 5000, cuts at 1e-3 and next to df, k = 3; E[h^2] for the rules
    # whose squares adr_class takes, E[h] for every rule
    for k, df in ((3, 5), (3, 7), (6, 10)):
        js, pp, pretest, _, one, inv, below = rules_with_pieces(k)
        cuts = [
            piecewise_rule(1e-3, 1.0, -1e-3, below=False),
            piecewise_rule(df - 1e-3, 1.0, -(df - 1e-3), below=False),
            piecewise_rule(df + 1e-3, 0.5, 2.0, below=True),
        ]
        cases = [(rule, sq) for rule in (js, pp, pretest, *cuts) for sq in (False, True)]
        cases += [(rule, False) for rule in (one, inv, below)]
        for rule, squared in cases:
            for delta in (0.0, 4.0, 20.0, 5000.0):
                kernel = rule_expectation(rule, df, delta, squared=squared)
                quad = rule_expectation(without_pieces(rule), df, delta, squared=squared)
                assert kernel == pytest.approx(quad, rel=1e-10), (rule.name, k, df, delta, squared)


def test_kernel_route_uses_no_quadrature(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("quadrature called")

    sc, w = random_dominant_scaffold(8, 4, 51)
    monkeypatch.setattr("steinbreak.risk.nc_chi2_expectation", fail)
    for rule in rules_with_pieces(4)[:4]:
        assert np.isfinite(adr_class(rule, scaffold_at_delta(sc, 3.0), w).total)
    with pytest.raises(AssertionError):
        adr_class(H_ONE, sc, w)


def test_pieces_of_a_reciprocal_need_the_moment():
    # E[1/X] does not exist at df = 2, so the kernel route refuses it
    with pytest.raises(DivergentMoment):
        rule_expectation(stein_oracle._H_INV, 2, 1.0)


def test_moment_divergence_guards():
    with pytest.raises(DivergentMoment):
        nc_chi2_moment("inverse_first", 2, 0.0)
    with pytest.raises(DivergentMoment):
        nc_chi2_moment("inverse_second", 4, 1.0)
    with pytest.raises(DivergentMoment):
        nc_chi2_moment("trunc_below", 4, 1.0, c=2.0, power=-2)
    with pytest.raises(ValueError):
        nc_chi2_moment("trunc_below", 8, 1.0, c=-1.0, power=0)


def test_moment_matches_mc_oracle():
    rng = np.random.default_rng(0)
    n = 1_000_000
    cases = [
        ("inverse_first", 6, 2.0, lambda x: 1.0 / x),
        ("inverse_second", 10, 5.0, lambda x: 1.0 / x**2),
        ("trunc_below", 8, 3.0, None),
    ]
    for kind, df, delta, fn in cases:
        draws = rng.noncentral_chisquare(df, delta, size=n)
        if kind == "trunc_below":
            c = 6.0
            vals = (draws < c).astype(float)
            kernel = nc_chi2_moment(kind, df, delta, c=c, power=0)
        else:
            vals = fn(draws)
            kernel = nc_chi2_moment(kind, df, delta)
        err = abs(vals.mean() - kernel)
        assert err <= 3.0 * vals.std() / np.sqrt(n), kind


# ---------------------------------------------------------------------------
# Scaffold construction


def test_scaffold_hypotheses_hold():
    for seed in range(5):
        sc = random_scaffold(8, 4, seed)
        errors = sc.hypothesis_errors()
        assert max(errors.values()) <= 1e-8, errors


def test_scaffold_lambda_blocks_singular():
    sc = random_scaffold(8, 4, 1)
    assert symmetric_rank(sc.lambda11) == 4 < 8
    assert symmetric_rank(sc.sigma22) < 8
    vals11 = np.linalg.eigvalsh(sc.lambda11)
    assert vals11[0] >= -1e-10 * vals11[-1]  # PSD up to round-off


def test_scaffold_delta_zero_iff_mu_zero():
    sc = random_scaffold(6, 3, 2, mu_scale=0.0)
    assert sc.delta == 0.0
    sc2 = random_scaffold(6, 3, 2, mu_scale=1.0)
    assert sc2.delta > 0.0


def test_scaffold_at_delta_rescales():
    sc = random_scaffold(6, 3, 3)
    for target in (0.0, 1.0, 7.5):
        moved = scaffold_at_delta(sc, target)
        assert moved.delta == pytest.approx(target, abs=1e-10)
        assert_allclose(moved.sigma11, sc.sigma11)


def test_proportional_omega_kills_lambda12():
    sc = random_scaffold(8, 4, 4, proportional_omega=True)
    assert np.max(np.abs(sc.lambda12)) <= 1e-10 * np.max(np.abs(sc.lambda11))


# ---------------------------------------------------------------------------
# Risk formulas


def test_unrestricted_adr_is_k_for_orthonormal_identity_case():
    rng = np.random.default_rng(5)
    n, k = 7, 3
    rmat = orthonormal_rows(rng, k, n)
    restr = Restriction(matrix=rmat, rhs=np.zeros(k))
    sc = make_scaffold(np.eye(n), np.eye(n), restr, np.zeros(k))
    w = make_weight(sc.a)  # W = A, a rank-k projection here
    assert adr_unrestricted(sc, w) == pytest.approx(k, rel=1e-10)


def test_restricted_beats_unrestricted_at_zero_noncentrality():
    rng = np.random.default_rng(6)
    for seed in range(5):
        n, k = 8, 4
        rmat = orthonormal_rows(np.random.default_rng(seed), k, n)
        restr = Restriction(matrix=rmat, rhs=np.zeros(k))
        sc = make_scaffold(np.eye(n), np.eye(n), restr, np.zeros(k))
        w = make_weight(sc.a)
        assert adr_restricted(sc, w) <= adr_unrestricted(sc, w) + 1e-12
    del rng


def test_restricted_adr_grows_quadratically_in_mu():
    sc = random_scaffold(6, 3, 7)
    w = make_weight(sc.a)
    base = adr_unrestricted(sc, w)
    small = adr_restricted(scaffold_at_delta(sc, 1.0), w)
    large = adr_restricted(scaffold_at_delta(sc, 400.0), w)
    assert large > small
    assert adr_unrestricted(scaffold_at_delta(sc, 400.0), w) == pytest.approx(base)


def test_class_collapses_to_endpoints():
    sc = random_scaffold(8, 4, 8)
    w = make_weight(sc.a)
    assert adr_class(H_ONE, sc, w).total == pytest.approx(
        adr_unrestricted(sc, w), abs=1e-10 * max(1.0, adr_unrestricted(sc, w))
    )
    assert adr_class(H_ZERO, sc, w).total == pytest.approx(
        adr_restricted(sc, w), abs=1e-10 * max(1.0, adr_restricted(sc, w))
    )


def test_class_matches_closed_james_stein_and_positive_part():
    # both with correlated blocks (L12 != 0) and without
    for seed, proportional in [(9, False), (10, True), (11, False)]:
        sc = random_scaffold(8, 4, seed, proportional_omega=proportional)
        w = make_weight(sc.a)
        js_closed = adr_james_stein(sc, w)
        js_class = adr_class(make_james_stein(4), sc, w).total
        assert js_class == pytest.approx(js_closed, abs=1e-8 * max(1.0, abs(js_closed)))
        pp_closed = adr_positive_part(sc, w)
        pp_class = adr_class(make_positive_part(4), sc, w).total
        assert pp_class == pytest.approx(pp_closed, abs=1e-8 * max(1.0, abs(pp_closed)))


def test_kernel_class_matches_closed_forms_on_benchmark_shapes():
    # the scaffold shapes and the 41-point grid of the risk benchmark
    for seed, (n, k) in enumerate(((8, 4), (10, 5), (6, 3), (12, 6))):
        sc, w = random_dominant_scaffold(n, k, 60 + seed)
        js, pp = make_james_stein(k), make_positive_part(k)
        for delta in np.linspace(0.0, 20.0, 41):
            at = scaffold_at_delta(sc, float(delta))
            for rule, closed in ((js, adr_james_stein), (pp, adr_positive_part)):
                expected = closed(at, w)
                assert adr_class(rule, at, w).total == pytest.approx(expected, rel=1e-13), (
                    rule.name, n, k, delta
                )


def test_closed_forms_match_scalar_kernel_reference_bitwise():
    # 16 scaffolds of the risk benchmark's shapes (k = 3 among them), its
    # 41-point grid and three noncentralities with jlo > 0
    shapes = ((8, 4), (10, 5), (6, 3), (12, 6))
    deltas = [*np.linspace(0.0, 20.0, 41), 250.0, 1000.0, 9876.5]
    for i in range(16):
        n, k = shapes[i % len(shapes)]
        sc, w = random_dominant_scaffold(n, k, 80 + i)
        rules = (make_james_stein(k), make_positive_part(k), make_pretest(k, 0.05))
        for delta in deltas:
            at = scaffold_at_delta(sc, float(delta))
            assert adr_james_stein(at, w) == reference_adr_james_stein(at, w), (i, delta)
            assert adr_positive_part(at, w) == reference_adr_positive_part(at, w), (i, delta)
            for rule in rules:
                expected = reference_adr_class(rule, at, w)
                assert adr_class(rule, at, w).total == expected, (rule.name, i, delta)
    for k in (3, 4):
        for rule in rules_with_pieces(k):
            for delta in (0.0, 4.0, 700.0):
                for squared in (False, True):
                    expected = reference_rule_expectation(rule, k + 2, delta, squared, 1e-11)
                    assert rule_expectation(rule, k + 2, delta, squared=squared) == expected


def test_each_risk_evaluation_makes_one_kernel_call(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    kernel = risk.nc_chi2_moment
    monkeypatch.setattr(risk, "nc_chi2_moment", counting)
    for n, k, seed in ((6, 3, 90), (8, 4, 91), (12, 6, 92)):
        sc, w = random_dominant_scaffold(n, k, seed)
        evaluations = [adr_james_stein, adr_positive_part] + [
            lambda at, w, rule=rule: adr_class(rule, at, w)
            for rule in (make_james_stein(k), make_positive_part(k), make_pretest(k, 0.05))
        ]
        for delta in (0.0, 5.0, 1000.0):
            at = scaffold_at_delta(sc, delta)
            for evaluate in evaluations:
                calls.clear()
                evaluate(at, w)
                assert len(calls) == 1
    # a lone moment is a scalar call, not a batch of one
    calls.clear()
    rule_expectation(make_james_stein(4), 6, 5.0)
    assert [args[1] for args in calls] == [6]


def test_class_breakdown_has_seven_terms():
    sc = random_scaffold(6, 3, 12)
    w = make_weight(sc.a)
    breakdown = adr_class(H_ONE, sc, w)
    assert len(breakdown.terms) == 7
    assert breakdown.terms[0][0] == "restricted_base"
    assert breakdown.total == pytest.approx(sum(v for _, v in breakdown.terms))


def test_james_stein_approaches_unrestricted_at_huge_noncentrality():
    sc, w = random_dominant_scaffold(8, 4, 13)
    far = scaffold_at_delta(sc, 1e4)
    ue = adr_unrestricted(far, w)
    assert adr_james_stein(far, w) == pytest.approx(ue, rel=1e-2)
    assert adr_positive_part(far, w) == pytest.approx(ue, rel=1e-2)


def test_james_stein_beats_unrestricted_at_origin():
    sc, w = random_dominant_scaffold(8, 4, 14)
    at0 = scaffold_at_delta(sc, 0.0)
    assert adr_james_stein(at0, w) < adr_unrestricted(at0, w)


def test_origin_gap_closed_form():
    # JS - UE at zero noncentrality equals -(k-2) tr(W(L11 + 2 L12)) / k
    for seed in range(3):
        sc = random_scaffold(8, 4, 20 + seed)
        at0 = scaffold_at_delta(sc, 0.0)
        w = make_weight(sc.a)
        k = sc.k
        gap = adr_james_stein(at0, w) - adr_unrestricted(at0, w)
        expected = (
            -(k - 2.0)
            * np.trace(w.w @ (sc.lambda11 + 2.0 * sc.lambda12))
            / k
        )
        assert gap == pytest.approx(expected, abs=1e-8 * max(1.0, abs(expected)))


def test_ordering_on_grid_for_dominant_scaffolds():
    for seed in range(3):
        sc, w = random_dominant_scaffold(8, 4, 30 + seed)
        for delta in np.linspace(0.0, 20.0, 11):
            at = scaffold_at_delta(sc, float(delta))
            ue = adr_unrestricted(at, w)
            js = adr_james_stein(at, w)
            pp = adr_positive_part(at, w)
            assert pp <= js + 1e-9
            assert js <= ue + 1e-9


def test_dominance_identity_case_all_k():
    rng = np.random.default_rng(40)
    for k in (3, 4, 6):
        n = k + 3
        rmat = orthonormal_rows(rng, k, n)
        restr = Restriction(matrix=rmat, rhs=np.zeros(k))
        sc = make_scaffold(np.eye(n), np.eye(n), restr, np.ones(k))
        w = make_weight(sc.a)
        report = dominance_check(sc, w)
        # tr(W L11) = k, ch_max = 1: holds iff k >= (k+2)/4, true for k > 2
        assert report.holds
        assert report.c1 == pytest.approx(k, rel=1e-8)
        assert report.pi_star_max_eig == pytest.approx(1.0, rel=1e-8)


def test_trace_wl12_vanishes_for_identity_weight_seed():
    # with W* = I the cross trace is structurally zero: W = A and
    # tr(A L12) = tr(P(M - I)) with P the compression projection, PMP = P
    for seed in range(41, 46):
        sc = random_scaffold(8, 4, seed)
        rep = dominance_check(sc, make_weight(sc.a))
        assert abs(rep.trace_wl12) <= 1e-10


def test_trace_wl12_vanishes_for_any_compatible_weight():
    # structural: L12 A = 0 (since R S11 A = R), so L12 W = 0 for every
    # W = A^(1/2) W* A^(1/2) and all cross traces die
    rng = np.random.default_rng(44)
    for seed in range(45, 48):
        sc = random_scaffold(8, 4, seed)
        b = rng.normal(size=(8, 8))
        w_star = b @ b.T / 8 + 0.05 * np.eye(8)
        w = make_weight(sc.a, w_star)
        assert np.linalg.norm(sc.lambda12 @ sc.a) <= 1e-10
        assert abs(np.trace(w.w @ sc.lambda12)) <= 1e-8


def test_dominance_violation_is_named():
    # the checker accepts any weight; an incompatible one (not of the
    # A^(1/2) W* A^(1/2) form) can push the cross trace positive, and the
    # violated condition must be reported by name
    from steinbreak import WeightSpec

    found = None
    for seed in range(41, 100):
        sc = random_scaffold(8, 4, seed)
        rng = np.random.default_rng(seed + 1000)
        b = rng.normal(size=(8, 8))
        w_raw = b @ b.T / 8 + 0.05 * np.eye(8)
        rep = dominance_check(sc, WeightSpec(w_star=np.eye(8), w=w_raw))
        if rep.trace_wl12 > 1e-4:
            found = rep
            break
    assert found is not None, "no instance with a clear trace violation in range"
    assert not found.holds
    assert "trace_wl12_nonpositive" in found.violated


def test_dominance_requires_k_above_two():
    sc = random_scaffold(5, 2, 42)
    with pytest.raises(KTooSmall):
        dominance_check(sc, make_weight(sc.a))
    with pytest.raises(KTooSmall):
        adr_james_stein(sc, make_weight(sc.a))


def test_empirical_noncentrality():
    assert empirical_noncentrality(10.0, 4) == 6.0
    assert empirical_noncentrality(2.0, 4) == 0.0


def test_weight_requires_psd_seed():
    sc = random_scaffold(6, 3, 43)
    with pytest.raises(ValueError):
        make_weight(sc.a, -np.eye(6))


# ---------------------------------------------------------------------------
# Metamorphic invariances


def all_risks(sc, w):
    pretest = make_pretest(sc.k, 0.05)
    return np.array([
        adr_unrestricted(sc, w),
        adr_restricted(sc, w),
        adr_james_stein(sc, w),
        adr_positive_part(sc, w),
        adr_class(pretest, sc, w).total,
    ])


def test_risks_invariant_under_direction_scaling():
    # scaffold_at_delta fixes the noncentrality, so the length of the
    # direction it rescales must not matter
    rng = np.random.default_rng(70)
    for seed in range(3):
        sc, w = random_dominant_scaffold(8, 4, 70 + seed)
        direction = rng.normal(size=sc.k)
        for delta in (0.5, 6.0, 30.0):
            base = all_risks(scaffold_at_delta(sc, delta, direction), w)
            for c in (1e-3, 7.0):
                moved = all_risks(scaffold_at_delta(sc, delta, c * direction), w)
                assert_allclose(moved, base, rtol=1e-12)


def test_risks_invariant_under_restriction_basis_change():
    # (R, r) -> (M R, M r) is the same hypothesis; the drift moves with it,
    # mu -> M mu, so A, the noncentrality and every risk stay put
    rng = np.random.default_rng(71)
    for seed in range(5):
        sc = random_scaffold(8, 4, 71 + seed, proportional_omega=seed % 2 == 0)
        m = rng.normal(size=(sc.k, sc.k)) + 2.0 * np.eye(sc.k)
        moved_restr = Restriction(matrix=m @ sc.restriction.matrix, rhs=m @ sc.restriction.rhs)
        moved = make_scaffold(sc.gamma, sc.omega, moved_restr, m @ sc.mu)
        assert_allclose(moved.a, sc.a, rtol=1e-10, atol=1e-10 * np.abs(sc.a).max())
        assert moved.delta == pytest.approx(sc.delta, rel=1e-10)
        w_star = np.eye(sc.n_coefs) + 0.1 * np.ones((sc.n_coefs, sc.n_coefs))
        assert_allclose(
            all_risks(moved, make_weight(moved.a, w_star)),
            all_risks(sc, make_weight(sc.a, w_star)),
            rtol=1e-10,
        )


def test_scaffold_matches_the_explicit_inverse_formulas():
    # one factor of Gamma gives J0 and Sigma11, and A is the Wald metric of
    # Sigma11, the plug-ins' sandwich and metric; the explicit-inverse
    # formulas agree to 1e-12 relative
    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    rng = np.random.default_rng(72)
    for seed in range(40):
        n = int(rng.integers(2, 13))
        sc = random_scaffold(n, int(rng.integers(1, n + 1)), 72 + seed, proportional_omega=seed % 2 == 0)
        j0, s11, a = explicit_inverse_scaffold(sc.gamma, sc.omega, sc.restriction.matrix)
        assert rel(sc.j0, j0) <= 1e-12, seed
        assert rel(sc.sigma11, s11) <= 1e-12, seed
        assert rel(sc.a, a) <= 1e-12, seed
        expected = sandwich(pd_factor(sc.gamma), sc.omega)
        assert np.array_equal(sc.sigma11, expected)
        assert np.array_equal(sc.a, wald_metric(expected, sc.restriction.matrix))
