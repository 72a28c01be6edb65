import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from steinbreak import (
    SimDesign,
    break_mode,
    build_case1,
    build_case2,
    exp_decay_cov,
    histogram_rows,
    rmse_rows,
    run_monte_carlo,
    simulate_dataset,
    write_regression_csv,
)
from steinbreak.cli import main
from steinbreak.simulation import _one_replication

from helpers import fixed_regressor_reference


def test_case1_design_matches_printed_values():
    design = build_case1(n_obs=100)
    assert (design.m, design.q) == (3, 2)
    assert design.true_breaks == (25, 50, 75)
    assert build_case1(n_obs=40).true_breaks == (10, 20, 30)
    assert_allclose(design.delta0, [1, 2, 0, 0, 1, 2, 0, 0])
    rmat = design.restriction.matrix
    assert rmat.shape == (6, 8)
    assert design.restriction.k == 6
    # columns follow the unit-vector layout [E1,E2,E3,E4,-E1,-E2,E5,E6]
    unit = np.eye(6)
    expected = np.column_stack(
        [unit[:, 0], unit[:, 1], unit[:, 2], unit[:, 3],
         -unit[:, 0], -unit[:, 1], unit[:, 4], unit[:, 5]]
    )
    np.testing.assert_array_equal(rmat, expected)
    # the truth satisfies the restriction
    assert_allclose(rmat @ design.delta0, np.zeros(6), atol=1e-14)


def test_case2_design_matches_printed_values():
    design = build_case2(n_obs=100)
    assert (design.m, design.q) == (4, 5)
    assert design.true_breaks == (20, 40, 60, 80)
    assert build_case2(n_obs=500).true_breaks == (100, 200, 300, 400)
    rmat = design.restriction.matrix
    assert rmat.shape == (8, 25)
    # nonzero entries exactly as listed (1-based positions)
    ones = {(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 19), (8, 20)}
    minus = {(1, 11), (2, 12), (3, 13), (4, 14), (5, 15)}
    for i in range(8):
        for j in range(25):
            expected = 1.0 if (i + 1, j + 1) in ones else -1.0 if (i + 1, j + 1) in minus else 0.0
            assert rmat[i, j] == expected, (i + 1, j + 1)
    assert_allclose(rmat @ design.delta0, np.zeros(8), atol=1e-14)


def test_regressor_covariance_grid():
    cov = exp_decay_cov(3)
    assert_allclose(cov, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])


def test_simulate_dataset_respects_truth():
    design = build_case1(n_obs=40)
    rng = np.random.default_rng(0)
    data = simulate_dataset(design, 1e-12, rng)
    # with vanishing noise the response is the exact segment regression
    for p, (s, e) in enumerate(design.true_partition.segments(40)):
        seg = design.delta0[p * 2:(p + 1) * 2]
        assert_allclose(data.y[s:e], data.z[s:e] @ seg, atol=1e-5)


def test_noiseless_limit_recovers_truth():
    design = build_case1(n_obs=40, n_reps=15, seed=3)
    import dataclasses

    tiny = dataclasses.replace(design, sigma2_grid=(1e-6,))
    result = run_monte_carlo(tiny)
    rmse = result.rmse[1e-6]
    for name in ("ue", "re", "js", "pp"):
        assert 0.9 <= rmse[name] <= 1.1 or rmse[name] >= 1.0
    assert result.n_fail[1e-6] == 0
    # estimated breaks equal the truth in every replication
    assert np.all(result.breaks_ue[1e-6] == np.array(design.true_breaks))
    assert np.all(result.breaks_re[1e-6] == np.array(design.true_breaks))


def test_small_run_properties_and_determinism():
    design = build_case1(n_obs=40, n_reps=25, seed=7)
    import dataclasses

    small = dataclasses.replace(design, sigma2_grid=(1.0,))
    r1 = run_monte_carlo(small)
    r2 = run_monte_carlo(small)
    assert r1.rmse == r2.rmse
    assert np.array_equal(r1.breaks_ue[1.0], r2.breaks_ue[1.0])
    assert r1.rmse[1.0]["ue"] == 1.0
    for name, value in r1.rmse[1.0].items():
        assert np.isfinite(value) and value > 0
    assert not r1.flagged


def test_break_mode_and_rows():
    design = build_case1(n_obs=40, n_reps=20, seed=11)
    import dataclasses

    small = dataclasses.replace(design, sigma2_grid=(0.5,))
    result = run_monte_carlo(small)
    mode = break_mode(result, 0.5, "ue")
    assert len(mode) == 3
    rows = rmse_rows(result)
    assert {r["estimator"] for r in rows} == {"ue", "re", "js", "pp"}
    assert all(r["sigma2"] == 0.5 for r in rows)
    hrows = histogram_rows(result)
    total_ue = sum(
        r["count"] for r in hrows if r["search"] == "ue" and r["break_index"] == 1
    )
    assert total_ue == 20 - result.n_fail[0.5]
    assert all(r["case"] == "case1" and r["T"] == 40 for r in hrows)


def test_design_validation():
    design = build_case1(n_obs=40)
    with pytest.raises(ValueError):
        SimDesign(
            m=design.m,
            q=design.q,
            n_obs=design.n_obs,
            true_breaks=design.true_breaks,
            delta0=design.delta0[:-1],  # wrong length
            restriction=design.restriction,
        )


def test_fixed_regressor_mode():
    import dataclasses

    design = dataclasses.replace(
        build_case1(n_obs=40, n_reps=6, seed=5),
        redraw_regressors=False,
        sigma2_grid=(1.0,),
    )
    result = run_monte_carlo(design)
    assert result.n_fail[1.0] == 0


def test_fixed_regressors_share_one_factorization(monkeypatch):
    # with z fixed, every replication of the study, at every noise level,
    # reads one set of segment Gram factors; fitting each replication alone
    # on its own search state, which factors again, gives the same study
    import dataclasses

    from steinbreak import segmentation

    design = dataclasses.replace(
        build_case1(n_obs=40, n_reps=5, seed=5), redraw_regressors=False, sigma2_grid=(1.0, 2.0)
    )
    calls = []
    original = segmentation._cholesky_rows

    def counted(grams, q):
        calls.append(grams.shape[1])
        return original(grams, q)

    monkeypatch.setattr(segmentation, "_cholesky_rows", counted)
    shared = run_monte_carlo(design)
    assert len(calls) == 1
    alone = fixed_regressor_reference(design)
    assert len(calls) == 1 + 10
    assert shared.risks == alone["risks"]
    for sigma2 in design.sigma2_grid:
        assert np.array_equal(shared.breaks_ue[sigma2], alone["breaks_ue"][sigma2])
        assert np.array_equal(shared.breaks_re[sigma2], alone["breaks_re"][sigma2])


def test_simulate_and_fit_agree(tmp_path):
    # one estimation step serves both: the fit subcommand on a case-1
    # dataset reproduces the study's breaks and losses bit for bit
    design = build_case1(n_obs=100)
    differ = 0
    # datasets 5 and 7 have different UE and RE breaks, dataset 0 the same
    for i in (0, 5, 7):
        sigma2 = design.sigma2_grid[i % 3]
        data = simulate_dataset(design, sigma2, np.random.default_rng(np.random.SeedSequence((41, i))))
        losses, ue_breaks, re_breaks = _one_replication(design, data)
        differ += ue_breaks != re_breaks
        series = tmp_path / f"case1_{i}.csv"
        write_regression_csv(series, data)
        config = tmp_path / f"fit_{i}.json"
        config.write_text(json.dumps({
            "csv": str(series),
            "m": design.m,
            "restriction": {"matrix": design.restriction.matrix.tolist(), "rhs": design.restriction.rhs.tolist()},
            "restricted_search": "refine",
            "omega": "hc0",
            "min_seg_frac": 0.05,
            "out": str(tmp_path / f"out_{i}"),
        }))
        assert main(["fit", "--config", str(config)]) == 0
        with open(tmp_path / f"out_{i}" / "estimates.csv", newline="") as fh:
            rows = {r[0]: np.array([float(v) for v in r[1:]]) for r in list(csv.reader(fh))[1:]}
        fit_losses = {name: float((delta - design.delta0) @ (delta - design.delta0)) for name, delta in rows.items()}
        assert fit_losses == losses
        with open(tmp_path / f"out_{i}" / "breaks.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert tuple(int(r["time"]) for r in rows if r["search"] == "ue") == ue_breaks
        assert tuple(int(r["time"]) for r in rows if r["search"] == "re") == re_breaks
    assert differ == 2


def test_a_failed_replication_counts_once_and_the_study_goes_on(monkeypatch):
    # a redrawn-regressor replication is a lone response, whose search
    # raises its error: the study counts it in n_fail and keeps every other
    # replication as a study without it has them
    import dataclasses

    from steinbreak import simulation
    from steinbreak.errors import SingularConstraintGram

    design = dataclasses.replace(build_case1(n_obs=40, n_reps=5, seed=3), sigma2_grid=(1.0,))
    clean = run_monte_carlo(design)
    assert clean.n_fail[1.0] == 0
    calls = []
    original = simulation.find_breaks_restricted

    def failing_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise SingularConstraintGram("forced failure of one replication")
        return original(*args, **kwargs)

    monkeypatch.setattr(simulation, "find_breaks_restricted", failing_second)
    result = run_monte_carlo(design)
    assert result.n_fail[1.0] == 1
    kept = [0, 2, 3, 4]
    np.testing.assert_array_equal(result.breaks_ue[1.0], clean.breaks_ue[1.0][kept])
    np.testing.assert_array_equal(result.breaks_re[1.0], clean.breaks_re[1.0][kept])
