"""The benchmark's own tests: every output check accepts the program's
output and rejects a wrong one, and the tracer records what it should.

Run from the repository root with ``python3 -m pytest steinbench``.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import csv  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
from steinbreak import cli, estimators, risk, segmentation, simulation  # noqa: E402


# ---------------------------------------------------------------------------
# bootstrap-fit: fit outputs and the bootstrap table


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    """One program ``fit`` on a one-break power-trend series."""
    tmp = tmp_path_factory.mktemp("fit")
    rng = np.random.default_rng(5)
    n_obs, brk = 90, 41
    basis = oracles.power_trend(n_obs)
    y = np.where(np.arange(n_obs) < brk, basis @ [0.5, 1.0, 0, 0], basis @ [0.9, 1.6, 0, 0])
    y = y + rng.normal(0.0, 0.05, n_obs)
    with (tmp / "s.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        writer.writerows([t + 1, repr(float(y[t]))] for t in range(n_obs))
    (tmp / "c.json").write_text(json.dumps({
        "csv": str(tmp / "s.csv"), "m": 1, "basis": "power-trend",
        "restriction": {"pattern": "linear-trend"}, "min_seg_frac": 0.15,
        "omega": "hac", "out": str(tmp / "out"),
    }))
    assert cli.main(["fit", "--config", str(tmp / "c.json")]) == 0
    texts = {n: (tmp / "out" / n).read_text() for n in ("estimates.csv", "breaks.csv", "fit_stats.csv")}
    estimates, breaks, psi = checks.parse_fit_outputs(texts)
    args = dict(y=y, z=basis, min_len=13, rmat=oracles.linear_trend_restriction(2), omega="hac")
    return args, estimates, breaks, psi


def test_fit_check_accepts_program_output(fit_run):
    args, estimates, breaks, psi = fit_run
    assert checks.check_fit(estimates=estimates, breaks=breaks, psi=psi, **args) == []


def test_fit_check_rejects_perturbed_re_coefficient(fit_run):
    args, estimates, breaks, psi = fit_run
    bad = {k: v.copy() for k, v in estimates.items()}
    bad["re"][2] += 1e-4
    fails = checks.check_fit(estimates=bad, breaks=breaks, psi=psi, **args)
    assert any("violate the restriction" in f for f in fails)
    assert any("re coefficients differ" in f for f in fails)


def test_fit_check_rejects_shifted_break(fit_run):
    args, estimates, breaks, psi = fit_run
    for which in ("ue", "re"):
        bad = dict(breaks, **{which: [breaks[which][0] + 1]})
        fails = checks.check_fit(estimates=estimates, breaks=bad, psi=psi, **args)
        assert any(f"{which} break" in f and "brute-force" in f for f in fails)


def test_fit_check_rejects_wrong_shrinkage(fit_run):
    args, estimates, breaks, psi = fit_run
    bad = dict(estimates, pp=estimates["ue"])
    fails = checks.check_fit(estimates=bad, breaks=breaks, psi=psi * 1.01, **args)
    assert any(f.startswith("psi") for f in fails)
    assert any("pp coefficients differ" in f for f in fails)


def test_bootstrap_check_rejects_wrong_table():
    row = {"changepoints_ue": "41", "changepoints_re": "41", "mse_ue": "3.0", "mse_re": "0.1",
           "mse_js": "2.0", "mse_pp": "1.9", "n_fail": "0", "b": "25"}
    breaks = {"ue": [41], "re": [41]}
    assert checks.check_bootstrap(row, 25, breaks) == []
    assert checks.check_bootstrap(dict(row, mse_re="3.5"), 25, breaks)
    assert checks.check_bootstrap(dict(row, n_fail="1"), 25, breaks)
    assert checks.check_bootstrap(dict(row, changepoints_re="42"), 25, breaks)


# ---------------------------------------------------------------------------
# mc-study: oracle datasets and the pooled study checks


@pytest.fixture(scope="module")
def mc_dataset():
    design = simulation.build_case1(100, n_reps=1)
    data = simulation.simulate_dataset(design, 2.0, np.random.default_rng(3))
    cfg = segmentation.SearchConfig(m=design.m)
    ue = segmentation.find_breaks_unrestricted(data, cfg)
    re = segmentation.find_breaks_restricted(
        data, design.restriction, dataclasses.replace(cfg, method=segmentation.METHOD_REFINE)
    )
    fit = estimators.fit_restricted(data, re.partition, design.restriction)
    return dict(
        y=data.y, z=data.z, true_breaks=design.true_breaks,
        rmat=design.restriction.matrix, rhs=design.restriction.rhs,
        ue_breaks=ue.partition.breaks, re_breaks=re.partition.breaks,
        re_ssr=re.ssr, re_delta=fit.delta,
    )


def test_mc_dataset_check_accepts_program_output(mc_dataset):
    assert checks.check_mc_dataset(**mc_dataset) == []


def test_mc_dataset_check_rejects_perturbed_re_coefficient(mc_dataset):
    delta = mc_dataset["re_delta"].copy()
    delta[0] += 1e-3
    fails = checks.check_mc_dataset(**dict(mc_dataset, re_delta=delta))
    assert any("null-space oracle" in f for f in fails)
    assert any("violates R d = r" in f for f in fails)


def test_mc_dataset_check_rejects_shifted_break(mc_dataset):
    shifted = tuple(b + 4 for b in mc_dataset["ue_breaks"])
    fails = checks.check_mc_dataset(**dict(mc_dataset, ue_breaks=shifted))
    assert any("DP partition" in f for f in fails)


def _fake_studies(n, truth, shift=0, js_factor=0.7, pp_factor=0.98, seed=0):
    """SimResults with one replication per noise level, as mc-study makes."""
    rng = np.random.default_rng(seed)
    grid = (1.0, 1.5, 2.0)
    out = []
    for _ in range(n):
        res = simulation.SimResult("case1", 100, grid, ("ue", "re", "js", "pp"))
        for s2 in grid:
            ue = rng.gamma(4.0, 0.5)
            js = ue * js_factor * rng.uniform(0.9, 1.1)
            res.risks[s2] = {"ue": ue, "re": 0.1 * ue, "js": js, "pp": js * pp_factor}
            res.rmse[s2] = {k: ue / v for k, v in res.risks[s2].items()}
            res.n_fail[s2] = 0
            jitter = rng.choice([-1, 0, 0, 0, 1], size=len(truth))
            res.breaks_ue[s2] = (np.array(truth) + shift + jitter)[None, :]
            res.breaks_re[s2] = (np.array(truth) + jitter)[None, :]
        out.append(res)
    return out


def test_mc_results_check_accepts_consistent_studies():
    assert checks.check_mc_results(_fake_studies(30, (25, 50, 75)), (25, 50, 75)) == []


def test_mc_results_check_rejects_shifted_breaks():
    fails = checks.check_mc_results(_fake_studies(30, (25, 50, 75), shift=3), (25, 50, 75))
    assert any("ue break" in f and "more frequent than the truth" in f for f in fails)


def test_mc_results_check_rejects_swapped_risk_ordering():
    fails = checks.check_mc_results(_fake_studies(30, (25, 50, 75), js_factor=1.3), (25, 50, 75))
    assert any("js efficiency >= 1 rejected" in f for f in fails)
    fails = checks.check_mc_results(_fake_studies(30, (25, 50, 75), pp_factor=1.2), (25, 50, 75))
    assert any("pp >= js rejected" in f for f in fails)


def test_mc_results_check_rejects_failed_replication():
    studies = _fake_studies(5, (25, 50, 75))
    studies[2].n_fail[1.5] = 1
    assert any("failed replications" in f for f in checks.check_mc_results(studies, (25, 50, 75)))


# ---------------------------------------------------------------------------
# risk-verify: curve ordering, quadrature agreement, identity suite


@pytest.fixture(scope="module")
def risk_curve():
    scaffold, weight = risk.random_dominant_scaffold(8, 4, 1)
    rows = []
    for delta in np.linspace(0.0, 20.0, 41):
        sc = risk.scaffold_at_delta(scaffold, float(delta))
        rows.append((float(delta), risk.adr_unrestricted(sc, weight), risk.adr_restricted(sc, weight),
                     risk.adr_james_stein(sc, weight), risk.adr_positive_part(sc, weight)))
    return rows


def test_risk_curve_check_accepts_program_output(risk_curve):
    assert checks.check_risk_curve(risk_curve) == []


def test_risk_curve_check_rejects_swapped_ordering(risk_curve):
    swapped = [(d, ue, re, pp, js) for d, ue, re, js, pp in risk_curve]
    assert any("pp <= js <= ue" in f for f in checks.check_risk_curve(swapped))
    swapped = [(d, js, re, ue, pp) for d, ue, re, js, pp in risk_curve]
    fails = checks.check_risk_curve(swapped)
    assert any("pp <= js <= ue" in f for f in fails)
    assert any("not below ue" in f for f in fails)


def test_agreement_check():
    assert checks.check_agreement([("x", 1.0 + 1e-14, 1.0)]) == []
    assert checks.check_agreement([("x", 1.0 + 1e-6, 1.0)])


def test_identity_check_is_familywise_and_rejects_excursions():
    n_comp = [8] * 15 + [1] * 30 + [8]
    expect_fail = [False] * 45 + [True]
    excess = [1.0] * 45 + [50.0]
    # A 3.18 sigma excursion among 150 components is expected, not a fault.
    assert checks.check_identity_suite([3.18] + excess[1:], n_comp, expect_fail) == []
    bound = oracles.familywise_z(sum(n_comp[:45]), checks.FAMILY_ALPHA)
    pushed = [bound + 0.01] + excess[1:]
    assert any("outside the bound" in f for f in checks.check_identity_suite(pushed, n_comp, expect_fail))
    control_inside = excess[:-1] + [bound - 0.01]
    assert any("negative control" in f for f in checks.check_identity_suite(control_inside, n_comp, expect_fail))


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.names = ["a", "b", "b"]
    tracer.starts = [0.0, 1.0, 3.0]
    tracer.ends = [10.0, 2.0, 5.0]
    tracer.parents = [-1, 0, 0]
    assert tracer.self_times_ms() == pytest.approx({"a": 7000.0, "b": 3000.0})


def test_patches_cover_every_binding_and_restore_originals():
    originals = (simulation.find_breaks_unrestricted, cli.find_breaks_unrestricted,
                 segmentation.find_breaks_unrestricted)
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    patches.install()
    try:
        design = simulation.build_case1(40, n_reps=1)
        simulation.run_monte_carlo(dataclasses.replace(design, sigma2_grid=(1.0,)))
    finally:
        patches.remove()
    assert (simulation.find_breaks_unrestricted, cli.find_breaks_unrestricted,
            segmentation.find_breaks_unrestricted) == originals
    names = set(tracer.names)
    for span in ("simulation.run_monte_carlo", "simulation.simulate_dataset",
                 "segmentation.ssr_table", "segmentation.find_breaks_unrestricted",
                 "segmentation.find_breaks_restricted", "segmentation.ssr_restricted",
                 "estimators.fit", "estimators.plugin", "estimators.shrinkage",
                 "model.build_design"):
        assert span in names, span
    layers = tracer.layer_metrics(1)
    assert layers["segmentation.restricted_searches"] == 1
    assert layers["segmentation.refine_cycles"] >= 1
    assert set(layers) == set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS)
