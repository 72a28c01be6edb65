import csv
import json

import numpy as np
import pytest

from steinbreak import cli
from steinbreak.cli import (
    ALLOWED,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    RANGES,
    SCHEMAS,
    RunConfig,
    power_trend_basis,
    main,
    restriction_from_spec,
)
from steinbreak.errors import ConfigError
from steinbreak.stein_oracle import MIN_SAMPLES, IdentityCheck, VerifyEntry


def write_trend_series(path, n_obs=117, brk=60, noise=0.02, seed=0, restriction_true=True):
    """Piecewise trend series in the scaled basis, restriction-true by default."""
    rng = np.random.default_rng(seed)
    basis = power_trend_basis(n_obs)
    if restriction_true:
        b1 = np.array([0.5, 1.0, 0.0, 0.0])
        b2 = np.array([0.9, 1.6, 0.0, 0.0])
    else:
        b1 = np.array([0.5, 1.0, 0.8, -0.6])
        b2 = np.array([0.9, 1.6, -0.7, 0.9])
    y = np.where(np.arange(n_obs) < brk, basis @ b1, basis @ b2)
    y = y + rng.normal(0, noise, n_obs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for i in range(n_obs):
            writer.writerow([i + 1, repr(float(y[i]))])
    return y


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fit_config(tmp_path, **extra):
    cfg = {
        "csv": str(tmp_path / "series.csv"),
        "m": 1,
        "basis": "power-trend",
        "restriction": {"pattern": "linear-trend"},
        "out": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_round_trip():
    raw = {
        "csv": "x.csv",
        "m": 2,
        "restriction": {"pattern": "linear-trend"},
        "seed": 5,
    }
    cfg = RunConfig.from_dict("fit", raw)
    again = RunConfig.from_dict("fit", {k: v for k, v in cfg.to_dict().items() if k != "subcommand"})
    assert cfg == again
    assert cfg.to_dict() == again.to_dict()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict("fit", {"csv": "x", "restriction": {"matrix": [[1]]}, "bogus": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict("fit", {})  # csv and restriction are required
    with pytest.raises(ConfigError):
        RunConfig.from_dict("simulate", {"t": "one hundred"})


def test_restriction_patterns():
    restr = restriction_from_spec({"pattern": "linear-trend"}, m=1, q=4)
    assert restr.k == 4
    assert restr.matrix.shape == (4, 8)
    # zero rows hit the curvature coefficients of both segments
    hits = {tuple(np.nonzero(row)[0]) for row in restr.matrix}
    assert hits == {(2,), (3,), (6,), (7,)}
    eq = restriction_from_spec({"pattern": "equal-segments", "segments": [1, 3]}, m=2, q=2)
    assert eq.k == 2
    zero = restriction_from_spec({"pattern": "zero-segment", "segment": 2}, m=1, q=3)
    assert zero.k == 3
    with pytest.raises(ConfigError):
        restriction_from_spec({"pattern": "nope"}, m=1, q=4)
    with pytest.raises(ConfigError):
        restriction_from_spec({"pattern": "linear-trend", "extra": 1}, m=1, q=4)
    with pytest.raises(ConfigError):
        restriction_from_spec({"pattern": "linear-trend"}, m=1, q=3)


def hand_built_pattern(pattern, m, q, i=None, j=None):
    """The pattern matrices written entry by entry, as before the builder."""
    n = (m + 1) * q
    if pattern == "linear-trend":
        rows = []
        for seg in range(m + 1):
            for coef in (2, 3):
                row = np.zeros(n)
                row[seg * q + coef] = 1.0
                rows.append(row)
        return np.array(rows)
    rows = np.zeros((q, n))
    for coef in range(q):
        rows[coef, (i - 1) * q + coef] = 1.0
        if pattern == "equal-segments":
            rows[coef, (j - 1) * q + coef] = -1.0
    return rows


@pytest.mark.parametrize("m", [1, 2, 3])
def test_restriction_patterns_match_hand_built_matrices(m):
    cases = [({"pattern": "linear-trend"}, 4, ("linear-trend", m, 4))]
    for q in (1, 2, 3):
        for i in range(1, m + 2):
            cases.append(({"pattern": "zero-segment", "segment": i}, q, ("zero-segment", m, q, i)))
            for j in range(1, m + 2):
                if i != j:
                    spec = {"pattern": "equal-segments", "segments": [i, j]}
                    cases.append((spec, q, ("equal-segments", m, q, i, j)))
    for spec, q, ref in cases:
        restr = restriction_from_spec(spec, m=m, q=q)
        np.testing.assert_array_equal(restr.matrix, hand_built_pattern(*ref))
        np.testing.assert_array_equal(restr.rhs, np.zeros(restr.k))


def test_unknown_key_messages(tmp_path, capsys):
    def message(fn, *args):
        with pytest.raises(ConfigError) as info:
            fn(*args)
        return str(info.value)

    assert message(RunConfig.from_dict, "verify", {"bogus": 1, "b": 2}) == (
        "unknown config keys for verify: ['b', 'bogus']"
    )
    for spec in (
        {"matrix": [[1.0]], "x": 1},
        {"pattern": "linear-trend", "x": 1},
        {"pattern": "equal-segments", "segments": [1, 2], "x": 1},
        {"pattern": "zero-segment", "segment": 1, "x": 1},
    ):
        assert message(restriction_from_spec, spec, 1, 4) == "unknown restriction keys: ['x']"
    for scaffold in ({"kind": "random-dominant", "x": 1}, {"kind": "explicit", "x": 1}):
        cfg = tmp_path / "risk.json"
        cfg.write_text(json.dumps({"scaffold": scaffold, "out": str(tmp_path / "risk")}))
        assert main(["risk", "--config", str(cfg)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "unknown scaffold keys: ['x']"


def test_fit_synthetic_trend_series(tmp_path, capsys):
    write_trend_series(tmp_path / "series.csv", brk=60)
    code = main(["fit", "--config", str(fit_config(tmp_path))])
    assert code == EXIT_OK
    out = tmp_path / "out"
    breaks = {(r["search"], r["break_index"]): int(r["time"]) for r in read_rows(out / "breaks.csv")}
    assert abs(breaks[("ue", "1")] - 60) <= 3
    assert abs(breaks[("re", "1")] - 60) <= 3
    rows = {r["estimator"]: r for r in read_rows(out / "estimates.csv")}
    assert set(rows) == {"ue", "re", "js", "pp"}
    re_coefs = np.array([float(rows["re"][f"coef_{i + 1}"]) for i in range(8)])
    # the linear-trend restriction zeroes curvature coefficients exactly
    assert np.max(np.abs(re_coefs[[2, 3, 6, 7]])) <= 1e-8
    stats = {r["key"]: r["value"] for r in read_rows(out / "fit_stats.csv")}
    assert stats["k"] == "4"
    assert float(stats["psi"]) >= 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["subcommand"] == "fit"


def test_fit_no_breaks(tmp_path):
    # m = 0 leaves the trend restriction with k = 2, too small for the
    # Stein rules, so only the plain pair is requested
    write_trend_series(tmp_path / "series.csv", brk=0)
    cfg = fit_config(tmp_path, m=0, estimators=["ue", "re"])
    assert main(["fit", "--config", str(cfg)]) == EXIT_OK
    assert read_rows(tmp_path / "out" / "breaks.csv") == []
    rows = {r["estimator"] for r in read_rows(tmp_path / "out" / "estimates.csv")}
    assert rows == {"ue", "re"}


def test_fit_low_rank_restriction_exits_numeric(tmp_path):
    # k = 1 <= 2 makes the Stein rules unavailable: exit code 3
    rng = np.random.default_rng(1)
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y", "z1"])
        for i in range(40):
            writer.writerow([i + 1, repr(rng.normal()), repr(rng.normal(1.0))])
    cfg = {
        "csv": str(path),
        "m": 1,
        "restriction": {"pattern": "zero-segment", "segment": 2},
        "out": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["fit", "--config", str(cfg_path)]) == EXIT_NUMERIC
    assert not (tmp_path / "out").exists()


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"csv": "x.csv", "restriction": {"pattern": "linear-trend"}, "oops": 1}))
    assert main(["fit", "--config", str(cfg)]) == EXIT_CONFIG
    assert main(["fit"]) == EXIT_CONFIG  # missing required keys


BAD_CONFIGS = {
    "restriction-pattern": ("fit", {"restriction": {"pattern": "nope"}}),
    "scaffold-kind": ("risk", {"scaffold": {"kind": "nope"}}),
    "scaffold-key": ("risk", {"scaffold": {"kind": "random-dominant", "x": 1}}),
    "omega": ("fit", {"omega": "nope"}),
    "shrink-partition": ("fit", {"shrink_partition": "nope"}),
    "estimators": ("bootstrap", {"estimators": ["ue", "foo"]}),
    "m": ("fit", {"m": -1}),
    "bootstrap-b": ("bootstrap", {"bootstrap_b": 0}),
    "reps": ("simulate", {"case": 1, "reps": 0}),
    "hac-bandwidth": ("fit", {"omega": "hac", "hac_bandwidth": -1}),
    "sigma2-grid": ("simulate", {"case": 1, "t": 40, "reps": 2, "sigma2_grid": [1.0, -1.0]}),
    "delta-start": ("risk", {"delta_start": -1.0}),
    "delta-points": ("risk", {"delta_points": -1}),
    "seed": ("simulate", {"case": 1, "seed": -1}),
    "n-samples": ("verify", {"n_samples": MIN_SAMPLES - 1}),
    "scaffold-k-type": ("risk", {"scaffold": {"kind": "random-dominant", "k": "x"}}),
    "scaffold-k-above-n": ("risk", {"scaffold": {"kind": "random-dominant", "n": 3, "k": 4}}),
    "scaffold-k-float": ("risk", {"scaffold": {"kind": "random-dominant", "k": 4.7}}),
    "out-null": ("risk", {"out": None}),
    "m-null": ("fit", {"m": None}),
    "min-seg-frac-range": ("simulate", {"case": 1, "t": 40, "reps": 2, "min_seg_frac": 2.0}),
    "min-seg-frac-no-partition": ("fit", {"min_seg_frac": 0.6}),
    "min-seg-frac-no-design-partition": ("simulate", {"case": 1, "t": 40, "reps": 2, "min_seg_frac": 0.3}),
    "explicit-gamma-text": ("risk", {"scaffold": {"kind": "explicit", "gamma": "x", "omega": [[1]], "matrix": [[1]]}}),
    "explicit-matrix-text": (
        "risk", {"scaffold": {"kind": "explicit", "gamma": [[1]], "omega": [[1]], "matrix": [["a"]]}}
    ),
    "explicit-rhs-text": (
        "risk", {"scaffold": {"kind": "explicit", "gamma": [[1]], "omega": [[1]], "matrix": [[1]], "rhs": ["b"]}}
    ),
    "explicit-omega-shape": (
        "risk", {"scaffold": {"kind": "explicit", "gamma": [[1, 0], [0, 1]], "omega": [[1]], "matrix": [[1, 0]]}}
    ),
    "explicit-w-star-shape": (
        "risk",
        {"scaffold": {"kind": "explicit", "gamma": [[1]], "omega": [[1]], "matrix": [[1]]}, "w_star": [[1, 0]]},
    ),
    "mu-direction-length": ("risk", {"mu_direction": [1, 2]}),
    "mu-direction-text": ("risk", {"mu_direction": ["a", "b", "c", "d"]}),
    "delta0-length": (
        "simulate",
        {"m": 1, "q": 2, "true_breaks": [20], "delta0": [1, 2, 3],
         "restriction": {"pattern": "zero-segment", "segment": 1}, "t": 40, "reps": 2},
    ),
    "true-breaks-past-t": (
        "simulate",
        {"m": 1, "q": 2, "true_breaks": [60], "delta0": [1, 2, 3, 4],
         "restriction": {"pattern": "zero-segment", "segment": 1}, "t": 40, "reps": 2},
    ),
    "restriction-matrix-text": ("fit", {"restriction": {"matrix": [["x"]]}}),
}


@pytest.mark.parametrize("subcommand, extra", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_bad_config_exits_before_any_output(tmp_path, capsys, subcommand, extra):
    if subcommand in ("fit", "bootstrap"):
        write_trend_series(tmp_path / "series.csv", n_obs=60, brk=30)
        cfg = fit_config(tmp_path, **{"min_seg_frac": 0.15, "bootstrap_b": 2, **extra})
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "out"), **extra}))
    assert main([subcommand, "--config", str(cfg)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


def test_allowed_values_and_ranges_hold_for_schema_defaults():
    for table in (ALLOWED, RANGES):
        for key in table:
            schemas = [schema for schema in SCHEMAS.values() if key in schema]
            assert schemas, key
            for schema in schemas:
                cli._check_value(key, schema[key][1])


def test_verify_failure_still_writes_report(tmp_path, monkeypatch, capsys):
    check = IdentityCheck(
        mc_estimate=np.array([1.0]),
        closed_form=np.array([0.0]),
        max_abs_err=1.0,
        mc_stderr=np.array([0.01]),
        n_samples=MIN_SAMPLES,
        seed=0,
    )
    entry = VerifyEntry(setup_index=0, identity="vector", h_name="h=1", check=check, expect_fail=False, bound=3.0)
    monkeypatch.setattr(cli, "run_verification_suite", lambda **kwargs: [entry])
    out = tmp_path / "verify"
    assert main(["verify", "--out", str(out)]) == EXIT_VERIFY
    assert capsys.readouterr().out.startswith("FAIL: setup 0 vector h=1")
    rows = read_rows(out / "verify_report.csv")
    assert [r["status"] for r in rows] == ["FAIL"]
    assert json.loads((out / "manifest.json").read_text())["config"]["subcommand"] == "verify"


@pytest.mark.parametrize(
    "body, message",
    [
        ("1,0.5\n2,np.float64(0.5)\n", "line 3 has a non-numeric field"),
        ("1,0.5\n2,0.7,1.0\n", "line 3 has 3 fields, the header has 2"),
        ("1\n", "line 2 has 1 fields, the header has 2"),
        ("", "no data rows"),
    ],
    ids=["non-numeric", "extra-field", "short-row", "no-rows"],
)
def test_fit_malformed_csv_reports_line(tmp_path, capsys, body, message):
    (tmp_path / "series.csv").write_text("t,y\n" + body)
    assert main(["fit", "--config", str(fit_config(tmp_path))]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DimensionMismatch"
    assert str(tmp_path / "series.csv") in err["message"]
    assert message in err["message"]


def test_bootstrap_zero_residuals_gives_zero_mse(tmp_path):
    write_trend_series(tmp_path / "series.csv", brk=60, noise=0.0)
    cfg = fit_config(tmp_path, bootstrap_b=1)
    assert main(["bootstrap", "--config", str(cfg)]) == EXIT_OK
    row = read_rows(tmp_path / "out" / "table1.csv")[0]
    for name in ("ue", "re", "js", "pp"):
        assert float(row[f"mse_{name}"]) <= 1e-16
    assert row["n_fail"] == "0"


def test_bootstrap_deterministic(tmp_path):
    write_trend_series(tmp_path / "series.csv", brk=60, noise=0.05)
    cfg = fit_config(tmp_path, bootstrap_b=8, seed=3)
    assert main(["bootstrap", "--config", str(cfg)]) == EXIT_OK
    first = (tmp_path / "out" / "table1.csv").read_bytes()
    assert main(["bootstrap", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "table1.csv").read_bytes() == first


def test_bootstrap_factors_segment_grams_once(tmp_path, monkeypatch):
    # the replicates keep z, so the one block of segment Grams (T = 60,
    # 15% segments: 1378 segments) is factored for the base fit only
    from steinbreak import segmentation

    write_trend_series(tmp_path / "series.csv", n_obs=60, brk=30, noise=0.05)
    cfg = fit_config(tmp_path, bootstrap_b=6, min_seg_frac=0.15)
    calls = []
    original = segmentation._cholesky_rows

    def counted(grams, q):
        calls.append(grams.shape[1])
        return original(grams, q)

    monkeypatch.setattr(segmentation, "_cholesky_rows", counted)
    assert main(["bootstrap", "--config", str(cfg)]) == EXIT_OK
    assert calls == [1378]
    assert read_rows(tmp_path / "out" / "table1.csv")[0]["n_fail"] == "0"


def test_bootstrap_builds_one_restriction(tmp_path, monkeypatch):
    from steinbreak import cli

    write_trend_series(tmp_path / "series.csv", n_obs=60, brk=30, noise=0.05)
    cfg = fit_config(tmp_path, bootstrap_b=3, min_seg_frac=0.15)
    calls = []
    original = cli.restriction_from_spec

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "restriction_from_spec", counted)
    assert main(["bootstrap", "--config", str(cfg)]) == EXIT_OK
    assert len(calls) == 1
    assert read_rows(tmp_path / "out" / "table1.csv")[0]["n_fail"] == "0"


def test_simulate_artifacts_and_rerun_identical(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps({"case": 1, "t": 40, "reps": 12, "sigma2_grid": [1.0], "out": str(tmp_path / "sim")})
    )
    assert main(["simulate", "--config", str(cfg), "--seed", "5"]) == EXIT_OK
    rmse1 = (tmp_path / "sim" / "rmse.csv").read_bytes()
    hist1 = (tmp_path / "sim" / "break_histogram.csv").read_bytes()
    assert main(["simulate", "--config", str(cfg), "--seed", "5"]) == EXIT_OK
    assert (tmp_path / "sim" / "rmse.csv").read_bytes() == rmse1
    assert (tmp_path / "sim" / "break_histogram.csv").read_bytes() == hist1
    rows = read_rows(tmp_path / "sim" / "rmse.csv")
    assert {r["estimator"] for r in rows} == {"ue", "re", "js", "pp"}


def test_simulate_custom_design_low_rank_fails_numerically(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "t": 30,
                "reps": 5,
                "sigma2_grid": [0.5],
                "m": 1,
                "q": 1,
                "true_breaks": [15],
                "delta0": [2.0, 0.0],
                "restriction": {"pattern": "zero-segment", "segment": 2},
                "out": str(tmp_path / "sim"),
            }
        )
    )
    # zero-segment with q = 1 gives k = 1 <= 2: the study always runs the
    # Stein pair, so every replication fails and the run exits numerically
    # rather than silently skipping them
    assert main(["simulate", "--config", str(cfg), "--seed", "2"]) == EXIT_NUMERIC


def test_simulate_custom_design_runs(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "t": 40,
                "reps": 4,
                "sigma2_grid": [0.5],
                "m": 1,
                "q": 3,
                "true_breaks": [20],
                "delta0": [1.0, 2.0, 3.0, 1.0, 2.0, 3.0],
                "restriction": {"pattern": "equal-segments", "segments": [1, 2]},
                "out": str(tmp_path / "sim"),
            }
        )
    )
    # equal-segments with q = 3 has rank 3, enough for the Stein pair
    assert main(["simulate", "--config", str(cfg), "--seed", "2"]) == EXIT_OK
    rows = read_rows(tmp_path / "sim" / "rmse.csv")
    assert {r["estimator"] for r in rows} == {"ue", "re", "js", "pp"}


def test_risk_curves_ordering(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "scaffold": {"kind": "random-dominant", "n": 8, "k": 4},
                "delta_points": 9,
                "out": str(tmp_path / "risk"),
            }
        )
    )
    assert main(["risk", "--config", str(cfg), "--seed", "3"]) == EXIT_OK
    rows = read_rows(tmp_path / "risk" / "adr_curves.csv")
    assert len(rows) == 9
    for row in rows:
        ue, js, pp = float(row["adr_ue"]), float(row["adr_js"]), float(row["adr_pp"])
        assert pp <= js + 1e-9 and js <= ue + 1e-9
        assert row["dominance_holds"] == "true"


def test_verify_small_run(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps({"n_samples": 20000, "n_setups": 1, "out": str(tmp_path / "verify")})
    )
    assert main(["verify", "--config", str(cfg), "--seed", "7"]) == EXIT_OK
    rows = read_rows(tmp_path / "verify" / "verify_report.csv")
    assert len(rows) == 10  # 1 setup x 3 rules x 3 identities + control
    assert rows[-1]["expected"] == "fail"
    assert all(r["status"] == "ok" for r in rows)


def test_flag_overrides_config(tmp_path):
    write_trend_series(tmp_path / "series.csv", brk=60)
    cfg = fit_config(tmp_path, seed=1)
    out2 = tmp_path / "other"
    assert main(["fit", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out2 / "estimates.csv").exists()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["out"] == str(out2)
