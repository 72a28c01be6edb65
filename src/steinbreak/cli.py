"""Command-line interface.

Subcommands: ``fit`` (estimate a series from CSV), ``bootstrap`` (residual
bootstrap MSE around a fit), ``simulate`` (canned or custom Monte Carlo
designs), ``risk`` (asymptotic risk curves over a noncentrality grid) and
``verify`` (the Gaussian-identity Monte Carlo suite).

Runs are driven by a JSON config file plus flag overrides.  A run checks
the whole config first (unknown keys, types, the values in ``ALLOWED`` and
the bounds in ``RANGES``), computes its tables, and only then does
:func:`main` create the output directory and write them with
``manifest.json``: a run exiting 2 or 3 creates no output directory, while a
``verify`` exiting 4 still writes its report.  Artifacts are written
atomically (temp file then rename) with deterministic formatting, so a rerun
with the same config and seed is byte-identical.  Exit codes: 0 ok, 2 config
error, 3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, InfeasibleConfig, KTooSmall, SteinbreakError
from .estimators import SHRINKAGE_RULES
from .model import RegressionData, Restriction, block_restriction, read_series_csv
from .risk import (
    adr_james_stein,
    adr_positive_part,
    adr_restricted,
    adr_unrestricted,
    dominance_check,
    empirical_noncentrality,
    make_scaffold,
    make_weight,
    random_dominant_scaffold,
    scaffold_at_delta,
)
from .segmentation import (
    METHOD_EXHAUSTIVE,
    METHOD_REFINE,
    SearchConfig,
    SegmentMoments,
    estimate_groups,
    find_breaks_restricted,
    find_breaks_unrestricted,
    response_batches,
    response_chunks,
)
from .simulation import (
    SimDesign,
    build_case1,
    build_case2,
    histogram_rows,
    rmse_rows,
    run_monte_carlo,
)
from .stein_oracle import MIN_SAMPLES, run_verification_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_SEARCH_METHODS = {
    "exhaustive": METHOD_EXHAUSTIVE,
    "refine": METHOD_REFINE,
    METHOD_REFINE: METHOD_REFINE,
}

# key -> (type, default); REQUIRED means the key must be present.
REQUIRED = object()

# One schema serves fit and bootstrap so a single config file drives both
# (fit simply ignores the bootstrap replicate count).
_FIT_KEYS = {
    "csv": (str, REQUIRED),
    "m": (int, 1),
    "basis": (str, "none"),
    "restriction": (dict, REQUIRED),
    "min_seg_frac": (float, 0.05),
    "omega": (str, "hc0"),
    "hac_bandwidth": (int, None),
    "restricted_search": (str, "exhaustive"),
    "exhaustive_budget": (int, 200_000),
    "shrink_partition": (str, "ue"),
    "estimators": (list, ["ue", "re", "js", "pp"]),
    "bootstrap_b": (int, 500),
    "seed": (int, 0),
    "out": (str, "out"),
}

SCHEMAS: dict[str, dict] = {
    "fit": dict(_FIT_KEYS),
    "bootstrap": dict(_FIT_KEYS),
    "simulate": {
        "case": (int, None),
        "t": (int, 100),
        "reps": (int, 1000),
        "sigma2_grid": (list, [1.0, 1.5, 2.0]),
        "restricted_search": (str, "refine"),
        "redraw_regressors": (bool, True),
        "min_seg_frac": (float, 0.05),
        "m": (int, None),
        "q": (int, None),
        "true_breaks": (list, None),
        "delta0": (list, None),
        "restriction": (dict, None),
        "seed": (int, 0),
        "out": (str, "out"),
    },
    "risk": {
        "scaffold": (dict, {"kind": "random-dominant", "n": 8, "k": 4}),
        "w_star": (list, None),
        "delta_start": (float, 0.0),
        "delta_stop": (float, 20.0),
        "delta_points": (int, 41),
        "mu_direction": (list, None),
        "seed": (int, 0),
        "out": (str, "out"),
    },
    "verify": {
        "n_samples": (int, 1_000_000),
        "n_setups": (int, 5),
        "negative_control": (bool, True),
        "seed": (int, 2),
        "out": (str, "out"),
    },
}

# Allowed values of the enumerated keys; a list key allows each element,
# must have one and must not repeat one.
ALLOWED: dict[str, tuple] = {
    "basis": ("none", "power-trend"),
    "omega": ("hc0", "hac"),
    "restricted_search": tuple(_SEARCH_METHODS),
    "shrink_partition": ("ue", "re"),
    "estimators": ("ue", "re", *SHRINKAGE_RULES),
    "case": (None, 1, 2),
}

# key -> (lowest value, whether the lowest value itself is excluded[, an
# excluded highest value]); a list key bounds each element and must have
# one, and a null value is not bounded.
RANGES: dict[str, tuple] = {
    "m": (0, False),
    "q": (1, False),
    "t": (2, False),
    "min_seg_frac": (0.0, True, 1.0),
    "hac_bandwidth": (0, False),
    "exhaustive_budget": (1, False),
    "bootstrap_b": (1, False),
    "reps": (1, False),
    "sigma2_grid": (0.0, True),
    "delta_start": (0.0, False),
    "delta_stop": (0.0, False),
    "delta_points": (1, False),
    "seed": (0, False),
    "n_samples": (MIN_SAMPLES, False),
    "n_setups": (1, False),
}


def _check_value(key: str, value) -> None:
    """Raise ``ConfigError`` if ``value`` is outside ``ALLOWED`` or ``RANGES``."""
    if (key in RANGES or key in ALLOWED) and value == []:
        raise ConfigError(f"config key {key!r} must not be empty")
    for i, item in enumerate(value if isinstance(value, list) else [value]):
        if key in ALLOWED and item not in ALLOWED[key]:
            raise ConfigError(f"config key {key!r} must be one of {list(ALLOWED[key])}, got {item!r}")
        if key in ALLOWED and isinstance(value, list) and item in value[:i]:
            raise ConfigError(f"config key {key!r} must not repeat {item!r}")
        if key in RANGES and item is not None:
            low, strict, *high = RANGES[key]
            number = isinstance(item, (int, float)) and not isinstance(item, bool)
            if not (number and (item > low if strict else item >= low) and all(item < h for h in high)):
                bounds = f"{'>' if strict else '>='} {low}" + "".join(f" and < {h}" for h in high)
                raise ConfigError(f"config key {key!r} must be {bounds}, got {item!r}")


def _reject_unknown(spec: dict, allowed, what: str) -> None:
    """Raise ``ConfigError`` naming the keys of ``spec`` outside ``allowed``."""
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what}: {unknown}")


@dataclass
class RunConfig:
    """Validated configuration for one subcommand."""

    subcommand: str
    values: dict

    @classmethod
    def from_dict(cls, subcommand: str, raw: dict) -> "RunConfig":
        if subcommand not in SCHEMAS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        schema = SCHEMAS[subcommand]
        _reject_unknown(raw, schema, f"config keys for {subcommand}")
        values = {}
        for key, (typ, default) in schema.items():
            if key in raw:
                value = raw[key]
                if value is None and default is not None:
                    raise ConfigError(f"config key {key!r} must not be null")
                if value is not None and typ is float and isinstance(value, int):
                    value = float(value)
                if value is not None and not isinstance(value, typ):
                    raise ConfigError(
                        f"config key {key!r} must be {typ.__name__}, got {type(value).__name__}"
                    )
                _check_value(key, value)
                values[key] = copy.deepcopy(value)
            elif default is REQUIRED:
                raise ConfigError(f"config key {key!r} is required for {subcommand}")
            else:
                values[key] = copy.deepcopy(default)
        return cls(subcommand=subcommand, values=values)

    def to_dict(self) -> dict:
        return {"subcommand": self.subcommand, **self.values}


# ---------------------------------------------------------------------------
# Deterministic artifact writing


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_manifest(out_dir: Path, cfg: RunConfig) -> None:
    record = {
        "config": cfg.to_dict(),
        "package": "steinbreak",
        "version": __version__,
    }
    atomic_write_text(out_dir / "manifest.json", json.dumps(record, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Model building blocks shared by fit and bootstrap


def power_trend_basis(n_obs: int) -> np.ndarray:
    """Regressors (1, u, u^1.5, u^2) with u = t/T.

    Scaling time to (0, 1] puts the four columns on one scale, so a
    segment's rows are better conditioned than on raw ``t``: at T = 117 the
    last 19 rows have condition number 4.3e5 against 2.3e8.  It only
    rescales the trend coefficients and leaves break dates and the
    zero-restriction on the curvature terms unchanged.  It does not make a
    short late segment well conditioned, because ``u`` varies little there
    and the columns stay nearly collinear: at breaks (60, 98) the three
    segments' rows have condition numbers 832, 2.5e4 and 4.3e5, and
    ``Zbar'Zbar / T``, which squares them, 2.2e11.
    """
    u = np.arange(1, n_obs + 1) / n_obs
    return np.column_stack([np.ones(n_obs), u, u**1.5, u**2])


def _float_array(value, what: str) -> np.ndarray:
    """A config value of numbers (or nested lists of them) as a float
    array; ``ConfigError`` for anything else, strings and booleans too."""
    try:
        array = np.asarray(value)
    except ValueError:
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise ConfigError(f"{what} must be numeric, got {value!r}")
    return array.astype(float)


def restriction_from_spec(spec: dict, m: int, q: int) -> Restriction:
    """Build a restriction from an explicit matrix or a named pattern.

    Patterns: ``linear-trend`` (zero the u^1.5 and u^2 coefficients in every
    segment; needs q = 4), ``equal-segments`` (all q coefficients equal
    between two segments), ``zero-segment`` (all q coefficients of one
    segment are zero).
    """
    if "matrix" in spec:
        _reject_unknown(spec, ("matrix", "rhs"), "restriction keys")
        matrix = _float_array(spec["matrix"], "restriction matrix")
        if matrix.ndim != 2:
            raise ConfigError("restriction matrix must be a list of rows")
        rhs = _float_array(spec.get("rhs", [0.0] * len(matrix)), "restriction rhs")
        return Restriction(matrix=matrix, rhs=rhs)
    if "pattern" not in spec:
        raise ConfigError("restriction needs either 'matrix' or 'pattern'")
    pattern = spec["pattern"]
    if pattern == "linear-trend":
        _reject_unknown(spec, ("pattern",), "restriction keys")
        if q != 4:
            raise ConfigError("linear-trend restriction needs the 4-column trend basis")
        return block_restriction(m, q, [("zero", p, (3, 4)) for p in range(1, m + 2)])
    if pattern == "equal-segments":
        _reject_unknown(spec, ("pattern", "segments"), "restriction keys")
        try:
            i, j = (int(v) for v in spec["segments"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError("equal-segments needs 'segments': [i, j]") from None
        if not (1 <= i <= m + 1 and 1 <= j <= m + 1 and i != j):
            raise ConfigError(f"segments must be distinct and in 1..{m + 1}")
        return block_restriction(m, q, [("equal", i, j)])
    if pattern == "zero-segment":
        _reject_unknown(spec, ("pattern", "segment"), "restriction keys")
        try:
            i = int(spec["segment"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError("zero-segment needs 'segment': i") from None
        if not 1 <= i <= m + 1:
            raise ConfigError(f"segment must be in 1..{m + 1}")
        return block_restriction(m, q, [("zero", i)])
    raise ConfigError(f"unknown restriction pattern {pattern!r}")


def _check_segments_fit(m: int, min_seg_frac: float, n_obs: int, q: int) -> None:
    """Raise ``ConfigError`` unless ``m + 1`` segments of the minimum length
    fit in ``n_obs`` observations, so that some partition is admissible."""
    try:
        SearchConfig(m=m, min_seg_frac=min_seg_frac).feasible_min_length(n_obs, q)
    except InfeasibleConfig as exc:
        raise ConfigError(f"min_seg_frac {min_seg_frac} leaves no partition: {exc}") from None


def _load_fit_data(cfg: RunConfig) -> tuple[RegressionData, Restriction]:
    """The series of a ``fit``/``bootstrap`` config and its restriction."""
    v = cfg.values
    _, y, z = read_series_csv(v["csv"])
    if v["basis"] == "power-trend":
        z = power_trend_basis(len(y))
    elif z is None:
        raise ConfigError("CSV has no regressor columns and no basis was requested")
    data = RegressionData(y=y, z=z)
    _check_segments_fit(v["m"], v["min_seg_frac"], data.n_obs, data.n_regressors)
    restriction = restriction_from_spec(v["restriction"], v["m"], data.n_regressors)
    # a requested Stein rule that k rules out raises KTooSmall before any search
    for name in v["estimators"]:
        if name in SHRINKAGE_RULES:
            SHRINKAGE_RULES[name](restriction.k)
    return data, restriction


def _fit_pipeline(
    cfg: RunConfig,
    data: RegressionData,
    restriction: Restriction,
    stats: SegmentMoments | None = None,
):
    """Both break searches for every response of ``data``, then the
    estimator class at their breaks: chunk by chunk
    (:func:`~steinbreak.segmentation.response_chunks`), the responses are
    searched in :func:`~steinbreak.segmentation.response_batches` and fitted
    by :func:`~steinbreak.segmentation.estimate_groups`.

    ``restriction`` is the config's restriction for ``data``'s regressors,
    built once per run by the caller.  ``stats`` is a search state on
    ``data``'s regressors; by default one is built per chunk.  Yields one
    result dict, or the error that ended it, per response, in order; a
    chunk's results are dropped once the caller moves past them.  The
    search of a lone response raises its error instead.
    """
    v = cfg.values
    cfg_dp = SearchConfig(m=v["m"], min_seg_frac=v["min_seg_frac"])
    cfg_re = SearchConfig(
        m=v["m"],
        min_seg_frac=v["min_seg_frac"],
        method=_SEARCH_METHODS[v["restricted_search"]],
        exhaustive_budget=v["exhaustive_budget"],
    )
    for chunk in response_chunks(data):
        searches = []
        for batch, state in response_batches(chunk, stats):
            ue = find_breaks_unrestricted(batch, cfg_dp, stats=state)
            re = find_breaks_restricted(batch, restriction, cfg_re, stats=state)
            searches += zip(ue.results, re.results)
        yield from estimate_groups(
            chunk,
            restriction,
            searches,
            shrink_partition=v["shrink_partition"],
            shrinkage=tuple(name for name in v["estimators"] if name in SHRINKAGE_RULES),
            omega=v["omega"],
            bandwidth=v["hac_bandwidth"],
        )


def _one_result(results) -> dict:
    """The result of a one-response run; its error is raised."""
    (result,) = results
    if isinstance(result, SteinbreakError):
        raise result
    return result


# ---------------------------------------------------------------------------
# Subcommands: each returns its tables, ``{file name: (header, rows)}``, and
# its exit code; ``main`` writes them.


def cmd_fit(cfg: RunConfig) -> tuple[dict, int]:
    v = cfg.values
    data, restriction = _load_fit_data(cfg)
    result = _one_result(_fit_pipeline(cfg, data, restriction))
    n = (v["m"] + 1) * data.n_regressors
    estimates = [[name] + [float(c) for c in result["estimates"][name].delta] for name in v["estimators"]]
    break_rows = []
    for label, search in (("ue", result["ue_search"]), ("re", result["re_search"])):
        for j, b in enumerate(search.partition.breaks):
            break_rows.append([label, j + 1, int(b)])
    stat_rows = [
        ["k", restriction.k],
        ["psi", float(result["psi"])],
        ["delta_hat", empirical_noncentrality(result["psi"], restriction.k)],
        ["T", data.n_obs],
        ["q", data.n_regressors],
        ["m", v["m"]],
        ["ssr_ue", float(result["estimates"]["ue"].ssr)],
        ["ssr_re", float(result["estimates"]["re"].ssr)],
        ["omega_method", result["plugin"].omega_method],
        ["restricted_is_global", result["re_search"].is_global],
    ]
    return {
        "estimates.csv": (["estimator"] + [f"coef_{i + 1}" for i in range(n)], estimates),
        "breaks.csv": (["search", "break_index", "time"], break_rows),
        "fit_stats.csv": (["key", "value"], stat_rows),
    }, EXIT_OK


def cmd_bootstrap(cfg: RunConfig) -> tuple[dict, int]:
    """Residual bootstrap around the fit: replicate ``b`` draws ``T`` of the
    base UE fit's centred residuals with replacement from
    ``SeedSequence((seed, b))`` and adds them to its fitted values.

    All ``B`` responses are drawn first and run as one batch
    (:func:`_fit_pipeline`) on the base fit's search state, which keeps its
    segment Gram factors: every Gram is factored once per bootstrap.  Each
    replicate's squared deviations are added to the sums as the batch
    yields it, so memory does not grow with ``B`` beyond the responses
    themselves.  A replicate's numbers do not depend on its batch, so
    ``table1.csv`` is that of fitting each replicate alone.  A replicate
    whose pipeline ends in a ``SteinbreakError`` counts once in ``n_fail``
    and leaves the sums.
    """
    data, restriction = _load_fit_data(cfg)
    stats = SegmentMoments(data, keep_factors=True)
    base = _one_result(_fit_pipeline(cfg, data, restriction, stats))
    resid = base["estimates"]["ue"].residuals
    fitted = data.y - resid
    centered = resid - resid.mean()
    n_b = cfg.values["bootstrap_b"]
    seed = cfg.values["seed"]
    names = list(cfg.values["estimators"])
    responses = np.empty((n_b, data.n_obs))
    for b in range(n_b):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        responses[b] = rng.choice(centered, size=data.n_obs, replace=True)
    responses += fitted
    replicates = RegressionData(y=responses, z=data.z)
    del responses
    sums = {name: 0.0 for name in names}
    failures = 0
    for rerun in _fit_pipeline(cfg, replicates, restriction, stats):
        if isinstance(rerun, SteinbreakError):
            failures += 1
            continue
        for name in names:
            diff = rerun["estimates"][name].delta - base["estimates"][name].delta
            sums[name] += float(diff @ diff)
    n_ok = n_b - failures
    if n_ok == 0:
        raise SteinbreakError("all bootstrap replicates failed")
    mse = {name: sums[name] / n_ok for name in names}
    series = Path(cfg.values["csv"]).stem
    header = ["series", "changepoints_ue", "changepoints_re"]
    row = [
        series,
        "|".join(str(b) for b in base["ue_search"].partition.breaks),
        "|".join(str(b) for b in base["re_search"].partition.breaks),
    ]
    for name in names:
        header.append(f"mse_{name}")
        row.append(float(mse[name]))
    header += ["n_fail", "b"]
    row += [failures, n_b]
    return {"table1.csv": (header, [row])}, EXIT_OK


def _design_from_config(cfg: RunConfig) -> SimDesign:
    v = cfg.values
    common = dict(
        n_reps=v["reps"],
        seed=v["seed"],
    )
    if v["case"] is None:
        needed = ("m", "q", "true_breaks", "delta0", "restriction")
        missing = [key for key in needed if v[key] is None]
        if missing:
            raise ConfigError(f"custom design needs keys {missing}")
        m, q, n_obs, breaks = v["m"], v["q"], v["t"], v["true_breaks"]
        _check_segments_fit(m, v["min_seg_frac"], n_obs, q)
        integral = all(isinstance(b, int) and not isinstance(b, bool) for b in breaks)
        if len(breaks) != m or not integral or not all(a < b for a, b in zip([0, *breaks], [*breaks, n_obs])):
            raise ConfigError(f"true_breaks must be {m} increasing integers in 1..{n_obs - 1}, got {breaks}")
        delta0 = _float_array(v["delta0"], "delta0")
        if delta0.shape != ((m + 1) * q,):
            raise ConfigError(f"delta0 must have (m + 1) q = {(m + 1) * q} entries, got {delta0.size}")
        restriction = restriction_from_spec(v["restriction"], m, q)
        if restriction.n_coefs != (m + 1) * q:
            raise ConfigError(f"restriction has {restriction.n_coefs} columns, the design {(m + 1) * q}")
        design = SimDesign(
            m=m,
            q=q,
            n_obs=n_obs,
            true_breaks=tuple(breaks),
            delta0=delta0,
            restriction=restriction,
            **common,
        )
    else:
        # (m, q) of the canned design, checked before its builder places the breaks
        builder, m, q = (build_case1, 3, 2) if v["case"] == 1 else (build_case2, 4, 5)
        _check_segments_fit(m, v["min_seg_frac"], v["t"], q)
        design = builder(n_obs=v["t"], **common)
    return dataclasses.replace(
        design,
        sigma2_grid=tuple(float(s) for s in v["sigma2_grid"]),
        restricted_search=_SEARCH_METHODS[v["restricted_search"]],
        redraw_regressors=v["redraw_regressors"],
        min_seg_frac=v["min_seg_frac"],
    )


def cmd_simulate(cfg: RunConfig) -> tuple[dict, int]:
    result = run_monte_carlo(_design_from_config(cfg))
    if result.flagged:
        print("warning: failure rate above 1% at some noise level")
    rmse = [[r["sigma2"], r["estimator"], float(r["rmse"]), r["n_fail"]] for r in rmse_rows(result)]
    hist_header = ["case", "T", "search", "sigma2", "break_index", "estimated_time", "count"]
    hist = [[r[key] for key in hist_header] for r in histogram_rows(result)]
    return {
        "rmse.csv": (["sigma2", "estimator", "rmse", "n_fail"], rmse),
        "break_histogram.csv": (hist_header, hist),
    }, EXIT_OK


def cmd_risk(cfg: RunConfig) -> tuple[dict, int]:
    v = cfg.values
    spec = v["scaffold"]
    kind = spec.get("kind", "random-dominant")
    if kind == "random-dominant":
        _reject_unknown(spec, ("kind", "n", "k"), "scaffold keys")
        n, k = spec.get("n", 8), spec.get("k", 4)
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in (n, k)):
            raise ConfigError(f"random-dominant scaffold needs integer n and k, got {n!r} and {k!r}")
        if not 2 < k <= n:
            raise ConfigError(f"random-dominant scaffold needs 2 < k <= n, got n={n}, k={k}")
        scaffold, weight = random_dominant_scaffold(n, k, v["seed"])
    elif kind == "explicit":
        _reject_unknown(spec, ("kind", "gamma", "omega", "matrix", "rhs"), "scaffold keys")
        try:
            gamma, omega, matrix = (_float_array(spec[key], key) for key in ("gamma", "omega", "matrix"))
        except KeyError as exc:
            raise ConfigError(f"explicit scaffold needs key {exc}") from None
        n = len(gamma) if gamma.ndim == 2 else 0
        if not n or gamma.shape != (n, n) or omega.shape != (n, n) or matrix.ndim != 2 or matrix.shape[1] != n:
            raise ConfigError(
                "explicit scaffold needs square gamma and omega of one size n and a matrix with n columns"
            )
        rhs = _float_array(spec.get("rhs", [0.0] * len(matrix)), "rhs")
        if rhs.shape != (len(matrix),):
            raise ConfigError(f"explicit scaffold rhs must have one entry per matrix row ({len(matrix)})")
        restriction = Restriction(matrix=matrix, rhs=rhs)
        mu = np.ones(restriction.k)
        scaffold = make_scaffold(gamma, omega, restriction, mu)
        w_star = None if v["w_star"] is None else _float_array(v["w_star"], "w_star")
        if w_star is not None and w_star.shape != (n, n):
            raise ConfigError(f"w_star must be {n} x {n}")
        try:
            weight = make_weight(scaffold.a, w_star)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        raise ConfigError(f"unknown scaffold kind {kind!r}")
    if scaffold.k <= 2:
        raise KTooSmall(f"risk curves need k > 2, got k={scaffold.k}")
    direction = None
    if v["mu_direction"] is not None:
        direction = _float_array(v["mu_direction"], "mu_direction")
        if direction.shape != (scaffold.k,) or not direction.any():
            raise ConfigError(f"mu_direction must be a nonzero vector of length k = {scaffold.k}")
    grid = np.linspace(v["delta_start"], v["delta_stop"], v["delta_points"])
    holds = dominance_check(scaffold, weight).holds
    rows = []
    for delta in grid:
        sc = scaffold_at_delta(scaffold, float(delta), direction=direction)
        rows.append(
            [
                float(delta),
                adr_unrestricted(sc, weight),
                adr_restricted(sc, weight),
                adr_james_stein(sc, weight),
                adr_positive_part(sc, weight),
                holds,
            ]
        )
    header = ["delta", "adr_ue", "adr_re", "adr_js", "adr_pp", "dominance_holds"]
    return {"adr_curves.csv": (header, rows)}, EXIT_OK


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    v = cfg.values
    entries = run_verification_suite(
        n_samples=v["n_samples"],
        seed=v["seed"],
        n_setups=v["n_setups"],
        include_negative_control=v["negative_control"],
    )
    rows = []
    for entry in entries:
        status = "ok" if entry.ok else "FAIL"
        rows.append(
            [
                entry.setup_index,
                entry.identity,
                entry.h_name,
                float(entry.check.sigma_excess()),
                float(entry.check.max_abs_err),
                "fail" if entry.expect_fail else "pass",
                status,
            ]
        )
        tag = "negative-control " if entry.expect_fail else ""
        print(
            f"{status}: {tag}setup {entry.setup_index} {entry.identity} {entry.h_name} "
            f"({entry.check.sigma_excess():.2f} sigma)"
        )
    header = ["setup", "identity", "h", "sigma_excess", "max_abs_err", "expected", "status"]
    code = EXIT_OK if all(entry.ok for entry in entries) else EXIT_VERIFY
    return {"verify_report.csv": (header, rows)}, code


# ---------------------------------------------------------------------------
# Entry point


_COMMANDS = {
    "fit": cmd_fit,
    "bootstrap": cmd_bootstrap,
    "simulate": cmd_simulate,
    "risk": cmd_risk,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinbreak",
        description="Break-point regression with Stein-rule shrinkage estimators",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        if name in ("fit", "bootstrap"):
            p.add_argument("--csv", type=str, default=None)
            p.add_argument("--omega", choices=ALLOWED["omega"], default=None)
        if name in ("fit", "bootstrap", "simulate"):
            p.add_argument(
                "--restricted-search",
                dest="restricted_search",
                choices=["exhaustive", "refine"],
                default=None,
            )
        if name == "bootstrap":
            p.add_argument("--bootstrap-b", dest="bootstrap_b", type=int, default=None)
        if name == "simulate":
            p.add_argument("--case", type=int, choices=[1, 2], default=None)
            p.add_argument("--t", type=int, default=None)
            p.add_argument("--reps", type=int, default=None)
        if name == "verify":
            p.add_argument("--n-samples", dest="n_samples", type=int, default=None)
    return parser


# Built once: ``parse_args`` reads the parser and never changes it.
_PARSER = _build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        raw.pop("subcommand", None)
    # Each flag's dest is the config key it overrides.
    for key in SCHEMAS[args.subcommand]:
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    return RunConfig.from_dict(args.subcommand, raw)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        tables, code = _COMMANDS[args.subcommand](cfg)
    except SteinbreakError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_NUMERIC
    out = Path(cfg.values["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    write_manifest(out, cfg)
    if args.subcommand != "verify":  # verify's report is its per-check lines
        print(f"wrote {out}/{', '.join(tables)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
