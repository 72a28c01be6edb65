"""The three benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs whole
rounds of identical composition in ``run_round``, and afterwards checks
every output it kept in ``check``.  Only calls into steinbreak are timed;
reading outputs back and checking them happen outside the timed spans.
The program is driven through its public functions and ``cli.main``,
always looked up on the module at call time so that tracing wrappers,
when installed, see every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import oracles
from steinbreak import cli, estimators, risk, segmentation, simulation, stein_oracle
from steinbreak.errors import SteinbreakError


def _derive(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence((seed, *parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------


class McStudy:
    """Canned cases 1 (m=3, q=2) and 2 (m=4, q=5) at T=100 over the noise
    grid {1, 1.5, 2}, restricted breaks by coordinate refinement.

    A round is one ``run_monte_carlo`` study per case with one replication
    per noise level, each round on fresh seeds.  One replication per study
    exposes every replication's risk, so the orderings of criterion 6 are
    tested over replications instead of trusted to a small pool.
    """

    name = "mc-study"
    n_obs = 100
    oracle_datasets = 2
    oracle_sigma2 = 2.0

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.studies: dict[str, list] = {}
        self.call_s: dict[str, list[float]] = {}
        self.round_s: list[float] = []
        self.errors: list[str] = []

    def setup(self) -> None:
        self.designs = {
            "case1": simulation.build_case1(self.n_obs, n_reps=1),
            "case2": simulation.build_case2(self.n_obs, n_reps=1),
        }
        self.oracle_data = {}
        for ci, (label, design) in enumerate(self.designs.items()):
            self.oracle_data[label] = [
                simulation.simulate_dataset(
                    design,
                    self.oracle_sigma2,
                    np.random.default_rng(np.random.SeedSequence((self.seed, 0xDA7A, ci, j))),
                )
                for j in range(self.oracle_datasets)
            ]
        self.studies = {label: [] for label in self.designs}
        self.call_s = {label: [] for label in self.designs}

    def run_round(self, r: int, keep: bool = True) -> tuple[int, int]:
        attempted = failed = 0
        spent = 0.0
        for ci, (label, base) in enumerate(self.designs.items()):
            design = dataclasses.replace(base, seed=_derive(self.seed, r, ci))
            reps = len(design.sigma2_grid) * design.n_reps
            attempted += reps
            t0 = time.perf_counter()
            try:
                result = simulation.run_monte_carlo(design)
            except SteinbreakError as exc:
                failed += reps
                self.errors.append(f"{label} round {r}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            spent += dt
            failed += sum(result.n_fail.values())
            if keep:
                self.studies[label].append(result)
                self.call_s[label].append(dt)
        if keep:
            self.round_s.append(spent)
        return attempted, failed

    def metrics(self) -> dict[str, float]:
        reps = sum(len(d.sigma2_grid) * d.n_reps for d in self.designs.values())
        case2_reps = len(self.designs["case2"].sigma2_grid) * len(self.call_s["case2"])
        return {
            "ops_per_s": reps * len(self.round_s) / sum(self.round_s),
            "op_ms": sum(self.call_s["case2"]) / case2_reps * 1e3,
            "batch_s": statistics.mean(self.call_s["case1"]),
        }

    def check(self) -> list[str]:
        fails = list(self.errors)
        for label, design in self.designs.items():
            if not self.studies[label]:
                fails.append(f"{label}: no study completed")
                continue
            fails += checks.check_mc_results(self.studies[label], design.true_breaks)
            restriction = design.restriction
            for data in self.oracle_data[label]:
                cfg = segmentation.SearchConfig(m=design.m, min_seg_frac=design.min_seg_frac)
                rcfg = dataclasses.replace(cfg, method=segmentation.METHOD_REFINE)
                ue = segmentation.find_breaks_unrestricted(data, cfg)
                re = segmentation.find_breaks_restricted(data, restriction, rcfg)
                fit = estimators.fit_restricted(data, re.partition, restriction)
                fails += [
                    f"{label} oracle dataset: {msg}"
                    for msg in checks.check_mc_dataset(
                        data.y, data.z, design.true_breaks,
                        restriction.matrix, restriction.rhs,
                        ue.partition.breaks, re.partition.breaks, re.ssr, fit.delta,
                    )
                ]
        return fails


# ---------------------------------------------------------------------------


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class BootstrapFit:
    """``fit`` then ``bootstrap`` through ``cli.main`` on synthetic series
    of annual-GDP length: power-trend basis, one break, the linear-trend
    restriction (true in the data), exhaustive restricted search, HC0 on
    half the series and HAC on the other half.

    The series lengths are fixed so that every seed costs the same; the
    seed draws the break date, the trend coefficients and the noise.  A
    round repeats the same commands, whose outputs must not change.
    """

    name = "bootstrap-fit"
    lengths = (104, 111, 117, 124)
    omegas = ("hc0", "hac", "hc0", "hac")
    min_seg_frac = 0.15
    boot_b = 25
    noise_sd = 0.05

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.fit_s: list[float] = []
        self.boot_s: list[float] = []
        self.boot_done = 0
        self.round_s: list[float] = []
        self.outputs: list[list[dict]] = []
        self.errors: list[str] = []

    def setup(self) -> None:
        self.series = []
        for i, (n_obs, omega) in enumerate(zip(self.lengths, self.omegas)):
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x5E71E5, i)))
            brk = int(rng.integers(int(0.35 * n_obs), int(0.65 * n_obs) + 1))
            before = np.array([rng.uniform(0.3, 0.7), rng.uniform(0.8, 1.2), 0.0, 0.0])
            after = before + np.array([rng.uniform(0.3, 0.5), rng.uniform(0.4, 0.8), 0.0, 0.0])
            basis = oracles.power_trend(n_obs)
            y = np.where(np.arange(n_obs) < brk, basis @ before, basis @ after)
            y = y + rng.normal(0.0, self.noise_sd, n_obs)
            csv_path = self.out_dir / f"series{i}.csv"
            with csv_path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "y"])
                for t in range(n_obs):
                    writer.writerow([t + 1, repr(float(y[t]))])
            run_dir = self.out_dir / f"run{i}"
            cfg_path = self.out_dir / f"config{i}.json"
            cfg_path.write_text(json.dumps({
                "csv": str(csv_path.resolve()),
                "m": 1,
                "basis": "power-trend",
                "restriction": {"pattern": "linear-trend"},
                "min_seg_frac": self.min_seg_frac,
                "omega": omega,
                "restricted_search": "exhaustive",
                "bootstrap_b": self.boot_b,
                "seed": _derive(self.seed, 0xB007, i),
                "out": str(run_dir.resolve()),
            }), encoding="utf-8")
            self.series.append({"cfg": str(cfg_path), "dir": run_dir, "y": y, "omega": omega})

    def _main(self, argv: list[str], label: str) -> tuple[int, float]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed operation, not a crashed benchmark
                code = -1
                traceback.print_exc(file=sink)
            dt = time.perf_counter() - t0
        if code != 0:
            self.errors.append(f"{label}: exit {code}: {sink.getvalue().strip()[-300:]}")
        return code, dt

    def run_round(self, r: int, keep: bool = True) -> tuple[int, int]:
        attempted = failed = 0
        spent = 0.0
        fit_s, boot_s, boot_done, kept = [], [], 0, []
        for i, s in enumerate(self.series):
            attempted += 1 + self.boot_b
            code, dt = self._main(["fit", "--config", s["cfg"]], f"series {i} fit")
            spent += dt
            fit_s.append(dt)
            failed += code != 0
            texts = {}
            if code == 0:
                for name in ("estimates.csv", "breaks.csv", "fit_stats.csv"):
                    texts[name] = (s["dir"] / name).read_text(encoding="utf-8")
            code, dt = self._main(["bootstrap", "--config", s["cfg"]], f"series {i} bootstrap")
            spent += dt
            if code == 0:
                texts["table1.csv"] = (s["dir"] / "table1.csv").read_text(encoding="utf-8")
                n_fail = int(_csv_rows(texts["table1.csv"])[0]["n_fail"])
                failed += n_fail
                boot_s.append(dt)
                boot_done += self.boot_b - n_fail
            else:
                failed += self.boot_b
            kept.append(texts)
        if keep:
            self.fit_s += fit_s
            self.boot_s += boot_s
            self.boot_done += boot_done
            self.outputs.append(kept)
            self.round_s.append(spent)
        return attempted, failed

    def metrics(self) -> dict[str, float]:
        return {
            "ops_per_s": self.boot_done / sum(self.boot_s),
            "op_ms": statistics.mean(self.fit_s) * 1e3,
            "batch_s": statistics.mean(self.round_s),
        }

    def check(self) -> list[str]:
        fails = list(self.errors)
        if fails:
            return fails
        first = self.outputs[0]
        for r, kept in enumerate(self.outputs[1:], start=1):
            for i, texts in enumerate(kept):
                for name, text in texts.items():
                    if text != first[i][name]:
                        fails.append(f"series {i}: {name} of round {r} differs from round 0")
        for i, s in enumerate(self.series):
            texts = first[i]
            y = s["y"]
            n_obs = len(y)
            z = oracles.power_trend(n_obs)
            rmat = oracles.linear_trend_restriction(2)
            estimates, breaks, psi = checks.parse_fit_outputs(texts)
            min_len = max(int(np.floor(self.min_seg_frac * n_obs)), z.shape[1])
            table = _csv_rows(texts["table1.csv"])[0]
            fails += [
                f"series {i}: {msg}"
                for msg in checks.check_fit(y, z, min_len, rmat, s["omega"], estimates, breaks, psi)
                + checks.check_bootstrap(table, self.boot_b, breaks)
            ]
        return fails


# ---------------------------------------------------------------------------


class RiskVerify:
    """Asymptotic risk curves on certified-dominant scaffolds over the
    41-point grid 0..20, three ways: closed-form kernels for UE/RE/JS/PP,
    quadrature (``adr_class``) for the pretest rule, and the identity
    verification suite at a fixed sample count.  A round repeats the same
    computations, whose results must not change.
    """

    name = "risk-verify"
    dims = ((8, 4), (10, 5), (6, 3), (12, 6))
    n_scaffolds = 16
    grid = tuple(float(d) for d in np.linspace(0.0, 20.0, 41))
    pretest_alpha = 0.05
    verify_samples = 100_000
    verify_setups = 5
    agreement_deltas = (0.0, 4.0, 20.0)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.closed_s: list[float] = []
        self.quad_point_s: list[float] = []
        self.suite_s: list[float] = []
        self.curves: list[list] = []
        self.pretest: list[list[float]] = []
        self.suites: list[list] = []

    def setup(self) -> None:
        self.scaffolds = []
        for i in range(self.n_scaffolds):
            n, k = self.dims[i % len(self.dims)]
            self.scaffolds.append(risk.random_dominant_scaffold(n, k, _derive(self.seed, 0x5CAF, i)))
        scaffold0 = self.scaffolds[0][0]
        self.pretest_rule = estimators.make_pretest(scaffold0.k, self.pretest_alpha)
        self.suite_seed = _derive(self.seed, 0x7E51)

    def run_round(self, r: int, keep: bool = True) -> tuple[int, int]:
        curves = [[] for _ in self.scaffolds]
        closed_s, values, point_s = [], [], []
        scaffold0, weight0 = self.scaffolds[0]
        for delta in self.grid:
            t0 = time.perf_counter()
            for (scaffold, weight), rows in zip(self.scaffolds, curves):
                sc = risk.scaffold_at_delta(scaffold, delta)
                rows.append((
                    delta,
                    risk.adr_unrestricted(sc, weight),
                    risk.adr_restricted(sc, weight),
                    risk.adr_james_stein(sc, weight),
                    risk.adr_positive_part(sc, weight),
                ))
            closed_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            sc = risk.scaffold_at_delta(scaffold0, delta)
            values.append(risk.adr_class(self.pretest_rule, sc, weight0).total)
            point_s.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        entries = stein_oracle.run_verification_suite(
            n_samples=self.verify_samples, seed=self.suite_seed, n_setups=self.verify_setups
        )
        suite_s = time.perf_counter() - t0
        if keep:
            self.closed_s += closed_s
            self.curves.append(curves)
            self.quad_point_s += point_s
            self.pretest.append(values)
            self.suite_s.append(suite_s)
            self.suites.append(entries)
        attempted = len(self.scaffolds) * len(self.grid) + len(self.grid) + len(entries)
        return attempted, 0

    def metrics(self) -> dict[str, float]:
        return {
            "ops_per_s": len(self.scaffolds) * len(self.closed_s) / sum(self.closed_s),
            "op_ms": statistics.mean(self.quad_point_s) * 1e3,
            "batch_s": statistics.mean(self.suite_s),
        }

    def check(self) -> list[str]:
        fails = []
        for r in range(1, len(self.curves)):
            if self.curves[r] != self.curves[0] or self.pretest[r] != self.pretest[0]:
                fails.append(f"risk curves of round {r} differ from round 0")
        for i, rows in enumerate(self.curves[0]):
            fails += [f"scaffold {i}: {msg}" for msg in checks.check_risk_curve(rows)]
        if not all(np.isfinite(v) and v >= 0.0 for v in self.pretest[0]):
            fails.append(f"pretest risks not finite and nonnegative: {self.pretest[0]}")
        pairs = []
        for i, (scaffold, weight) in enumerate(self.scaffolds[:2]):
            k = scaffold.k
            rules = (
                ("js", estimators.make_james_stein(k), risk.adr_james_stein),
                ("pp", estimators.make_positive_part(k), risk.adr_positive_part),
                ("h=1", estimators.ShrinkageFunction(lambda x: 1.0, "one"), risk.adr_unrestricted),
                ("h=0", estimators.ShrinkageFunction(lambda x: 0.0, "zero"), risk.adr_restricted),
            )
            for delta in self.agreement_deltas:
                sc = risk.scaffold_at_delta(scaffold, delta)
                for label, rule, closed in rules:
                    pairs.append((
                        f"scaffold {i} delta={delta} {label} quadrature vs closed form",
                        risk.adr_class(rule, sc, weight).total,
                        closed(sc, weight),
                    ))
        fails += checks.check_agreement(pairs)
        for r, entries in enumerate(self.suites):
            fails += [
                f"verification round {r}: {msg}"
                for msg in checks.check_identity_suite(
                    [e.check.sigma_excess() for e in entries],
                    [np.atleast_1d(e.check.mc_estimate).size for e in entries],
                    [e.expect_fail for e in entries],
                )
            ]
        return fails


WORKLOADS = {cls.name: cls for cls in (McStudy, BootstrapFit, RiskVerify)}
