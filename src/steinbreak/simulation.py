"""Monte Carlo study of the estimators on synthetic break designs.

Each replication simulates regressors and errors, estimates the break
dates (unrestricted via dynamic programming, restricted via the configured
method), fits the four estimators and accumulates squared coefficient
error against the truth.  Efficiency is reported relative to
the unrestricted estimator:

    rmse(e) = risk(unrestricted) / risk(e)

so values above one favor the candidate.  Two canned designs reproduce the
small (m=3, q=2) and larger (m=4, q=5) study configurations, where the true
coefficients satisfy the restriction exactly.

Per-replication seeds are derived from (seed, sigma-index, replication), so
a given seed yields bit-identical results regardless of how replications
would be scheduled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SteinbreakError
from .estimators import SHRINKAGE_RULES
from .model import Partition, RegressionData, Restriction, _readonly, block_restriction
from .segmentation import (
    METHOD_REFINE,
    SearchConfig,
    SegmentMoments,
    estimate_groups,
    find_breaks_restricted,
    find_breaks_unrestricted,
    response_batches,
    response_chunks,
)

ESTIMATOR_NAMES = ("ue", "re", "js", "pp")


def exp_decay_cov(q: int, rho: float = 0.5) -> np.ndarray:
    """Covariance with entries rho^|a-b| (unit variances)."""
    idx = np.arange(q)
    return rho ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class SimDesign:
    """A complete synthetic design: truth, noise grid and estimation options."""

    m: int
    q: int
    n_obs: int
    true_breaks: tuple[int, ...]
    delta0: np.ndarray
    restriction: Restriction
    sigma2_grid: tuple[float, ...] = (1.0, 1.5, 2.0)
    n_reps: int = 1000
    seed: int = 0
    min_seg_frac: float = 0.05
    restricted_search: str = METHOD_REFINE
    redraw_regressors: bool = True
    label: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "delta0", _readonly(self.delta0))
        part = Partition(self.true_breaks)
        part.validate_for(self.n_obs)
        n = (self.m + 1) * self.q
        if self.delta0.shape != (n,):
            raise ValueError(f"delta0 must have length {(self.m + 1) * self.q}")
        self.restriction.check_dims(n)

    @property
    def true_partition(self) -> Partition:
        return Partition(self.true_breaks)


def _scaled_breaks(n_obs: int, fracs: tuple[float, ...]) -> tuple[int, ...]:
    return tuple(int(round(f * n_obs)) for f in fracs)


def build_case1(n_obs: int = 100, n_reps: int = 1000, seed: int = 0) -> SimDesign:
    """Small design: m=3 breaks, q=2 regressors per segment.

    Segment coefficients alternate between (1, 2) and zero; the restriction
    (rank 6) states that segments 1 and 3 share coefficients and segments 2
    and 4 are zero, which the truth satisfies.  Break dates are (10, 20, 30)
    at T=40 and (25, 50, 75) at T=100; other sample sizes scale the same
    quarter fractions.
    """
    m, q = 3, 2
    breaks = {40: (10, 20, 30), 100: (25, 50, 75)}.get(
        n_obs, _scaled_breaks(n_obs, (0.25, 0.5, 0.75))
    )
    delta0 = np.array([1.0, 2.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0])
    restriction = block_restriction(m, q, [("equal", 1, 3), ("zero", 2), ("zero", 4)])
    return SimDesign(
        m=m,
        q=q,
        n_obs=n_obs,
        true_breaks=breaks,
        delta0=delta0,
        restriction=restriction,
        n_reps=n_reps,
        seed=seed,
        label="case1",
    )


def build_case2(n_obs: int = 100, n_reps: int = 1000, seed: int = 0) -> SimDesign:
    """Larger design: m=4 breaks, q=5 regressors per segment.

    Odd segments carry (1, 2, 3, 4, 5), even segments zero.  The rank-8
    restriction equates the first five coefficients of segments 1 and 3,
    zeroes the first coefficient of segment 2 and two coefficients of
    segment 4.  Break dates are (20, 40, 60, 80) at T=100 and
    (100, 200, 300, 400) at T=500; other sizes scale the fifth fractions.
    """
    m, q = 4, 5
    breaks = {100: (20, 40, 60, 80), 500: (100, 200, 300, 400)}.get(
        n_obs, _scaled_breaks(n_obs, (0.2, 0.4, 0.6, 0.8))
    )
    block = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    delta0 = np.concatenate([block, np.zeros(5), block, np.zeros(5), block])
    restriction = block_restriction(
        m, q, [("equal", 1, 3), ("zero", 2, (1,)), ("zero", 4, (4, 5))]
    )
    return SimDesign(
        m=m,
        q=q,
        n_obs=n_obs,
        true_breaks=breaks,
        delta0=delta0,
        restriction=restriction,
        n_reps=n_reps,
        seed=seed,
        label="case2",
    )


@dataclass
class SimResult:
    """Aggregated study output.

    ``risks``/``rmse``/``n_fail`` are keyed by sigma2; break estimates are
    (n_success, m) integer arrays per sigma2 for both break searches.
    """

    label: str
    n_obs: int
    sigma2_grid: tuple[float, ...]
    estimators: tuple[str, ...]
    risks: dict[float, dict[str, float]] = field(default_factory=dict)
    rmse: dict[float, dict[str, float]] = field(default_factory=dict)
    n_fail: dict[float, int] = field(default_factory=dict)
    breaks_ue: dict[float, np.ndarray] = field(default_factory=dict)
    breaks_re: dict[float, np.ndarray] = field(default_factory=dict)
    elapsed: dict[float, float] = field(default_factory=dict)
    flagged: bool = False


def _draw_regressors(design: SimDesign, rng: np.random.Generator) -> np.ndarray:
    """``T`` regressor rows from ``N(1, exp_decay_cov(q))``."""
    return rng.multivariate_normal(np.ones(design.q), exp_decay_cov(design.q), size=design.n_obs)


def simulate_dataset(
    design: SimDesign, sigma2: float, rng: np.random.Generator, z: np.ndarray | None = None
) -> RegressionData:
    """Draw one dataset from the design at noise level ``sigma2``."""
    if z is None:
        z = _draw_regressors(design, rng)
    u = rng.normal(0.0, np.sqrt(sigma2), size=design.n_obs)
    y = np.empty(design.n_obs)
    for p, (s, e) in enumerate(design.true_partition.segments(design.n_obs)):
        y[s:e] = z[s:e] @ design.delta0[p * design.q:(p + 1) * design.q] + u[s:e]
    return RegressionData(y=y, z=z)


def _rep_rng(seed: int, sigma_index: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, sigma_index, rep)))


def _replications(design: SimDesign, data: RegressionData, stats: SegmentMoments | None = None):
    """Estimate breaks and the four estimators on each response of ``data``.

    Yields, per response in order, (losses by estimator, ue breaks, re
    breaks), or the ``SteinbreakError`` that ended it; the search of a lone
    response raises its error instead.  The restricted
    estimator is fitted at its own break estimates; the shrinkage pair
    conditions everything (including the plug-in matrices) on the
    unrestricted breaks.  Chunk by chunk
    (:func:`~steinbreak.segmentation.response_chunks`), the responses are
    searched in :func:`~steinbreak.segmentation.response_batches` on
    ``stats`` (a search state on ``data.z``; by default one is built per
    chunk) and fitted by :func:`~steinbreak.segmentation.estimate_groups`.
    """
    cfg = SearchConfig(m=design.m, min_seg_frac=design.min_seg_frac)
    rcfg = SearchConfig(
        m=design.m, min_seg_frac=design.min_seg_frac, method=design.restricted_search
    )
    for chunk in response_chunks(data):
        searches = []
        for batch, state in response_batches(chunk, stats):
            ue = find_breaks_unrestricted(batch, cfg, stats=state)
            re = find_breaks_restricted(batch, design.restriction, rcfg, stats=state)
            searches += zip(ue.results, re.results)
        for fitted in estimate_groups(chunk, design.restriction, searches):
            if isinstance(fitted, SteinbreakError):
                yield fitted
                continue
            losses = {}
            for name, est in fitted["estimates"].items():
                err = est.delta - design.delta0
                losses[name] = float(err @ err)
            yield losses, fitted["ue_search"].partition.breaks, fitted["re_search"].partition.breaks


def _one_replication(design: SimDesign, data: RegressionData):
    """The outcome of :func:`_replications` on a one-response ``data``,
    whose searches raise their error rather than return it."""
    try:
        (result,) = _replications(design, data)
    except SteinbreakError as exc:
        return exc
    return result


def run_monte_carlo(design: SimDesign) -> SimResult:
    """Run the full study over the design's noise grid.

    Replication failures (singular fits and the like) are counted and
    skipped, never silently dropped; the result is flagged when failures
    exceed 1% at any noise level.  Every replication builds the Stein
    pair, so a restriction with ``k <= 2`` raises ``KTooSmall`` before any
    search.  With redrawn regressors each replication is a batch of one;
    with fixed regressors all replications of a noise level form one batch
    on one search state for the study, which factors every segment Gram
    once.  Either way a replication's numbers are those of its own batch of
    one.
    """
    for name in ESTIMATOR_NAMES:
        if name in SHRINKAGE_RULES:
            SHRINKAGE_RULES[name](design.restriction.k)
    result = SimResult(
        label=design.label,
        n_obs=design.n_obs,
        sigma2_grid=design.sigma2_grid,
        estimators=ESTIMATOR_NAMES,
    )
    fixed_z = stats = None
    if not design.redraw_regressors:
        rng0 = np.random.default_rng(np.random.SeedSequence((design.seed, 0x5E6D)))
        fixed_z = _draw_regressors(design, rng0)
        stats = SegmentMoments(RegressionData(y=np.zeros(design.n_obs), z=fixed_z), keep_factors=True)
    for si, sigma2 in enumerate(design.sigma2_grid):
        t0 = time.perf_counter()
        rngs = (_rep_rng(design.seed, si, rep) for rep in range(design.n_reps))
        if fixed_z is None:
            outcomes = (_one_replication(design, simulate_dataset(design, sigma2, rng)) for rng in rngs)
        else:
            ys = [simulate_dataset(design, sigma2, rng, z=fixed_z).y for rng in rngs]
            outcomes = _replications(design, RegressionData(y=ys, z=fixed_z), stats)
        sums = {name: 0.0 for name in ESTIMATOR_NAMES}
        ue_breaks, re_breaks = [], []
        failures = 0
        for outcome in outcomes:
            if isinstance(outcome, SteinbreakError):
                failures += 1
                continue
            losses, bu, br = outcome
            for name, value in losses.items():
                sums[name] += value
            ue_breaks.append(bu)
            re_breaks.append(br)
        n_ok = design.n_reps - failures
        if n_ok == 0:
            raise SteinbreakError(f"all replications failed at sigma2={sigma2}")
        risks = {name: sums[name] / n_ok for name in ESTIMATOR_NAMES}
        base = risks["ue"]
        rmse = {}
        for name, risk in risks.items():
            if risk == 0.0:
                rmse[name] = 1.0 if base == 0.0 else np.inf
            else:
                rmse[name] = base / risk
        result.risks[sigma2] = risks
        result.rmse[sigma2] = rmse
        result.n_fail[sigma2] = failures
        result.breaks_ue[sigma2] = np.asarray(ue_breaks, dtype=int).reshape(n_ok, design.m)
        result.breaks_re[sigma2] = np.asarray(re_breaks, dtype=int).reshape(n_ok, design.m)
        result.elapsed[sigma2] = time.perf_counter() - t0
        if failures > 0.01 * design.n_reps:
            result.flagged = True
    return result


def break_mode(result: SimResult, sigma2: float, which: str = "ue") -> tuple[int, ...]:
    """Most frequent estimated time per break index (smallest wins ties)."""
    arr = result.breaks_ue[sigma2] if which == "ue" else result.breaks_re[sigma2]
    modes = []
    for col in arr.T:
        values, counts = np.unique(col, return_counts=True)
        modes.append(int(values[np.argmax(counts)]))
    return tuple(modes)


def rmse_rows(result: SimResult) -> list[dict]:
    """Rows for the `sigma2, estimator, rmse, n_fail` table."""
    rows = []
    for sigma2 in result.sigma2_grid:
        for name in result.estimators:
            rows.append(
                {
                    "sigma2": sigma2,
                    "estimator": name,
                    "rmse": result.rmse[sigma2][name],
                    "n_fail": result.n_fail[sigma2],
                }
            )
    return rows


def histogram_rows(result: SimResult) -> list[dict]:
    """Rows for the break-frequency table, pooled over the noise grid."""
    rows = []
    for which in ("ue", "re"):
        source = result.breaks_ue if which == "ue" else result.breaks_re
        for sigma2 in result.sigma2_grid:
            arr = source[sigma2]
            for j in range(arr.shape[1]):
                values, counts = np.unique(arr[:, j], return_counts=True)
                for value, count in zip(values, counts):
                    rows.append(
                        {
                            "case": result.label,
                            "T": result.n_obs,
                            "search": which,
                            "sigma2": sigma2,
                            "break_index": j + 1,
                            "estimated_time": int(value),
                            "count": int(count),
                        }
                    )
    return rows
