"""Output checks for the three workloads.

Each check compares the program's output with a computation from
:mod:`oracles` or with a property the method must have, and returns a list
of failure messages (empty when the output is correct).  No check compares
with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io

import numpy as np

import oracles

# Relative tolerance for agreement with a reference computation.
REL_TOL = 1e-8
# Coefficient agreement on the power-trend basis, whose segment Gram
# matrices have condition numbers near 1e7.
COEF_REL_TOL = 1e-6
# Family-wise level of the statistical checks: the chance that a correct
# program fails one of them in a run.
FAMILY_ALPHA = 1e-6


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def _mode_excess(values, truth: int) -> tuple[float, int]:
    """Sign-test statistic against "the truth is the modal value".

    For the most frequent other value ``v``: ``(c_v - c_truth) /
    sqrt(c_v + c_truth)``, which stays below a normal quantile unless ``v``
    is significantly more likely than the truth.
    """
    vals, counts = np.unique(np.asarray(values, dtype=int), return_counts=True)
    freq = dict(zip(vals.tolist(), counts.tolist()))
    c_truth = freq.pop(int(truth), 0)
    if not freq:
        return -np.inf, int(truth)
    other = max(freq, key=lambda v: (freq[v], -v))
    return (freq[other] - c_truth) / np.sqrt(freq[other] + c_truth), other


# ---------------------------------------------------------------------------
# mc-study


def check_mc_results(results, true_breaks) -> list[str]:
    """Checks on the ``SimResult`` list of one canned case.

    Per study: no replication fails and ``rmse["ue"] == 1``.  Pooled over
    the studies of the run, as tests at the family level: the truth is the
    modal UE and RE break date at every noise level and over the whole grid
    (a sign test against the most frequent other date), and JS efficiency
    >= 1 and PP >= JS hold (one-sided batch-means tests, one batch per
    study).
    """
    fails = []
    label = results[0].label
    grid = results[0].sigma2_grid
    for i, res in enumerate(results):
        for s2 in grid:
            if res.n_fail[s2] != 0:
                fails.append(f"{label} study {i}: {res.n_fail[s2]} failed replications at sigma2={s2}")
            if res.rmse[s2]["ue"] != 1.0:
                fails.append(f"{label} study {i}: rmse[ue] = {res.rmse[s2]['ue']!r} at sigma2={s2}")
    if fails:
        return fails
    n = len(results)
    m = len(true_breaks)
    mode_bound = oracles.familywise_z(2 * m * (len(grid) + 1), FAMILY_ALPHA)
    for which, source in (("ue", "breaks_ue"), ("re", "breaks_re")):
        by_level = {s2: np.concatenate([getattr(r, source)[s2] for r in results]) for s2 in grid}
        by_level["all"] = np.concatenate(list(by_level.values()))
        for level, pooled in by_level.items():
            for j, truth in enumerate(true_breaks):
                z, other = _mode_excess(pooled[:, j], truth)
                if z > mode_bound:
                    fails.append(
                        f"{label}: {which} break {j + 1} at sigma2={level}: {other} is more "
                        f"frequent than the truth {truth} (sign test {z:.2f} > {mode_bound:.2f})"
                    )
    if n < 2:
        return fails  # one study gives no standard error for the orderings
    bound = oracles.one_sided_t(n, FAMILY_ALPHA / (2 * len(grid)))
    for s2 in grid:
        risk = {name: np.array([r.risks[s2][name] for r in results]) for name in ("ue", "js", "pp")}
        for claim, gain in (("js efficiency >= 1", risk["ue"] - risk["js"]),
                            ("pp >= js", risk["js"] - risk["pp"])):
            mean = float(gain.mean())
            se = float(gain.std(ddof=1)) / np.sqrt(n)
            if mean < -bound * se:
                fails.append(
                    f"{label}: {claim} rejected at sigma2={s2} "
                    f"(mean risk gain {mean:.4g}, stderr {se:.3g}, {n} studies)"
                )
    return fails


def check_mc_dataset(y, z, true_breaks, rmat, rhs, ue_breaks, re_breaks, re_ssr, re_delta) -> list[str]:
    """Oracle checks of the break searches and the restricted fit on one dataset."""
    fails = []
    ssr_dp = oracles.ols_ssr(y, z, ue_breaks)
    ssr_true = oracles.ols_ssr(y, z, true_breaks)
    if ssr_dp > ssr_true * (1.0 + 1e-10):
        fails.append(f"DP partition {tuple(ue_breaks)} SSR {ssr_dp!r} > true-partition SSR {ssr_true!r}")
    delta, _ = oracles.nullspace_fit(y, z, re_breaks, rmat, rhs)
    err = _rel(re_delta, delta)
    if err > REL_TOL:
        fails.append(f"restricted fit at {tuple(re_breaks)} differs from the null-space oracle by {err:.2e}")
    gap = float(np.max(np.abs(rmat @ re_delta - rhs)))
    if gap > REL_TOL * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
        fails.append(f"restricted fit violates R d = r by {gap:.2e}")
    _, ssr_re_at_ue = oracles.nullspace_fit(y, z, ue_breaks, rmat, rhs)
    if re_ssr > ssr_re_at_ue * (1.0 + 1e-10):
        fails.append(f"refined restricted SSR {re_ssr!r} > restricted SSR at the UE partition {ssr_re_at_ue!r}")
    return fails


# ---------------------------------------------------------------------------
# bootstrap-fit


def parse_fit_outputs(texts: dict[str, str]):
    """(estimates, breaks, psi) from the text of a ``fit`` command's CSVs."""
    def rows(name):
        return list(csv.DictReader(io.StringIO(texts[name])))

    estimates = {
        row["estimator"]: np.array([float(v) for key, v in row.items() if key.startswith("coef_")])
        for row in rows("estimates.csv")
    }
    breaks = {"ue": [], "re": []}
    for row in rows("breaks.csv"):
        breaks[row["search"]].append(int(row["time"]))
    stats = {row["key"]: row["value"] for row in rows("fit_stats.csv")}
    return estimates, breaks, float(stats["psi"])


def check_fit(y, z, min_len, rmat, omega, estimates, breaks, psi) -> list[str]:
    """Checks of one ``fit`` command's outputs on a one-break series.

    ``estimates`` maps ue/re/js/pp to coefficient vectors, ``breaks`` maps
    ue/re to break tuples and ``psi`` is the reported distance.
    """
    fails = []
    n_obs = len(y)
    k = rmat.shape[0]
    rhs = np.zeros(k)
    scans = {
        "ue": lambda b: oracles.ols_ssr(y, z, (b,)),
        "re": lambda b: oracles.nullspace_fit(y, z, (b,), rmat, rhs)[1],
    }
    for which, ssr_at in scans.items():
        best, best_ssr, table = oracles.best_single_break(ssr_at, n_obs, min_len)
        got = tuple(breaks[which])
        if got != (best,):
            # A different break is acceptable only on an exact-arithmetic tie.
            tied = len(got) == 1 and got[0] in table and table[got[0]] <= best_ssr * (1.0 + 1e-12)
            if not tied:
                fails.append(f"{which} break {got} != brute-force scan ({best},)")
    gap = float(np.max(np.abs(rmat @ estimates["re"] - rhs)))
    if gap > REL_TOL:
        fails.append(f"RE coefficients violate the restriction by {gap:.2e}")
    ue_oracle = oracles.ols_coefs(y, z, breaks["ue"])
    re_oracle, _ = oracles.nullspace_fit(y, z, breaks["re"], rmat, rhs)
    for name, ref in (("ue", ue_oracle), ("re", re_oracle)):
        err = _rel(estimates[name], ref)
        if err > COEF_REL_TOL:
            fails.append(f"{name} coefficients differ from the oracle fit by {err:.2e}")
    re_at_ue, _ = oracles.nullspace_fit(y, z, breaks["ue"], rmat, rhs)
    psi_ref = oracles.wald_psi(y, z, breaks["ue"], ue_oracle, re_at_ue, rmat, omega)
    err = _rel(psi, psi_ref)
    if err > COEF_REL_TOL:
        fails.append(f"psi {psi!r} differs from the oracle {psi_ref!r} by {err:.2e}")
    js_ref, pp_ref = oracles.stein_pair(ue_oracle, re_at_ue, psi_ref, k)
    for name, ref in (("js", js_ref), ("pp", pp_ref)):
        err = _rel(estimates[name], ref)
        if err > COEF_REL_TOL:
            fails.append(f"{name} coefficients differ from the oracle shrinkage by {err:.2e}")
    return fails


def check_bootstrap(row: dict, n_boot: int, breaks) -> list[str]:
    """Checks of one ``table1.csv`` row against its own ``fit`` outputs."""
    fails = []
    if int(row["n_fail"]) != 0:
        fails.append(f"{row['n_fail']} failed bootstrap replicates")
    if int(row["b"]) != n_boot:
        fails.append(f"table reports b={row['b']}, expected {n_boot}")
    for which in ("ue", "re"):
        got = tuple(int(v) for v in row[f"changepoints_{which}"].split("|"))
        if got != tuple(breaks[which]):
            fails.append(f"table {which} changepoints {got} != fit breaks {tuple(breaks[which])}")
    mse = {name: float(row[f"mse_{name}"]) for name in ("ue", "re", "js", "pp")}
    if not all(np.isfinite(v) and v >= 0.0 for v in mse.values()):
        fails.append(f"bootstrap MSEs not finite and nonnegative: {mse}")
    elif not mse["re"] < mse["ue"]:
        fails.append(f"MSE ordering re < ue fails: {mse}")
    return fails


# ---------------------------------------------------------------------------
# risk-verify


def check_risk_curve(rows) -> list[str]:
    """PP <= JS <= UE at every grid point and JS < UE at zero drift.

    ``rows`` holds (delta, ue, re, js, pp) tuples on a certified-dominant
    scaffold, where dominance is a theorem, so only round-off is allowed.
    """
    fails = []
    for delta, ue, _re, js, pp in rows:
        slack = 1e-12 * abs(ue)
        if not (pp <= js + slack and js <= ue + slack):
            fails.append(f"ordering pp <= js <= ue fails at delta={delta}: pp={pp!r} js={js!r} ue={ue!r}")
    zero = [r for r in rows if r[0] == 0.0]
    if zero and not zero[0][3] < zero[0][1]:
        fails.append(f"js {zero[0][3]!r} is not below ue {zero[0][1]!r} at delta=0")
    return fails


def check_agreement(pairs) -> list[str]:
    """Each (label, value, reference) pair agrees to ``REL_TOL`` relative."""
    fails = []
    for label, value, ref in pairs:
        err = _rel(value, ref)
        if not err <= REL_TOL:
            fails.append(f"{label}: {value!r} vs {ref!r} (relative error {err:.2e})")
    return fails


def check_identity_suite(excess, n_components, expect_fail) -> list[str]:
    """Every identity check within the family-wise bound; the negative
    control outside it.

    ``excess[i]`` is check i's largest |error| / stderr over its
    ``n_components[i]`` components.  The bound is a Bonferroni bound over
    all components of all valid checks at level ``FAMILY_ALPHA``.
    """
    valid = [i for i, bad in enumerate(expect_fail) if not bad]
    bound = oracles.familywise_z(sum(n_components[i] for i in valid), FAMILY_ALPHA)
    fails = []
    for i, (x, bad) in enumerate(zip(excess, expect_fail)):
        if bad and not x > bound:
            fails.append(f"negative control {i} at {x:.2f} sigma is inside the bound {bound:.2f}")
        if not bad and not x <= bound:
            fails.append(f"identity check {i} at {x:.2f} sigma is outside the bound {bound:.2f}")
    if not any(expect_fail):
        fails.append("the suite ran no negative control")
    return fails
