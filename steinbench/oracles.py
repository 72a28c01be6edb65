"""Reference computations made apart from steinbreak, with plain numpy.

Nothing here calls into the package under test: least squares goes through
``numpy.linalg.lstsq``, restricted least squares through an explicit
null-space parametrization, and the plug-in distance through the textbook
sandwich formula.  The checks compare the program's outputs with these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps


def segments(n_obs: int, breaks) -> list[tuple[int, int]]:
    """0-based half-open ranges of the segments cut at 1-based ``breaks``."""
    bounds = (0, *(int(b) for b in breaks), n_obs)
    return list(zip(bounds[:-1], bounds[1:]))


def block_design(z: np.ndarray, breaks) -> np.ndarray:
    """Stacked block-diagonal design: every coefficient switches at each break."""
    n_obs, q = z.shape
    segs = segments(n_obs, breaks)
    zbar = np.zeros((n_obs, len(segs) * q))
    for p, (s, e) in enumerate(segs):
        zbar[s:e, p * q:(p + 1) * q] = z[s:e]
    return zbar


def ols_ssr(y: np.ndarray, z: np.ndarray, breaks) -> float:
    """Unrestricted SSR: one lstsq per segment."""
    total = 0.0
    for s, e in segments(len(y), breaks):
        beta = np.linalg.lstsq(z[s:e], y[s:e], rcond=None)[0]
        resid = y[s:e] - z[s:e] @ beta
        total += float(resid @ resid)
    return total


def ols_coefs(y: np.ndarray, z: np.ndarray, breaks) -> np.ndarray:
    return np.concatenate(
        [np.linalg.lstsq(z[s:e], y[s:e], rcond=None)[0] for s, e in segments(len(y), breaks)]
    )


def nullspace_fit(y, z, breaks, rmat, rhs) -> tuple[np.ndarray, float]:
    """Least squares subject to ``rmat d = rhs`` via ``d = d0 + N c``.

    ``d0`` is the minimum-norm solution of the constraint and ``N`` an
    orthonormal basis of the null space of ``rmat``, both from an SVD.
    """
    rmat = np.asarray(rmat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    zbar = block_design(z, breaks)
    d0 = np.linalg.lstsq(rmat, rhs, rcond=None)[0]
    _, sv, vt = np.linalg.svd(rmat)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    null = vt[rank:].T
    c = np.linalg.lstsq(zbar @ null, y - zbar @ d0, rcond=None)[0]
    delta = d0 + null @ c
    resid = y - zbar @ delta
    return delta, float(resid @ resid)


def bartlett_lags(n_obs: int) -> int:
    """Newey-West rule-of-thumb bandwidth floor(4 (T/100)^(2/9))."""
    return int(math.floor(4.0 * (n_obs / 100.0) ** (2.0 / 9.0)))


def wald_psi(y, z, breaks, d_ue, d_re, rmat, omega: str) -> float:
    """psi = T (d_re - d_ue)' R'(R G^-1 W G^-1 R')^-1 R (d_re - d_ue).

    ``G = Zbar'Zbar / T`` and ``W`` is the HC0 score covariance or its
    Bartlett-weighted HAC extension, built from the unrestricted residuals.
    """
    n_obs = len(y)
    zbar = block_design(z, breaks)
    scores = zbar * (y - zbar @ d_ue)[:, None]
    w = scores.T @ scores / n_obs
    if omega == "hac":
        lags = bartlett_lags(n_obs)
        for lag in range(1, lags + 1):
            g = scores[lag:].T @ scores[:-lag] / n_obs
            w += (1.0 - lag / (lags + 1.0)) * (g + g.T)
    gram = zbar.T @ zbar / n_obs
    ginv_r = np.linalg.solve(gram, rmat.T)
    core = ginv_r.T @ w @ ginv_r
    diff = rmat @ (d_re - d_ue)
    return float(n_obs * diff @ np.linalg.solve(core, diff))


def stein_pair(d_ue, d_re, psi: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """James-Stein and positive-part estimates, d_re + h(psi) (d_ue - d_re)."""
    if psi == 0.0:
        return d_re.copy(), d_re.copy()
    h = 1.0 - (k - 2.0) / psi
    return d_re + h * (d_ue - d_re), d_re + max(h, 0.0) * (d_ue - d_re)


def best_single_break(ssr_at, n_obs: int, min_len: int) -> tuple[int, float, dict]:
    """Scan every feasible single break; return (argmin, min, all SSRs)."""
    table = {b: ssr_at(b) for b in range(min_len, n_obs - min_len + 1)}
    best = min(table, key=lambda b: (table[b], b))
    return best, table[best], table


def familywise_z(n_components: int, alpha: float) -> float:
    """Two-sided Bonferroni bound on |error| / stderr over ``n_components``."""
    return float(sps.norm.isf(alpha / (2.0 * n_components)))


def one_sided_t(n_batches: int, alpha: float) -> float:
    """Student-t bound for a one-sided batch-means test at level ``alpha``."""
    return float(sps.t.isf(alpha, n_batches - 1))


def power_trend(n_obs: int) -> np.ndarray:
    """Regressors (1, u, u^1.5, u^2) with u = t/T, t = 1..T."""
    u = np.arange(1, n_obs + 1) / n_obs
    return np.column_stack([np.ones(n_obs), u, u**1.5, u**2])


def linear_trend_restriction(n_segments: int) -> np.ndarray:
    """Rows zeroing the u^1.5 and u^2 coefficients of every segment."""
    q = 4
    rows = []
    for seg in range(n_segments):
        for coef in (2, 3):
            row = np.zeros(n_segments * q)
            row[seg * q + coef] = 1.0
            rows.append(row)
    return np.array(rows)
