"""Shared fixtures: random problem instances and independent oracles."""

from __future__ import annotations

import math
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy import linalg as sla
from scipy import special
from scipy.linalg import lapack

from steinbreak import (
    RegressionData,
    Restriction,
    SearchConfig,
    build_design,
    estimate_omega,
    find_breaks_unrestricted,
    nc_chi2_moment,
    newey_west_bandwidth,
)
from steinbreak import risk
from steinbreak.linalg import pd_factor, sandwich, sym, wald_metric
from steinbreak.model import _null_form
from steinbreak.errors import SegmentRankDeficient
from steinbreak.segmentation import _COARSE_LATTICE, _COARSE_STARTS, MAX_REFINE_CYCLES


def random_instance(seed, t_range=(10, 30), m_choices=(0, 1, 2), q_choices=(1, 2)):
    """A random dataset plus a feasible break count for search tests."""
    rng = np.random.default_rng(seed)
    t_total = int(rng.integers(*t_range, endpoint=True))
    m = int(rng.choice(m_choices))
    q = int(rng.choice(q_choices))
    while (m + 1) * q > t_total:
        m -= 1
    z = rng.normal(1.0, 1.0, size=(t_total, q))
    y = rng.normal(0.0, 1.0, size=t_total)
    return RegressionData(y=y, z=z), m


def random_restriction(rng, n_coefs, k):
    """Full-row-rank random restriction with a nonzero right-hand side."""
    while True:
        mat = rng.normal(size=(k, n_coefs))
        if np.linalg.matrix_rank(mat) == k:
            break
    return Restriction(matrix=mat, rhs=rng.normal(size=k))


def segment_sparse_restriction(rng, m, q):
    """Full-row-rank random restriction on ``m + 1`` segments of ``q``
    coefficients whose rows each touch one to three segments, so that it
    splits into one or more segment components; the right-hand side is
    nonzero half of the time."""
    n_seg = m + 1
    n = n_seg * q
    while True:
        k = int(rng.integers(1, n))
        mat = np.zeros((k, n))
        for row in mat:
            for p in rng.choice(n_seg, size=int(rng.integers(1, min(3, n_seg) + 1)), replace=False):
                cols = rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False)
                row[p * q + cols] = rng.normal(size=len(cols))
        if np.linalg.matrix_rank(mat) == k:
            return Restriction(matrix=mat, rhs=rng.normal(size=k) * rng.integers(0, 2))


def nullspace_restricted_fit(data, partition, restriction):
    """Independent constrained-LS oracle via null-space reparameterization.

    Solves min ||y - Zbar d|| s.t. R d = r by writing d = d0 + N theta with
    R d0 = r and N an orthonormal basis of ker(R), then fitting theta by
    unconstrained least squares.  Returns (delta, ssr).
    """
    zbar, y = build_design(data, partition), data.y
    rmat, rhs = restriction.matrix, restriction.rhs
    d0, *_ = np.linalg.lstsq(rmat, rhs, rcond=None)
    nbasis = sla.null_space(rmat)
    if nbasis.shape[1] > 0:
        theta, *_ = np.linalg.lstsq(zbar @ nbasis, y - zbar @ d0, rcond=None)
        delta = d0 + nbasis @ theta
    else:
        delta = d0
    resid = y - zbar @ delta
    return delta, float(resid @ resid)


def orthonormal_rows(rng, k, n):
    """k orthonormal rows in R^n."""
    a = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    return q[:, :k].T


def kkt_restricted_ls(grams, zys, restriction):
    """Reference constrained-LS solve through the block KKT system.

    Solves ``[[G, R'], [R, 0]] [delta; lambda] = [Z'y; r]`` with ``G`` block
    diagonal from ``grams[p] = Z_p'Z_p`` by LU plus one step of iterative
    refinement.  Raises ``LinAlgError`` when the system is singular.
    """
    n_seg, q = zys.shape
    n, k = n_seg * q, restriction.k
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = sla.block_diag(*grams)
    kkt[:n, n:] = restriction.matrix.T
    kkt[n:, :n] = restriction.matrix
    rhs = np.concatenate([zys.reshape(n), restriction.rhs])
    lu, piv, sol, info = lapack.dgesv(kkt, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("KKT system is singular")
    sol += lapack.dgetrs(lu, piv, rhs - kkt @ sol)[0]
    return sol[:n]


def _mp_kkt_ls(data, partition, restriction):
    """The KKT solution of :func:`mp_restricted_ls` at mpmath's working
    precision, as an ``n x 1`` mpmath matrix."""
    import mpmath

    q = data.n_regressors
    segments = partition.segments(data.n_obs)
    n = len(segments) * q
    k = 0 if restriction is None else restriction.k
    kkt, rhs = mpmath.zeros(n + k, n + k), mpmath.zeros(n + k, 1)
    for p, (s, e) in enumerate(segments):
        z, y = mpmath.matrix(data.z[s:e].tolist()), mpmath.matrix(data.y[s:e].tolist())
        gram, zy = z.T * z, z.T * y
        for i in range(q):
            rhs[p * q + i] = zy[i]
            for j in range(q):
                kkt[p * q + i, p * q + j] = gram[i, j]
    for i in range(k):
        for j in range(n):
            kkt[n + i, j] = kkt[j, n + i] = mpmath.mpf(float(restriction.matrix[i, j]))
        rhs[n + i] = mpmath.mpf(float(restriction.rhs[i]))
    sol = mpmath.lu_solve(kkt, rhs)
    return sol[:n, 0]


def mp_restricted_ls(data, partition, restriction=None, dps=60):
    """High-precision reference fit of the same double data: the KKT system
    of :func:`kkt_restricted_ls` (the plain normal equations when
    ``restriction`` is None), formed and solved by ``mpmath`` at ``dps``
    digits, then rounded to doubles."""
    import mpmath

    with mpmath.workdps(dps):
        return np.array([float(x) for x in _mp_kkt_ls(data, partition, restriction)])


def mp_wald_psi(data, partition, restriction, method="hc0", dps=60):
    """High-precision reference ``psi`` of the same double data, every step
    at ``dps`` digits by ``mpmath``: the UE and RE fits of
    :func:`mp_restricted_ls`, ``Gamma = Zbar'Zbar / T``, the HC0 or
    Bartlett HAC ``Omega`` (rule-of-thumb bandwidth) of the UE residuals,
    ``A = R'(R Gamma^-1 Omega Gamma^-1 R')^-1 R`` and
    ``psi = T (d_re - d_ue)' A (d_re - d_ue)``, rounded to a double."""
    import mpmath

    with mpmath.workdps(dps):
        t_total = data.n_obs
        ue = _mp_kkt_ls(data, partition, None)
        diff = _mp_kkt_ls(data, partition, restriction) - ue
        zbar = mpmath.matrix(build_design(data, partition).tolist())
        resid = mpmath.matrix(data.y.tolist()) - zbar * ue
        scores = mpmath.matrix(t_total, zbar.cols)
        for t in range(t_total):
            for j in range(zbar.cols):
                scores[t, j] = resid[t] * zbar[t, j]
        omega = scores.T * scores
        lags = newey_west_bandwidth(t_total) if method == "hac" else 0
        for lag in range(1, lags + 1):
            cov = scores[lag:, :].T * scores[:-lag, :]
            omega += (1 - mpmath.mpf(lag) / (lags + 1)) * (cov + cov.T)
        # Gamma^-1 Omega Gamma^-1 with Gamma = Zbar'Zbar / T, Omega = omega / T
        ginv = mpmath.inverse(zbar.T * zbar)
        s = t_total * ginv * omega * ginv
        rmat = mpmath.matrix(restriction.matrix.tolist())
        a = rmat.T * mpmath.inverse(rmat * s * rmat.T) * rmat
        return float(t_total * (diff.T * a * diff)[0])


def gram_plugin(zbar, residuals, restriction, method="hc0"):
    """``(sandwich, A_hat)`` by the Gram route: ``Gamma_hat = Zbar'Zbar / T``,
    ``Omega_hat`` of the rows of ``Zbar``, ``Gamma_hat^-1 Omega_hat
    Gamma_hat^-1`` by two solves with one Cholesky factor of ``Gamma_hat``,
    and its Wald metric.  This is how ``build_plugin_matrices`` formed them
    before it solved on the segments' QR factors; it squares the segments'
    condition numbers."""
    gamma = sym(zbar.T @ zbar / zbar.shape[0])
    omega = estimate_omega(zbar, residuals, method=method)
    s = sandwich(pd_factor(gamma, name="gamma_hat"), omega)
    return s, wald_metric(s, restriction.matrix)


def moment_prefix_sums(data):
    """Prefix sums of ``w w'``, ``w = (z, y)``, with a leading zero block."""
    w = np.column_stack([data.z, data.y])
    outer = w[:, :, None] * w[:, None, :]
    return np.concatenate([np.zeros((1, *outer.shape[1:])), np.cumsum(outer, axis=0)])


def kkt_restricted_ssr(cum, bounds, restriction):
    """Restricted SSR at the boundaries ``bounds`` from prefix-sum moments,
    by the KKT reference; ``+inf`` when the KKT system is singular."""
    bounds = np.asarray(bounds)
    mom = cum[bounds[1:]] - cum[bounds[:-1]]
    q = mom.shape[-1] - 1
    try:
        delta = kkt_restricted_ls(mom[:, :q, :q], mom[:, :q, q], restriction)
    except np.linalg.LinAlgError:
        return np.inf
    u = np.column_stack([delta.reshape(-1, q), -np.ones(len(mom))])
    return float(np.einsum("pi,pij,pj->", u, mom, u))


def sequential_refine(data, restriction, config):
    """Reference coordinate refinement, one candidate partition at a time.

    The restricted search's refinement rule written as a plain loop over
    KKT-scored partitions: start from the unrestricted optimum and, for
    ``m >= 2``, the best four feasible partitions on the coarse lattice;
    scan each break's range in ascending order, keeping a candidate only
    when it is strictly below the best so far (the current SSR at first).
    Returns ``(breaks, total cycles)``.
    """
    cum = moment_prefix_sums(data)
    t_total, m = data.n_obs, config.m
    min_len = config.min_segment_length(t_total, data.n_regressors)

    def score(breaks):
        return kkt_restricted_ssr(cum, (0, *breaks, t_total), restriction)

    def refine_from(start):
        bounds = list(start)
        current = score(bounds)
        cycles = 0
        for cycles in range(1, MAX_REFINE_CYCLES + 1):
            moved = False
            for p in range(m):
                lo = (bounds[p - 1] if p > 0 else 0) + min_len
                hi = (bounds[p + 1] if p + 1 < m else t_total) - min_len
                best_val, best_b = current, bounds[p]
                for b in range(lo, hi + 1):
                    if b != bounds[p]:
                        val = score(bounds[:p] + [b] + bounds[p + 1:])
                        if val < best_val:
                            best_val, best_b = val, b
                if best_b != bounds[p]:
                    bounds[p], current, moved = best_b, best_val, True
            if not moved:
                break
        return tuple(bounds), current, cycles

    init = find_breaks_unrestricted(
        data, SearchConfig(m=m, min_seg_frac=config.min_seg_frac)
    ).partition.breaks
    starts = [init]
    if m >= 2:
        stride = max(min_len, t_total // 8)
        lattice = range(stride, t_total - min_len + 1, stride)
        scored = sorted(
            (score(c), c)
            for c in combinations(lattice, m)
            if c != init
            and all(b - a >= min_len for a, b in zip((0, *c), c))
            and t_total - c[-1] >= min_len
        )
        starts += [c for _, c in scored[:4]]
    best, best_val, total = None, np.inf, 0
    for start in starts:
        bounds, val, cycles = refine_from(start)
        total += cycles
        if val < best_val or (val == best_val and best is not None and bounds < best):
            best, best_val = bounds, val
    return best, total


# The restricted search's coordinate refinement before it scored each
# (partition, break) move once: every start still moving scans each of its
# breaks every cycle.  Kept as the bitwise reference for ``_refine``, with
# the same signature, so a search can run on either.
def lockstep_refine(t_total, m, min_len, objective, init) -> tuple[tuple[int, ...], int]:
    """Cyclic coordinate descent from ``init`` and, for ``m >= 2``, from
    coarse-lattice starts; returns the best end point and the total cycles.

    ``objective`` maps a ``(rows, m)`` array of break vectors to scores,
    and a row's score must not depend on its batch.  The starts advance in
    lock step: for each cycle and coordinate, one ``objective`` call scores
    the candidates of every start still moving.  A start stops after a
    cycle without a move or after ``MAX_REFINE_CYCLES`` cycles, so each
    start makes the moves, and counts the cycles, of a descent on its own.
    """
    starts = [init]
    # Single-coordinate moves cannot cross SSR valleys when several breaks
    # must shift together, so for m >= 2 a few coarse-lattice starts are
    # refined as well (the best end point wins; result stays non-global).
    if m >= 2:
        starts.extend(lockstep_coarse_starts(t_total, m, min_len, objective, init))
    bounds = np.array(starts, dtype=np.intp).reshape(len(starts), m)
    current = objective(bounds)
    cycles = np.zeros(len(starts), dtype=int)
    active = np.arange(len(starts))
    for cycle in range(1, MAX_REFINE_CYCLES + 1):
        if not len(active):
            break
        cycles[active] = cycle
        moved = np.zeros(len(starts), dtype=bool)
        for p in range(m):
            # every feasible position of break p but the current one, start
            # by start; a feasible partition keeps it inside [lo, hi]
            lo = (bounds[active, p - 1] if p > 0 else 0) + min_len
            hi = (bounds[active, p + 1] if p + 1 < m else t_total) - min_len
            counts = np.broadcast_to(hi - lo, active.shape)  # scalars when m = 1
            if not counts.any():
                continue
            owner = np.repeat(np.arange(len(active)), counts)
            first = np.cumsum(counts) - counts
            cand = np.arange(len(owner)) - (first - lo)[owner]
            cand += cand >= bounds[active, p][owner]
            trials = bounds[active[owner]]
            trials[:, p] = cand
            vals = objective(trials)
            for s, i0, n in zip(active, first, counts):
                if n:
                    i = i0 + int(np.argmin(vals[i0:i0 + n]))
                    if vals[i] < current[s]:
                        bounds[s, p], current[s] = cand[i], vals[i]
                        moved[s] = True
        active = active[moved[active]]
    best: tuple[int, ...] | None = None
    best_val = np.inf
    for row, val in zip(bounds, current):
        row = tuple(int(b) for b in row)
        if np.isfinite(val) and (val < best_val or (val == best_val and row < best)):
            best, best_val = row, val
    if best is None:
        raise SegmentRankDeficient("no refinement start produced an estimable fit")
    return best, int(cycles.sum())


def lockstep_coarse_starts(t_total, m, min_len, objective, skip):
    """Best few partitions on a coarse break lattice, as refinement seeds.

    The lattice partitions are scored as one batch; ties keep their
    lexicographic order.
    """
    stride = max(min_len, t_total // _COARSE_LATTICE)
    lattice = range(stride, t_total - min_len + 1, stride)
    combos = [
        combo for combo in combinations(lattice, m)
        if combo != skip
        and all(b - a >= min_len for a, b in zip((0, *combo), combo))
        and t_total - combo[-1] >= min_len
    ]
    if not combos:
        return []
    scores = objective(np.array(combos, dtype=np.intp))
    order = np.argsort(scores, kind="stable")[:_COARSE_STARTS]
    return [combos[i] for i in order]


def explicit_inverse_scaffold(gamma, omega, rmat):
    """``(J0, Sigma11, A)`` of an asymptotic scaffold from the explicit
    inverse ``Gamma^-1``: ``J0 = Gamma^-1 R'(R Gamma^-1 R')^-1``,
    ``Sigma11 = Gamma^-1 Omega Gamma^-1`` and ``A = R'(R Sigma11 R')^-1 R``,
    as ``make_scaffold`` formed them before it solved with one factor of
    ``Gamma``."""
    gamma, omega = 0.5 * (gamma + gamma.T), 0.5 * (omega + omega.T)
    ginv = sla.cho_solve(sla.cho_factor(gamma), np.eye(len(gamma)))
    ginv = 0.5 * (ginv + ginv.T)
    rg = rmat @ ginv
    j0 = np.linalg.solve(rg @ rmat.T, rg).T
    s11 = ginv @ omega @ ginv
    s11 = 0.5 * (s11 + s11.T)
    a = rmat.T @ np.linalg.solve(rmat @ s11 @ rmat.T, rmat)
    return j0, s11, 0.5 * (a + a.T)


def lu_ssr_table(data, min_len):
    """Single-segment SSR table solved segment by segment: an LU solve of
    each segment's normal equations from prefix-sum moments, ``+inf`` on an
    exact zero pivot or a segment shorter than ``min_len``."""
    cum = moment_prefix_sums(data)
    t_total, q = data.n_obs, data.n_regressors
    tab = np.full((t_total, t_total), np.inf)
    for s in range(t_total):
        for e in range(s + min_len, t_total + 1):
            mom = cum[e] - cum[s]
            try:
                beta = np.linalg.solve(mom[:q, :q], mom[:q, q])
            except np.linalg.LinAlgError:
                continue
            tab[s, e - 1] = max(mom[q, q] - mom[:q, q] @ beta, 0.0)
    return tab


def reachable_mask(t_total, min_len, m):
    """``mask[s, e - 1]`` is True when ``[s, e)`` can be segment ``p`` of a
    feasible ``m``-break partition for some ``p``: ``s = 0 <=> p = 0``,
    ``e = T <=> p = m``, ``s >= p min_len``, ``T - e >= (m - p) min_len``
    and ``e - s >= min_len``."""
    s, e = np.arange(t_total)[:, None], np.arange(1, t_total + 1)[None, :]
    mask = np.zeros((t_total, t_total), dtype=bool)
    for p in range(m + 1):
        mask |= (
            ((s == 0) == (p == 0))
            & ((e == t_total) == (p == m))
            & (s >= p * min_len)
            & (t_total - e >= (m - p) * min_len)
            & (e - s >= min_len)
        )
    return mask


def suffix_dp_readout(tab, best, m, min_len):
    """Lexicographically first break vector attaining ``best[0, m]``."""
    t_total = tab.shape[0]
    breaks, j = [], 0
    for c in range(m, 0, -1):
        for b in range(j + min_len, t_total - c * min_len + 1):
            if tab[j, b - 1] + best[b, c - 1] == best[j, c]:
                breaks.append(b)
                j = b
                break
    return tuple(breaks)


def suffix_dp_reference(tab, m, min_len):
    """``best[j, c]`` of the suffix recursion, one row ``j`` at a time."""
    t_total = tab.shape[0]
    best = np.full((t_total + 1, m + 1), np.inf)
    for j in range(t_total - min_len + 1):
        best[j, 0] = tab[j, t_total - 1]
    for c in range(1, m + 1):
        for j in range(t_total - (c + 1) * min_len + 1):
            lo, hi = j + min_len, t_total - c * min_len
            best[j, c] = (tab[j, lo - 1:hi] + best[lo:hi + 1, c - 1]).min()
    return best


def nullspace_kernel_ssr(cum, bounds, restriction):
    """Restricted SSR of each row of ``bounds`` from prefix-sum moments by
    one ``(n - k)``-wide null-space solve per row, on the null form of the
    whole restriction.

    ``delta = d0 + N theta`` with ``(N'GN) theta = N'(Z'y - G d0)``, and
    the SSR is ``sum_p u_p'M_p u_p`` with ``u_p = (d_p, -1)``.  A row whose
    ``N'GN`` meets an exact zero LU pivot, or whose SSR is NaN, gets
    ``+inf``; excluded segments are not known here.
    """
    bounds = np.atleast_2d(bounds)
    mom = cum[bounds[:, 1:]] - cum[bounds[:, :-1]]
    n_seg, q = mom.shape[1], mom.shape[-1] - 1
    n = n_seg * q
    null, d0 = _null_form(restriction.matrix, restriction.rhs)
    f = null.shape[1]
    ssr = np.empty(len(bounds))
    for i, moments in enumerate(mom):
        delta = d0
        if f:
            gn = (moments[:, :q, :q] @ null.reshape(n_seg, q, f)).reshape(n, f)
            c = moments[:, :q, q].reshape(n) @ null - d0 @ gn
            try:
                delta = d0 + null @ np.linalg.solve(null.T @ gn, c)
            except np.linalg.LinAlgError:
                ssr[i] = np.inf
                continue
        u = np.column_stack([delta.reshape(n_seg, q), -np.ones(n_seg)])
        ssr[i] = np.einsum("pi,pij,pj->", u, moments, u)
    ssr[np.isnan(ssr)] = np.inf
    return ssr


def central_terms(kind, df, power, c):
    """Per-mixture-index central moments m_j of a noncentral chi-square
    moment, for a scalar j or an array of j, one factor of the denominator
    at a time.

    Each m_j is the moment of a central chi-square with ``nu = df + 2j``
    degrees of freedom, ``E[X^p 1{X < c}] = P(chi2_{nu+2p} < c) /
    ((nu-2)...(nu+2p))``; the inverse kinds take ``c = inf``, where
    ``gammainc`` is exactly 1.
    """
    if kind == "inverse_first":
        power, c = -1, math.inf
    elif kind == "inverse_second":
        power, c = -2, math.inf
    half_c = c / 2.0

    def terms(js):
        denom = 1.0
        for i in range(1, 1 - power):
            denom = denom * (df + 2.0 * js - 2.0 * i)
        return special.gammainc(df / 2.0 + js + power, half_c) / denom

    return terms


def reference_truncated_moment(df, delta, cut, power, tol):
    """``E[X^p 1{X < cut}]`` from one scalar kernel call, an inverse kind at
    ``cut = inf``; ``E[1{X < inf}] = 1``."""
    if cut != math.inf:
        return nc_chi2_moment("trunc_below", df, delta, tol=tol, c=cut, power=power)
    if power == 0:
        return 1.0
    kind = "inverse_first" if power == -1 else "inverse_second"
    return nc_chi2_moment(kind, df, delta, tol=tol)


def reference_rule_expectation(rule, df, delta, squared, tol):
    """``E[h(X)]`` or ``E[h(X)^2]`` of a rule with pieces, one scalar kernel
    call per moment, summed piece by piece as ``risk.adr_class`` sums them."""
    total = 0.0
    for lo, hi, a, b in rule.pieces:
        coefs = ((0, a * a), (-1, 2.0 * a * b), (-2, b * b)) if squared else ((0, a), (-1, b))
        for power, coef in coefs:
            if coef != 0.0:
                below = reference_truncated_moment(df, delta, lo, power, tol) if lo > 0.0 else 0.0
                total += coef * (reference_truncated_moment(df, delta, hi, power, tol) - below)
    return total


def reference_adr_class(rule, scaffold, weight, tol=1e-11):
    """Total class risk of a rule with pieces, its expectations from
    :func:`reference_rule_expectation`."""
    k, delta = scaffold.k, scaffold.delta
    tw11, _, m1wm1, m1al12wm1, cross_trace = risk._risk_pieces(scaffold, weight)
    e2, s2, e4, s4 = (
        reference_rule_expectation(rule, k + j, delta, squared, tol)
        for j in (2, 4)
        for squared in (False, True)
    )
    total = 0.0
    for value in (
        risk.adr_restricted(scaffold, weight),
        -2.0 * e2 * m1wm1,
        -2.0 * e2 * m1al12wm1,
        2.0 * e2 * cross_trace,
        2.0 * e4 * m1al12wm1,
        s2 * tw11,
        s4 * m1wm1,
    ):
        total += value
    return total


def reference_adr_james_stein(scaffold, weight, tol=1e-12):
    """James-Stein risk from three scalar inverse-moment kernel calls."""
    k, delta = scaffold.k, scaffold.delta
    tw11, tw12, m1wm1, m1al12wm1, _ = risk._risk_pieces(scaffold, weight)
    e2 = nc_chi2_moment("inverse_first", k + 2, delta, tol=tol)
    f2 = nc_chi2_moment("inverse_second", k + 2, delta, tol=tol)
    f4 = nc_chi2_moment("inverse_second", k + 4, delta, tol=tol)
    return (
        risk.adr_unrestricted(scaffold, weight)
        - 2.0 * (k - 2.0) * e2 * (tw11 + tw12)
        + (k * k - 4.0) * f4 * m1wm1
        + (k - 2.0) ** 2 * f2 * tw11
        + 4.0 * (k - 2.0) * f4 * m1al12wm1
    )


def reference_adr_positive_part(scaffold, weight, tol=1e-12):
    """Positive-part risk as :func:`reference_adr_james_stein` plus its
    truncation corrections, from six scalar ``trunc_below`` calls at
    ``c = k - 2``: twelve kernel calls in all."""
    k, delta = scaffold.k, scaffold.delta
    tw11, tw12, m1wm1, m1al12wm1, _ = risk._risk_pieces(scaffold, weight)
    c = float(k - 2)
    t2, t4 = (
        [nc_chi2_moment("trunc_below", df, delta, tol=tol, c=c, power=p) for p in (0, -1, -2)]
        for df in (k + 2, k + 4)
    )
    e1 = t2[0] - c * t2[1]
    e2 = t4[0] - c * t4[1]
    e3 = t2[0] - 2.0 * c * t2[1] + c * c * t2[2]
    e4 = t4[0] - 2.0 * c * t4[1] + c * c * t4[2]
    return (
        reference_adr_james_stein(scaffold, weight, tol=tol)
        + 2.0 * e1 * m1wm1
        + 2.0 * e1 * m1al12wm1
        - 2.0 * e1 * tw12
        - 2.0 * e2 * m1al12wm1
        - e3 * tw11
        - e4 * m1wm1
    )


def fixed_regressor_reference(design):
    """The fixed-regressor study fitted replication by replication, each on
    a fresh one-response search state: per noise level, the mean loss of
    each estimator and the break arrays, as ``run_monte_carlo`` reports
    them.  Every replication succeeds here."""
    from steinbreak.simulation import (
        ESTIMATOR_NAMES,
        _draw_regressors,
        _rep_rng,
        _replications,
        simulate_dataset,
    )

    fixed_z = _draw_regressors(design, np.random.default_rng(np.random.SeedSequence((design.seed, 0x5E6D))))
    out = {"risks": {}, "breaks_ue": {}, "breaks_re": {}}
    for si, sigma2 in enumerate(design.sigma2_grid):
        sums = {name: 0.0 for name in ESTIMATOR_NAMES}
        ue, re = [], []
        for rep in range(design.n_reps):
            data = simulate_dataset(design, sigma2, _rep_rng(design.seed, si, rep), z=fixed_z)
            ((losses, bu, br),) = _replications(design, data)
            for name, value in losses.items():
                sums[name] += value
            ue.append(bu)
            re.append(br)
        out["risks"][sigma2] = {name: sums[name] / design.n_reps for name in ESTIMATOR_NAMES}
        out["breaks_ue"][sigma2] = np.array(ue)
        out["breaks_re"][sigma2] = np.array(re)
    return out


def per_replicate_bootstrap(values):
    """The residual bootstrap of the config ``values`` run replicate by
    replicate, each a batch of one on its own search state: the
    loop ``cli.cmd_bootstrap`` ran before the replicates became one batch,
    kept as the reference for it.  Returns the ``table1.csv`` header and
    row, and each replicate's pipeline result or error."""
    from steinbreak import cli
    from steinbreak.errors import SteinbreakError

    cfg = cli.RunConfig.from_dict("bootstrap", values)
    data, restriction = cli._load_fit_data(cfg)
    base = cli._one_result(cli._fit_pipeline(cfg, data, restriction))
    resid = base["estimates"]["ue"].residuals
    fitted = data.y - resid
    centered = resid - resid.mean()
    names = list(cfg.values["estimators"])
    sums = {name: 0.0 for name in names}
    failures, results = 0, []
    for b in range(cfg.values["bootstrap_b"]):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.values["seed"], b)))
        u_star = rng.choice(centered, size=data.n_obs, replace=True)
        (rerun,) = cli._fit_pipeline(cfg, RegressionData(y=fitted + u_star, z=data.z), restriction)
        results.append(rerun)
        if isinstance(rerun, SteinbreakError):
            failures += 1
            continue
        for name in names:
            diff = rerun["estimates"][name].delta - base["estimates"][name].delta
            sums[name] += float(diff @ diff)
    n_ok = len(results) - failures
    header = ["series", "changepoints_ue", "changepoints_re", *(f"mse_{name}" for name in names), "n_fail", "b"]
    row = [
        Path(cfg.values["csv"]).stem,
        "|".join(str(b) for b in base["ue_search"].partition.breaks),
        "|".join(str(b) for b in base["re_search"].partition.breaks),
        *(float(sums[name] / n_ok) for name in names),
        failures,
        len(results),
    ]
    return header, row, results
