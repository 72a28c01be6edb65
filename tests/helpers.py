"""Shared fixtures: random problem instances and independent oracles."""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import linalg as sla
from scipy.linalg import lapack

from steinbreak import (
    RegressionData,
    Restriction,
    SearchConfig,
    build_design,
    find_breaks_unrestricted,
)
from steinbreak.segmentation import MAX_REFINE_CYCLES


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
    design = build_design(data, partition)
    zbar, y = design.zbar, data.y
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
    null, d0 = restriction.null_form
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
