"""Asymptotic distributional risk of the estimator family.

The joint limit of the (unrestricted, restricted) pair under a drifting
hypothesis ``R delta = r + mu / sqrt(T)`` is Gaussian with mean and
covariance blocks assembled in :class:`AsymptoticScaffold`:

    J0  = G^-1 R' (R G^-1 R')^-1              (G = Gamma)
    mu1 = -J0 mu
    S11 = G^-1 Omega G^-1                      (unrestricted limit variance)
    S12 = S11 (I - R' J0'),  S22 = (I - J0 R) S11 (I - R' J0')
    L11 = J0 R S11 R' J0'    (variance of the shrinking difference)
    L12 = J0 R S12           (its covariance with the restricted limit)
    A   = R' (R S11 R')^-1 R
    Delta = mu1' A mu1       (noncentrality of the distance statistic)

L11 and S22 are singular whenever k < (m+1)q: they are variances of
non-surjective linear images of the unrestricted limit.  Risk is expected
weighted quadratic loss of the limit law under a weight ``W = A^(1/2) W*
A^(1/2)``; every formula below reduces to expectations of functions of
noncentral chi-square variables.  Those come from the Poisson-mixture
series in :func:`nc_chi2_moment`, which evaluates a batch of moments of
one law in one call: one Poisson window, one weight vector and one
``gammainc`` vector per truncation point, shared by all of them.  Each risk
evaluation makes one such call: :func:`adr_james_stein` for its three
inverse moments, :func:`adr_positive_part` for those and its six truncated
ones, and :func:`adr_class` and :func:`rule_expectation` for the distinct
moments of a rule given in pieces ``a + b/x``, which they turn into
truncated-moment differences.  Only a rule without pieces goes to adaptive
quadrature against the noncentral density in :func:`nc_chi2_expectation`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special
from scipy import linalg as sla
from scipy import stats as sps

from .errors import DivergentMoment, KTooSmall, NonConvergence
from .estimators import ShrinkageFunction
from .linalg import hypothesis_errors, pd_factor, pd_solve, psd_sqrt, sandwich, sym, wald_metric
from .model import Restriction, _readonly

MOMENT_INVERSE_FIRST = "inverse_first"
MOMENT_INVERSE_SECOND = "inverse_second"
MOMENT_TRUNC_BELOW = "trunc_below"

_MAX_SERIES_TERMS = 100_000


# ---------------------------------------------------------------------------
# Noncentral chi-square moment kernels


def _check_moment(kind: str, df, delta: float, tol: float, c, power) -> None:
    """Raise the error of one moment request, if it has one."""
    if df <= 0:
        raise DivergentMoment(f"df must be positive, got {df}")
    if delta < 0:
        raise ValueError(f"noncentrality must be >= 0, got {delta}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if kind in (MOMENT_INVERSE_FIRST, MOMENT_INVERSE_SECOND):
        needed = 2 if kind == MOMENT_INVERSE_FIRST else 4
        if df <= needed:
            raise DivergentMoment(f"{kind} needs df > {needed}, got {df}")
    elif kind == MOMENT_TRUNC_BELOW:
        if c is None or not c > 0:
            raise ValueError("trunc_below needs a positive truncation point c")
        if power not in (0, -1, -2):
            raise ValueError(f"trunc_below power must be 0, -1 or -2, got {power}")
        if df <= 2 * abs(power):
            raise DivergentMoment(
                f"trunc_below power {power} needs df > {2 * abs(power)}, got {df}"
            )
    else:
        raise ValueError(f"unknown moment kind {kind!r}")
    if not float(df).is_integer():
        raise ValueError(f"df must be an integer, got {df}")


def _is_scalar(x) -> bool:
    """Whether a ``df``, ``c`` or ``power`` argument is one value."""
    return isinstance(x, (int, float)) or (not isinstance(x, (list, tuple)) and np.ndim(x) == 0)


def _flat_list(x, shape: tuple[int, ...]) -> list:
    """``x`` broadcast to ``shape``, as a flat list of Python scalars."""
    if isinstance(x, (list, tuple)) and (len(x),) == shape:
        return list(x)
    if _is_scalar(x):
        return [x] * math.prod(shape)
    return np.broadcast_to(np.asarray(x), shape).ravel().tolist()


def _central_quotient(numer, shape, power: int):
    """``m_j`` from its numerator ``gammainc(shape, c/2)``, for a scalar or
    an array of ``shape = df/2 + power + j``: over ``2 shape = nu - 2`` when
    ``power = -1`` and over ``4 shape (shape + 1) = (nu - 4)(nu - 2)`` when
    ``power = -2``, with ``nu = df + 2j``."""
    if power == 0:
        return numer
    twice = 2.0 * shape
    return numer / (twice if power == -1 else (twice + 2.0) * twice)


def _central_moment(request, j: int = 0) -> float:
    """The one central moment ``m_j`` of a ``(df, c, power)`` request."""
    df, c, power = request
    shape = df / 2.0 + power + j
    numer = 1.0 if c == math.inf else special.gammainc(shape, c / 2.0)
    return _central_quotient(numer, shape, power)


def _central_rows(requests, j0: int, n: int) -> np.ndarray:
    """The central moments ``m_j``, ``j = j0 .. j0 + n - 1``, one row per
    ``(df, c, power)`` request.

    Each ``m_j`` is the moment of a central chi-square with ``nu = df + 2j``
    dof, ``E[X^p 1{X < c}] = P(chi2_{nu+2p} < c) / ((nu-2)...(nu+2p))``.
    With ``a = df/2 + power`` that is ``gammainc(a + j, c/2)`` over the
    denominator of :func:`_central_quotient`.  All are positive and
    decreasing in j, which is what the tail bound relies on.  Requests with
    one cut whose ``a`` differ by integers share one ``gammainc`` vector
    over ``a + j`` and one quotient per power, and each row is a slice of
    its power's quotient.  At ``c = inf`` the numerator is exactly 1 and no
    ``gammainc`` is evaluated.
    """
    groups: dict[tuple[float, float], list] = {}
    for row, (df, c, power) in enumerate(requests):
        shape = df / 2.0 + power
        groups.setdefault((c, shape % 1.0), []).append((shape, power, row))
    rows = [None] * len(requests)
    for (c, _), members in groups.items():
        base = min(members)[0]
        args = np.arange(base + j0, max(members)[0] + j0 + n)
        numer = np.ones(len(args)) if c == math.inf else special.gammainc(args, c / 2.0)
        quotients = {}
        for shape, power, row in members:
            if power not in quotients:
                quotients[power] = _central_quotient(numer, args, power)
            start = int(shape - base)
            rows[row] = quotients[power][start:start + n]
    return np.array(rows)


def _window(lam: float, radius: float, delta: float) -> tuple[int, int]:
    """The mixture indices ``[jlo, jhi]`` within ``radius`` of the Poisson mean."""
    jlo = max(0, int(math.floor(lam - radius)))
    jhi = int(math.ceil(lam + radius))
    if jhi - jlo + 1 > _MAX_SERIES_TERMS:
        raise NonConvergence(
            f"series window exceeded {_MAX_SERIES_TERMS} terms at delta={delta}"
        )
    return jlo, jhi


def _tail_bound(lam: float, jlo: int, jhi: int, first, after):
    """Bound on the mixture mass outside ``[jlo, jhi]``: m_j decreases in j,
    so the mass below is bounded by ``first = m_0`` and the mass above by
    ``after = m_{jhi+1}``."""
    err_above = special.pdtrc(jhi, lam) * after
    return special.pdtr(jlo - 1, lam) * first + err_above if jlo > 0 else err_above


def _poisson_weights(js: np.ndarray, lam: float) -> np.ndarray:
    """The Poisson(lam) pmf at ``js[:-1]``, as scipy.stats.poisson computes
    it: ``xlogy(j, lam)`` is ``j * log(lam)`` for ``lam > 0``, one libm
    ``log`` for the whole window, and ``js`` runs one past the window, so
    ``js[1:]`` is ``j + 1``."""
    return np.exp(js[:-1] * math.log(lam) - special.gammaln(js[1:]) - lam)


def _grown_series(request, lam: float, radius: float, delta: float, tol: float) -> float:
    """The series of one ``(df, c, power)`` request whose tail bound failed
    at ``radius``: the radius doubles until the bound is below ``tol``."""
    first = _central_moment(request)
    while True:
        radius *= 2.0
        jlo, jhi = _window(lam, radius, delta)
        if _tail_bound(lam, jlo, jhi, first, _central_moment(request, jhi + 1)) <= tol:
            break
    js = np.arange(jlo, jhi + 2, dtype=float)
    return float(np.sum(_poisson_weights(js, lam) * _central_rows([request], jlo, len(js) - 1)[0]))


def nc_chi2_moment(
    kind: str,
    df,
    delta: float,
    *,
    tol: float = 1e-10,
    c=None,
    power=0,
) -> float | np.ndarray:
    """Moments of a noncentral chi-square with ``df`` dof and noncentrality ``delta``.

    Kinds
    -----
    - ``"inverse_first"``: E[X^-1] (requires df > 2)
    - ``"inverse_second"``: E[X^-2] (requires df > 4)
    - ``"trunc_below"``: E[X^power 1{X < c}] for power in {0, -1, -2}
      (requires c > 0 and df > 2|power|); ``c = inf`` gives the full
      moment, so power -1 there is ``"inverse_first"``, bit for bit

    ``df`` (integral), ``c`` and ``power`` may be array-likes that
    broadcast against each other.  Such a batch call returns an array of
    moments of the one noncentrality, and each entry equals its own scalar
    call bit for bit.  A scalar call returns a float.

    Each value is the Poisson(delta/2) mixture of central chi-square
    moments with ``df + 2j`` dof.  Terms are summed over a window around
    the Poisson bulk; because the per-term moments decrease in j, the mass
    outside the window bounds the truncation error, and the window grows
    until that bound is below ``tol`` (absolute).  A call builds one window
    for all its entries, with one weight vector and one pair of tail
    probabilities, and evaluates one ``gammainc`` vector per cut ``c``:
    entries whose ``df/2 + power`` differ by integers read shifted slices
    of it, and ``c = inf`` needs none.  Each entry keeps its own tail bound,
    and one that fails on the shared window grows a window of its own.

    Raises
    ------
    DivergentMoment
        If ``df`` is too small for a requested moment to exist.
    ValueError
        On an invalid argument or an empty batch.  Every entry is checked
        before any series work, and raises what its scalar call raises.
    NonConvergence
        If the series needs more than 100000 terms.
    """
    if kind == MOMENT_INVERSE_FIRST:
        c, power = math.inf, -1
    elif kind == MOMENT_INVERSE_SECOND:
        c, power = math.inf, -2
    scalar = _is_scalar(df) and _is_scalar(c) and _is_scalar(power)
    if scalar:
        requests = [(df, c, power)]
    else:
        shape = np.broadcast(df, c, power).shape
        requests = list(zip(*(_flat_list(x, shape) for x in (df, c, power))))
        if not requests:
            raise ValueError("empty batch of moments")
    for entry_df, entry_c, entry_power in requests:
        _check_moment(kind, entry_df, delta, tol, entry_c, entry_power)

    lam = delta / 2.0
    if lam == 0.0:
        values = list(map(_central_moment, requests))
    else:
        radius = 10.0 * math.sqrt(lam) + 20.0
        jlo, jhi = _window(lam, radius, delta)
        # the window's terms and m_{jhi+1}, the upper tail bound's
        js = np.arange(jlo, jhi + 2, dtype=float)
        rows = _central_rows(requests, jlo, len(js))
        values = np.add.reduce(_poisson_weights(js, lam) * rows[:, :-1], axis=1)
        first = None
        if jlo > 0:
            first = np.array(list(map(_central_moment, requests)))
        bound = _tail_bound(lam, jlo, jhi, first, rows[:, -1])
        for row, entry_bound in enumerate(bound.tolist()):
            if not entry_bound <= tol:
                values[row] = _grown_series(requests[row], lam, radius, delta, tol)
    return float(values[0]) if scalar else np.asarray(values).reshape(shape)


def nc_chi2_expectation(
    h,
    df: int,
    delta: float,
    *,
    tol: float = 1e-11,
    breakpoints: tuple[float, ...] = (),
) -> float:
    """E[h(X)] for X noncentral chi-square, by adaptive quadrature.

    Supports arbitrary (integrable) ``h``, a scalar function or a
    numpy-vectorized one.  Every jump of ``h`` must be listed in
    ``breakpoints``, and kinks should be: the integrator splits only there,
    and a jump it is not told of is missed without warning.  For
    ``E[1{X < 4}]`` with 7 dof and noncentrality 1.753 the result is
    1.2e-8 low without ``breakpoints=(4.0,)`` and within 1.1e-14 of
    ``scipy.stats.ncx2.cdf`` with it.
    """
    if delta < 0:
        raise ValueError(f"noncentrality must be >= 0, got {delta}")
    if delta == 0.0:
        pdf = lambda y: sps.chi2.pdf(y, df)
    else:
        pdf = lambda y: sps.ncx2.pdf(y, df, delta)

    def integrand(y: float) -> float:
        return float(np.asarray(h(y), dtype=float)) * pdf(y)

    cuts = sorted({float(b) for b in breakpoints if b > 0.0} | {float(df + delta)})
    total = 0.0
    lo = 0.0
    for cut in cuts:
        piece, _ = integrate.quad(
            integrand, lo, cut, epsabs=tol, epsrel=tol, limit=500
        )
        total += piece
        lo = cut
    tail, _ = integrate.quad(integrand, lo, np.inf, epsabs=tol, epsrel=tol, limit=500)
    return total + tail


def _square(h):
    def h2(x):
        v = float(np.asarray(h(x), dtype=float))
        return v * v

    return h2


def _rule_expectations(
    rule: ShrinkageFunction, delta: float, requests: tuple[tuple[int, bool], ...], tol: float
) -> tuple[float, ...]:
    """``E[h(X)]`` (False) or ``E[h(X)^2]`` (True) for each ``(df, squared)``
    request, X noncentral chi-square with ``df`` dof and noncentrality ``delta``.

    With pieces, ``h = a + b/x`` on ``[lo, hi)`` makes ``E[h]`` the sum of
    ``a (T0(hi) - T0(lo)) + b (T1(hi) - T1(lo))`` and ``E[h^2]`` that of
    ``a^2 dT0 + 2ab dT1 + b^2 dT2``, where ``Tp(c) = E[X^p 1{X < c}]`` is a
    ``trunc_below`` kernel, ``Tp(inf)`` the full moment, ``T0(inf) = 1``
    and ``Tp(0) = 0``.  The distinct moments of all requests come from one
    call of :func:`nc_chi2_moment`, a scalar call when there is only one.
    Without pieces, each request is one quadrature.
    """
    if rule.pieces is None:
        return tuple(
            nc_chi2_expectation(
                _square(rule.evaluate) if squared else rule.evaluate,
                df, delta, tol=tol, breakpoints=rule.breakpoints,
            )
            for df, squared in requests
        )
    # (coef, Tp(hi), Tp(lo)) of each request, each moment keyed (df, cut, power)
    moments: dict[tuple[int, float, int], float | None] = {}
    sums = []
    for df, squared in requests:
        terms = []
        for lo, hi, a, b in rule.pieces:
            coefs = ((0, a * a), (-1, 2.0 * a * b), (-2, b * b)) if squared else ((0, a), (-1, b))
            for power, coef in coefs:
                if coef != 0.0:
                    hi_key, lo_key = (df, hi, power), (df, lo, power)
                    terms.append((coef, hi_key, lo_key))
                    moments[hi_key] = 1.0 if hi == math.inf and power == 0 else None
                    moments[lo_key] = 0.0 if lo <= 0.0 else None
        sums.append(terms)
    wanted = [key for key, value in moments.items() if value is None]
    if len(wanted) == 1:
        (df, cut, power), = wanted
        moments[wanted[0]] = nc_chi2_moment(MOMENT_TRUNC_BELOW, df, delta, tol=tol, c=cut, power=power)
    elif wanted:
        dfs, cuts, powers = zip(*wanted)
        batch = nc_chi2_moment(MOMENT_TRUNC_BELOW, dfs, delta, tol=tol, c=cuts, power=powers)
        moments.update(zip(wanted, batch.tolist()))

    out = []
    for terms in sums:
        total = 0.0
        for coef, hi, lo in terms:
            total += coef * (moments[hi] - moments[lo])
        out.append(total)
    return tuple(out)


def rule_expectation(
    rule: ShrinkageFunction,
    df: int,
    delta: float,
    *,
    squared: bool = False,
    tol: float = 1e-11,
) -> float:
    """``E[h(X)]``, or ``E[h(X)^2]`` when ``squared``, for X noncentral
    chi-square with ``df`` dof and noncentrality ``delta``.

    A rule with :attr:`ShrinkageFunction.pieces` is evaluated exactly from
    one :func:`nc_chi2_moment` call at tolerance ``tol``; each
    power ``p`` its pieces use needs ``df > 2|p|`` (``DivergentMoment``
    otherwise), even on a piece bounded away from 0.  A rule without
    pieces goes to :func:`nc_chi2_expectation` with its ``breakpoints``,
    which must list every jump of the rule: an undeclared jump is missed
    silently.
    """
    return _rule_expectations(rule, delta, ((df, squared),), tol)[0]


# ---------------------------------------------------------------------------
# Joint-limit scaffold


@dataclass(frozen=True)
class AsymptoticScaffold:
    """Population (or plug-in) matrices of the joint limit distribution."""

    gamma: np.ndarray
    omega: np.ndarray
    restriction: Restriction
    mu: np.ndarray
    j0: np.ndarray
    mu1: np.ndarray
    sigma11: np.ndarray
    sigma12: np.ndarray
    sigma22: np.ndarray
    lambda11: np.ndarray
    lambda12: np.ndarray
    a: np.ndarray
    delta: float

    @property
    def k(self) -> int:
        return self.restriction.k

    @property
    def n_coefs(self) -> int:
        return self.gamma.shape[0]

    def hypothesis_errors(self) -> dict[str, float]:
        """Relative residuals of the identities the risk formulas rely on,
        with S = L11, the distance metric A and the mean ``mu1``."""
        return hypothesis_errors(self.a, self.lambda11, self.mu1)


def make_scaffold(
    gamma: np.ndarray,
    omega: np.ndarray,
    restriction: Restriction,
    mu: np.ndarray,
) -> AsymptoticScaffold:
    """Build the full scaffold from ``Gamma``, ``Omega``, the restriction and
    ``mu``; one factor of ``Gamma`` gives ``J0`` and the plug-ins' sandwich."""
    gamma = sym(np.asarray(gamma, dtype=float))
    omega = sym(np.asarray(omega, dtype=float))
    n = gamma.shape[0]
    restriction.check_dims(n)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if mu.shape[0] != restriction.k:
        raise ValueError(f"mu must have length k = {restriction.k}")
    rmat = restriction.matrix
    factor = pd_factor(gamma, name="gamma")
    ginv_rt = sla.cho_solve(factor, rmat.T, check_finite=False)
    j0 = pd_solve(sym(rmat @ ginv_rt), ginv_rt.T, name="R gamma^-1 R'").T
    mu1 = -j0 @ mu
    s11 = sandwich(factor, omega)
    proj = np.eye(n) - rmat.T @ j0.T
    s12 = s11 @ proj
    s22 = sym(proj.T @ s11 @ proj)
    l11 = sym(j0 @ rmat @ s11 @ rmat.T @ j0.T)
    l12 = j0 @ rmat @ s12
    a = wald_metric(s11, rmat)
    delta = max(float(mu1 @ a @ mu1), 0.0)
    return AsymptoticScaffold(
        gamma=_readonly(gamma),
        omega=_readonly(omega),
        restriction=restriction,
        mu=_readonly(mu),
        j0=_readonly(j0),
        mu1=_readonly(mu1),
        sigma11=_readonly(s11),
        sigma12=_readonly(s12),
        sigma22=_readonly(s22),
        lambda11=_readonly(l11),
        lambda12=_readonly(l12),
        a=_readonly(a),
        delta=delta,
    )


def scaffold_at_delta(
    scaffold: AsymptoticScaffold,
    delta: float,
    direction: np.ndarray | None = None,
) -> AsymptoticScaffold:
    """Rescale ``mu`` along a direction so the noncentrality equals ``delta``.

    Only ``mu``, ``mu1`` and ``delta`` change; all covariance blocks are
    independent of ``mu``.  The direction defaults to the scaffold's own
    ``mu`` when nonzero, else to the all-ones vector.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if direction is None:
        direction = scaffold.mu if np.any(scaffold.mu) else np.ones(scaffold.k)
    direction = np.asarray(direction, dtype=float).reshape(-1)
    base_mu1 = -scaffold.j0 @ direction
    base = float(base_mu1 @ scaffold.a @ base_mu1)
    if base <= 0.0:
        raise ValueError("direction has zero noncentrality")
    scale = math.sqrt(delta / base)
    mu = scale * direction
    mu1 = -scaffold.j0 @ mu
    return dataclasses.replace(
        scaffold,
        mu=_readonly(mu),
        mu1=_readonly(mu1),
        delta=max(float(mu1 @ scaffold.a @ mu1), 0.0),
    )


@dataclass(frozen=True)
class WeightSpec:
    """Loss weight ``W = A^(1/2) W* A^(1/2)`` derived from a PSD ``W*``."""

    w_star: np.ndarray
    w: np.ndarray


def make_weight(a: np.ndarray, w_star: np.ndarray | None = None) -> WeightSpec:
    """Build a weight compatible with the distance metric ``a``.

    ``w_star`` defaults to the identity.  The square root of ``a`` comes
    from a symmetric eigendecomposition with negative eigenvalues clipped
    at zero.
    """
    a = np.asarray(a, dtype=float)
    if w_star is None:
        w_star = np.eye(a.shape[0])
    w_star = sym(np.asarray(w_star, dtype=float))
    if np.linalg.eigvalsh(w_star)[0] < -1e-10 * max(np.abs(w_star).max(), 1.0):
        raise ValueError("w_star must be positive semidefinite")
    half = psd_sqrt(a)
    return WeightSpec(w_star=_readonly(w_star), w=_readonly(sym(half @ w_star @ half)))


# ---------------------------------------------------------------------------
# Risk formulas


def _risk_pieces(scaffold: AsymptoticScaffold, weight: WeightSpec):
    w = weight.w
    m1 = scaffold.mu1
    tw11 = float(np.trace(w @ scaffold.lambda11))
    tw12 = float(np.trace(w @ scaffold.lambda12))
    m1wm1 = float(m1 @ w @ m1)
    m1al12wm1 = float(m1 @ scaffold.a @ scaffold.lambda12 @ w @ m1)
    cross_trace = float(np.trace(scaffold.lambda12 @ w @ scaffold.lambda11 @ scaffold.a))
    return tw11, tw12, m1wm1, m1al12wm1, cross_trace


def adr_unrestricted(scaffold: AsymptoticScaffold, weight: WeightSpec) -> float:
    """trace(W G^-1 Omega G^-1)."""
    return float(np.trace(weight.w @ scaffold.sigma11))


def adr_restricted(scaffold: AsymptoticScaffold, weight: WeightSpec) -> float:
    """trace(W (I - J0 R) S11 (I - R'J0')) + mu1' W mu1."""
    return float(np.trace(weight.w @ scaffold.sigma22) + scaffold.mu1 @ weight.w @ scaffold.mu1)


@dataclass(frozen=True)
class AdrBreakdown:
    """Term-by-term risk of a member of the shrinkage class."""

    total: float
    terms: tuple[tuple[str, float], ...]


def adr_class(
    h: ShrinkageFunction,
    scaffold: AsymptoticScaffold,
    weight: WeightSpec,
    *,
    tol: float = 1e-11,
) -> AdrBreakdown:
    """Risk of the class member with rule ``h``, evaluated term by term.

    The expectations ``E[h(.)]`` and ``E[h^2(.)]`` against the noncentral
    chi-square laws with ``k + 2`` and ``k + 4`` dof are those of
    :func:`rule_expectation`: from the moment kernels when ``h`` has
    pieces (the James-Stein, positive-part and pretest rules), all four
    from one :func:`nc_chi2_moment` call, and by adaptive quadrature
    otherwise, so any integrable rule is supported.
    """
    k, delta = scaffold.k, scaffold.delta
    tw11, _, m1wm1, m1al12wm1, cross_trace = _risk_pieces(scaffold, weight)
    e2, s2, e4, s4 = _rule_expectations(
        h, delta, ((k + 2, False), (k + 2, True), (k + 4, False), (k + 4, True)), tol
    )
    terms = (
        ("restricted_base", adr_restricted(scaffold, weight)),
        ("mean_quadratic", -2.0 * e2 * m1wm1),
        ("mean_cross", -2.0 * e2 * m1al12wm1),
        ("trace_cross", 2.0 * e2 * cross_trace),
        ("mean_cross_step", 2.0 * e4 * m1al12wm1),
        ("squared_trace", s2 * tw11),
        ("squared_mean", s4 * m1wm1),
    )
    total = 0.0
    for _, value in terms:
        total += value
    return AdrBreakdown(total=total, terms=terms)


def _james_stein_risk(scaffold, weight, pieces, e2: float, f2: float, f4: float) -> float:
    """The James-Stein risk from ``_risk_pieces`` and ``E[1/X]`` at ``k + 2``
    dof (``e2``) and ``E[1/X^2]`` at ``k + 2`` and ``k + 4`` (``f2``, ``f4``)."""
    k = scaffold.k
    tw11, tw12, m1wm1, m1al12wm1, _ = pieces
    return (
        adr_unrestricted(scaffold, weight)
        - 2.0 * (k - 2.0) * e2 * (tw11 + tw12)
        + (k * k - 4.0) * f4 * m1wm1
        + (k - 2.0) ** 2 * f2 * tw11
        + 4.0 * (k - 2.0) * f4 * m1al12wm1
    )


def adr_james_stein(
    scaffold: AsymptoticScaffold, weight: WeightSpec, *, tol: float = 1e-12
) -> float:
    """Risk of the rule ``1 - (k-2)/psi``, via closed-form moment kernels:
    its three inverse moments come from one :func:`nc_chi2_moment` call."""
    k, delta = scaffold.k, scaffold.delta
    if k <= 2:
        raise KTooSmall(f"James-Stein risk needs k > 2, got {k}")
    e2, f2, f4 = nc_chi2_moment(
        MOMENT_TRUNC_BELOW, (k + 2, k + 2, k + 4), delta, tol=tol, c=math.inf, power=(-1, -2, -2)
    ).tolist()
    return _james_stein_risk(scaffold, weight, _risk_pieces(scaffold, weight), e2, f2, f4)


def adr_positive_part(
    scaffold: AsymptoticScaffold, weight: WeightSpec, *, tol: float = 1e-12
) -> float:
    """Risk of the positive-part rule: the James-Stein risk plus the
    truncation corrections, through ``trunc_below`` kernels at c = k - 2.

    The three inverse moments of the James-Stein risk and the six
    truncated moments (powers 0, -1, -2 at ``k + 2`` and ``k + 4`` dof)
    come from one :func:`nc_chi2_moment` call, so they share one Poisson
    window, and the six share one ``gammainc`` vector.
    """
    k, delta = scaffold.k, scaffold.delta
    if k <= 2:
        raise KTooSmall(f"positive-part risk needs k > 2, got {k}")
    pieces = _risk_pieces(scaffold, weight)
    tw11, tw12, m1wm1, m1al12wm1, _ = pieces
    c = float(k - 2)
    moments = nc_chi2_moment(
        MOMENT_TRUNC_BELOW,
        (k + 2, k + 2, k + 4) + (k + 2,) * 3 + (k + 4,) * 3,
        delta,
        tol=tol,
        c=(math.inf,) * 3 + (c,) * 6,
        power=(-1, -2, -2) + (0, -1, -2) * 2,
    ).tolist()
    t2, t4 = moments[3:6], moments[6:]
    # E[(1 - c/X) 1{X<c}] and E[(1 - c/X)^2 1{X<c}] at dof k+2 and k+4.
    e1 = t2[0] - c * t2[1]
    e2 = t4[0] - c * t4[1]
    e3 = t2[0] - 2.0 * c * t2[1] + c * c * t2[2]
    e4 = t4[0] - 2.0 * c * t4[1] + c * c * t4[2]
    return (
        _james_stein_risk(scaffold, weight, pieces, *moments[:3])
        + 2.0 * e1 * m1wm1
        + 2.0 * e1 * m1al12wm1
        - 2.0 * e1 * tw12
        - 2.0 * e2 * m1al12wm1
        - e3 * tw11
        - e4 * m1wm1
    )


# ---------------------------------------------------------------------------
# Dominance over the unrestricted estimator


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of the sufficient conditions for shrinkage to dominate.

    ``c1`` is trace(W(L11 + L12)) and must be at least ``c2_bound``;
    ``eig_min_terms`` holds (ch_min(W L11), ch_min(W L12)).
    """

    holds: bool
    c1: float
    c2_bound: float
    trace_wl12: float
    eig_min_terms: tuple[float, float]
    pi_star_max_eig: float
    violated: tuple[str, ...]


def dominance_check(scaffold: AsymptoticScaffold, weight: WeightSpec) -> DominanceReport:
    """Check the sufficient conditions under which the Stein-type rules
    dominate the unrestricted estimator at every noncentrality:

    1. trace(W L12) <= 0
    2. -ch_min(W L11) <= ch_min(W L12)
    3. trace(W (L11 + L12)) >= max(-trace(W L12), (k+2) ch_max(Pi*)/4)
       with Pi0 = A^(1/2) (L11 + 4 L12/(k+2)) W L11 A^(1/2) and
       Pi* its symmetric part.

    Eigenvalues of the (possibly non-symmetric) products W L11 and W L12
    are taken as real parts; W L11 has a real spectrum by similarity.
    """
    k = scaffold.k
    if k <= 2:
        raise KTooSmall(f"dominance conditions need k > 2, got {k}")
    w = weight.w
    l11, l12, a = scaffold.lambda11, scaffold.lambda12, scaffold.a
    wl11 = w @ l11
    wl12 = w @ l12
    tw11 = float(np.trace(wl11))
    tw12 = float(np.trace(wl12))
    eig_wl11 = float(np.min(np.real(np.linalg.eigvals(wl11))))
    eig_wl12 = float(np.min(np.real(np.linalg.eigvals(wl12))))
    half = psd_sqrt(a)
    pi0 = half @ (l11 + 4.0 * l12 / (k + 2.0)) @ w @ l11 @ half
    pi_star = sym(pi0)
    pi_max = float(np.max(np.linalg.eigvalsh(pi_star)))
    c1 = tw11 + tw12
    c2_bound = max(-tw12, (k + 2.0) * pi_max / 4.0)
    # For compatible weights W L12 is nilpotent (L12 A annihilates), so its
    # eigenvalues are exact zeros whose numerical images scatter at the
    # square root of round-off; the slack must sit above that floor.
    scale = max(1.0, abs(tw11), float(np.linalg.norm(wl11)), float(np.linalg.norm(wl12)))
    slack = 1e-6 * scale
    violated = []
    if tw12 > slack:
        violated.append("trace_wl12_nonpositive")
    if -eig_wl11 > eig_wl12 + slack:
        violated.append("min_eigenvalue_order")
    if c1 < c2_bound - slack:
        violated.append("trace_lower_bound")
    return DominanceReport(
        holds=not violated,
        c1=c1,
        c2_bound=c2_bound,
        trace_wl12=tw12,
        eig_min_terms=(eig_wl11, eig_wl12),
        pi_star_max_eig=pi_max,
        violated=tuple(violated),
    )


def empirical_noncentrality(psi: float, k: int) -> float:
    """Mean-bias-corrected plug-in noncentrality, max(0, psi - k)."""
    return max(0.0, float(psi) - float(k))


# ---------------------------------------------------------------------------
# Random scaffold generators (test fixtures and the risk-curve command)


def _random_pd(rng: np.random.Generator, n: int) -> np.ndarray:
    b = rng.normal(size=(n, n))
    return sym(b @ b.T / n + np.eye(n))


def random_scaffold(
    n_coefs: int,
    k: int,
    seed: int,
    *,
    proportional_omega: bool = False,
    mu_scale: float = 1.0,
) -> AsymptoticScaffold:
    """A random valid scaffold.

    With ``proportional_omega`` the score covariance is a positive multiple
    of ``Gamma``, which makes L12 vanish (the classical uncorrelated case);
    otherwise ``Omega`` is an independent random PD matrix and L12 is
    generally nonzero.
    """
    rng = np.random.default_rng(seed)
    gamma = _random_pd(rng, n_coefs)
    if proportional_omega:
        omega = float(rng.uniform(0.5, 2.0)) * gamma
    else:
        omega = _random_pd(rng, n_coefs)
    rmat = rng.normal(size=(k, n_coefs))
    restriction = Restriction(matrix=rmat, rhs=np.zeros(k))
    mu = mu_scale * rng.normal(size=k)
    return make_scaffold(gamma, omega, restriction, mu)


def random_dominant_scaffold(
    n_coefs: int, k: int, seed: int, *, max_tries: int = 50
) -> tuple[AsymptoticScaffold, WeightSpec]:
    """A random scaffold/weight pair certified by :func:`dominance_check`."""
    if k <= 2:
        raise KTooSmall(f"dominant scaffolds need k > 2, got {k}")
    rng = np.random.default_rng(seed)
    for attempt in range(max_tries):
        sub = int(rng.integers(0, 2**31))
        scaffold = random_scaffold(n_coefs, k, sub, proportional_omega=True)
        if attempt % 2 == 0:
            w_star = None
        else:
            b = rng.normal(size=(n_coefs, n_coefs))
            w_star = sym(b @ b.T / n_coefs + 0.1 * np.eye(n_coefs))
        weight = make_weight(scaffold.a, w_star)
        if dominance_check(scaffold, weight).holds:
            return scaffold, weight
    raise NonConvergence(f"no dominant scaffold found in {max_tries} tries")
