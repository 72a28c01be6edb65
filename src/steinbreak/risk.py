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
series in :func:`nc_chi2_moment`: :func:`rule_expectation` turns a rule
given in pieces ``a + b/x`` into truncated-moment differences.  Only a
rule without pieces goes to adaptive quadrature against the noncentral
density in :func:`nc_chi2_expectation`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special
from scipy import stats as sps

from .errors import DivergentMoment, KTooSmall, NonConvergence
from .estimators import ShrinkageFunction
from .linalg import hypothesis_errors, pd_inverse, pd_solve, psd_sqrt, sym
from .model import Restriction, _readonly

MOMENT_INVERSE_FIRST = "inverse_first"
MOMENT_INVERSE_SECOND = "inverse_second"
MOMENT_TRUNC_BELOW = "trunc_below"

_MAX_SERIES_TERMS = 100_000


# ---------------------------------------------------------------------------
# Noncentral chi-square moment kernels


def _central_terms(kind: str, df: float, power: int, c: float | None):
    """Per-mixture-index central moments m_j, for a scalar j or an array of j.

    Each m_j is the moment of a central chi-square with ``nu = df + 2j``
    degrees of freedom, ``E[X^p 1{X < c}] = P(chi2_{nu+2p} < c) /
    ((nu-2)...(nu+2p))``; the inverse kinds take ``c = inf``, where
    ``gammainc`` is exactly 1.  All kinds are positive and decreasing in j,
    which is what the tail bound relies on.
    """
    if kind == MOMENT_INVERSE_FIRST:
        power, c = -1, math.inf
    elif kind == MOMENT_INVERSE_SECOND:
        power, c = -2, math.inf
    half_c = c / 2.0

    def terms(js):
        denom = 1.0
        for i in range(1, 1 - power):
            denom = denom * (df + 2.0 * js - 2.0 * i)
        return special.gammainc(df / 2.0 + js + power, half_c) / denom

    return terms


def nc_chi2_moment(
    kind: str,
    df: int,
    delta: float,
    *,
    tol: float = 1e-10,
    c: float | None = None,
    power: int = 0,
) -> float:
    """Moment of a noncentral chi-square with ``df`` dof and noncentrality ``delta``.

    Kinds
    -----
    - ``"inverse_first"``: E[X^-1] (requires df > 2)
    - ``"inverse_second"``: E[X^-2] (requires df > 4)
    - ``"trunc_below"``: E[X^power 1{X < c}] for power in {0, -1, -2}
      (requires c > 0 and df > 2|power|)

    The value is the Poisson(delta/2) mixture of central chi-square moments
    with ``df + 2j`` dof.  Terms are summed over a window around the Poisson
    bulk; because the per-term moments decrease in j, the mass outside the
    window bounds the truncation error, and the window grows until that
    bound is below ``tol`` (absolute).

    Raises
    ------
    DivergentMoment
        If ``df`` is too small for the requested moment to exist.
    NonConvergence
        If the series needs more than 100000 terms.
    """
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
        if c is None or c <= 0:
            raise ValueError("trunc_below needs a positive truncation point c")
        if power not in (0, -1, -2):
            raise ValueError(f"trunc_below power must be 0, -1 or -2, got {power}")
        if df <= 2 * abs(power):
            raise DivergentMoment(
                f"trunc_below power {power} needs df > {2 * abs(power)}, got {df}"
            )
    else:
        raise ValueError(f"unknown moment kind {kind!r}")

    terms = _central_terms(kind, float(df), power, c)
    lam = delta / 2.0
    if lam == 0.0:
        return float(terms(0.0))

    radius = 10.0 * math.sqrt(lam) + 20.0
    while True:
        jlo = max(0, int(math.floor(lam - radius)))
        jhi = int(math.ceil(lam + radius))
        if jhi - jlo + 1 > _MAX_SERIES_TERMS:
            raise NonConvergence(
                f"series window exceeded {_MAX_SERIES_TERMS} terms at delta={delta}"
            )
        # m_j decreases in j, so mass below the window is bounded by m_0 and
        # mass above by m_{jhi+1}.
        err_below = special.pdtr(jlo - 1, lam) * terms(0.0) if jlo > 0 else 0.0
        err_above = special.pdtrc(jhi, lam) * terms(float(jhi + 1))
        if err_below + err_above <= tol:
            break
        radius *= 2.0
    js = np.arange(jlo, jhi + 1, dtype=float)
    # the Poisson(lam) pmf, as scipy.stats.poisson computes it
    weights = np.exp(special.xlogy(js, lam) - special.gammaln(js + 1) - lam)
    return float(np.sum(weights * terms(js)))


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
    rule: ShrinkageFunction, df: int, delta: float, which: tuple[bool, ...], tol: float
) -> tuple[float, ...]:
    """``E[h(X)]`` (False) or ``E[h(X)^2]`` (True) for each entry of ``which``.

    With pieces, ``h = a + b/x`` on ``[lo, hi)`` makes ``E[h]`` the sum of
    ``a (T0(hi) - T0(lo)) + b (T1(hi) - T1(lo))`` and ``E[h^2]`` that of
    ``a^2 dT0 + 2ab dT1 + b^2 dT2``, where ``Tp(c) = E[X^p 1{X < c}]`` is a
    ``trunc_below`` kernel, ``Tp(inf)`` the full moment and ``Tp(0) = 0``.
    Each distinct ``(cut, power)`` moment is evaluated once across
    ``which``.  Without pieces, each entry is one quadrature.
    """
    if rule.pieces is None:
        return tuple(
            nc_chi2_expectation(
                _square(rule.evaluate) if squared else rule.evaluate,
                df, delta, tol=tol, breakpoints=rule.breakpoints,
            )
            for squared in which
        )
    moments: dict[tuple[float, int], float] = {}

    def below(cut: float, power: int) -> float:
        if (cut, power) not in moments:
            if cut != math.inf:
                value = nc_chi2_moment(MOMENT_TRUNC_BELOW, df, delta, tol=tol, c=cut, power=power)
            elif power == 0:
                value = 1.0
            else:
                kind = MOMENT_INVERSE_FIRST if power == -1 else MOMENT_INVERSE_SECOND
                value = nc_chi2_moment(kind, df, delta, tol=tol)
            moments[cut, power] = value
        return moments[cut, power]

    out = []
    for squared in which:
        total = 0.0
        for lo, hi, a, b in rule.pieces:
            coefs = ((0, a * a), (-1, 2.0 * a * b), (-2, b * b)) if squared else ((0, a), (-1, b))
            for power, coef in coefs:
                if coef != 0.0:
                    total += coef * (below(hi, power) - (below(lo, power) if lo > 0.0 else 0.0))
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
    the moment kernels of :func:`nc_chi2_moment` at tolerance ``tol``; each
    power ``p`` its pieces use needs ``df > 2|p|`` (``DivergentMoment``
    otherwise), even on a piece bounded away from 0.  A rule without
    pieces goes to :func:`nc_chi2_expectation` with its ``breakpoints``,
    which must list every jump of the rule: an undeclared jump is missed
    silently.
    """
    return _rule_expectations(rule, df, delta, (squared,), tol)[0]


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
    """Build the full scaffold from ``Gamma``, ``Omega``, the restriction and ``mu``."""
    gamma = sym(np.asarray(gamma, dtype=float))
    omega = sym(np.asarray(omega, dtype=float))
    n = gamma.shape[0]
    restriction.check_dims(n)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if mu.shape[0] != restriction.k:
        raise ValueError(f"mu must have length k = {restriction.k}")
    rmat = restriction.matrix
    ginv = pd_inverse(gamma, name="gamma")
    rg = rmat @ ginv
    j0 = pd_solve(sym(rg @ rmat.T), rg, name="R gamma^-1 R'").T
    mu1 = -j0 @ mu
    s11 = sym(ginv @ omega @ ginv)
    proj = np.eye(n) - rmat.T @ j0.T
    s12 = s11 @ proj
    s22 = sym(proj.T @ s11 @ proj)
    l11 = sym(j0 @ rmat @ s11 @ rmat.T @ j0.T)
    l12 = j0 @ rmat @ s12
    a = sym(rmat.T @ pd_solve(sym(rmat @ s11 @ rmat.T), rmat, name="R S11 R'"))
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
    chi-square laws with ``k + 2`` and ``k + 4`` dof come from
    :func:`rule_expectation`: from the moment kernels when ``h`` has
    pieces (the James-Stein, positive-part and pretest rules), and by
    adaptive quadrature otherwise, so any integrable rule is supported.
    """
    k, delta = scaffold.k, scaffold.delta
    tw11, _, m1wm1, m1al12wm1, cross_trace = _risk_pieces(scaffold, weight)
    e2, s2 = _rule_expectations(h, k + 2, delta, (False, True), tol)
    e4, s4 = _rule_expectations(h, k + 4, delta, (False, True), tol)
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


def adr_james_stein(
    scaffold: AsymptoticScaffold, weight: WeightSpec, *, tol: float = 1e-12
) -> float:
    """Risk of the rule ``1 - (k-2)/psi``, via closed-form moment kernels."""
    k, delta = scaffold.k, scaffold.delta
    if k <= 2:
        raise KTooSmall(f"James-Stein risk needs k > 2, got {k}")
    tw11, tw12, m1wm1, m1al12wm1, _ = _risk_pieces(scaffold, weight)
    e2 = nc_chi2_moment(MOMENT_INVERSE_FIRST, k + 2, delta, tol=tol)
    f2 = nc_chi2_moment(MOMENT_INVERSE_SECOND, k + 2, delta, tol=tol)
    f4 = nc_chi2_moment(MOMENT_INVERSE_SECOND, k + 4, delta, tol=tol)
    return (
        adr_unrestricted(scaffold, weight)
        - 2.0 * (k - 2.0) * e2 * (tw11 + tw12)
        + (k * k - 4.0) * f4 * m1wm1
        + (k - 2.0) ** 2 * f2 * tw11
        + 4.0 * (k - 2.0) * f4 * m1al12wm1
    )


def adr_positive_part(
    scaffold: AsymptoticScaffold, weight: WeightSpec, *, tol: float = 1e-12
) -> float:
    """Risk of the positive-part rule: the James-Stein risk plus the
    truncation corrections, all through ``trunc_below`` kernels at c = k - 2."""
    k, delta = scaffold.k, scaffold.delta
    if k <= 2:
        raise KTooSmall(f"positive-part risk needs k > 2, got {k}")
    tw11, tw12, m1wm1, m1al12wm1, _ = _risk_pieces(scaffold, weight)
    c = float(k - 2)

    t2, t4 = (
        [nc_chi2_moment(MOMENT_TRUNC_BELOW, df, delta, tol=tol, c=c, power=p) for p in (0, -1, -2)]
        for df in (k + 2, k + 4)
    )
    # E[(1 - c/X) 1{X<c}] and E[(1 - c/X)^2 1{X<c}] at dof k+2 and k+4.
    e1 = t2[0] - c * t2[1]
    e2 = t4[0] - c * t4[1]
    e3 = t2[0] - 2.0 * c * t2[1] + c * c * t2[2]
    e4 = t4[0] - 2.0 * c * t4[1] + c * c * t4[2]
    return (
        adr_james_stein(scaffold, weight, tol=tol)
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
