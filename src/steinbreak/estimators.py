"""Coefficient estimators and their plug-in asymptotic matrices.

Three families: per-segment OLS (``fit_unrestricted``), equality-constrained
least squares (``fit_restricted``), and shrinkage combinations of the two
steered by the Wald-type distance

    psi = T (delta_re - delta_ue)' A_hat (delta_re - delta_ue),

where ``A_hat = R'(R Gamma_hat^-1 Omega_hat^-1 Gamma_hat^-1 R')^-1 R`` is built
from the scaled design Gram matrix ``Gamma_hat = Zbar'Zbar / T`` and a
heteroskedasticity-robust (optionally autocorrelation-robust) score
covariance ``Omega_hat``.  A shrinkage rule ``h`` maps psi to a mixing factor:
``h == 1`` recovers the unrestricted estimator, ``h == 0`` the restricted one,
and the James-Stein pair uses ``1 - (k - 2)/psi`` and its positive part.
:func:`estimate_class` is the one step from estimated break partitions to
the whole class; the CLI and the simulation study both call it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats as sps

from .errors import (
    DimensionMismatch,
    GammaSingular,
    KTooSmall,
    MismatchedPartitions,
    SegmentRankDeficient,
    SingularConstraintGram,
)
from .linalg import RANK_RTOL, pd_solve, sym
from .model import Partition, RegressionData, Restriction, SegmentedDesign, build_design

# Constraint satisfaction tolerance for restricted fits:
# ||R d - r||_inf <= CONSTRAINT_TOL * (1 + ||r||_inf).
CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class CoefEstimate:
    """A stacked coefficient vector together with its provenance.

    ``ssr`` is the residual sum of squares of the fit; it is None for
    shrinkage estimates, which are formed from two existing fits without
    access to the data.  ``label`` names the shrinkage rule of a shrinkage
    estimate.
    """

    delta: np.ndarray
    partition: Partition
    ssr: float | None
    label: str = ""


@dataclass(frozen=True)
class PluginMatrices:
    """Plug-in estimates of the asymptotic matrices at a fitted partition."""

    gamma_hat: np.ndarray
    omega_hat: np.ndarray
    a_hat: np.ndarray
    omega_method: str

    @property
    def sandwich(self) -> np.ndarray:
        """Gamma_hat^-1 Omega_hat Gamma_hat^-1."""
        return _sandwich(self.gamma_hat, self.omega_hat)


def _sandwich(gamma: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Gamma^-1 Omega Gamma^-1, symmetrized."""
    half = pd_solve(gamma, omega, name="gamma_hat")
    return sym(pd_solve(gamma, half.T, name="gamma_hat"))


@dataclass(frozen=True)
class ShrinkageFunction:
    """A mixing rule ``h`` on the distance statistic.

    ``evaluate`` must be total on (0, inf); integrability with respect to
    the relevant chi-square laws is a documented contract, not checked at
    runtime.  ``breakpoints`` lists kinks or jumps of ``h`` (used by the
    risk quadrature).  Rules requiring ``k > 2`` raise ``KTooSmall`` at
    construction.

    ``pieces``, when given, is the same rule in closed form: disjoint
    ``(lo, hi, a, b)`` with ``0 <= lo < hi <= inf``, meaning
    ``h(x) = a + b/x`` on ``[lo, hi)`` and ``h(x) = 0`` outside every
    piece.  The risk module then takes expectations from the noncentral
    chi-square moment kernels instead of quadrature.  Every built-in rule
    is defined by its pieces alone, through :meth:`from_pieces`.
    """

    evaluate: Callable[[float], float]
    name: str
    breakpoints: tuple[float, ...] = ()
    pieces: tuple[tuple[float, float, float, float], ...] | None = None

    @classmethod
    def from_pieces(
        cls, name: str, pieces: tuple[tuple[float, float, float, float], ...]
    ) -> "ShrinkageFunction":
        """The rule with these pieces; ``evaluate`` (on a float or an array)
        and ``breakpoints`` (the finite positive piece ends) follow from them.
        """
        pieces = tuple((float(lo), float(hi), float(a), float(b)) for lo, hi, a, b in pieces)
        ends = [end for lo, hi, _, _ in pieces for end in (lo, hi)]
        if not ends or ends[0] < 0.0 or ends != sorted(ends) or any(lo == hi for lo, hi, _, _ in pieces):
            raise ValueError(f"pieces must be nonempty, ordered and disjoint in [0, inf): {pieces}")

        def evaluate(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape)
            for lo, hi, a, b in pieces:
                inside = (lo <= x) & (x < hi)
                out[inside] = a + b / x[inside] if b else a
            return out if out.ndim else float(out)

        breakpoints = tuple(sorted({e for e in ends if 0.0 < e < math.inf}))
        return cls(evaluate=evaluate, name=name, breakpoints=breakpoints, pieces=pieces)


def _check_segment_ranks(segments: list[tuple[int, int]], ranks: list[int], q: int) -> None:
    """Raise one ``SegmentRankDeficient`` listing every segment of rank below ``q``."""
    failed = [(p, seg, r) for p, (seg, r) in enumerate(zip(segments, ranks)) if r < q]
    if failed:
        detail = "; ".join(
            f"segment {p + 1} (times {s + 1}..{e}) has rank {r} < {q}" for p, (s, e), r in failed
        )
        raise SegmentRankDeficient(detail, segments=[seg for _, seg, _ in failed])


def fit_unrestricted(data: RegressionData, partition: Partition) -> CoefEstimate:
    """Per-segment OLS, stacked into one coefficient vector.

    Raises
    ------
    SegmentRankDeficient
        If any segment's rows fail ``lstsq``'s rank test; ``segments``
        lists every such segment.
    """
    segments = partition.segments(data.n_obs)
    q = data.n_regressors
    delta = np.empty(len(segments) * q)
    ranks = []
    ssr = 0.0
    for p, (s, e) in enumerate(segments):
        zseg, yseg = data.z[s:e], data.y[s:e]
        beta, _, rank, _ = np.linalg.lstsq(zseg, yseg, rcond=None)
        ranks.append(rank)
        delta[p * q:(p + 1) * q] = beta
        resid = yseg - zseg @ beta
        ssr += float(resid @ resid)
    _check_segment_ranks(segments, ranks, q)
    return CoefEstimate(delta=delta, partition=partition, ssr=ssr)


def _restricted_ls(grams: np.ndarray, zys: np.ndarray, restriction: Restriction) -> np.ndarray:
    """The restricted least-squares solve of :func:`fit_restricted`, batched.

    Minimizes ``delta'G delta - 2 delta'Z'y`` subject to ``R delta = r``,
    with ``G`` block diagonal from ``grams[..., p, :, :] = Z_p'Z_p`` and
    ``Z'y`` stacked from ``zys[..., p, :] = Z_p'y_p``; leading axes index
    independent problems sharing the restriction.  Writing
    ``delta = d0 + N theta`` with :attr:`Restriction.null_form` leaves the
    unconstrained ``(N'GN) theta = N'(Z'y - G d0)``.  Returns the stacked
    ``delta`` with shape ``(..., P q)``; raises ``LinAlgError`` when some
    ``N'GN`` is exactly singular, which, ``R`` having full row rank, is
    exactly when the constrained normal equations are.
    """
    *lead, n_seg, q = zys.shape
    n = n_seg * q
    restriction.check_dims(n)
    null, d0 = restriction.null_form
    f = null.shape[1]
    if f == 0:
        return np.broadcast_to(d0, (*lead, n)).copy()
    # Every product is stacked, one small product per problem, so a
    # problem's rounding does not depend on the batch it is solved in.
    gn = (grams.reshape(-1, n_seg, q, q) @ null.reshape(n_seg, q, f)).reshape(-1, n, f)
    c = (zys.reshape(-1, 1, n) @ null)[:, 0] - d0 @ gn
    theta = np.linalg.solve(null.T @ gn, c[..., None])
    return (d0 + (null @ theta)[..., 0]).reshape(*lead, n)


def fit_restricted(
    data: RegressionData, partition: Partition, restriction: Restriction
) -> CoefEstimate:
    """Least squares subject to ``R delta = r``.

    Runs the restricted solve (:func:`_restricted_ls`, a batch of one) on
    each segment's data rows, ``Z_p'Z_p`` and ``Z_p'y_p``, and reports the
    SSR from explicit residuals.

    Raises
    ------
    SegmentRankDeficient
        If any segment's rows fail ``matrix_rank``'s test, whatever ``R``
        identifies; ``segments`` lists every such segment.
    DimensionMismatch, SingularConstraintGram
    """
    segments = partition.segments(data.n_obs)
    q = data.n_regressors
    grams = np.empty((len(segments), q, q))
    zys = np.empty((len(segments), q))
    ranks = []
    for p, (s, e) in enumerate(segments):
        zseg = data.z[s:e]
        ranks.append(np.linalg.matrix_rank(zseg))
        grams[p] = zseg.T @ zseg
        zys[p] = zseg.T @ data.y[s:e]
    _check_segment_ranks(segments, ranks, q)
    try:
        delta = _restricted_ls(grams, zys, restriction)
    except np.linalg.LinAlgError as exc:
        raise SingularConstraintGram("R G^-1 R' is singular") from exc
    rmat, rhs = restriction.matrix, restriction.rhs
    gap = np.max(np.abs(rmat @ delta - rhs))
    if gap > CONSTRAINT_TOL * (1.0 + np.max(np.abs(rhs), initial=0.0)):
        raise SingularConstraintGram(
            f"constraint violated by the constrained solve (gap {gap:.3e}); "
            "the constraint Gram is too ill-conditioned"
        )
    ssr = 0.0
    for p, (s, e) in enumerate(segments):
        resid = data.y[s:e] - data.z[s:e] @ delta[p * q:(p + 1) * q]
        ssr += float(resid @ resid)
    return CoefEstimate(delta=delta, partition=partition, ssr=ssr)


def estimate_gamma(design: SegmentedDesign) -> np.ndarray:
    """Scaled design Gram matrix ``Zbar'Zbar / T``.

    Raises ``GammaSingular`` unless the result is positive definite.
    """
    gamma = sym(design.zbar.T @ design.zbar / design.n_obs)
    vals = np.linalg.eigvalsh(gamma)
    if vals[0] <= RANK_RTOL * max(vals[-1], 0.0) or vals[-1] <= 0.0:
        raise GammaSingular("Zbar'Zbar / T is not positive definite")
    return gamma


def newey_west_bandwidth(n_obs: int) -> int:
    """Rule-of-thumb Bartlett bandwidth, floor(4 (T/100)^(2/9))."""
    return int(math.floor(4.0 * (n_obs / 100.0) ** (2.0 / 9.0)))


def estimate_omega(
    design: SegmentedDesign,
    residuals: np.ndarray,
    method: str = "hc0",
    bandwidth: int | None = None,
) -> np.ndarray:
    """Score covariance estimate ``Omega_hat``.

    ``method="hc0"`` returns ``T^-1 sum_t u_t^2 zbar_t zbar_t'``.
    ``method="hac"`` adds Bartlett-weighted autocovariances of the score
    sequence up to ``bandwidth`` lags (rule-of-thumb bandwidth when None).
    The output is symmetrized and any negative eigenvalues are clipped to
    zero with a warning.
    """
    residuals = np.asarray(residuals, dtype=float).reshape(-1)
    if residuals.shape[0] != design.n_obs:
        raise DimensionMismatch(
            f"{residuals.shape[0]} residuals for {design.n_obs} observations"
        )
    t_total = design.n_obs
    scores = design.zbar * residuals[:, None]
    omega = scores.T @ scores / t_total
    if method == "hac":
        lags = newey_west_bandwidth(t_total) if bandwidth is None else int(bandwidth)
        if lags < 0:
            raise DimensionMismatch("bandwidth must be >= 0")
        for lag in range(1, lags + 1):
            gamma_l = scores[lag:].T @ scores[:-lag] / t_total
            omega += (1.0 - lag / (lags + 1.0)) * (gamma_l + gamma_l.T)
    elif method != "hc0":
        raise DimensionMismatch(f"unknown omega method {method!r}")
    omega = sym(omega)
    vals, vecs = np.linalg.eigh(omega)
    if vals[0] < 0.0:
        warnings.warn(
            "score covariance had negative eigenvalues; clipped to zero",
            RuntimeWarning,
            stacklevel=2,
        )
        omega = sym((vecs * np.clip(vals, 0.0, None)) @ vecs.T)
    return omega


def build_plugin_matrices(
    design: SegmentedDesign,
    residuals: np.ndarray,
    restriction: Restriction,
    method: str = "hc0",
    bandwidth: int | None = None,
) -> PluginMatrices:
    """Assemble ``Gamma_hat``, ``Omega_hat`` and ``A_hat`` from a fitted design."""
    restriction.check_dims(design.n_coefs)
    gamma = estimate_gamma(design)
    omega = estimate_omega(design, residuals, method=method, bandwidth=bandwidth)
    sandwich = _sandwich(gamma, omega)
    rmat = restriction.matrix
    core = sym(rmat @ sandwich @ rmat.T)
    a_hat = sym(rmat.T @ pd_solve(core, rmat, name="R sandwich R'"))
    label = "hc0" if method == "hc0" else f"hac({newey_west_bandwidth(design.n_obs) if bandwidth is None else int(bandwidth)})"
    return PluginMatrices(gamma_hat=gamma, omega_hat=omega, a_hat=a_hat, omega_method=label)


def wald_distance(
    ue: CoefEstimate, re: CoefEstimate, plugin: PluginMatrices, n_obs: int
) -> float:
    """psi = T (d_re - d_ue)' A_hat (d_re - d_ue); zero iff the fits coincide."""
    if ue.partition != re.partition:
        raise MismatchedPartitions(
            f"unrestricted fit at {ue.partition.breaks}, restricted at {re.partition.breaks}"
        )
    diff = re.delta - ue.delta
    return max(float(n_obs * diff @ plugin.a_hat @ diff), 0.0)


def shrinkage_estimate(
    ue: CoefEstimate,
    re: CoefEstimate,
    plugin: PluginMatrices,
    h: ShrinkageFunction,
    n_obs: int,
) -> CoefEstimate:
    """Combine a restricted and an unrestricted fit through the rule ``h``.

    Returns ``d_re + h(psi) (d_ue - d_re)``.  When ``psi == 0`` the two fits
    coincide and the restricted fit is returned without evaluating ``h``
    (the limit convention for rules singular at zero).

    Raises
    ------
    MismatchedPartitions
        If the two fits were computed on different partitions.
    """
    psi = wald_distance(ue, re, plugin, n_obs)
    if psi == 0.0:
        delta = re.delta.copy()
    else:
        factor = float(h.evaluate(psi))
        delta = re.delta + factor * (ue.delta - re.delta)
    return CoefEstimate(delta=delta, partition=ue.partition, ssr=None, label=h.name)


def make_james_stein(k: int) -> ShrinkageFunction:
    """h(x) = 1 - (k - 2)/x.  Requires k > 2."""
    if k <= 2:
        raise KTooSmall(f"James-Stein rule needs k > 2, got {k}")
    return ShrinkageFunction.from_pieces("james-stein", ((0.0, math.inf, 1.0, -(k - 2.0)),))


def make_positive_part(k: int) -> ShrinkageFunction:
    """h(x) = max(0, 1 - (k - 2)/x).  Requires k > 2."""
    if k <= 2:
        raise KTooSmall(f"positive-part rule needs k > 2, got {k}")
    return ShrinkageFunction.from_pieces("positive-part", ((k - 2.0, math.inf, 1.0, -(k - 2.0)),))


def make_pretest(k: int, alpha: float) -> ShrinkageFunction:
    """h(x) = 1{x >= chi2 quantile at level 1 - alpha with k dof}."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if k < 1:
        raise KTooSmall(f"pretest needs k >= 1, got {k}")
    threshold = float(sps.chi2.ppf(1.0 - alpha, df=k))
    return ShrinkageFunction.from_pieces(f"pretest({alpha:g})", ((threshold, math.inf, 1.0, 0.0),))


# Shrinkage members of the estimator class, by the names the CLI and the
# simulation study use.
SHRINKAGE_RULES = {"js": make_james_stein, "pp": make_positive_part}


def estimate_class(
    data: RegressionData,
    restriction: Restriction,
    ue_partition: Partition,
    re_partition: Partition,
    shrink_partition: Partition,
    shrinkage: tuple[str, ...] = ("js", "pp"),
    omega: str = "hc0",
    bandwidth: int | None = None,
) -> dict:
    """UE, RE and the requested shrinkage members at estimated breaks.

    Fits UE at ``ue_partition`` and RE at ``re_partition``.  The shrinkage
    members ``d_re + h(psi) (d_ue - d_re)`` combine UE and RE fits at
    ``shrink_partition``, reusing the fits above when it is one of their
    partitions and fitting there otherwise.  The plug-in matrices come from
    one design at ``shrink_partition`` with the UE residuals there.
    ``shrinkage`` names members of :data:`SHRINKAGE_RULES`; only those are
    built, so an empty tuple works for any ``k``.

    Returns a dict with ``estimates`` (``"ue"``, ``"re"`` and each requested
    member, as :class:`CoefEstimate`), ``plugin`` and ``psi``.
    """
    ue = fit_unrestricted(data, ue_partition)
    re = fit_restricted(data, re_partition, restriction)
    ue_s = ue if shrink_partition == ue_partition else fit_unrestricted(data, shrink_partition)
    re_s = re if shrink_partition == re_partition else fit_restricted(data, shrink_partition, restriction)
    design = build_design(data, shrink_partition)
    plugin = build_plugin_matrices(
        design, data.y - design.zbar @ ue_s.delta, restriction, method=omega, bandwidth=bandwidth
    )
    estimates = {"ue": ue, "re": re}
    for name in shrinkage:
        rule = SHRINKAGE_RULES[name](restriction.k)
        estimates[name] = shrinkage_estimate(ue_s, re_s, plugin, rule, data.n_obs)
    return {
        "estimates": estimates,
        "plugin": plugin,
        "psi": wald_distance(ue_s, re_s, plugin, data.n_obs),
    }


def residuals_of(data: RegressionData, estimate: CoefEstimate) -> np.ndarray:
    """Residual vector ``y - Zbar delta`` of an estimate on its own partition."""
    design = build_design(data, estimate.partition)
    return data.y - design.zbar @ estimate.delta
