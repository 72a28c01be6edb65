"""Coefficient estimators and their plug-in asymptotic matrices.

Three families: per-segment OLS (``fit_unrestricted``), equality-constrained
least squares (``fit_restricted``), and shrinkage combinations of the two
steered by the Wald-type distance.  Both fits and the plug-ins at one
partition solve on one thin QR of each segment's rows.  The distance is

    psi = T (delta_re - delta_ue)' A_hat (delta_re - delta_ue),

where ``A_hat = R'(R S R')^-1 R`` is the Wald metric of the sandwich
``S = Gamma_hat^-1 Omega_hat Gamma_hat^-1``, with ``Gamma_hat = Zbar'Zbar / T``
and a heteroskedasticity-robust (optionally autocorrelation-robust) score
covariance ``Omega_hat``; ``S`` comes from the segments' triangular factors,
never from ``Gamma_hat``.  A shrinkage rule ``h`` maps psi to a mixing factor:
``h == 1`` recovers the unrestricted estimator, ``h == 0`` the restricted one,
and the James-Stein pair uses ``1 - (k - 2)/psi`` and its positive part.
:func:`estimate_class` is the one step from estimated break partitions to
the whole class; the CLI and the simulation study both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats as sps
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    KTooSmall,
    MismatchedPartitions,
    SegmentRankDeficient,
    SingularConstraintGram,
)
from .linalg import sym, wald_metric
from .model import Partition, RegressionData, Restriction, build_design

# Constraint satisfaction tolerance for restricted fits:
# ||R d - r||_inf <= CONSTRAINT_TOL * (1 + ||r||_inf).
CONSTRAINT_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CoefEstimate:
    """A stacked coefficient vector together with its provenance.

    ``ssr`` is the residual sum of squares of the fit and ``residuals`` its
    residual vector ``y - Zbar delta``, formed segment by segment for the
    SSR, and ``factors`` the stacked ``[R_p, Q_p'y_p]`` of its partition
    (:func:`_segment_factors`), which the plug-ins read.  All three are None
    for shrinkage estimates, which are formed from two existing fits
    without access to the data.  ``label`` names the shrinkage rule of a
    shrinkage estimate.
    """

    delta: np.ndarray
    partition: Partition
    ssr: float | None
    label: str = ""
    residuals: np.ndarray | None = None
    factors: np.ndarray | None = None


@dataclass(frozen=True)
class PluginMatrices:
    """Plug-in estimates at a fitted partition: the Wald metric ``a_hat`` and
    the sandwich ``Gamma_hat^-1 Omega_hat Gamma_hat^-1`` it is built from."""

    a_hat: np.ndarray
    sandwich: np.ndarray
    omega_method: str


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


def _segment_factors(data: RegressionData, partition: Partition) -> np.ndarray:
    """``[R_p, Q_p'y_p]`` of each segment's rows ``[Z_p, y_p]``, stacked,
    where ``Z_p = Q_p R_p`` is the thin QR, after the one rank verdict of
    the fits and the plug-ins.

    One LAPACK ``dgeqrf`` per segment gives both without forming ``Q_p``,
    zero-padded to ``q`` rows when ``n_p < q``.  ``R_p`` has the singular
    values of ``Z_p``, so one batched SVD of the factors applies ``lstsq``'s
    rule ``sv > eps max(n_p, q) sv_max``; ``SegmentRankDeficient`` lists
    every segment that fails it.
    """
    q = data.n_regressors
    segments = partition.segments(data.n_obs)
    rows = np.column_stack([data.z, data.y])
    fac = np.zeros((len(segments), q, q + 1))
    for p, (s, e) in enumerate(segments):
        fac[p, :min(e - s, q)] = lapack.dgeqrf(rows[s:e])[0][:q]
    fac[:, :, :q] = np.triu(fac[:, :, :q])
    sv = np.linalg.svd(fac[:, :, :q], compute_uv=False)
    tol = _EPS * np.maximum([e - s for s, e in segments], q) * sv[:, 0]
    ranks = np.sum(sv > tol[:, None], axis=1)
    failed = [(p, seg, rank) for p, (seg, rank) in enumerate(zip(segments, ranks)) if rank < q]
    if failed:
        detail = "; ".join(
            f"segment {p + 1} (times {s + 1}..{e}) has rank {rank} < {q}" for p, (s, e), rank in failed
        )
        raise SegmentRankDeficient(detail, segments=[seg for _, seg, _ in failed])
    return fac


def _fit_from_rows(
    data: RegressionData, partition: Partition, delta: np.ndarray, factors: np.ndarray
) -> CoefEstimate:
    """The fit ``delta`` with its factors, and its residuals and SSR formed
    from the data rows."""
    q = data.n_regressors
    resid = np.empty(data.n_obs)
    ssr = 0.0
    for p, (s, e) in enumerate(partition.segments(data.n_obs)):
        resid[s:e] = data.y[s:e] - data.z[s:e] @ delta[p * q:(p + 1) * q]
        ssr += float(resid[s:e] @ resid[s:e])
    return CoefEstimate(delta=delta, partition=partition, ssr=ssr, residuals=resid, factors=factors)


def fit_unrestricted(data: RegressionData, partition: Partition) -> CoefEstimate:
    """Per-segment OLS, stacked into one coefficient vector: back-substitution
    in each segment's ``R_p beta_p = Q_p'y_p`` (:func:`_segment_factors`).

    Raises
    ------
    SegmentRankDeficient
        If any segment fails the rank verdict; ``segments`` lists them all.
    """
    factors = _segment_factors(data, partition)
    delta = np.concatenate([lapack.dtrtrs(f[:, :-1], f[:, -1])[0] for f in factors])
    return _fit_from_rows(data, partition, delta, factors)


def _fit_restricted_on(
    data: RegressionData, partition: Partition, factors: np.ndarray, restriction: Restriction
) -> CoefEstimate:
    """The restricted fit at ``partition`` from its :func:`_segment_factors`:
    minimizes ``sum_p ||Q_p'y_p - R_p delta_p||^2`` (the SSR up to a
    constant) subject to ``R delta = r``, one solve per component of
    :meth:`Restriction.segment_components`.  Writing ``delta_c = d0 + N theta``
    on a component's coefficients leaves ``min ||R_c N theta - (Q_c'y - R_c d0)||``,
    with ``R_c`` its segments' block-diagonal factor, which LAPACK ``dgels``
    solves (the null-space method; Golub & Van Loan, sec. 12.1); a component
    of null width 0 takes ``delta_c = d0``.  Raises ``SingularConstraintGram``
    on an exactly zero pivot of some ``R_c N`` or a constraint gap above
    ``CONSTRAINT_TOL``.
    """
    n_seg, q = factors.shape[:2]
    restriction.check_dims(n_seg * q)
    rfac, qty = factors[:, :, :q], factors[:, :, q]
    delta = np.empty((n_seg, q))
    for segments, null, d0 in restriction.segment_components(q):
        segments, f = list(segments), null.shape[1]
        if f == 0:
            delta[segments] = d0.reshape(-1, q)
            continue
        rc = rfac[segments]
        rn = (rc @ null.reshape(len(segments), q, f)).reshape(-1, f)
        rhs = qty[segments].reshape(-1) - (rc @ d0.reshape(-1, q, 1)).reshape(-1)
        _, theta, info = lapack.dgels(rn, rhs[:, None])
        if info > 0:
            raise SingularConstraintGram(f"R_c N of segments {[p + 1 for p in segments]} is rank deficient")
        delta[segments] = (d0 + null @ theta[:f, 0]).reshape(-1, q)
    delta = delta.reshape(-1)
    rmat, rhs = restriction.matrix, restriction.rhs
    gap = np.max(np.abs(rmat @ delta - rhs))
    if gap > CONSTRAINT_TOL * (1.0 + np.max(np.abs(rhs), initial=0.0)):
        raise SingularConstraintGram(
            f"constraint violated by the constrained solve (gap {gap:.3e}); "
            "the constraint Gram is too ill-conditioned"
        )
    return _fit_from_rows(data, partition, delta, factors)


def fit_restricted(
    data: RegressionData, partition: Partition, restriction: Restriction
) -> CoefEstimate:
    """Least squares subject to ``R delta = r`` on the segments' QR factors
    (:func:`_fit_restricted_on`); the SSR comes from explicit residuals,
    which it keeps.

    Raises
    ------
    SegmentRankDeficient
        If any segment fails the rank verdict, whatever ``R`` identifies;
        ``segments`` lists them all.
    DimensionMismatch, SingularConstraintGram
    """
    return _fit_restricted_on(data, partition, _segment_factors(data, partition), restriction)


def newey_west_bandwidth(n_obs: int) -> int:
    """Rule-of-thumb Bartlett bandwidth, floor(4 (T/100)^(2/9))."""
    return int(math.floor(4.0 * (n_obs / 100.0) ** (2.0 / 9.0)))


def estimate_omega(
    rows: np.ndarray,
    residuals: np.ndarray,
    method: str = "hc0",
    bandwidth: int | None = None,
) -> np.ndarray:
    """Score covariance estimate from ``T`` design rows ``x_t`` and residuals.

    ``method="hc0"`` returns ``T^-1 sum_t u_t^2 x_t x_t'``.
    ``method="hac"`` adds Bartlett-weighted autocovariances of the score
    sequence up to ``bandwidth`` lags (rule-of-thumb bandwidth when None).
    The output is symmetrized and any negative eigenvalues are clipped to
    zero without a warning: HC0 and HAC are PSD by construction, so one is
    round-off of a zero eigenvalue, as a segment of exactly ``q`` rows gives.
    """
    residuals = np.asarray(residuals, dtype=float).reshape(-1)
    t_total = rows.shape[0]
    if residuals.shape[0] != t_total:
        raise DimensionMismatch(f"{residuals.shape[0]} residuals for {t_total} observations")
    scores = rows * residuals[:, None]
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
        omega = sym((vecs * np.clip(vals, 0.0, None)) @ vecs.T)
    return omega


def build_plugin_matrices(
    data: RegressionData,
    ue: CoefEstimate,
    restriction: Restriction,
    method: str = "hc0",
    bandwidth: int | None = None,
) -> PluginMatrices:
    """``A_hat`` and its sandwich at the partition of the unrestricted fit
    ``ue``, from its residuals and its segments' factors ``R_p``.

    The rows of ``Zbar`` (:func:`~steinbreak.model.build_design`) map to Q
    coordinates ``Zbar R^-1`` with ``R = blockdiag(R_p)``, and their
    :func:`estimate_omega` is ``Omega_Q``.  ``Gamma_hat = R'R / T`` and
    ``Omega_hat = R' Omega_Q R``, so the sandwich is
    ``S = T^2 R^-1 Omega_Q R^-T``, by triangular solves, and
    ``A_hat = wald_metric(S, R)``; ``Gamma_hat`` is never formed.  No QR is
    taken and no rank verdict made here: the fit made both.  With HAC, the
    Bartlett lag count is ``bandwidth``, or :func:`newey_west_bandwidth` of
    ``T`` when None.
    """
    t_total, q = data.n_obs, data.n_regressors
    zbar = build_design(data, ue.partition)
    n = zbar.shape[1]
    restriction.check_dims(n)
    rbar = np.zeros((n, n))
    for p, rp in enumerate(ue.factors[:, :, :q]):
        rbar[p * q:(p + 1) * q, p * q:(p + 1) * q] = rp
    lags = newey_west_bandwidth(t_total) if bandwidth is None else int(bandwidth)
    qrows = lapack.dtrtrs(rbar, zbar.T, trans=1)[0].T
    half = lapack.dtrtrs(rbar, estimate_omega(qrows, ue.residuals, method=method, bandwidth=lags))[0]
    s_hat = sym(t_total**2 * lapack.dtrtrs(rbar, half.T)[0])
    label = "hc0" if method == "hc0" else f"hac({lags})"
    return PluginMatrices(a_hat=wald_metric(s_hat, restriction.matrix), sandwich=s_hat, omega_method=label)


def _check_same_partition(ue: CoefEstimate, re: CoefEstimate) -> None:
    if ue.partition != re.partition:
        raise MismatchedPartitions(
            f"unrestricted fit at {ue.partition.breaks}, restricted at {re.partition.breaks}"
        )


def wald_distance(
    ue: CoefEstimate, re: CoefEstimate, plugin: PluginMatrices, n_obs: int
) -> float:
    """psi = T (d_re - d_ue)' A_hat (d_re - d_ue); zero iff the fits coincide."""
    _check_same_partition(ue, re)
    diff = re.delta - ue.delta
    return max(float(n_obs * diff @ plugin.a_hat @ diff), 0.0)


def shrinkage_estimate(
    ue: CoefEstimate, re: CoefEstimate, psi: float, h: ShrinkageFunction
) -> CoefEstimate:
    """Combine a restricted and an unrestricted fit through the rule ``h``
    at their Wald distance ``psi`` (:func:`wald_distance`).

    Returns ``d_re + h(psi) (d_ue - d_re)``.  When ``psi == 0`` the two fits
    coincide and the restricted fit is returned without evaluating ``h``
    (the limit convention for rules singular at zero).

    Raises
    ------
    MismatchedPartitions
        If the two fits were computed on different partitions.
    """
    _check_same_partition(ue, re)
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
    partitions.  Each partition is factored once: the RE fit and the
    plug-ins there solve on the factors of the UE fit there, whose residuals
    the plug-ins take, and every member shares the one ``psi``.
    ``shrinkage`` names members of :data:`SHRINKAGE_RULES`; only those are
    built, so an empty tuple works for any ``k``.

    Returns a dict with ``estimates`` (``"ue"``, ``"re"`` and each requested
    member, as :class:`CoefEstimate`), ``plugin`` and ``psi``.
    """
    ue = fit_unrestricted(data, ue_partition)
    ue_s = ue if shrink_partition == ue_partition else fit_unrestricted(data, shrink_partition)
    re_s = _fit_restricted_on(data, shrink_partition, ue_s.factors, restriction)
    re = re_s if re_partition == shrink_partition else fit_restricted(data, re_partition, restriction)
    plugin = build_plugin_matrices(data, ue_s, restriction, method=omega, bandwidth=bandwidth)
    psi = wald_distance(ue_s, re_s, plugin, data.n_obs)
    estimates = {"ue": ue, "re": re}
    for name in shrinkage:
        estimates[name] = shrinkage_estimate(ue_s, re_s, psi, SHRINKAGE_RULES[name](restriction.k))
    return {"estimates": estimates, "plugin": plugin, "psi": psi}
