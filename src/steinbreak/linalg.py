"""Symmetric-matrix helpers used by the estimator and risk modules.

All routines assume (and lightly enforce) symmetric input.  Solves with
positive definite matrices go through Cholesky with a condition-number
warning rather than a hard failure, since the statistical formulas stay
meaningful for ill-conditioned but invertible plug-ins; no inverse is
formed.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import linalg as sla

from .errors import SingularFactorization

# Relative cutoff below which an eigenvalue / singular value counts as zero.
RANK_RTOL = 1e-10
# Eigenvalue clipping threshold for matrix square roots and rank factors.
PINV_RTOL = 1e-12
# Condition number above which pd_factor warns.
COND_WARN = 1e12


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize a square matrix: (A + A') / 2."""
    return 0.5 * (a + a.T)


def pd_factor(a: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, bool]:
    """Cholesky factor of symmetric positive definite ``a``, as
    ``scipy.linalg.cho_factor`` returns it for ``cho_solve``.

    Warns when the 1-norm condition number ``||a||_1 ||a^-1||_1`` exceeds
    ``COND_WARN``.  That number is LAPACK ``dpocon``'s estimate from the
    factor; the estimate of ``||a^-1||_1`` is a lower bound that is almost
    always within a factor of a few.  The warning names the caller of the
    function that factors.  Raises ``SingularFactorization`` when ``a`` is
    not numerically PD.
    """
    a = sym(np.asarray(a, dtype=float))
    try:
        c, low = sla.cho_factor(a, check_finite=False)
    except sla.LinAlgError as exc:
        raise SingularFactorization(f"{name} is not positive definite") from exc
    rcond, _ = sla.lapack.dpocon(c, np.abs(a).sum(axis=0).max(), uplo="L" if low else "U")
    if rcond * COND_WARN < 1.0:
        warnings.warn(
            f"{name} has condition number above {COND_WARN:.0e}; "
            "results may be inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )
    return c, low


def pd_solve(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite ``a`` by its
    :func:`pd_factor`, which warns on an ill-conditioned ``a`` and raises
    ``SingularFactorization`` on one that is not PD."""
    return sla.cho_solve(pd_factor(a, name), np.asarray(b, dtype=float), check_finite=False)


def sandwich(factor: tuple[np.ndarray, bool], omega: np.ndarray) -> np.ndarray:
    """``Gamma^-1 Omega Gamma^-1``, symmetrized, from the :func:`pd_factor`
    of ``Gamma`` by two solves; ``Gamma^-1`` is never formed."""
    half = sla.cho_solve(factor, omega, check_finite=False)
    return sym(sla.cho_solve(factor, half.T, check_finite=False))


def wald_metric(s: np.ndarray, rmat: np.ndarray) -> np.ndarray:
    """The Wald metric ``R'(R S R')^-1 R`` of a covariance ``S``, symmetrized;
    ``R S R'`` goes through :func:`pd_solve`."""
    return sym(rmat.T @ pd_solve(sym(rmat @ s @ rmat.T), rmat, name="R S R'"))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix.

    Eigenvalues below ``PINV_RTOL`` times the largest (including any
    negative round-off) are clipped to zero.
    """
    vals, vecs = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    top = max(vals.max(initial=0.0), 0.0)
    vals = np.where(vals > PINV_RTOL * top, vals, 0.0)
    return sym((vecs * np.sqrt(vals)) @ vecs.T)


def psd_rank_factor(a: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T == a for PSD ``a``; F has one column per
    eigenvalue above the relative cutoff.

    Raises ``SingularFactorization`` when ``a`` has a significantly
    negative eigenvalue (not a covariance matrix).
    """
    a = sym(np.asarray(a, dtype=float))
    vals, vecs = np.linalg.eigh(a)
    top = max(vals.max(initial=0.0), 0.0)
    if vals.min(initial=0.0) < -1e-8 * max(top, 1.0):
        raise SingularFactorization("matrix has negative eigenvalues beyond round-off")
    keep = vals > PINV_RTOL * top
    return vecs[:, keep] * np.sqrt(vals[keep])


def symmetric_rank(a: np.ndarray) -> int:
    """Numerical rank of a symmetric matrix at the ``RANK_RTOL`` threshold."""
    vals = np.abs(np.linalg.eigvalsh(sym(np.asarray(a, dtype=float))))
    top = vals.max(initial=0.0)
    if top == 0.0:
        return 0
    return int(np.sum(vals > RANK_RTOL * top))


def rel_error(x: np.ndarray, y: np.ndarray) -> float:
    """Largest entry of ``|x - y|`` relative to the largest entry of ``|y|``."""
    scale = max(float(np.max(np.abs(y))), 1e-300)
    return float(np.max(np.abs(x - y))) / scale


def hypothesis_errors(a: np.ndarray, s: np.ndarray, mu: np.ndarray) -> dict[str, float]:
    """Relative residuals of ``A S A = A``, ``S A S = S`` and ``S A mu = mu``.

    These are the conditions under which the quadratic-form identities,
    and with them the risk formulas, hold for a metric ``A`` and a
    covariance ``S``; the last one reads 0 for ``mu = 0``.
    """
    return {
        "a_s_a": rel_error(a @ s @ a, a),
        "s_a_s": rel_error(s @ a @ s, s),
        "s_a_mu": rel_error(s @ a @ mu, mu) if np.any(mu) else 0.0,
    }
