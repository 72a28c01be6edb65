"""Monte Carlo verification of the quadratic-form Gaussian identities.

Every risk formula in :mod:`steinbreak.risk` rests on three expectation
identities for ``X ~ N(mu, Sigma)`` with a possibly singular ``Sigma`` of
rank k, a PSD matrix ``A`` of the same rank satisfying ``A Sigma A = A``,
``Sigma A Sigma = Sigma`` and ``Sigma A mu = mu``, and a weight
``W = A^(1/2) W* A^(1/2)``:

- vector:     E[h(X'AX) W X]   = E[h(chi2_{k+2}(mu'A mu))] W mu
- quadratic:  E[h(X'AX) X'WX]  = E[h(chi2_{k+2})] tr(W Sigma)
                                 + E[h(chi2_{k+4})] mu'W mu
- cross:      E[h(X'AX) Y'WX], for (X, Y) jointly Gaussian with
              mu_Y = -mu_X, expands into four terms involving
              Sigma12 = cov(X, Y) (see mc_cross_identity).

This module checks each identity by simulation against the closed form, so
it is the package's independent ground truth: the moment kernels feed the
closed forms, and the sampler exercises the raw definition.

Sampling is chunked with per-chunk derived seeds and a fixed pairwise
reduction order, so results are bit-identical for a given seed no matter
how chunks would be scheduled.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .errors import DimensionMismatch
from .estimators import ShrinkageFunction
from .linalg import hypothesis_errors, psd_rank_factor, sym, symmetric_rank
from .model import _readonly
from .risk import AsymptoticScaffold, make_weight, random_scaffold, rule_expectation

_CHUNK = 1 << 16
# Fewest draws an identity check accepts.
MIN_SAMPLES = 10_000


@dataclass(frozen=True)
class GaussianSetup:
    """Inputs to the identities: mean, covariance, metric and weight.

    ``sigma12``/``sigma22`` form the optional joint block for the cross
    identity, with the second component's mean fixed at ``-mu_x``.
    """

    mu_x: np.ndarray
    sigma: np.ndarray
    a: np.ndarray
    w: np.ndarray
    w_star: np.ndarray
    sigma12: np.ndarray | None = None
    sigma22: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.mu_x.shape[0]

    @property
    def k(self) -> int:
        return symmetric_rank(self.a)

    @property
    def has_joint(self) -> bool:
        return self.sigma12 is not None and self.sigma22 is not None

    def hypothesis_errors(self) -> dict[str, float]:
        """Relative residuals of A Sigma A = A, Sigma A Sigma = Sigma,
        Sigma A mu = mu (the conditions the closed forms require)."""
        return hypothesis_errors(self.a, self.sigma, self.mu_x)


def setup_from_scaffold(
    scaffold: AsymptoticScaffold, w_star: np.ndarray | None = None
) -> GaussianSetup:
    """Cast a joint-limit scaffold as a Gaussian setup.

    The first component is the shrinking difference (mean ``-mu1``,
    variance L11) and the joint block carries its covariance with the
    restricted limit (L12, S22), which is exactly the configuration the
    risk derivation plugs into the identities.
    """
    weight = make_weight(scaffold.a, w_star)
    return GaussianSetup(
        mu_x=_readonly(-scaffold.mu1),
        sigma=scaffold.lambda11,
        a=scaffold.a,
        w=weight.w,
        w_star=weight.w_star,
        sigma12=scaffold.lambda12,
        sigma22=scaffold.sigma22,
    )


def random_gaussian_setup(dim: int, k: int, seed: int, joint: str = "scaffold") -> GaussianSetup:
    """A random setup satisfying the identity hypotheses, with joint block.

    The weight seed matrix ``W*`` is a random PSD matrix rather than the
    identity; with ``W* = I`` the quadratic identity degenerates for
    reciprocal rules (``X'WX / X'AX`` is identically one), which would make
    the check vacuous.

    ``joint`` picks the cross-covariance: ``"scaffold"`` uses the
    model-derived block, for which compatible weights annihilate the cross
    terms (``Sigma12 W = 0``); ``"general"`` uses ``Sigma12 = Sigma K`` with
    random ``K``, exercising the four-term cross expansion with every term
    nonzero.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57A8)))
    b = rng.normal(size=(dim, dim))
    w_star = sym(b @ b.T / dim + 0.5 * np.eye(dim))
    setup = setup_from_scaffold(random_scaffold(dim, k, seed), w_star)
    if joint == "scaffold":
        return setup
    if joint != "general":
        raise ValueError(f"joint must be 'scaffold' or 'general', got {joint!r}")
    kmat = 0.4 * rng.normal(size=(dim, dim))
    sigma12 = setup.sigma @ kmat
    sigma22 = sym(kmat.T @ setup.sigma @ kmat) + np.eye(dim)
    return dataclasses.replace(setup, sigma12=_readonly(sigma12), sigma22=_readonly(sigma22))


def negative_control_setup(dim: int, k: int, seed: int) -> GaussianSetup:
    """A deliberately invalid setup: ``A`` is scaled so that the idempotency
    hypothesis ``A Sigma A = A`` fails (and with it ``Sigma A mu = mu``).
    The identities must then fail detectably.

    A mean-only violation (``mu`` pushed outside the range of ``Sigma`` with
    ``A`` intact) would not do here: with a compatible weight,
    ``A^(1/2) (I - Sigma A) = 0`` makes the identities insensitive to that
    component, so scaling ``A`` is the honest control.
    """
    base = random_gaussian_setup(dim, k, seed)
    return dataclasses.replace(base, a=_readonly(1.5 * base.a))


@dataclass(frozen=True)
class IdentityCheck:
    """Monte Carlo estimate vs closed form for one identity."""

    mc_estimate: np.ndarray
    closed_form: np.ndarray
    max_abs_err: float
    mc_stderr: np.ndarray
    n_samples: int
    seed: int

    def sigma_excess(self, atol: float = 1e-7) -> float:
        """Largest componentwise |error| / stderr.

        Components whose absolute error sits below ``atol * (1 + |closed|)``
        count as exact agreement: identities with an identically-zero
        integrand leave only factorization round-off on both sides, and a
        ratio of noise against noise would be meaningless.  The floor is
        orders of magnitude below any Monte Carlo error at feasible sample
        sizes, so it cannot mask a genuine discrepancy.
        """
        err = np.abs(np.atleast_1d(self.mc_estimate - self.closed_form))
        closed = np.abs(np.atleast_1d(self.closed_form))
        se = np.atleast_1d(self.mc_stderr)
        out = 0.0
        for e, c, s in zip(err, closed, se):
            if e <= atol * (1.0 + c):
                continue
            out = max(out, float(e / s) if s > 0 else np.inf)
        return out

    def passed(self, n_sigma: float = 3.0) -> bool:
        return self.sigma_excess() <= n_sigma


def _tree_sum(parts: list[np.ndarray]) -> np.ndarray:
    """Pairwise reduction in a fixed order (deterministic rounding)."""
    items = list(parts)
    while len(items) > 1:
        nxt = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _apply_h(h, values: np.ndarray) -> np.ndarray:
    out = np.asarray(h(values), dtype=float)
    if out.shape != values.shape:
        out = np.vectorize(lambda x: float(h(x)))(values)
    return out


def _chunked_mean(row_fn, n_samples: int, seed: int):
    """Mean and standard error of ``row_fn(chunk_index, size)`` outputs.

    ``row_fn`` returns an (size, d) array; chunk boundaries are fixed by
    ``_CHUNK`` so the partial-sum tree is independent of scheduling.
    """
    sums, sumsqs = [], []
    done = 0
    idx = 0
    while done < n_samples:
        size = min(_CHUNK, n_samples - done)
        rows = row_fn(idx, size)
        sums.append(rows.sum(axis=0))
        sumsqs.append((rows * rows).sum(axis=0))
        done += size
        idx += 1
    total = _tree_sum(sums)
    total_sq = _tree_sum(sumsqs)
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean * mean, 0.0)
    stderr = np.sqrt(var / max(n_samples - 1, 1))
    return mean, stderr


def _chunk_rng(seed: int, idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, idx)))


def _quadratic_form(u: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``u_n' M v_n`` for draws stacked in the rows of ``u`` and ``v``."""
    return ((u @ m) * v).sum(axis=1)


def _check_identity(setup, h, n_samples, seed, statistic, closed_form, joint=False):
    """Monte Carlo mean of ``statistic`` against its closed form.

    Draws ``X ~ N(mu, Sigma)`` from a rank factor of ``Sigma`` or, when
    ``joint``, ``(X, Y)`` from the joint block with ``mu_Y = -mu``.
    ``statistic(hv, x, y)`` maps ``h(X'AX)`` and a chunk of draws to an
    ``(size, d)`` array; ``closed_form(e)`` returns the ``d`` values its
    mean must match, given ``e(j) = E[h(chi2_{k+j}(mu'A mu))]`` from
    :func:`rule_expectation`.  A plain callable ``h`` is a rule without
    pieces, so its ``e(j)`` comes from quadrature.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    rule = h if isinstance(h, ShrinkageFunction) else ShrinkageFunction(evaluate=h, name="h")
    mu, a, p = setup.mu_x, setup.a, setup.dim
    if joint:
        if not setup.has_joint:
            raise DimensionMismatch("setup has no joint block")
        cov = sym(np.block([[setup.sigma, setup.sigma12], [setup.sigma12.T, setup.sigma22]]))
        center = np.concatenate([mu, -mu])
    else:
        cov, center = setup.sigma, mu
    factor = psd_rank_factor(cov)
    rank = factor.shape[1]

    def rows(idx, size):
        draws = center + _chunk_rng(seed, idx).standard_normal((size, rank)) @ factor.T
        x = draws[:, :p]
        hv = _apply_h(rule.evaluate, _quadratic_form(x, a, x))
        return statistic(hv, x, draws[:, p:])

    mean, stderr = _chunked_mean(rows, n_samples, seed)
    k, ncp = setup.k, float(mu @ a @ mu)
    closed = closed_form(functools.cache(lambda j: rule_expectation(rule, k + j, ncp)))
    return IdentityCheck(
        mc_estimate=mean,
        closed_form=closed,
        max_abs_err=float(np.max(np.abs(mean - closed))),
        mc_stderr=stderr,
        n_samples=n_samples,
        seed=seed,
    )


def mc_vector_identity(
    setup: GaussianSetup, h, n_samples: int, seed: int
) -> IdentityCheck:
    """Check E[h(X'AX) W X] = E[h(chi2_{k+2}(mu'A mu))] W mu.

    ``h`` is a :class:`ShrinkageFunction` or a plain callable, and must
    accept numpy arrays.  Draws use a rank factor of Sigma.
    """
    w, mu = setup.w, setup.mu_x
    return _check_identity(
        setup, h, n_samples, seed,
        lambda hv, x, _: hv[:, None] * (x @ w),
        lambda e: e(2) * (w @ mu),
    )


def mc_quadratic_identity(
    setup: GaussianSetup, h, n_samples: int, seed: int
) -> IdentityCheck:
    """Check E[h(X'AX) X'WX] = E[h(chi2_{k+2})] tr(W Sigma) + E[h(chi2_{k+4})] mu'W mu."""
    w, mu = setup.w, setup.mu_x
    d1 = float(np.trace(w @ setup.sigma))
    d2 = float(mu @ w @ mu)
    return _check_identity(
        setup, h, n_samples, seed,
        lambda hv, x, _: (hv * _quadratic_form(x, w, x))[:, None],
        lambda e: np.array([e(2) * d1 + e(4) * d2]),
    )


def mc_cross_identity(
    setup: GaussianSetup, h, n_samples: int, seed: int
) -> IdentityCheck:
    """Check the cross identity on the joint block, against the four-term form

        - E[h(chi2_{k+2})] mu'W mu  - E[h(chi2_{k+2})] mu'A S12 W mu
        + E[h(chi2_{k+2})] tr(S12 W S11 A) + E[h(chi2_{k+4})] mu'A S12 W mu

    with mu = mu_X and S11 = Var(X), S12 = Cov(X, Y), mu_Y = -mu_X.
    """
    mu, a, w, s12 = setup.mu_x, setup.a, setup.w, setup.sigma12
    return _check_identity(
        setup, h, n_samples, seed,
        lambda hv, x, y: (hv * _quadratic_form(y, w, x))[:, None],
        lambda e: np.array(
            [
                -e(2) * float(mu @ w @ mu)
                - e(2) * float(mu @ a @ s12 @ w @ mu)
                + e(2) * float(np.trace(s12 @ w @ setup.sigma @ a))
                + e(4) * float(mu @ a @ s12 @ w @ mu)
            ]
        ),
        joint=True,
    )


# ---------------------------------------------------------------------------
# Verification suite (used by the tests and the `verify` subcommand)


@dataclass(frozen=True)
class VerifyEntry:
    """One suite row: an identity on a setup with a specific rule.

    ``bound`` is the suite's family-wise sigma bound, shared by every entry.
    """

    setup_index: int
    identity: str
    h_name: str
    check: IdentityCheck
    expect_fail: bool
    bound: float

    @property
    def ok(self) -> bool:
        """True when the entry behaves as expected (within ``bound``, or
        beyond it for the negative control)."""
        passed = self.check.passed(self.bound)
        return (not passed) if self.expect_fail else passed


_H_ONE = ShrinkageFunction.from_pieces("h=1", ((0.0, math.inf, 1.0, 0.0),))
_H_INV = ShrinkageFunction.from_pieces("h=1/x", ((0.0, math.inf, 0.0, 1.0),))


def _h_below(cut: float) -> ShrinkageFunction:
    """The indicator rule ``1{x < cut}``."""
    return ShrinkageFunction.from_pieces(f"h=ind(x<{cut:g})", ((0.0, cut, 1.0, 0.0),))


_IDENTITIES = {
    "vector": mc_vector_identity,
    "quadratic": mc_quadratic_identity,
    "cross": mc_cross_identity,
}

# Chance that some component of a correct suite lands beyond the bound.
_FAMILY_LEVEL = 1e-6


def _suite_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence((seed, *parts)).generate_state(1)[0])


def run_verification_suite(
    n_samples: int = 1_000_000,
    seed: int = 2,
    n_setups: int = 5,
    include_negative_control: bool = True,
) -> list[VerifyEntry]:
    """Run all three identities on randomized valid setups, for the rules
    h = 1, h = 1/x and an indicator truncation, plus one negative control
    that must fail.  Each rule has pieces, so every closed form comes from
    the moment kernels.

    Every entry is judged by one two-sided Bonferroni bound over the ``n``
    components of the regular checks, ``norm.isf(1e-6 / (2 n))`` sigma
    (5.80 for five setups), so a correct suite fails with probability at
    most 1e-6 at any sample size.
    """
    dims = [(6, 3), (8, 4), (10, 5), (7, 4), (9, 3)]
    rows: list[tuple[int, str, str, IdentityCheck, bool]] = []
    for i in range(n_setups):
        p, k = dims[i % len(dims)]
        joint = "scaffold" if i % 2 == 0 else "general"
        setup = random_gaussian_setup(p, k, _suite_seed(seed, 0, i), joint=joint)
        for j, rule in enumerate((_H_ONE, _H_INV, _h_below(float(k + 1)))):
            for l, (ident, fn) in enumerate(_IDENTITIES.items()):
                check = fn(setup, rule, n_samples, _suite_seed(seed, 1, i, j, l))
                rows.append((i, ident, rule.name, check, False))
    n_components = sum(np.size(row[3].mc_estimate) for row in rows)
    bound = float(sps.norm.isf(_FAMILY_LEVEL / (2 * max(n_components, 1))))
    if include_negative_control:
        bad = negative_control_setup(8, 4, _suite_seed(seed, 2))
        check = mc_vector_identity(bad, _H_INV, n_samples, _suite_seed(seed, 3))
        rows.append((-1, "vector", _H_INV.name, check, True))
    return [VerifyEntry(*row, bound=bound) for row in rows]
