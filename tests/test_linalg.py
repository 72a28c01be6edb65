import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from steinbreak.linalg import COND_WARN, pd_solve


def test_pd_solve_warns_on_ill_conditioned_matrix():
    # the squared ratio of the Cholesky diagonal is 5.0e11 here, below the
    # threshold, while the 1-norm condition number is 2.0e12
    a = np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]])
    chol = np.linalg.cholesky(a)
    assert (chol[0, 0] / chol[1, 1]) ** 2 < COND_WARN < np.linalg.cond(a, 1)
    with pytest.warns(RuntimeWarning, match="condition number"):
        pd_solve(a, np.ones(2), name="near-singular")


def test_pd_solve_quiet_on_well_conditioned_matrix():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(6, 6))
    a = b @ b.T + 6.0 * np.eye(6)
    rhs = rng.normal(size=(6, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = pd_solve(a, rhs)
    assert_allclose(a @ x, rhs, rtol=1e-12, atol=1e-12)
