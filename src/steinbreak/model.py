"""Core domain types for segmented linear regression.

A dataset is a response vector ``y`` and a ``T x q`` matrix of per-time
regressor rows.  A partition is an ordered tuple of break times splitting
``1..T`` into ``m + 1`` segments; every regression coefficient switches at
each break (pure structural change), so the stacked design matrix is block
diagonal with one ``q``-wide block per segment.

Time indices are 1-based in the public interface.  A break at time ``b``
means segment ``p`` ends at ``b`` and segment ``p + 1`` starts at ``b + 1``;
with the boundary conventions ``T_0 = 0`` and ``T_{m+1} = T``, segment ``p``
covers times ``T_{p-1} + 1 .. T_p``.  All types are immutable after
construction and all operations are pure, so everything here is safe to
share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidPartition, RestrictionRankDeficient
from .linalg import RANK_RTOL


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RegressionData:
    """Observed response and regressor rows.

    Parameters
    ----------
    y : np.ndarray, shape (T,)
        Response vector.
    z : np.ndarray, shape (T, q)
        Regressor row for each time; include a constant column explicitly
        if the model has an intercept.
    """

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        y = _readonly(np.asarray(self.y, dtype=float).reshape(-1))
        z = np.asarray(self.z, dtype=float)
        if z.ndim == 1:
            z = z.reshape(-1, 1)
        z = _readonly(z)
        if y.shape[0] != z.shape[0]:
            raise DimensionMismatch(
                f"y has {y.shape[0]} rows but z has {z.shape[0]}"
            )
        if y.shape[0] < 2:
            raise DimensionMismatch("need at least two observations")
        if z.shape[1] < 1:
            raise DimensionMismatch("need at least one regressor column")
        if not (np.isfinite(y).all() and np.isfinite(z).all()):
            raise DimensionMismatch("non-finite values in y or z")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def n_regressors(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class Partition:
    """Ordered break times ``(T_1, ..., T_m)`` with ``1 <= T_1 < ... < T_m < T``.

    An empty tuple means no breaks (a single segment).  Validity against a
    specific sample size is checked by :meth:`validate_for`, since the
    partition itself does not carry ``T``.
    """

    breaks: tuple[int, ...]

    def __post_init__(self):
        breaks = tuple(int(b) for b in self.breaks)
        if any(b < 1 for b in breaks):
            raise InvalidPartition(f"break times must be >= 1, got {breaks}")
        if any(b >= c for b, c in zip(breaks, breaks[1:])):
            raise InvalidPartition(f"break times must be strictly increasing: {breaks}")
        object.__setattr__(self, "breaks", breaks)

    @property
    def m(self) -> int:
        return len(self.breaks)

    @property
    def n_segments(self) -> int:
        return len(self.breaks) + 1

    def validate_for(self, n_obs: int) -> None:
        """Raise ``InvalidPartition`` unless every break lies in ``1..T-1``."""
        if self.breaks and self.breaks[-1] >= n_obs:
            raise InvalidPartition(
                f"last break {self.breaks[-1]} must be < T = {n_obs}"
            )

    def bounds(self, n_obs: int) -> tuple[int, ...]:
        """Segment boundaries ``(0, T_1, ..., T_m, T)``."""
        self.validate_for(n_obs)
        return (0, *self.breaks, n_obs)

    def segments(self, n_obs: int) -> list[tuple[int, int]]:
        """0-based half-open ``[start, end)`` index ranges, one per segment."""
        b = self.bounds(n_obs)
        return [(b[p], b[p + 1]) for p in range(self.n_segments)]


def _null_form(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal null basis of the full-row-rank ``matrix`` and the
    minimum-norm solution of ``matrix d = rhs``, from one SVD."""
    u, s, vt = np.linalg.svd(matrix)
    k = matrix.shape[0]
    d0 = vt[:k].T @ ((u.T @ rhs) / s)
    return _readonly(vt[k:].T), _readonly(d0)


class RestrictionComponent(NamedTuple):
    """One independent group of a restriction: its segments (0-based,
    ascending) and the null form ``(null, d0)`` of its rows on their
    stacked coefficients."""

    segments: tuple[int, ...]
    null: np.ndarray
    d0: np.ndarray


@dataclass(frozen=True)
class Restriction:
    """Linear hypothesis ``matrix @ delta = rhs`` on the stacked coefficients.

    ``matrix`` must have full row rank; rank is verified numerically at
    construction (smallest singular value above ``RANK_RTOL`` times the
    largest).  Both arrays are stored ``+ 0.0``, so that a ``-0.0`` entry
    gives the same restriction, component null bases included, as ``+0.0``.
    """

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise DimensionMismatch("restriction matrix must be 2-D")
        if mat.shape[0] == 0:
            raise DimensionMismatch("restriction matrix has no rows")
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if rhs.shape[0] != mat.shape[0]:
            raise DimensionMismatch(
                f"restriction has {mat.shape[0]} rows but rhs has {rhs.shape[0]}"
            )
        if mat.shape[0] > mat.shape[1]:
            raise RestrictionRankDeficient(
                f"more restrictions ({mat.shape[0]}) than coefficients ({mat.shape[1]})"
            )
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise RestrictionRankDeficient("restriction matrix is row rank deficient")
        object.__setattr__(self, "matrix", _readonly(mat + 0.0))
        object.__setattr__(self, "rhs", _readonly(rhs + 0.0))
        object.__setattr__(self, "_components", {})

    @property
    def k(self) -> int:
        """Number of (independent) restriction rows."""
        return self.matrix.shape[0]

    @property
    def n_coefs(self) -> int:
        return self.matrix.shape[1]

    def segment_components(self, q: int) -> tuple[RestrictionComponent, ...]:
        """The restriction split into independent groups of segments.

        With ``q`` coefficients per segment, two segments are coupled when
        one row of ``matrix`` touches both; a union-find over the segments
        each row touches gives the groups, ordered by their first segment.
        Each group carries the null form of its own rows on its own
        coefficients; a segment no row touches is a group of its own with
        ``N = I`` and ``d0 = 0``.  The restricted fit and the restricted
        search score both solve one independent problem per group.  Computed
        once per ``q``.
        """
        if q in self._components:
            return self._components[q]
        if q < 1 or self.n_coefs % q:
            raise DimensionMismatch(f"{self.n_coefs} coefficients do not split into segments of {q}")
        n_seg = self.n_coefs // q
        touched = [np.flatnonzero(row.reshape(n_seg, q).any(axis=1)) for row in self.matrix]
        parent = list(range(n_seg))

        def root(p: int) -> int:
            while parent[p] != p:
                p = parent[p]
            return p

        for segs in touched:
            for p in segs[1:]:
                parent[root(p)] = root(segs[0])
        roots = [root(p) for p in range(n_seg)]
        components = []
        for r in dict.fromkeys(roots):
            segs = tuple(p for p in range(n_seg) if roots[p] == r)
            cols = np.concatenate([np.arange(p * q, (p + 1) * q) for p in segs])
            rows = [i for i, t in enumerate(touched) if roots[t[0]] == r]
            if rows:
                null, d0 = _null_form(self.matrix[np.ix_(rows, cols)], self.rhs[rows])
            else:
                null, d0 = _readonly(np.eye(len(cols))), _readonly(np.zeros(len(cols)))
            components.append(RestrictionComponent(segs, null, d0))
        self._components[q] = tuple(components)
        return self._components[q]

    def check_dims(self, n_coefs: int) -> None:
        if self.n_coefs != n_coefs:
            raise DimensionMismatch(
                f"restriction has {self.n_coefs} columns, model has {n_coefs} coefficients"
            )


def block_restriction(m: int, q: int, blocks) -> Restriction:
    """The restriction ``R delta = 0`` that ties or zeroes segment blocks.

    ``blocks`` holds ``("equal", i, j)``, one row ``delta_i[c] - delta_j[c]``
    per coefficient ``c``, and ``("zero", p, coefs)``, one row ``delta_p[c]``
    per ``c`` in ``coefs`` (every coefficient when left out).  Segments are
    numbered ``1..m+1`` and coefficients ``1..q``; rows come in the order
    given.  Raises ``DimensionMismatch`` on an index out of range or an
    unknown kind, and ``RestrictionRankDeficient`` on dependent rows.
    """
    n = (m + 1) * q

    def unit(p: int, c: int) -> np.ndarray:
        if not (1 <= p <= m + 1 and 1 <= c <= q):
            raise DimensionMismatch(f"no coefficient {c} of segment {p} with m = {m}, q = {q}")
        row = np.zeros(n)
        row[(p - 1) * q + c - 1] = 1.0
        return row

    rows = []
    for kind, p, *rest in blocks:
        if kind == "equal":
            (j,) = rest
            rows += [unit(p, c) - unit(j, c) for c in range(1, q + 1)]
        elif kind == "zero":
            rows += [unit(p, c) for c in (rest[0] if rest else range(1, q + 1))]
        else:
            raise DimensionMismatch(f"unknown restriction block {kind!r}")
    return Restriction(matrix=np.array(rows).reshape(-1, n), rhs=np.zeros(len(rows)))


def build_design(data: RegressionData, partition: Partition) -> np.ndarray:
    """The read-only block-diagonal stacked design ``Zbar`` of ``data`` under
    ``partition``.

    Row ``t`` carries the regressor row of time ``t`` in the column block of
    the segment containing ``t`` and zeros elsewhere, so ``Zbar`` is
    ``T x (m + 1) q`` and ``Zbar'Zbar`` is block diagonal with one segment
    Gram matrix per block.

    Raises
    ------
    InvalidPartition
        If a break time is out of range for ``data``.
    """
    t_total, q = data.n_obs, data.n_regressors
    partition.validate_for(t_total)
    zbar = np.zeros((t_total, partition.n_segments * q))
    for p, (s, e) in enumerate(partition.segments(t_total)):
        zbar[s:e, p * q:(p + 1) * q] = data.z[s:e]
    return _readonly(zbar)


# ---------------------------------------------------------------------------
# CSV ingestion.  Schema: header "t,y,z1,...,zq"; rows sorted by t ascending
# with t = 1..T contiguous; decimal floats; UTF-8.


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read a series file, returning ``(t, y, z)``.

    ``z`` is None when the file carries only ``t`` and ``y`` columns (callers
    that synthesize regressors from ``t``, such as trend-basis expansion,
    accept that form; :func:`load_regression_csv` does not).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DimensionMismatch(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header[:2] != ["t", "y"]:
            raise DimensionMismatch(f"{path}: header must start with 't,y'")
        zcols = header[2:]
        expected = [f"z{i + 1}" for i in range(len(zcols))]
        if zcols != expected:
            raise DimensionMismatch(
                f"{path}: regressor columns must be named z1..z{len(zcols)}"
            )
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DimensionMismatch(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"the header has {len(header)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise DimensionMismatch(
                    f"{path}: line {reader.line_num} has a non-numeric field"
                ) from None
    if not rows:
        raise DimensionMismatch(f"{path}: no data rows")
    t = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    if not np.array_equal(t, np.arange(1, len(rows) + 1)):
        raise DimensionMismatch(f"{path}: t must be contiguous 1..T")
    z = np.array([r[2:] for r in rows]) if zcols else None
    return t, y, z


def load_regression_csv(path) -> RegressionData:
    """Load a full ``t,y,z1,...,zq`` file into a :class:`RegressionData`."""
    _, y, z = read_series_csv(path)
    if z is None:
        raise DimensionMismatch(f"{path}: no regressor columns (expected z1..zq)")
    return RegressionData(y=y, z=z)


def write_regression_csv(path, data: RegressionData) -> None:
    """Write ``data`` in the ``t,y,z1,...,zq`` schema."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"] + [f"z{i + 1}" for i in range(data.n_regressors)])
        for i in range(data.n_obs):
            writer.writerow(
                [i + 1, repr(float(data.y[i]))]
                + [repr(float(v)) for v in data.z[i]]
            )
