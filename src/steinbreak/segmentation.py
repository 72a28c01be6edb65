"""Break-date estimation by least squares.

Break dates are chosen to minimize the sum of squared residuals over all
partitions whose segments respect a minimum length, for both the plain and
the linearly restricted regression.  Searches score partitions from the
prefix-sum moments in :class:`SegmentMoments`; the ``ssr`` they report is
recomputed at the chosen partition from the data rows, by
``fit_unrestricted`` or ``fit_restricted``, because moment differences lose
digits on ill-conditioned segments.

The unrestricted criterion separates across segments, so a Bellman
recursion over a table of single-segment SSRs finds the global optimum in
``O(m T^2)``.  A cross-segment restriction destroys that separability; the
restricted search therefore offers exhaustive enumeration (global, guarded
by a partition-count budget) and cyclic coordinate refinement of one break
at a time (fast, flagged non-global).  Both score their candidates in
batches: a coordinate move of every start still refining, the whole coarse
start lattice, or a fixed-size chunk of the enumeration is one call to
:meth:`SegmentMoments.restricted_ssr`.  It splits the restriction into
segment components (:meth:`Restriction.segment_components`; Perron & Qu,
2006) and adds one score per component, each the Schur complement of that
component's summed moments in its own null coordinates.  Refinement moves
its starts in lock step, and a partition's score does not depend on its
batch, so every start makes the moves of a descent on its own.

Ties between partitions with identical SSR are broken lexicographically on
the break vector, in every search method, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExceeded,
    InfeasibleConfig,
    SegmentRankDeficient,
)
from .estimators import fit_restricted, fit_unrestricted
from .model import Partition, RegressionData, Restriction

METHOD_DP = "dynamic-programming"
METHOD_EXHAUSTIVE = "exhaustive"
METHOD_REFINE = "coordinate-refine"

_METHODS = (METHOD_DP, METHOD_EXHAUSTIVE, METHOD_REFINE)

# Coordinate refinement stops after this many cycles from one start.
MAX_REFINE_CYCLES = 50


@dataclass(frozen=True)
class SearchConfig:
    """Options for a break search.

    ``min_seg_frac`` is the minimum segment length as a fraction of T; the
    effective minimum is ``max(floor(min_seg_frac * T), q)`` so that every
    candidate segment has at least as many observations as regressors.
    """

    m: int
    min_seg_frac: float = 0.05
    method: str = METHOD_DP
    exhaustive_budget: int = 200_000

    def __post_init__(self):
        if self.m < 0:
            raise InfeasibleConfig(f"break count must be >= 0, got {self.m}")
        if not 0.0 < self.min_seg_frac < 1.0:
            raise InfeasibleConfig("min_seg_frac must be in (0, 1)")
        if self.method not in _METHODS:
            raise InfeasibleConfig(f"unknown method {self.method!r}")

    def min_segment_length(self, n_obs: int, n_regressors: int) -> int:
        return max(int(math.floor(self.min_seg_frac * n_obs)), n_regressors)

    def feasible_min_length(self, n_obs: int, n_regressors: int) -> int:
        """The minimum segment length, after checking that ``m + 1``
        segments of it fit in ``n_obs``; ``InfeasibleConfig`` otherwise."""
        min_len = self.min_segment_length(n_obs, n_regressors)
        if (self.m + 1) * min_len > n_obs:
            raise InfeasibleConfig(
                f"{self.m + 1} segments of length >= {min_len} do not fit in T = {n_obs}"
            )
        return min_len


@dataclass(frozen=True)
class SegmentationResult:
    """Outcome of a break search.

    ``ssr`` is the SSR of the fit at the returned partition, computed from
    the data rows by ``fit_unrestricted`` or ``fit_restricted``, not the
    moment-based score the search ranked partitions by.  ``iterations``
    counts refinement cycles (0 for the global methods) from the start the
    search received: when a row fit rejects the chosen partition, its
    segments are excluded and the search runs again, and every pass adds
    its cycles.  The count therefore depends on the exclusions already
    recorded on a shared :class:`SegmentMoments`: a search that follows
    another on the same ``stats`` can report fewer cycles than the same
    search alone.  The count measures work; it is not part of the result.
    """

    partition: Partition
    ssr: float
    method_used: str
    iterations: int = 0

    @property
    def is_global(self) -> bool:
        """True for dynamic programming and exhaustive search, False for
        coordinate refinement."""
        return self.method_used != METHOD_REFINE


# Bytes of segment Gram factors one set of regressors keeps (O(T^2 q^2));
# past it, every SSR table factors its Grams again, block by block.
_FACTOR_CACHE_BYTES = 4 << 20
# Segments per block of an SSR table build; bounds its temporaries.
_TABLE_BLOCK = 2048
# A Cholesky pivot at or below this fraction of its Gram diagonal marks a
# Gram singular up to round-off; such a segment is solved by LU, so its
# entry and its +inf (an exact LU zero pivot) are those of a plain solve.
_PIVOT_FLOOR = 1e-13


def _segment_blocks(t_total: int, min_len: int):
    """Segments ``[s, e)`` with ``e - s >= min_len`` in row-major order, as
    ``(starts, ends)`` blocks of whole start rows, about ``_TABLE_BLOCK``
    segments each."""
    n_starts = t_total - min_len + 1
    i0 = 0
    while i0 < n_starts:
        i1, size = i0, 0
        while i1 < n_starts and (i1 == i0 or size + n_starts - i1 <= _TABLE_BLOCK):
            size += n_starts - i1
            i1 += 1
        rows = np.arange(i0, i1)
        counts = n_starts - rows
        first = np.cumsum(counts) - counts
        starts = np.repeat(rows, counts)
        ends = np.arange(size) - np.repeat(first - rows - min_len, counts)
        yield starts, ends
        i0 = i1


def _packed(i: int, j: int) -> int:
    """Row of entry ``(i, j)``, ``j <= i``, of a packed lower triangle."""
    return i * (i + 1) // 2 + j


def _cholesky_rows(grams: np.ndarray, q: int) -> np.ndarray:
    """Factor a block of segment Grams in place; returns ``fallback``.

    ``grams`` holds the lower triangle of every segment's Gram, entry
    ``(i, j)`` in row ``_packed(i, j)``.  It is overwritten with ``L_ij``
    below the diagonal and ``1 / L_jj`` on it.  ``fallback`` indexes the
    segments with a pivot at or below ``_PIVOT_FLOOR`` of its Gram diagonal
    (or NaN); their factor entries are zero.
    """
    ok = np.ones(grams.shape[1], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(q):
            jj = _packed(j, j)
            diagonal = grams[jj].copy()
            for k in range(j):
                grams[jj] -= grams[_packed(j, k)] * grams[_packed(j, k)]
            ok &= grams[jj] > _PIVOT_FLOOR * diagonal
            grams[jj] = 1.0 / np.sqrt(np.where(ok, grams[jj], 1.0))
            for i in range(j + 1, q):
                ij = _packed(i, j)
                for k in range(j):
                    grams[ij] -= grams[_packed(i, k)] * grams[_packed(j, k)]
                grams[ij] *= grams[jj]
    fallback = np.flatnonzero(~ok)
    grams[:, fallback] = 0.0
    return fallback


def _lu_ssr(mom: np.ndarray, q: int) -> np.ndarray:
    """SSR ``y'y - y'Z beta`` of each augmented Gram in ``mom`` by an LU
    solve of ``Z'Z beta = Z'y``; ``+inf`` on an exact zero pivot."""
    grams, zys, yys = mom[:, :q, :q], mom[:, :q, q], mom[:, q, q]
    try:
        betas = np.linalg.solve(grams, zys[..., None])[..., 0]
        return yys - np.einsum("nq,nq->n", zys, betas)
    except np.linalg.LinAlgError:
        ssr = np.empty(len(mom))
        for idx in range(len(mom)):
            try:
                ssr[idx] = yys[idx] - zys[idx] @ np.linalg.solve(grams[idx], zys[idx])
            except np.linalg.LinAlgError:
                ssr[idx] = np.inf
        return ssr


def _schur_ssr(w: np.ndarray, f: int) -> np.ndarray:
    """Score ``s - c'A^-1 c`` of each augmented matrix ``w[:, :, i] =
    [[A, c], [c', s]]``, ``A`` of size ``f``, from its lower triangle;
    overwrites ``w``.

    Symmetric Gaussian elimination without pivoting: after ``f`` steps the
    last diagonal entry is the score.  Unlike the SSR table, which keeps the
    Cholesky factors of ``Z'Z`` for every response, each matrix here is used
    once, and eliminating it whole takes the fewest array operations.
    Every operation is elementwise over ``i``.  A matrix with a pivot at or
    below ``_PIVOT_FLOOR`` of its diagonal entry, or NaN, is scored by
    :func:`_lu_ssr` instead, so it gets ``+inf`` exactly when its LU solve
    meets a zero pivot, and a vanishing pivot never yields ``-inf``.
    """
    if f == 0:
        return w[0, 0]
    original = w.copy()
    floor = _PIVOT_FLOOR * np.diagonal(w)[:, :f]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(f):
            col = w[j + 1:, j]
            w[j + 1:, j + 1:] -= (col / w[j, j])[:, None] * col
    fallback = np.flatnonzero(~(np.diagonal(w)[:, :f] > floor).all(axis=1))
    ssr = w[f, f]
    if len(fallback):
        mom = np.tril(np.moveaxis(original[:, :, fallback], 2, 0))
        ssr[fallback] = _lu_ssr(mom + np.swapaxes(np.tril(mom, -1), 1, 2), f)
    return ssr


class _ComponentLayout(NamedTuple):
    """How :meth:`SegmentMoments.restricted_ssr` scores one restriction.

    The segments are laid out in slots, grouped by component
    (:meth:`Restriction.segment_components`): ``slots[i]`` is the segment
    in slot ``i`` and ``basis[i]`` its ``B_p = [[N_p, d0_p], [0, -1]]``,
    ``N_p`` and ``d0_p`` the segment's rows of its component's null form,
    with ``u_p = (d_p, -1) = B_p (theta, 1)``.  Every component is padded
    to the widest null space ``F``: its ``f`` null coordinates come first,
    then ``F - f`` unit pivots, then the constant.  A unit pivot's row and
    column are exact zeros off the diagonal, so padding leaves a score bit
    for bit unchanged.  ``heads`` is the first
    slot of each component, ``tails`` lists ``(components, slots)`` pairs
    whose moments are added to those components, in slot order, and
    ``pad`` the ``(coordinate, component)`` pairs of the unit pivots.
    """

    slots: np.ndarray
    basis: np.ndarray
    heads: np.ndarray
    tails: tuple
    pad: tuple


def _component_layout(restriction: Restriction, q: int) -> _ComponentLayout:
    """The :class:`_ComponentLayout` of ``restriction`` on ``q`` regressors."""
    components = restriction.segment_components(q)
    width = max(comp.null.shape[1] for comp in components)
    slots, heads, tails, pad, bases = [], [], {}, ([], []), []
    for c, comp in enumerate(components):
        f = comp.null.shape[1]
        heads.append(len(slots))
        pad[0].extend(range(f, width))
        pad[1].extend([c] * (width - f))
        for i, p in enumerate(comp.segments):
            if i:
                tails.setdefault(i, ([], []))
                tails[i][0].append(c)
                tails[i][1].append(len(slots))
            basis = np.zeros((q + 1, width + 1))
            basis[:q, :f] = comp.null[i * q:(i + 1) * q]
            basis[:q, width] = comp.d0[i * q:(i + 1) * q]
            basis[q, width] = -1.0
            slots.append(p)
            bases.append(basis)
    return _ComponentLayout(
        slots=np.array(slots),
        basis=np.array(bases),
        heads=np.array(heads),
        tails=tuple((np.array(cs), np.array(ss)) for cs, ss in tails.values()),
        pad=(np.array(pad[0], dtype=np.intp), np.array(pad[1], dtype=np.intp)),
    )


class SegmentMoments:
    """Search state of one dataset, shared by both searches: prefix sums of
    ``w w'`` with ``w = (z, y)``, single-segment SSR tables, the unrestricted
    optimum and the excluded segments.

    The difference of two prefix sums is the augmented Gram
    ``[[Z'Z, Z'y], [y'Z, y'y]]`` of the observations between them.  Every
    score it returns is ``+inf`` for a partition with a segment inside an
    excluded one.

    The Cholesky factors of the segment Grams ``Z'Z`` depend on the
    regressors only.  They are kept per minimum length while they fit in
    ``_FACTOR_CACHE_BYTES``, and :meth:`with_response` hands them to the
    state of another response on the same regressors, so that a residual
    bootstrap factors every segment Gram once.
    """

    def __init__(self, data: RegressionData):
        w = np.column_stack([data.z, data.y])
        outer = w[:, :, None] * w[:, None, :]
        self._cum = np.concatenate([np.zeros((1, *outer.shape[1:])), np.cumsum(outer, axis=0)])
        self._z = data.z
        self.n_obs = data.n_obs
        self.n_regressors = data.n_regressors
        self._factors: dict[int, list[tuple]] = {}
        self._tables: dict[int, np.ndarray] = {}
        self._optima: dict[tuple[int, int], tuple[int, ...]] = {}
        self._excluded: list[tuple[int, int]] = []
        self._prefix: tuple | None = None

    def with_response(self, y: np.ndarray) -> SegmentMoments:
        """A fresh search state for response ``y`` on the same regressors.

        It shares this state's segment Gram factors and has its own prefix
        sums, tables, optima and exclusions, so its tables are bit for bit
        those of ``SegmentMoments(RegressionData(y=y, z=z))``.
        """
        state = SegmentMoments(RegressionData(y=y, z=self._z))
        state._factors = self._factors
        return state

    def exclude(self, segments) -> None:
        """Score every partition with a segment inside one of ``segments``
        (``SegmentRankDeficient.segments``) as ``+inf`` from now on; a
        subset of a segment's rows has no higher rank."""
        for s, e in segments:
            self._excluded.append((s, e))
            for tab in self._tables.values():
                tab[s:e, s:e] = np.inf
        self._optima.clear()

    def restricted_ssr(self, bounds: np.ndarray, restriction: Restriction) -> np.ndarray:
        """Restricted-LS SSR of each row of segment boundaries.

        Row ``i`` of the integer array ``bounds`` is ``(0, T_1, ..., T_m, T)``.
        The SSR is a sum of one score per component of the restriction
        (:meth:`Restriction.segment_components`), added in component order.
        A component's score is read from its summed moments
        ``W = sum_p B_p'M_p B_p`` (see :meth:`_component_prefix`), without
        forming ``delta``: it is the Schur complement ``s - c'A^-1 c`` of
        ``W = [[A, c], [c', s]]``, by :func:`_schur_ssr`.  Every operation
        is elementwise over the rows, so a row's score does not depend on
        its batch.  A row gets ``+inf`` when some component's ``A`` meets a
        zero pivot in an LU solve, when its score is NaN, or when it has a
        segment inside an excluded one.
        """
        layout, prefix = self._component_prefix(restriction)
        base = np.arange(len(layout.slots))[:, None] * (self.n_obs + 1)
        moments = np.take(prefix, bounds[:, layout.slots + 1].T + base, axis=2)
        moments -= np.take(prefix, bounds[:, layout.slots].T + base, axis=2)
        # each component's moments, summed over its segments in slot order
        w = moments[:, :, layout.heads]
        for components, slots in layout.tails:
            w[:, :, components] += moments[:, :, slots]
        w[layout.pad[0], layout.pad[0], layout.pad[1]] = 1.0
        width = w.shape[0] - 1
        ssr = _schur_ssr(w.reshape(width + 1, width + 1, -1), width)
        ssr = ssr.reshape(len(layout.heads), len(bounds)).sum(axis=0)
        ssr[np.isnan(ssr)] = np.inf
        for s, e in self._excluded:
            inside = (bounds[:, :-1] >= s) & (bounds[:, 1:] <= e)
            ssr[inside.any(axis=1)] = np.inf
        return ssr

    def _component_prefix(self, restriction: Restriction) -> tuple[_ComponentLayout, np.ndarray]:
        """The restriction's :class:`_ComponentLayout` and the prefix sums
        of every slot's moments in its component's coordinates, kept for
        the last restriction scored.

        A segment's moments in those coordinates are ``B_p'M_p B_p``, so the
        prefix sums ``B_p'C_t B_p`` of the augmented Grams ``C_t`` give them
        by one difference: ``prefix[a, b, i * (T + 1) + t]`` is entry
        ``(a, b)`` of ``B'C_t B`` for slot ``i``.  Only its lower triangle
        is read.
        """
        if self._prefix is not None and self._prefix[0] is restriction:
            return self._prefix[1]
        q, t_total = self.n_regressors, self.n_obs
        layout = _component_layout(restriction, q)
        n_slots, _, width = layout.basis.shape
        # C_t B for every slot in one product, then B' (C_t B) slot by slot
        half = (self._cum.reshape(-1, q + 1) @ np.hstack(layout.basis)).reshape(
            t_total + 1, q + 1, n_slots, width
        )
        half = np.ascontiguousarray(half.transpose(2, 1, 0, 3)).reshape(n_slots, q + 1, -1)
        prefix = (np.swapaxes(layout.basis, 1, 2) @ half).reshape(n_slots, width, t_total + 1, width)
        prefix = np.ascontiguousarray(prefix.transpose(1, 3, 0, 2)).reshape(width, width, -1)
        self._prefix = (restriction, (layout, prefix))
        return layout, prefix

    def ssr_table(self, min_len: int) -> np.ndarray:
        """Table ``tab[i, j]`` = OLS SSR of observations ``i..j`` inclusive.

        Each entry is ``y'y - ||L^-1 Z'y||^2`` with ``L`` the Cholesky
        factor of the segment's Gram ``Z'Z``; the factors come from
        :meth:`_factor_blocks`, and only the ``Z'y`` and ``y'y`` prefix
        sums are read per table.  Every operation is elementwise over a
        block of segments, so an entry does not depend on the block it is
        computed in.  A segment with a Cholesky pivot at or below
        ``_PIVOT_FLOOR`` of its Gram diagonal is solved by LU instead.

        Entries for segments shorter than ``min_len``, whose Gram has an
        exact LU zero pivot, or inside an excluded segment are ``+inf``.  A
        segment whose rows are rank deficient but whose Gram is singular
        only up to round-off gets a finite entry, possibly below its true
        SSR, until a fit rejects it and the search excludes it.
        """
        min_len = max(int(min_len), 1)
        if min_len in self._tables:
            return self._tables[min_len]
        t_total, q = self.n_obs, self.n_regressors
        tab = np.full((t_total, t_total), np.inf)
        # rows: Z'y prefix sums, then y'y
        response = np.ascontiguousarray(self._cum[:, :, q].T)
        for starts, ends, fac, fallback in self._factor_blocks(min_len):
            w = np.take(response, ends, axis=1)
            w -= np.take(response, starts, axis=1)
            for j in range(q):
                for k in range(j):
                    w[j] -= fac[_packed(j, k)] * w[k]
                w[j] *= fac[_packed(j, j)]
                w[q] -= w[j] * w[j]
            # one LU batch per start row: an exact zero pivot sends only its
            # own row's batch to row-by-row solves
            fallback_starts = starts[fallback]
            for s in np.unique(fallback_starts):
                rows = fallback[fallback_starts == s]
                w[q, rows] = _lu_ssr(self._cum[ends[rows]] - self._cum[s], q)
            tab.ravel()[starts * t_total + ends - 1] = np.maximum(w[q], 0.0)
        for s, e in self._excluded:
            tab[s:e, s:e] = np.inf
        self._tables[min_len] = tab
        return tab

    def _factor_blocks(self, min_len: int):
        """Blocks ``(starts, ends, fac, fallback)`` of the segments
        ``[s, e)`` with ``e - s >= min_len``, in row-major order.

        ``fac`` holds each segment's Cholesky factor as
        :func:`_cholesky_rows` leaves it, and ``fallback`` indexes the
        segments it leaves to the LU solve.  The blocks are kept, and shared
        with every :meth:`with_response` state, when all kept factors stay
        within ``_FACTOR_CACHE_BYTES``; otherwise each table factors them
        again.
        """
        if min_len in self._factors:
            yield from self._factors[min_len]
            return
        q = self.n_regressors
        n_starts = max(self.n_obs - min_len + 1, 0)
        n_segments = n_starts * (n_starts + 1) // 2
        held = sum(a.nbytes for blocks in self._factors.values() for blk in blocks for a in blk)
        lower = [(i, j) for i in range(q) for j in range(i + 1)]
        keep = held + n_segments * (len(lower) + 2) * 8 <= _FACTOR_CACHE_BYTES
        cum = np.ascontiguousarray(self._cum[:, [i for i, _ in lower], [j for _, j in lower]].T)
        blocks = []
        for starts, ends in _segment_blocks(self.n_obs, min_len):
            fac = np.take(cum, ends, axis=1)
            fac -= np.take(cum, starts, axis=1)
            block = (starts, ends, fac, _cholesky_rows(fac, q))
            if keep:
                blocks.append(block)
            yield block
        if keep:
            self._factors[min_len] = blocks

    def dp_optimum(self, min_len: int, m: int) -> tuple[int, ...]:
        """Lexicographically first break vector minimizing the table total,
        kept until a segment is excluded; the fit at it may still reject a
        segment."""
        key = (min_len, m)
        if key not in self._optima:
            _, breaks = _suffix_dp(self.ssr_table(min_len), m, min_len)
            self._optima[key] = tuple(breaks)
        return self._optima[key]


def ssr_unrestricted(data: RegressionData, partition: Partition) -> float:
    """Sum over segments of the per-segment OLS residual sum of squares.

    The SSR of :func:`~steinbreak.estimators.fit_unrestricted`.

    Raises
    ------
    SegmentRankDeficient
        If any segment's rows have rank below the regressor count.
    """
    return fit_unrestricted(data, partition).ssr


def ssr_restricted(
    data: RegressionData, partition: Partition, restriction: Restriction
) -> float:
    """SSR of the least squares fit subject to ``R delta = r``.

    The SSR of :func:`~steinbreak.estimators.fit_restricted`; never below
    :func:`ssr_unrestricted` at the same partition.

    Raises
    ------
    SegmentRankDeficient
        If any segment's rows have rank below the regressor count.
    DimensionMismatch
        If the restriction is not dimensioned for this partition.
    SingularConstraintGram
        If the constraint cannot be imposed.
    """
    return fit_restricted(data, partition, restriction).ssr


def count_partitions(n_obs: int, m: int, min_len: int) -> int:
    """Number of break vectors with all ``m + 1`` segments >= ``min_len``."""
    slack = n_obs - (m + 1) * min_len
    if slack < 0:
        return 0
    return math.comb(slack + m, m)


# Table entries the suffix DP adds per array operation; bounds its memory.
_DP_CHUNK = 1 << 18


def _suffix_dp(tab: np.ndarray, m: int, min_len: int) -> tuple[np.ndarray, list[int]]:
    """Suffix Bellman recursion plus lexicographic front-to-back readout.

    ``best[j, c]`` is the minimal SSR of covering observations ``j..T-1``
    with ``c`` breaks.  The readout picks, at each level, the smallest next
    boundary attaining the recorded optimum, which yields the
    lexicographically smallest optimal break vector.

    Each level ``c`` is computed for a chunk of rows ``j`` at once.  Row
    ``j`` then also scans next boundaries below ``j + min_len``, whose table
    entries are ``+inf`` (too short), so every ``best[j, c]`` is the minimum
    of the same sums as in a row-by-row recursion.
    """
    t_total = tab.shape[0]
    best = np.full((t_total + 1, m + 1), np.inf)
    best[:t_total - min_len + 1, 0] = tab[:t_total - min_len + 1, t_total - 1]
    for c in range(1, m + 1):
        n_rows, hi = t_total - (c + 1) * min_len + 1, t_total - c * min_len
        step = max(1, _DP_CHUNK // max(hi, 1))
        for j0 in range(0, n_rows, step):
            j1, lo = min(j0 + step, n_rows), j0 + min_len
            cand = tab[j0:j1, lo - 1:hi] + best[lo:hi + 1, c - 1]
            best[j0:j1, c] = cand.min(axis=1)
    if not np.isfinite(best[0, m]):
        raise SegmentRankDeficient("every feasible partition hit a singular segment")
    breaks: list[int] = []
    j = 0
    for c in range(m, 0, -1):
        lo, hi = j + min_len, t_total - c * min_len
        cand = tab[j, lo - 1:hi] + best[lo:hi + 1, c - 1]
        b = lo + int(np.argmax(cand == best[j, c]))
        breaks.append(b)
        j = b
    return best, breaks


def find_breaks_unrestricted(
    data: RegressionData, config: SearchConfig, stats: SegmentMoments | None = None
) -> SegmentationResult:
    """Globally minimize the unrestricted SSR over feasible partitions.

    Uses dynamic programming by default; ``config.method`` may also select
    exhaustive enumeration (identical result, used as a cross-check).
    A partition that ``fit_unrestricted`` rejects is handled by
    :func:`_search`.

    Raises
    ------
    InfeasibleConfig
        If ``(m + 1)`` segments of the minimum length do not fit in ``T``.
    BudgetExceeded
        If exhaustive enumeration would exceed ``config.exhaustive_budget``.
    SegmentRankDeficient
        If every feasible partition contains a rank-deficient segment.
    """
    if config.method == METHOD_REFINE:
        raise InfeasibleConfig("coordinate refinement applies to restricted search only")
    return _search(data, None, config, stats)


def _fold_total(tab: np.ndarray, breaks: np.ndarray, t_total: int) -> np.ndarray:
    """SSR total of each row of ``breaks``, added right to left.

    The right-associated order matches the suffix recursion's rounding, so
    exhaustive search and the DP agree bit for bit.
    """
    full = _with_ends(breaks, t_total)
    total = np.zeros(len(full))
    for p in range(full.shape[1] - 2, -1, -1):
        total = tab[full[:, p], full[:, p + 1] - 1] + total
    return total


def _with_ends(breaks: np.ndarray, t_total: int) -> np.ndarray:
    """Rows ``(0, T_1, ..., T_m, T)`` from rows of break vectors."""
    rows = len(breaks)
    return np.column_stack(
        [np.zeros(rows, dtype=np.intp), breaks, np.full(rows, t_total, dtype=np.intp)]
    )


# Partitions scored per batch by exhaustive search; bounds its memory.
_EXHAUSTIVE_CHUNK = 1024


def _partition_chunks(n_obs: int, m: int, min_len: int):
    """Feasible break vectors in lexicographic order, as ``(rows, m)`` arrays.

    With ``s = n_obs - (m + 1) min_len``, the strictly increasing ``c`` in
    ``combinations(range(s + m), m)`` map to the break vectors
    ``b_i = c_i + i (min_len - 1) + min_len`` (``i`` from 0), one to one and
    order preserving, and ``combinations`` yields ``c`` lexicographically.
    """
    slack = n_obs - (m + 1) * min_len
    offset = np.arange(m) * (min_len - 1) + min_len
    combos = combinations(range(slack + m), m)
    while batch := list(islice(combos, _EXHAUSTIVE_CHUNK)):
        flat = np.fromiter(chain.from_iterable(batch), dtype=np.intp, count=len(batch) * m)
        yield flat.reshape(len(batch), m) + offset


def _exhaustive_min(t_total, m, min_len, objective, budget) -> list[int]:
    """Lexicographically first break vector minimizing ``objective``.

    ``objective`` maps a ``(rows, m)`` array of break vectors to their
    scores.  Raises ``BudgetExceeded`` before enumerating more than
    ``budget`` partitions, and ``SegmentRankDeficient`` when no partition
    scores finite.
    """
    n_part = count_partitions(t_total, m, min_len)
    if n_part > budget:
        raise BudgetExceeded(n_part, budget)
    best_val = np.inf
    best_breaks = None
    for breaks in _partition_chunks(t_total, m, min_len):
        vals = objective(breaks)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_breaks = vals[i], breaks[i]
    if best_breaks is None:
        raise SegmentRankDeficient("every feasible partition hit a singular segment")
    return [int(b) for b in best_breaks]


def find_breaks_restricted(
    data: RegressionData,
    restriction: Restriction,
    config: SearchConfig,
    stats: SegmentMoments | None = None,
) -> SegmentationResult:
    """Minimize the restricted SSR over feasible partitions.

    Partitions are scored in batches by
    :meth:`SegmentMoments.restricted_ssr`.  ``method="exhaustive"``
    enumerates every feasible partition (global; raises ``BudgetExceeded``
    when the partition count tops ``config.exhaustive_budget``).
    ``method="coordinate-refine"`` runs cyclic coordinate descent: one
    break is re-optimized over its feasible range holding the others fixed,
    all candidate positions scored as one batch of exact restricted SSRs.
    The break moves to the smallest position attaining the batch minimum,
    and only when that minimum is strictly below the current SSR.  Descent
    stops when a full cycle makes no move or after ``MAX_REFINE_CYCLES`` cycles.  It
    starts from :meth:`SegmentMoments.dp_optimum` and, for two or more
    breaks, also from the best few coarse-lattice partitions; the best
    refined end point is returned with ``iterations`` counting cycles over
    all starts.  The refined result is exact at the returned partition but
    not certified global.

    ``fit_restricted`` rejects every partition with a segment whose rows
    are rank deficient, whatever ``R`` identifies; :func:`_search` handles
    such a partition.
    """
    return _search(data, restriction, config, stats)


def _search(data, restriction, config, stats) -> SegmentationResult:
    """The one loop of both break searches.

    Checks that ``m + 1`` segments of the minimum length fit, searches, and
    fits the chosen partition from the rows (``ssr_restricted`` when there
    is a restriction).  When the fit raises ``SegmentRankDeficient``, the
    segments it lists are excluded on ``stats`` and the search runs again;
    an excluded segment is never picked again, so the loop ends.
    """
    stats = stats if stats is not None else SegmentMoments(data)
    t_total, q, m = data.n_obs, data.n_regressors, config.m
    min_len = config.feasible_min_length(t_total, q)
    if restriction is None:
        score = lambda breaks: _fold_total(stats.ssr_table(min_len), breaks, t_total)
        fit = lambda partition: ssr_unrestricted(data, partition)
    else:
        restriction.check_dims((m + 1) * q)
        if config.method not in (METHOD_EXHAUSTIVE, METHOD_REFINE):
            raise InfeasibleConfig(
                "restricted search method must be 'exhaustive' or 'coordinate-refine'"
            )
        score = lambda breaks: stats.restricted_ssr(_with_ends(breaks, t_total), restriction)
        fit = lambda partition: ssr_restricted(data, partition, restriction)
    total_cycles = 0
    while True:
        if config.method == METHOD_DP:
            breaks = stats.dp_optimum(min_len, m)
        elif config.method == METHOD_EXHAUSTIVE:
            breaks = _exhaustive_min(t_total, m, min_len, score, config.exhaustive_budget)
        else:
            breaks, cycles = _refine(t_total, m, min_len, score, stats.dp_optimum(min_len, m))
            total_cycles += cycles
        partition = Partition(tuple(breaks))
        try:
            ssr = fit(partition)
        except SegmentRankDeficient as exc:
            stats.exclude(exc.segments)
            continue
        return SegmentationResult(
            partition=partition, ssr=ssr, method_used=config.method, iterations=total_cycles
        )


def _refine(t_total, m, min_len, objective, init) -> tuple[tuple[int, ...], int]:
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
        starts.extend(_coarse_starts(t_total, m, min_len, objective, init))
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


# Refinement seeds: the best _COARSE_STARTS partitions on a lattice with
# stride T // _COARSE_LATTICE (at least the minimum segment length).
_COARSE_STARTS = 4
_COARSE_LATTICE = 8


def _coarse_starts(t_total, m, min_len, objective, skip):
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
