"""Break-date estimation by least squares.

Break dates are chosen to minimize the sum of squared residuals over all
partitions whose segments respect a minimum length, for both the plain and
the linearly restricted regression.  Searches score partitions from the
prefix-sum moments in :class:`SegmentMoments`; the ``ssr`` they report is
recomputed at the chosen partition by ``fit_unrestricted`` or
``fit_restricted``, which solve on a thin QR of each segment's data rows,
because moment differences lose digits on ill-conditioned segments.

The unrestricted criterion separates across segments, so a Bellman
recursion over a table of single-segment SSRs finds the global optimum in
``O(m T^2)``; the table holds only the segments that a feasible partition
can contain, ``O(T)`` of them for one break.  A cross-segment restriction
destroys that separability; the restricted search therefore offers
exhaustive enumeration (global, guarded by a partition-count budget) and
cyclic coordinate refinement of one break at a time (fast, flagged
non-global).  Both score their candidates in
batches: the refinement starts with the coarse start lattice, one step of
coordinate moves, or a fixed-size chunk of the enumeration is one call to
:meth:`SegmentMoments.restricted_ssr`.  It splits the restriction into
segment components (:meth:`Restriction.segment_components`; Perron & Qu,
2006) and adds one score per component, each the Schur complement of that
component's summed moments in its own null coordinates.  A partition's
score does not depend on its batch, so refinement scores each candidate
set of one break, the other breaks held, once per search, and every start
makes the moves of a descent on its own.

Ties between partitions with identical SSR are broken lexicographically on
the break vector, in every search method, so results are deterministic.

Both searches run over a batch of responses on one set of regressors (a
residual bootstrap's replicates): every kernel is elementwise over the
responses, or one same-shape product per response, so a response's
partition, SSR and cycle count are those of a search of that response
alone.  A batched run takes its responses ``_FIT_CHUNK`` at a time
(:func:`response_chunks`); :func:`response_batches` feeds a state ``_BATCH``
of them at a time, and :func:`estimate_groups` fits the responses of a
chunk that land on the same partitions as one group.  Both constants bound
memory whatever the number of responses.
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
    SteinbreakError,
)
from .estimators import (
    CoefEstimate,
    PluginMatrices,
    estimate_class,
    fit_restricted,
    fit_unrestricted,
    stack_responses,
    take_response,
)
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

    ``ssr`` is the SSR of the fit at the returned partition, computed by
    ``fit_unrestricted`` or ``fit_restricted`` from a thin QR of each
    segment's data rows and from the rows' residuals, not the moment-based
    score the search ranked partitions by.  The unrestricted search hands
    that fit on as ``fit``, which :func:`~steinbreak.estimators.estimate_class`
    then reuses; the restricted search reports its fit's SSR through
    :func:`ssr_restricted` and keeps ``fit`` None.  ``iterations``
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
    fit: CoefEstimate | None = None

    @property
    def is_global(self) -> bool:
        """True for dynamic programming and exhaustive search, False for
        coordinate refinement."""
        return self.method_used != METHOD_REFINE


@dataclass(frozen=True)
class SegmentationBatch:
    """Outcome of one break search over a batch of responses: for each
    response, its :class:`SegmentationResult`, or the ``SteinbreakError``
    that ended its search.  ``iterations`` sums the refinement cycles of the
    responses that found a partition."""

    results: tuple
    method_used: str

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self.results if isinstance(r, SegmentationResult))


# Segments per block of an SSR table build; bounds its temporaries.
_TABLE_BLOCK = 2048
# A Cholesky pivot at or below this fraction of its Gram diagonal marks a
# Gram singular up to round-off; such a segment is solved by LU, so its
# entry and its +inf (an exact LU zero pivot) are those of a plain solve.
_PIVOT_FLOOR = 1e-13


def _reachable_rows(t_total: int, min_len: int, m: int):
    """Start rows of the segments that some feasible ``m``-break partition
    contains, as ``(starts, n_inner, to_end)`` arrays over ``s = 0 .. T -
    min_len``.

    ``[s, e)`` can be segment ``p`` (from 0) exactly when ``s = 0 <=> p =
    0``, ``e = T <=> p = m``, ``s >= p min_len``, ``T - e >= (m - p)
    min_len`` and ``e - s >= min_len``.  For ``p < m`` the latest such
    ``p`` allows the most ends, so row ``s`` holds the ``n_inner`` ends
    ``s + min_len, s + min_len + 1, ...``, then ``T`` when ``to_end``.
    """
    starts = np.arange(max(t_total - min_len + 1, 0))
    p = np.minimum(starts // min_len, m - 1)
    inner = (p >= 0) & ((starts == 0) == (p == 0))
    n_inner = np.where(inner, np.maximum(t_total - (m - p + 1) * min_len - starts + 1, 0), 0)
    to_end = (starts >= m * min_len) & ((starts == 0) == (m == 0))
    return starts, n_inner, to_end


def _segment_blocks(t_total: int, min_len: int, m: int):
    """The segments ``[s, e)`` of :func:`_reachable_rows` in row-major
    order, as ``(starts, ends)`` blocks of whole start rows, about
    ``_TABLE_BLOCK`` segments each: ``2 (T - 2 min_len + 1)`` segments in
    all at ``m = 1``."""
    starts, n_inner, to_end = _reachable_rows(t_total, min_len, m)
    counts = n_inner + to_end
    kept = counts > 0
    starts, n_inner, counts = starts[kept], n_inner[kept], counts[kept]
    if not len(starts):
        return
    first = np.cumsum(counts) - counts
    cuts = np.flatnonzero(np.diff(first // _TABLE_BLOCK)) + 1
    for rows in np.split(np.arange(len(starts)), cuts):
        n = counts[rows]
        offset = np.arange(n.sum()) - np.repeat(first[rows] - first[rows[0]], n)
        block_starts = np.repeat(starts[rows], n)
        ends = block_starts + min_len + offset
        ends[offset == np.repeat(n_inner[rows], n)] = t_total
        yield block_starts, ends


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
    solve of ``Z'Z beta = Z'y``; ``+inf`` on an exact zero pivot.

    Each Gram is solved on its own and every SSR is read by one ``einsum``,
    also when the batch holds a singular Gram, so an entry's bits do not
    depend on the other entries of its batch."""
    grams, zys, yys = mom[:, :q, :q], mom[:, :q, q], mom[:, q, q]
    singular = np.zeros(len(mom), dtype=bool)
    try:
        betas = np.linalg.solve(grams, zys[..., None])
    except np.linalg.LinAlgError:
        betas = np.zeros((*zys.shape, 1))
        for idx in range(len(mom)):
            try:
                betas[idx] = np.linalg.solve(grams[idx:idx + 1], zys[idx:idx + 1, :, None])[0]
            except np.linalg.LinAlgError:
                singular[idx] = True
    ssr = yys - np.einsum("nq,nq->n", zys, betas[..., 0])
    ssr[singular] = np.inf
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
    """Search state of one set of regressors and a batch of responses,
    shared by both searches: prefix sums of ``w w'`` with ``w = (z, y)``
    for each response, single-segment SSR tables, the unrestricted optima
    and the excluded segments.

    The difference of two prefix sums is the augmented Gram
    ``[[Z'Z, Z'y], [y'Z, y'y]]`` of the observations between them.  Every
    score it returns is ``+inf`` for a partition with a segment inside a
    segment excluded for that response.

    ``data.y`` holds ``B`` responses of shape ``(B, T)`` (a batch), or one
    of shape ``(T,)``, a batch of one, and every table, score and optimum
    has a leading response axis.  Every operation is elementwise over the
    responses, or one same-shape product per response, so a response's
    tables, optima and scores are bit for bit those of a state of that
    response alone, whatever its batch.  Memory grows with ``B``: a dense
    ``T x T`` table per response, so batched runs feed ``_BATCH`` responses
    at a time (:meth:`set_responses`).

    An ``m``-break search reads only the segments that some feasible
    partition contains (:func:`_reachable_rows`), so tables and factors are
    built for those alone and keyed by ``(min_len, m)``: ``O(T)`` segments
    at ``m = 1``.  The Cholesky factors of the segment Grams ``Z'Z`` depend
    on the regressors only, so one pass factors them for every response of
    the batch.  With ``keep_factors`` the state keeps them, so that the
    responses of a later :meth:`set_responses` reuse them: a residual
    bootstrap or a fixed-regressor study factors every segment Gram once.
    Without it no factor outlives its table build, which keeps a one-off
    table at large ``T`` within the table's own memory.
    """

    def __init__(self, data: RegressionData, keep_factors: bool = False):
        self.n_obs = data.n_obs
        self.n_regressors = data.n_regressors
        self._z = data.z
        self._keep_factors = keep_factors
        self._factors: dict[tuple[int, int], list[tuple]] = {}
        self._layout: tuple | None = None
        self.set_responses(data.y)

    def set_responses(self, y: np.ndarray) -> None:
        """Search the responses ``y`` (``(T,)`` or ``(B, T)``) from now on,
        on the same regressors.

        The prefix sums, tables, optima, exclusions and restricted moments
        are those of a fresh state of ``y``; only the kept segment Gram
        factors carry over.
        """
        ys = np.reshape(y, (-1, self.n_obs))
        w = np.empty((len(ys), self.n_obs, self.n_regressors + 1))
        w[:, :, :-1] = self._z
        w[:, :, -1] = ys
        self._cum = np.zeros((len(ys), self.n_obs + 1, *w.shape[2:], w.shape[2]))
        np.cumsum(w[:, :, :, None] * w[:, :, None, :], axis=1, out=self._cum[:, 1:])
        self.n_responses = len(ys)
        self._tables: dict[tuple[int, int], np.ndarray] = {}
        self._optima: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._excluded: list[tuple[int, int]] = []
        self._excluded_for: list[np.ndarray] = []
        self._prefix: tuple | None = None

    def exclude(self, segments, responses=None) -> None:
        """Score every partition with a segment inside one of ``segments``
        (``SegmentRankDeficient.segments``) as ``+inf`` from now on, for the
        ``responses`` (indices; all when None); a subset of a segment's rows
        has no higher rank."""
        mask = np.zeros(self.n_responses, dtype=bool)
        mask[slice(None) if responses is None else responses] = True
        for s, e in segments:
            self._excluded.append((s, e))
            self._excluded_for.append(mask)
            for tab in self._tables.values():
                tab[mask, s:e, s:e] = np.inf
        self._optima.clear()

    def restricted_ssr(self, bounds: np.ndarray, restriction: Restriction, responses=None) -> np.ndarray:
        """Restricted-LS SSR of each row of segment boundaries.

        Row ``i`` of the integer array ``bounds`` is ``(0, T_1, ..., T_m, T)``.
        The SSR is a sum of one score per component of the restriction
        (:meth:`Restriction.segment_components`), added in component order.
        A component's score is read from its summed moments
        ``W = sum_p B_p'M_p B_p`` (see :meth:`_component_prefix`), without
        forming ``delta``: it is the Schur complement ``s - c'A^-1 c`` of
        ``W = [[A, c], [c', s]]``, by :func:`_schur_ssr`.  Every operation
        is elementwise over the rows and the responses, so a row's score
        does not depend on its batch.  A row gets ``+inf`` when some
        component's ``A`` meets a zero pivot in an LU solve, when its score
        is NaN, or when it has a segment inside one excluded for the
        response.

        ``responses`` picks the responses scored, a slice or an index
        array (all when None), and the scores are ``(len(responses),
        rows)``.  A slice picks a view of the moments; an index array copies
        them.
        """
        layout, prefix = self._component_prefix(restriction)
        picked = slice(None) if responses is None else responses
        prefix = prefix[:, :, picked]
        base = np.arange(len(layout.slots))[:, None] * (self.n_obs + 1)
        moments = np.take(prefix, bounds[:, layout.slots + 1].T + base, axis=3)
        moments -= np.take(prefix, bounds[:, layout.slots].T + base, axis=3)
        # each component's moments, summed over its segments in slot order
        w = moments[:, :, :, layout.heads]
        for components, slots in layout.tails:
            w[:, :, :, components] += moments[:, :, :, slots]
        w[layout.pad[0], layout.pad[0], :, layout.pad[1]] = 1.0
        width = w.shape[0] - 1
        scores = _schur_ssr(w.reshape(width + 1, width + 1, -1), width).reshape(w.shape[2:])
        ssr = scores[:, 0]
        for c in range(1, scores.shape[1]):
            ssr = ssr + scores[:, c]
        ssr[np.isnan(ssr)] = np.inf
        for (s, e), mask in zip(self._excluded, self._excluded_for):
            inside = ((bounds[:, :-1] >= s) & (bounds[:, 1:] <= e)).any(axis=1)
            ssr[np.ix_(mask[picked], inside)] = np.inf
        return ssr

    def _component_prefix(self, restriction: Restriction) -> tuple[_ComponentLayout, np.ndarray]:
        """The restriction's :class:`_ComponentLayout` and the prefix sums
        of every slot's moments in its component's coordinates, for every
        response, kept for the last restriction scored.

        A segment's moments in those coordinates are ``B_p'M_p B_p``, so the
        prefix sums ``B_p'C_t B_p`` of the augmented Grams ``C_t`` give them
        by one difference: ``prefix[a, b, r, i * (T + 1) + t]`` is entry
        ``(a, b)`` of ``B'C_t B`` for slot ``i`` and response ``r``.  Each
        response's products have the shapes of a one-response state's, so
        its bits do too.  Only the lower triangle is read.  The layout
        depends on the regressor count alone and outlives a response set.
        """
        if self._prefix is not None and self._prefix[0] is restriction:
            return self._prefix[1]
        q, t_total, n_resp = self.n_regressors, self.n_obs, self.n_responses
        if self._layout is None or self._layout[0] is not restriction:
            self._layout = (restriction, _component_layout(restriction, q))
        layout = self._layout[1]
        n_slots, _, width = layout.basis.shape
        # C_t B for every slot in one product per response, then B' (C_t B) slot by slot
        half = (self._cum.reshape(n_resp, -1, q + 1) @ np.hstack(layout.basis)).reshape(
            n_resp, t_total + 1, q + 1, n_slots, width
        )
        half = np.ascontiguousarray(half.transpose(0, 3, 2, 1, 4)).reshape(n_resp, n_slots, q + 1, -1)
        prefix = (np.swapaxes(layout.basis, 1, 2) @ half).reshape(n_resp, n_slots, width, t_total + 1, width)
        prefix = np.ascontiguousarray(prefix.transpose(2, 4, 0, 1, 3)).reshape(width, width, n_resp, -1)
        self._prefix = (restriction, (layout, prefix))
        return layout, prefix

    def ssr_table(self, min_len: int, m: int) -> np.ndarray:
        """Table ``tab[i, j]`` = OLS SSR of observations ``i..j`` inclusive,
        for the segments that some feasible ``m``-break partition contains;
        ``(B, T, T)``, one table per response.

        Each entry is ``y'y - ||L^-1 Z'y||^2`` with ``L`` the Cholesky
        factor of the segment's Gram ``Z'Z``; the factors come from
        :meth:`_factor_blocks`, and only the ``Z'y`` and ``y'y`` prefix
        sums are read per response.  Every operation is elementwise over a
        block of segments and the responses, so an entry does not depend on
        the block it is computed in, nor on the other segments of the table
        or the other responses.  A segment with a Cholesky pivot at or below
        ``_PIVOT_FLOOR`` of its Gram diagonal is solved by LU instead.

        Entries for segments that no feasible ``m``-break partition with
        segments of at least ``min_len`` contains (:func:`_reachable_rows`),
        whose Gram has an exact LU zero pivot, or inside a segment excluded
        for the response are ``+inf``; no search with this ``m`` reads the
        first kind.  A segment whose rows are rank deficient but whose Gram
        is singular only up to round-off gets a finite entry, possibly below
        its true SSR, until a fit rejects it and the search excludes it.
        """
        key = (max(int(min_len), 1), int(m))
        if key not in self._tables:
            self._tables[key] = self._build_tables(key)
        return self._tables[key]

    def _build_tables(self, key: tuple[int, int]) -> np.ndarray:
        """The ``(B, T, T)`` tables of :meth:`ssr_table`."""
        t_total, q, n_resp = self.n_obs, self.n_regressors, self.n_responses
        tab = np.full((n_resp, t_total, t_total), np.inf)
        # rows: Z'y prefix sums, then y'y; one column per response and time
        response = np.ascontiguousarray(self._cum[:, :, :, q].transpose(2, 0, 1))
        for starts, ends, fac, fallback in self._factor_blocks(*key):
            w = np.take(response, ends, axis=2)
            w -= np.take(response, starts, axis=2)
            for j in range(q):
                for k in range(j):
                    w[j] -= fac[_packed(j, k)] * w[k]
                w[j] *= fac[_packed(j, j)]
                w[q] -= w[j] * w[j]
            if len(fallback):
                mom = self._cum[:, ends[fallback]] - self._cum[:, starts[fallback]]
                w[q][:, fallback] = _lu_ssr(mom.reshape(-1, q + 1, q + 1), q).reshape(n_resp, -1)
            tab.reshape(n_resp, -1)[:, starts * t_total + ends - 1] = np.maximum(w[q], 0.0)
        for (s, e), mask in zip(self._excluded, self._excluded_for):
            tab[mask, s:e, s:e] = np.inf
        return tab

    def _factor_blocks(self, min_len: int, m: int):
        """Blocks ``(starts, ends, fac, fallback)`` of the segments of
        :func:`_segment_blocks`, in row-major order.

        ``fac`` holds each segment's Cholesky factor as
        :func:`_cholesky_rows` leaves it, and ``fallback`` indexes the
        segments it leaves to the LU solve.  A ``keep_factors`` state keeps
        the blocks for every later table with this key; any other state
        factors them anew for each table build.
        """
        key = (min_len, m)
        if key in self._factors:
            yield from self._factors[key]
            return
        q = self.n_regressors
        lower = [(i, j) for i in range(q) for j in range(i + 1)]
        cum = np.ascontiguousarray(self._cum[0][:, [i for i, _ in lower], [j for _, j in lower]].T)
        blocks = []
        for starts, ends in _segment_blocks(self.n_obs, min_len, m):
            fac = np.take(cum, ends, axis=1)
            fac -= np.take(cum, starts, axis=1)
            block = (starts, ends, fac, _cholesky_rows(fac, q))
            if self._keep_factors:
                blocks.append(block)
            yield block
        if self._keep_factors:
            self._factors[key] = blocks

    def _dp_optima(self, min_len: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Each response's lexicographically first break vector minimizing
        its table total, ``(B, m)``, and whether the total is finite,
        ``(B,)``; kept until a segment is excluded."""
        key = (min_len, m)
        if key not in self._optima:
            best, breaks = _suffix_dp(self.ssr_table(min_len, m), m, min_len)
            self._optima[key] = (breaks, np.isfinite(best[:, 0, m]))
        return self._optima[key]

    def dp_optimum(self, min_len: int, m: int, response: int = 0) -> tuple[int, ...]:
        """Lexicographically first break vector minimizing the table total of
        ``response``, kept until a segment is excluded; the fit at it may
        still reject a segment.  Raises ``SegmentRankDeficient`` when every
        feasible partition has an infinite total."""
        breaks, found = self._dp_optima(min_len, m)
        if not found[response]:
            raise SegmentRankDeficient("every feasible partition hit a singular segment")
        return tuple(int(b) for b in breaks[response])


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


def _suffix_dp(tabs: np.ndarray, m: int, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Suffix Bellman recursion plus lexicographic front-to-back readout.

    ``best[j, c]`` is the minimal SSR of covering observations ``j..T-1``
    with ``c`` breaks.  The readout picks, at each level, the smallest next
    boundary attaining the recorded optimum, which yields the
    lexicographically smallest optimal break vector.

    Each level ``c`` is computed for a chunk of rows ``j`` at once.  Row
    ``j`` then also scans next boundaries below ``j + min_len``, whose table
    entries are ``+inf`` (too short), so every ``best[j, c]`` is the minimum
    of the same sums as in a row-by-row recursion.  ``best[0, m]`` and the
    readout depend only on ``best[j, c]`` with ``j`` a start of segment
    ``m - c`` of some feasible partition, which read only the segments of
    :func:`_reachable_rows`; any other ``best[j, c]`` may read an entry the
    table leaves ``+inf``.

    ``tabs`` of shape ``(B, T, T)`` holds one table per response, and
    every step is elementwise over them: ``best`` is ``(B, T + 1, m + 1)``
    and the break vectors ``(B, m)``, those of a response with an infinite
    optimum meaningless.
    """
    n_tab, t_total = tabs.shape[:2]
    best = np.full((n_tab, t_total + 1, m + 1), np.inf)
    best[:, :t_total - min_len + 1, 0] = tabs[:, :t_total - min_len + 1, t_total - 1]
    for c in range(1, m + 1):
        n_rows, hi = t_total - (c + 1) * min_len + 1, t_total - c * min_len
        step = max(1, _DP_CHUNK // max(hi * n_tab, 1))
        for j0 in range(0, n_rows, step):
            j1, lo = min(j0 + step, n_rows), j0 + min_len
            cand = tabs[:, j0:j1, lo - 1:hi] + best[:, None, lo:hi + 1, c - 1]
            best[:, j0:j1, c] = cand.min(axis=2)
    breaks = np.zeros((n_tab, m), dtype=np.intp)
    for one, table, row in zip(best, tabs, breaks):
        if not np.isfinite(one[0, m]):
            continue
        j = 0
        for c in range(m, 0, -1):
            lo, hi = j + min_len, t_total - c * min_len
            cand = table[j, lo - 1:hi] + one[lo:hi + 1, c - 1]
            j = row[m - c] = lo + int(np.argmax(cand == one[j, c]))
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
    """SSR total of each row of ``breaks``, added right to left; ``(B,
    rows)`` for tables ``(B, T, T)``.

    The right-associated order matches the suffix recursion's rounding, so
    exhaustive search and the DP agree bit for bit.
    """
    full = _with_ends(breaks, t_total)
    total = np.zeros(tab.shape[:-2] + (len(full),))
    for p in range(full.shape[1] - 2, -1, -1):
        total = tab[..., full[:, p], full[:, p + 1] - 1] + total
    return total


def _with_ends(breaks: np.ndarray, t_total: int) -> np.ndarray:
    """Rows ``(0, T_1, ..., T_m, T)`` from rows of break vectors."""
    rows = len(breaks)
    return np.column_stack(
        [np.zeros(rows, dtype=np.intp), breaks, np.full(rows, t_total, dtype=np.intp)]
    )


# Partitions scored per batch by exhaustive search; bounds its memory.
_EXHAUSTIVE_CHUNK = 1024


def _partition_chunks(n_obs: int, m: int, min_len: int, size: int = _EXHAUSTIVE_CHUNK):
    """Feasible break vectors in lexicographic order, as ``(rows, m)`` arrays
    of ``size`` rows (the last may have fewer).

    With ``s = n_obs - (m + 1) min_len``, the strictly increasing ``c`` in
    ``combinations(range(s + m), m)`` map to the break vectors
    ``b_i = c_i + i (min_len - 1) + min_len`` (``i`` from 0), one to one and
    order preserving, and ``combinations`` yields ``c`` lexicographically.
    """
    slack = n_obs - (m + 1) * min_len
    offset = np.arange(m) * (min_len - 1) + min_len
    combos = combinations(range(slack + m), m)
    while batch := list(islice(combos, size)):
        flat = np.fromiter(chain.from_iterable(batch), dtype=np.intp, count=len(batch) * m)
        yield flat.reshape(len(batch), m) + offset


def _exhaustive_min(t_total, m, min_len, objective, budget, n_resp) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``n_resp`` responses' lexicographically first break vector
    minimizing ``objective``, ``(B, m)``, and whether its minimum is finite,
    ``(B,)``.

    ``objective`` maps a ``(rows, m)`` array of break vectors to their
    scores, ``(B, rows)``; it is called on ``_EXHAUSTIVE_CHUNK // n_resp``
    rows at a time, so that a call scores about ``_EXHAUSTIVE_CHUNK``
    partitions whatever ``B``.  A strictly
    lower chunk minimum replaces the kept one, so the first minimizer wins
    at any chunk size.  Raises ``BudgetExceeded`` before enumerating more
    than ``budget`` partitions.
    """
    n_part = count_partitions(t_total, m, min_len)
    if n_part > budget:
        raise BudgetExceeded(n_part, budget)
    best_val = np.full(n_resp, np.inf)
    best_breaks = np.zeros((n_resp, m), dtype=np.intp)
    for breaks in _partition_chunks(t_total, m, min_len, max(1, _EXHAUSTIVE_CHUNK // n_resp)):
        vals = objective(breaks)
        i = np.argmin(vals, axis=1)
        low = vals[np.arange(len(vals)), i]
        better = low < best_val
        best_val[better], best_breaks[better] = low[better], breaks[i[better]]
    return best_breaks, np.isfinite(best_val)


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


def _search(data, restriction, config, stats) -> SegmentationResult | SegmentationBatch:
    """The one loop of both break searches, over every response of ``stats``.

    Checks that ``m + 1`` segments of the minimum length fit, searches, and
    fits each chosen partition from the rows (``ssr_restricted`` when there
    is a restriction), once for all the responses that chose it.  When the
    fit raises ``SegmentRankDeficient``, a verdict on the regressors alone,
    the segments it lists are excluded for those responses and they search
    again; an excluded segment is never picked again, so the loop ends.  A
    response whose search ends in another ``SteinbreakError`` keeps it as
    its result (:func:`_by_member`).  Refinement runs its loop response by
    response on the shared state.  A lone response is searched and fitted
    as a batch of one; only at the end does a one-response ``data`` return
    its result, or raise its error.
    """
    stats = stats if stats is not None else SegmentMoments(data)
    t_total, q, m = data.n_obs, data.n_regressors, config.m
    min_len = config.feasible_min_length(t_total, q)
    if restriction is None:

        def score(breaks, rows):
            return _fold_total(stats.ssr_table(min_len, m)[rows], breaks, t_total)

        def fit(sub, partition):
            found = fit_unrestricted(sub, partition)
            return found.ssr, found

    else:
        restriction.check_dims((m + 1) * q)
        if config.method not in (METHOD_EXHAUSTIVE, METHOD_REFINE):
            raise InfeasibleConfig(
                "restricted search method must be 'exhaustive' or 'coordinate-refine'"
            )

        def score(breaks, rows):
            return stats.restricted_ssr(_with_ends(breaks, t_total), restriction, rows)

        def fit(sub, partition):
            return ssr_restricted(sub, partition, restriction), None

    results: list = [None] * stats.n_responses
    cycles = [0] * stats.n_responses
    pending = list(range(stats.n_responses))
    while pending:
        picked = {}
        try:
            if config.method == METHOD_DP:
                breaks, found = stats._dp_optima(min_len, m)
                picked = {r: tuple(breaks[r]) for r in pending if found[r]}
            elif config.method == METHOD_EXHAUSTIVE:
                rows = slice(None) if len(pending) == stats.n_responses else np.array(pending)
                breaks, found = _exhaustive_min(
                    t_total, m, min_len, lambda b: score(b, rows), config.exhaustive_budget, len(pending)
                )
                picked = {r: tuple(b) for r, b, ok in zip(pending, breaks, found) if ok}
            else:
                for r in pending:
                    try:
                        breaks, n_cycles = _refine(
                            t_total,
                            m,
                            min_len,
                            lambda b, r=r: score(b, slice(r, r + 1))[0],
                            stats.dp_optimum(min_len, m, r),
                        )
                    except SegmentRankDeficient as exc:
                        results[r] = exc
                        continue
                    cycles[r] += n_cycles
                    picked[r] = breaks
        except BudgetExceeded as exc:
            picked = {}
            for r in pending:
                results[r] = exc
        for r in pending:
            if r not in picked and results[r] is None:
                results[r] = SegmentRankDeficient("every feasible partition hit a singular segment")
        pending = []
        for breaks, members in _grouped(picked).items():
            partition = Partition(tuple(int(b) for b in breaks))
            for rows, outcome in _by_member(lambda ms: fit(data.select(ms), partition), members):
                if isinstance(outcome, SegmentRankDeficient):
                    stats.exclude(outcome.segments, rows)
                    pending += rows
                elif isinstance(outcome, SteinbreakError):
                    for r in rows:
                        results[r] = outcome
                else:
                    ssr, found = outcome
                    for i, r in enumerate(rows):
                        results[r] = SegmentationResult(
                            partition=partition,
                            ssr=float(ssr[i]),
                            method_used=config.method,
                            iterations=cycles[r],
                            fit=None if found is None else take_response(found, i),
                        )
        pending.sort()
    if data.y.ndim == 1:
        (result,) = results
        if isinstance(result, SteinbreakError):
            raise result
        return result
    return SegmentationBatch(results=tuple(results), method_used=config.method)


def _grouped(picked: dict) -> dict:
    """Responses by the key they picked, each list in response order."""
    groups: dict = {}
    for r, key in picked.items():
        groups.setdefault(key, []).append(r)
    return groups


def _by_member(fn, members: list) -> list:
    """``fn`` on the batch of ``members``, as ``(members, outcome)`` pairs,
    the outcome its value or the ``SteinbreakError`` it raised.

    A ``SegmentRankDeficient`` is the verdict of the regressors alone, so it
    holds for every member.  Any other error is traced to its members: each
    member runs alone, and since a member's numbers do not depend on its
    batch, every other member gets its own value, bit for bit.
    """
    try:
        return [(members, fn(members))]
    except SegmentRankDeficient as exc:
        return [(members, exc)]
    except SteinbreakError as exc:
        if len(members) == 1:
            return [(members, exc)]
        return [pair for r in members for pair in _by_member(fn, [r])]


# Responses a batched run searches at a time; bounds its tables to
# _BATCH T^2 doubles.  A response's numbers do not depend on it.
_BATCH = 4
# Responses a batched run fits at a time: fit groups form within a chunk,
# which bounds the fits, residuals and plug-in scores alive at once to
# _FIT_CHUNK of each.  A response's numbers do not depend on it either.
_FIT_CHUNK = 64


def response_chunks(data: RegressionData):
    """The responses of ``data``, ``_FIT_CHUNK`` at a time, each a batch."""
    for start in range(0, len(data.responses), _FIT_CHUNK):
        yield data.select(slice(start, start + _FIT_CHUNK))


def response_batches(data: RegressionData, stats: SegmentMoments | None = None):
    """The responses of ``data``, ``_BATCH`` at a time, each batch loaded
    into one search state: ``(batch, stats)`` pairs.

    Given ``stats`` (a state on ``data.z``), every batch is loaded by
    :meth:`SegmentMoments.set_responses`; otherwise one state is built
    here, keeping its factors when there is more than one batch.
    """
    n_resp = len(data.responses)
    for start in range(0, n_resp, _BATCH):
        batch = data.select(slice(start, start + _BATCH))
        if stats is None:
            stats = SegmentMoments(batch, keep_factors=n_resp > _BATCH)
        else:
            stats.set_responses(batch.y)
        yield batch, stats


def estimate_groups(
    data: RegressionData,
    restriction: Restriction,
    searches: list,
    shrink_partition: str = "ue",
    shrinkage: tuple[str, ...] = ("js", "pp"),
    omega: str = "hc0",
    bandwidth: int | None = None,
) -> list:
    """The estimator class of every response of ``data`` at the breaks of
    its two searches: the one estimation step of ``fit``, ``bootstrap`` and
    ``simulate``, after they search :func:`response_batches`, one
    :func:`response_chunks` chunk at a time.

    ``searches`` holds, per response, its unrestricted and restricted
    search outcome (a :class:`SegmentationResult` or the error that ended
    the search).  Responses whose searches landed on the same partitions
    form one fit group: :func:`~steinbreak.estimators.estimate_class` runs
    once for the group, on the unrestricted search's fits, with shrinkage
    at the UE partition when ``shrink_partition`` is ``"ue"`` and at the RE
    partition otherwise.  Every response's numbers are those of a group of
    one, and an error fails only its own responses (:func:`_by_member`).

    Returns, per response, a dict of ``ue_search``, ``re_search``,
    ``estimates``, ``plugin`` and ``psi`` (as :func:`estimate_class` gives
    them for one response), or the ``SteinbreakError`` that ended it.
    """
    out: list = [None] * len(searches)
    picked = {}
    for r, (ue, re) in enumerate(searches):
        failed = [x for x in (ue, re) if isinstance(x, SteinbreakError)]
        if failed:
            out[r] = failed[0]
        else:
            picked[r] = (ue.partition, re.partition)
    for (ue_part, re_part), members in _grouped(picked).items():

        def fitted(ms, ue_part=ue_part, re_part=re_part):
            return estimate_class(
                data.select(ms),
                restriction,
                ue_part,
                re_part,
                ue_part if shrink_partition == "ue" else re_part,
                shrinkage=shrinkage,
                omega=omega,
                bandwidth=bandwidth,
                ue=stack_responses([searches[r][0].fit for r in ms]),
            )

        for rows, outcome in _by_member(fitted, members):
            for i, r in enumerate(rows):
                if isinstance(outcome, SteinbreakError):
                    out[r] = outcome
                    continue
                plugin = outcome["plugin"]
                out[r] = {
                    "ue_search": searches[r][0],
                    "re_search": searches[r][1],
                    "estimates": {name: take_response(est, i) for name, est in outcome["estimates"].items()},
                    "plugin": PluginMatrices(plugin.a_hat[i], plugin.sandwich[i], plugin.omega_method),
                    "psi": float(outcome["psi"][i]),
                }
    return out


def _refine(t_total, m, min_len, objective, init) -> tuple[tuple[int, ...], int]:
    """Cyclic coordinate descent from ``init`` and, for ``m >= 2``, from
    coarse-lattice starts; returns the best end point and the total cycles.

    ``objective`` maps a ``(rows, m)`` array of break vectors to scores,
    and a row's score must not depend on its batch.  One call scores
    ``init`` with the lattice, and the best lattice partitions keep their
    lattice scores.  Then, for each cycle and break ``p``, the starts still
    moving take one step, and the step's one call scores each candidate set
    it meets for the first time: the feasible positions of break ``p`` with
    the other breaks held, keyed by ``(p, other breaks)``.  The first
    position of the least score over that range and the score are kept,
    and a start moves there exactly when the score is strictly below its
    own.  So a start whose neighbours have not moved since its last scan of
    ``p``, or that sits at the partition of another start, adds no row: a
    scan of the range would choose the same move.  Each start makes the
    moves of a descent on its own and stops after a cycle without a move or
    after ``MAX_REFINE_CYCLES`` cycles; the cycles of all starts are summed.
    """
    lattice = _coarse_lattice(t_total, m, min_len, init) if m >= 2 else []
    rows = [tuple(init), *lattice]
    scores = objective(np.array(rows, dtype=np.intp).reshape(len(rows), m))
    # Single-coordinate moves cannot cross SSR valleys when several breaks
    # must shift together, so for m >= 2 the best few lattice partitions are
    # refined as well (the best end point wins; result stays non-global).
    picked = [0, *(1 + np.argsort(scores[1:], kind="stable")[:_COARSE_STARTS])]
    bounds = [rows[i] for i in picked]
    current = [scores[i] for i in picked]
    cycles = [0] * len(bounds)
    # (p, other breaks) -> (first position of break p with the least score
    # over its feasible range, that score)
    best_move: dict[tuple, tuple[int, float]] = {}
    active = list(range(len(bounds)))
    for cycle in range(1, MAX_REFINE_CYCLES + 1):
        if not active:
            break
        moved = set()
        for s in active:
            cycles[s] = cycle
        for p in range(m):
            keys = [(p, bounds[s][:p] + bounds[s][p + 1:]) for s in active]
            fresh = {}
            for s, key in zip(active, keys):
                if key not in best_move and key not in fresh:
                    fresh[key] = (bounds[s], current[s])
            if fresh:
                best_move.update(_best_moves(fresh, p, t_total, min_len, objective))
            for s, key in zip(active, keys):
                b, val = best_move[key]
                if val < current[s]:
                    bounds[s] = bounds[s][:p] + (b,) + bounds[s][p + 1:]
                    current[s] = val
                    moved.add(s)
        active = [s for s in active if s in moved]
    best: tuple[int, ...] | None = None
    best_val = np.inf
    for row, val in zip(bounds, current):
        if np.isfinite(val) and (val < best_val or (val == best_val and row < best)):
            best, best_val = row, val
    if best is None:
        raise SegmentRankDeficient("no refinement start produced an estimable fit")
    return best, sum(cycles)


def _best_moves(fresh, p, t_total, min_len, objective) -> dict:
    """The move of break ``p`` for each ``(p, other breaks)`` key of
    ``fresh``: the first position of least score over its feasible range,
    and that score.

    ``fresh`` maps each key to a partition there and its score, so that
    partition is not scored again.  One ``objective`` call scores every
    other position of every key.
    """
    rows = np.array([row for row, _ in fresh.values()], dtype=np.intp)
    lo = (rows[:, p - 1] if p > 0 else 0) + min_len
    hi = (rows[:, p + 1] if p + 1 < rows.shape[1] else t_total) - min_len
    counts = np.broadcast_to(hi - lo, len(rows))  # lo, hi scalars when m = 1
    first = np.cumsum(counts) - counts
    if counts.any():
        owner = np.repeat(np.arange(len(rows)), counts)
        cand = np.arange(len(owner)) - (first - lo)[owner]
        cand += cand >= rows[owner, p]
        trials = rows[owner]
        trials[:, p] = cand
        vals = objective(trials)
    moves = {}
    for (key, (row, score)), i0, n in zip(fresh.items(), first, counts):
        move = (row[p], score)
        if n:
            i = i0 + int(np.argmin(vals[i0:i0 + n]))
            if vals[i] < score or (vals[i] == score and cand[i] < row[p]):
                move = (int(cand[i]), vals[i])
        moves[key] = move
    return moves


# Refinement seeds: the best _COARSE_STARTS partitions on a lattice with
# stride T // _COARSE_LATTICE (at least the minimum segment length).
_COARSE_STARTS = 4
_COARSE_LATTICE = 8


def _coarse_lattice(t_total, m, min_len, skip) -> list[tuple[int, ...]]:
    """The partitions other than ``skip`` on a coarse break lattice, in
    lexicographic order: the candidate refinement seeds.

    Every one is feasible: the stride is at least ``min_len`` and the last
    point at most ``T - min_len``, so every segment has ``min_len`` rows.
    """
    stride = max(min_len, t_total // _COARSE_LATTICE)
    lattice = range(stride, t_total - min_len + 1, stride)
    return [combo for combo in combinations(lattice, m) if combo != skip]
