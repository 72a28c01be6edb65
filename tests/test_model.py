import numpy as np
import pytest
from numpy.testing import assert_allclose

from steinbreak import (
    DimensionMismatch,
    InvalidPartition,
    Partition,
    RegressionData,
    Restriction,
    RestrictionRankDeficient,
    block_restriction,
    build_design,
    load_regression_csv,
    write_regression_csv,
)


def test_build_design_scalar_two_segments():
    data = RegressionData(y=np.zeros(4), z=np.ones((4, 1)))
    design = build_design(data, Partition((2,)))
    expected = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert_allclose(design.zbar, expected)


def test_build_design_no_breaks_is_raw_matrix():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(7, 3))
    data = RegressionData(y=np.zeros(7), z=z)
    design = build_design(data, Partition(()))
    assert_allclose(design.zbar, z)


def test_design_gram_block_matches_direct_sum():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(6, 2))
    data = RegressionData(y=np.zeros(6), z=z)
    design = build_design(data, Partition((3,)))
    gram = design.zbar.T @ design.zbar
    block1 = gram[:2, :2]
    direct = sum(np.outer(z[t], z[t]) for t in range(3))
    assert_allclose(block1, direct, rtol=1e-12)
    # off-diagonal blocks are exactly zero
    assert_allclose(gram[:2, 2:], 0.0)


def test_partition_validation():
    with pytest.raises(InvalidPartition):
        Partition((3, 3))
    with pytest.raises(InvalidPartition):
        Partition((0, 2))
    data = RegressionData(y=np.zeros(4), z=np.ones((4, 1)))
    with pytest.raises(InvalidPartition):
        build_design(data, Partition((4,)))  # break must be < T


def test_segment_bookkeeping():
    part = Partition((3, 7))
    assert part.m == 2
    assert part.segments(10) == [(0, 3), (3, 7), (7, 10)]
    assert part.bounds(10) == (0, 3, 7, 10)


def test_regression_data_validation():
    with pytest.raises(DimensionMismatch):
        RegressionData(y=np.zeros(3), z=np.ones((4, 1)))
    with pytest.raises(DimensionMismatch):
        RegressionData(y=np.array([1.0, np.nan]), z=np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        RegressionData(y=np.zeros(1), z=np.ones((1, 1)))


def test_stacked_ssr_equals_segment_ssr_sum():
    # block diagonality: one stacked fit == independent per-segment fits
    rng = np.random.default_rng(4)
    for seed in range(5):
        r = np.random.default_rng(seed)
        t_total = 24
        z = r.normal(size=(t_total, 2))
        y = r.normal(size=t_total)
        data = RegressionData(y=y, z=z)
        part = Partition((8, 16))
        design = build_design(data, part)
        beta, *_ = np.linalg.lstsq(design.zbar, y, rcond=None)
        stacked = float(np.sum((y - design.zbar @ beta) ** 2))
        per_segment = 0.0
        for s, e in part.segments(t_total):
            b, *_ = np.linalg.lstsq(z[s:e], y[s:e], rcond=None)
            per_segment += float(np.sum((y[s:e] - z[s:e] @ b) ** 2))
        assert abs(stacked - per_segment) <= 1e-10 * max(per_segment, 1.0)
    del rng


def test_restriction_rank_check():
    mat = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])  # row 2 = 2 * row 1
    with pytest.raises(RestrictionRankDeficient):
        Restriction(matrix=mat, rhs=np.zeros(2))
    with pytest.raises(RestrictionRankDeficient):
        Restriction(matrix=np.ones((3, 2)), rhs=np.zeros(3))


def test_restriction_ignores_the_sign_of_zeros():
    # case 1's restriction as once written, with ten -0.0 entries
    unit = np.eye(6)
    signed = np.column_stack(
        [unit[:, 0], unit[:, 1], unit[:, 2], unit[:, 3],
         -unit[:, 0], -unit[:, 1], unit[:, 4], unit[:, 5]]
    )
    assert np.signbit(signed[signed == 0.0]).sum() == 10
    flipped = Restriction(matrix=signed, rhs=-np.zeros(6))
    plain = Restriction(matrix=signed + 0.0, rhs=np.zeros(6))
    assert not np.signbit(flipped.matrix[flipped.matrix == 0.0]).any()
    assert flipped.matrix.tobytes() == plain.matrix.tobytes()
    assert flipped.rhs.tobytes() == plain.rhs.tobytes()
    for a, b in zip(flipped.segment_components(2), plain.segment_components(2), strict=True):
        assert a.segments == b.segments
        assert a.null.tobytes() == b.null.tobytes() and a.d0.tobytes() == b.d0.tobytes()


def test_block_restriction_rows_in_order():
    restr = block_restriction(2, 2, [("zero", 3, (2,)), ("equal", 1, 2), ("zero", 1)])
    np.testing.assert_array_equal(
        restr.matrix,
        [
            [0, 0, 0, 0, 0, 1],
            [1, 0, -1, 0, 0, 0],
            [0, 1, 0, -1, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
        ],
    )
    np.testing.assert_array_equal(restr.rhs, np.zeros(5))
    for bad in ([("zero", 4)], [("zero", 0)], [("zero", 1, (3,))], [("equal", 1, 4)], [("same", 1, 2)]):
        with pytest.raises(DimensionMismatch):
            block_restriction(2, 2, bad)
    with pytest.raises(RestrictionRankDeficient):
        block_restriction(2, 2, [("equal", 2, 2)])
    for no_rows in ([], [("zero", 1, ())]):
        with pytest.raises(DimensionMismatch):
            block_restriction(2, 2, no_rows)


def test_segment_components_of_the_canned_and_trend_restrictions():
    from steinbreak.cli import restriction_from_spec
    from steinbreak.simulation import build_case1, build_case2

    # (segments, null width) per component, in order of the first segment
    expected = {
        "case1": (build_case1(100, n_reps=1).restriction, 2, [((0, 2), 2), ((1,), 0), ((3,), 0)]),
        "case2": (build_case2(100, n_reps=1).restriction, 5, [((0, 2), 5), ((1,), 4), ((3,), 3), ((4,), 5)]),
        "linear-trend": (
            restriction_from_spec({"pattern": "linear-trend"}, 2, 4), 4, [((0,), 2), ((1,), 2), ((2,), 2)]
        ),
    }
    for label, (restr, q, layout) in expected.items():
        components = restr.segment_components(q)
        assert [(c.segments, c.null.shape[1]) for c in components] == layout, label
        assert restr.segment_components(q) is components
        for comp in components:
            assert comp.null.shape[0] == comp.d0.shape[0] == len(comp.segments) * q
            assert not comp.d0.any(), label
    # segment 5 of case 2 is touched by no row: the identity, d0 = 0
    free = build_case2(100, n_reps=1).restriction.segment_components(5)[3]
    assert np.array_equal(free.null, np.eye(5))


def test_segment_components_assemble_the_whole_null_form():
    # the components' null bases, placed in their segments' columns, are
    # an orthonormal basis of ker(R), and their d0 solve R d = r
    from helpers import segment_sparse_restriction

    rng = np.random.default_rng(41)
    for _ in range(60):
        m, q = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        restr = segment_sparse_restriction(rng, m, q)
        n = (m + 1) * q
        blocks, d0 = [], np.zeros(n)
        for comp in restr.segment_components(q):
            cols = np.concatenate([np.arange(p * q, (p + 1) * q) for p in comp.segments])
            block = np.zeros((n, comp.null.shape[1]))
            block[cols] = comp.null
            blocks.append(block)
            d0[cols] = comp.d0
        null = np.hstack(blocks)
        assert null.shape[1] == n - restr.k
        assert_allclose(null.T @ null, np.eye(n - restr.k), atol=1e-12)
        assert_allclose(restr.matrix @ null, 0.0, atol=1e-12)
        assert_allclose(restr.matrix @ d0, restr.rhs, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        Restriction(matrix=np.eye(3), rhs=np.zeros(3)).segment_components(2)


def test_restriction_k_and_dims():
    restr = Restriction(matrix=np.eye(3), rhs=np.zeros(3))
    assert restr.k == 3
    with pytest.raises(DimensionMismatch):
        restr.check_dims(4)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    data = RegressionData(y=rng.normal(size=9), z=rng.normal(size=(9, 2)))
    path = tmp_path / "series.csv"
    write_regression_csv(path, data)
    loaded = load_regression_csv(path)
    assert_allclose(loaded.y, data.y)
    assert_allclose(loaded.z, data.z)


def test_csv_schema_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("time,y,z1\n1,0.0,1.0\n")
    with pytest.raises(DimensionMismatch):
        load_regression_csv(bad_header)
    gap = tmp_path / "bad2.csv"
    gap.write_text("t,y,z1\n1,0.0,1.0\n3,0.0,1.0\n")
    with pytest.raises(DimensionMismatch):
        load_regression_csv(gap)


def test_immutability():
    data = RegressionData(y=np.zeros(4), z=np.ones((4, 1)))
    with pytest.raises(ValueError):
        data.y[0] = 1.0
    design = build_design(data, Partition((2,)))
    with pytest.raises(ValueError):
        design.zbar[0, 0] = 5.0
