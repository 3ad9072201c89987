import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embalign import PrepStats, apply_prep, fit_prep, l2_normalize, prep, score_matrix
from embalign.errors import ConsistencyError, DataError, DegenerateRowError
from embalign.prep import center


def test_normalize_345():
    out = l2_normalize([[3.0, 4.0]])
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)


def test_normalize_axis():
    out = l2_normalize([[0.0, 0.0, 5.0]])
    assert np.array_equal(out, [[0.0, 0.0, 1.0]])


def test_normalize_zero_row():
    with pytest.raises(DegenerateRowError) as exc:
        l2_normalize([[1.0, 1.0], [0.0, 0.0]])
    assert exc.value.row_index == 1


def test_normalize_tiny_row_has_unit_norm():
    # squares of 1e-160 underflow: the row is rescaled before it is divided
    out = l2_normalize([[1e-160, 2e-160, 3e-160]])
    assert abs(np.linalg.norm(out) - 1.0) < 1e-15
    assert np.allclose(out, np.array([[1.0, 2.0, 3.0]]) / np.sqrt(14.0), rtol=0, atol=1e-15)


@pytest.mark.parametrize("value", [1e-200, 1e200])
def test_normalize_row_with_out_of_range_norm(value):
    # the norm of these rows underflows to 0 or overflows to inf
    out = l2_normalize([[value, value], [3.0, 4.0]])
    assert np.allclose(out, [[0.5 ** 0.5, 0.5 ** 0.5], [0.6, 0.8]], rtol=0, atol=1e-15)
    assert np.allclose(score_matrix([[value, value]], [[1.0, 1.0], [1.0, -1.0]]),
                       [[1.0, 0.0]], rtol=0, atol=1e-15)


def test_normalize_zero_row_among_tiny_rows():
    with pytest.raises(DegenerateRowError) as exc:
        l2_normalize([[1e-200, 0.0], [-0.0, 0.0]])
    assert exc.value.row_index == 1
    with pytest.raises(DegenerateRowError):
        score_matrix([[1.0, 0.0]], [[1e-200, 0.0], [0.0, 0.0]])


def test_normalize_in_range_rows_keep_the_plain_division():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((60, 7)) * 10.0 ** rng.integers(-80, 80, (60, 1))
    want = rows / np.linalg.norm(rows, axis=1)[:, None]
    assert np.array_equal(l2_normalize(rows), want)


def former_l2_normalize(rows):
    """The normalization before it made one float64 array and took norms in row blocks."""
    rows = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    odd = np.flatnonzero((norms < 2.0 ** -300) | (norms > 2.0 ** 300))
    if not odd.size:
        return rows / norms[:, None]
    peak = np.abs(rows[odd]).max(axis=1, initial=0.0)
    zero = odd[peak == 0.0]
    if zero.size:
        raise DegenerateRowError(int(zero[0]))
    scaled = np.ldexp(rows[odd], -np.frexp(peak)[1][:, None])
    norms[odd] = 1.0
    out = rows / norms[:, None]
    out[odd] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return out


@st.composite
def mixed_scale_rows(draw):
    """Rows of one dtype, each at its own power of ten (norms that under- or overflow too)."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rows = draw(arrays(np.float64, (n, d), elements=st.floats(-1.0, 1.0)))
    if dtype is np.float64:
        powers = st.sampled_from([-200, -160, 0, 30, 160, 200])
        exps = draw(arrays(np.int64, (n, 1), elements=powers))
        rows = rows * 10.0 ** exps
    return rows.astype(dtype)


@given(mixed_scale_rows(), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_normalize_equals_former_expression(rows, block):
    try:
        want = former_l2_normalize(rows)
    except DegenerateRowError as exc:
        with pytest.raises(DegenerateRowError) as got:
            l2_normalize(rows)
        assert got.value.row_index == exc.row_index
        return
    before = rows.copy()
    with mock.patch.object(prep, "_NORM_BLOCK", block):  # many row blocks on small rows
        got = l2_normalize(rows)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert rows.tobytes() == before.tobytes()  # the caller's rows are not divided in place


@given(mixed_scale_rows(), st.integers(1, 9), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_unit_rows_of_leading_columns_are_those_of_their_copy(rows, k, block):
    # the unaligned baseline normalizes a view of each side's first k columns; a row
    # whose k columns are all zero raises, whatever its other columns hold
    rows = rows.astype(np.float64)
    k = min(k, rows.shape[1])
    try:
        want = former_l2_normalize(np.ascontiguousarray(rows[:, :k]))
    except DegenerateRowError as exc:
        with pytest.raises(DegenerateRowError) as got:
            prep._unit_rows(rows[:, :k])
        assert got.value.row_index == exc.row_index
        return
    with mock.patch.object(prep, "_NORM_BLOCK", block):
        got = prep._unit_rows(rows[:, :k])
    assert got.tobytes() == want.tobytes()


def test_normalize_blocks_keep_the_norm_bits_at_full_size():
    rows = np.random.default_rng(6).standard_normal((700, 512)).astype(np.float32)
    assert 700 * 512 > 4 * prep._NORM_BLOCK
    assert l2_normalize(rows).tobytes() == former_l2_normalize(rows).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalize_holds_one_float64_copy(dtype):
    n, d = 2000, 256
    rows = np.random.default_rng(7).standard_normal((n, d)).astype(dtype)
    tracemalloc.start()
    try:
        out = l2_normalize(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one n x d float64 array, the norms, and the squares of one row block
    assert peak <= (n * d + n + prep._NORM_BLOCK) * 8 + 2**16
    assert out.shape == (n, d)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
def test_normalize_refuses_rows_that_are_not_2d(shape):
    with pytest.raises(ConsistencyError, match="2-D"):
        l2_normalize(np.ones(shape))


def test_fit_prep_refuses_rows_that_are_not_2d():
    with pytest.raises(ConsistencyError, match="2-D"):
        fit_prep(np.ones(3), np.ones(3))
    with pytest.raises(ConsistencyError, match="2-D"):
        fit_prep(np.ones((3, 2)), np.ones(3))


def test_fit_prep_two_point_mean():
    stats = fit_prep([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(stats.mu_x, [0.5, 0.5])


def test_fit_prep_singleton():
    stats = fit_prep([[0.6, 0.8]], [[1.0]])
    assert np.allclose(stats.mu_x, [0.6, 0.8])
    assert np.allclose(stats.mu_y, [1.0])


def test_fit_prep_max_rule():
    stats = fit_prep(np.ones((3, 2)) / np.sqrt(2), np.ones((3, 5)) / np.sqrt(5))
    # the widths are those of the means; each side pads to the wider one
    assert (stats.d_a, stats.d_b, stats.n_train) == (2, 5, 3)
    for rows, side in ((np.ones((1, 2)), "source"), (np.ones((1, 5)), "target")):
        assert apply_prep(rows, stats, side).shape == (1, 5)


@pytest.mark.parametrize("mu_x, mu_y, error", [
    (np.zeros((2, 2)), np.zeros(3), ConsistencyError),
    (np.zeros(2), np.float64(0.0), ConsistencyError),
    (np.array([0.0, np.nan]), np.zeros(3), DataError),
    (np.zeros(2), np.array([np.inf]), DataError),
])
def test_prep_stats_refuse_bad_means(mu_x, mu_y, error):
    with pytest.raises(error):
        PrepStats(mu_x, mu_y, 1)


def test_fit_prep_row_mismatch():
    with pytest.raises(ConsistencyError):
        fit_prep(np.ones((2, 2)), np.ones((3, 2)))


def test_apply_prep_subtraction():
    stats = fit_prep([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    out = apply_prep([[1.0, 0.0]], stats, "source")
    assert np.allclose(out, [[0.5, -0.5]])


def test_apply_prep_padding():
    stats = fit_prep(np.array([[1.0, 0.0]]), np.ones((1, 4)) / 2.0)
    out = apply_prep([[1.0, 0.0]], stats, "source")
    assert out.shape == (1, 4)
    assert np.array_equal(out, [[0.0, 0.0, 0.0, 0.0]])


def test_apply_prep_side_mismatch():
    stats = fit_prep(np.ones((2, 2)) / np.sqrt(2), np.ones((2, 5)) / np.sqrt(5))
    with pytest.raises(ConsistencyError):
        apply_prep(np.ones((2, 5)), stats, "source")
    with pytest.raises(ConsistencyError):
        center(np.ones((2, 5)), stats, "source")
    with pytest.raises(ConsistencyError):
        center(np.ones((2, 2)), stats, "query")


def test_train_rows_centered_and_padded():
    rng = np.random.default_rng(5)
    x = l2_normalize(rng.standard_normal((40, 6)))
    y = l2_normalize(rng.standard_normal((40, 9)))
    stats = fit_prep(x, y)
    xp = apply_prep(x, stats, "source")
    assert np.abs(xp[:, :6].mean(axis=0)).max() < 1e-10
    assert np.array_equal(xp[:, 6:], np.zeros((40, 3)))
    assert center(x, stats, "source").tobytes() == xp[:, :6].tobytes()
    assert center(y, stats, "target").tobytes() == apply_prep(y, stats, "target").tobytes()


@given(
    arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
    st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_apply_prep_affine(rows, alpha):
    stats = fit_prep(np.full((2, 4), 0.5), np.full((2, 4), 0.5))
    r1, r2 = rows[:1], rows[1:2]
    mixed = apply_prep(alpha * r1 + (1 - alpha) * r2, stats, "source")
    combo = alpha * apply_prep(r1, stats, "source") + (1 - alpha) * apply_prep(
        r2, stats, "source"
    )
    assert np.allclose(mixed, combo, atol=1e-9)


@given(arrays(np.float64, (5, 3), elements=st.floats(-100, 100)))
@settings(max_examples=50, deadline=None)
def test_normalize_idempotent(rows):
    norms = np.linalg.norm(rows, axis=1)
    if (norms == 0).any() or not np.all(np.isfinite(norms)):
        return
    once = l2_normalize(rows)
    twice = l2_normalize(once)
    assert np.abs(np.linalg.norm(once, axis=1) - 1.0).max() < 1e-12
    assert np.abs(twice - once).max() < 1e-12
