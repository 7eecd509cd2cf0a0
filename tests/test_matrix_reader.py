"""The numpy matrix reader against the SciPy reader it replaced.

``multinet._nonnegative_csr`` reads every U, Y and supra-adjacency input
without SciPy. The oracle below is the reader it replaced: the input through
``scipy.sparse.coo_array``, then :func:`canonical_csr`. A COO triple whose
indices fit in the expected shape is read as ``load_dataset`` read its
records, ``coo_array(triple, shape=shape)``. Both must give the same arrays,
bit for bit and dtype for dtype, or the same exception class and message.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from enflow.errors import ValidationError
from enflow.multinet import _nonnegative_csr, canonical_csr


def scipy_reader(matrix, what, shape=None):
    coo_shape = None
    if isinstance(matrix, tuple) and shape is not None:
        try:
            fit = [operator.index(max(idx, default=-1)) + 1 for idx in matrix[1]]
        except TypeError:
            fit = []
        coo_shape = shape if len(fit) == 2 and all(map(operator.le, fit, shape)) else None
    try:
        m = sparse.coo_array(matrix, shape=coo_shape, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not a matrix: {exc}") from None
    if m.ndim != 2 or (shape is not None and m.shape != shape):
        raise ValidationError(f"{what} shape {m.shape}, expected {shape or 'two axes'}")
    if m.nnz and (not np.all(np.isfinite(m.data)) or m.data.min() < 0):
        raise ValidationError(f"{what} must be finite and >= 0")
    key = np.ravel_multi_index((m.row, m.col), m.shape)
    return (*canonical_csr(key, m.data, m.shape, what), m.shape)


def outcome(reader, matrix, shape):
    """The arrays (dtype, shape and bytes) and shape read, or the exception raised."""
    try:
        *arrays, size = reader(matrix, "m", shape)
    except Exception as exc:
        return type(exc), str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], tuple(size)


def assert_reads_as_scipy(matrix, shape=None):
    assert outcome(_nonnegative_csr, matrix, shape) == outcome(scipy_reader, matrix, shape)


SPECIAL = [0.0, -0.0, 1.5, 1e-300, 1e308, float("nan"), float("inf"), float("-inf"), -2.0]


@st.composite
def dense_arrays(draw):
    """Small dense arrays of mostly zeros and ordinary weights, sometimes
    -0.0, NaN, +-inf or a negative entry; float64 or int64."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    weight = st.sampled_from([0.0, 0.0, 0.5, 3.0, 1e9]) | st.sampled_from(SPECIAL)
    values = draw(st.lists(weight, min_size=rows * cols, max_size=rows * cols))
    array = np.array(values, dtype=np.float64).reshape(rows, cols)
    if draw(st.booleans()) and np.all(np.abs(array) < 2.0**62):
        array = array.astype(np.int64)
    return array


@settings(max_examples=300, deadline=None)
@given(array=dense_arrays(), expect=st.booleans())
def test_dense_arrays_read_as_scipy_read_them(array, expect):
    assert_reads_as_scipy(array, array.shape if expect else None)
    assert_reads_as_scipy(array.tolist(), array.shape if expect else None)


@st.composite
def coo_triples(draw):
    """(data, (row, col)) with keys repeated 1-3 times in any order, weights
    of zero, -0.0, ordinary or special values; and a shape to expect: the one
    the indices imply, a larger one or a smaller one."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(1, 3))
    weight = st.sampled_from([0.0, 0.25, 1 / 3, 7.0]) | st.sampled_from(SPECIAL)
    keys = draw(st.lists(cell, min_size=1, max_size=8))
    entries = draw(st.permutations([(r, c) for r, c, k in keys for _ in range(k)]))
    data = [draw(weight) for _ in entries]
    row, col = (np.array(axis, dtype=draw(st.sampled_from([np.int32, np.int64])))
                for axis in zip(*entries))
    implied = (int(row.max()) + 1, int(col.max()) + 1)
    shape = draw(st.sampled_from([None, implied, (rows + 1, cols), (rows, 5),
                                  (implied[0] - 1, implied[1])]))
    return (data, (row, col)), shape


@settings(max_examples=300, deadline=None)
@given(case=coo_triples())
def test_coo_triples_and_scipy_inputs_read_as_scipy_read_them(case):
    triple, shape = case
    assert_reads_as_scipy(triple, shape)
    assert_reads_as_scipy((np.array(triple[0]), triple[1]), shape)
    coo = sparse.coo_array(triple, shape=(5, 5))
    for matrix in (coo, coo.tocsr(), sparse.coo_matrix(coo), coo.tocsr().tocsc()):
        assert_reads_as_scipy(matrix, shape)
        assert_reads_as_scipy(matrix)


def tangled_csr():
    """[[0, 2], [1, 0]] with unsorted indices, a stored zero and a duplicate."""
    return sparse.csr_array((np.array([2.0, 0.0, 1.0, 0.5]), np.array([1, 0, 0, 0]),
                             np.array([0, 2, 4])), shape=(2, 2))


@pytest.mark.parametrize("matrix", [
    tangled_csr(), tangled_csr().tocoo(), sparse.csr_matrix(tangled_csr()),
    sparse.csr_array((3, 2)), sparse.coo_array(np.ones(3)),
    np.ones(3), [1.0, 0.0], np.ones((2, 2, 2)), np.zeros((1, 1, 0)),
    [["a", "b"]], np.array([["1.5", "0"]]), [[1.0, "x"]], [[1, 2], [3]], [[1.0, None]],
    np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 0)), [[]], [],
    np.array([[True, False]]), np.array([[1 + 0j, 0]]), np.matrix([[0.0, 1.0]]),
    ([1.0], ([0],)), ([1.0], ([0], [0], [0])), ([], ([], [])), ([1.0, 1.0], ([1, -1], [0, 0])),
    ([1.0], ([0.0], [1.5])), ([1.0, 2.0], ([0], [1])), (["a"], ([0], [0])), ([1.0], 5),
    (np.ones(2), np.array([1, 0]), np.array([0, 1, 2])),
], ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("shape", [None, (2, 2), (0, 0), (1, 2)])
@pytest.mark.filterwarnings("ignore:Casting complex values to real")
def test_edge_inputs_read_as_scipy_read_them(matrix, shape):
    assert_reads_as_scipy(matrix, shape)


def test_the_input_is_never_changed():
    m, array = tangled_csr(), np.array([[0.0, 2.0], [2.0, 0.0]])
    triple = (np.array([1.0, 2.0]), (np.array([1, 0]), np.array([0, 1])))
    for matrix in (m, array, triple):
        _nonnegative_csr(matrix, "m", (2, 2))
    assert m.data.tolist() == [2.0, 0.0, 1.0, 0.5] and m.indices.tolist() == [1, 0, 0, 0]
    assert array.tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert triple[0].tolist() == [1.0, 2.0] and triple[1][0].tolist() == [1, 0]


@pytest.mark.parametrize("matrix, message", [
    # SciPy's message named SciPy, which is no longer involved.
    ("abc", "m is not a matrix: got the scalar 'abc'"),
    (None, "m is not a matrix: got the scalar None"),
    (2.0, "m is not a matrix: got the scalar 2.0"),
    # coo_array read a tuple of ints as the shape of an empty matrix.
    ((2, 2), "m is not a matrix: 'int' object is not iterable"),
    # coo_array said "axis 0 index -1 exceeds matrix dimension 0".
    (([1.0], ([-1], [0])), "m is not a matrix: negative axis 0 index: -1"),
])
def test_inputs_that_read_differently_from_scipy(matrix, message):
    with pytest.raises(ValidationError) as err:
        _nonnegative_csr(matrix, "m", (2, 2))
    assert str(err.value) == message
