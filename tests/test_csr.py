"""ditsgcr.csr against scipy.sparse, which calls the same compiled kernels:
every product and every built matrix must match it bit for bit."""

import importlib.util

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ditsgcr import csr
from ditsgcr.csr import CSR


@st.composite
def products(draw):
    """(indptr, indices, data, shape, X): rows of 0-4 column ids, which may
    be empty and repeat; indices a view into a larger int64 array, as the
    lift's slices of the graph's neighbor ids; data ones or spread-out
    floats; X 1-D or with K = 1 or K > 1 columns, a row slice or a column
    slice of a larger array."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(0, 4), min_size=n_rows, max_size=n_rows))
    nnz = sum(lengths)
    ids = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    offset = draw(st.integers(0, 3))
    indices = np.array([0] * offset + ids, np.int64)[offset:]
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spread(*size):
        return rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)

    data = np.ones(nnz) if draw(st.booleans()) else spread(nnz)
    k = draw(st.sampled_from([None, 1, 3]))  # None: a 1-D operand
    if draw(st.booleans()):  # rows of a larger array, as W[e0:e1]
        X = spread(n_cols + 2, k or 1)[2:]
    else:  # every other column: rows not contiguous
        X = spread(n_cols, 2 * (k or 1))[:, ::2]
    return indptr, indices, data, (n_rows, n_cols), X if k else X[:, 0]


def scipy_product(indptr, indices, data, shape, X):
    return sp.csr_matrix((data, indices, indptr), shape=shape) @ X


@settings(max_examples=300, deadline=None)
@given(products())
def test_products_match_scipy(case):
    indptr, indices, data, shape, X = case
    got = CSR(indptr, indices, data, shape) @ X
    want = scipy_product(*case)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(products(), st.data())
def test_products_added_in_two_parts_match_scipy(case, data):
    # each row's first entries, then the rest, added into one output: the
    # kernel adds into it, so every row sums its entries in order once
    indptr, indices, values, shape, X = case
    lengths = np.diff(indptr)
    firsts = np.array([data.draw(st.integers(0, n)) for n in lengths], np.int64)
    first_ptr = np.concatenate([[0], np.cumsum(firsts)])
    rest_ptr = np.concatenate([[0], np.cumsum(lengths - firsts)])
    place = np.arange(len(indices)) - np.repeat(indptr[:-1], lengths)  # within its row
    in_first = place < np.repeat(firsts, lengths)
    out = np.zeros((shape[0], *X.shape[1:]))
    for ptr, keep in ((first_ptr, in_first), (rest_ptr, ~in_first)):
        CSR(ptr, indices[keep], values[keep], shape).add_product(X, out)
    assert out.tobytes() == scipy_product(*case).tobytes()


@st.composite
def triplets(draw):
    """(rows, cols, data, shape) with no (row, col) twice, in any order."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    cell = st.tuples(st.integers(0, max(n_rows - 1, 0)), st.integers(0, n_cols - 1))
    cells = draw(st.lists(cell, unique=True, max_size=n_rows * n_cols))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(cells), max_size=len(cells)))
    rows, cols = np.array(cells, np.int64).reshape(-1, 2).T
    return rows, cols, np.array(values, dtype=np.float64), (n_rows, n_cols)


@settings(max_examples=300, deadline=None)
@given(triplets())
def test_from_coo_matches_scipy_tocsr(case):
    rows, cols, data, shape = case
    M = CSR.from_coo(rows, cols, data, shape)
    want = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    assert M.shape == want.shape and M.nnz == want.nnz
    for name in ("indptr", "indices", "data"):
        got, expected = getattr(M, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


def test_operand_of_the_wrong_length_is_refused():
    M = CSR(np.array([0, 1]), np.array([0]), np.ones(1), (1, 2))
    for X in (np.ones(3), np.ones((1, 2))):
        with pytest.raises(ValueError, match="cannot multiply"):
            M @ X
    for out in (np.zeros(2), np.zeros((1, 3))):
        with pytest.raises(ValueError, match="cannot multiply"):
            M.add_product(np.ones((2, 2)), out)


def test_fallback_import_gives_the_same_bits(monkeypatch):
    rng = np.random.default_rng(3)
    ptr, ids = np.array([0, 3, 3, 5]), np.array([2, 0, 2, 1, 1])
    data, X = rng.standard_normal(5), rng.standard_normal((3, 4))
    rows, cols = np.array([2, 0, 1, 0]), np.array([1, 2, 0, 0])
    cases = [lambda: CSR(ptr, ids, data, (3, 3)) @ X,
             lambda: CSR(ptr, ids, data, (3, 3)) @ X[:, 1],
             lambda: CSR.from_coo(rows, cols, data[:4], (3, 3)).data]
    want = [f().tobytes() for f in cases]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)  # no file
    monkeypatch.setattr(csr, "_sparsetools", csr._load_sparsetools())
    assert [f().tobytes() for f in cases] == want
