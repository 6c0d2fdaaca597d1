"""Sparse products on scipy's compiled kernels, without importing
scipy.sparse (60-80 ms and 9 MB per process): scipy's private extension
scipy.sparse._sparsetools loads from its file. scipy.sparse calls the same
kernels on the same arrays, so every bit is as it would give it."""

import importlib.machinery
import importlib.util
import os

import numpy as np


def _load_sparsetools():
    """scipy.sparse._sparsetools from its file, found without importing
    scipy; through scipy.sparse where the file is not found."""
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                found = importlib.util.spec_from_file_location("scipy.sparse._sparsetools", path)
                module = importlib.util.module_from_spec(found)  # by an ExtensionFileLoader
                found.loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools
    return _sparsetools


_sparsetools = _load_sparsetools()


class CSR:
    """A float64 matrix as scipy.sparse.csr_matrix((data, indices, indptr), shape) holds it."""

    def __init__(self, indptr, indices, data, shape):
        self.indptr, self.indices, self.data, self.shape = indptr, indices, data, shape

    @classmethod
    def from_coo(cls, rows, cols, data, shape):
        """coo_matrix((data, (rows, cols)), shape).tocsr() where no (row, col) repeats."""
        index = np.int32 if max(*shape, len(data)) < 2**31 else np.int64  # as scipy picks
        M = cls(np.empty(shape[0] + 1, index), np.empty(len(data), index), np.empty(len(data)),
                shape)
        _sparsetools.coo_tocsr(*shape, len(data), rows.astype(index), cols.astype(index), data,
                               M.indptr, M.indices, M.data)
        _sparsetools.csr_sort_indices(shape[0], M.indptr, M.indices, M.data)
        return M

    @property
    def nnz(self):
        return len(self.data)

    def __matmul__(self, X):
        """self @ X for a 1-D or 2-D float64 X."""
        return self.add_product(X, np.zeros((self.shape[0], *X.shape[1:])))

    def add_product(self, X, out):
        """out += self @ X into a C-contiguous float64 out, row by row in entry order."""
        if X.shape[0] != self.shape[1] or out.shape != (self.shape[0], *X.shape[1:]):
            raise ValueError(f"cannot multiply a {self.shape} matrix by {X.shape} into {out.shape}")
        if X.ndim == 1:
            _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices, self.data, X, out)
        else:
            _sparsetools.csr_matvecs(*self.shape, X.shape[1], self.indptr, self.indices,
                                     self.data, X.ravel(), out.ravel())
        return out
