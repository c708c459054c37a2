"""Small dense-matrix helpers shared by the generator and evolution code.

Vectorization uses column stacking (Fortran order), so vec(A X B) =
(B^T kron A) vec(X).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import CapacityError

# physical memory, read once: a dense allocation past it ends with the process
# OOM-killed instead of a CapacityError
MEMORY_BUDGET_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def vec(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


def check_budget(what: str, needed: int) -> None:
    """Raise CapacityError, before anything is allocated, when ``needed``
    bytes would not fit in physical memory."""
    if needed > MEMORY_BUDGET_BYTES:
        raise CapacityError(
            f"{what} needs {needed} bytes, over the budget of "
            f"{MEMORY_BUDGET_BYTES} bytes (physical memory)"
        )


def check_dense_budget(what: str, dim: int, matrices: int = 1) -> None:
    """check_budget for ``matrices`` complex dim x dim arrays."""
    check_budget(f"{what} at N = {dim}", 16 * matrices * dim * dim)  # complex128


def hermitian_deviation(mat: np.ndarray) -> float:
    return float(np.abs(mat - mat.conj().T).max())


def spectral_norm(mat: np.ndarray, hermitian: bool = False) -> float:
    """Operator (largest singular value) norm."""
    if hermitian:
        return float(np.abs(np.linalg.eigvalsh(mat)).max())
    return float(np.linalg.norm(mat, 2))


def random_hermitian_stack(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) random Hermitian matrices (G + G^dag) / 2, G with
    standard normal real and imaginary parts, drawn real part first."""
    parts = rng.normal(size=(count, 2, dim, dim))
    g = parts[:, 0] + 1j * parts[:, 1]
    return (g + g.conj().swapaxes(-1, -2)) / 2


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of :func:`random_hermitian_stack`."""
    return random_hermitian_stack(dim, 1, rng)[0]
