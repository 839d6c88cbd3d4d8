"""Validated float64 matrix operations shared by the library.

Matrices are 2-d float64 numpy arrays (row-major). Every operation
validates shapes explicitly, allocates a fresh output array, and is
deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import LabelError, ShapeError

# Norms at or below this threshold are treated as zero vectors: zero
# embeddings, zero class columns, and the degenerate hyperplane normals of a
# class with itself or with a collinear class, which downstream code masks.
EPSILON = 1e-12


def as_matrix(values) -> np.ndarray:
    """Validate and convert to a 2-d float64 array with positive dimensions."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"matrix dimensions must be positive, got {m.shape}")
    return m


def as_labels(labels, num_classes: int) -> np.ndarray:
    """Validate class labels against [0, num_classes)."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise LabelError(f"labels must be a non-empty 1-d sequence, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise LabelError("labels must be integers")
        arr = cast
    else:
        arr = arr.astype(np.int64)
    if arr.min() < 0 or arr.max() >= num_classes:
        raise LabelError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{arr.min()}, {arr.max()}]"
        )
    return arr


def _check_epsilon(epsilon: float) -> None:
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


def l2_normalize_columns(m, epsilon: float = EPSILON) -> np.ndarray:
    """Scale each column to unit Euclidean norm.

    Columns with norm <= epsilon come back as all zeros instead of raising.
    """
    m = as_matrix(m)
    _check_epsilon(epsilon)
    norms = np.sqrt(np.sum(m * m, axis=0))
    out = m / np.where(norms > epsilon, norms, 1.0)
    out[:, norms <= epsilon] = 0.0
    return out


def l2_normalize_rows(m, epsilon: float = EPSILON) -> np.ndarray:
    """Scale each row to unit Euclidean norm (zero rows stay zero)."""
    m = as_matrix(m)
    _check_epsilon(epsilon)
    norms = np.sqrt(np.sum(m * m, axis=1))
    out = m / np.where(norms > epsilon, norms, 1.0)[:, None]
    out[norms <= epsilon, :] = 0.0
    return out


def matmul(a, b) -> np.ndarray:
    """Standard matrix product with explicit shape validation."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b
