"""Float64 matrix validation and the one L2 normalization of the library.

Matrices are 2-d float64 numpy arrays (row-major). The training core also
takes stacks of them: 3-d arrays whose leading axis indexes independent runs
of one sweep. as_matrix and as_labels validate input at public entry points;
normalize and its backward trust their input. Every operation allocates a
fresh output and is deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import LabelError, ShapeError

# Norms at or below this threshold are treated as zero vectors: zero
# embeddings, zero class columns, and the degenerate hyperplane normals of a
# class with itself or with a collinear class, which downstream code masks.
EPSILON = 1e-12


def as_matrix(values, stack: bool = False) -> np.ndarray:
    """Validate and convert to a 2-d float64 array with positive dimensions;
    with stack=True a 3-d stack of such matrices is accepted too."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise ShapeError(f"expected a 2-d array, got shape {m.shape}")
    if 0 in m.shape:
        raise ShapeError(f"matrix dimensions must be positive, got {m.shape}")
    return m


def as_labels(labels, num_classes: int, stack: bool = False) -> np.ndarray:
    """Validate class labels against [0, num_classes); with stack=True a 2-d
    stack of label rows is accepted too."""
    arr = np.asarray(labels)
    if (arr.ndim != 1 and not (stack and arr.ndim == 2)) or arr.size == 0:
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


def normalize(m: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row (axis=-1) or column (axis=-2) of m to unit Euclidean norm.

    Returns (unit, norms), with norms keeping the reduced axis. Vectors with
    norm <= EPSILON come back as zeros. m is not validated; callers pass a
    checked float64 matrix.
    """
    unit = m * m
    norms = np.sqrt(np.sum(unit, axis=axis, keepdims=True))
    # With every norm above EPSILON the masks below change nothing, so one
    # division gives the same bits. A NaN norm fails the test.
    if np.all(norms > EPSILON):
        return np.divide(m, norms, out=unit), norms
    unit = m / np.where(norms > EPSILON, norms, 1.0)
    return np.where(norms <= EPSILON, 0.0, unit), norms


def normalize_backward(unit, norms, grad_unit, axis: int) -> np.ndarray:
    """Pull a gradient back through normalize(m, axis).

    d/dv (v/|v|) applied to an upstream gradient g is (g - u <u, g>) / |v|
    with u = v/|v|. Vectors treated as zero get a zero gradient.
    """
    grad = unit * grad_unit
    inner = np.sum(grad, axis=axis, keepdims=True)
    np.subtract(grad_unit, np.multiply(unit, inner, out=grad), out=grad)
    if np.all(norms > EPSILON):
        return np.divide(grad, norms, out=grad)
    grad /= np.where(norms > EPSILON, norms, 1.0)
    return np.where(norms <= EPSILON, 0.0, grad)
