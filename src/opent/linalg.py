"""Dense complex linear algebra primitives used throughout the package.

All matrices are plain numpy arrays of complex128 in row-major (C) order.
These wrappers exist to pin down the contracts the rest of the code relies
on: shape checks, descending singular values, ascending real eigenvalues,
and explicit Hermiticity validation before eigendecompositions.
"""

from __future__ import annotations

import numpy as np

# Hermiticity check threshold, relative to the largest entry magnitude.
HERMITICITY_RTOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def kron(a, b) -> np.ndarray:
    return np.kron(as_matrix(a), as_matrix(b))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dag b)."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # vdot conjugates its first argument and sums entrywise, which is Tr(a^dag b)
    return complex(np.vdot(a, b))


def singular_values(a) -> np.ndarray:
    """Singular values of a matrix, descending."""
    a = as_matrix(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed to converge on shape {a.shape}, |a|_max={np.abs(a).max():g}"
        ) from exc


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with real eigenvalues w ascending and unitary v whose
    columns are the eigenvectors. Raises if the input is not Hermitian
    within HERMITICITY_RTOL relative to its largest entry.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"eigh requires a square matrix, got {h.shape}")
    scale = np.abs(h).max()
    if scale > 0 and np.abs(h - h.conj().T).max() > HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return w, v


def unitarity_residual(u) -> float:
    """Max-norm of u^dag u - I over a matrix or a stack (..., n, n) of them.

    A drift monitor for repeated products, one Gram product per call;
    `kickedtop.power_sequence` calls it only where its rounding bound cannot
    certify a power. A stack goes one layer at a time; np.max keeps a nan in any layer.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    def defect(a: np.ndarray) -> float:
        g = a.conj().T @ a
        np.einsum("ii->i", g)[...] -= 1  # takes 1 off the diagonal (a writeable view) in place
        return np.abs(g).max()
    return float(np.max([defect(a) for a in u.reshape(-1, *u.shape[-2:])]))
