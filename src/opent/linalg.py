"""Dense complex linear algebra primitives used throughout the package.

All matrices are plain numpy arrays of complex128 in row-major (C) order.
These wrappers exist to pin down the contracts the rest of the code relies
on: shape checks, descending singular values, ascending real eigenvalues,
and explicit Hermiticity validation before eigendecompositions.

It also holds the one abort rule of a run. The unitarity of U_T^n, U_T's
parity and exchange symmetries, the transpose symmetry of its parity blocks
and the sum rule sum(lambda) = N M are each measured as a defect; a defect
that is not at most DRIFT_TOL, a nan included, ends its point with one line
`<what> <defect> exceeds 1e-08 at <where>`. `require` writes and raises
that line; `UnitarityDriftError`, which `kickedtop.power_sequence` raises
with its power n and residual, reads the same.
"""

from __future__ import annotations

import numpy as np

# Hermiticity check threshold, relative to the largest entry magnitude.
HERMITICITY_RTOL = 1e-10
# Row bands that a banded check, build or gather splits a matrix into.
ROW_BANDS = 8
# The abort bound of every invariant check.
DRIFT_TOL = 1e-8


def require(defect, what, where) -> None:
    """Raise RuntimeError(`<what> <defect> exceeds 1e-08 at <where>`) unless defect <= DRIFT_TOL; nan fails."""
    if not defect <= DRIFT_TOL:
        raise RuntimeError(f"{what} {defect:.3e} exceeds {DRIFT_TOL:g} at {where}")


class UnitarityDriftError(RuntimeError):
    """Raised when a power of a unitary loses unitarity; `args` is (n, residual), so it pickles."""

    def __init__(self, n: int, residual: float):
        super().__init__(n, residual)
        self.n, self.residual = n, residual

    def __str__(self) -> str:  # the abort line of `require`
        return f"unitarity residual {self.residual:.3e} exceeds {DRIFT_TOL:g} at power n={self.n}"


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


def row_bands(h: int, least: int = 1) -> list[slice]:
    """At most ROW_BANDS slices over range(h), of ceil(h / ROW_BANDS) rows but at least `least`.

    The last may be shorter; where it would hold fewer than `least` rows, it joins the one before.
    """
    size = max(least, -(-h // ROW_BANDS))
    starts = [*range(0, h, size)]
    if len(starts) > 1 and h - starts[-1] < least:
        del starts[-1]
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [h])]


def matmul_in_place(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b written over the matrix a by row bands, and returned.

    Only one band of the product is held at a time. Each band has at least two rows, unless a
    has one: numpy takes a one-row band as a gemv, which could round otherwise than the gemm of
    the whole product.
    """
    for rows in row_bands(len(a), least=2):
        a[rows] = a[rows] @ b
    return a


def unitarity_residual(u) -> float:
    """Max-norm of u^dag u - I over a square matrix u.

    A drift monitor for repeated products, one Gram product per call;
    `kickedtop.power_sequence` calls it only where its rounding bound cannot
    certify a power. It goes a row band at a time; np.max keeps a nan in any.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    def defect(rows: slice) -> float:
        g = u[:, rows].conj().T @ u  # rows `rows` of u^dag u
        np.einsum("ii->i", g[:, rows])[...] -= 1  # takes 1 off the diagonal (a writeable view) in place
        return np.abs(g).max()
    return float(np.max([defect(rows) for rows in row_bands(len(u))], initial=0.0))  # 0 x 0: no defect


def transpose_defect(matrices) -> float:
    """Max |u - u^T| over the square matrices u, a row band at a time; np.max keeps a nan in any."""
    return float(np.max([np.abs(u[rows] - u[:, rows].T).max()
                         for u in matrices for rows in row_bands(len(u))]))
