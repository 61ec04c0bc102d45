"""Dense complex linear algebra primitives used throughout the package.

All matrices are plain numpy arrays of complex128 in row-major (C) order.
These wrappers exist to pin down the contracts the rest of the code relies
on: shape checks, descending singular values, ascending real eigenvalues,
and explicit Hermiticity validation before eigendecompositions.

`reversal_split` and `reversal_join` block-diagonalize a matrix that
intertwines two signed reversals. A signed reversal maps basis vector e_i
to s_i e_{D-1-i} with s_i = +-1; its eigenvectors pair e_i with e_{D-1-i},
so the change of basis is a sum and a difference of slices, not a product.
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


def expi_hermitian(h, theta: float) -> np.ndarray:
    """exp(-i * theta * h) for Hermitian h, via eigendecomposition."""
    w, v = eigh(h)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def unitarity_residual(u) -> float:
    """Max-norm of u^dag u - I over a matrix or a stack (..., n, n) of them.

    A drift monitor for repeated products.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    g = u.conj().swapaxes(-1, -2) @ u
    return float(np.abs(g - np.eye(u.shape[-1])).max())


_SQRT_HALF = np.sqrt(0.5)


def _first_eigenvalue(row_signs: np.ndarray, col_signs: np.ndarray) -> complex:
    """Eigenvalue of the first block: 1, or 1j where the reversals square to -1."""
    squares = {row_signs[0] * row_signs[-1], col_signs[0] * col_signs[-1]}
    if len(squares) != 1:
        raise ValueError("the row and column reversals must have the same square")
    return 1.0 if squares.pop() > 0 else 1j


def _block_rows(signs: np.ndarray) -> tuple[int, int]:
    """Rows of each eigenspace: D // 2 pairs, plus the centre of an odd D in the space of its sign."""
    h, odd = divmod(len(signs), 2)
    centre_first = bool(odd) and signs[h] > 0
    return h + int(centre_first), h + int(bool(odd) and not centre_first)


def _pair_coefficients(signs: np.ndarray, phase: complex, ndim: int) -> np.ndarray:
    """phase s_{D-1-k} / sqrt 2 for each pair k, shaped to scale axis 0 of an ndim array."""
    h = len(signs) // 2
    return (phase * _SQRT_HALF * signs[::-1][:h]).reshape((h,) + (1,) * (ndim - 1))


def _empty_along(shape: tuple, axis: int, size: int) -> np.ndarray:
    """C-ordered array of `shape` with `size` entries along `axis`, viewed with that axis first."""
    return np.moveaxis(np.empty(shape[:axis] + (size,) + shape[axis + 1:], np.complex128), axis, 0)


def _fold(a: np.ndarray, signs: np.ndarray, phase: complex, axis: int):
    """Coordinates of `a` along `axis` in the two eigenspaces of a signed reversal.

    Pair k of the first space is (e_k + conj(phase) s_{D-1-k} e_{D-1-k}) / sqrt 2 and
    of the second the same with a minus sign; phase = conj(mu) gives V_mu^dag a on
    rows and phase = mu gives a V_mu on columns. The centre of an odd D is the last
    coordinate of the space it lies in.
    """
    shape = a.shape
    a = np.moveaxis(a, axis, 0)
    h = len(signs) // 2
    first, second = (_empty_along(shape, axis, rows) for rows in _block_rows(signs))
    for half in (first, second):
        if len(half) > h:
            half[h] = a[h]
    # first = top / sqrt 2 + coef bottom and second = top / sqrt 2 - coef bottom,
    # computed in the outputs without a temporary
    np.multiply(a[:h], _SQRT_HALF, out=first[:h])
    np.multiply(a[::-1][:h], _pair_coefficients(signs, phase, a.ndim), out=second[:h])
    np.subtract(first[:h], second[:h], out=second[:h])
    first[:h] *= 2
    first[:h] -= second[:h]
    return np.moveaxis(first, 0, axis), np.moveaxis(second, 0, axis)


def _unfold(first, second, signs: np.ndarray, phase: complex, axis: int) -> np.ndarray:
    """Inverse of `_fold` with the same phase; a half given as None counts as zero."""
    h = len(signs) // 2
    shape = (first if second is None else second).shape
    out = _empty_along(shape, axis, len(signs))
    top, bottom = out[:h], out[::-1][:h]
    halves = [None if x is None else np.moveaxis(x, axis, 0) for x in (first, second)]
    if len(signs) % 2:
        out[h] = 0
        for x in halves:
            if x is not None and len(x) > h:
                out[h] = x[h]
    coef = _pair_coefficients(signs, np.conj(phase), out.ndim)
    f, g = halves
    if f is None or g is None:
        x, coef = (f, coef) if g is None else (g, -coef)
        np.multiply(x[:h], _SQRT_HALF, out=top)
        np.multiply(x[:h], coef, out=bottom)
    else:
        np.add(f[:h], g[:h], out=top)
        np.subtract(f[:h], g[:h], out=bottom)
        top *= _SQRT_HALF
        bottom *= coef
    return np.moveaxis(out, 0, axis)


def reversal_split(a, row_signs, col_signs) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal blocks of `a` in the eigenbases of two signed reversals.

    P maps e_i to row_signs[i] e_{D-1-i} and Q likewise with col_signs; both
    square to the same +-1, so their eigenvalues are mu and -mu (mu = 1 or i).
    If a Q = P a, then V_mu(P)^dag a V_nu(Q) vanishes for nu != mu, and
    a = V diag(first, second) W^dag with the two blocks returned here (mu
    first). The off-diagonal blocks are not returned; compare
    `reversal_join` of the result with `a` to measure them.
    """
    row_signs, col_signs = np.asarray(row_signs), np.asarray(col_signs)
    a = as_matrix(a)
    if a.shape != (len(row_signs), len(col_signs)):
        raise ValueError(f"shape {a.shape} does not match signs ({len(row_signs)}, {len(col_signs)})")
    mu = _first_eigenvalue(row_signs, col_signs)
    rows_first, rows_second = _fold(a, row_signs, np.conj(mu), 0)
    return _fold(rows_first, col_signs, mu, 1)[0], _fold(rows_second, col_signs, mu, 1)[1]


def reversal_join(first, second, row_signs, col_signs) -> np.ndarray:
    """Inverse of `reversal_split`: V diag(first, second) W^dag in the original basis."""
    row_signs, col_signs = np.asarray(row_signs), np.asarray(col_signs)
    mu = _first_eigenvalue(row_signs, col_signs)
    return _unfold(_unfold(first, None, col_signs, mu, 1),
                   _unfold(None, second, col_signs, mu, 1), row_signs, np.conj(mu), 0)
