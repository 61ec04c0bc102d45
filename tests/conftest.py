import pytest

from opent.cli import default_to_one_blas_thread

default_to_one_blas_thread()  # as the CLI does, before numpy loads

import numpy as np  # noqa: E402

from opent.linalg import eigh  # noqa: E402

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    q, r = np.linalg.qr(random_complex(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_parity_unitary(rng: np.random.Generator, l1, l2) -> np.ndarray:
    """Random unitary, block diagonal over the product parity diag(l1) x diag(l2) of +-1 labels."""
    r = np.outer(l1, l2).ravel() > 0
    u = np.zeros((r.size, r.size), dtype=np.complex128)
    for mask in (r, ~r):
        u[np.ix_(mask, mask)] = random_unitary(rng, np.count_nonzero(mask))
    return u


def parity_stack(u, l1, l2) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """The dense oracle for parity blocks: u's two parity blocks cut from the whole u.

    For a u that commutes with diag(l1) x diag(l2), let r = outer(l1, l2) > 0
    over u's rows. Returns the pair (u[r][:, r], u[~r][:, ~r]), each at its
    own size, and the largest |entry| of u off the two blocks.
    """
    r = np.outer(l1, l2).ravel() > 0
    blocks = tuple(u[np.ix_(mask, mask)] for mask in (r, ~r))
    return blocks, float(np.abs(u[r[:, None] != r]).max())


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = random_complex(rng, dim, dim)
    return (a + a.conj().T) / 2


def expi_hermitian(h, theta: float) -> np.ndarray:
    """exp(-i theta h) for Hermitian h from `linalg.eigh`: the dense oracle for rotations.

    It takes no path through `spin.parity_basis`, so the package's
    precession and parity builds can be checked against it.
    """
    w, v = eigh(h)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def swap_operator(dim: int) -> np.ndarray:
    """SWAP on a dim x dim bipartite space: |a,c> -> |c,a>."""
    u = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for a in range(dim):
        for c in range(dim):
            u[a * dim + c, c * dim + a] = 1.0
    return u


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)
