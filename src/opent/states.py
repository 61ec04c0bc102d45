"""Bipartite pure states, reduced density matrices and entanglement entropy.

Composite basis ordering: amplitude index a*m + c for subsystem-1 index a
and subsystem-2 index c, matching the Kronecker-product convention used
for operators.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import eigh
from .schmidt import BipartitionDims
from .spin import SpinSystem, basis_state

NORM_TOL = 1e-10


class _PureState(NamedTuple):
    dims: BipartitionDims
    amplitudes: np.ndarray


class PureState(_PureState):
    """A normalized state of the n*m amplitudes of `dims`, held as one complex vector."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        dims, amps = _PureState(*args, **kwargs)
        amps = np.asarray(amps, dtype=np.complex128).ravel()
        if amps.size != dims.total:
            raise ValueError(f"amplitude length {amps.size} != n*m = {dims.total}")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("state is not normalized")
        return super().__new__(cls, dims, amps)

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` builds through it, so it checks too


def product_basis_state(s1: SpinSystem, s2: SpinSystem, m1: float, m2: float) -> PureState:
    """|m1, m2>: product of Jz eigenstates of the two spins."""
    vec = np.kron(basis_state(s1, m1), basis_state(s2, m2)).ravel()
    return PureState(BipartitionDims(s1.dim, s2.dim), vec)


def phi_state(s1: SpinSystem, s2: SpinSystem, m1: float, m2: float) -> PureState:
    """(|m1, m2> + |-m1, -m2>) / sqrt(2), entangled when both m are nonzero."""
    if m1 == 0 and m2 == 0:
        raise ValueError("m1 = m2 = 0 degenerates to a product basis state")
    vec = (
        np.kron(basis_state(s1, m1), basis_state(s2, m2))
        + np.kron(basis_state(s1, -m1), basis_state(s2, -m2))
    ).ravel() / math.sqrt(2)
    return PureState(BipartitionDims(s1.dim, s2.dim), vec)


def phi_p_state(s: SpinSystem) -> PureState:
    """Maximally entangled sum over anti-correlated pairs |m, -m> / sqrt(N)."""
    vec = np.zeros(s.dim * s.dim, dtype=np.complex128)
    for m in s.m_values():
        vec += np.kron(basis_state(s, m), basis_state(s, -m)).ravel()
    return PureState(BipartitionDims(s.dim, s.dim), vec / math.sqrt(s.dim))


def partial_trace_1(psi: PureState) -> np.ndarray:
    """Reduced density matrix of subsystem 1: rho1 = Tr_2 |psi><psi|."""
    mat = psi.amplitudes.reshape(psi.dims.n, psi.dims.m)
    return mat @ mat.conj().T


def partial_trace_2(psi: PureState) -> np.ndarray:
    """Reduced density matrix of subsystem 2."""
    mat = psi.amplitudes.reshape(psi.dims.n, psi.dims.m)
    return mat.T @ mat.conj()


def state_entropy(psi: PureState) -> float:
    """Entanglement entropy -sum w ln w of the subsystem-1 RDM spectrum."""
    w, _ = eigh(partial_trace_1(psi))
    w = w[w > 0]
    return float(-np.sum(w * np.log(w)))
