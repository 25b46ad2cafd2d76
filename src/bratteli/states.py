"""Faithful states on one matrix block, diagonalized.

A faithful state on a matrix block is f -> trace(rho f) for a positive
definite density rho of trace 1.  In an eigenbasis of rho it is diagonal, so
it factors through the diagonal compression: the step from which Connes'
construction builds states on a hyperfinite algebra, block by block along a
Bratteli diagram.  This is the library's one numerical module: numpy's
eigensolver, complex doubles, and the one tolerance TOL, which ``fdalg``'s
phase and cocycle code shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleData, ShapeMismatch, SupportViolation

TOL = 1e-9  # comparison tolerance of the phase, cocycle and state code


@dataclass(frozen=True, eq=False)
class DiagonalizedState:
    """Descending eigenvalues and an orthonormal eigenbasis of a density
    matrix, with the verified error of the diagonal factorization."""

    eigenvalues: np.ndarray
    basis: np.ndarray
    factorization_error: float

    def reconstruct(self) -> np.ndarray:
        return self.basis @ np.diag(self.eigenvalues) @ self.basis.conj().T


def diagonalize_state(density) -> DiagonalizedState:
    """Eigenbasis of a faithful state on one matrix block.

    In the returned basis the state is diagonal, so it factors through the
    diagonal compression; the factorization is verified on random inputs and
    the observed error is reported.  Deterministic conventions: eigenvalues
    descend, and each eigenvector's first nonnegligible component is made
    real positive.
    """
    rho = np.asarray(density, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeMismatch(f"density matrix must be square, got shape {rho.shape}")
    n = rho.shape[0]
    if n > 12:
        raise ShapeMismatch(f"density matrices above size 12 are not supported (got {n})")
    if float(np.max(np.abs(rho - rho.conj().T))) > TOL:
        raise IncompatibleData("density matrix is not hermitian")
    if abs(complex(np.trace(rho)) - 1) > TOL:
        raise IncompatibleData(f"density matrix has trace {complex(np.trace(rho)):.6g}, not 1")
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    if float(vals[-1]) <= TOL:
        raise SupportViolation(
            f"density matrix is not positive definite (min eigenvalue {float(vals[-1]):.3g}); "
            "the state is not faithful"
        )
    for j in range(n):
        col = vecs[:, j]
        for i in range(n):
            if abs(col[i]) > 1e-12:
                phase = col[i] / abs(col[i])
                vecs[:, j] = col / phase
                break
    err = 0.0
    probe = np.random.default_rng(0)
    for _ in range(4):
        a = probe.standard_normal((n, n)) + 1j * probe.standard_normal((n, n))
        direct = complex(np.trace(rho @ a))
        compressed = complex(
            sum(
                vals[i] * (vecs[:, i].conj() @ a @ vecs[:, i])
                for i in range(n)
            )
        )
        err = max(err, abs(direct - compressed))
    return DiagonalizedState(eigenvalues=vals, basis=vecs, factorization_error=err)
