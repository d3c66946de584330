"""A 40-digit reference for the Gibbs-state measures, in mpmath.

H is built from the double inputs exactly and diagonalized with
mp.eigsy at 40 significant digits.  Its eigenvalues are the reference
of the closed-form levels.  From its eigenpairs come the Gibbs
weights, the ground-state fidelity F = <psi0|rho|psi0> and the correlated
coherence Ccc (Tan, Kwon, Park, Jeong, PRA 94, 022329 (2016)), each
qubit rotated into the eigenbasis of its reduced state.  Nothing here
shares code with the package: the reference is only as good as these
definitions, not as the package's round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

DIGITS = 40


@dataclass(frozen=True)
class Reference:
    """The reference values at one point, rounded to doubles."""

    weights: tuple[float, float, float, float]
    fidelity: float
    ccc: float
    reduced_gaps: tuple[float, float]  # eigenvalue gaps of the charge and spin reductions


def _hamiltonian(eps, t, bz, bx):
    """H = (eps/2) tau_z + t tau_x + (bz/2) sigma_z + (bx/2) tau_z sigma_x, basis (L0, L1, R0, R1)."""
    # halved in mpmath: a float halving rounds an odd subnormal (5e-324 / 2 is 0)
    e, z, x = (mpmath.mpf(v) / 2 for v in (eps, bz, bx))
    t = mpmath.mpf(t)
    return mpmath.matrix([
        [e + z, x, t, 0],
        [x, e - z, 0, t],
        [t, 0, -e + z, -x],
        [0, t, -x, -e - z],
    ])


def _reductions(rho):
    """The charge (spin traced out) and spin (charge traced out) reductions of rho."""
    charge = mpmath.matrix([
        [rho[0, 0] + rho[1, 1], rho[0, 2] + rho[1, 3]],
        [rho[0, 2] + rho[1, 3], rho[2, 2] + rho[3, 3]],
    ])
    spin = mpmath.matrix([
        [rho[0, 0] + rho[2, 2], rho[0, 1] + rho[2, 3]],
        [rho[0, 1] + rho[2, 3], rho[1, 1] + rho[3, 3]],
    ])
    return charge, spin


def _l1(m):
    """Sum of the absolute off-diagonal entries of m."""
    n = m.rows
    return sum(abs(m[i, j]) for i in range(n) for j in range(n) if i != j)


def energies(eps: float, t: float, bz: float, bx: float) -> tuple[float, float, float, float]:
    """The eigenvalues of H at (eps, t, bz, bx), ascending, to 40 digits."""
    with mpmath.workdps(DIGITS):
        values = mpmath.eigsy(_hamiltonian(eps, t, bz, bx), eigvals_only=True)
        return tuple(sorted(float(e) for e in values))


def reference(eps: float, t: float, bz: float, bx: float, temperature: float) -> Reference:
    """Gibbs weights, F and Ccc of the Gibbs state at (eps, t, bz, bx, T), to 40 digits."""
    with mpmath.workdps(DIGITS):
        energies, vectors = mpmath.eigsy(_hamiltonian(eps, t, bz, bx))
        boltzmann = [mpmath.exp(-(e - energies[0]) / mpmath.mpf(temperature)) for e in energies]
        z = sum(boltzmann)
        weights = [b / z for b in boltzmann]
        rho = vectors * mpmath.diag(weights) * vectors.T
        ground = vectors[:, 0]
        fidelity = (ground.T * rho * ground)[0, 0]

        (gap_a, va), (gap_b, vb) = (
            (values[1] - values[0], basis)
            for values, basis in (mpmath.eigsy(m) for m in _reductions(rho))
        )
        # kron(va, vb): the charge index is the outer one of the basis
        u = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                u[i, j] = va[i // 2, j // 2] * vb[i % 2, j % 2]
        rotated = u.T * rho * u
        local_a, local_b = _reductions(rotated)
        ccc = _l1(rotated) - _l1(local_a) - _l1(local_b)
        return Reference(
            weights=tuple(float(w) for w in weights),
            fidelity=float(fidelity),
            ccc=float(ccc),
            reduced_gaps=(float(gap_a), float(gap_b)),
        )
