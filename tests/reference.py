"""A 40-digit reference for the Gibbs-state measures, in mpmath.

H is built from the double inputs exactly and diagonalized with
mp.eigsy at 40 significant digits.  Its eigenvalues are the reference
of the closed-form levels.  From its eigenpairs come the Gibbs
weights, the populations (rho's diagonal) and l1 coherence of rho, the
ground-state fidelity F = <psi0|rho|psi0>, the Wootters
concurrence C (PRL 80, 2245 (1998)) and the correlated coherence Ccc
(Tan, Kwon, Park, Jeong, PRA 94, 022329 (2016)), each qubit rotated into
the eigenbasis of its reduced state.  Two extrema come from the same
definitions: the maximum of Ccc in log10 T, and, at 50 digits, the
minimum of a level gap in the detuning.  Nothing here shares code with
the package: the reference is only as good as these definitions, not as
the package's round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

DIGITS = 40


@dataclass(frozen=True)
class Reference:
    """The reference values at one point, rounded to doubles."""

    weights: tuple[float, float, float, float]
    populations: tuple[float, float, float, float]
    l1: float
    fidelity: float
    concurrence: float
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


def _gibbs(energies, vectors, temperature):
    """The Gibbs weights and rho of H's eigenpairs at temperature, in mpmath."""
    boltzmann = [mpmath.exp(-(e - energies[0]) / temperature) for e in energies]
    z = sum(boltzmann)
    weights = [b / z for b in boltzmann]
    return weights, vectors * mpmath.diag(weights) * vectors.T


def _concurrence(rho):
    """Wootters C of rho: the square roots of the spectrum of sqrt(rho) S rho S sqrt(rho)."""
    values, vectors = mpmath.eigsy(rho)
    root = vectors * mpmath.diag([mpmath.sqrt(max(w, 0)) for w in values]) * vectors.T
    flip = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    mu = mpmath.eigsy(root * flip * rho * flip * root, eigvals_only=True)
    s = sorted((mpmath.sqrt(max(m, 0)) for m in mu), reverse=True)
    return max(0, s[0] - s[1] - s[2] - s[3])


def _ccc(rho):
    """Ccc of rho and the eigenvalue gaps of its charge and spin reductions."""
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
    return _l1(rotated) - _l1(local_a) - _l1(local_b), gap_a, gap_b


def reference(eps: float, t: float, bz: float, bx: float, temperature: float) -> Reference:
    """Gibbs weights, populations, l1, F, C and Ccc of the Gibbs state at (eps, t, bz, bx, T).

    To 40 digits.
    """
    with mpmath.workdps(DIGITS):
        energies, vectors = mpmath.eigsy(_hamiltonian(eps, t, bz, bx))
        weights, rho = _gibbs(energies, vectors, mpmath.mpf(temperature))
        ground = vectors[:, 0]
        fidelity = (ground.T * rho * ground)[0, 0]
        ccc, gap_a, gap_b = _ccc(rho)
        return Reference(
            weights=tuple(float(w) for w in weights),
            populations=tuple(float(rho[i, i]) for i in range(4)),
            l1=float(_l1(rho)),
            fidelity=float(fidelity),
            concurrence=float(_concurrence(rho)),
            ccc=float(ccc),
            reduced_gaps=(float(gap_a), float(gap_b)),
        )


def coherence_peak(eps: float, t: float, bz: float, bx: float, log_t: float) -> tuple[float, float]:
    """(log10 T, Ccc) at the maximum of Ccc in log10 T nearest log_t, to 40 digits.

    A root of the central difference of Ccc with step 1e-10 (error ~1e-20),
    found by mp.findroot from log_t.
    """
    with mpmath.workdps(DIGITS):
        energies, vectors = mpmath.eigsy(_hamiltonian(eps, t, bz, bx))

        def ccc(x):
            return _ccc(_gibbs(energies, vectors, mpmath.power(10, x))[1])[0]

        step = mpmath.mpf("1e-10")
        x = mpmath.findroot(lambda x: ccc(x + step) - ccc(x - step), mpmath.mpf(log_t))
        return float(x), float(ccc(x))


ANTICROSSING_DIGITS = 50


def anticrossing(t: float, bz: float, bx: float, pair: tuple[str, str]):
    """(eps, gap) at the minimum over eps >= 0 of the gap between two labelled levels, as mpf.

    50 digits.  With u = eps^2, b = bz^2 + bx^2 and a = (2 bz t)^2, the
    inner gap 2 E3 has 4 E3^2 = Sigma - 2 sqrt(Omega), Omega = a + b u, whose
    u-derivative 1 - b / sqrt(Omega) vanishes at u = b - a / b; where that
    is <= 0, and for the outer pairs, the minimum is at eps = 0.  The gap is
    read off mp.eigsy of H there.  The labels are those of the package:
    E1 >= E3 >= 0 and E2 = -E1, E4 = -E3.
    """
    with mpmath.workdps(ANTICROSSING_DIGITS):
        t, bz, bx = (mpmath.mpf(v) for v in (t, bz, bx))
        b = bz * bz + bx * bx
        u = b - (2 * bz * t) ** 2 / b if b and set(pair) == {"E3", "E4"} else 0
        eps = mpmath.sqrt(max(u, 0))
        levels = sorted(mpmath.eigsy(_hamiltonian(eps, t, bz, bx), eigvals_only=True))
        level = dict(zip(("E2", "E4", "E3", "E1"), levels))
        return eps, abs(level[pair[0]] - level[pair[1]])
