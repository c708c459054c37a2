"""Shared builders and independent dense oracles for the test suite."""

from functools import reduce

import numpy as np

from dissip.densemat import random_hermitian, spectral_norm
from dissip.ensembles import EnsembleSpec, HamiltonianTerm, make_instance, sample
from dissip.lindblad import _check_dim
from dissip.operators import PauliString

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def draw(model, n, k, m=None, seed=0):
    return sample(EnsembleSpec(model=model, n=n, k=k, m=m, seed=seed))


def single_z_instance():
    """One qubit, H = +Z with unit strength."""
    term = HamiltonianTerm(PauliString.from_site_letters(1, [(0, "Z")]), 1.0, 1)
    return make_instance("sparse_pauli", 1, 1, [term], 0, h_glo=1.0)


def kron_chain(letters) -> np.ndarray:
    """Explicit kron product of single-qubit letters."""
    return reduce(np.kron, (PAULI_1Q[c] for c in letters))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart normalized to unit trace)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def apply_generator_adjoint(rep, obs: np.ndarray) -> np.ndarray:
    """Heisenberg picture on the dense jump stacks: Ldag(O) = sum_a Kdag O K
    - (1/2){Kdag K, O}, the oracle of the transposed transfer matrix."""
    _check_dim(rep, obs)
    out = (rep.k_stack_dag @ obs @ rep.k_stack).sum(axis=0)
    out -= 0.5 * (rep.kdagk_sum @ obs + obs @ rep.kdagk_sum)
    return out


def sampled_superop_norm_per_probe(apply_fn, dim: int, samples: int, rng: np.random.Generator) -> float:
    """The probe-at-a-time oracle of lindblad.sampled_superop_norm: one
    Hermitian draw, eigvalsh, application and SVD per probe."""
    best = 0.0
    for _ in range(samples):
        probe = random_hermitian(dim, rng)
        denom = spectral_norm(probe, hermitian=True)
        if denom == 0.0:
            continue
        image = apply_fn(probe)
        best = max(best, spectral_norm(image) / denom)
    return best
