"""Shared builders for the test suite."""

import math

from dissip.ensembles import EnsembleSpec, HamiltonianTerm, make_instance, sample
from dissip.operators import PauliString


def draw(model, n, k, m=None, seed=0):
    return sample(EnsembleSpec(model=model, n=n, k=k, m=m, seed=seed))


def single_z_instance():
    """One qubit, H = +Z with unit strength."""
    term = HamiltonianTerm(PauliString.from_site_letters(1, [(0, "Z")]), 1.0, 1)
    return make_instance("sparse_pauli", 1, 1, [term], 0, h_glo=1.0)


def rk4_reference_steps(rep, t):
    """max(8, ceil(norm_bound t / 0.05)): RK4 steps with dt a factor two below
    the step guard, the count the RK4 tests against the oracles run at."""
    return max(8, math.ceil(rep.norm_bound * t / 0.05))
