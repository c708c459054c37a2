#!/usr/bin/env python3
"""RK4 on the sparse Pauli-transfer matrix against RK4 on the dense jump stacks.

For each case ``model:n:k[:m]`` one instance is sampled, the default schedule
taken, and the fixed-step RK4 of ``dissip.evolve`` run from the maximally
mixed state both ways: on Pauli coefficients with ``transfer_matrix`` (its
build timed on its own) and on the dense matrix with ``apply_generator``.
The table gives the transfer matrix's mean nonzeros per column, both times
and the largest final-energy difference.  ``evolve`` takes the transfer route
for the sampled models only; the Gaussian rows show why: their jumps carry
every term, so the matrix is close to dense.
"""

import argparse
import time

import numpy as np

from dissip.analysis import schedule
from dissip.ensembles import EnsembleSpec, sample
from dissip.evolution import EvolutionConfig, _resolve_steps, _rk4, maximally_mixed
from dissip.lindblad import apply_generator, build_lindbladian, transfer_matrix
from dissip.operators import from_pauli_coefficients, pauli_coefficients

CASES = ("sparse_pauli:6:2:12", "sparse_fermion:12:4:12", "gaussian_pauli:6:2", "syk:12:4")


def last(states):
    for state in states:
        pass
    return state


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cases", nargs="*", default=list(CASES), help="model:n:k[:m]")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'case':>24s} {'N':>4s} {'steps':>5s} {'nnz/col':>8s} "
          f"{'build s':>8s} {'sparse s':>9s} {'dense s':>8s} {'|dE|':>9s}")
    for case in args.cases:
        model, *sizes = case.split(":")
        n, k, m = (*map(int, sizes), None)[:3]
        inst = sample(EnsembleSpec(model, n, k, m, seed=args.seed))
        sched = schedule(inst)
        rep = build_lindbladian(inst, sched.y)
        steps = _resolve_steps(rep, EvolutionConfig(t_final=sched.t))
        rho0 = maximally_mixed(inst.qubits)

        start = time.perf_counter()
        transfer = transfer_matrix(rep)
        built = time.perf_counter()
        coeffs = last(_rk4(lambda r: transfer @ r, pauli_coefficients(rho0), sched.t, steps))
        sparse_s = time.perf_counter() - built
        start_dense = time.perf_counter()
        rho = last(_rk4(lambda r: apply_generator(rep, r), rho0, sched.t, steps))
        dense_s = time.perf_counter() - start_dense

        energies = [np.trace(r @ rep.h_dense).real for r in (from_pauli_coefficients(coeffs), rho)]
        print(f"{case:>24s} {rep.dim:4d} {steps:5d} {transfer.nnz / transfer.shape[0]:8.1f} "
              f"{built - start:8.3f} {sparse_s:9.3f} {dense_s:8.3f} {abs(energies[0] - energies[1]):9.2e}")


if __name__ == "__main__":
    main()
