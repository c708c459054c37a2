"""Time evolution of states and observables under the dissipative generator.

The state is evolved as a vector: for the sampled models the real Pauli
coefficient vector (length N^2), on which the generator is the sparse
transfer matrix; for the Gaussian models the flattened N x N matrix, on which
it applies the dense jump stacks, (2|A| + 2) matrix products per application.

rho_t is the action of the exponential on that vector: the truncated Taylor
method of Al-Mohy and Higham (2011), with its degree and number of scaling
steps chosen from the 1-norm of the shifted generator (exact for the transfer
matrix, a Kronecker-product bound for the jump stacks), so it needs no step
count and draws no random numbers.  The checkpoint states share the Taylor
terms of the scaling step they fall in.

Every path is checked alike: the initial state once as a density matrix
(``ValidationError``); every computed state, as a matrix, for a trace drift
past 1e-9 or an eigenvalue below -1e-6, which abort the run
(``RefinementError``) rather than being projected away; the result as a
density matrix.

At small dimension the exact channel is the propagator P = e^(L t) of the
N^2 x N^2 vectorized generator (``scipy.linalg.expm``, scaling and squaring),
gated to N <= 64.  It is the only dense exponential here: ``evolve`` with
``method="expm"`` applies P, the Heisenberg picture applies P^H (so
``heisenberg_evolve`` is ``expm``-only), and the Choi matrix and the
contraction check read a P passed in, so one exponential serves both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import expm

from .densemat import hermitian_deviation, random_hermitian, spectral_norm, unvec, vec
from .ensembles import SAMPLED_MODELS
from .errors import CapacityError, DimensionMismatchError, RefinementError, ValidationError
from .lindblad import LindbladianRep, apply_generator, transfer_matrix
from .operators import from_pauli_coefficients, pauli_coefficients

METHODS = ("rk4", "expm")  # the exact Taylor action (a kept name) and the dense oracle
EXPM_DIM_LIMIT = 64
# the spectrum is checked at t, or at CHECKPOINTS equal steps to t when a run
# records trajectory rows
CHECKPOINTS = 8
DRIFT_TRACE_TOL = 1e-9    # trace drift of a computed state that aborts the run
DRIFT_EIG_FLOOR = -1e-6   # min eigenvalue of a computed state that aborts the run
HERM_TOL = 1e-10          # validate_density_matrix thresholds
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
# theta_m of Al-Mohy and Higham (2011), Tables A.3 and 3.1 (double precision):
# s steps of Taylor degree m meet unit roundoff when ||t A|| / s <= theta_m
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class EvolutionConfig:
    """Integration parameters.

    ``method="rk4"`` (the default, a name kept from the removed fixed-step
    integrator) takes the exact action of e^(L t); ``method="expm"`` applies
    the dense propagator instead (N <= 64).
    """

    t_final: float
    method: str = "rk4"

    def __post_init__(self):
        if not math.isfinite(self.t_final):
            raise ValidationError(f"evolution time must be finite, got {self.t_final!r}")
        if self.t_final < 0:
            raise ValidationError("evolution time must be nonnegative")
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")


def maximally_mixed(qubits: int) -> np.ndarray:
    """mu = I / Tr(I) on 2^qubits dimensions."""
    dim = 1 << qubits
    return np.eye(dim, dtype=complex) / dim


def density_matrix_diagnostics(rho: np.ndarray) -> dict:
    return {
        "herm_dev": hermitian_deviation(rho),
        "trace_err": abs(np.trace(rho) - 1.0),
        "min_eig": float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()),
    }


def _check_density(diag: dict) -> dict:
    if diag["herm_dev"] > HERM_TOL:
        raise ValidationError(f"not Hermitian: deviation {diag['herm_dev']:.3e}")
    if diag["trace_err"] > TRACE_TOL:
        raise ValidationError(f"trace off unity by {diag['trace_err']:.3e}")
    if diag["min_eig"] < EIG_FLOOR:
        raise ValidationError(f"negative spectrum: min eigenvalue {diag['min_eig']:.3e}")
    return diag


def validate_density_matrix(rho) -> dict:
    return _check_density(density_matrix_diagnostics(rho))


def energy(rho: np.ndarray, h_dense: np.ndarray) -> float:
    """Tr[rho H], checked to be real to 1e-10; the sum of rho[i, j] H[j, i],
    without the product rho H."""
    if rho.shape != h_dense.shape:
        raise DimensionMismatchError(f"state {rho.shape} vs observable {h_dense.shape}")
    val = complex(np.einsum("ij,ji->", rho, h_dense))
    if abs(val.imag) > 1e-10:
        raise ValidationError(f"energy has imaginary part {val.imag:.3e}")
    return val.real


class _VectorForm(NamedTuple):
    """The generator of one run on state vectors (see :func:`_vector_form`)."""

    matvec: Callable        # L on a state vector
    shift: float            # Tr L / (vector length), the mean eigenvalue of L
    shifted_norm: float     # ||L - shift I||_1 on the vectors, or an upper bound
    vector: Callable        # the state vector of a density matrix rho
    dense: Callable         # rho of a state vector


def _vector_form(rep: LindbladianRep) -> _VectorForm:
    """The sampled models' real Pauli coefficients under the transfer matrix,
    or the Gaussian models' flattened matrix under the dense jump stacks."""
    if rep.instance.model in SAMPLED_MODELS:
        transfer = transfer_matrix(rep)
        diagonal = transfer.diagonal()
        shift = float(diagonal.mean())
        return _VectorForm(transfer.dot, shift, _shifted_csr_norm(transfer, diagonal, shift),
                           pauli_coefficients, from_pauli_coefficients)
    dim = rep.dim
    # L = sum_a K^a (x) conj(K^a) - (1/2)(G (x) I + I (x) G^T) on row-major
    # vectors, G = sum_a K^a_dag K^a; every jump is traceless, so Tr L = -N Tr G
    # and L - shift I keeps G - (Tr G / N) I in place of G.  ||A (x) B||_1 =
    # ||A||_1 ||B||_1 bounds the rest; building G builds the dense stacks
    # apply_generator multiplies
    kdagk = rep.kdagk_sum
    mean = np.trace(kdagk).real / dim
    columns = np.array([np.abs(k).sum(axis=0) for k in rep.k_stack])  # (|A|, N) column sums
    bound = (columns.T @ columns).max() + np.abs(kdagk - mean * np.eye(dim)).sum(axis=0).max()
    return _VectorForm(
        lambda v: apply_generator(rep, v.reshape(dim, dim)).ravel(),
        -float(mean), float(bound), lambda rho: rho.astype(complex, copy=False).ravel(),
        lambda v: v.reshape(dim, dim),
    )


# nonzeros read at a time for the 1-norm, at least one per column: each chunk
# costs one length-(columns) bincount, and no copy of a large T is held
_NORM_CHUNK = 1 << 14


def _shifted_csr_norm(matrix, diagonal: np.ndarray, shift: float) -> float:
    """||matrix - shift I||_1, the largest absolute column sum."""
    sums = np.zeros(matrix.shape[1])
    chunk = max(_NORM_CHUNK, matrix.shape[1])
    for lo in range(0, matrix.nnz, chunk):
        sums += np.bincount(matrix.indices[lo:lo + chunk], minlength=matrix.shape[1],
                            weights=np.abs(matrix.data[lo:lo + chunk]))
    return float((sums - np.abs(diagonal) + np.abs(diagonal - shift)).max())


def _taylor_parameters(norm: float) -> tuple[int, int]:
    """(degree m, scaling steps s) with the fewest products m s such that
    norm / s <= theta_m, for ``norm`` = ||t A||_1 or an upper bound of it;
    ``ValidationError`` when a ratio norm / theta_m is not finite."""
    ratios = {m: norm / theta for m, theta in TAYLOR_THETA.items()}
    if not all(map(math.isfinite, ratios.values())):
        raise ValidationError(f"||t (L - mu I)||_1 = {norm!r} overflows the Taylor scaling: "
                              "the coupling or the time is too large")
    if norm == 0.0:
        return 0, 1
    return min(((m, max(1, math.ceil(ratio))) for m, ratio in ratios.items()),
               key=lambda ms: ms[0] * ms[1])


def _exact_states(form: _VectorForm, state0: np.ndarray, t: float, rows: bool):
    """(checkpoint, time, state) of the action of e^(L t) on the vector
    ``state0``: the state at t alone, or with ``rows`` the states at
    CHECKPOINTS equal steps to t.

    Each of the s scaling steps sums the Taylor series of e^(h A), h = t / s,
    A = L - shift I, on the step's first state until two successive terms are
    negligible (Al-Mohy and Higham 2011, Algorithm 3.2); a checkpoint at
    fraction f of a step weights the same terms by f^j, whose series
    converges at least as fast.
    """
    points = CHECKPOINTS if rows else 1
    degree, steps = _taylor_parameters(form.shifted_norm * t)
    h = t / steps
    base, point = state0, 1
    for step in range(1, steps + 1):
        # the points in (step - 1, step] h and their fractions of the step;
        # the step's end comes last, whether or not it is a point
        fractions = []
        while point <= points and point * steps <= step * points:
            fractions.append((point, (point * steps - (step - 1) * points) / points))
            point += 1
        if not fractions or fractions[-1][1] != 1.0:
            fractions.append((None, 1.0))
        sums = [base.copy() for _ in fractions]
        term, last_norm = base, np.abs(base).max()
        for j in range(1, degree + 1):
            term = (h / j) * (form.matvec(term) - form.shift * term)
            for total, (_, fraction) in zip(sums, fractions):
                total += fraction**j * term
            term_norm = np.abs(term).max()
            if last_norm + term_norm <= UNIT_ROUNDOFF * np.abs(sums[-1]).max():
                break
            last_norm = term_norm
        for total, (at, fraction) in zip(sums, fractions):
            total *= math.exp(form.shift * fraction * h)
            if at is not None:
                yield at * CHECKPOINTS // points, at * t / points, total
        base = sums[-1]


def vectorized_generator(rep: LindbladianRep) -> np.ndarray:
    """N^2 x N^2 matrix of the generator on column-stacked operators."""
    dim = rep.dim
    if dim > EXPM_DIM_LIMIT:
        raise CapacityError(f"vectorized generator at N = {dim} exceeds the N <= {EXPM_DIM_LIMIT} gate")
    eye = np.eye(dim)
    kdk = rep.kdagk_sum
    out = -0.5 * (np.kron(eye, kdk) + np.kron(kdk.T, eye))
    for k in rep.k_stack:
        out += np.kron(k.conj(), k)
    return out


def _finite(name: str, mat: np.ndarray) -> np.ndarray:
    if not np.isfinite(mat).all():
        raise ValidationError(f"{name} is not finite: the coupling or the time is too large")
    return mat


def propagator(rep: LindbladianRep, t: float) -> np.ndarray:
    """P = e^(L t) on column-stacked operators; its conjugate transpose is the
    Heisenberg-picture channel e^(Ldag t).  ``ValidationError`` when L t or
    e^(L t) is not finite."""
    return _finite("e^(L t)", expm(_finite("L t", vectorized_generator(rep) * t)))


def evolve(rep: LindbladianRep, rho0: np.ndarray, cfg: EvolutionConfig, trajectory=None) -> np.ndarray:
    """rho_t = e^(L t)(rho0), validated as a density matrix.

    The operator comes first, so its byte checks precede any O(N^3) work:
    the generator on state vectors (:func:`_vector_form`), the propagator
    with ``method="expm"``, none at t = 0 (which returns a copy of rho0).
    Then rho0 is validated (``ValidationError``), and it and each computed
    state get the same drift checks (``RefinementError``) and rows.

    ``trajectory``, if given, is a list collecting checkpoint rows
    (step, time, energy, trace_error, min_eig), from step 0 at time 0; the
    step is the checkpoint index, at time step * t / CHECKPOINTS.  At t = 0
    it gets step 0 alone, and with ``method="expm"`` steps 0 and CHECKPOINTS,
    since the propagator gives no intermediate states.
    """
    if rho0.shape != (rep.dim, rep.dim):
        raise DimensionMismatchError(f"state shape {rho0.shape} vs generator dimension {rep.dim}")
    t = cfg.t_final
    if t == 0.0:
        computed = lambda rho: ()
    elif cfg.method == "expm":
        prop = propagator(rep, t)
        computed = lambda rho: [(CHECKPOINTS, t, unvec(prop @ vec(rho), rep.dim))]
    else:
        form = _vector_form(rep)
        computed = lambda rho: ((step, time, form.dense(state)) for step, time, state
                                in _exact_states(form, form.vector(rho), t, trajectory is not None))

    diag = validate_density_matrix(rho0)
    for step, time, rho in itertools.chain([(0, 0.0, rho0)], computed(rho0)):
        if step:  # step 0 is rho0, whose diagnostics are those validated
            diag = density_matrix_diagnostics(rho)
        if diag["trace_err"] > DRIFT_TRACE_TOL:
            raise RefinementError(f"trace drift {diag['trace_err']:.3e} beyond {DRIFT_TRACE_TOL} at step {step}")
        if diag["min_eig"] < DRIFT_EIG_FLOOR:
            raise RefinementError(f"positivity drift: min eigenvalue {diag['min_eig']:.3e} at step {step}")
        if trajectory is not None:
            trajectory.append({"step": step, "time": time, "energy": energy(rho, rep.h_dense),
                               "trace_error": diag["trace_err"], "min_eig": diag["min_eig"]})
    _check_density(diag)  # the diagnostics of the last state
    return rho0.copy() if step == 0 else rho


def heisenberg_evolve(rep: LindbladianRep, obs: np.ndarray, cfg: EvolutionConfig) -> np.ndarray:
    """O_t = e^(Ldag t)(O) = P^H vec(O), the Heisenberg-picture dual of
    :func:`evolve`; ``method`` must be ``"expm"``."""
    if cfg.method != "expm":
        raise ValidationError(f"the Heisenberg picture is expm-only, got method {cfg.method!r}")
    if obs.shape != (rep.dim, rep.dim):
        raise DimensionMismatchError(f"operator shape {obs.shape} vs generator dimension {rep.dim}")
    if cfg.t_final == 0.0:
        return obs.copy()
    return unvec(propagator(rep, cfg.t_final).conj().T @ vec(obs), rep.dim)


def choi_matrix(prop: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) channel(E_ij) of the channel with
    propagator ``prop``.

    Positive semidefinite iff the map is completely positive; the partial
    trace over the output factor equals I iff it is trace preserving.
    """
    dim = math.isqrt(prop.shape[0])
    # block (i, j) is unvec(prop[:, i + N j]): choi[i N + a, j N + b] = prop[a + N b, i + N j]
    return prop.reshape(dim, dim, dim, dim).transpose(3, 1, 2, 0).reshape(dim * dim, dim * dim)


def choi_output_trace(choi: np.ndarray, dim: int) -> np.ndarray:
    """Partial trace of the Choi matrix over the channel-output factor."""
    return np.einsum("iaja->ij", choi.reshape(dim, dim, dim, dim))


def choi_deviations(prop: np.ndarray) -> tuple[float, float]:
    """(max(0, -min eigenvalue), max |partial trace - I|) of the Choi matrix
    of the channel with propagator ``prop``; both vanish up to rounding for a
    CPTP map."""
    dim = math.isqrt(prop.shape[0])
    choi = choi_matrix(prop)
    min_eig = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min())
    trace_dev = float(np.abs(choi_output_trace(choi, dim) - np.eye(dim)).max())
    return max(0.0, -min_eig), trace_dev


def contraction_excess(prop: np.ndarray, probes: int, rng: np.random.Generator) -> float:
    """max over random Hermitian O of ||e^(Ldag t)(O)|| - ||O||, where
    ``prop`` is the propagator e^(L t).

    A unital CP map contracts the operator norm, so this is <= 0 up to
    rounding.  Each image equals ``heisenberg_evolve(rep, O, method="expm")``
    bit for bit.
    """
    dim = math.isqrt(prop.shape[0])
    adjoint = prop.conj().T
    worst = -math.inf
    for _ in range(probes):
        probe = random_hermitian(dim, rng)
        before = spectral_norm(probe, hermitian=True)
        worst = max(worst, spectral_norm(unvec(adjoint @ vec(probe), dim)) - before)
    return worst
