"""Time evolution of states and observables under the dissipative generator.

The workhorse is fixed-step classical RK4 in the Schroedinger picture.  For
the sampled models it runs on the real Pauli coefficient vector of the state
(length N^2), one sparse product with the transfer matrix per stage; for the
Gaussian models it runs on the N x N matrix through the dense jump stacks,
(2|A| + 2) matrix products per stage.

At small dimension the exact channel is the propagator P = e^(L t) of the
N^2 x N^2 vectorized generator (``scipy.linalg.expm``, scaling and squaring),
gated to N <= 64.  It is the only exponential here: ``evolve`` with
``method="expm"`` applies P, the Heisenberg picture applies P^H (so
``heisenberg_evolve`` is ``expm``-only), and the Choi matrix and the
contraction check read a P passed in, so one exponential serves both.

Step-size policy: the validity guard requires (generator norm bound) * dt
<= 0.1; runs that violate it raise a refinement error carrying the suggested
step count.  Auto-selected steps aim a factor two below the guard, which at
desk scale tracks the exponential to well under 1e-9 in practice.  Trace is
monitored every step; the spectrum is monitored at checkpoints (where a
coefficient vector is turned back into a matrix) and a drift past -1e-6
aborts the run rather than being silently projected away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .densemat import hermitian_deviation, random_hermitian, spectral_norm, unvec, vec
from .ensembles import SAMPLED_MODELS
from .errors import CapacityError, DimensionMismatchError, RefinementError, ValidationError
from .lindblad import LindbladianRep, apply_generator, transfer_matrix
from .operators import from_pauli_coefficients, pauli_coefficients

STEP_GUARD = 0.1          # max allowed (norm bound) * dt
AUTO_STEP_TARGET = 0.05   # auto-selected dt aims at this instead
EXPM_DIM_LIMIT = 64
CHECKPOINTS = 8           # RK4 checks the spectrum every steps // CHECKPOINTS steps and at the end
DRIFT_TRACE_TOL = 1e-9    # per-step trace drift that aborts RK4
DRIFT_EIG_FLOOR = -1e-6   # checkpoint min eigenvalue that aborts RK4
HERM_TOL = 1e-10          # validate_density_matrix thresholds
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8


@dataclass(frozen=True)
class EvolutionConfig:
    """Integration parameters.  steps == 0 lets the step guard pick."""

    t_final: float
    steps: int = 0
    method: str = "rk4"

    def __post_init__(self):
        if not math.isfinite(self.t_final):
            raise ValidationError(f"evolution time must be finite, got {self.t_final!r}")
        if self.t_final < 0:
            raise ValidationError("evolution time must be nonnegative")
        if self.steps < 0:
            raise ValidationError("steps must be nonnegative")
        if self.method not in ("rk4", "expm"):
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


def required_steps(rep: LindbladianRep, t: float) -> int:
    return max(1, math.ceil(rep.norm_bound * t / STEP_GUARD))


def _resolve_steps(rep, cfg) -> int:
    if cfg.steps:
        if rep.norm_bound * cfg.t_final / cfg.steps > STEP_GUARD * (1 + 1e-12):
            raise RefinementError(
                f"step guard violated: {cfg.steps} steps give "
                f"norm*dt = {rep.norm_bound * cfg.t_final / cfg.steps:.3f} > {STEP_GUARD}",
                suggested_steps=required_steps(rep, cfg.t_final),
            )
        return cfg.steps
    return max(8, math.ceil(rep.norm_bound * cfg.t_final / AUTO_STEP_TARGET))


def _rk4(apply_fn, state, t, steps):
    dt = t / steps
    for _ in range(steps):
        k1 = apply_fn(state)
        k2 = apply_fn(state + 0.5 * dt * k1)
        k3 = apply_fn(state + 0.5 * dt * k2)
        k4 = apply_fn(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield state


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


def propagator(rep: LindbladianRep, t: float) -> np.ndarray:
    """P = e^(L t) on column-stacked operators; its conjugate transpose is the
    Heisenberg-picture channel e^(Ldag t)."""
    return expm(vectorized_generator(rep) * t)


def evolve(rep: LindbladianRep, rho0: np.ndarray, cfg: EvolutionConfig, trajectory=None) -> np.ndarray:
    """rho_t = e^(L t)(rho0), validated as a density matrix.

    RK4 runs on Pauli coefficients for the sampled models and on the dense
    matrix for the Gaussian ones; the result is a dense matrix either way.

    ``trajectory``, if given, is a list collecting checkpoint rows
    (step, time, energy, trace_error, min_eig).
    """
    if rho0.shape != (rep.dim, rep.dim):
        raise DimensionMismatchError(f"state shape {rho0.shape} vs generator dimension {rep.dim}")
    t = cfg.t_final
    if t == 0.0:
        validate_density_matrix(rho0)
        return rho0.copy()
    if cfg.method == "expm":
        rho = unvec(propagator(rep, t) @ vec(rho0), rep.dim)
        validate_density_matrix(rho)
        return rho

    # the operator comes first, so its byte checks run before the O(N^3)
    # step bound and checkpoint spectra
    if rep.instance.model in SAMPLED_MODELS:
        transfer = transfer_matrix(rep)
        # the coefficient vector is real, so an anti-Hermitian part would be lost
        deviation = hermitian_deviation(rho0)
        if deviation > HERM_TOL:
            raise ValidationError(f"not Hermitian: deviation {deviation:.3e}")
        apply_fn, state0 = (lambda r: transfer @ r), pauli_coefficients(rho0)
        trace, dense = (lambda r: r[0]), from_pauli_coefficients
    else:
        rep.kdagk_sum  # builds the dense stacks apply_generator multiplies
        apply_fn, state0 = (lambda r: apply_generator(rep, r)), rho0
        trace, dense = np.trace, (lambda r: r)

    steps = _resolve_steps(rep, cfg)
    dt = t / steps
    every = max(1, steps // CHECKPOINTS)

    def record(step, rho):
        diag = density_matrix_diagnostics(rho)
        if diag["min_eig"] < DRIFT_EIG_FLOOR:
            raise RefinementError(
                f"positivity drift: min eigenvalue {diag['min_eig']:.3e} at step {step}",
                suggested_steps=2 * steps,
            )
        if trajectory is not None:
            energy = float(np.trace(rho @ rep.h_dense).real)
            trajectory.append(
                {
                    "step": step,
                    "time": step * dt,
                    "energy": energy,
                    "trace_error": diag["trace_err"],
                    "min_eig": diag["min_eig"],
                }
            )
        return diag

    record(0, rho0)
    for step, state in enumerate(_rk4(apply_fn, state0, t, steps), start=1):
        trace_err = abs(trace(state) - 1.0)
        if trace_err > DRIFT_TRACE_TOL:
            raise RefinementError(
                f"trace drift {trace_err:.3e} beyond {DRIFT_TRACE_TOL} at step {step}",
                suggested_steps=2 * steps,
            )
        if step % every == 0 or step == steps:
            rho = dense(state)
            diag = record(step, rho)
    _check_density(diag)  # the last checkpoint's diagnostics are those of rho
    return rho


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
