"""Steady states, propagation, and two-time correlators via regression.

The quantum regression theorem reduces every two-time average used here to
"evolve an operator-valued initial condition with the same Liouvillian,
then trace against a probe", so one propagator serves a whole tau grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .system import SystemModel, build_liouvillian

__all__ = [
    "SteadyState",
    "steady_state",
    "two_time_correlator",
    "first_order_coherence",
    "default_tau_grid",
]

# Steady states with more negative population than this are rejected.
CLIP_TOL = 1e-8

DEFAULT_TAU_POINTS = 2001


@dataclass
class SteadyState:
    """Physical steady state: density operator plus the solve residual."""

    rho: np.ndarray
    residual: float


def steady_state(liouvillian):
    """Steady density operator of a Liouvillian, with physicality checks.

    The raw null vector is hermitized, eigenvalues within -CLIP_TOL of zero
    are clipped to zero, and the result is renormalized; anything needing a
    larger correction raises.
    """
    L = np.asarray(liouvillian, dtype=complex)
    v = qmath.steady_vector(L)
    rho = qmath.unvec(v)

    asym = np.linalg.norm(rho - rho.conj().T)
    if asym > CLIP_TOL:
        raise qmath.SteadyStateError(
            f"steady state is not Hermitian: asymmetry {asym:.3e} > {CLIP_TOL:.1e}"
        )
    rho = 0.5 * (rho + rho.conj().T)

    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -CLIP_TOL:
        raise qmath.SteadyStateError(
            f"steady state is unphysical: eigenvalue {vals.min():.3e} < -{CLIP_TOL:.1e}"
        )
    if vals.min() < 0.0:
        vals = np.clip(vals, 0.0, None)
        rho = (vecs * vals) @ vecs.conj().T
        rho = rho / np.trace(rho).real

    residual = float(np.linalg.norm(L @ qmath.vec(rho)))
    return SteadyState(rho=rho, residual=residual)


def _check_taus(taus):
    taus = np.asarray(taus, dtype=float).reshape(-1)
    if taus.size == 0:
        raise ValueError("tau grid is empty")
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau grid contains non-finite values")
    if taus[0] < 0.0 or np.any(np.diff(taus) < 0.0):
        raise ValueError("tau grid must be nonnegative and ascending")
    return taus


def two_time_correlator(liouvillian, left, right, probe, taus):
    """tr[probe exp(L tau)(left rho_ss right)] on an ascending tau grid."""
    taus = _check_taus(taus)
    rho = steady_state(liouvillian).rho
    x0 = np.asarray(left, dtype=complex) @ rho @ np.asarray(right, dtype=complex)
    prop = qmath.Propagator(liouvillian)
    evolved = prop.apply_grid(qmath.vec(x0), taus)
    probe = np.asarray(probe, dtype=complex)
    return qmath.vec(probe.T) @ evolved


def first_order_coherence(params, taus):
    """g1(tau) = <sigma^dag(tau) sigma(0)> of the bare emitter."""
    model = SystemModel(params)
    L = build_liouvillian(model)
    sigma = model.sigma
    return two_time_correlator(L, sigma, model.identity(), sigma.conj().T, taus)


def default_tau_grid(emitter, filter_widths=(), n=DEFAULT_TAU_POINTS):
    """Uniform tau grid covering emitter decay, filter response, and Rabi cycles.

    Span = max(20/gamma, 20/min(filter widths), 10 Rabi periods).
    """
    span = 20.0 / emitter.gamma
    widths = [w for w in filter_widths if w is not None]
    if widths:
        span = max(span, 20.0 / min(widths))
    if emitter.rabi > 0.0:
        span = max(span, 10.0 * 2.0 * np.pi / emitter.rabi)
    return np.linspace(0.0, span, n)
