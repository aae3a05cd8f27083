"""Steady states, propagation, and two-time correlators via regression.

The quantum regression theorem reduces every two-time average used here to
"evolve an operator-valued initial condition with the same Liouvillian,
then trace against a probe", so one propagator serves a whole tau grid.
The driven emitter's own steady state is known in closed form
(:func:`emitter_state`); :func:`steady_state` solves any Liouvillian
numerically and serves as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmath

__all__ = [
    "EmitterState",
    "emitter_state",
    "SteadyState",
    "steady_state",
    "two_time_correlator",
    "first_order_coherence",
    "default_tau_grid",
]

# Steady states with more negative population than this are rejected.
CLIP_TOL = 1e-8

DEFAULT_TAU_POINTS = 2001

SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA.flags.writeable = False


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


class EmitterState(NamedTuple):
    """The driven emitter on its own 2-dim space, in the {|g>, |e>} basis."""

    sigma: np.ndarray  # lowering operator |g><e|
    liouvillian: np.ndarray  # L_e, 4x4 on column-stacked density operators
    rho: np.ndarray  # steady state
    coherent_fraction: float  # |<sigma>|^2 / rho_ee, the elastic share of the emission


def _emitter_liouvillian(emitter):
    """L_e on column-stacked (gg, eg, ge, ee), with w = i rabi/2:

        [[0, -w,  w,  gamma],
         [-w, -(i detuning + gamma/2), 0, w],
         [w, 0, i detuning - gamma/2, -w],
         [0,  w, -w, -gamma]]

    bit for bit the matrix that ``build_liouvillian`` assembles, every zero
    a +0."""
    g, d = emitter.gamma, emitter.detuning
    w = complex(0.0, 0.5 * emitter.rabi)
    v = complex(0.0, 0.0 - 0.5 * emitter.rabi)  # -w
    eg = complex(-0.5 * g, 0.0 - d)
    ge = complex(-0.5 * g, d + 0.0)
    return np.array([[0, v, w, g], [v, eg, 0, w], [w, 0, ge, v], [0, w, v, -g]], dtype=complex)


def emitter_state(emitter):
    """Liouvillian and closed-form steady state of the driven two-level emitter.

    With D = detuning^2 + gamma^2/4 + rabi^2/2 the optical Bloch equations
    give rho_ee = (rabi^2/4)/D and <sigma> = rho_eg = -(rabi/2)(detuning
    + i gamma/2)/D, so the coherent fraction |<sigma>|^2/rho_ee is
    (detuning^2 + gamma^2/4)/D, formed here as 1/(1 + (rabi^2/2)/(detuning^2
    + gamma^2/4)): exactly 1 without drive.  The residual ||L_e vec(rho)||
    is held to the bound of :func:`qmath.steady_vector`, so a closed form
    that drifted from the Hamiltonian convention of ``build_liouvillian``
    raises :class:`qmath.SteadyStateError`.
    """
    L = _emitter_liouvillian(emitter)
    undriven = emitter.detuning**2 + emitter.gamma**2 / 4.0
    D = undriven + emitter.rabi**2 / 2.0
    excited = emitter.rabi**2 / 4.0 / D
    coherence = -0.5 * emitter.rabi * complex(emitter.detuning, 0.5 * emitter.gamma) / D
    rho = np.array([[1.0 - excited, coherence.conjugate()], [coherence, excited]])
    qmath._check_residual(L, qmath.vec(rho), np.linalg.norm(L))
    fraction = 1.0 / (1.0 + emitter.rabi**2 / 2.0 / undriven)
    return EmitterState(sigma=SIGMA.copy(), liouvillian=L, rho=rho, coherent_fraction=fraction)


def _require_emission(population, what):
    """A population that normalizes a result; without drive it vanishes."""
    if not population > 0.0:
        raise ValueError(f"no emission without drive: {what} is {population:.3g}")
    return population


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
    rho = steady_state(liouvillian).rho
    x0 = np.asarray(left, dtype=complex) @ rho @ np.asarray(right, dtype=complex)
    return _regress(liouvillian, x0, probe, taus)


def _regress(liouvillian, x0, probe, taus):
    """tr[probe exp(L tau) x0] on an ascending tau grid."""
    taus = _check_taus(taus)
    probe = qmath.vec(np.asarray(probe, dtype=complex).T)
    return qmath.Propagator(liouvillian).correlate([probe], [qmath.vec(x0)], taus)[0]


def first_order_coherence(params, taus):
    """g1(tau) = <sigma^dag(tau) sigma(0)> of the bare emitter."""
    sigma, L, rho, _ = emitter_state(params)
    return _regress(L, sigma @ rho, sigma.conj().T, taus)


def _default_span(emitter, filter_width=None):
    """The span of :func:`default_tau_grid`."""
    span = 20.0 / emitter.gamma
    if filter_width is not None:
        span = max(span, 20.0 / filter_width)
    if emitter.rabi > 0.0:
        span = max(span, 10.0 * 2.0 * np.pi / emitter.rabi)
    return span


def default_tau_grid(emitter, filter_width=None):
    """Uniform tau grid covering emitter decay, filter response, and Rabi cycles.

    Span = max(20/gamma, 20/filter_width, 10 Rabi periods), in
    DEFAULT_TAU_POINTS points.
    """
    return np.linspace(0.0, _default_span(emitter, filter_width), DEFAULT_TAU_POINTS)
