"""Driven two-level emitter with up to two weakly coupled filter sensors.

Builds the composite Hilbert space (emitter (x) sensor1 (x) sensor2, in
that fixed tensor order), the rotating-frame Hamiltonian, Lindblad
dissipators, and the full Liouvillian.  All energies and rates share one
unit system with hbar = 1; the natural internal choice is units of the
emitter decay rate, with conversion from ueV to 1/ps done only at the CLI
boundary via :data:`HBAR_UEV_PS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import qmath

__all__ = [
    "HBAR_UEV_PS",
    "EmitterParams",
    "SensorConfig",
    "SystemModel",
    "build_hamiltonian",
    "dissipator",
    "build_liouvillian",
]

HBAR_UEV_PS = 658.2119569  # hbar in ueV.ps

# Two-level building blocks in the {|g>, |e>} basis.
_IDENT = np.eye(2, dtype=complex)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_NUMBER = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |e><e|


def _finite(x, name):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


@dataclass(frozen=True)
class EmitterParams:
    """Driven two-level emitter.

    gamma: spontaneous emission rate (> 0).
    rabi: drive strength (>= 0).
    detuning: emitter energy minus laser energy.
    laser_linewidth: FWHM of the driving laser; only the spectrum module
        uses it (the master equation treats the drive as monochromatic).
    """

    gamma: float
    rabi: float = 0.0
    detuning: float = 0.0
    laser_linewidth: float = 0.0

    def __post_init__(self):
        if _finite(self.gamma, "gamma") <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if _finite(self.rabi, "rabi") < 0.0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")
        _finite(self.detuning, "detuning")
        if _finite(self.laser_linewidth, "laser_linewidth") < 0.0:
            raise ValueError(f"laser_linewidth must be >= 0, got {self.laser_linewidth}")


@dataclass(frozen=True)
class SensorConfig:
    """One auxiliary filter sensor.

    nu: sensor center detuning from the laser.
    width: sensor decay rate, i.e. the filter bandwidth (> 0).
    eta: emitter-sensor coupling (> 0, taken vanishingly small in use).
    background: dimensionless laser-background amplitude b; it drives the
        sensor directly with strength b * eta.
    """

    nu: float
    width: float
    eta: float
    background: float = 0.0

    def __post_init__(self):
        _finite(self.nu, "nu")
        if _finite(self.width, "width") <= 0.0:
            raise ValueError(f"width must be > 0, got {self.width}")
        if _finite(self.eta, "eta") <= 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if _finite(self.background, "background") < 0.0:
            raise ValueError(f"background must be >= 0, got {self.background}")


class SystemModel:
    """Composite emitter + sensors model with cached lifted operators."""

    def __init__(self, emitter, sensors=()):
        if not isinstance(emitter, EmitterParams):
            raise TypeError("emitter must be an EmitterParams")
        sensors = tuple(sensors)
        if len(sensors) > 2:
            raise ValueError(f"at most two sensors are supported, got {len(sensors)}")
        self.emitter = emitter
        self.sensors = sensors

        n = len(sensors)
        factors = [_IDENT] * (1 + n)

        def lift(op, slot):
            ops = list(factors)
            ops[slot] = op
            return reduce(qmath.kron, ops)

        self.sigma = lift(_LOWER, 0)
        self.excited = lift(_NUMBER, 0)
        self.sensor_lower = tuple(lift(_LOWER, 1 + i) for i in range(n))
        self.sensor_number = tuple(lift(_NUMBER, 1 + i) for i in range(n))

    @property
    def dim(self):
        return 2 ** (1 + len(self.sensors))

    def sensor_excitations(self):
        """Total sensor excitation count of each basis state, in kron order."""
        counts = np.zeros(self.dim, dtype=int)
        for num in self.sensor_number:
            counts += np.real(np.diag(num)).astype(int)
        return counts


def build_hamiltonian(model):
    """Rotating-frame Hamiltonian of the composite system.

    nu |e><e| + (rabi/2) sigma_x for the emitter, plus for each sensor its
    detuning term, the emitter-sensor exchange, and the direct laser
    background drive b * eta (theta + theta^dag).  Hermitian by construction.
    """
    em = model.emitter
    sigma_dag = model.sigma.conj().T
    H = em.detuning * model.excited + 0.5 * em.rabi * (model.sigma + sigma_dag)
    for cfg, lower, number in zip(model.sensors, model.sensor_lower, model.sensor_number):
        lower_dag = lower.conj().T
        H = H + cfg.nu * number
        H = H + cfg.eta * (model.sigma @ lower_dag + sigma_dag @ lower)
        H = H + cfg.background * cfg.eta * (lower + lower_dag)
    return H


def dissipator(op, rate):
    """Lindblad dissipator rate * (a rho a^dag - {a^dag a, rho} / 2)."""
    rate = float(rate)
    if not math.isfinite(rate) or rate <= 0.0:
        raise ValueError(f"rate must be finite and > 0, got {rate}")
    op = np.asarray(op, dtype=complex)
    op_dag = op.conj().T
    n = op_dag @ op
    return rate * (qmath.sandwich(op, op_dag) - 0.5 * (qmath.spre(n) + qmath.spost(n)))


def build_liouvillian(model):
    """Full generator: -i[H, .] plus emitter and sensor dissipators."""
    H = build_hamiltonian(model)
    L = -1j * (qmath.spre(H) - qmath.spost(H))
    L = L + dissipator(model.sigma, model.emitter.gamma)
    for cfg, lower in zip(model.sensors, model.sensor_lower):
        L = L + dissipator(lower, cfg.width)
    return L
