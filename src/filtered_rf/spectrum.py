"""Emission spectra, coherent/incoherent decomposition, filter transmission.

The spectrum is obtained from the poles of the emitter Liouvillian: each
nonzero eigenvalue lambda_k contributes a (generally complex-residue)
Lorentzian centered at -Im(lambda_k) with half-width -Re(lambda_k), and
the zero mode carries the elastically scattered component at the laser
frequency.  Filter-weighted areas come out in closed form, so component
fractions need no numerical quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .dynamics import _require_emission, emitter_state
from .system import EmitterParams

__all__ = [
    "SpectralComponent",
    "SpectrumDecomposition",
    "coherent_fraction",
    "emission_spectrum",
    "lorentzian_transmission",
    "filtered_fractions",
]

COMPONENT_KINDS = ("coherent", "rayleigh", "mollow_red", "mollow_blue", "other")

# Eigenvalues within this fraction of the spectral radius count as the
# stationary (elastic) mode.
_ZERO_MODE_TOL = 1e-9


@dataclass
class SpectralComponent:
    """One spectral line: classification, position, width, and weight.

    weight is the fractional area (real part of the residue over total
    emission); the dispersive part of a complex residue changes the shape
    but integrates to zero, so weights still sum to one.  At moderate drive
    individual pole weights can be slightly negative -- the poles are not
    resolved peaks there and only the classified group sums are physical.
    """

    kind: str
    center: float
    hwhm: float
    weight: float
    residue: complex


@dataclass
class SpectrumDecomposition:
    """Spectral components plus a sampled total spectrum."""

    components: list
    omegas: np.ndarray
    values: np.ndarray
    emitter: EmitterParams

    def weight(self, kind):
        return sum(c.weight for c in self.components if c.kind == kind)


def coherent_fraction(emitter):
    """Fraction of the emission that is elastically scattered,
    (detuning^2 + gamma^2/4) / (detuning^2 + gamma^2/4 + rabi^2/2); at
    resonance 1/(1 + 2 rabi^2/gamma^2)."""
    return emitter_state(emitter).coherent_fraction


def _classify(center, splitting):
    if splitting is None or abs(center) < 0.5 * splitting:
        return "rayleigh"
    return "mollow_red" if center < 0.0 else "mollow_blue"


def _pole_components(emitter):
    """Elastic weight, total emission, and incoherent pole data (kind, residue,
    eigenvalue).

    The Bloch poles are one real pole and one conjugate pair; the pair's
    |Im lambda| is the sideband splitting, sqrt(rabi^2 - (gamma/4)^2) at
    resonance.  Below 1e-6 of the spectral radius the pair counts as real
    (at rabi = gamma/4 eig splits the defective pair by under 1e-8 of it),
    and every pole is Rayleigh.
    """
    sigma, L, rho, _ = emitter_state(emitter)
    total = _require_emission(float(rho[1, 1].real), "the excited population")
    elastic = float(abs(rho[1, 0]) ** 2)

    evals, evecs = np.linalg.eig(L)
    weights = np.linalg.solve(evecs, qmath.vec(sigma @ rho))
    probe = qmath.vec(sigma.conj().T.T)  # vec of sigma_dag transposed, for tr[s_dag . X]
    residues = (probe @ evecs) * weights

    scale = float(np.max(np.abs(evals)))
    poles = []
    elastic_residue = 0.0
    for lam, res in zip(evals, residues):
        if abs(lam) <= _ZERO_MODE_TOL * scale:
            elastic_residue += res
        else:
            poles.append((complex(res), complex(lam)))
    # The stationary mode factorizes into <sigma_dag><sigma>.
    if abs(elastic_residue - elastic) > 1e-9 * max(1.0, total):
        raise RuntimeError(
            f"zero-mode residue {elastic_residue:.3e} does not match "
            f"|<sigma>|^2 = {elastic:.3e}"
        )
    splitting = max(abs(lam.imag) for _, lam in poles)
    if splitting <= 1e-6 * scale:
        splitting = None
    return elastic, total, [(_classify(-lam.imag, splitting), res, lam) for res, lam in poles]


def emission_spectrum(emitter, omegas):
    """Spectrum decomposition and sampled S(omega) on the given grid.

    The incoherent part is the half-range Fourier transform of
    g1(tau) - |<sigma>|^2, evaluated through the Liouvillian poles; the
    coherent part is a Lorentzian of the laser linewidth.  The grid must
    span at least +-(2 hypot(rabi, detuning) + 5 gamma); under detuned
    drive the sidebands sit near +-hypot(rabi, detuning).
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    if omegas.size < 2 or not np.all(np.isfinite(omegas)):
        raise ValueError(
            f"omega grid must hold at least 2 points, all finite; got {omegas.size} points, "
            f"{np.count_nonzero(~np.isfinite(omegas))} of them non-finite"
        )
    need = 2.0 * math.hypot(emitter.rabi, emitter.detuning) + 5.0 * emitter.gamma
    if omegas.min() > -need or omegas.max() < need:
        raise ValueError(
            f"grid too narrow: need at least +-{need:.3g}, got "
            f"[{omegas.min():.3g}, {omegas.max():.3g}]"
        )
    if emitter.laser_linewidth <= 0.0:
        raise ValueError(
            "sampling the coherent peak requires laser_linewidth > 0 "
            "(the elastic line inherits the laser lineshape)"
        )

    elastic, total, poles = _pole_components(emitter)
    components = [
        SpectralComponent(
            kind="coherent",
            center=0.0,
            hwhm=emitter.laser_linewidth / 2.0,
            weight=elastic / total,
            residue=complex(elastic),
        )
    ]
    values = _lorentzian(omegas, 0.0, emitter.laser_linewidth / 2.0) * elastic
    for kind, res, lam in poles:
        components.append(
            SpectralComponent(
                kind=kind,
                center=-lam.imag,
                hwhm=-lam.real,
                weight=res.real / total,
                residue=res,
            )
        )
        values = values + np.real(res / (-lam - 1j * omegas)) / np.pi
    return SpectrumDecomposition(
        components=components, omegas=omegas, values=values, emitter=emitter
    )


def _lorentzian(x, center, hwhm):
    """Area-normalized Lorentzian."""
    return (hwhm / np.pi) / ((x - center) ** 2 + hwhm**2)


def _check_filter_width(filter_fwhm):
    if not 0.0 < filter_fwhm < math.inf:
        raise ValueError(f"filter width must be finite and > 0, got {filter_fwhm}")


def lorentzian_transmission(line_fwhm, filter_fwhm, offset=0.0):
    """Transmitted fraction of a Lorentzian line through a Lorentzian filter.

    The line has unit area and FWHM line_fwhm, sitting offset away from the
    center of a peak-normalized filter of FWHM filter_fwhm.  The overlap
    integral of two Lorentzians is again a Lorentzian, giving the closed
    form g (a + g) / (offset^2 + (a + g)^2) with half-widths a and g; at
    zero offset this is filter_fwhm / (filter_fwhm + line_fwhm).
    """
    if not 0.0 <= line_fwhm < math.inf:
        raise ValueError(f"line width must be finite and >= 0, got {line_fwhm}")
    _check_filter_width(filter_fwhm)
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset}")
    g = filter_fwhm / 2.0
    a = line_fwhm / 2.0
    return g * (a + g) / (offset**2 + (a + g) ** 2)


def filtered_fractions(emitter, filter_fwhm):
    """Fraction of the filtered spectrum carried by each component kind.

    Each component is weighted by its transmission through a Lorentzian
    filter of FWHM filter_fwhm centered on the laser.  Complex residues are
    integrated exactly: the filter-weighted area of a pole (residue c,
    eigenvalue lambda) is (Gamma/2) Re[c / (Gamma/2 - lambda)], which
    reduces to weight x transmission for a real residue.
    """
    _check_filter_width(filter_fwhm)
    elastic, total, poles = _pole_components(emitter)
    g = filter_fwhm / 2.0

    areas = dict.fromkeys(COMPONENT_KINDS, 0.0)
    areas["coherent"] = elastic * lorentzian_transmission(
        emitter.laser_linewidth, filter_fwhm, 0.0
    )
    for kind, res, lam in poles:
        areas[kind] += g * (res / (g - lam)).real
    norm = sum(areas.values())
    return {kind: areas[kind] / norm for kind in COMPONENT_KINDS}
