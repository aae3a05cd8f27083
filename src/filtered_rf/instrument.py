"""Detector and measurement-apparatus models.

Gaussian instrument-response convolution for correlation traces (timing
blur) and sampled spectra (spectral blur), plus the registry of the real
spectral filters used on the optical table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "GaussianIRF",
    "FilterPreset",
    "FILTER_PRESETS",
    "filter_preset",
    "irf_convolve",
    "spectral_irf_convolve",
    "etalon_bandwidth",
]

# Kernel support, in standard deviations; < 1e-6 of the mass lies outside.
_KERNEL_SIGMAS = 5.0
# The sampling grid must resolve the kernel: spacing < fwhm / this.
_MIN_SAMPLES_PER_FWHM = 8.0


@dataclass(frozen=True)
class GaussianIRF:
    """Gaussian response of FWHM ``fwhm`` (time units for detectors,
    energy units for spectral instruments)."""

    fwhm: float

    def __post_init__(self):
        if not math.isfinite(self.fwhm) or self.fwhm <= 0.0:
            raise ValueError(f"IRF fwhm must be finite and > 0, got {self.fwhm}")

    @property
    def sigma(self):
        return self.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class FilterPreset:
    name: str
    fwhm_ueV: float


# Bandwidths of the spectral filters on the experiment, plus short aliases.
FILTER_PRESETS = (
    FilterPreset("Free-space Fabry-Perot", 0.25),
    FilterPreset("Etalon - 1.6mm fused silica", 5.8),
    FilterPreset("Fibre Fabry-Perot", 17.0),
    FilterPreset("1200 l mm-1 grating spectrometer", 97.0),
    FilterPreset("4f tunable filter (narrow)", 454.0),
    FilterPreset("4f tunable filter (broad)", 3050.0),
)

_ALIASES = {
    "free-space fp": "Free-space Fabry-Perot",
    "etalon": "Etalon - 1.6mm fused silica",
    "fibre fp": "Fibre Fabry-Perot",
    "spectrometer": "1200 l mm-1 grating spectrometer",
    "4f narrow": "4f tunable filter (narrow)",
    "4f broad": "4f tunable filter (broad)",
}


def _normalize(name):
    return " ".join(name.lower().split())


def filter_preset(name):
    """Look up a filter preset by name or alias, case-insensitively."""
    wanted = _normalize(name)
    wanted = _normalize(_ALIASES.get(wanted, wanted))
    for preset in FILTER_PRESETS:
        if _normalize(preset.name) == wanted:
            return preset
    known = ", ".join(p.name for p in FILTER_PRESETS)
    raise KeyError(f"unknown filter preset {name!r}; known presets: {known}")


def _uniform_spacing(grid, what):
    grid = np.asarray(grid, dtype=float)
    if grid.size < 3:
        raise ValueError(f"{what} needs at least 3 points")
    steps = np.diff(grid)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=0.0):
        raise ValueError(f"{what} must be uniform")
    return float(steps[0])


def _samples(values, grid, name):
    """Samples as a float array, one finite value per grid point."""
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(grid):
        raise ValueError(f"{name} has shape {values.shape}, its grid {np.shape(grid)}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains non-finite samples")
    return values


def kernel_half_width(fwhm, dt):
    """Grid steps the truncated Gaussian kernel reaches on each side of its centre."""
    return int(math.ceil(_KERNEL_SIGMAS * (fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))) / dt))


def _kernel(fwhm, dt):
    half = kernel_half_width(fwhm, dt)
    x = np.arange(-half, half + 1) * dt
    k = np.exp(-4.0 * math.log(2.0) * (x / fwhm) ** 2)
    return k / k.sum()


def _smooth(values, spacing, irf, what):
    """Convolve samples of the given spacing with the truncated, renormalized
    Gaussian kernel, each end padded with its own end value."""
    if spacing >= irf.fwhm / _MIN_SAMPLES_PER_FWHM:
        raise ValueError(
            f"{what} spacing {spacing:.3g} too coarse for IRF fwhm {irf.fwhm:.3g}; "
            f"need spacing < fwhm/{_MIN_SAMPLES_PER_FWHM:.0f}"
        )
    kernel = _kernel(irf.fwhm, spacing)
    half = kernel.size // 2
    padded = np.concatenate([np.full(half, values[0]), values, np.full(half, values[-1])])
    return np.convolve(padded, kernel, mode="valid")


def irf_convolve(trace, irf):
    """Convolve a g2 trace with the detector response.

    The trace is extended to negative delay by even symmetry, padded at
    both ends with its asymptotic value, convolved with the truncated and
    renormalized Gaussian kernel, and the nonnegative-delay part returned.
    A tau grid shorter than the kernel's reach (5 sigma) raises ValueError.
    """
    dt = _uniform_spacing(trace.taus, "tau grid")
    if trace.taus[0] != 0.0:
        raise ValueError("tau grid must start at 0 for the even extension")
    values = _samples(trace.values, trace.taus, "trace.values")
    # The smear at tau = 0 reads the kernel's whole reach, which the grid
    # must cover: padding beyond its end is not the trace.
    reach = kernel_half_width(irf.fwhm, dt)
    if values.size - 1 < reach:
        raise ValueError(
            f"tau grid spans {trace.taus[-1]:.3g}, {values.size - 1} steps, short of the "
            f"IRF kernel's reach of {reach} steps ({reach * dt:.3g}); extend the grid"
        )
    # The even extension starts and ends with the asymptotic value values[-1].
    extended = np.concatenate([values[:0:-1], values])
    out = _smooth(extended, dt, irf, "tau grid")[values.size - 1 :]

    metadata = dict(trace.metadata)
    metadata.update(irf_applied=True, irf_fwhm=irf.fwhm)
    return replace(trace, taus=trace.taus.copy(), values=out, metadata=metadata)


def spectral_irf_convolve(omegas, values, irf):
    """Gaussian smoothing of a sampled spectrum on a uniform grid."""
    domega = _uniform_spacing(omegas, "omega grid")
    return _smooth(_samples(values, omegas, "values"), domega, irf, "omega grid")


def etalon_bandwidth(fsr, finesse):
    """Bandwidth of a scanning-cavity filter: free spectral range / finesse."""
    if not (0.0 < fsr < math.inf and 0.0 < finesse < math.inf):
        raise ValueError(f"fsr and finesse must be finite and > 0, got {fsr}, {finesse}")
    return fsr / finesse
