"""Filtered resonance fluorescence photon statistics.

Library for the frequency-filtered second-order correlation g2(tau),
emission spectra and their coherent/incoherent decomposition, component
fractions behind a Lorentzian filter, and detector-response effects for a
resonantly driven two-level emitter, computed with the two-sensor
master-equation method.
"""

from .qmath import Propagator, SteadyStateError, steady_vector
from .system import (
    HBAR_UEV_PS,
    EmitterParams,
    SensorConfig,
    SystemModel,
    build_hamiltonian,
    build_liouvillian,
    dissipator,
)
from .dynamics import (
    EmitterState,
    SteadyState,
    default_tau_grid,
    emitter_state,
    first_order_coherence,
    steady_state,
    two_time_correlator,
)
from .filtercorr import (
    BackgroundCalibrationError,
    CorrelationTrace,
    EtaConvergence,
    EtaConvergenceError,
    SensorPipeline,
    TwoSensorModel,
    calibrate_background,
    default_eta,
    eta_convergence,
    filtered_g2,
    sweep_point,
    unfiltered_g2,
)
from .spectrum import (
    SpectralComponent,
    SpectrumDecomposition,
    coherent_fraction,
    emission_spectrum,
    filtered_fractions,
    lorentzian_transmission,
)
from .instrument import (
    FILTER_PRESETS,
    FilterPreset,
    GaussianIRF,
    etalon_bandwidth,
    filter_preset,
    irf_convolve,
    spectral_irf_convolve,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR_UEV_PS",
    "EmitterParams",
    "SensorConfig",
    "SystemModel",
    "build_hamiltonian",
    "build_liouvillian",
    "dissipator",
    "Propagator",
    "SteadyStateError",
    "steady_vector",
    "EmitterState",
    "emitter_state",
    "SteadyState",
    "steady_state",
    "two_time_correlator",
    "first_order_coherence",
    "default_tau_grid",
    "CorrelationTrace",
    "BackgroundCalibrationError",
    "EtaConvergence",
    "EtaConvergenceError",
    "SensorPipeline",
    "TwoSensorModel",
    "default_eta",
    "calibrate_background",
    "eta_convergence",
    "filtered_g2",
    "unfiltered_g2",
    "sweep_point",
    "SpectralComponent",
    "SpectrumDecomposition",
    "coherent_fraction",
    "emission_spectrum",
    "lorentzian_transmission",
    "filtered_fractions",
    "GaussianIRF",
    "FilterPreset",
    "FILTER_PRESETS",
    "filter_preset",
    "irf_convolve",
    "spectral_irf_convolve",
    "etalon_bandwidth",
]
