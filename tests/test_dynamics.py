import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filtered_rf.cli  # noqa: F401  (binds every module whose solver calls are patched below)
from filtered_rf import dynamics, qmath
from filtered_rf.dynamics import (
    default_tau_grid,
    emitter_state,
    first_order_coherence,
    steady_state,
    two_time_correlator,
)
from filtered_rf.filtercorr import filtered_g2, sweep_point, unfiltered_g2
from filtered_rf.instrument import GaussianIRF
from filtered_rf.spectrum import emission_spectrum, filtered_fractions
from filtered_rf.system import HBAR_UEV_PS, EmitterParams, SystemModel, build_liouvillian

from oracles import bloch_rk4, bloch_steady_excited


def emitter_liouvillian(gamma=1.0, rabi=0.5):
    model = SystemModel(EmitterParams(gamma=gamma, rabi=rabi))
    return model, build_liouvillian(model)


class TestSteadyState:
    def test_undriven_is_ground_state(self):
        _, L = emitter_liouvillian(rabi=0.0)
        ss = steady_state(L)
        assert np.allclose(ss.rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_bloch_values_at_half_gamma_drive(self):
        model, L = emitter_liouvillian(rabi=0.5)
        ss = steady_state(L)
        assert abs(ss.rho[1, 1].real - 1.0 / 6.0) < 1e-12
        coherence = abs(np.trace(model.sigma @ ss.rho)) ** 2
        assert abs(coherence - 1.0 / 9.0) < 1e-12

    def test_saturation_limit(self):
        _, L = emitter_liouvillian(rabi=500.0)
        assert abs(steady_state(L).rho[1, 1].real - 0.5) < 1e-4

    def test_population_matches_analytic_for_many_drives(self):
        for rabi in (0.1, 0.5, 1.0, 2.0, 4.0):
            _, L = emitter_liouvillian(rabi=rabi)
            got = steady_state(L).rho[1, 1].real
            assert abs(got - bloch_steady_excited(1.0, rabi)) < 1e-12

    def test_physicality(self):
        _, L = emitter_liouvillian(rabi=2.3)
        ss = steady_state(L)
        assert abs(np.trace(ss.rho) - 1.0) < 1e-14
        assert np.allclose(ss.rho, ss.rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(ss.rho).min() >= -1e-10
        assert ss.residual < 1e-10 * np.linalg.norm(L, 2)


class TestEmitterState:
    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(0.01, 100.0),
        rabi=st.floats(0.0, 100.0),
        detuning=st.floats(-5.0, 5.0),
    )
    @example(gamma=1.0, rabi=0.0, detuning=0.0)
    @example(gamma=0.01, rabi=0.0, detuning=-5.0)
    @example(gamma=1.0, rabi=0.25, detuning=0.0)  # Mollow threshold
    def test_matches_numerical_solve(self, gamma, rabi, detuning):
        # rabi and detuning in units of gamma.
        em = EmitterParams(gamma=gamma, rabi=rabi * gamma, detuning=detuning * gamma)
        state = emitter_state(em)
        solved = qmath.unvec(qmath.steady_vector(state.liouvillian))
        assert np.max(np.abs(state.rho - solved)) < 1e-13

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(0.01, 100.0),
        rabi=st.floats(1e-3, 1e3),
        detuning=st.floats(-5.0, 5.0),
    )
    @example(gamma=1.3, rabi=0.7, detuning=-0.4)
    @example(gamma=1.0, rabi=0.0, detuning=0.0)
    @example(gamma=1.0, rabi=0.5, detuning=-0.0)
    @example(gamma=0.8, rabi=0.0, detuning=-2.0)
    def test_blocks_match_system_model(self, gamma, rabi, detuning):
        # The written-out L_e is the assembled one bit for bit, signed zeros
        # included, so no downstream result can move by a rounding.
        em = EmitterParams(gamma=gamma, rabi=rabi, detuning=detuning)
        state = emitter_state(em)
        model = SystemModel(em)
        assert np.array_equal(state.sigma.view(np.uint64), model.sigma.view(np.uint64))
        assert np.array_equal(state.liouvillian.view(np.uint64), build_liouvillian(model).view(np.uint64))

    def test_residual_check_catches_a_wrong_convention(self, monkeypatch):
        # A Liouvillian with the detuning's sign flipped no longer fits the
        # closed form, as a sign-convention drift would; the residual says so.
        em = EmitterParams(gamma=1.0, rabi=0.5, detuning=0.5)
        flipped = build_liouvillian(SystemModel(EmitterParams(gamma=1.0, rabi=0.5, detuning=-0.5)))
        monkeypatch.setattr(dynamics, "_emitter_liouvillian", lambda emitter: flipped)
        with pytest.raises(qmath.SteadyStateError, match="residual"):
            emitter_state(em)


def test_result_paths_run_no_numerical_steady_solve(monkeypatch):
    # Every binding of the numerical solvers raises; the README figure
    # traffic, the spectra and the bare-emitter correlations must not reach
    # them, because the emitter's steady state is in closed form.
    solvers = (qmath.steady_vector, dynamics.steady_state)

    def refuse(*args, **kwargs):
        raise AssertionError("a result path ran a numerical steady solve")

    for name, module in list(sys.modules.items()):
        if name == "filtered_rf" or name.startswith("filtered_rf."):
            for key, value in list(vars(module).items()):
                if any(value is solver for solver in solvers):
                    monkeypatch.setattr(module, key, refuse)

    gamma = 20.0 / HBAR_UEV_PS
    irf = GaussianIRF(fwhm=37.5)
    weak = EmitterParams(gamma=gamma, rabi=0.5 * gamma, laser_linewidth=0.01 / HBAR_UEV_PS)
    for width in (150.0, 23.0, 4.85, 0.85, 0.29, 0.0125):  # fig2a, with the IRF
        sweep_point(weak, "filter_width", width * gamma, None, 0.0, 0.0, 0.0, irf)
    for width in (0.05, 0.1, 0.29, 1.0):  # the beta = 0.2 band
        sweep_point(weak, "filter_width", width * gamma, None, 0.0, 0.0, 0.2, None)
    for width in (0.29, 0.85, 4.85):
        filtered_g2(weak, width * gamma)
    for rabi in (0.5, 2.0, 4.0):
        em = EmitterParams(gamma=gamma, rabi=rabi * gamma, laser_linewidth=weak.laser_linewidth)
        span = (2.0 * rabi + 10.0) * gamma
        emission_spectrum(em, np.linspace(-span, span, 401))
    for rabi in (0.5, 1.0, 2.0, 4.0):  # fig4b, etalon preset
        em = EmitterParams(gamma=gamma, rabi=rabi * gamma, laser_linewidth=weak.laser_linewidth)
        filtered_fractions(em, 0.29 * gamma)
    taus = default_tau_grid(weak)
    unfiltered_g2(weak, taus)
    first_order_coherence(weak, taus)


class TestTwoTimeCorrelator:
    def test_zero_delay_is_steady_expectation(self):
        model, L = emitter_liouvillian(rabi=0.8)
        ident = np.eye(2, dtype=complex)
        number = model.sigma.conj().T @ model.sigma
        got = two_time_correlator(L, ident, ident, number, [0.0])[0]
        assert abs(got - bloch_steady_excited(1.0, 0.8)) < 1e-12

    def test_matches_rk4_regression_oracle(self):
        # <sigma^dag sigma (tau) | jump at 0>: evolve sigma rho sigma^dag.
        model, L = emitter_liouvillian(rabi=2.0)
        sigma = model.sigma
        number = sigma.conj().T @ sigma
        taus = np.linspace(0.0, 6.0, 13)
        got = two_time_correlator(L, sigma, sigma.conj().T, number, taus)

        rho_ss = steady_state(L).rho
        x0 = sigma @ rho_ss @ sigma.conj().T
        expected = bloch_rk4(x0, 1.0, 2.0, taus, step=1e-4)[:, 1, 1]
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_trace_preservation_under_evolution(self):
        _, L = emitter_liouvillian(rabi=1.3)
        rng = np.random.default_rng(20)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        prop = qmath.Propagator(L)
        for t in (0.0, 0.7, 4.0):
            evolved = qmath.unvec(prop.apply_grid(qmath.vec(x), [t])[:, 0])
            assert abs(np.trace(evolved) - np.trace(x)) < 1e-9

    def test_hermiticity_preserved(self):
        _, L = emitter_liouvillian(rabi=1.3)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        prop = qmath.Propagator(L)
        a = qmath.unvec(prop.apply_grid(qmath.vec(x.conj().T), [0.9])[:, 0])
        b = qmath.unvec(prop.apply_grid(qmath.vec(x), [0.9])[:, 0]).conj().T
        assert np.allclose(a, b, atol=1e-10)

    def test_rejects_descending_taus(self):
        _, L = emitter_liouvillian()
        with pytest.raises(ValueError):
            two_time_correlator(L, np.eye(2), np.eye(2), np.eye(2), [1.0, 0.5])


class TestFirstOrderCoherence:
    def test_zero_delay_is_population(self):
        em = EmitterParams(gamma=1.0, rabi=0.5)
        g1 = first_order_coherence(em, [0.0])
        assert abs(g1[0] - 1.0 / 6.0) < 1e-12

    def test_long_time_factorization(self):
        em = EmitterParams(gamma=1.0, rabi=0.5)
        g1 = first_order_coherence(em, [50.0])
        assert abs(g1[0] - 1.0 / 9.0) < 1e-6

    def test_sideband_structure_at_strong_drive(self):
        # The Liouvillian eigenvalues carry the sideband splitting
        # sqrt(rabi^2 - (gamma/4)^2); at rabi = 5 gamma the FT of g1 shows
        # them as resolved peaks (at 2 gamma the dispersive parts reduce
        # them to shoulders).
        em = EmitterParams(gamma=1.0, rabi=5.0)
        _, L = emitter_liouvillian(rabi=5.0)
        splitting = np.sqrt(25.0 - 1.0 / 16.0)
        imag_parts = np.sort(np.linalg.eigvals(L).imag)
        assert abs(imag_parts[0] + splitting) < 1e-10
        assert abs(imag_parts[-1] - splitting) < 1e-10

        taus = np.linspace(0.0, 60.0, 12000)
        g1 = first_order_coherence(em, taus)
        fluct = g1 - g1[-1]
        omegas = np.linspace(-8.0, 8.0, 3201)
        kernel = np.exp(1j * np.outer(omegas, taus))
        spec = (kernel @ fluct).real * (taus[1] - taus[0]) / np.pi
        for sign in (-1, 1):
            window = (sign * omegas > 2.0) & (np.abs(omegas) < 8.0)
            peak = omegas[window][np.argmax(spec[window])]
            assert abs(abs(peak) - splitting) < 0.1


def test_default_tau_grid_spans():
    em = EmitterParams(gamma=2.0, rabi=1.0)
    taus = default_tau_grid(em)
    assert taus[0] == 0.0 and taus.size == 2001
    assert np.isclose(taus[-1], max(10.0, 10 * 2 * np.pi))
    taus = default_tau_grid(em, filter_width=0.05)
    assert np.isclose(taus[-1], 400.0)
