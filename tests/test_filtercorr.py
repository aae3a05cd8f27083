import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filtered_rf import filtercorr, qmath
from filtered_rf.dynamics import SIGMA, default_tau_grid, emitter_state, steady_state
from filtered_rf.filtercorr import (
    BackgroundCalibrationError,
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
from filtered_rf.instrument import GaussianIRF, irf_convolve, kernel_half_width
from filtered_rf.system import HBAR_UEV_PS, EmitterParams, SystemModel, build_liouvillian

from oracles import background_only_population, bloch_g2, bloch_rhs, unfiltered_g2_closed_form

WEAK = EmitterParams(gamma=1.0, rabi=0.5)
STRONG = EmitterParams(gamma=1.0, rabi=2.0)


def hand_built_trace_generator(L, emit, absorb, k):
    """The 16x16 trace generator over (Y00, Y10, Y01, Y11), block by block:
    L_e less the probe sensor's kappa on the diagonal, ``emit`` raising the
    probe's ket and ``absorb`` its bra."""
    G = np.zeros((16, 16), dtype=complex)
    for j, shift in enumerate((0.0, k, k.conjugate(), 2.0 * k.real)):
        G[4 * j : 4 * j + 4, 4 * j : 4 * j + 4] = L - shift * np.eye(4)
    G[4:8, :4] = G[12:16, 8:12] = emit
    G[8:12, :4] = G[12:16, 4:8] = absorb
    return G


class TestUnfilteredG2:
    def test_zero_delay_vanishes(self):
        tr = unfiltered_g2(WEAK, np.linspace(0.0, 10.0, 101))
        assert abs(tr.values[0]) < 1e-10

    def test_long_delay_factorizes(self):
        tr = unfiltered_g2(WEAK, np.linspace(0.0, 60.0, 601))
        assert abs(tr.values[-1] - 1.0) < 1e-8

    def test_matches_bloch_rk4_oracle(self):
        taus = np.linspace(0.0, 8.0, 21)
        for em in (WEAK, STRONG):
            got = unfiltered_g2(em, taus).values
            expected = bloch_g2(em.gamma, em.rabi, taus)
            assert np.max(np.abs(got - expected)) < 1e-8

    def test_matches_closed_form(self):
        taus = np.linspace(0.0, 15.0, 151)
        for em in (WEAK, STRONG):
            got = unfiltered_g2(em, taus).values
            expected = unfiltered_g2_closed_form(em.gamma, em.rabi, taus)
            assert np.max(np.abs(got - expected)) < 1e-10


class TestFilteredG2:
    def test_broad_filter_recovers_antibunching(self):
        tr = filtered_g2(WEAK, 150.0, taus=np.array([0.0]))
        assert tr.values[0] < 0.02

    def test_narrow_filter_poissonian(self):
        tr = filtered_g2(WEAK, 0.01, taus=np.array([0.0]))
        assert abs(tr.values[0] - 1.0) < 0.05

    def test_strong_drive_bunching(self):
        tr = filtered_g2(STRONG, 0.29, taus=np.array([0.0]))
        assert tr.values[0] > 1.0

    def test_large_width_matches_unfiltered(self):
        for em in (WEAK, STRONG):
            taus = np.linspace(0.0, 20.0, 401)
            filt = filtered_g2(em, 500.0, taus=taus)
            bare = unfiltered_g2(em, taus)
            assert np.max(np.abs(filt.values - bare.values)) < 0.02

    def test_values_nonnegative_and_settle_to_one(self):
        for width in (0.29, 5.0):
            tr = filtered_g2(WEAK, width)
            assert tr.values.min() > -1e-9
            assert abs(tr.values[-1] - 1.0) < 2e-2

    def test_sensor_swap_symmetry(self):
        pipe = TwoSensorModel(STRONG, 0.29, 0.0, default_eta(STRONG, 0.29), 0.0)
        taus = np.linspace(0.0, 15.0, 151)
        forward = pipe.g2_values(taus, jump_sensor=0, probe_sensor=1)
        swapped = pipe.g2_values(taus, jump_sensor=1, probe_sensor=0)
        assert np.allclose(forward, swapped, atol=1e-10)

    def test_energy_time_scaling_invariance(self):
        scale = 4.2
        taus = np.linspace(0.0, 25.0, 201)
        a = filtered_g2(STRONG, 0.29, taus=taus)
        scaled = EmitterParams(gamma=scale, rabi=2.0 * scale)
        b = filtered_g2(scaled, 0.29 * scale, taus=taus / scale)
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_offset_filter_supported(self):
        # cross-correlation configuration: filter off the laser line
        tr = filtered_g2(STRONG, 0.5, filter_center=2.0, taus=np.array([0.0]))
        assert np.isfinite(tr.values[0]) and tr.values[0] >= 0.0

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            filtered_g2(WEAK, 0.0)

    def test_rejects_nan_width_before_building_a_grid(self):
        with pytest.raises(ValueError, match="filter width must be > 0, got nan"):
            filtered_g2(WEAK, np.nan)

    @pytest.mark.parametrize(
        "width, center",
        [(-0.29, 0.0), (0.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (0.29, np.nan), (0.29, -np.inf)],
    )
    def test_pipeline_rejects_bad_filter(self, width, center):
        # Unchecked, a negative width computes a plausible g2(0) and NaN gives NaN.
        with pytest.raises(ValueError, match="filter (width|center) must be finite"):
            SensorPipeline(WEAK, width, center)
        with pytest.raises(ValueError, match="filter (width|center) must be finite"):
            sweep_point(WEAK, "rabi", 0.5, width, center)

    @pytest.mark.parametrize("b", [np.nan, np.inf])
    def test_pipeline_rejects_non_finite_amplitude(self, b):
        # Unchecked, g2_zero(nan) reported "no emission without drive".
        pipe = SensorPipeline(WEAK, 0.29)
        for call in (lambda: pipe.population(b), lambda: pipe.g2_zero(b), lambda: pipe.g2_values([0.0, 1.0], b)):
            with pytest.raises(ValueError, match="background amplitude must be finite"):
                call()

    def test_zero_drive_is_an_error(self):
        # Without drive there is no emission to normalize by.
        dark = EmitterParams(gamma=1.0, rabi=0.0)
        taus = np.linspace(0.0, 10.0, 11)
        for call in (
            lambda: unfiltered_g2(dark, taus),
            lambda: filtered_g2(dark, 0.29, taus=taus),
            lambda: SensorPipeline(dark, 0.29).g2_zero(),
            lambda: SensorPipeline(dark, 0.29).g2_values(taus),
            lambda: sweep_point(dark, "filter_width", 0.29, None, 0.0, 0.0, 0.0, None),
        ):
            with pytest.raises(ValueError, match="no emission without drive"):
                call()
        # The laser background alone is coherent light: g2 = 1 at every delay.
        lit = SensorPipeline(dark, 0.29)
        assert lit.g2_zero(0.5) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(lit.g2_values(taus, 0.5) - 1.0)) < 1e-12

    def test_scaled_engine_matches_plain_regression(self):
        # at a moderate coupling the rescaled solve must agree with the
        # textbook route: steady state + regression on the raw generator
        from filtered_rf.dynamics import two_time_correlator
        from filtered_rf.system import SensorConfig

        eta = 1e-2
        taus = np.linspace(0.0, 10.0, 41)
        pipe = TwoSensorModel(STRONG, 0.5, 0.0, eta, 0.3)
        sensor = SensorConfig(nu=0.0, width=0.5, eta=eta, background=0.3)
        model = SystemModel(STRONG, (sensor, sensor))
        L = build_liouvillian(model)
        rho = steady_state(L).rho
        t1, t2 = model.sensor_lower
        n1 = t1.conj().T @ t1
        n2 = t2.conj().T @ t2
        pops = (
            np.trace(n1 @ rho).real,
            np.trace(n2 @ rho).real,
        )
        raw = two_time_correlator(L, t1, t1.conj().T, n2, taus).real
        plain = raw / (pops[0] * pops[1])
        assert np.allclose(pipe.g2_values(taus), plain, rtol=1e-6, atol=1e-8)
        assert pipe.n1_pop == pytest.approx(pops[0], rel=1e-9)

    def test_warns_on_extremely_narrow_filter(self):
        # The width is stated over gamma, whatever the rate units.
        slow = EmitterParams(gamma=0.25, rabi=0.125)
        with pytest.warns(UserWarning, match=r"filter width 5e-05 gamma is below 1e-4 gamma; .*tau grid"):
            filtered_g2(slow, 5e-5 * slow.gamma, taus=np.array([0.0]))

    def test_metadata_records_parameters(self):
        tr = filtered_g2(WEAK, 2.0, taus=np.array([0.0]))
        md = tr.metadata
        assert md["filter_width"] == 2.0
        assert md["beta"] == 0.0
        assert md["irf_applied"] is False
        assert md["background_b"] == 0.0
        # No delay to propagate, so no propagator ran.
        assert md["propagator_method"] is None
        assert md["propagator_condition"] is None

    @pytest.mark.parametrize(
        "rabi, width, method",
        [(0.5, 0.29, "eig"), (2.0, 0.01, "eig"), (0.25, 1.0, "expm")],
    )
    def test_metadata_records_propagator(self, rabi, width, method):
        # width = gamma at rabi = gamma/4: the generator is defective.
        em = EmitterParams(gamma=1.0, rabi=rabi)
        md = filtered_g2(em, width, beta=0.2, taus=np.linspace(0.0, 5.0, 11)).metadata
        assert md["propagator_method"] == method
        condition = md["propagator_condition"]
        if method == "eig":
            assert 1.0 <= condition <= qmath.COND_LIMIT
        else:
            assert condition == np.inf


class TestVanishingCouplingLimit:
    @settings(max_examples=20, deadline=None)
    @given(rabi=st.floats(0.05, 20.0), width=st.floats(0.01, 500.0))
    def test_finite_coupling_converges_to_limit(self, rabi, width):
        em = EmitterParams(gamma=1.0, rabi=rabi)
        limit = SensorPipeline(em, width).g2_zero()
        shifts = [
            abs(TwoSensorModel(em, width, 0.0, eta, 0.0).g2_zero() - limit)
            for eta in (default_eta(em, width) * 10.0, default_eta(em, width))
        ]
        assert shifts[1] <= 1e-3 * max(1.0, limit)
        # back-action is O(eta^2): a tenfold smaller coupling cuts the shift
        # by about a hundred, down to the roundoff floor
        assert shifts[1] <= max(shifts[0] / 10.0, 1e-11)

    @settings(max_examples=15, deadline=None)
    @given(
        scale=st.floats(1e-3, 1e3),
        rabi=st.floats(0.05, 20.0),
        width=st.floats(0.01, 500.0),
        center=st.floats(-2.0, 2.0),
    )
    # A narrow detuned filter: with the sectors unbalanced, the coincidence
    # lost about 1e-8 relative in the steady solve.
    @example(scale=3.0, rabi=0.25, width=0.03125, center=1.0)
    def test_unit_scaling_invariance(self, scale, rabi, width, center):
        em = EmitterParams(gamma=1.0, rabi=rabi)
        scaled = EmitterParams(gamma=scale, rabi=rabi * scale)
        pipe = SensorPipeline(em, width, center)
        scaled_pipe = SensorPipeline(scaled, width * scale, center * scale)
        b, scaled_b = calibrate_background(pipe, 0.2), calibrate_background(scaled_pipe, 0.2)
        assert scaled_b == pytest.approx(b, rel=1e-9)
        assert scaled_pipe.g2_zero(scaled_b) == pytest.approx(pipe.g2_zero(b), rel=1e-9, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        rabi=st.floats(0.05, 20.0),
        detuning=st.floats(-2.0, 2.0),
        width=st.floats(0.01, 300.0),
        center=st.floats(-3.0, 3.0),
        b=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_emitter_space_matches_two_sensor_limit(self, rabi, detuning, width, center, b):
        em = EmitterParams(gamma=1.0, rabi=rabi, detuning=detuning)
        pipe = SensorPipeline(em, width, center)
        ref = TwoSensorModel(em, width, center, 0.0, b)
        assert pipe.g2_zero(b) == pytest.approx(ref.g2_zero(), rel=1e-12)
        # Both populations: the reference solves for each sensor apart, the
        # pipeline gives both from the one count-indexed hierarchy.
        assert (pipe.population(b),) * 2 == pytest.approx(ref.scaled_populations, rel=1e-12)
        # <sigma> of the reference: its zero-sensor block, the only one that
        # weighs in the trace at eta = 0.  |2 Re<sigma>| <= 1, so the floor
        # is 1e-12 of max(1, |2 Re<sigma>|); at resonance it is exactly 0.
        ground = ref.model.sensor_excitations() == 0
        coherence = np.diag(ref.model.sigma @ ref.rho_scaled)[ground].sum()
        assert 2.0 * pipe.emitter_coherence.real == pytest.approx(
            2.0 * coherence.real, rel=1e-12, abs=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(
        rabi=st.floats(0.05, 20.0),
        detuning=st.floats(-2.0, 2.0),
        width=st.floats(0.05, 300.0),
        center=st.floats(-3.0, 3.0),
        b=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @example(rabi=0.25, detuning=0.0, width=1.0, center=0.0, b=0.3)
    @example(rabi=2.0, detuning=0.0, width=0.05, center=2.0, b=1.0)
    def test_sensor_exchange(self, rabi, detuning, width, center, b):
        # At eta = 0 the two sensors are one filter of one field, which is
        # what lets the pipeline index its hierarchy by excitation counts.
        # The 64-dim reference keeps the sensors apart, so it must show the
        # symmetry itself: equal populations, and the same trace with the
        # jump and probe sensors exchanged; the pipeline's trace is that
        # trace.  Below a width of about 0.05 a detuned filter puts the
        # reference's eigenbasis near condition 1e6, past COND_LIMIT, where
        # its traces take the slower expm path; the fixed narrow points
        # above cover that region.
        em = EmitterParams(gamma=1.0, rabi=rabi, detuning=detuning)
        ref = TwoSensorModel(em, width, center, 0.0, b)
        n1, n2 = ref.scaled_populations
        assert n1 == pytest.approx(n2, rel=1e-12)
        taus = np.linspace(0.0, default_tau_grid(em, width)[-1], 41)
        forward = ref.g2_values(taus, jump_sensor=0, probe_sensor=1)
        swapped = ref.g2_values(taus, jump_sensor=1, probe_sensor=0)
        scale = np.maximum(1.0, np.abs(forward))
        assert np.max(np.abs(swapped - forward) / scale) < 1e-10
        got = SensorPipeline(em, width, center).g2_values(taus, b)
        assert np.max(np.abs(got - forward) / scale) < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(
        rabi=st.floats(0.05, 20.0),
        detuning=st.floats(-2.0, 2.0),
        width=st.floats(0.01, 300.0),
        center=st.floats(-3.0, 3.0),
    )
    def test_components_pair_as_adjoints(self, rabi, detuning, width, center):
        # The bra side of the hierarchy is the adjoint of the ket side, so
        # X_{q,p} = X_{p,q}^dag, to 1e-10 of each component's largest entry.
        em = EmitterParams(gamma=1.0, rabi=rabi, detuning=detuning)
        x = SensorPipeline(em, width, center)._components
        ops = x.reshape(3, 3, 2, 2).swapaxes(-1, -2)  # undo the column stacking
        gap = np.abs(ops.swapaxes(0, 1) - ops.conj().swapaxes(-1, -2)).max(axis=(-1, -2))
        assert np.all(gap <= 1e-10 * np.abs(ops).max(axis=(-1, -2)))

    @settings(max_examples=100, deadline=None)
    @given(
        rabi=st.floats(0.05, 20.0),
        detuning=st.floats(-2.0, 2.0),
        width=st.floats(0.01, 300.0),
        center=st.floats(-3.0, 3.0),
    )
    # A narrow filter on a Mollow sideband, where one dense solve of the
    # whole ladder leaves a residual near 2e-13 of this scale.
    @example(rabi=2.7057, detuning=-0.01536, width=0.012167, center=2.3603)
    def test_components_solve_the_hierarchy(self, rabi, detuning, width, center):
        # Each X_{p,q} but the steady state solves, on the 2x2 operators,
        #   (p k + q conj(k)) X_{p,q} - L_e[X_{p,q}]
        #       = -i m p sigma X_{p-1,q} + i m q X_{p,q-1} sigma^dag,
        # with L_e the Bloch equations.  Solved block by block, the residual
        # stays within rounding of (|p k + q conj(k)| + ||L_e||) ||X|| + ||rhs||.
        em = EmitterParams(gamma=1.0, rabi=rabi, detuning=detuning)
        ops = SensorPipeline(em, width, center)._components.reshape(3, 3, 2, 2).swapaxes(-1, -2)
        k = complex(width / 2.0, center)
        m = abs(k)
        norm_L = np.linalg.norm([bloch_rhs(e, 1.0, rabi, detuning) for e in np.eye(4).reshape(4, 2, 2)])
        for p, q in list(np.ndindex(3, 3))[1:]:
            kappa = p * k + q * k.conjugate()
            x = ops[p, q]
            rhs = np.zeros((2, 2), dtype=complex)
            if p:
                rhs -= 1j * m * p * SIGMA @ ops[p - 1, q]
            if q:
                rhs += 1j * m * q * ops[p, q - 1] @ SIGMA.conj().T
            residual = np.linalg.norm(kappa * x - bloch_rhs(x, 1.0, rabi, detuning) - rhs)
            scale = (abs(kappa) + norm_L) * np.linalg.norm(x) + np.linalg.norm(rhs)
            assert residual <= 1e-14 * scale, (p, q)

    @pytest.mark.parametrize(
        "rabi, width, center, b",
        [
            pytest.param(0.25, 1.0, 0.0, 0.0, id="0.25"),
            pytest.param(2.0, 1.0, 0.0, 0.0, id="2.0"),
            pytest.param(0.25, 0.01, 2.0, 0.7, id="0.25-narrow-detuned-background"),
            # A narrow filter on a Mollow sideband: the 64-dim generator's
            # eigenvectors are ill conditioned there (expm path).
            pytest.param(2.0, 0.01, 2.0, 0.0, id="sideband-0.01"),
            pytest.param(2.0, 0.0125, 2.0, 0.0, id="sideband-0.0125"),
            # The 64-dim eig trace is itself 1.6e-9 off here.
            pytest.param(9.99, 0.0125, 1.96, 1.0, id="strong-sideband-background"),
        ],
    )
    def test_trace_matches_two_sensor_limit(self, rabi, width, center, b):
        em = EmitterParams(gamma=1.0, rabi=rabi)
        taus = default_tau_grid(em, width)
        got = SensorPipeline(em, width, center).g2_values(taus, b)
        ref = TwoSensorModel(em, width, center, 0.0, b).g2_values(taus)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-8

    @pytest.mark.parametrize(
        "rabi, width, center",
        [
            *(
                pytest.param(rabi, width, 0.0, id=f"fig2a-{rabi}-{width}")
                for rabi in (0.5, 2.0)
                for width in (150.0, 23.0, 4.85, 0.85, 0.29, 0.0125)
            ),
            pytest.param(0.25, 1.0, 0.0, id="defective-0.25"),
            pytest.param(2.0, 1.0, 0.0, id="defective-2.0"),
            pytest.param(0.25, 0.01, 2.0, id="narrow-detuned"),
            pytest.param(2.0, 0.01, 2.0, id="sideband-0.01"),
            pytest.param(2.0, 0.0125, 2.0, id="sideband-0.0125"),
            pytest.param(9.99, 0.0125, 1.96, id="strong-sideband"),
        ],
    )
    def test_calibrated_pipeline_matches_two_sensor_limit(self, rabi, width, center):
        # The pipeline reads the b = 0 solution out at the calibrated b; the
        # 64-dim model solves at b directly.
        em = EmitterParams(gamma=1.0, rabi=rabi)
        pipe = SensorPipeline(em, width, center)
        b = calibrate_background(pipe, 0.2)
        ref = TwoSensorModel(em, width, center, 0.0, b)
        assert pipe.g2_zero(b) == pytest.approx(ref.g2_zero(), rel=1e-12)
        taus = default_tau_grid(em, width)
        got, expected = pipe.g2_values(taus, b), ref.g2_values(taus)
        assert np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))) < 1e-8

    @pytest.mark.parametrize(
        "gamma, rabi, width, center, b",
        [
            pytest.param(1.0, 0.25, 1.0, 0.0, 0.0, id="0.25"),
            pytest.param(1.0, 2.0, 1.0, 0.0, 0.0, id="2.0"),
            pytest.param(1.0, 0.25, 0.01, 2.0, 0.7, id="0.25-narrow-detuned-background"),
            pytest.param(20.0 / HBAR_UEV_PS, 0.24999999, 0.1, -3.0, 0.0, id="near-threshold-detuned"),
        ],
    )
    def test_limit_trace_where_generator_is_defective(self, gamma, rabi, width, center, b):
        # width = gamma, and rabi = gamma/4, make the eta = 0 generator
        # exactly defective; the trace must still come out real and match
        # the finite-coupling model.  The narrow detuned filter with
        # background takes the expm path.  Just below the threshold (here
        # in the CLI's units, gamma = 20 ueV) the detuned filter's
        # eigenbasis reads a condition near 7e4, past COND_LIMIT, so it
        # takes expm too; through that eigenbasis its g2 would carry an
        # imaginary part of 3e-9.
        em = EmitterParams(gamma=gamma, rabi=rabi * gamma)
        taus = np.linspace(0.0, 20.0 / gamma, 81)
        pipe = SensorPipeline(em, width * gamma, center * gamma)
        limit = pipe.g2_values(taus, b)
        assert pipe.propagator.method == "expm"
        ref = TwoSensorModel(em, width * gamma, center * gamma, default_eta(em, width * gamma), b)
        assert np.max(np.abs(limit - ref.g2_values(taus))) < 1e-5


class TestTraceEigendecomposition:
    @settings(max_examples=40, deadline=None)
    @given(
        rabi=st.floats(0.05, 20.0),
        detuning=st.floats(-2.0, 2.0),
        linewidth=st.sampled_from([0.0, 1e-3, 0.1]),
        width=st.floats(0.01, 300.0),
        center=st.floats(-3.0, 3.0),
    )
    @example(rabi=0.25, detuning=0.0, linewidth=0.0, width=1.0, center=0.0)
    @example(rabi=0.25, detuning=0.0, linewidth=0.0, width=0.5, center=0.0)
    # Filter coincidences, lambda_m - lambda_i + t = 0 for a shift t of the
    # trace generator: at width = gamma L_e's eigenvalues -1/2 and 0 differ
    # by k (exactly at the first point), at width = gamma/2 by 2 Re k.
    @example(rabi=0.05000000000000001, detuning=0.0, linewidth=0.0, width=1.0, center=0.0)
    @example(rabi=2.0, detuning=0.0, linewidth=0.0, width=1.0, center=0.0)
    @example(rabi=1.0, detuning=0.0, linewidth=0.0, width=0.5, center=0.0)
    def test_structured_eigenpairs_solve_the_generator(self, rabi, detuning, linewidth, width, center):
        # The eigenpairs from L_e's 4x4 decomposition are eigenpairs of the
        # 16x16 trace generator, with unit columns as numpy.linalg.eig gives.
        em = EmitterParams(gamma=1.0, rabi=rabi, detuning=detuning, laser_linewidth=linewidth)
        pipe = SensorPipeline(em, width, center)
        G = pipe._ladder[filtercorr._TRACE_BLOCK]
        L, emit, absorb, _ = G[:, :4].reshape(4, 4, 4)
        k = pipe._rate
        eigen = evals, evecs = filtercorr._trace_eigen(L, emit, absorb, k)
        method = qmath.Propagator(G, eigen).method
        differences = evals[None, :4] - evals[:4, None]

        def coincides(t):
            return np.abs(differences + t).min() <= 1e-13 * np.linalg.norm(L)

        if rabi == 0.25 and abs(detuning) < 1e-8 or coincides(k) or coincides(k.conjugate()):
            # The Mollow threshold (a detuning below 1e-8 is zero to this
            # precision), where L_e is defective, or a coincidence with k,
            # where the structured eigenvectors divide by zero: no usable
            # eigenbasis, so the propagator must not use these pairs.
            assert method == "expm"
        elif not (coincides(2.0 * k.real) and method == "expm"):
            # At a coincidence with 2 Re k the corner block's numerator can
            # vanish too (rabi = gamma, width = gamma/2): then the pairs
            # stay exact and the eig path takes them.
            assert np.linalg.norm(G @ evecs - evecs * evals) <= 1e-12 * np.linalg.norm(G)
            assert np.allclose(np.linalg.norm(evecs, axis=0), 1.0, rtol=1e-14)
        # The same spectrum as the generic decomposition, pole for pole.
        generic = np.linalg.eigvals(G)
        gaps = np.abs(evals[:, None] - generic[None, :]).min(axis=1)
        assert gaps.max() <= 1e-6 * np.linalg.norm(G)

    def test_exact_coincidence_reads_as_condition_inf(self):
        # L_e's eigenvalues 0 and -1/2 with k = 1/2: lambda_m - lambda_i + k
        # is exactly 0, a nonzero entry of E over it is inf and a zero one
        # 0/0.  Neither may warn (warnings are errors here), and the
        # propagator must take the expm path.
        L = np.diag([0.0, -0.5, -1.0, -1.5]).astype(complex)
        rng = np.random.default_rng(3)
        emit = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        absorb = emit.conj().T
        for zeroed in (False, True):
            if zeroed:
                emit[0, 1] = absorb[0, 1] = 0.0
            evals, evecs = filtercorr._trace_eigen(L, emit, absorb, 0.5 + 0j)
            assert not np.isfinite(evecs).all()
            G = hand_built_trace_generator(L, emit, absorb, 0.5 + 0j)
            prop = qmath.Propagator(G, (evals, evecs))
            assert prop.method == "expm" and prop.condition == np.inf


    @settings(max_examples=40, deadline=None)
    @given(
        rabi=st.floats(0.05, 20.0),
        detuning=st.floats(-2.0, 2.0),
        width=st.floats(0.01, 300.0),
        center=st.floats(-3.0, 3.0),
    )
    def test_trace_generator_is_the_ladders_first_block(self, rabi, detuning, width, center):
        # The propagator of a trace runs on the sensor ladder's principal
        # block over p, q <= 1, entry for entry the generator built by hand.
        em = EmitterParams(gamma=1.0, rabi=rabi, detuning=detuning)
        pipe = SensorPipeline(em, width, center)
        pipe.g2_values(np.linspace(0.0, 1.0, 3))
        k = 0.5 * width + 1j * center
        emit = -1j * abs(k) * qmath.spre(SIGMA)
        absorb = 1j * abs(k) * qmath.spost(SIGMA.conj().T)
        expected = hand_built_trace_generator(emitter_state(em).liouvillian, emit, absorb, k)
        assert np.array_equal(pipe.propagator.matrix, expected)


class TestAbstractClaim:
    # Resonant drive and a resonant filter: as rabi -> 0 the filtered g2(0)
    # tends to (gamma / (gamma + width))^2, and over the drive it never
    # falls below that value, so a filter no wider than gamma keeps
    # g2(0) >= 1/4.
    WIDTHS = (0.1, 0.29, 0.5, 0.8, 1.0, 2.0, 5.0)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_weak_drive_limit(self, width):
        bound = (1.0 / (1.0 + width)) ** 2
        g2 = SensorPipeline(EmitterParams(gamma=1.0, rabi=1e-3), width).g2_zero()
        assert g2 == pytest.approx(bound, rel=1e-5)
        # The approach is O(rabi^2): measured 0.90 rabi^2 at most.
        for rabi in (1e-3, 1e-2, 0.03, 0.1):
            g2 = SensorPipeline(EmitterParams(gamma=1.0, rabi=rabi), width).g2_zero()
            assert abs(g2 - bound) <= rabi**2

    @settings(max_examples=60, deadline=None)
    @given(log_rabi=st.floats(-3.0, 1.5), width=st.floats(0.1, 5.0))
    def test_weak_drive_value_bounds_g2_zero(self, log_rabi, width):
        g2 = SensorPipeline(EmitterParams(gamma=1.0, rabi=10.0**log_rabi), width).g2_zero()
        assert g2 >= (1.0 / (1.0 + width)) ** 2 * (1.0 - 1e-12)


class TestBroadFilterLimit:
    @settings(max_examples=40, deadline=None)
    @given(
        gamma=st.floats(0.1, 10.0),
        log_rabi=st.floats(-3.0, 1.5),
        detuning=st.floats(-3.0, 3.0),
        log_width=st.floats(1.0, 4.0),
    )
    @example(gamma=1.0, log_rabi=np.log10(0.075), detuning=3.0, log_width=1.0)
    def test_broad_filter_gives_the_unfiltered_g2(self, gamma, log_rabi, detuning, log_width):
        # A filter much wider than every emitter rate, B = gamma + rabi +
        # |detuning|, passes the field unchanged: g2 departs from the bare
        # emitter's by at most B / width (0.45 B / width at the example).
        em = EmitterParams(gamma=gamma, rabi=10.0**log_rabi * gamma, detuning=detuning * gamma)
        rates = em.gamma + em.rabi + abs(em.detuning)
        width = 10.0**log_width * rates
        taus = default_tau_grid(em)
        gap = np.max(np.abs(filtered_g2(em, width, taus=taus).values - unfiltered_g2(em, taus).values))
        assert gap <= rates / width


    @settings(max_examples=100, deadline=None)
    @given(
        log_gamma=st.floats(-2.0, 2.0),
        log_rabi=st.floats(-3.0, 1.5),
        detuning=st.floats(-3.0, 3.0),
        center=st.floats(-3.0, 3.0),
        log_f=st.floats(2.0, 5.0),
    )
    def test_broad_filter_gives_the_unfiltered_g2_zero(self, log_gamma, log_rabi, detuning, center, log_f):
        # The bare emitter's g2(0) is 0.  A filter of width W = f s, s the
        # largest of gamma, rabi, |detuning| and |center|, lets through a
        # g2(0) of order (s / W)^2: at most 6.8 (s / W)^2 over 8000 draws,
        # flat from f = 1e2 to 1e5.
        gamma = 10.0**log_gamma
        em = EmitterParams(gamma=gamma, rabi=10.0**log_rabi * gamma, detuning=detuning * gamma)
        scale = max(gamma, em.rabi, abs(em.detuning), abs(center * gamma))
        width = 10.0**log_f * scale
        assert SensorPipeline(em, width, center * gamma).g2_zero() <= 10.0 * (scale / width) ** 2


class TestMirrorSymmetry:
    @settings(max_examples=40, deadline=None)
    @given(
        rabi=st.floats(0.01, 20.0),
        detuning=st.floats(-2.0, 2.0),
        width=st.floats(0.01, 100.0),
        center=st.floats(-3.0, 3.0),
    )
    def test_g2_zero_is_even_under_mirroring(self, rabi, detuning, width, center):
        # Mirroring every frequency about the laser maps the problem onto
        # itself: center -> -center at resonant drive, and (detuning,
        # center) -> (-detuning, -center) off it.
        resonant = EmitterParams(gamma=1.0, rabi=rabi)
        g2 = SensorPipeline(resonant, width, center).g2_zero()
        assert SensorPipeline(resonant, width, -center).g2_zero() == pytest.approx(g2, rel=1e-12)
        g2 = SensorPipeline(EmitterParams(gamma=1.0, rabi=rabi, detuning=detuning), width, center).g2_zero()
        mirrored = EmitterParams(gamma=1.0, rabi=rabi, detuning=-detuning)
        assert SensorPipeline(mirrored, width, -center).g2_zero() == pytest.approx(g2, rel=1e-12)


class TestEtaProtocol:
    def test_accepted_at_default_coupling(self):
        for em, width in ((WEAK, 150.0), (WEAK, 0.01), (STRONG, 0.29)):
            conv = eta_convergence(em, width)
            assert conv.accepted and conv.halvings == 0

    def test_deliberately_large_coupling_fails(self):
        with pytest.raises(EtaConvergenceError):
            eta_convergence(WEAK, 0.29, eta0=0.5, max_halvings=1)

    def test_halving_changes_little(self):
        conv = eta_convergence(STRONG, 0.29)
        assert abs(conv.g2_ref - conv.g2_half) < 1e-3 * max(1.0, abs(conv.g2_half))

    def test_background_continuity_at_zero(self):
        base = filtered_g2(STRONG, 0.29, taus=np.array([0.0])).values[0]
        tiny = filtered_g2(STRONG, 0.29, beta=1e-9, taus=np.array([0.0])).values[0]
        assert abs(base - tiny) < 1e-6


class TestBackgroundCalibration:
    def test_zero_beta_gives_zero_amplitude(self):
        b = calibrate_background(SensorPipeline(WEAK, 1.0), 0.0)
        assert type(b) is float and b == 0.0

    def test_forward_check_at_strong_drive(self):
        pipe = SensorPipeline(STRONG, 0.29)
        b = calibrate_background(pipe, 0.2)
        assert type(b) is float and b > 0.0
        assert abs(b**2 / pipe.population(b) - 0.2) < 1e-6

    def test_forward_check_catches_a_wrong_displacement(self, monkeypatch):
        # A population read at an amplitude that drifted from the solved root
        # (here, twice it) no longer gives back beta; the forward check says so.
        population = SensorPipeline.population
        monkeypatch.setattr(SensorPipeline, "population", lambda self, b=0.0: population(self, 2.0 * b))
        with pytest.raises(BackgroundCalibrationError, match="forward check"):
            calibrate_background(SensorPipeline(STRONG, 0.29), 0.2)

    def test_monotone_in_amplitude(self):
        eta = default_eta(STRONG, 0.29)
        ratios = []
        for b in np.linspace(0.05, 1.0, 8):
            total = TwoSensorModel(STRONG, 0.29, 0.0, eta, b).n1_pop
            ratios.append(background_only_population(0.29, 0.0, eta, b) / total)
        assert np.all(np.diff(ratios) > 0.0)

    @settings(max_examples=15, deadline=None)
    @given(
        rabi=st.floats(0.05, 20.0),
        detuning=st.floats(-2.0, 2.0),
        width=st.floats(0.01, 500.0),
        center=st.floats(-2.0, 2.0),
        beta=st.floats(1e-3, 0.2),
    )
    # Detuned emitters: the cross term B = 2 Re<sigma> is -+2/3 here, near its
    # largest magnitude, one example for each branch of the root.
    @example(rabi=2.0, detuning=1.5, width=0.29, center=1.0, beta=0.2)
    @example(rabi=2.0, detuning=-1.5, width=5.0, center=-1.0, beta=1e-3)
    def test_round_trip_through_finite_coupling(self, rabi, detuning, width, center, beta):
        # The closed-form root must reproduce beta in an independent
        # finite-eta model: background-only sensor from the Bloch steady
        # state, total population from the physical two-sensor solve.
        em = EmitterParams(gamma=1.0, rabi=rabi, detuning=detuning)
        ideal = SensorPipeline(em, width, center)
        bare = SystemModel(em)
        coherence = np.trace(bare.sigma @ steady_state(build_liouvillian(bare)).rho)
        assert 2.0 * ideal.emitter_coherence.real == pytest.approx(
            2.0 * coherence.real, abs=1e-12
        )
        b = calibrate_background(ideal, beta)
        eta = default_eta(em, width)
        total = TwoSensorModel(em, width, center, eta, b).n1_pop
        alone = background_only_population(width, center, eta, b)
        assert alone / total == pytest.approx(beta, abs=1e-5)

    def test_rejects_beta_outside_range(self):
        with pytest.raises(ValueError):
            calibrate_background(SensorPipeline(WEAK, 1.0), 0.25)
        with pytest.raises(ValueError):
            calibrate_background(SensorPipeline(WEAK, 1.0), -0.01)

    def test_unreachable_beta_raises(self):
        # rabi = 0: all sensor population is background, so the ratio jumps
        # from 0 to ~1 and no amplitude can produce beta = 0.1.  Without
        # drive there is nothing to calibrate against: the same error as
        # every other result that emission normalizes.
        dark = EmitterParams(gamma=1.0, rabi=0.0)
        with pytest.raises(ValueError, match="no emission without drive"):
            calibrate_background(SensorPipeline(dark, 5.0), 0.1)

    def test_pure_background_is_poissonian(self):
        # Emitter dark (rabi = 0), sensors driven only by the background:
        # coherent drive gives g2 = 1 at every delay.
        dark = EmitterParams(gamma=1.0, rabi=0.0)
        pipe = TwoSensorModel(dark, 5.0, 0.0, default_eta(dark, 5.0), 0.5)
        values = pipe.g2_values(np.linspace(0.0, 10.0, 101))
        assert np.max(np.abs(values - 1.0)) < 1e-3


class TestSweep:
    def test_single_point_matches_filtered_g2(self):
        row = sweep_point(WEAK, "filter_width", 0.29)
        direct = filtered_g2(WEAK, 0.29, taus=np.array([0.0])).values[0]
        assert row["x"] == 0.29
        assert row["g2_ideal"] == pytest.approx(direct, abs=1e-12)
        assert row["g2_lo"] == row["g2_hi"] == row["g2_ideal"]

    def test_weak_drive_shape(self):
        vals = [sweep_point(WEAK, "filter_width", x)["g2_ideal"] for x in (150.0, 1.0, 0.01)]
        assert vals[0] < 0.02
        assert 0.9 < vals[2] < 1.1
        assert vals[0] < vals[1] < vals[2]

    def test_rabi_axis_crosses_unity(self):
        rows = [sweep_point(STRONG, "rabi", x, 0.29) for x in (0.5, 4.0)]
        assert rows[0]["g2_ideal"] < 1.0 < rows[1]["g2_ideal"]

    def test_rabi_axis_is_the_width_axis_at_that_drive(self):
        irf = GaussianIRF(fwhm=1.14)
        row = sweep_point(STRONG, "rabi", 0.5, 0.29, 0.3, 0.05, 0.2, irf)
        same = sweep_point(replace(STRONG, rabi=0.5), "filter_width", 0.29, None, 0.3, 0.05, 0.2, irf)
        assert row == {**same, "x": 0.5}

    def test_background_band_with_irf(self):
        irf = GaussianIRF(fwhm=1.14)
        row = sweep_point(STRONG, "filter_width", 0.29, beta_hi=0.2, irf=irf)
        assert row["g2_hi"] > row["g2_lo"]
        assert row["g2_ideal"] > 1.0

    @pytest.mark.parametrize("irf", [None, GaussianIRF(fwhm=1.14)])
    def test_one_pipeline_per_solve(self, monkeypatch, irf):
        # One b = 0 solve; beta = 0.2 reads it out at the calibrated b, from
        # its one propagator, which only the IRF smear builds.
        built = []
        propagators = []

        class CountingPipeline(SensorPipeline):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        class CountingPropagator(qmath.Propagator):
            def __init__(self, *args, **kwargs):
                propagators.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(filtercorr, "SensorPipeline", CountingPipeline)
        monkeypatch.setattr(qmath, "Propagator", CountingPropagator)
        sweep_point(STRONG, "filter_width", 0.29, None, 0.0, 0.0, 0.2, irf)
        assert len(built) == 1
        assert len(propagators) == (0 if irf is None else 1)

    @pytest.mark.parametrize("irf", [None, GaussianIRF(fwhm=1.14)])
    def test_sweep_point_leaves_no_cyclic_garbage(self, irf):
        # A pipeline and its propagator hold no reference cycles, so a
        # point's memory is freed at once, not at the next cyclic collection.
        sweep_point(STRONG, "filter_width", 0.29, None, 0.0, 0.0, 0.2, irf)  # warm imports
        gc.collect()
        gc.disable()
        try:
            sweep_point(STRONG, "filter_width", 0.29, None, 0.0, 0.0, 0.2, irf)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("rabi, width, method", [(0.5, 0.29, "eig"), (0.25, 1.0, "expm")])
    def test_pipeline_is_freed_without_the_cyclic_collector(self, rabi, width, method):
        # The propagator holds the generator's arrays, not the pipeline, so
        # a pipeline and its propagator go as soon as the last reference
        # does, on both paths.
        gc.collect()
        gc.disable()
        try:
            pipe = SensorPipeline(EmitterParams(gamma=1.0, rabi=rabi), width)
            pipe.g2_values(np.linspace(0.0, 5.0, 11))
            assert pipe.propagator.method == method
            refs = weakref.ref(pipe), weakref.ref(pipe.propagator)
            del pipe
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("width", [150.0, 0.0125, 1.0])
    def test_irf_smear_matches_full_trace(self, width):
        # The smear propagates only the head of the tau grid that the kernel
        # at tau = 0 reads; it must equal convolving the whole trace.  At
        # width = gamma the eta = 0 generator is defective (expm path).
        gamma = 20.0 / HBAR_UEV_PS
        em = EmitterParams(gamma=gamma, rabi=0.5 * gamma)
        irf = GaussianIRF(fwhm=37.5)
        row = sweep_point(em, "filter_width", width * gamma, None, 0.0, 0.0, 0.2, irf)
        span = max(default_tau_grid(em, width * gamma)[-1], 8.0 * irf.fwhm)
        taus = np.linspace(0.0, span, max(2001, int(np.ceil(span / (irf.fwhm / 10.0))) + 1))
        for key, beta in (("g2_lo", 0.0), ("g2_hi", 0.2)):
            full = filtered_g2(em, width * gamma, beta=beta, taus=taus)
            assert row[key] == pytest.approx(irf_convolve(full, irf).values[0], abs=1e-12)

    @pytest.mark.parametrize("rabi", [0.5, 2.0])
    @pytest.mark.parametrize("width", [150.0, 23.0, 4.85, 0.85, 0.29, 0.0125])
    def test_irf_kernel_sum_matches_convolving_the_head(self, width, rabi):
        # Reference: the head of the full-trace grid, wrapped in a trace and
        # smeared by irf_convolve, read at tau = 0.
        gamma = 20.0 / HBAR_UEV_PS
        em = EmitterParams(gamma=gamma, rabi=rabi * gamma)
        irf = GaussianIRF(fwhm=37.5)
        ideal = SensorPipeline(em, width * gamma)
        span = max(default_tau_grid(em, width * gamma)[-1], 8.0 * irf.fwhm)
        taus = np.linspace(0.0, span, max(2001, int(np.ceil(span / (irf.fwhm / 10.0))) + 1))
        head = taus[: kernel_half_width(irf.fwhm, taus[1]) + 1]
        bs = [calibrate_background(ideal, beta) for beta in (0.0, 0.2)]
        smeared = filtercorr._g2_zero_convolved(ideal, bs, irf)
        for b, got in zip(bs, smeared):
            trace = filtercorr.CorrelationTrace(taus=head, values=ideal.g2_values(head, b))
            expected = irf_convolve(trace, irf).values[0]
            assert got == pytest.approx(expected, abs=1e-14)

    def test_figure_traffic_runs_no_eig_above_4x4(self, monkeypatch):
        # Every trace and IRF smear builds its poles from L_e's 4x4
        # eigendecomposition; the generic 16x16 eig must not run on the
        # fig2a IRF sweeps, the default-grid traces or the sideband point.
        eig = np.linalg.eig

        def small_eig(a):
            if np.shape(a)[-1] > 4:
                raise AssertionError(f"numpy.linalg.eig ran on a {np.shape(a)} matrix")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", small_eig)
        gamma = 20.0 / HBAR_UEV_PS
        irf = GaussianIRF(fwhm=37.5)
        for rabi in (0.5, 2.0):
            em = EmitterParams(gamma=gamma, rabi=rabi * gamma)
            for width in (150.0, 23.0, 4.85, 0.85, 0.29, 0.0125):
                sweep_point(em, "filter_width", width * gamma, None, 0.0, 0.0, 0.2, irf)
        em = EmitterParams(gamma=gamma, rabi=0.5 * gamma)
        for width in (0.29, 0.85, 4.85):
            assert filtered_g2(em, width * gamma).metadata["propagator_method"] == "eig"
        sideband = filtered_g2(EmitterParams(gamma=1.0, rabi=2.0), 0.01, filter_center=2.0)
        assert sideband.metadata["propagator_method"] == "eig"

    def test_sweep_point_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="'filter_width' or 'rabi'"):
            sweep_point(WEAK, "bogus", 2.0, 0.29, 0.0, 0.0, 0.0, None)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="filter width must be finite and > 0"):
            sweep_point(WEAK, "filter_width", -1.0)
        with pytest.raises(ValueError, match="filter_width is required"):
            sweep_point(WEAK, "rabi", 1.0)
        with pytest.raises(ValueError, match="beta bounds out of order"):
            sweep_point(WEAK, "filter_width", 0.29, beta_lo=0.2, beta_hi=0.1)
