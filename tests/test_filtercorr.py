import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filtered_rf import filtercorr, qmath
from filtered_rf.dynamics import default_tau_grid, steady_state
from filtered_rf.filtercorr import (
    BackgroundCalibrationError,
    EtaConvergenceError,
    SensorPipeline,
    TwoSensorModel,
    calibrate_background,
    default_eta,
    eta_convergence,
    filtered_g2,
    sweep_g2_zero,
    sweep_point,
    unfiltered_g2,
)
from filtered_rf.instrument import GaussianIRF, irf_convolve
from filtered_rf.system import HBAR_UEV_PS, EmitterParams, SystemModel, build_liouvillian

from oracles import background_only_population, bloch_g2, unfiltered_g2_closed_form

WEAK = EmitterParams(gamma=1.0, rabi=0.5)
STRONG = EmitterParams(gamma=1.0, rabi=2.0)


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
        with pytest.warns(UserWarning, match="tau grid"):
            filtered_g2(WEAK, 5e-5, taus=np.array([0.0]))

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
        a = calibrate_background(SensorPipeline(em, width, center), 0.2)
        b = calibrate_background(SensorPipeline(scaled, width * scale, center * scale), 0.2)
        assert b.background_b == pytest.approx(a.background_b, rel=1e-9)
        assert b.g2_zero() == pytest.approx(a.g2_zero(), rel=1e-9, abs=1e-12)

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
        pipe = SensorPipeline(em, width, center, background_b=b)
        ref = TwoSensorModel(em, width, center, 0.0, b)
        assert pipe.g2_zero() == pytest.approx(ref.g2_zero(), rel=1e-12)
        # Both populations: the two sensors are solved separately on both sides.
        assert pipe.scaled_populations == pytest.approx(ref.scaled_populations, rel=1e-12)
        # <sigma> of the reference: its zero-sensor block, the only one that
        # weighs in the trace at eta = 0.  |2 Re<sigma>| <= 1, so the floor
        # is 1e-12 of max(1, |2 Re<sigma>|); at resonance it is exactly 0.
        ground = ref.model.sensor_excitations() == 0
        coherence = np.diag(ref.model.sigma @ ref.rho_scaled)[ground].sum()
        assert 2.0 * pipe.emitter_coherence.real == pytest.approx(
            2.0 * coherence.real, rel=1e-12, abs=1e-12
        )

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
        taus = default_tau_grid(em, (width,))
        got = SensorPipeline(em, width, center, background_b=b).g2_values(taus)
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
        # The calibrated pipeline is the b = 0 solution displaced to b; the
        # 64-dim model solves at b directly.
        em = EmitterParams(gamma=1.0, rabi=rabi)
        pipe = calibrate_background(SensorPipeline(em, width, center), 0.2)
        ref = TwoSensorModel(em, width, center, 0.0, pipe.background_b)
        assert pipe.g2_zero() == pytest.approx(ref.g2_zero(), rel=1e-12)
        taus = default_tau_grid(em, (width,))
        got, expected = pipe.g2_values(taus), ref.g2_values(taus)
        assert np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))) < 1e-8

    @pytest.mark.parametrize(
        "rabi, width, center, b",
        [
            pytest.param(0.25, 1.0, 0.0, 0.0, id="0.25"),
            pytest.param(2.0, 1.0, 0.0, 0.0, id="2.0"),
            pytest.param(0.25, 0.01, 2.0, 0.7, id="0.25-narrow-detuned-background"),
        ],
    )
    def test_limit_trace_where_generator_is_defective(self, rabi, width, center, b):
        # width = gamma, and rabi = gamma/4, make the eta = 0 generator
        # exactly defective; the trace must still come out real and match
        # the finite-coupling model.  The narrow detuned filter with
        # background takes the expm path.
        em = EmitterParams(gamma=1.0, rabi=rabi)
        taus = np.linspace(0.0, 20.0, 81)
        limit = SensorPipeline(em, width, center, background_b=b).g2_values(taus)
        finite = TwoSensorModel(em, width, center, default_eta(em, width), b).g2_values(taus)
        assert np.max(np.abs(limit - finite)) < 1e-5


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
        pipe = SensorPipeline(WEAK, 1.0)
        cal = calibrate_background(pipe, 0.0)
        assert cal is pipe
        assert cal.background_b == 0.0

    def test_rejects_pipeline_with_background_or_coupling(self):
        # The closed-form root holds for the b = 0 pipeline only.
        with pytest.raises(ValueError, match="b = 0"):
            calibrate_background(SensorPipeline(STRONG, 0.29, background_b=0.5), 0.1)

    def test_forward_check_at_strong_drive(self):
        cal = calibrate_background(SensorPipeline(STRONG, 0.29), 0.2)
        assert abs(cal.background_b**2 / cal.scaled_populations[0] - 0.2) < 1e-6
        assert cal.background_b > 0.0

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
        b = calibrate_background(ideal, beta).background_b
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
        # from 0 to ~1 and no amplitude can produce beta = 0.1.
        dark = EmitterParams(gamma=1.0, rabi=0.0)
        with pytest.raises(BackgroundCalibrationError):
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
        rows = sweep_g2_zero(WEAK, "filter_width", [0.29])
        direct = filtered_g2(WEAK, 0.29, taus=np.array([0.0])).values[0]
        assert rows[0]["g2_ideal"] == pytest.approx(direct, abs=1e-12)
        assert rows[0]["g2_lo"] == rows[0]["g2_ideal"]

    def test_weak_drive_shape(self):
        widths = [150.0, 1.0, 0.01]
        rows = sweep_g2_zero(WEAK, "filter_width", widths)
        vals = [r["g2_ideal"] for r in rows]
        assert vals[0] < 0.02
        assert 0.9 < vals[2] < 1.1
        assert vals[0] < vals[1] < vals[2]

    def test_rabi_axis_crosses_unity(self):
        rows = sweep_g2_zero(STRONG, "rabi", [0.5, 4.0], filter_width=0.29)
        assert rows[0]["g2_ideal"] < 1.0 < rows[1]["g2_ideal"]

    def test_background_band_with_irf(self):
        irf = GaussianIRF(fwhm=1.14)
        rows = sweep_g2_zero(
            STRONG, "filter_width", [0.29], beta_bounds=(0.0, 0.2), irf=irf
        )
        row = rows[0]
        assert row["g2_hi"] > row["g2_lo"]
        assert row["g2_ideal"] > 1.0

    @pytest.mark.parametrize("irf", [None, GaussianIRF(fwhm=1.14)])
    def test_one_pipeline_per_solve(self, monkeypatch, irf):
        # One b = 0 solve; beta = 0.2 displaces it to the calibrated b and
        # shares its propagator, which only the IRF smear builds.
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
        # Pipelines share arrays without reference cycles, so a point's
        # memory is freed at once, not at the next cyclic collection.
        sweep_point(STRONG, "filter_width", 0.29, None, 0.0, 0.0, 0.2, irf)  # warm imports
        gc.collect()
        gc.disable()
        try:
            sweep_point(STRONG, "filter_width", 0.29, None, 0.0, 0.0, 0.2, irf)
            assert gc.collect() == 0
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
        span = max(default_tau_grid(em, (width * gamma,))[-1], 8.0 * irf.fwhm)
        taus = np.linspace(0.0, span, max(2001, int(np.ceil(span / (irf.fwhm / 10.0))) + 1))
        for key, beta in (("g2_lo", 0.0), ("g2_hi", 0.2)):
            full = filtered_g2(em, width * gamma, beta=beta, taus=taus)
            assert row[key] == pytest.approx(irf_convolve(full, irf).values[0], abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sweep_g2_zero(WEAK, "bogus", [1.0])
        with pytest.raises(ValueError):
            sweep_g2_zero(WEAK, "filter_width", [])
        with pytest.raises(ValueError):
            sweep_g2_zero(WEAK, "filter_width", [-1.0])
        with pytest.raises(ValueError):
            sweep_g2_zero(WEAK, "rabi", [1.0])  # missing filter_width
