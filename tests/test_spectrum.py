import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from filtered_rf.dynamics import first_order_coherence, steady_state
from filtered_rf.filtercorr import SensorPipeline
from filtered_rf.spectrum import (
    _pole_components,
    coherent_fraction,
    emission_spectrum,
    filtered_fractions,
    lorentzian_transmission,
)
from filtered_rf.system import EmitterParams, SystemModel, build_liouvillian


def steady_ratio(rabi):
    """|<sigma>|^2 / <sigma^dag sigma> from the steady-state solver."""
    model = SystemModel(EmitterParams(gamma=1.0, rabi=rabi))
    rho = steady_state(build_liouvillian(model)).rho
    sigma = model.sigma
    elastic = abs(np.trace(sigma @ rho)) ** 2
    total = np.trace(sigma.conj().T @ sigma @ rho).real
    return elastic / total


class TestCoherentFraction:
    def test_half_gamma_drive_is_two_thirds(self):
        em = EmitterParams(gamma=1.0, rabi=0.5)
        assert abs(coherent_fraction(em) - 2.0 / 3.0) < 1e-12

    def test_zero_drive_is_unity(self):
        assert coherent_fraction(EmitterParams(gamma=1.0, rabi=0.0)) == 1.0

    @pytest.mark.parametrize("rabi", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_matches_steady_state_ratio(self, rabi):
        em = EmitterParams(gamma=1.0, rabi=rabi)
        assert abs(coherent_fraction(em) - steady_ratio(rabi)) < 1e-10

    @pytest.mark.parametrize("detuning", [-2.0, -0.5, 0.5, 2.0])
    def test_matches_spectrum_when_detuned(self, detuning):
        em = EmitterParams(gamma=1.0, rabi=0.5, detuning=detuning, laser_linewidth=5e-4)
        dec = emission_spectrum(em, np.linspace(-30.0, 30.0, 101))
        assert abs(coherent_fraction(em) - dec.weight("coherent")) < 1e-12

    @pytest.mark.parametrize("gamma, rabi", [(1.0, 0.5), (0.03, 0.07), (37.0, 0.9), (2.5, 250.0)])
    def test_resonant_values_keep_the_resonant_formula(self, gamma, rabi):
        em = EmitterParams(gamma=gamma, rabi=rabi)
        assert coherent_fraction(em) == 1.0 / (1.0 + 2.0 * rabi**2 / gamma**2)

    def test_detuned_closed_form(self):
        # (detuning^2 + gamma^2/4) / (detuning^2 + gamma^2/4 + rabi^2/2)
        em = EmitterParams(gamma=1.0, rabi=0.5, detuning=0.5)
        assert abs(coherent_fraction(em) - 0.8) < 1e-15

    def test_strictly_decreasing(self):
        vals = [coherent_fraction(EmitterParams(gamma=1.0, rabi=r)) for r in np.linspace(0, 5, 21)]
        assert np.all(np.diff(vals) < 0.0)


class TestEmissionSpectrum:
    def grid(self, span=30.0, n=60001):
        return np.linspace(-span, span, n)

    def test_weights_sum_to_one(self):
        for rabi in (0.3, 0.5, 2.0, 4.0):
            em = EmitterParams(gamma=1.0, rabi=rabi, laser_linewidth=5e-4)
            dec = emission_spectrum(em, self.grid())
            assert abs(sum(c.weight for c in dec.components) - 1.0) < 1e-9

    def test_weak_drive_decomposition(self):
        em = EmitterParams(gamma=1.0, rabi=0.5, laser_linewidth=5e-4)
        dec = emission_spectrum(em, self.grid())
        assert abs(dec.weight("coherent") - 2.0 / 3.0) < 1e-9
        incoherent = 1.0 - dec.weight("coherent")
        assert abs(incoherent - 1.0 / 3.0) < 1e-9

    def test_weak_drive_incoherent_linewidth(self):
        # The exact incoherent lineshape at rabi = gamma/2 has FWHM
        # 0.83 gamma (squared-Lorentzian narrowing); the one-significant-
        # figure experimental statement is "approximately gamma".
        em = EmitterParams(gamma=1.0, rabi=0.5, laser_linewidth=1e-5)
        omegas = self.grid(20.0, 400001)
        dec = emission_spectrum(em, omegas)
        inc = np.zeros_like(omegas)
        for c in dec.components:
            if c.kind != "coherent":
                lam = complex(-c.hwhm, -c.center)
                inc += np.real(c.residue / (-lam - 1j * omegas)) / np.pi
        half = inc.max() / 2.0
        covered = omegas[inc >= half]
        fwhm = covered.max() - covered.min()
        assert abs(fwhm - 0.878) < 0.01
        assert 0.5 < fwhm < 1.1

    def test_strong_drive_sideband_centers(self):
        em = EmitterParams(gamma=1.0, rabi=2.0, laser_linewidth=5e-4)
        dec = emission_spectrum(em, self.grid())
        splitting = np.sqrt(4.0 - 1.0 / 16.0)
        red = [c for c in dec.components if c.kind == "mollow_red"]
        blue = [c for c in dec.components if c.kind == "mollow_blue"]
        assert len(red) == 1 and len(blue) == 1
        assert abs(red[0].center + splitting) < 1e-9
        assert abs(blue[0].center - splitting) < 1e-9
        assert all(c.weight > 0 for c in red + blue)

    def test_even_in_omega_at_resonance(self):
        em = EmitterParams(gamma=1.0, rabi=1.5, laser_linewidth=1e-2)
        omegas = self.grid()
        dec = emission_spectrum(em, omegas)
        assert np.allclose(dec.values, dec.values[::-1], atol=1e-12)

    def test_total_area_is_emission_rate(self):
        # laser linewidth wide enough for the sampled grid to resolve
        em = EmitterParams(gamma=1.0, rabi=0.5, laser_linewidth=0.05)
        omegas = np.linspace(-60.0, 60.0, 200001)
        dec = emission_spectrum(em, omegas)
        area = trapezoid(dec.values, omegas)
        assert abs(area - 1.0 / 6.0) < 1e-3 * (1.0 / 6.0) + 1e-4

    def test_pole_sum_matches_numeric_fourier_transform(self):
        em = EmitterParams(gamma=1.0, rabi=2.0, laser_linewidth=1e-6)
        omegas = np.linspace(-12.0, 12.0, 241)
        dec = emission_spectrum(em, omegas)
        coherent = next(c for c in dec.components if c.kind == "coherent")
        hw = coherent.hwhm
        elastic = abs(coherent.residue)
        inc_sampled = dec.values - (hw / np.pi) * elastic / (omegas**2 + hw**2)

        taus = np.linspace(0.0, 80.0, 32001)
        g1 = first_order_coherence(em, taus)
        fluctuation = g1 - g1[-1]
        ft = np.array(
            [trapezoid(fluctuation * np.exp(1j * o * taus), taus).real / np.pi for o in omegas]
        )
        rel_l2 = np.linalg.norm(inc_sampled - ft) / np.linalg.norm(ft)
        assert rel_l2 < 1e-4

    def test_below_mollow_threshold_all_rayleigh(self):
        em = EmitterParams(gamma=1.0, rabi=0.2, laser_linewidth=5e-4)
        dec = emission_spectrum(em, self.grid())
        kinds = {c.kind for c in dec.components}
        assert kinds == {"coherent", "rayleigh"}

    @pytest.mark.parametrize(
        "omegas, message",
        [
            (np.linspace(-3.0, 3.0, 100), "grid too narrow"),
            ([], "omega grid"),
            (np.full(5, np.nan), "omega grid"),
            ([-10.0, np.nan, 10.0], "omega grid"),
            ([-10.0, 0.0, np.inf], "omega grid"),
        ],
    )
    def test_rejects_narrow_grid(self, omegas, message):
        em = EmitterParams(gamma=1.0, rabi=2.0, laser_linewidth=5e-4)
        with pytest.raises(ValueError, match=message):
            emission_spectrum(em, omegas)

    def test_requires_laser_linewidth(self):
        em = EmitterParams(gamma=1.0, rabi=2.0)
        with pytest.raises(ValueError, match="laser_linewidth"):
            emission_spectrum(em, self.grid())


class TestSidebandKinds:
    """The kinds come from L_e's own poles: the conjugate pair is a pair of
    sidebands once its splitting exceeds 1e-6 of the spectral radius."""

    @staticmethod
    def spectrum(em):
        span = 2.0 * np.hypot(em.rabi, em.detuning) + 6.0 * em.gamma
        return emission_spectrum(em, np.linspace(-span, span, 101))

    def test_detuned_sidebands_below_the_resonant_threshold(self):
        # rabi 0.2 gamma lies below gamma/4, but under detuning 5 gamma the
        # incoherent pair sits at +-5.004 gamma: Mollow sidebands, not Rayleigh.
        em = EmitterParams(gamma=1.0, rabi=0.2, detuning=5.0, laser_linewidth=5e-4)
        centers = {c.kind: c.center for c in self.spectrum(em).components}
        assert sorted(centers) == ["coherent", "mollow_blue", "mollow_red", "rayleigh"]
        assert centers["mollow_red"] == pytest.approx(-5.004, abs=1e-3)
        assert centers["mollow_blue"] == pytest.approx(5.004, abs=1e-3)
        assert abs(centers["rayleigh"]) < 1e-12
        fr = filtered_fractions(em, 1.0)
        assert fr["mollow_red"] == pytest.approx(fr["mollow_blue"], rel=1e-9)
        assert fr["mollow_red"] > 10.0 * fr["rayleigh"]
        assert fr["mollow_red"] + fr["mollow_blue"] + fr["rayleigh"] == pytest.approx(
            1.0 - fr["coherent"], rel=1e-9
        )

    @pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("rabi", [0.2501, 0.26, 0.5, 2.0, 10.0])
    def test_resonant_centres_follow_the_damped_rabi_splitting(self, gamma, rabi):
        em = EmitterParams(gamma=gamma, rabi=rabi * gamma, laser_linewidth=5e-4 * gamma)
        splitting = gamma * np.sqrt(rabi**2 - 1.0 / 16.0)
        centers = {c.kind: c.center for c in self.spectrum(em).components}
        assert sorted(centers) == ["coherent", "mollow_blue", "mollow_red", "rayleigh"]
        assert centers["mollow_red"] == pytest.approx(-splitting, rel=1e-11)
        assert centers["mollow_blue"] == pytest.approx(splitting, rel=1e-11)

    @pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("rabi", [0.05, 0.2, 0.2499, 0.25])
    def test_every_pole_is_rayleigh_up_to_the_threshold(self, gamma, rabi):
        # rabi = gamma/4 is the exceptional point: eig splits the defective
        # pair by under 1e-8 of the spectral radius, which stays unsplit.
        em = EmitterParams(gamma=gamma, rabi=rabi * gamma, laser_linewidth=5e-4 * gamma)
        kinds = [c.kind for c in self.spectrum(em).components]
        assert kinds == ["coherent", "rayleigh", "rayleigh", "rayleigh"]
        fr = filtered_fractions(em, gamma)
        assert fr["mollow_red"] == fr["mollow_blue"] == 0.0

    def test_grid_must_span_the_detuned_sidebands(self):
        # The sidebands sit near +-hypot(rabi, detuning) = +-20.006 gamma.
        em = EmitterParams(gamma=1.0, rabi=0.5, detuning=20.0, laser_linewidth=5e-4)
        with pytest.raises(ValueError, match=r"grid too narrow: need at least \+-45"):
            emission_spectrum(em, np.linspace(-6.0, 6.0, 101))
        assert {c.kind for c in self.spectrum(em).components} >= {"mollow_red", "mollow_blue"}


class TestLorentzianTransmission:
    def test_monochromatic_line_fully_transmitted(self):
        assert lorentzian_transmission(0.0, 1.0, 0.0) == 1.0

    def test_equal_widths_give_half(self):
        assert abs(lorentzian_transmission(1.0, 1.0, 0.0) - 0.5) < 1e-12

    def test_far_detuned_line_blocked(self):
        assert lorentzian_transmission(1.0, 1.0, 1e6) < 1e-9

    def test_closed_form_matches_overlap_quadrature(self):
        for ratio in np.logspace(-4, 4, 9):
            w, filt = ratio, 1.0

            def integrand(x):
                line = (w / (2 * np.pi)) / (x**2 + (w / 2) ** 2)
                transmission = (filt / 2) ** 2 / (x**2 + (filt / 2) ** 2)
                return line * transmission

            numeric, _ = scipy.integrate.quad(
                integrand, -np.inf, np.inf, limit=400, epsabs=1e-13, epsrel=1e-12
            )
            closed = lorentzian_transmission(w, filt, 0.0)
            assert abs(closed - numeric) < 1e-8
            assert abs(closed - filt / (filt + w)) < 1e-14

    def test_offset_case_matches_quadrature(self):
        w, filt, offset = 0.7, 1.3, 2.1

        def integrand(x):
            line = (w / (2 * np.pi)) / ((x - offset) ** 2 + (w / 2) ** 2)
            transmission = (filt / 2) ** 2 / (x**2 + (filt / 2) ** 2)
            return line * transmission

        numeric, _ = scipy.integrate.quad(integrand, -np.inf, np.inf, limit=400)
        assert abs(lorentzian_transmission(w, filt, offset) - numeric) < 1e-10

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: lorentzian_transmission(-1.0, 1.0), "line width"),
            (lambda: lorentzian_transmission(1.0, 0.0), "filter width"),
            (lambda: lorentzian_transmission(1.0, np.nan), "filter width"),
            (lambda: lorentzian_transmission(np.inf, 1.0), "line width"),
            (lambda: lorentzian_transmission(np.nan, 1.0), "line width"),
            (lambda: lorentzian_transmission(1.0, 1.0, np.nan), "offset"),
            (lambda: filtered_fractions(EmitterParams(gamma=1.0, rabi=1.0), np.nan), "filter width"),
            (lambda: filtered_fractions(EmitterParams(gamma=1.0, rabi=1.0), np.inf), "filter width"),
            (lambda: filtered_fractions(EmitterParams(gamma=1.0, rabi=1.0), 0.0), "filter width"),
        ],
    )
    def test_rejects_bad_widths(self, call, name):
        with pytest.raises(ValueError, match=name):
            call()


class TestFilteredFractions:
    def test_zero_drive_is_an_error(self):
        # No emission to normalize by; the elastic share itself stays exactly 1.
        dark = EmitterParams(gamma=1.0, rabi=0.0, laser_linewidth=5e-4)
        with pytest.raises(ValueError, match="no emission without drive"):
            filtered_fractions(dark, 0.29)
        with pytest.raises(ValueError, match="no emission without drive"):
            emission_spectrum(dark, np.linspace(-10.0, 10.0, 101))
        assert coherent_fraction(dark) == 1.0

    def test_fractions_sum_to_one(self):
        em = EmitterParams(gamma=1.0, rabi=2.0, laser_linewidth=5e-4)
        for width in (0.05, 0.29, 5.0, 500.0):
            fr = filtered_fractions(em, width)
            assert abs(sum(fr.values()) - 1.0) < 1e-12

    def test_narrow_filter_keeps_coherent_part(self):
        em = EmitterParams(gamma=1.0, rabi=0.5, laser_linewidth=5e-4)
        fr = filtered_fractions(em, 0.01)
        assert fr["coherent"] > 0.99

    def test_broad_filter_recovers_unfiltered_weights(self):
        em = EmitterParams(gamma=1.0, rabi=2.0, laser_linewidth=5e-4)
        fr = filtered_fractions(em, 1e6)
        dec = emission_spectrum(em, np.linspace(-30.0, 30.0, 101))
        for kind in ("coherent", "rayleigh", "mollow_red", "mollow_blue"):
            assert abs(fr[kind] - dec.weight(kind)) < 1e-4

    def test_strong_drive_medium_filter_composition(self):
        # around the etalon bandwidth the sidebands are largely rejected
        em = EmitterParams(gamma=1.0, rabi=2.0, laser_linewidth=5e-4)
        fr = filtered_fractions(em, 0.29)
        sidebands = fr["mollow_red"] + fr["mollow_blue"]
        assert sidebands < 0.15
        assert fr["rayleigh"] + fr["coherent"] > 0.85

    def test_matches_filter_weighted_quadrature(self):
        # oracle: integrate each classified component curve against the
        # peak-normalized filter on a dense grid.
        em = EmitterParams(gamma=1.0, rabi=0.5, laser_linewidth=0.01)
        width = 0.29
        fr = filtered_fractions(em, width)
        # grid must resolve the laser-limited elastic peak (hwhm 0.005)
        omegas = np.linspace(-2000.0, 2000.0, 4000001)
        dec = emission_spectrum(em, omegas)
        transmission = (width / 2) ** 2 / (omegas**2 + (width / 2) ** 2)
        areas = {}
        for c in dec.components:
            if c.kind == "coherent":
                curve = (c.hwhm / np.pi) * abs(c.residue) / (omegas**2 + c.hwhm**2)
            else:
                lam = complex(-c.hwhm, -c.center)
                curve = np.real(c.residue / (-lam - 1j * omegas)) / np.pi
            areas[c.kind] = areas.get(c.kind, 0.0) + trapezoid(curve * transmission, omegas)
        total = sum(areas.values())
        for kind, area in areas.items():
            assert abs(fr[kind] - area / total) < 1e-4

    def test_sideband_fraction_grows_with_broadening(self):
        em = EmitterParams(gamma=1.0, rabi=4.0, laser_linewidth=5e-4)
        sidebands = []
        for width in (0.1, 1.0, 10.0, 100.0):
            fr = filtered_fractions(em, width)
            sidebands.append(fr["mollow_red"] + fr["mollow_blue"])
        assert np.all(np.diff(sidebands) > 0.0)


class TestFirstOrderPaths:
    """The sensor hierarchy and the spectrum's pole decomposition are two
    independent routes to the filtered first-order intensity."""

    @settings(max_examples=100, deadline=None)
    @given(
        rabi=st.floats(-2.0, 1.5).map(lambda e: 10.0**e).filter(lambda r: abs(r - 0.25) >= 0.01),
        detuning=st.floats(-2.0, 2.0),
        width=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        center=st.floats(-3.0, 3.0),
    )
    def test_sensor_population_matches_pole_sum(self, rabi, detuning, width, center):
        # With a monochromatic laser a Lorentzian filter of half width g at
        # the center passes elastic * g^2/(center^2 + g^2) of the coherent
        # line and g Re(res/(conj(k) - lambda)) of each incoherent pole,
        # k = g + i center.  The pipeline's population is in units of
        # (eta/|k|)^2.  Rabi stays off the Mollow threshold gamma/4, where
        # the per-pole residues diverge while their sum stays finite.
        em = EmitterParams(gamma=1.0, rabi=rabi, detuning=detuning)
        g = 0.5 * width
        k = complex(g, center)
        population = SensorPipeline(em, width, center).population() / abs(k) ** 2
        elastic, _, poles = _pole_components(em)
        passed = elastic * g**2 / (center**2 + g**2)
        passed += sum(g * (res / (k.conjugate() - lam)).real for _, res, lam in poles)
        assert population == pytest.approx(passed / g**2, rel=1e-10)
