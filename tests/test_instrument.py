import numpy as np
import pytest
from scipy.integrate import trapezoid

from filtered_rf.filtercorr import CorrelationTrace, filtered_g2, unfiltered_g2
from filtered_rf.instrument import (
    FILTER_PRESETS,
    GaussianIRF,
    etalon_bandwidth,
    filter_preset,
    irf_convolve,
    kernel_half_width,
    spectral_irf_convolve,
)
from filtered_rf.system import EmitterParams


def flat_trace(value=1.0, span=20.0, n=801):
    taus = np.linspace(0.0, span, n)
    return CorrelationTrace(taus=taus, values=np.full(n, value), metadata={})


class TestIrfConvolve:
    def test_constant_trace_unchanged(self):
        out = irf_convolve(flat_trace(), GaussianIRF(fwhm=1.0))
        assert np.allclose(out.values, 1.0, atol=1e-12)
        assert out.metadata["irf_applied"] is True
        assert out.metadata["irf_fwhm"] == 1.0

    def test_narrow_kernel_is_identity(self):
        # physical traces are even with zero slope at tau = 0, so a kernel
        # at the grid-spacing scale reduces to the identity
        em = EmitterParams(gamma=1.0, rabi=2.0)
        taus = np.linspace(0.0, 20.0, 20001)
        trace = unfiltered_g2(em, taus)
        out = irf_convolve(trace, GaussianIRF(fwhm=0.01))
        assert np.max(np.abs(out.values - trace.values)) < 1e-4

    def test_even_symmetric_smearing_of_dip(self):
        # convolving the antibunching dip must raise g2(0) above zero
        em = EmitterParams(gamma=1.0, rabi=0.5)
        taus = np.linspace(0.0, 20.0, 2001)
        trace = unfiltered_g2(em, taus)
        out = irf_convolve(trace, GaussianIRF(fwhm=1.14))
        assert out.values[0] > trace.values[0]
        assert abs(out.values[-1] - 1.0) < 1e-6

    def test_quadrature_oracle(self):
        # reference: direct quadrature of the even-extended trace against
        # the Gaussian kernel at a few delays
        em = EmitterParams(gamma=1.0, rabi=0.5)
        taus = np.linspace(0.0, 30.0, 6001)
        trace = unfiltered_g2(em, taus)
        fwhm = 1.14
        out = irf_convolve(trace, GaussianIRF(fwhm=fwhm))
        sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        grid = np.linspace(-6.0 * sigma, 6.0 * sigma, 20001)
        kernel = np.exp(-0.5 * (grid / sigma) ** 2)
        kernel /= trapezoid(kernel, grid)
        for target in (0.0, 0.5, 2.0, 7.5):
            shifted = np.interp(np.abs(target - grid), taus, trace.values)
            expected = trapezoid(kernel * shifted, grid)
            got = out.values[np.argmin(np.abs(taus - target))]
            assert abs(got - expected) < 1e-4

    def test_area_of_dip_preserved(self):
        em = EmitterParams(gamma=1.0, rabi=2.0)
        taus = np.linspace(0.0, 40.0, 8001)
        trace = unfiltered_g2(em, taus)
        out = irf_convolve(trace, GaussianIRF(fwhm=1.14))
        # integrate g2 - 1 over the even extension; kernel normalization
        # keeps it fixed
        a = trapezoid(trace.values - 1.0, taus)
        b = trapezoid(out.values - 1.0, taus)
        assert abs(a - b) < 1e-6 * max(1.0, abs(a))

    def test_linearity(self):
        taus = np.linspace(0.0, 20.0, 2001)
        rng = np.random.default_rng(33)
        f = rng.normal(size=taus.size)
        g = rng.normal(size=taus.size)
        irf = GaussianIRF(fwhm=0.8)

        def conv(values):
            return irf_convolve(
                CorrelationTrace(taus=taus, values=values, metadata={}), irf
            ).values

        combined = conv(2.0 * f + 3.0 * g)
        assert np.allclose(combined, 2.0 * conv(f) + 3.0 * conv(g), atol=1e-10)

    def test_rejects_coarse_grid(self):
        trace = flat_trace(span=20.0, n=21)
        with pytest.raises(ValueError, match="too coarse"):
            irf_convolve(trace, GaussianIRF(fwhm=1.0))

    def test_rejects_grid_shorter_than_the_kernel(self):
        # fwhm 1 on steps of 0.01 reaches 5 sigma = 2.12, 213 steps, on
        # each side: a grid to 2.0 would smear end padding into tau = 0.
        trace = flat_trace(span=2.0, n=201)
        with pytest.raises(ValueError, match="spans 2, 200 steps, short of the IRF kernel's reach of 213"):
            irf_convolve(trace, GaussianIRF(fwhm=1.0))

    def test_grid_that_meets_the_kernel_reach_is_accepted(self):
        # The reach is compared in grid steps, so a grid that ends exactly
        # at it passes whatever the rounding of its last delay.
        reach = kernel_half_width(1.0, 0.01)
        taus = np.arange(reach + 1) * 0.01
        trace = CorrelationTrace(taus=taus, values=np.ones(taus.size), metadata={})
        assert np.allclose(irf_convolve(trace, GaussianIRF(fwhm=1.0)).values, 1.0)
        trace = CorrelationTrace(taus=taus[:-1], values=np.ones(reach), metadata={})
        with pytest.raises(ValueError, match="short of the IRF kernel's reach"):
            irf_convolve(trace, GaussianIRF(fwhm=1.0))

    def test_rejects_nonuniform_grid(self):
        taus = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        trace = CorrelationTrace(taus=taus, values=np.ones(5), metadata={})
        with pytest.raises(ValueError, match="uniform"):
            irf_convolve(trace, GaussianIRF(fwhm=10.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, bad):
        trace = flat_trace(span=20.0, n=201)
        trace.values[7] = bad
        with pytest.raises(ValueError, match="trace.values contains non-finite samples"):
            irf_convolve(trace, GaussianIRF(fwhm=1.0))

    def test_rejects_values_off_the_grid(self):
        trace = flat_trace(span=20.0, n=201)
        trace.values = np.ones(200)
        with pytest.raises(ValueError, match=r"trace.values has shape \(200,\), its grid \(201,\)"):
            irf_convolve(trace, GaussianIRF(fwhm=1.0))

    def test_filtered_trace_integration(self):
        # IRF-limited antibunching: gamma = 20 ueV in ps units
        from filtered_rf.system import HBAR_UEV_PS

        gamma = 20.0 / HBAR_UEV_PS
        em = EmitterParams(gamma=gamma, rabi=0.5 * gamma)
        taus = np.linspace(0.0, 20.0 / gamma, 4001)
        trace = filtered_g2(em, 150.0 * gamma, taus=taus)
        assert trace.values[0] < 0.02
        out = irf_convolve(trace, GaussianIRF(fwhm=37.5))
        assert 0.03 < out.values[0] < 0.12


class TestSpectralIrf:
    def test_identity_for_narrow_kernel(self):
        omegas = np.linspace(-10.0, 10.0, 100001)
        values = 1.0 / (omegas**2 + 1.0)
        out = spectral_irf_convolve(omegas, values, GaussianIRF(fwhm=0.002))
        assert np.max(np.abs(out - values)) < 1e-6

    def test_broadens_and_preserves_area(self):
        omegas = np.linspace(-40.0, 40.0, 16001)
        hwhm = 0.2
        values = (hwhm / np.pi) / (omegas**2 + hwhm**2)
        out = spectral_irf_convolve(omegas, values, GaussianIRF(fwhm=1.5))
        assert out.max() < values.max()
        assert abs(trapezoid(out, omegas) - trapezoid(values, omegas)) < 1e-6

    def test_broadened_narrow_line_approaches_gaussian_width(self):
        omegas = np.linspace(-30.0, 30.0, 60001)
        hwhm = 0.005  # much narrower than the instrument
        values = (hwhm / np.pi) / (omegas**2 + hwhm**2)
        out = spectral_irf_convolve(omegas, values, GaussianIRF(fwhm=1.5))
        above = omegas[out >= out.max() / 2.0]
        assert abs((above.max() - above.min()) - 1.5) < 0.05


    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        # Unchecked, one NaN sample smeared into every output it reached.
        values = np.ones(101)
        values[50] = bad
        with pytest.raises(ValueError, match="values contains non-finite samples"):
            spectral_irf_convolve(np.linspace(-5.0, 5.0, 101), values, GaussianIRF(fwhm=1.0))

    def test_rejects_values_off_the_grid(self):
        # Unchecked, 4 samples on a 10-point grid gave back 4 values.
        with pytest.raises(ValueError, match=r"values has shape \(4,\), its grid \(10,\)"):
            spectral_irf_convolve(np.arange(10.0), np.ones(4), GaussianIRF(fwhm=20.0))


class TestPresets:
    def test_table_values(self):
        table = {
            "Free-space Fabry-Perot": 0.25,
            "Etalon - 1.6mm fused silica": 5.8,
            "Fibre Fabry-Perot": 17.0,
            "1200 l mm-1 grating spectrometer": 97.0,
            "4f tunable filter (narrow)": 454.0,
            "4f tunable filter (broad)": 3050.0,
        }
        assert {p.name: p.fwhm_ueV for p in FILTER_PRESETS} == table

    def test_case_insensitive_lookup(self):
        assert filter_preset("ETALON - 1.6MM FUSED SILICA").fwhm_ueV == 5.8
        assert filter_preset("free-space fabry-perot").fwhm_ueV == 0.25

    def test_short_aliases(self):
        assert filter_preset("etalon").fwhm_ueV == 5.8
        assert filter_preset("4f narrow").fwhm_ueV == 454.0
        assert filter_preset("spectrometer").fwhm_ueV == 97.0

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="known presets"):
            filter_preset("bandpass 9000")


class TestEtalon:
    def test_direct_quotient(self):
        assert etalon_bandwidth(10.0, 2.0) == 5.0

    def test_large_finesse_limit(self):
        assert etalon_bandwidth(10.0, 1e10) < 1e-8

    def test_reproduces_table_entry(self):
        # a cavity whose FSR/finesse quotient matches the fused-silica etalon
        assert abs(etalon_bandwidth(638.0, 110.0) - 5.8) < 1e-12

    @pytest.mark.parametrize(
        "fsr, finesse",
        [(0.0, 1.0), (1.0, -2.0), (np.nan, 2.0), (1.0, np.nan), (np.inf, 2.0), (1.0, np.inf)],
    )
    def test_rejects_nonpositive(self, fsr, finesse):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            etalon_bandwidth(fsr, finesse)
