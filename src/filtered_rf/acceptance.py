"""Acceptance suite: quantitative end-to-end checks of the simulator.

Each criterion checks one reference value or property at its stated
tolerance and reports pass/fail with a one-line detail.  The suite is
desk-scale (about a second on one core) and is exposed both to pytest and
to the command line (``filtered-rf selftest``).

The oracles used here (fixed-step Runge-Kutta on the optical Bloch
equations, overlap quadrature) are deliberately independent of the
library's eigendecomposition/regression machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.integrate

from .filtercorr import (
    ETA_TOL,
    SensorPipeline,
    calibrate_background,
    eta_convergence,
    filtered_g2,
    unfiltered_g2,
)
from .instrument import GaussianIRF, irf_convolve
from .spectrum import coherent_fraction, filtered_fractions, lorentzian_transmission
from .system import HBAR_UEV_PS, EmitterParams, SystemModel, build_liouvillian
from .dynamics import steady_state

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


# --- independent oracles ---------------------------------------------------

_SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_NUMBER = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _bloch_rhs(rho, gamma, rabi):
    H = 0.5 * rabi * (_SIGMA + _SIGMA.conj().T)
    decay = _SIGMA @ rho @ _SIGMA.conj().T - 0.5 * (_NUMBER @ rho + rho @ _NUMBER)
    return -1j * (H @ rho - rho @ H) + gamma * decay


def _rk4_increment(A, h):
    """D with v(t + h) = v + D v for one classical RK4 step of dv/dt = A v:
    for a linear right-hand side the four stages collapse to
    D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24."""
    eye = np.eye(A.shape[0], dtype=complex)
    hA = h * A
    return hA @ (eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0)


def _bloch_g2_rk4(gamma, rabi, taus, step=2e-4):
    """g2 from conditional re-excitation, integrated with fixed-step RK4."""
    # The Bloch equations on row-major flattened 2x2 matrices, one column per
    # basis matrix pushed through the right-hand side.
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    A = np.column_stack([_bloch_rhs(e, gamma, rabi).reshape(-1) for e in basis])
    full = _rk4_increment(A, step)
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # post-detection ground state
    steady = (rabi**2 / 4.0) / (gamma**2 / 4.0 + rabi**2 / 2.0)
    out = np.empty(taus.size)
    t = 0.0
    for i, target in enumerate(taus):
        n = int((target - t) // step)
        for _ in range(n):
            v = v + full @ v
        rest = target - t - n * step
        if rest > 1e-15:
            v = v + _rk4_increment(A, rest) @ v
        t = target
        out[i] = v[3].real / steady
    return out


def _dip_fwhm(taus, values):
    """Full width at half maximum of the 1 - g2 dip around zero delay."""
    depth = 1.0 - values[0]
    half_level = 1.0 - 0.5 * depth
    i = int(np.argmax(values >= half_level))
    if i == 0:
        return 0.0
    t_half = float(
        np.interp(half_level, [values[i - 1], values[i]], [taus[i - 1], taus[i]])
    )
    return 2.0 * t_half


def _g2_zero(emitter, width, beta=0.0):
    ideal = SensorPipeline(emitter, width)
    return ideal.g2_zero(calibrate_background(ideal, beta))


def _eta_check(emitter, width):
    """Exact-limit g2(0), its finite-coupling ladder, and their distance
    relative to max(1, g2)."""
    value = SensorPipeline(emitter, width).g2_zero()
    conv = eta_convergence(emitter, width)
    return value, conv, abs(conv.g2_ref - value) / max(1.0, abs(value))


# --- criteria ---------------------------------------------------------------


def _criterion_1():
    """Elastic-fraction identity against the steady-state solver."""
    worst = 0.0
    for rabi in (0.1, 0.5, 1.0, 2.0, 4.0):
        em = EmitterParams(gamma=1.0, rabi=rabi)
        model = SystemModel(em)
        rho = steady_state(build_liouvillian(model)).rho
        elastic = abs(np.trace(model.sigma @ rho)) ** 2
        total = np.trace(model.sigma.conj().T @ model.sigma @ rho).real
        worst = max(worst, abs(coherent_fraction(em) - elastic / total))
    exact = abs(coherent_fraction(EmitterParams(gamma=1.0, rabi=0.5)) - 2.0 / 3.0)
    passed = worst < 1e-10 and exact < 1e-12
    return passed, f"max |F - ratio| = {worst:.2e}; |F(0.5) - 2/3| = {exact:.2e}"


def _criterion_2():
    """Unfiltered g2 against fixed-step RK4 Bloch integration."""
    taus = np.linspace(0.0, 8.0, 50)
    worst = 0.0
    zero = 0.0
    for rabi in (0.5, 2.0):
        em = EmitterParams(gamma=1.0, rabi=rabi)
        got = unfiltered_g2(em, taus).values
        oracle = _bloch_g2_rk4(1.0, rabi, taus)
        worst = max(worst, float(np.max(np.abs(got - oracle))))
        zero = max(zero, abs(got[0]))
    passed = worst < 1e-8 and zero < 1e-10
    return passed, f"max |g2 - RK4| = {worst:.2e}; |g2(0)| = {zero:.2e}"


def _criterion_3():
    """Weak-drive filter sweep: antibunched, Poissonian, monotone between."""
    em = EmitterParams(gamma=1.0, rabi=0.5)
    broad = _g2_zero(em, 150.0)
    narrow = _g2_zero(em, 0.01)
    grid = np.logspace(np.log10(0.1), np.log10(10.0), 10)
    values = [_g2_zero(em, w) for w in grid]
    monotone = bool(np.all(np.diff(values) < 0.0))
    passed = broad < 0.02 and 0.9 <= narrow <= 1.1 and monotone
    return passed, (
        f"g2(150g) = {broad:.4f}; g2(0.01g) = {narrow:.4f}; "
        f"monotone on [0.1g, 10g]: {monotone}"
    )


def _criterion_4():
    """Detector-limited antibunching at 37.5 ps timing resolution."""
    gamma = 20.0 / HBAR_UEV_PS  # 1/ps
    em = EmitterParams(gamma=gamma, rabi=0.5 * gamma)
    taus = np.linspace(0.0, 20.0 / gamma, 8001)
    trace = filtered_g2(em, 150.0 * gamma, taus=taus)
    smeared = irf_convolve(trace, GaussianIRF(fwhm=37.5))
    value = float(smeared.values[0])
    passed = abs(value - 0.09) <= 0.03
    return passed, f"convolved g2(0) = {value:.4f} (target 0.09 +/- 0.03)"


def _criterion_5():
    """Dip time-broadening between the 0.29g and 23g filters."""
    em = EmitterParams(gamma=1.0, rabi=0.5)
    taus = np.linspace(0.0, 126.0, 8001)
    narrow = _dip_fwhm(taus, filtered_g2(em, 0.29, taus=taus).values)
    broad = _dip_fwhm(taus, filtered_g2(em, 23.0, taus=taus).values)
    ratio = narrow / broad
    passed = ratio >= 3.0
    return passed, f"FWHM(0.29g) = {narrow:.2f}/g, FWHM(23g) = {broad:.2f}/g, ratio = {ratio:.2f}"


def _criterion_6():
    """Strong-drive bunching maximum at the etalon bandwidth."""
    em = EmitterParams(gamma=1.0, rabi=1.0)
    grid = np.linspace(1.0, 6.0, 26)
    values = np.array([_g2_zero(replace(em, rabi=r), 0.29) for r in grid])
    peak = float(values.max())
    location = float(grid[int(values.argmax())])
    passed = abs(peak - 2.1) <= 0.3 and 2.0 <= location <= 5.0
    return passed, f"max g2(0) = {peak:.3f} at rabi = {location:.1f}g (target 2.1 +/- 0.3 in [2g, 5g])"


def _criterion_7():
    """Deep-filtering, hard-driving limit of the zero-delay bunching."""
    em = EmitterParams(gamma=1.0, rabi=150.0)
    value, conv, deviation = _eta_check(em, 0.005)
    unhalved = conv.accepted and conv.halvings == 0
    passed = unhalved and deviation <= ETA_TOL and abs(value - 3.0) <= 0.2
    return passed, (
        f"g2(0) = {value:.3f} (target 3.0 +/- 0.2), eta ladder halvings = {conv.halvings}, "
        f"ladder vs limit = {deviation:.2e}"
    )


def _criterion_8():
    """Filtered elastic fraction: near unity narrow, below 0.7 broad."""
    em = EmitterParams(gamma=1.0, rabi=0.5, laser_linewidth=5e-4)
    narrow = [filtered_fractions(em, w)["coherent"] for w in (0.05, 0.01)]
    broad = [filtered_fractions(em, w)["coherent"] for w in (50.0, 150.0)]
    passed = all(f > 0.99 for f in narrow) and all(f < 0.7 for f in broad)
    return passed, (
        f"F(0.05g) = {narrow[0]:.4f}, F(0.01g) = {narrow[1]:.4f} (> 0.99); "
        f"F(50g) = {broad[0]:.4f}, F(150g) = {broad[1]:.4f} (< 0.7)"
    )


def _criterion_9():
    """Transmission closed form against overlap quadrature."""
    worst = 0.0
    for ratio in np.logspace(-4.0, 4.0, 9):
        w = float(ratio)

        def integrand(x, w=w):
            line = (w / (2.0 * np.pi)) / (x**2 + (w / 2.0) ** 2)
            return line * 0.25 / (x**2 + 0.25)

        numeric, _ = scipy.integrate.quad(
            integrand, -np.inf, np.inf, limit=400, epsabs=1e-13, epsrel=1e-12
        )
        closed = lorentzian_transmission(w, 1.0, 0.0)
        worst = max(worst, abs(closed - numeric), abs(closed - 1.0 / (1.0 + w)))
    passed = worst < 1e-8
    return passed, f"max |closed form - quadrature| = {worst:.2e} over w/G in [1e-4, 1e4]"


def _criterion_10():
    """A 500g sensor is indistinguishable from no filter."""
    worst = 0.0
    for rabi in (0.5, 2.0):
        em = EmitterParams(gamma=1.0, rabi=rabi)
        taus = np.linspace(0.0, 30.0, 1501)
        filt = filtered_g2(em, 500.0, taus=taus).values
        bare = unfiltered_g2(em, taus).values
        worst = max(worst, float(np.max(np.abs(filt - bare))))
    passed = worst < 0.02
    return passed, f"max |filtered - unfiltered| = {worst:.4f} at G = 500g"


def _criterion_11():
    """Coupling-halving robustness at every acceptance parameter point, and
    agreement of the finite-coupling ladder with the exact limit."""
    points = [
        (0.5, 150.0),
        (0.5, 23.0),
        (0.5, 0.29),
        (0.5, 0.01),
        (0.5, 500.0),
        (2.0, 0.29),
        (2.0, 1.0),
        (2.0, 0.05),
        (2.0, 0.01),
        (2.0, 500.0),
        (150.0, 0.005),
    ]
    worst = worst_limit = 0.0
    for rabi, width in points:
        em = EmitterParams(gamma=1.0, rabi=rabi)
        _, conv, deviation = _eta_check(em, width)
        if not (conv.accepted and conv.halvings == 0):
            return False, f"eta ladder needed halving at rabi = {rabi}g, width = {width}g"
        worst = max(worst, abs(conv.g2_ref - conv.g2_half) / max(1.0, abs(conv.g2_half)))
        worst_limit = max(worst_limit, deviation)
    passed = worst < ETA_TOL and worst_limit <= ETA_TOL
    return passed, (
        f"max relative eta-halving shift = {worst:.2e}, ladder vs exact limit = "
        f"{worst_limit:.2e} over {len(points)} points"
    )


def _criterion_12():
    """Laser background strengthens the bunching band and both limits meet 1."""
    em = EmitterParams(gamma=1.0, rabi=2.0)
    exceeded = []
    for width in np.logspace(np.log10(0.05), 0.0, 7):
        clean = _g2_zero(em, width)
        dirty = _g2_zero(em, width, beta=0.2)
        exceeded.append(dirty > clean)
    clean_narrow = _g2_zero(em, 0.01)
    dirty_narrow = _g2_zero(em, 0.01, beta=0.2)
    near_one = abs(clean_narrow - 1.0) <= 0.1 and abs(dirty_narrow - 1.0) <= 0.1
    passed = any(exceeded) and near_one
    return passed, (
        f"beta = 0.2 exceeds beta = 0 at {sum(exceeded)}/7 widths in [0.05g, g]; "
        f"g2(0.01g) = {clean_narrow:.3f} / {dirty_narrow:.3f}"
    )


CRITERIA = [
    (1, "elastic-fraction identity", _criterion_1),
    (2, "unfiltered g2 vs Bloch RK4 oracle", _criterion_2),
    (3, "weak-drive filter sweep shape", _criterion_3),
    (4, "detector-limited antibunching", _criterion_4),
    (5, "dip time-broadening factor", _criterion_5),
    (6, "strong-drive bunching maximum", _criterion_6),
    (7, "deep-filtering bunching limit", _criterion_7),
    (8, "filtered elastic fraction bounds", _criterion_8),
    (9, "transmission closed form", _criterion_9),
    (10, "broad-sensor consistency", _criterion_10),
    (11, "coupling-halving robustness", _criterion_11),
    (12, "background confidence band", _criterion_12),
]


def run_criterion(index):
    """Run one criterion by 1-based index."""
    for idx, name, fn in CRITERIA:
        if idx == index:
            passed, detail = fn()
            return CriterionResult(index=idx, name=name, passed=passed, detail=detail)
    raise KeyError(f"no criterion {index}")


def run_all(report=None):
    """Run the full suite; pass ``report=print`` for live per-line output."""
    results = []
    for idx, name, fn in CRITERIA:
        passed, detail = fn()
        result = CriterionResult(index=idx, name=name, passed=passed, detail=detail)
        results.append(result)
        if report is not None:
            status = "PASS" if passed else "FAIL"
            report(f"[{status}] criterion {idx:2d} ({name}): {detail}")
    return results
