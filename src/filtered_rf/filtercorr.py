"""Frequency-filtered second-order correlations via weak auxiliary sensors.

Two damped two-level sensors are attached to the emitter; their decay rate
plays the role of the filter bandwidth, and the normalized cross
coincidence of their populations is the filtered g2.  The defining limit
is vanishing emitter-sensor coupling eta.  There each sensor is a linear
filter of the emitter field, so :class:`SensorPipeline` computes the limit
exactly on the emitter's own 4-dim Liouville space, from a short hierarchy
of emitter operators solved once at zero laser background; each read-out
takes the background amplitude and weighs that one solution exactly.  The
full 64-dim two-sensor model, with the halving check
:func:`eta_convergence`, remains as the finite-coupling reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import qmath
from .dynamics import DEFAULT_TAU_POINTS, _check_taus, _default_span, _regress, _require_emission
from .dynamics import SIGMA, default_tau_grid, emitter_state
from .instrument import _kernel
from .system import SensorConfig, SystemModel, build_liouvillian

__all__ = [
    "CorrelationTrace",
    "EtaConvergence",
    "EtaConvergenceError",
    "BackgroundCalibrationError",
    "SensorPipeline",
    "TwoSensorModel",
    "default_eta",
    "filtered_g2",
    "unfiltered_g2",
    "eta_convergence",
    "calibrate_background",
    "sweep_point",
]

DEFAULT_ETA_FACTOR = 1e-3
ETA_TOL = 1e-3
MAX_HALVINGS = 4
MAX_BACKGROUND = 0.2
IMAG_TOL = 1e-9

# Filter widths below this fraction of gamma stress the default tau grid.
NARROW_WIDTH_WARN = 1e-4


class EtaConvergenceError(RuntimeError):
    """Sensor coupling ladder failed to converge (back-action too strong)."""


class BackgroundCalibrationError(RuntimeError):
    """No background amplitude reproduces the requested fraction."""


@dataclass
class CorrelationTrace:
    """g2 values on a tau grid plus the parameters that produced them."""

    taus: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.taus.shape != self.values.shape:
            raise ValueError(
                f"tau grid shape {self.taus.shape} != values shape {self.values.shape}"
            )


@dataclass
class EtaConvergence:
    """Outcome of the finite-coupling halving check at one parameter point."""

    eta: float
    g2_ref: float
    g2_half: float
    accepted: bool
    halvings: int


def default_eta(emitter, filter_width):
    """Protocol coupling: 1e-3 times the smallest rate in the problem."""
    return DEFAULT_ETA_FACTOR * min(emitter.gamma, filter_width)


def _real_part(g2, context):
    """Real part of a normalized complex g2, whose imaginary part must vanish
    to IMAG_TOL * max(1, |g2|) at every delay."""
    g2 = np.asarray(g2)
    worst = float(np.max(np.abs(g2.imag) / np.maximum(1.0, np.abs(g2)), initial=0.0))
    if worst > IMAG_TOL:
        raise RuntimeError(
            f"{context}: imaginary part {worst:.3e} of max(1, |g2|) exceeds {IMAG_TOL:.1e} "
            "(convention bug or numerical breakdown)"
        )
    return g2.real.copy()


# The sensor ladder at unit coupling.  Block 3 q + p holds X_{p,q}, with p
# excitations on the sensor ket and q on the bra, and takes p times an
# excitation raised on the ket, -i sigma X_{p-1,q}, and q times one raised
# on the bra, i X_{p,q-1} sigma^dag.
_RAISE = np.diag([1.0, 2.0], -1)  # _RAISE[n, n - 1] = n
_COUPLING = qmath.kron(np.eye(3), qmath.kron(_RAISE, -1j * qmath.spre(SIGMA))) + qmath.kron(
    _RAISE, qmath.kron(np.eye(3), 1j * qmath.spost(SIGMA.conj().T))
)
# The ladder's blocks by excitation level p + q = 1 ... 4; each level is
# fed only by the one below it.
_RUNGS = [np.flatnonzero(np.add.outer(range(3), range(3)).ravel() == n) for n in range(1, 5)]
# The trace generator is the ladder's principal block over (Y00, Y10, Y01,
# Y11), blocks 0, 1, 3 and 4.
_TRACE_BLOCK = np.ix_(*[np.arange(36).reshape(9, 4)[[0, 1, 3, 4]].ravel()] * 2)
_EYE = np.eye(4)
# Row 2 i + j of the jump basis, i and j the jump sensor's ket and bra,
# holds (Y00, Y10, Y01, Y11) with Y[s, s'] = X_{i+s, j+s'} in block 2 s' + s.
_HIGH, _LOW = np.divmod(np.arange(4), 2)
_JUMP_COUNTS = (_HIGH[:, None] + _LOW, _LOW[:, None] + _HIGH)
# The row that takes the trace of a vectorized 2x2 operator, and the four
# rows that take it of each block of the trace generator's state.
_TRACE_ROW = np.array([1.0, 0.0, 0.0, 1.0])
_BLOCK_TRACES = np.kron(np.eye(4), _TRACE_ROW)


class SensorPipeline:
    """Two identical sensors in the exact vanishing-coupling limit, solved
    once, at zero laser background.

    There each sensor is a linear filter of the field sigma + b, and the
    two-sensor state reduces to emitter operators, one per count p of
    sensor excitations on the ket and q on the bra, in units of
    (eta/m)^(p + q) with m = |k|, k = width/2 + i center the filter's
    response rate: both sensors filter the same field alike, so which sensor
    holds an excitation does not matter.  The counts climb one ladder, a
    36x36 generator G over X_{p,q}, p, q <= 2, one term per excited sensor:

        d/dt X_{p,q} = (L_e - p k - q conj(k)) X_{p,q} - i m p sigma X_{p-1,q} + i m q X_{p,q-1} sigma^dag.

    At b = 0 the hierarchy is G's stationary state: X_{0,0} is the emitter's
    closed-form steady state (:func:`emitter_state`), and the other eight
    follow level by level, p + q = 1 ... 4, each block solved with its own
    4x4 matrix in one stacked solve per level.  Re(p k + q conj(k)) > 0, so
    every solve is regular, exceptional points included; X_{q,p} =
    X_{p,q}^dag to rounding.  The trace generator is G's block over
    p, q <= 1, sliced when the first trace needs it.

    The background amplitude b is an argument of each read-out, not part of
    the pipeline: b only shifts each sensor amplitude by the c-number
    beta = -i m b / k, |beta| = b, so one weight rule over the b = 0
    solution gives every result at b.  Row 2 i + j of the jump basis holds
    the four blocks (Y00, Y10, Y01, Y11), Y[s, s'] = X_{i+s, j+s'}, of the
    state after a jump on sensor 1, and the trace table T[s, r] is the trace
    of block s of row r.  With w(b) = (|beta|^2, beta, conj(beta), 1) the
    jumped state at b is w @ jumps and sensor 2's probe at b is conj(w) over
    the block traces, so the sensor population, in units of (eta/m)^2, and
    the coincidence, in (eta/m)^4, are

        n(b) = Re(T[0] . w),    c(b) = Re(conj(w) . T . w),

    and a trace is the same bilinear form, propagated by the trace generator
    (:func:`_g2_grid`).  ``emitter_coherence`` is the emitter's steady
    <sigma>; ``propagator`` is the trace propagator, None until the first
    trace builds it.
    """

    def __init__(self, emitter, filter_width, filter_center=0.0):
        if not 0.0 < filter_width < math.inf:
            raise ValueError(f"filter width must be finite and > 0, got {filter_width}")
        if not math.isfinite(filter_center):
            raise ValueError(f"filter center must be finite, got {filter_center}")
        self.emitter = emitter
        self.filter_width = filter_width
        self.filter_center = filter_center

        _, L, rho, _ = emitter_state(emitter)
        self.emitter_coherence = complex(rho[1, 0])

        k = 0.5 * filter_width + 1j * filter_center
        ladder = abs(k) * _COUPLING
        kappas = np.add.outer(np.arange(3) * k.conjugate(), np.arange(3) * k).ravel()
        blocks = ladder.reshape(9, 4, 9, 4)
        blocks[range(9), :, range(9)] = L - kappas[:, None, None] * _EYE
        # The stationary ladder, G x = 0, by block forward substitution: X_{0,0}
        # is the closed-form steady state, and each higher level solves its
        # own diagonal blocks against the level below, one stacked solve.
        x = np.zeros((9, 4), dtype=complex)
        x[0] = qmath.vec(rho)
        for rung in _RUNGS:
            source = ladder.reshape(9, 4, 36)[rung] @ x.ravel()
            x[rung] = np.linalg.solve(blocks[rung, :, rung], -source[..., None])[..., 0]

        self._components = x.reshape(3, 3, 4).swapaxes(0, 1)  # X_{p,q} at index [p, q]
        self._jumps = self._components[_JUMP_COUNTS].reshape(4, 16)
        self._table = _BLOCK_TRACES @ self._jumps.T
        self._rate = k
        self._ladder = ladder
        self.propagator = None

    def _weights(self, bs):
        """w(b), one row per amplitude in bs, and T w(b) for each row: n(b)
        is the real part of its first entry, c(b) that of conj(w) . T w."""
        if not all(map(math.isfinite, bs)):
            raise ValueError(f"background amplitude must be finite, got {list(bs)}")
        k = self._rate
        betas = [-1j * abs(k) * b / k for b in bs]
        w = np.array([[abs(beta) ** 2, beta, beta.conjugate(), 1.0] for beta in betas])
        return w, w @ self._table.T

    def population(self, b=0.0):
        """Either sensor's population n(b), in units of (eta/m)^2."""
        return float(self._weights([b])[1][0, 0].real)

    def g2_zero(self, b=0.0):
        """Normalized zero-delay coincidence tr[n1 n2 rho] / (<n1><n2>) at
        background amplitude b."""
        w, tw = self._weights([b])
        n = tw[0, 0].real
        return float(np.vdot(w, tw).real / _require_emission(n * n, "the sensor population product"))

    def g2_values(self, taus, b=0.0):
        """Filtered g2 on a tau grid at background amplitude b: the sensor-2
        population after a jump on sensor 1, evolved by tau, over <n1><n2>."""
        taus = _check_taus(taus)
        if np.all(taus == 0.0):
            return np.full(taus.shape, self.g2_zero(b))
        return _g2_grid(self, [b], taus)[0]


def _trace_eigen(L, emit, absorb, k):
    """Eigenvalues and unit eigenvectors of the trace generator from one 4x4
    eigendecomposition L = V Lambda V^-1 of the emitter Liouvillian.

    In the basis I (x) V the generator is block lower triangular, with
    diagonal blocks Lambda - s, s = 0, k, conj(k), 2 Re k in the block order
    (Y00, Y10, Y01, Y11).  Its eigenvalues are lambda - s and its
    eigenvectors the columns of (I (x) V) W, W unit block lower triangular:
    W[1, 0] = W[3, 2] = E / D_k, W[2, 0] = W[3, 1] = A / D_conj(k) and
    W[3, 0] = (A W[1, 0] + E W[2, 0]) / D_(2 Re k), entrywise quotients,
    with E = V^-1 emit V, A = V^-1 absorb V and D_t[i, m] = lambda_m
    - lambda_i + t.  Each column is scaled to unit 2-norm, as numpy.linalg.eig
    returns them.  An exact filter coincidence, D_t = 0, leaves non-finite
    eigenvectors, which :class:`qmath.Propagator` reads as condition inf.
    """
    lam, V = np.linalg.eig(L)
    evals = np.concatenate([lam - s for s in (0.0, k, k.conjugate(), 2.0 * k.real)])
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            inverse = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            return evals, np.full((16, 16), np.nan)
        E, A = inverse @ emit @ V, inverse @ absorb @ V
        gaps = lam[None, :] - lam[:, None]
        Wk = E / (gaps + k)
        Wkbar = A / (gaps + k.conjugate())
        W30 = (A @ Wk + E @ Wkbar) / (gaps + 2.0 * k.real)
        evecs = np.zeros((4, 4, 4, 4), dtype=complex)
        evecs[range(4), :, range(4)] = V
        evecs[1, :, 0] = evecs[3, :, 2] = V @ Wk
        evecs[2, :, 0] = evecs[3, :, 1] = V @ Wkbar
        evecs[3, :, 0] = V @ W30
        evecs = evecs.reshape(16, 16)
        evecs /= np.linalg.norm(evecs, axis=0)
    return evals, evecs


def _g2_grid(pipeline, bs, taus):
    """Filtered g2 of a pipeline at each background amplitude in bs, one row
    each on one tau grid (nonnegative, ascending).

    After the jump on sensor 1 the sensor-1-ground blocks Y evolve on their
    own.  Their generator at b is D G D^-1, with G the one at b = 0 and D the
    displacement of sensor 2, so Y(0) at b, w(b) @ jumps, is evolved by G and
    D is applied in the probe, conj(w(b)) over the block traces: a row is
    that read-out of the one trace propagator, over n(b)^2.
    """
    w, tw = pipeline._weights(bs)
    norms = [_require_emission(n * n, "the sensor population product") for n in tw[:, 0].real]
    if pipeline.propagator is None:
        generator = pipeline._ladder[_TRACE_BLOCK]
        L, emit, absorb, _ = generator[:, :4].reshape(4, 4, 4)
        eigen = _trace_eigen(L, emit, absorb, pipeline._rate)
        pipeline.propagator = qmath.Propagator(generator, eigen)
    rows = pipeline.propagator.correlate(w.conj() @ _BLOCK_TRACES, w @ pipeline._jumps, taus)
    return _real_part(rows / np.array(norms)[:, None], "filtered g2")


class TwoSensorModel:
    """Finite-coupling reference: the full two-sensor master equation.

    The 64-dim generator of emitter plus two sensors is built once at the
    reference coupling m = |width/2 + i center|, the filter's response rate,
    and moved to the sector-rescaled basis, where every entry that lowers
    the total sensor excitation (back-action and sensor refill) scales as
    (eta/m)^2 and every other entry is independent of eta.  eta = 0 is the
    vanishing-coupling limit that :class:`SensorPipeline` computes on the
    emitter's own space; a finite eta is the same similarity transform of
    the physical generator.  Tests and :func:`eta_convergence` compare
    against it.
    """

    def __init__(self, emitter, filter_width, filter_center=0.0, eta=0.0, background_b=0.0):
        eta = float(eta)
        if not 0.0 <= eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {eta}")
        reference = math.hypot(filter_width / 2.0, filter_center)
        sensor = SensorConfig(
            nu=filter_center, width=filter_width, eta=reference, background=background_b
        )
        self.emitter = emitter
        self.filter_width = filter_width
        self.filter_center = filter_center
        self.eta = eta
        self.background_b = float(background_b)
        self.model = SystemModel(emitter, (sensor, sensor))

        # Rescale base: the coupling in units of the filter's response rate.
        # A sensor excited by the emitter then weighs O(1) per excitation in
        # the rescaled steady state, so its sectors stay balanced, and the
        # conditioning is invariant under an overall change of units.
        base = eta / reference
        counts = self.model.sensor_excitations()
        sector = np.add.outer(counts, counts).reshape(-1)
        lowering = sector[:, None] < sector[None, :]
        self.scaled_liouvillian = np.where(lowering, base**2, 1.0) * build_liouvillian(self.model)

        # Uniqueness of the fixed point is structural here (gamma, width > 0;
        # at eta = 0 the generator is block triangular over sensor sectors
        # with an emitter-only null space), so skip the SVD nullity
        # classification, which misreads the rescaled generator's
        # non-normality as degeneracy.
        v = qmath.steady_vector(self.scaled_liouvillian, check_degeneracy=False)
        rho_scaled = qmath.unvec(v)
        diag_scaled = np.real(np.diag(rho_scaled))
        # Observables in units that stay finite at base = 0: populations in
        # base^2, the coincidence in base^4.  A state with n sensor
        # excitations weighs base^(2n) in the physical trace and
        # base^(2(n-1)) in a population.
        self._excess_weight = base ** (2.0 * np.clip(counts - 1, 0, None))
        trace = diag_scaled @ base ** (2.0 * counts)
        self.rho_scaled = rho_scaled / trace
        diag_scaled = diag_scaled / trace

        self._sensor_masks = tuple(np.real(np.diag(n)) > 0.5 for n in self.model.sensor_number)
        n1_mask, n2_mask = self._sensor_masks
        self.scaled_populations = tuple(
            float(diag_scaled[mask] @ self._excess_weight[mask]) for mask in self._sensor_masks
        )
        self.n1_pop, self.n2_pop = (base**2 * n for n in self.scaled_populations)
        self._coincidence = float(diag_scaled[n1_mask & n2_mask].sum())
        self._propagator = None

    def g2_zero(self):
        """Normalized zero-delay coincidence tr[n1 n2 rho] / (<n1><n2>)."""
        n1, n2 = self.scaled_populations
        return self._coincidence / (n1 * n2)

    def g2_values(self, taus, jump_sensor=0, probe_sensor=1):
        """Filtered g2 on a tau grid: tr[n_p exp(L tau)(theta_j rho theta_j^dag)]
        over <n_j><n_p>."""
        taus = _check_taus(taus)
        if np.all(taus == 0.0):
            return np.full(taus.shape, self.g2_zero())

        lower = self.model.sensor_lower[jump_sensor]
        # Scaled frame: D theta D^-1 = base * theta, so the jumped state
        # D (theta rho theta^dag) D is base^2 theta rho_scaled theta^dag; the
        # base^2 is absorbed into the units of the numerator.
        x0 = lower @ self.rho_scaled @ lower.conj().T
        if self._propagator is None:
            self._propagator = qmath.Propagator(self.scaled_liouvillian)
        weights = np.where(self._sensor_masks[probe_sensor], self._excess_weight, 0.0)
        probe = qmath.vec(np.diag(weights))
        numerator = self._propagator.correlate([probe], [qmath.vec(x0)], taus)[0]
        pops = self.scaled_populations
        return _real_part(numerator / (pops[jump_sensor] * pops[probe_sensor]), "filtered g2")


def unfiltered_g2(emitter, taus=None):
    """Bare-emitter g2 via regression on the two-level master equation."""
    if taus is None:
        taus = default_tau_grid(emitter)
    taus = _check_taus(taus)
    sigma, L, rho, _ = emitter_state(emitter)
    number = sigma.conj().T @ sigma
    pop = _require_emission(rho[1, 1].real, "the excited population")
    raw = _regress(L, sigma @ rho @ sigma.conj().T, number, taus)
    values = _real_part(raw / pop**2, "unfiltered g2")
    return CorrelationTrace(
        taus=taus,
        values=values,
        metadata={
            "kind": "unfiltered",
            "gamma": emitter.gamma,
            "rabi": emitter.rabi,
            "detuning": emitter.detuning,
            "irf_applied": False,
        },
    )


def calibrate_background(pipeline, beta):
    """The background amplitude b, a float, that gives background fraction beta.

    ``pipeline`` is the :class:`SensorPipeline` of the parameter point; it
    holds the emitter, the filter and the b = 0 population A below.  beta
    is the share of the total detected (sensor) population that the laser
    background alone would produce.  In the vanishing-coupling limit each
    sensor is a linear filter of the field sigma + b, so its population is
    exactly quadratic in b, n(b) = A + 2 Re<sigma> b + b^2 in the pipeline's
    units: the background alone drives the damped sensor with strength b m,
    m = |width/2 + i center| the reference coupling, which gives b^2.  b is
    the positive root of (1 - beta) b^2 - beta B b - beta A = 0 with
    B = 2 Re<sigma>.  The forward check reads n(b) from
    ``pipeline.population(b)``, whose cross term comes from the solved
    hierarchy, so it compares two routes to the same ratio b^2 / n(b).
    beta = 0 gives b = 0.0.  The results at b are the pipeline's read-outs
    at b, such as ``pipeline.g2_zero(b)``.
    """
    beta = float(beta)
    if not 0.0 <= beta <= MAX_BACKGROUND:
        raise ValueError(f"beta must lie in [0, {MAX_BACKGROUND}], got {beta}")
    if beta == 0.0:
        return 0.0

    # Populations in the pipeline's scaled units.  Without drive A = 0 and
    # B = 0, so any background alone gives ratio 1 and no root reaches beta.
    A = _require_emission(pipeline.population(), "the sensor population")
    B = 2.0 * pipeline.emitter_coherence.real
    a = 1.0 - beta
    root = math.sqrt((beta * B) ** 2 + 4.0 * a * beta * A)
    # Both forms avoid cancellation between beta * B and the root.
    solved = (beta * B + root) / (2.0 * a) if B >= 0.0 else 2.0 * beta * A / (root - beta * B)

    forward = solved**2 / pipeline.population(solved)
    if abs(forward - beta) > 1e-6:
        raise BackgroundCalibrationError(
            f"forward check failed: ratio({solved:.6e}) = {forward:.8f} != {beta}"
        )
    return solved


def eta_convergence(
    emitter,
    filter_width,
    filter_center=0.0,
    eta0=None,
    max_halvings=MAX_HALVINGS,
):
    """Coupling-halving check of a finite-coupling approximation.

    Results come from the exact eta = 0 limit; this ladder on the
    :class:`TwoSensorModel` is the finite-coupling oracle for it.  Accepts
    when g2(0) at eta and at eta/2 agree to ETA_TOL * max(1, g2); on
    failure the reference coupling is halved, up to max_halvings times.
    """
    if eta0 is None:
        eta0 = default_eta(emitter, filter_width)

    eta = float(eta0)
    g2_ref = TwoSensorModel(emitter, filter_width, filter_center, eta).g2_zero()
    for halvings in range(max_halvings + 1):
        g2_half = TwoSensorModel(emitter, filter_width, filter_center, eta / 2.0).g2_zero()
        delta = abs(g2_ref - g2_half)
        if delta < ETA_TOL * max(1.0, abs(g2_half)):
            return EtaConvergence(
                eta=eta, g2_ref=g2_ref, g2_half=g2_half, accepted=True, halvings=halvings
            )
        eta, g2_ref = eta / 2.0, g2_half
    raise EtaConvergenceError(
        f"no eta convergence after {max_halvings} halvings from {eta0:.3e} "
        f"(last |delta| = {delta:.3e}); coupling too large or "
        "numerics breaking down"
    )


def filtered_g2(emitter, filter_width, filter_center=0.0, beta=0.0, taus=None):
    """Frequency-filtered g2(tau) of the driven emitter.

    Calibrates the laser background to the requested fraction beta and
    evaluates the normalized sensor coincidence on the tau grid, in the
    exact vanishing-coupling limit.
    """
    if not filter_width > 0.0:
        raise ValueError(f"filter width must be > 0, got {filter_width}")
    if filter_width < NARROW_WIDTH_WARN * emitter.gamma:
        warnings.warn(
            f"filter width {filter_width / emitter.gamma:.3g} gamma is below 1e-4 gamma; "
            "make sure the tau grid resolves the filter response",
            stacklevel=2,
        )
    if taus is None:
        taus = default_tau_grid(emitter, filter_width)
    taus = _check_taus(taus)

    pipeline = SensorPipeline(emitter, filter_width, filter_center)
    b = calibrate_background(pipeline, beta)
    values = pipeline.g2_values(taus, b)
    propagator = pipeline.propagator
    return CorrelationTrace(
        taus=taus,
        values=values,
        metadata={
            "kind": "filtered",
            "gamma": emitter.gamma,
            "rabi": emitter.rabi,
            "detuning": emitter.detuning,
            "filter_width": filter_width,
            "filter_center": filter_center,
            "beta": float(beta),
            "background_b": b,
            "propagator_method": None if propagator is None else propagator.method,
            "propagator_condition": None if propagator is None else propagator.condition,
            "irf_applied": False,
        },
    )


def _g2_zero_convolved(pipeline, bs, irf):
    """IRF-smeared g2(0) of a pipeline at each background amplitude in bs:
    one sum of the detector kernel centred on tau = 0 over the even
    extension of each g2, sampled at the delay spacing that a full trace at
    this point would use.  The kernel grid is built once, for every b."""
    span = max(_default_span(pipeline.emitter, pipeline.filter_width), 8.0 * irf.fwhm)
    n = max(DEFAULT_TAU_POINTS, int(np.ceil(span / (irf.fwhm / 10.0))) + 1)
    dt = span / (n - 1)
    kernel = _kernel(irf.fwhm, dt)
    half = kernel.size // 2
    head = np.arange(half + 1) * dt
    return [float(kernel @ np.concatenate([g2[:0:-1], g2])) for g2 in _g2_grid(pipeline, bs, head)]


def _axis_point(emitter, axis, x, filter_width):
    """The (emitter, filter width) of one sweep value: x is the filter width
    on the filter_width axis and the drive strength on the rabi axis, which
    keeps the fixed ``filter_width``."""
    if axis == "filter_width":
        return emitter, x
    if axis != "rabi":
        raise ValueError(f"axis must be 'filter_width' or 'rabi', got {axis!r}")
    if filter_width is None:
        raise ValueError("a fixed filter_width is required when sweeping rabi")
    return replace(emitter, rabi=x), filter_width


def sweep_point(
    emitter, axis, x, filter_width=None, filter_center=0.0, beta_lo=0.0, beta_hi=0.0, irf=None
):
    """g2(0) at one value x of a filter-width or drive-strength sweep, the
    unit that a sweep (the CLI's, or a comprehension) calls per value.

    Returns the row {"x", "g2_ideal", "g2_lo", "g2_hi"}: the ideal value (no
    background, no IRF) and the values at the two background bounds,
    IRF-convolved when an IRF is given.  Every value is a read-out of one
    pipeline: g2_ideal at b = 0, each bound at its calibrated amplitude, and
    with an IRF both bounds through one smear.
    """
    em, width = _axis_point(emitter, axis, x, filter_width)
    if beta_lo > beta_hi:
        raise ValueError(f"beta bounds out of order: {beta_lo} > {beta_hi}")

    ideal = SensorPipeline(em, width, filter_center)
    bs = [calibrate_background(ideal, beta) for beta in (beta_lo, beta_hi)]
    if irf is None:
        g2_lo, g2_hi = (ideal.g2_zero(b) for b in bs)
    else:
        g2_lo, g2_hi = _g2_zero_convolved(ideal, bs, irf)
    return {"x": x, "g2_ideal": ideal.g2_zero(), "g2_lo": g2_lo, "g2_hi": g2_hi}
