"""Frequency-filtered second-order correlations via weak auxiliary sensors.

Two damped two-level sensors are attached to the emitter; their decay rate
plays the role of the filter bandwidth, and the normalized cross
coincidence of their populations is the filtered g2.  The defining limit
is vanishing emitter-sensor coupling eta.  There each sensor is a linear
filter of the emitter field, so :class:`SensorPipeline` computes the limit
exactly on the emitter's own 4-dim Liouville space, from a short hierarchy
of emitter operators solved once at zero laser background; the background
is an exact displacement of that solution.  The full 64-dim two-sensor
model, with the halving check :func:`eta_convergence`, remains as the
finite-coupling reference.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import qmath
from .dynamics import DEFAULT_TAU_POINTS, _check_taus, _default_span, _regress, _require_emission
from .dynamics import default_tau_grid, emitter_state
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


# Sensor states (n1, n2) and the states one excitation below each.  Every
# (ket, bra) pair of them above the ground pair is one emitter operator;
# the pairs are grouped by excitation counts (|a|, |c|), which fix kappa,
# in order of total excitation, so that a group's sources come first.
_BELOW = {(0, 0): [], (1, 0): [(0, 0)], (0, 1): [(0, 0)], (1, 1): [(0, 1), (1, 0)]}
_GROUPS = [
    (counts, [(a, c) for a in _BELOW for c in _BELOW if (sum(a), sum(c)) == counts])
    for counts in sorted(((i, j) for i in range(3) for j in range(3)), key=sum)[1:]
]
# The row that takes the trace of a vectorized 2x2 operator, and the four
# rows that take it of each block of the trace generator's state.
_TRACE_ROW = np.array([1.0, 0.0, 0.0, 1.0])
_BLOCK_TRACES = np.kron(np.eye(4), _TRACE_ROW)


class SensorPipeline:
    """Two identical sensors in the exact vanishing-coupling limit.

    There each sensor is a linear filter of the field sigma + b, and the
    two-sensor state reduces to emitter operators X[a, c], one per sensor
    ket excitation a = (a1, a2) and bra excitation c = (c1, c2), in units of
    (eta/m)^(|a| + |c|) with m = |k|, k = width/2 + i center the filter's
    response rate.  The hierarchy is solved once, at b = 0: X[00, 00] is the
    emitter's closed-form steady state (:func:`emitter_state`), and every
    other component solves, from the ones one excitation lower,

        (kappa - L_e) X[a, c] = -i m sigma X[a - e_j, c] + i m X[a, c - e_j] sigma^dag,

    summed over the sensors j excited in a and in c respectively, with
    kappa = |a| k + |c| conj(k).  Re kappa > 0, so every solve is regular,
    exceptional points included.

    The constant b only shifts each sensor amplitude by the c-number
    beta = -i m b / k, |beta| = b, so the components at b are binomial sums
    of those at b = 0: X_b[a, c] sums beta^(|a| - |a'|) conj(beta)^(|c| - |c'|)
    X[a', c'] over a' <= a and c' <= c, entry by entry.  Sensor populations
    are tr X_b[10, 10] and tr X_b[01, 01] in units of (eta/m)^2, the
    coincidence tr X_b[11, 11] in (eta/m)^4.  ``emitter_coherence`` is the
    emitter's steady <sigma>.
    """

    def __init__(self, emitter, filter_width, filter_center=0.0, *, background_b=0.0):
        if not 0.0 < filter_width < math.inf:
            raise ValueError(f"filter width must be finite and > 0, got {filter_width}")
        if not math.isfinite(filter_center):
            raise ValueError(f"filter center must be finite, got {filter_center}")
        self.emitter = emitter
        self.filter_width = filter_width
        self.filter_center = filter_center

        sigma, L, rho, _ = emitter_state(emitter)
        self.emitter_coherence = complex(rho[1, 0])

        k = 0.5 * filter_width + 1j * filter_center
        m = abs(k)
        emit = -1j * m * qmath.spre(sigma)
        absorb = 1j * m * qmath.spost(sigma.conj().T)
        eye = np.eye(4)
        x = {((0, 0), (0, 0)): qmath.vec(rho)}
        for (n_ket, n_bra), pairs in _GROUPS:
            sources = np.zeros((4, len(pairs)), dtype=complex)
            for i, (a, c) in enumerate(pairs):
                for low in _BELOW[a]:
                    sources[:, i] += emit @ x[low, c]
                for low in _BELOW[c]:
                    sources[:, i] += absorb @ x[a, low]
            kappa = n_ket * k + n_bra * k.conjugate()
            x.update(zip(pairs, np.linalg.solve(kappa * eye - L, sources).T))

        # X[a, c] at index [a1, a2, c1, c2]; its traces over (a1 a2, c1 c2).
        self._components = np.empty((2, 2, 2, 2, 4), dtype=complex)
        for (a, c), component in x.items():
            self._components[a + c] = component
        self._traces = (self._components @ _TRACE_ROW).reshape(4, 4)
        self._rate = k
        # The 16x16 trace generator is built on the first trace; every
        # pipeline displaced from this one shares the slot of its propagator
        # and its probe and jump bases.
        self._blocks = (L, emit, absorb)
        self._trace = [None, None]
        self._displace(background_b)

    def _displace(self, background_b):
        self.background_b = float(background_b)
        beta = self._beta = -1j * abs(self._rate) * self.background_b / self._rate
        # Ket weights over a' = 00, 01, 10, 11 in X_b[10, .], X_b[01, .] and
        # X_b[11, .]; the bra weights are their conjugates.
        weights = np.array([[beta, 0, 1, 0], [beta, 1, 0, 0], [beta * beta, beta, beta, 1]])
        n1, n2, coincidence = ((weights @ self._traces) * weights.conj()).sum(axis=1).real
        self.scaled_populations = (float(n1), float(n2))
        self._coincidence = float(coincidence)

    def _displaced(self, background_b):
        """This pipeline at background amplitude b, sharing its b = 0
        components and its propagator."""
        pipeline = copy.copy(self)
        pipeline._displace(background_b)
        return pipeline

    @property
    def propagator(self):
        """The trace propagator, or None until a delay has been propagated."""
        return self._trace[0]

    def _normalization(self):
        """<n1><n2> in the pipeline's units."""
        n1, n2 = self.scaled_populations
        return _require_emission(n1 * n2, "the sensor population product")

    def g2_zero(self):
        """Normalized zero-delay coincidence tr[n1 n2 rho] / (<n1><n2>)."""
        return self._coincidence / self._normalization()

    def g2_values(self, taus):
        """Filtered g2 on a tau grid: the sensor-2 population after a jump on
        sensor 1, evolved by tau, over <n1><n2>.

        After the jump the sensor-1-ground components Y[s, s'] = X_b[1s, 1s']
        evolve on their own.  Their generator at b is D G D^-1, with G the
        one at b = 0 and D the displacement of sensor 2, so Y is evolved by G
        from D^-1 Y(0), which displaces sensor 1 only, and D is applied in
        the probe: tr Y[1, 1] + beta tr Y[0, 1] + conj(beta) tr Y[1, 0]
        + |beta|^2 tr Y[0, 0].  Both are quadratic in beta over four b = 0
        basis vectors; see :func:`_g2_grid`.
        """
        taus = _check_taus(taus)
        if np.all(taus == 0.0):
            return np.full(taus.shape, self.g2_zero())
        return _g2_grid([self], taus)[0]

    def _bases(self):
        """The trace propagator and the probe and jump bases, four rows each.

        A pipeline at b probes with conj(w) @ probes and jumps from
        w @ jumps, w its shift weights (see :func:`_g2_grid`).  On the eig
        path the bases are carried into the eigenbasis, probes @ V and
        jumps @ V^-T, so V^-1 is applied to them once per propagator."""
        if self._trace[0] is None:
            L, emit, absorb = self._blocks
            propagator = qmath.Propagator(self._generator(), _trace_eigen(L, emit, absorb, self._rate))
            # (Y00, Y10, Y01, Y11), Y[s, s'] at index 2 s' + s, from X[i s, k s'].
            jumps = np.einsum("iskrt->ikrst", self._components).reshape(4, 16)
            probes = _BLOCK_TRACES
            if propagator.method == "eig":
                probes = probes @ propagator.eigenvectors
                jumps = jumps @ propagator.inverse.T
            self._trace[:] = propagator, (probes, jumps)
        return self._trace

    def _generator(self):
        """The b = 0 generator over (Y00, Y10, Y01, Y11), driven as in the
        hierarchy, with the probe sensor's kappa."""
        L, emit, absorb = self._blocks
        k = self._rate
        eye = np.eye(4)
        blocks = {
            (0, 0): L,
            (1, 0): emit,
            (1, 1): L - k * eye,
            (2, 0): absorb,
            (2, 2): L - k.conjugate() * eye,
            (3, 1): absorb,
            (3, 2): emit,
            (3, 3): L - 2.0 * k.real * eye,
        }
        generator = np.zeros((16, 16), dtype=complex)
        for (i, j), block in blocks.items():
            generator[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = block
        return generator


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
    shifts = (0.0, k, k.conjugate(), 2.0 * k.real)
    evals = np.concatenate([lam - s for s in shifts])
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
        evecs = np.zeros((16, 16), dtype=complex)
        for j in range(4):
            evecs[4 * j : 4 * j + 4, 4 * j : 4 * j + 4] = V
        evecs[4:8, :4] = evecs[12:16, 8:12] = V @ Wk
        evecs[8:12, :4] = evecs[12:16, 4:8] = V @ Wkbar
        evecs[12:16, :4] = V @ W30
        evecs /= np.linalg.norm(evecs, axis=0)
    return evals, evecs


def _g2_grid(pipelines, taus):
    """Filtered g2 of pipelines displaced from one b = 0 solve, one row each
    on one tau grid (nonnegative, ascending).

    With w a pipeline's shift weights and (probes, jumps) the shared bases,
    the eig path gives every row as one pole sum sum_mu c_mu exp(lambda_mu tau),
    c = (conj(w) @ probes) (w @ jumps) / (n1 n2) in the eigenbasis, over one
    table of exp(lambda tau) for all rows.  The expm path propagates each
    jumped state.
    """
    propagator, (probes, jumps) = pipelines[0]._bases()
    # Weights of the jump basis, shift_i conj(shift_k) at 2 i + k with
    # shift = (beta, 1); the probe basis takes their conjugates.
    weights = np.array([[abs(p._beta) ** 2, p._beta, p._beta.conjugate(), 1.0] for p in pipelines])
    norms = np.array([p._normalization() for p in pipelines])
    left, right = weights.conj() @ probes, weights @ jumps
    if propagator.method == "eig":
        rows = propagator.pole_sum(left * right / norms[:, None], taus)
    else:
        rows = [
            probe @ propagator.apply_grid(jumped, taus) / norm
            for probe, jumped, norm in zip(left, right, norms)
        ]
    return [_real_part(row, "filtered g2") for row in rows]


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
        evolved = self._propagator.apply_grid(qmath.vec(x0), taus)

        d = self.model.dim
        diag_rows = np.arange(d) * (d + 1)
        weights = np.where(self._sensor_masks[probe_sensor], self._excess_weight, 0.0)
        numerator = weights @ evolved[diag_rows, :]
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
    """The pipeline at the background amplitude b giving background fraction beta.

    ``pipeline`` is the b = 0 :class:`SensorPipeline` of the parameter
    point; it already holds the emitter, the filter and the
    population A below.  beta is the share of the total detected (sensor)
    population that the laser background alone would produce.  In the
    vanishing-coupling limit each sensor is a linear filter of the field
    sigma + b, so its population is exactly quadratic in b,
    n(b) = A + 2 Re<sigma> b + b^2 in the pipeline's units: the background
    alone drives the damped sensor with strength b m, m = |width/2 + i center|
    the reference coupling, which gives b^2.  b is the positive root of
    (1 - beta) b^2 - beta B b - beta A = 0 with B = 2 Re<sigma>.  The
    returned pipeline is the given one displaced to b: it shares its solved
    components and its propagator, and its n(b) takes the cross term from
    the solved hierarchy, so the forward check compares two routes to the
    same ratio.  For beta = 0 it is the given pipeline.  Its forward ratio
    is ``p.background_b**2 / p.scaled_populations[0]``.
    """
    beta = float(beta)
    if not 0.0 <= beta <= MAX_BACKGROUND:
        raise ValueError(f"beta must lie in [0, {MAX_BACKGROUND}], got {beta}")
    if pipeline.background_b != 0.0:
        raise ValueError(
            f"calibrate_background needs the b = 0 pipeline, got b = {pipeline.background_b}"
        )
    if beta == 0.0:
        return pipeline

    # Populations in the pipeline's scaled units.  Without drive A = 0 and
    # B = 0, so any background alone gives ratio 1 and no root reaches beta.
    A = _require_emission(pipeline.scaled_populations[0], "the sensor population")
    B = 2.0 * pipeline.emitter_coherence.real
    a = 1.0 - beta
    root = math.sqrt((beta * B) ** 2 + 4.0 * a * beta * A)
    # Both forms avoid cancellation between beta * B and the root.
    solved = (beta * B + root) / (2.0 * a) if B >= 0.0 else 2.0 * beta * A / (root - beta * B)

    calibrated = pipeline._displaced(solved)
    forward = solved**2 / calibrated.scaled_populations[0]
    if abs(forward - beta) > 1e-6:
        raise BackgroundCalibrationError(
            f"forward check failed: ratio({solved:.6e}) = {forward:.8f} != {beta}"
        )
    return calibrated


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
            f"filter width {filter_width:.3e} is below 1e-4 gamma; make sure the "
            "tau grid resolves the filter response",
            stacklevel=2,
        )
    if taus is None:
        taus = default_tau_grid(emitter, (filter_width,))
    taus = _check_taus(taus)

    pipeline = calibrate_background(SensorPipeline(emitter, filter_width, filter_center), beta)
    values = pipeline.g2_values(taus)
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
            "background_b": pipeline.background_b,
            "propagator_method": None if propagator is None else propagator.method,
            "propagator_condition": None if propagator is None else propagator.condition,
            "irf_applied": False,
        },
    )


def _g2_zero_convolved(pipelines, irf):
    """IRF-smeared g2(0) of pipelines displaced from one b = 0 solve: one sum
    of the detector kernel centred on tau = 0 over the even extension of each
    g2, sampled at the delay spacing that a full trace at this point would
    use.  The kernel grid is built once, for every pipeline."""
    from .instrument import _kernel  # deferred: instrument imports CorrelationTrace

    first = pipelines[0]
    span = max(_default_span(first.emitter, (first.filter_width,)), 8.0 * irf.fwhm)
    n = max(DEFAULT_TAU_POINTS, int(np.ceil(span / (irf.fwhm / 10.0))) + 1)
    dt = span / (n - 1)
    kernel = _kernel(irf.fwhm, dt)
    half = kernel.size // 2
    head = np.arange(half + 1) * dt
    return [float(kernel @ np.concatenate([g2[:0:-1], g2])) for g2 in _g2_grid(pipelines, head)]


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
    IRF-convolved when an IRF is given.  Every value comes from one b = 0
    pipeline: g2_ideal directly, each background bound through its
    calibration from it, and with an IRF both bounds through one smear.
    """
    em, width = _axis_point(emitter, axis, x, filter_width)
    if beta_lo > beta_hi:
        raise ValueError(f"beta bounds out of order: {beta_lo} > {beta_hi}")

    ideal = SensorPipeline(em, width, filter_center)
    bounds = [calibrate_background(ideal, beta) for beta in (beta_lo, beta_hi)]
    if irf is None:
        g2_lo, g2_hi = (pipeline.g2_zero() for pipeline in bounds)
    else:
        g2_lo, g2_hi = _g2_zero_convolved(bounds, irf)
    return {"x": x, "g2_ideal": ideal.g2_zero(), "g2_lo": g2_lo, "g2_hi": g2_hi}
