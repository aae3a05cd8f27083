"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the library's vectorized-superoperator
machinery: the Bloch RK4 oracle builds its generator by pushing basis
matrices through an explicit matrix-product right-hand side and steps it
with a fixed step, so the regression/eigendecomposition path is checked
against a genuinely different computation.
"""

import numpy as np

SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
NUMBER = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def bloch_rhs(rho, gamma, rabi, detuning=0.0):
    """Right-hand side of the driven two-level master equation."""
    H = detuning * NUMBER + 0.5 * rabi * (SIGMA + SIGMA.conj().T)
    decay = SIGMA @ rho @ SIGMA.conj().T - 0.5 * (NUMBER @ rho + rho @ NUMBER)
    return -1j * (H @ rho - rho @ H) + gamma * decay


def rk4_increment(A, h):
    """One classical RK4 step of the linear ODE dv/dt = A v, as a matrix D
    with v(t + h) = v + D v.

    For a linear right-hand side the four stages collapse to the fourth-order
    Taylor polynomial, D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 (in Horner
    form), so the step is built once and applied as a matrix product.  Adding
    D v to v, rather than applying I + D, keeps the rounding relative to the
    change per step.
    """
    eye = np.eye(A.shape[0], dtype=complex)
    hA = h * A
    return hA @ (eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0)


def bloch_rk4(rho0, gamma, rabi, taus, step=2e-4, detuning=0.0):
    """Fixed-step RK4 integration of the Bloch equations.

    Returns the density matrix at each requested tau (taus ascending,
    starting at >= 0): whole steps, then one shorter step onto each tau.
    """
    taus = np.asarray(taus, dtype=float)
    # The Bloch equations on row-major flattened 2x2 matrices, one column per
    # basis matrix pushed through bloch_rhs.
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    A = np.column_stack([bloch_rhs(e, gamma, rabi, detuning).reshape(-1) for e in basis])
    full = rk4_increment(A, step)
    v = np.array(rho0, dtype=complex).reshape(-1)
    out = np.empty((taus.size, 2, 2), dtype=complex)
    t = 0.0
    for i, target in enumerate(taus):
        n = int((target - t) // step)
        for _ in range(n):
            v = v + full @ v
        rest = target - t - n * step
        if rest > 1e-15:
            v = v + rk4_increment(A, rest) @ v
        t = target
        out[i] = v.reshape(2, 2)
    return out


def bloch_steady_excited(gamma, rabi, detuning=0.0):
    """Analytic steady-state excited population of the Bloch equations."""
    return (rabi**2 / 4.0) / (detuning**2 + gamma**2 / 4.0 + rabi**2 / 2.0)


def background_only_population(width, center, eta, b):
    """Steady population of one sensor driven only by the laser background.

    The sensor is a damped two-level system under the drive
    b * eta (theta + theta^dag), i.e. the Bloch equations with decay rate
    width, detuning center and rabi = 2 b eta.
    """
    return bloch_steady_excited(width, 2.0 * b * eta, center)


def bloch_g2(gamma, rabi, taus, step=2e-4):
    """g2(tau) of the bare emitter from conditional re-excitation.

    After a detection the emitter is projected to the ground state; g2 is
    the re-excited population normalized by the steady-state population.
    """
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rhos = bloch_rk4(ground, gamma, rabi, taus, step=step)
    return rhos[:, 1, 1].real / bloch_steady_excited(gamma, rabi)


def unfiltered_g2_closed_form(gamma, rabi, taus):
    """Resonant-drive closed form of the bare-emitter g2."""
    taus = np.asarray(taus, dtype=float)
    arg = rabi**2 - (gamma / 4.0) ** 2
    if arg > 0:
        om = np.sqrt(arg)
        return 1.0 - np.exp(-0.75 * gamma * taus) * (
            np.cos(om * taus) + (0.75 * gamma / om) * np.sin(om * taus)
        )
    om = np.sqrt(-arg)
    return 1.0 - np.exp(-0.75 * gamma * taus) * (
        np.cosh(om * taus) + (0.75 * gamma / om) * np.sinh(om * taus)
    )


def rk4_matrix_ode(L, v0, t, step=1e-4):
    """Fixed-step RK4 for dv/dt = L v, an oracle for the matrix exponential."""
    v = np.array(v0, dtype=complex)
    n = int(np.ceil(t / step))
    D = rk4_increment(np.asarray(L, dtype=complex), t / n)
    for _ in range(n):
        v = v + D @ v
    return v


def random_lindblad(dim, rng, n_jumps=2):
    """Random Liouvillian in the same column-stacking convention, built
    from first principles (explicit matrix products on a basis)."""
    H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = 0.5 * (H + H.conj().T)
    jumps = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(n_jumps)
    ]

    def rhs(rho):
        out = -1j * (H @ rho - rho @ H)
        for J in jumps:
            n = J.conj().T @ J
            out = out + J @ rho @ J.conj().T - 0.5 * (n @ rho + rho @ n)
        return out

    L = np.zeros((dim * dim, dim * dim), dtype=complex)
    for j in range(dim * dim):
        basis = np.zeros((dim, dim), dtype=complex)
        basis[j % dim, j // dim] = 1.0  # column-stacking order
        L[:, j] = rhs(basis).reshape(-1, order="F")
    return L


def dip_fwhm(taus, values):
    """Full width at half maximum of the 1 - g2(tau) dip around tau = 0."""
    depth = 1.0 - values[0]
    half_level = 1.0 - 0.5 * depth
    above = np.where(values >= half_level)[0]
    i = above[0]
    if i == 0:
        return 0.0
    t_half = np.interp(half_level, [values[i - 1], values[i]], [taus[i - 1], taus[i]])
    return 2.0 * t_half
