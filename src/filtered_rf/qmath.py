"""Dense complex linear algebra on vectorized density operators.

Column-stacking convention throughout: ``vec`` stacks the columns of a
matrix, so the sandwich map rho -> A rho B turns into the matrix
``B^T (x) A`` acting on ``vec(rho)``.  Everything here is plain
``numpy.ndarray`` arithmetic; the physical problem never exceeds a
Hilbert dimension of 8, so dense factorizations are essentially free.
Every evaluation of exp(L tau) is one read-out, probe . exp(L tau) . state,
by :meth:`Propagator.correlate`: a pole sum through the eigenbasis, or one
scaling-and-squaring walk along the tau grid when the eigenbasis is ill
conditioned.  The propagator decides; callers never branch on it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SteadyStateError",
    "vec",
    "unvec",
    "kron",
    "spre",
    "spost",
    "sandwich",
    "Propagator",
    "steady_vector",
]

# Relative singular-value threshold below which a direction counts as part
# of the null space, and relative residual accepted for the steady state.
NULLSPACE_TOL = 1e-10

# Eigenvector condition number, in the 1-norm, above which the propagator
# abandons the eigenbasis and falls back to scaling-and-squaring.  Defective
# generators (rabi = gamma/4; a zero-coupling sensor with width = gamma)
# reach 1e7-1e12 through eig, with errors up to 1e-7.  Up to 1e4 the trace
# residuals measured stay under 1e-12, and that is as far as the eigenbasis
# is trusted: within about 3e-8 gamma of rabi = gamma/4 a detuned filter's
# trace generator reads 4e4-1e6, where its g2 carried an imaginary part
# above 1e-9.  Ordinary points read below 4e3.
COND_LIMIT = 1e4


class SteadyStateError(RuntimeError):
    """Liouvillian has no usable one-dimensional null space."""


def _as_square(a, name="operator"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def vec(rho):
    """Column-stack a square matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v):
    """Undo :func:`vec`: reshape a length d^2 vector into a d x d matrix."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape(d, d, order="F")


def _kron(a, b):
    # The products np.kron forms, without its n-dimensional bookkeeping,
    # which costs more than the arithmetic at these sizes.
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def kron(a, b):
    """Tensor (Kronecker) product of two operators."""
    a = _as_square(a, "left operand")
    b = _as_square(b, "right operand")
    return _kron(a, b)


def spre(a):
    """Superoperator for left multiplication: rho -> a rho."""
    a = _as_square(a)
    return _kron(np.eye(a.shape[0]), a)


def spost(b):
    """Superoperator for right multiplication: rho -> rho b."""
    b = _as_square(b)
    return _kron(b.T, np.eye(b.shape[0]))


def sandwich(a, b):
    """Superoperator for rho -> a rho b."""
    a = _as_square(a)
    b = _as_square(b)
    return _kron(b.T, a)


class Propagator:
    """Action of exp(L t) for a fixed generator L.

    :meth:`correlate` is the one read-out of exp(L tau): probe . exp(L tau)
    . state on a tau grid, one row per pair.  The generator is
    eigendecomposed once, L = V diag(lambda) V^-1, so a row is a sum of
    poles.  A caller that knows the generator's structure may hand in the
    decomposition, ``eigen = (lambda, V)``; otherwise ``numpy.linalg.eig``
    computes it.  V^-1 is formed explicitly, once: it measures the
    condition number ||V||_1 ||V^-1||_1 and replaces a solve on every
    read-out.  If that condition exceeds COND_LIMIT (near-defective L,
    which happens at parameter exceptional points) or V is not finite, the
    instance falls back to scaling-and-squaring along the grid.  ``method``
    records which path is active and ``condition`` the condition number
    that the eig path runs at (inf on the expm path); ``eigenvalues``,
    ``eigenvectors`` and ``inverse`` hold lambda, V and V^-1 on the eig
    path, None on the expm path.  :meth:`apply_grid` is the propagated
    state itself, read out against the unit probes.
    """

    def __init__(self, generator, eigen=None):
        self.matrix = _as_square(generator, "generator")
        self.method = "expm"
        self.condition = math.inf
        self.eigenvalues = self.eigenvectors = self.inverse = None
        cond = np.inf
        try:
            evals, evecs = np.linalg.eig(self.matrix) if eigen is None else eigen
            if np.isfinite(evecs).all():
                inverse = np.linalg.inv(evecs)
                cond = np.linalg.norm(evecs, 1) * np.linalg.norm(inverse, 1)
        except np.linalg.LinAlgError:
            pass
        if np.isfinite(cond) and cond <= COND_LIMIT:
            self.method = "eig"
            self.condition = float(cond)
            self.eigenvalues = evals
            self.eigenvectors = evecs
            self.inverse = inverse

    def apply_grid(self, v, taus):
        """Return exp(L tau) v for every tau, as a (dim, len(taus)) array:
        the :meth:`correlate` rows of the unit probes against v."""
        probes = np.eye(len(self.matrix))
        return self.correlate(probes, np.tile(np.ravel(v), (len(probes), 1)), taus)

    def correlate(self, probes, states, taus):
        """probes[i] . exp(L tau) states[i] for every tau, one row per pair.

        On the eig path row i is the pole sum sum_mu c_mu exp(lambda_mu tau),
        c = (probes V)[i] (states V^-T)[i]; the poles are added one after
        another, elementwise, so the result does not depend on how a BLAS
        library would split a product.  The expm path propagates the states
        as one block along the grid, see :meth:`_expm_grid`.
        """
        dim = len(self.matrix)
        probes = np.asarray(probes, dtype=complex)
        states = np.asarray(states, dtype=complex)
        if probes.ndim != 2 or probes.shape != states.shape or probes.shape[1] != dim:
            raise ValueError(
                f"probes {probes.shape} and states {states.shape} must both be (n, {dim})"
            )
        taus = np.asarray(taus, dtype=float).reshape(-1)
        for name, a in (("probes", probes), ("states", states), ("times", taus)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} contain non-finite entries")
        if self.method != "eig":
            evolved = self._expm_grid(states.T, taus).transpose(1, 0, 2)
            return np.array([p @ block for p, block in zip(probes, evolved)])
        weights = (probes @ self.eigenvectors) * (states @ self.inverse.T)
        phases = np.exp(np.multiply.outer(self.eigenvalues, taus))
        return (weights[..., None] * phases).sum(axis=-2)

    def _expm_grid(self, states, taus):
        """exp(L tau) states for a (dim, n) block, tau axis appended: one walk
        from tau = 0 by scaling-and-squaring.  A step matrix is formed only
        when the step changes by more than 1e-9 relative, so a uniform grid
        from 0 takes one.  The walk cannot step backwards without amplifying
        rounding."""
        import scipy.linalg  # deferred: only near-defective generators need it

        steps = np.diff(taus, prepend=0.0)
        if (steps < 0.0).any():
            raise ValueError("the expm path needs a nonnegative, ascending tau grid")
        out = np.empty(states.shape + (taus.size,), dtype=complex)
        cur, h = states, 0.0
        for k, d in enumerate(steps):
            if d != 0.0:
                if abs(d - h) > 1e-9 * h:
                    step, h = scipy.linalg.expm(self.matrix * d), d
                cur = step @ cur
            out[..., k] = cur
        return out


def steady_vector(liouvillian, check_degeneracy=True):
    """Unit-trace null vector of a Liouvillian.

    Solves L v = 0 by replacing one row of L with the trace functional and
    solving the resulting inhomogeneous system, which is robust against the
    zero eigenvalue.  Raises :class:`SteadyStateError` when the null space
    is empty or has dimension > 1 (reported in the message).

    check_degeneracy=False skips the singular-value nullity classification
    and keeps only the residual check.  Intended for callers that know the
    fixed point is unique on structural grounds but hand in similarity-
    rescaled generators whose extreme non-normality drives singular values
    below the classification threshold.
    """
    L = _as_square(liouvillian, "liouvillian")
    d2 = L.shape[0]
    d = math.isqrt(d2)
    if d * d != d2:
        raise ValueError(f"liouvillian dimension {d2} is not a perfect square")

    if check_degeneracy:
        sing = np.linalg.svd(L, compute_uv=False)
        smax = sing[0]
        nullity = d2 if smax == 0.0 else int(np.sum(sing <= NULLSPACE_TOL * smax))
        if nullity == 0:
            raise SteadyStateError(
                f"no null vector found: smallest relative singular value "
                f"{sing[-1] / smax:.3e} exceeds tolerance {NULLSPACE_TOL:.1e}"
            )
        if nullity > 1:
            raise SteadyStateError(f"degenerate null space (dimension {nullity})")
        norm_L = smax
    else:
        norm_L = np.linalg.norm(L, "fro")

    trace_row = np.zeros(d2, dtype=complex)
    trace_row[:: d + 1] = 1.0  # diagonal entries of the column-stacked matrix
    A = L.copy()
    A[0, :] = trace_row
    rhs = np.zeros(d2, dtype=complex)
    rhs[0] = 1.0
    try:
        v = np.linalg.solve(A, rhs)
        # One step of iterative refinement.  With rates that span orders of
        # magnitude the plain solve of the 64-dim two-sensor reference is off
        # by ~1e-12 (its coincidence at rabi 0.0625, width 0.0117: 3.9e-12
        # relative); the corrected one by ~1e-15.
        v -= np.linalg.solve(A, A @ v - rhs)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(
            f"row-replaced steady-state solve is singular ({exc}); the Liouvillian "
            "has no unique fixed point"
        ) from None
    if not np.all(np.isfinite(v)):
        raise SteadyStateError("row-replaced steady-state solve returned non-finite entries")

    trace = np.sum(v[:: d + 1])
    if abs(trace) < 1e-300:
        raise SteadyStateError("null vector has zero trace; cannot normalize")
    v = v / trace

    _check_residual(L, v, norm_L)
    return v


def _check_residual(liouvillian, v, norm_L):
    """Raise :class:`SteadyStateError` if the steady vector v leaves a
    residual ||L v|| above NULLSPACE_TOL * ||L|| * max(1, ||v||)."""
    residual = np.linalg.norm(liouvillian @ v)
    if residual > NULLSPACE_TOL * norm_L * max(1.0, np.linalg.norm(v)):
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds "
            f"{NULLSPACE_TOL:.1e} * ||L|| = {NULLSPACE_TOL * norm_L:.3e}"
        )
