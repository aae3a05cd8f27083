"""Dense complex linear algebra on vectorized density operators.

Column-stacking convention throughout: ``vec`` stacks the columns of a
matrix, so the sandwich map rho -> A rho B turns into the matrix
``B^T (x) A`` acting on ``vec(rho)``.  Everything here is plain
``numpy.ndarray`` arithmetic; the physical problem never exceeds a
Hilbert dimension of 8, so dense factorizations are essentially free.
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

# Eigenvector condition number above which the propagator abandons the
# eigenbasis and falls back to scaling-and-squaring.  Defective generators
# (rabi = gamma/4; a zero-coupling sensor with width = gamma) reach 1e7-1e12
# through eig, with errors up to 1e-7; below 1e6 errors stay under 1e-12.
COND_LIMIT = 1e6


class SteadyStateError(RuntimeError):
    """Liouvillian has no usable one-dimensional null space."""


def _as_square(a, name="operator"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
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

    The generator is eigendecomposed once, so evaluating a dense tau grid
    afterwards costs one small matrix product.  If the eigenvector matrix
    is ill conditioned (near-defective L, which happens at parameter
    exceptional points), the instance falls back to scaling-and-squaring;
    ``method`` records which path is active and ``condition`` the
    eigenvector condition number that the eig path runs at (inf on the
    expm path).
    """

    def __init__(self, generator):
        self.matrix = _as_square(generator, "generator")
        self.method = "expm"
        self.condition = math.inf
        try:
            evals, evecs = np.linalg.eig(self.matrix)
            cond = np.linalg.cond(evecs)
        except np.linalg.LinAlgError:
            cond = np.inf
        if np.isfinite(cond) and cond <= COND_LIMIT:
            self.method = "eig"
            self.condition = float(cond)
            self._evals = evals
            self._evecs = evecs

    @property
    def dim(self):
        return self.matrix.shape[0]

    def apply(self, v, t):
        """Return exp(L t) v for a single time."""
        return self.apply_grid(v, [t])[:, 0]

    def apply_grid(self, v, taus):
        """Return exp(L tau) v for every tau, as a (dim, len(taus)) array."""
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.size != self.dim:
            raise ValueError(f"vector length {v.size} != generator dim {self.dim}")
        if not np.all(np.isfinite(v)):
            raise ValueError("input vector contains non-finite entries")
        taus = np.asarray(taus, dtype=float).reshape(-1)
        if not np.all(np.isfinite(taus)):
            raise ValueError("times contain non-finite entries")
        if self.method == "eig":
            w = np.linalg.solve(self._evecs, v)
            phases = np.exp(np.outer(self._evals, taus))
            return self._evecs @ (w[:, None] * phases)
        return self._apply_grid_expm(v, taus)

    def _apply_grid_expm(self, v, taus):
        import scipy.linalg  # deferred: only near-defective generators need it

        out = np.empty((self.dim, taus.size), dtype=complex)
        steps = np.diff(taus)
        uniform = taus.size > 2 and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
        if uniform:
            cur = scipy.linalg.expm(self.matrix * taus[0]) @ v if taus[0] != 0.0 else v.copy()
            step = scipy.linalg.expm(self.matrix * steps[0])
            out[:, 0] = cur
            for k in range(1, taus.size):
                cur = step @ cur
                out[:, k] = cur
            return out
        for k, t in enumerate(taus):
            out[:, k] = v if t == 0.0 else scipy.linalg.expm(self.matrix * t) @ v
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

    residual = np.linalg.norm(L @ v)
    if residual > NULLSPACE_TOL * norm_L * max(1.0, np.linalg.norm(v)):
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds "
            f"{NULLSPACE_TOL:.1e} * ||L|| = {NULLSPACE_TOL * norm_L:.3e}"
        )
    return v
