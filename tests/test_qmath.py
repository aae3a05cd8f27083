import numpy as np
import pytest
import scipy.linalg

from filtered_rf import qmath
from filtered_rf.system import EmitterParams, SystemModel, build_liouvillian

from oracles import random_lindblad, rk4_matrix_ode


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 5, 8):
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.array_equal(qmath.unvec(qmath.vec(rho)), rho)


def test_vec_is_column_stacking():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(qmath.vec(m), [1, 3, 2, 4])


def test_sandwich_convention():
    rng = np.random.default_rng(2)
    a, b, rho = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    direct = qmath.vec(a @ rho @ b)
    assert np.allclose(qmath.sandwich(a, b) @ qmath.vec(rho), direct, atol=1e-12)
    assert np.allclose(qmath.spre(a) @ qmath.vec(rho), qmath.vec(a @ rho), atol=1e-12)
    assert np.allclose(qmath.spost(b) @ qmath.vec(rho), qmath.vec(rho @ b), atol=1e-12)


class TestKron:
    def test_identity(self):
        assert np.array_equal(qmath.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_with_identity(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        lifted = qmath.kron(sx, np.eye(2))
        assert np.all(np.diag(lifted) == 0)
        assert np.allclose(sorted(np.linalg.eigvalsh(lifted)), [-1, -1, 1, 1])

    def test_matches_quadruple_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        expected = np.empty((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
        assert np.allclose(qmath.kron(a, b), expected, atol=1e-15)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(4)
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        left = qmath.kron(a, b) @ qmath.kron(c, d)
        right = qmath.kron(a @ c, b @ d)
        assert np.allclose(left, right, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            qmath.kron(np.ones((2, 3)), np.eye(2))


class TestExpmApply:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(5)
        L = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        assert np.allclose(qmath.Propagator(L).apply(v, 0.0), v, atol=1e-14)

    def test_diagonal_generator(self):
        lam = np.array([-1.0, -0.5 + 2j, 0.0, -3j])
        v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        got = qmath.Propagator(np.diag(lam)).apply(v, 0.7)
        assert np.allclose(got, v * np.exp(lam * 0.7), rtol=1e-12)

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(6)
        L = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        expected = rk4_matrix_ode(L, v, 0.3, step=1e-4)
        got = qmath.Propagator(L).apply(v, 0.3)
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-7

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        L = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        prop = qmath.Propagator(L)
        once = prop.apply(v, 0.8)
        twice = prop.apply(prop.apply(v, 0.5), 0.3)
        assert np.linalg.norm(once - twice) / np.linalg.norm(once) < 1e-9

    def test_keeps_eigenvector_condition(self):
        # A normal generator has unitary eigenvectors (condition 1); a
        # non-normal one keeps the condition number that eig ran at.
        assert qmath.Propagator(np.diag([-1.0, -2.0j, 0.0])).condition == pytest.approx(1.0)
        L = np.array([[-1.0, 10.0], [0.0, -2.0]], dtype=complex)
        prop = qmath.Propagator(L)
        assert prop.method == "eig"
        evecs = np.linalg.eig(L)[1]
        assert prop.condition == pytest.approx(np.linalg.cond(evecs), rel=1e-12)
        assert 1.0 < prop.condition <= qmath.COND_LIMIT

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            qmath.Propagator(np.eye(2) * np.nan)
        with pytest.raises(ValueError):
            qmath.Propagator(np.eye(2)).apply(np.array([np.inf, 1.0]), 1.0)


class TestPropagatorFallback:
    def test_defective_generator_uses_expm(self):
        # Jordan block: defective, eigenvector matrix numerically singular.
        L = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        prop = qmath.Propagator(L)
        assert prop.method == "expm"
        assert prop.condition == np.inf
        got = prop.apply(np.array([1.0, 1.0], dtype=complex), 2.0)
        assert np.allclose(got, [3.0, 1.0], atol=1e-12)  # exp(Lt) = [[1, t], [0, 1]]

    def test_exceptional_point_liouvillian(self):
        # rabi = gamma/4 is the exceptional point of the driven-emitter
        # Liouvillian; roundoff splits the defective pair, leaving an
        # eigenvector condition number near 1e8, above the fallback
        # threshold, so the propagator takes the expm path.  The grid result
        # must match brute-force expm.
        model = SystemModel(EmitterParams(gamma=1.0, rabi=0.25))
        L = build_liouvillian(model)
        prop = qmath.Propagator(L)
        assert prop.method == "expm"
        v = qmath.vec(np.diag([1.0, 0.0]).astype(complex))
        taus = np.linspace(0.0, 5.0, 7)
        got = prop.apply_grid(v, taus)
        for k, t in enumerate(taus):
            assert np.allclose(got[:, k], scipy.linalg.expm(L * t) @ v, atol=1e-6)

    def test_expm_fallback_nonuniform_grid(self):
        L = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        prop = qmath.Propagator(L)
        taus = np.array([0.0, 0.1, 0.5, 2.0])
        got = prop.apply_grid(np.array([0.0, 1.0], dtype=complex), taus)
        assert np.allclose(got[0], taus, atol=1e-12)


class TestSteadyVector:
    def test_pure_decay_ground_state(self):
        model = SystemModel(EmitterParams(gamma=1.0, rabi=0.0))
        v = qmath.steady_vector(build_liouvillian(model))
        assert np.allclose(qmath.unvec(v), np.diag([1.0, 0.0]), atol=1e-12)

    def test_driven_emitter_population(self):
        # Bloch steady state: rho_ee = rabi^2 / (gamma^2 + 2 rabi^2)
        model = SystemModel(EmitterParams(gamma=1.0, rabi=0.5))
        rho = qmath.unvec(qmath.steady_vector(build_liouvillian(model)))
        assert abs(rho[1, 1].real - 1.0 / 6.0) < 1e-12

    def test_random_lindblad_residual(self):
        rng = np.random.default_rng(8)
        L = random_lindblad(4, rng)
        v = qmath.steady_vector(L)
        assert np.linalg.norm(L @ v) < 1e-10 * np.linalg.norm(L, 2)

    def test_steady_state_physicality(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            L = random_lindblad(3, np.random.default_rng(seed))
            rho = qmath.unvec(qmath.steady_vector(L))
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.linalg.norm(rho - rho.conj().T) < 1e-12
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-10

    def test_degenerate_null_space_reports_dimension(self):
        # Pure dephasing preserves every diagonal state: two-dimensional
        # fixed space.
        sz = np.diag([1.0, -1.0]).astype(complex)
        n = sz.conj().T @ sz
        L = qmath.sandwich(sz, sz.conj().T) - 0.5 * (qmath.spre(n) + qmath.spost(n))
        with pytest.raises(qmath.SteadyStateError, match="dimension 2"):
            qmath.steady_vector(L)

    def test_no_null_space_errors(self):
        L = np.diag([-1.0, -2.0, -3.0, -4.0]).astype(complex)
        with pytest.raises(qmath.SteadyStateError, match="no null vector"):
            qmath.steady_vector(L)

    def test_singular_row_replaced_solve_raises(self):
        # Without the degeneracy check, a generator with no unique fixed point
        # must fail in the solve, not come back as some unit-trace vector.
        with pytest.raises(qmath.SteadyStateError, match="singular"):
            qmath.steady_vector(np.zeros((4, 4)), check_degeneracy=False)
