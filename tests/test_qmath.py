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


@pytest.mark.parametrize("bad", [1j * np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)])
def test_non_finite_entries_rejected(bad):
    # A complex entry is non-finite when either part is.
    a = np.eye(2, dtype=complex)
    a[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        qmath.kron(a, np.eye(2))
    with pytest.raises(ValueError, match="non-finite"):
        qmath.spre(a)
    with pytest.raises(ValueError, match="non-finite"):
        qmath.Propagator(a)


class TestExpmApply:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(5)
        L = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        assert np.allclose(qmath.Propagator(L).apply_grid(v, [0.0])[:, 0], v, atol=1e-14)

    def test_diagonal_generator(self):
        lam = np.array([-1.0, -0.5 + 2j, 0.0, -3j])
        v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        got = qmath.Propagator(np.diag(lam)).apply_grid(v, [0.7])[:, 0]
        assert np.allclose(got, v * np.exp(lam * 0.7), rtol=1e-12)

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(6)
        L = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        expected = rk4_matrix_ode(L, v, 0.3, step=1e-4)
        got = qmath.Propagator(L).apply_grid(v, [0.3])[:, 0]
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-7

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        L = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        prop = qmath.Propagator(L)
        once = prop.apply_grid(v, [0.8])[:, 0]
        twice = prop.apply_grid(prop.apply_grid(v, [0.5])[:, 0], [0.3])[:, 0]
        assert np.linalg.norm(once - twice) / np.linalg.norm(once) < 1e-9

    def test_keeps_eigenvector_condition(self):
        # A normal generator has unitary eigenvectors (condition 1); a
        # non-normal one keeps the condition number that eig ran at.
        assert qmath.Propagator(np.diag([-1.0, -2.0j, 0.0])).condition == pytest.approx(1.0)
        L = np.array([[-1.0, 10.0], [0.0, -2.0]], dtype=complex)
        prop = qmath.Propagator(L)
        assert prop.method == "eig"
        evecs = np.linalg.eig(L)[1]
        assert prop.condition == pytest.approx(np.linalg.cond(evecs, 1), rel=1e-12)
        assert 1.0 < prop.condition <= qmath.COND_LIMIT

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            qmath.Propagator(np.eye(2) * np.nan)
        with pytest.raises(ValueError):
            qmath.Propagator(np.eye(2)).apply_grid(np.array([np.inf, 1.0]), [1.0])


class TestPropagatorFallback:
    def test_defective_generator_uses_expm(self):
        # Jordan block: defective, eigenvector matrix numerically singular.
        L = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        prop = qmath.Propagator(L)
        assert prop.method == "expm"
        assert prop.condition == np.inf
        got = prop.apply_grid(np.array([1.0, 1.0], dtype=complex), [2.0])[:, 0]
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


class TestCorrelate:
    def test_eig_rows_match_expm(self):
        rng = np.random.default_rng(11)
        L = random_lindblad(3, rng)
        prop = qmath.Propagator(L)
        assert prop.method == "eig" and prop.condition < 1e3
        probes, states = rng.normal(size=(2, 3, 9)) + 1j * rng.normal(size=(2, 3, 9))
        taus = np.linspace(0.0, 4.0, 41)
        got = prop.correlate(probes, states, taus)
        assert got.shape == (3, taus.size)
        for row, probe, state in zip(got, probes, states):
            expected = np.array([probe @ scipy.linalg.expm(L * t) @ state for t in taus])
            assert np.max(np.abs(row - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_defective_generator_rows_match_apply_grid(self):
        # The Jordan block of test_defective_generator_uses_expm: exp(Lt) =
        # [[1, t], [0, 1]], so <probe, exp(Lt) state> is p0 s0 + (p0 t + p1) s1.
        prop = qmath.Propagator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert prop.method == "expm"
        probes = np.array([[1.0, 0.0], [2.0, -1.0j]])
        states = np.array([[1.0, 1.0], [0.5j, 3.0]])
        taus = np.array([0.0, 0.5, 1.0, 2.5])
        got = prop.correlate(probes, states, taus)
        for row, probe, state in zip(got, probes, states):
            assert np.array_equal(row, probe @ prop.apply_grid(state, taus))
            (p0, p1), (s0, s1) = probe, state
            assert np.allclose(row, p0 * s0 + (p0 * taus + p1) * s1, atol=1e-12)

    def test_expm_rows_share_one_step_matrix(self, monkeypatch):
        # On a uniform grid from 0 the expm path steps every state with one
        # step matrix, not one per row.
        expm = scipy.linalg.expm
        calls = []
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or expm(a))
        prop = qmath.Propagator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert prop.method == "expm"
        probes = np.array([[1.0, 0.0], [2.0, -1.0j]])
        states = np.array([[1.0, 1.0], [0.5j, 3.0]])
        taus = np.linspace(0.0, 2.5, 11)
        got = prop.correlate(probes, states, taus)
        assert len(calls) == 1
        for row, (p0, p1), (s0, s1) in zip(got, probes, states):
            assert np.allclose(row, p0 * s0 + (p0 * taus + p1) * s1, atol=1e-12)

    def test_expm_walk_forms_one_step_matrix_per_step(self, monkeypatch):
        # A piecewise-uniform grid walks from tau = 0 and forms a new step
        # matrix only where the step changes: three here, for steps 0.1,
        # 0.25 and 0.1 again.  A grid that does not start at 0 but whose
        # first point equals its step takes one.
        expm = scipy.linalg.expm
        calls = []
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or expm(a))
        prop = qmath.Propagator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert prop.method == "expm"
        probes = np.array([[1.0, 0.0], [2.0, -1.0j]])
        states = np.array([[1.0, 1.0], [0.5j, 3.0]])
        taus = np.concatenate(
            [np.linspace(0.0, 1.0, 11), 1.0 + 0.25 * np.arange(1, 5), 2.0 + 0.1 * np.arange(1, 4)]
        )
        got = prop.correlate(probes, states, taus)
        assert len(calls) == 3
        for row, (p0, p1), (s0, s1) in zip(got, probes, states):
            assert np.allclose(row, p0 * s0 + (p0 * taus + p1) * s1, atol=1e-12)
        calls.clear()
        prop.correlate(probes, states, [0.5, 1.0, 1.5, 1.5, 2.0])
        assert len(calls) == 1

    def test_expm_walk_matches_expm_per_delay(self):
        # At the exceptional point rabi = gamma/4 the walk along a random
        # ascending grid stays within 1e-14 of one expm per delay.
        L = build_liouvillian(SystemModel(EmitterParams(gamma=1.0, rabi=0.25)))
        prop = qmath.Propagator(L)
        assert prop.method == "expm"
        rng = np.random.default_rng(13)
        probes, states = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        for _ in range(5):
            taus = np.sort(rng.uniform(0.0, 20.0, 30))
            got = prop.correlate(probes, states, taus)
            for row, probe, state in zip(got, probes, states):
                expected = np.array([probe @ scipy.linalg.expm(L * t) @ state for t in taus])
                assert np.max(np.abs(row - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize("taus", [[-0.1, 0.5, 1.0], [0.0, 1.0, 0.5], [2.0, 1.0]])
    def test_expm_walk_rejects_negative_or_descending_grid(self, taus):
        prop = qmath.Propagator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert prop.method == "expm"
        with pytest.raises(ValueError, match="ascending"):
            prop.correlate(np.eye(2), np.eye(2), taus)

    @pytest.mark.parametrize(
        "probes, states, taus",
        [
            (np.ones((2, 3)), np.ones((1, 3)), [0.0, 1.0]),  # row counts differ
            (np.ones(3), np.ones(3), [0.0, 1.0]),  # not one row per pair
            (np.ones((2, 4)), np.ones((2, 4)), [0.0, 1.0]),  # wrong dimension
            (np.array([[np.nan, 0.0, 0.0]]), np.ones((1, 3)), [0.0, 1.0]),
            (np.ones((1, 3)), np.array([[0.0, np.inf, 0.0]]), [0.0, 1.0]),
            (np.ones((1, 3)), np.ones((1, 3)), [0.0, np.nan]),
        ],
    )
    def test_rejects_bad_shapes_and_non_finite_input(self, probes, states, taus):
        prop = qmath.Propagator(np.diag([-1.0, -2.0, 0.0]))
        with pytest.raises(ValueError):
            prop.correlate(probes, states, taus)


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
