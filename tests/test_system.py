import numpy as np
import pytest

from filtered_rf import qmath
from filtered_rf.system import (
    EmitterParams,
    SensorConfig,
    SystemModel,
    build_hamiltonian,
    build_liouvillian,
    dissipator,
)

from oracles import bloch_rk4


def two_sensor_model(gamma=1.0, rabi=0.5, nu=0.0, width=1.0, eta=1e-3, background=0.0):
    sensor = SensorConfig(nu=nu, width=width, eta=eta, background=background)
    return SystemModel(EmitterParams(gamma=gamma, rabi=rabi), (sensor, sensor))


class TestParams:
    def test_rejects_bad_emitter(self):
        with pytest.raises(ValueError):
            EmitterParams(gamma=0.0)
        with pytest.raises(ValueError):
            EmitterParams(gamma=1.0, rabi=-1.0)
        with pytest.raises(ValueError):
            EmitterParams(gamma=np.inf)

    def test_rejects_bad_sensor(self):
        with pytest.raises(ValueError):
            SensorConfig(nu=0.0, width=0.0, eta=1e-3)
        with pytest.raises(ValueError):
            SensorConfig(nu=0.0, width=1.0, eta=0.0)
        with pytest.raises(ValueError):
            SensorConfig(nu=0.0, width=1.0, eta=1e-3, background=-0.1)

    def test_at_most_two_sensors(self):
        s = SensorConfig(nu=0.0, width=1.0, eta=1e-3)
        with pytest.raises(ValueError):
            SystemModel(EmitterParams(gamma=1.0), (s, s, s))

    def test_composite_dimension(self):
        em = EmitterParams(gamma=1.0)
        s = SensorConfig(nu=0.0, width=1.0, eta=1e-3)
        assert SystemModel(em).dim == 2
        assert SystemModel(em, (s,)).dim == 4
        assert SystemModel(em, (s, s)).dim == 8


class TestLiftedOperators:
    def test_sensor_lowering_ops_commute_and_are_nilpotent(self):
        m = two_sensor_model()
        t1, t2 = m.sensor_lower
        assert np.allclose(t1 @ t2 - t2 @ t1, 0.0)
        assert np.allclose(t1 @ t1, 0.0)
        assert np.allclose(t2 @ t2, 0.0)

    def test_sensor_excitation_counts(self):
        m = two_sensor_model()
        # kron order: emitter, sensor1, sensor2 -> bit pattern e s1 s2
        assert list(m.sensor_excitations()) == [0, 1, 1, 2, 0, 1, 1, 2]


class TestHamiltonian:
    def test_everything_off_is_zero(self):
        m = SystemModel(EmitterParams(gamma=1.0, rabi=0.0, detuning=0.0))
        assert np.allclose(build_hamiltonian(m), 0.0)

    def test_resonant_drive_matrix(self):
        m = SystemModel(EmitterParams(gamma=1.0, rabi=1.0))
        assert np.allclose(build_hamiltonian(m), [[0.0, 0.5], [0.5, 0.0]])

    def test_decoupled_sensor_spectrum(self):
        # eta -> 0 limit behaves like b = 0, eta tiny: eigenvalues must be
        # sums of emitter eigenvalues and sensor detunings.
        em = EmitterParams(gamma=1.0, rabi=0.8, detuning=0.3)
        sensors = (
            SensorConfig(nu=0.7, width=1.0, eta=1e-12),
            SensorConfig(nu=-0.2, width=1.0, eta=1e-12),
        )
        H = build_hamiltonian(SystemModel(em, sensors))
        em_evals = np.linalg.eigvalsh(build_hamiltonian(SystemModel(em)))
        expected = sorted(
            e + n1 + n2 for e in em_evals for n1 in (0.0, 0.7) for n2 in (0.0, -0.2)
        )
        assert np.allclose(sorted(np.linalg.eigvalsh(H)), expected, atol=1e-9)

    @pytest.mark.parametrize("background", [0.0, 0.4])
    def test_hermitian(self, background):
        rng = np.random.default_rng(10)
        for _ in range(5):
            gamma, rabi, nu, width = rng.uniform(0.1, 3.0, size=4)
            m = two_sensor_model(gamma, rabi, nu - 1.0, width, 1e-3, background)
            H = build_hamiltonian(m)
            assert np.allclose(H, H.conj().T, atol=1e-14)


class TestDissipator:
    def test_trace_annihilation(self):
        rng = np.random.default_rng(11)
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        D = dissipator(op, 0.7)
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = rho + rho.conj().T
        out = qmath.unvec(D @ qmath.vec(rho))
        assert abs(np.trace(out)) < 1e-12

    def test_exponential_decay_oracle(self):
        # d rho_ee / dt = -gamma rho_ee starting from |e><e|
        m = SystemModel(EmitterParams(gamma=0.8, rabi=0.0))
        L = build_liouvillian(m)
        excited = np.diag([0.0, 1.0]).astype(complex)
        prop = qmath.Propagator(L)
        for t in (0.3, 1.0, 2.5):
            rho_t = qmath.unvec(prop.apply_grid(qmath.vec(excited), [t])[:, 0])
            assert abs(rho_t[1, 1].real - np.exp(-0.8 * t)) < 1e-12

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(12)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        D = dissipator(op, 1.3)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = rho + rho.conj().T
        out = qmath.unvec(D @ qmath.vec(rho))
        assert np.allclose(out, out.conj().T, atol=1e-12)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            dissipator(np.eye(2), 0.0)


class TestLiouvillian:
    def test_pure_decay_spectrum(self):
        # gamma D_sigma has eigenvalues {0, -gamma, -gamma/2 (x2)}
        L = build_liouvillian(SystemModel(EmitterParams(gamma=1.0, rabi=0.0)))
        evals = sorted(np.linalg.eigvals(L).real)
        assert np.allclose(evals, [-1.0, -0.5, -0.5, 0.0], atol=1e-12)

    def test_annihilates_steady_state(self):
        m = two_sensor_model(rabi=0.7, width=2.0)
        L = build_liouvillian(m)
        v = qmath.steady_vector(L)
        assert np.linalg.norm(L @ v) < 1e-10 * np.linalg.norm(L, 2)

    def test_spectrum_in_left_half_plane(self):
        m = two_sensor_model(rabi=2.0, width=0.3)
        L = build_liouvillian(m)
        assert np.linalg.eigvals(L).real.max() < 1e-10

    def test_trace_row_functional_vanishes(self):
        m = two_sensor_model()
        L = build_liouvillian(m)
        d = m.dim
        trace_row = np.zeros(d * d)
        trace_row[:: d + 1] = 1.0
        assert np.abs(trace_row @ L).max() < 1e-12

    def test_sensors_decouple_at_zero_coupling(self):
        # eta must be > 0 by contract; a tiny eta reproduces the bare
        # emitter's reduced steady state to the stated tolerance.
        em = EmitterParams(gamma=1.0, rabi=0.9)
        bare = qmath.unvec(qmath.steady_vector(build_liouvillian(SystemModel(em))))
        sensor = SensorConfig(nu=0.0, width=2.0, eta=1e-8)
        m = SystemModel(em, (sensor, sensor))
        rho = qmath.unvec(qmath.steady_vector(build_liouvillian(m)))
        reduced = np.trace(rho.reshape(2, 4, 2, 4), axis1=1, axis2=3)
        assert np.allclose(reduced, bare, atol=1e-12)

    def test_matches_rk4_oracle_on_emitter(self):
        em = EmitterParams(gamma=1.0, rabi=1.7)
        L = build_liouvillian(SystemModel(em))
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        taus = np.array([0.0, 0.4, 1.1, 3.0])
        expected = bloch_rk4(rho0, 1.0, 1.7, taus)
        prop = qmath.Propagator(L)
        evolved = prop.apply_grid(qmath.vec(rho0), taus)
        for k in range(taus.size):
            assert np.allclose(qmath.unvec(evolved[:, k]), expected[k], atol=1e-9)

    def test_energy_time_scaling_invariance(self):
        scale = 2.9
        m1 = two_sensor_model(gamma=1.0, rabi=1.2, width=0.5, eta=1e-3)
        m2 = two_sensor_model(gamma=scale, rabi=1.2 * scale, width=0.5 * scale, eta=1e-3 * scale)
        L1, L2 = build_liouvillian(m1), build_liouvillian(m2)
        v0 = qmath.vec(np.diag([1.0, 0, 0, 0, 0, 0, 0, 0]).astype(complex))
        t = 0.8
        a = qmath.Propagator(L1).apply_grid(v0, [t])[:, 0]
        b = qmath.Propagator(L2).apply_grid(v0, [t / scale])[:, 0]
        assert np.allclose(a, b, atol=1e-10)
