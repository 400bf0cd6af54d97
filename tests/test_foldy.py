import math

import numpy as np
import pytest

from conftest import solved_sphere_system, sphere_cluster, sphere_tensors
from foldylax import foldy, geometry, layerops
from foldylax.foldy import (
    CapExceeded,
    ContractionWarning,
    NoConvergence,
    PlaneWave,
    assemble,
    incident_values,
    invertibility_constants,
    solution_norm_bound,
    solve_direct,
    solve_neumann,
)
from foldylax.greens import dyadic_pi, grad_phi

C_LS_AT_ZERO = 48.38310269993618207374  # 152/pi


class TestPlaneWave:
    def test_valid(self):
        wave = PlaneWave(k=1.0 + 0.5j, theta=(0, 0, 1), p=(2.0, 0, 0))
        assert wave.k == 1.0 + 0.5j

    def test_non_unit_direction(self):
        with pytest.raises(ValueError):
            PlaneWave(k=1.0, theta=(0, 0, 2), p=(1, 0, 0))

    def test_non_orthogonal_polarization(self):
        with pytest.raises(ValueError):
            PlaneWave(k=1.0, theta=(0, 0, 1), p=(0, 0.1, 1))

    def test_negative_imag_k(self):
        with pytest.raises(ValueError):
            PlaneWave(k=1.0 - 1j, theta=(0, 0, 1), p=(1, 0, 0))


class TestIncidentValues:
    def test_origin(self, default_wave):
        e, curl = incident_values(default_wave, np.zeros(3))
        assert np.allclose(e, [1, 0, 0])
        assert np.allclose(curl, [0, 1j, 0])

    def test_full_period(self, default_wave):
        e0, c0 = incident_values(default_wave, np.zeros(3))
        e1, c1 = incident_values(default_wave, np.array([0, 0, 2 * math.pi]))
        assert np.allclose(e0, e1, rtol=1e-13)
        assert np.allclose(c0, c1, rtol=1e-13)

    def test_curl_against_finite_differences(self, rng):
        wave = PlaneWave(k=1.3, theta=(0, 0.6, 0.8), p=(1, 0, 0))
        h = 1e-6
        for _ in range(5):
            z = rng.uniform(-1, 1, size=3)
            _, curl = incident_values(wave, z)
            fd = np.zeros(3, dtype=complex)
            for c in range(3):
                ea = np.zeros(3)
                ea[(c + 1) % 3] = h
                eb = np.zeros(3)
                eb[(c + 2) % 3] = h
                # (curl E)_c = d E_{c+2} / d x_{c+1} - d E_{c+1} / d x_{c+2}
                fd[c] = (
                    (incident_values(wave, z + ea)[0][(c + 2) % 3]
                     - incident_values(wave, z - ea)[0][(c + 2) % 3])
                    - (incident_values(wave, z + eb)[0][(c + 1) % 3]
                       - incident_values(wave, z - eb)[0][(c + 1) % 3])
                ) / (2 * h)
            assert np.linalg.norm(fd - curl) / np.linalg.norm(curl) <= 1e-6


class TestAssemble:
    def test_single_body_identity(self, default_wave):
        cluster = sphere_cluster([(0, 0, 0)], 0.1)
        blocks, rhs = assemble(cluster, sphere_tensors(1, 0.1), default_wave)
        assert np.allclose(blocks.materialize(), np.eye(6), atol=1e-15)

    def test_two_body_hand_assembly(self, default_wave):
        # independent block-by-block construction from kernels and tensors
        radius = 0.07
        centers = np.array([[0.0, 0, 0], [0.9, 0.2, -0.1]])
        cluster = sphere_cluster(centers, radius)
        tensors = sphere_tensors(2, radius)
        blocks, rhs = assemble(cluster, tensors, default_wave)
        produced = blocks.materialize()

        k = default_wave.k
        expected = np.eye(12, dtype=complex)

        def cross_mat(g):
            return np.array([[0, -g[2], g[1]], [g[2], 0, -g[0]], [-g[1], g[0], 0]])

        for i in range(2):
            j = 1 - i
            pi_ij = dyadic_pi(k, centers[i], centers[j])
            gx = cross_mat(grad_phi(k, centers[i], centers[j]))
            p_i, t_i = tensors[i].p_tensor, tensors[i].t_tensor
            expected[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = p_i @ pi_ij
            expected[3 * i : 3 * i + 3, 6 + 3 * j : 9 + 3 * j] = -(k**2) * (p_i @ gx)
            expected[6 + 3 * i : 9 + 3 * i, 3 * j : 3 * j + 3] = t_i @ gx
            expected[6 + 3 * i : 9 + 3 * i, 6 + 3 * j : 9 + 3 * j] = -(t_i @ pi_ij)
        assert np.linalg.norm(produced - expected) <= 1e-14 * np.linalg.norm(expected)

        e_in, curl_in = incident_values(default_wave, centers)
        expected_rhs = np.concatenate(
            [
                np.concatenate([-tensors[i].p_tensor @ curl_in[i] for i in range(2)]),
                np.concatenate([-tensors[i].t_tensor @ e_in[i] for i in range(2)]),
            ]
        )
        assert np.allclose(rhs, expected_rhs, rtol=1e-14)

    def test_swap_bodies_permutes_blocks(self, default_wave):
        centers = np.array([[0.0, 0, 0], [1.0, 0.3, 0]])
        radius = 0.05
        b12, r12 = assemble(sphere_cluster(centers, radius), sphere_tensors(2, radius), default_wave)
        b21, r21 = assemble(sphere_cluster(centers[::-1], radius), sphere_tensors(2, radius), default_wave)
        m12, m21 = b12.materialize(), b21.materialize()
        perm = np.zeros((12, 12))
        swap = np.zeros((6, 6))
        swap[:3, 3:] = np.eye(3)
        swap[3:, :3] = np.eye(3)
        perm[:6, :6] = swap
        perm[6:, 6:] = swap
        assert np.allclose(perm @ m12 @ perm.T, m21, rtol=1e-14, atol=1e-18)
        assert np.allclose(perm @ r12, r21, rtol=1e-14)


class TestDirectSolve:
    def test_single_sphere_closed_form(self, default_wave):
        _, _, _, _, sol = solved_sphere_system([(0, 0, 0)], 0.1, default_wave)
        expected_a = 4e-3 * math.pi * 1j * np.array([0, 1, 0])
        expected_b = -2e-3 * math.pi * np.array([1, 0, 0])
        assert np.linalg.norm(sol.a_coeffs[0] - expected_a) <= 1e-12 * np.linalg.norm(expected_a)
        assert np.linalg.norm(sol.b_coeffs[0] - expected_b) <= 1e-12 * np.linalg.norm(expected_b)
        assert sol.residual_norm <= 1e-10

    def test_far_separated_pair_nearly_independent(self, default_wave):
        radius, gap = 0.05, 50.0
        centers = np.array([[0.0, 0, 0], [gap, 0, 0]])
        _, _, _, _, single = solved_sphere_system([(0, 0, 0)], radius, default_wave)
        _, _, _, _, pair = solved_sphere_system(centers, radius, default_wave)
        # coupling magnitude ~ mu+ eps^3 k^2 / (4 pi gap): far below 1e-4 here
        for i in range(2):
            phase = np.exp(1j * default_wave.k * (centers[i] @ default_wave.theta))
            for got, ref in ((pair.a_coeffs[i], single.a_coeffs[0]),
                             (pair.b_coeffs[i], single.b_coeffs[0])):
                dev = np.linalg.norm(got - phase * ref) / np.linalg.norm(ref)
                assert dev <= 1e-4

    def test_mirror_symmetric_pair(self):
        # bodies mirror-symmetric about the plane perpendicular to the
        # propagation axis through the midpoint; the configuration's mirror
        # planes constrain the solution exactly:
        #  - planes containing the axis force a_i along theta x p and b_i
        #    along p,
        #  - swapping bodies and reflecting maps the solution for theta onto
        #    the solution for -theta (field vectors with S, curl-driven
        #    vectors with -S).
        centers = [(0, 0, -0.4), (0, 0, 0.4)]
        wave_fwd = PlaneWave(k=1.2, theta=(0, 0, 1), p=(1, 0, 0))
        wave_rev = PlaneWave(k=1.2, theta=(0, 0, -1), p=(1, 0, 0))
        _, _, _, _, fwd = solved_sphere_system(centers, 0.05, wave_fwd)
        _, _, _, _, rev = solved_sphere_system(centers, 0.05, wave_rev)
        scale = np.abs(fwd.b_coeffs).max()
        assert np.abs(fwd.a_coeffs[:, [0, 2]]).max() <= 1e-12 * scale
        assert np.abs(fwd.b_coeffs[:, [1, 2]]).max() <= 1e-12 * scale
        s = np.diag([1.0, 1.0, -1.0])
        swap = [1, 0]
        assert np.allclose(rev.b_coeffs, fwd.b_coeffs[swap] @ s.T, rtol=1e-12, atol=1e-15 * scale)
        assert np.allclose(rev.a_coeffs, -fwd.a_coeffs[swap] @ s.T, rtol=1e-12, atol=1e-15 * scale)

    def test_residual_invariant(self, rng, default_wave):
        for m in (2, 4, 7):
            centers = rng.uniform(0, 3, size=(m, 3)) * 2
            while True:
                gaps = [np.linalg.norm(a - b) for i, a in enumerate(centers) for b in centers[i + 1:]]
                if min(gaps) > 0.5:
                    break
                centers = rng.uniform(0, 3, size=(m, 3)) * 2
            _, _, blocks, rhs, sol = solved_sphere_system(centers, 0.1, default_wave)
            assert sol.residual_norm <= 1e-10

    def test_permutation_equivariance(self, rng, default_wave):
        centers = np.array([[0, 0, 0], [1.5, 0, 0], [0, 1.5, 0], [0.7, 0.7, 1.2]], dtype=float)
        order = [2, 0, 3, 1]
        _, _, _, _, base = solved_sphere_system(centers, 0.08, default_wave)
        _, _, _, _, permuted = solved_sphere_system(centers[order], 0.08, default_wave)
        assert np.allclose(permuted.a_coeffs, base.a_coeffs[order], rtol=1e-12, atol=1e-18)
        assert np.allclose(permuted.b_coeffs, base.b_coeffs[order], rtol=1e-12, atol=1e-18)

    def test_linearity_in_polarization(self):
        centers = [(0, 0, 0), (1.1, 0.2, 0.1)]
        k = 0.9
        sols = {}
        for p in ((1, 0, 0), (0, 1, 0), (1, 1, 0)):
            wave = PlaneWave(k=k, theta=(0, 0, 1), p=p)
            _, _, _, _, sols[p] = solved_sphere_system(centers, 0.06, wave)
        total = np.linalg.norm(sols[(1, 1, 0)].a_coeffs) + np.linalg.norm(sols[(1, 1, 0)].b_coeffs)
        dev_a = sols[(1, 0, 0)].a_coeffs + sols[(0, 1, 0)].a_coeffs - sols[(1, 1, 0)].a_coeffs
        dev_b = sols[(1, 0, 0)].b_coeffs + sols[(0, 1, 0)].b_coeffs - sols[(1, 1, 0)].b_coeffs
        assert (np.linalg.norm(dev_a) + np.linalg.norm(dev_b)) <= 1e-11 * total

    def test_matrix_free_matches_materialized(self, rng, default_wave):
        centers = rng.uniform(0, 4, size=(12, 3)) * 1.5
        cluster = sphere_cluster(centers, 0.03)
        blocks, _ = assemble(cluster, sphere_tensors(12, 0.03), default_wave)
        matrix = blocks.materialize()
        for _ in range(5):
            x = rng.normal(size=72) + 1j * rng.normal(size=72)
            direct = matrix @ x
            free = blocks.apply(x)
            assert np.linalg.norm(direct - free) <= 1e-13 * np.linalg.norm(direct)

    def test_cap(self, default_wave):
        cluster = sphere_cluster([(0, 0, 0), (1, 0, 0)], 0.05)
        blocks, rhs = assemble(cluster, sphere_tensors(2, 0.05), default_wave)
        with pytest.raises(CapExceeded):
            solve_direct(blocks, rhs, cap=1)

    def test_chunked_kernel_path_matches_cached(self, rng, default_wave, monkeypatch):
        # over the byte budget the coupling slabs are recomputed on every
        # application; both paths must agree to rounding
        centers = np.array([[i * 0.9, j * 0.9, 0.0] for i in range(5) for j in range(4)])
        cluster = sphere_cluster(centers, 0.05)
        tensors = sphere_tensors(len(centers), 0.05)
        cached, rhs = assemble(cluster, tensors, default_wave)
        assert cached._cached is not None
        monkeypatch.setattr(foldy, "COUPLING_CACHE_BYTES", 288 * len(centers) ** 2 - 1)
        chunked, _ = assemble(cluster, tensors, default_wave)
        assert chunked._cached is None
        assert len(list(chunked._kernel_slabs())) >= 2
        x = rng.normal(size=6 * len(centers)) + 1j * rng.normal(size=6 * len(centers))
        ref = cached.apply(x)
        assert np.linalg.norm(chunked.apply(x) - ref) <= 1e-13 * np.linalg.norm(ref)
        matrix = cached.materialize()
        assert np.linalg.norm(chunked.materialize() - matrix) <= 1e-13 * np.linalg.norm(matrix)
        direct = solve_direct(chunked, rhs)
        iterative = solve_neumann(chunked, rhs, tol=1e-13)
        dev = np.linalg.norm(direct.a_coeffs - iterative.a_coeffs) / np.linalg.norm(
            direct.a_coeffs
        )
        assert dev <= 1e-10

    def test_auto_dispatch(self, default_wave):
        cluster = sphere_cluster([(0, 0, 0), (1.2, 0, 0), (0, 1.2, 0)], 0.04)
        blocks, rhs = assemble(cluster, sphere_tensors(3, 0.04), default_wave)
        assert foldy.solve(blocks, rhs).method == "direct"
        assert foldy.solve(blocks, rhs, cap=2).method == "neumann"
        with pytest.raises(ValueError):
            foldy.solve(blocks, rhs, method="magic")


class TestNeumannSolve:
    def test_single_body_one_iteration(self, default_wave):
        cluster = sphere_cluster([(0, 0, 0)], 0.1)
        blocks, rhs = assemble(cluster, sphere_tensors(1, 0.1), default_wave)
        sol = solve_neumann(blocks, rhs)
        assert sol.iterations == 1
        expected_a = 4e-3 * math.pi * 1j * np.array([0, 1, 0])
        assert np.allclose(sol.a_coeffs[0], expected_a, rtol=1e-13)

    def test_lattice_matches_direct(self):
        wave = PlaneWave(k=0.5, theta=(0, 0, 1), p=(1, 0, 0))
        radius, spacing = 0.025, 1.05
        centers = [(x * spacing, y * spacing, z * spacing)
                   for x in range(2) for y in range(2) for z in range(2)]
        cluster = sphere_cluster(centers, radius)
        assert cluster.epsilon / cluster.delta == pytest.approx(0.05, rel=1e-12)
        blocks, rhs = assemble(cluster, sphere_tensors(8, radius), wave)
        direct = solve_direct(blocks, rhs)
        iterative = solve_neumann(blocks, rhs, tol=1e-13)
        num = np.linalg.norm(direct.a_coeffs - iterative.a_coeffs) + np.linalg.norm(
            direct.b_coeffs - iterative.b_coeffs
        )
        den = np.linalg.norm(direct.a_coeffs) + np.linalg.norm(direct.b_coeffs)
        assert num / den <= 1e-9

    def test_divergence_detected_with_warning(self):
        # kissing unit spheres on a cube: iteration operator has spectral
        # radius > 1, the sufficient bound is violated, and the divergence
        # guard aborts
        wave = PlaneWave(k=1.0, theta=(0, 0, 1), p=(1, 0, 0))
        spacing = 2.05
        centers = [(x * spacing, y * spacing, z * spacing)
                   for x in range(2) for y in range(2) for z in range(2)]
        cluster = sphere_cluster(centers, 1.0)
        blocks, rhs = assemble(cluster, sphere_tensors(8, 1.0), wave)
        with pytest.warns(ContractionWarning):
            with pytest.raises(NoConvergence):
                solve_neumann(blocks, rhs, max_iter=500)


class TestConstants:
    def test_c_ls_at_zero_frequency(self):
        cluster = sphere_cluster([(0, 0, 0)], 0.4, domain_diameter=1.0)
        spectra = layerops.ClusterSpectra(mu_plus=4 * math.pi, mu_minus=2 * math.pi, scale=0.4)
        consts = invertibility_constants(cluster, spectra, 0.0)
        assert consts.c_ls == pytest.approx(152.0 / math.pi, rel=1e-12)
        assert consts.c_ls == pytest.approx(C_LS_AT_ZERO, rel=1e-12)

    def test_c_li_example(self):
        # mu+ eps^3 / delta^3 = 4 pi e-3 with unit domain diameter
        bodies = [geometry.BodyShape.sphere(0.04, (0, 0, 0)),
                  geometry.BodyShape.sphere(0.04, (0, 0, 0.56))]
        cluster = geometry.Cluster.from_bodies(bodies, domain_diameter=1.0)
        assert cluster.delta == pytest.approx(0.48, rel=1e-12)
        spectra = layerops.ClusterSpectra(
            mu_plus=4 * math.pi, mu_minus=2 * math.pi, scale=0.1 * cluster.delta
        )
        consts = invertibility_constants(cluster, spectra, 0.0)
        assert consts.c_li == pytest.approx(0.392, abs=1e-12)
        assert consts.c_li_positive

    def test_vanishing_density_limit(self):
        # eps/delta -> 0 drives both constants to 1
        last_li, last_li2 = 0.0, 0.0
        for gap in (1.0, 10.0, 100.0):
            bodies = [geometry.BodyShape.sphere(0.01, (0, 0, 0)),
                      geometry.BodyShape.sphere(0.01, (0, 0, gap))]
            cluster = geometry.Cluster.from_bodies(bodies)
            spectra = layerops.cluster_spectra(sphere_tensors(2, 0.01), cluster.epsilon)
            consts = invertibility_constants(cluster, spectra, 0.7)
            assert consts.c_li > last_li and consts.c_li2 > last_li2
            last_li, last_li2 = consts.c_li, consts.c_li2
        assert last_li == pytest.approx(1.0, abs=1e-6)
        assert last_li2 == pytest.approx(1.0, abs=1e-6)

    def test_single_body_constants_are_unity(self):
        cluster = sphere_cluster([(0, 0, 0)], 0.1)
        spectra = layerops.cluster_spectra(sphere_tensors(1, 0.1), 0.1)
        consts = invertibility_constants(cluster, spectra, 1.0)
        assert consts.c_li == 1.0
        assert consts.c_li2 == 1.0

    def test_complex_k_flagged_heuristic(self):
        cluster = sphere_cluster([(0, 0, 0)], 0.1)
        spectra = layerops.cluster_spectra(sphere_tensors(1, 0.1), 0.1)
        assert invertibility_constants(cluster, spectra, 1 + 1j).heuristic_k
        assert not invertibility_constants(cluster, spectra, 1.0).heuristic_k


class TestNormBound:
    def test_provable_bound_holds_everywhere(self, rng):
        wave = PlaneWave(k=0.8, theta=(0, 0, 1), p=(1, 0, 0))
        for m in (1, 2, 5):
            centers = rng.uniform(0, 4, size=(m, 3)) * 1.2
            while m > 1:
                gaps = [np.linalg.norm(a - b) for i, a in enumerate(centers) for b in centers[i + 1:]]
                if min(gaps) > 0.6:
                    break
                centers = rng.uniform(0, 4, size=(m, 3)) * 1.2
            cluster, tensors, blocks, rhs, sol = solved_sphere_system(centers, 0.05, wave)
            spectra = layerops.cluster_spectra(tensors, cluster.epsilon)
            consts = invertibility_constants(cluster, spectra, wave.k)
            diag = solution_norm_bound(sol, cluster, spectra, wave, consts)
            assert diag["applicable"]
            assert diag["provable_satisfied"]

    def test_stated_bound_flag_fires_on_closed_form(self, default_wave):
        # the reference comparison is a diagnostic: the single-body closed
        # form exceeds it, and the flag must report that honestly
        cluster, tensors, _, _, sol = solved_sphere_system([(0, 0, 0)], 0.1, default_wave)
        spectra = layerops.cluster_spectra(tensors, 0.1)
        consts = invertibility_constants(cluster, spectra, default_wave.k)
        diag = solution_norm_bound(sol, cluster, spectra, default_wave, consts)
        assert diag["stated_violated"]
        assert diag["provable_satisfied"]
