import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import solved_sphere_system, sphere_cluster, sphere_tensors
from foldylax import foldy, geometry, layerops
from foldylax.fields import (
    CoincidentWithCenter,
    ComplexWavenumberFarField,
    NearFieldProximityWarning,
    budget_terms,
    error_budget,
    far_field,
    near_field,
    varepsilon_kdm,
)
from foldylax.foldy import PlaneWave, invertibility_constants

VAREPS_EXAMPLE = 21.54517744447956  # ln(2)/0.125 + 2/0.25 + 4/0.5


def unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestFarField:
    def test_single_sphere_forward_and_back(self, default_wave):
        cluster, _, _, _, sol = solved_sphere_system([(0, 0, 0)], 0.1, default_wave)
        samples = far_field(sol, cluster, default_wave, [(0, 0, 1), (0, 0, -1)])
        assert np.allclose(samples[0].e_inf, [1.5e-3, 0, 0], rtol=1e-12)
        assert np.allclose(samples[1].e_inf, [-5.0e-4, 0, 0], rtol=1e-12)
        ratio = np.linalg.norm(samples[0].e_inf) / np.linalg.norm(samples[1].e_inf)
        assert ratio == pytest.approx(3.0, rel=1e-12)

    def test_zero_coefficients(self, default_wave, rng):
        cluster, _, _, _, sol = solved_sphere_system([(0, 0, 0)], 0.1, default_wave)
        sol.a_coeffs = np.zeros_like(sol.a_coeffs)
        sol.b_coeffs = np.zeros_like(sol.b_coeffs)
        for s in far_field(sol, cluster, default_wave, unit_vectors(rng, 10)):
            assert np.all(s.e_inf == 0)

    def test_transversality(self, rng, default_wave):
        cluster, _, _, _, sol = solved_sphere_system(
            [(0, 0, 0), (0.9, 0.4, 0.2)], 0.05, default_wave
        )
        for s in far_field(sol, cluster, default_wave, unit_vectors(rng, 100)):
            assert abs(s.tau @ s.e_inf) <= 1e-12 * np.linalg.norm(s.e_inf)

    def test_linearity_in_coefficients(self, rng, default_wave):
        cluster, _, _, _, sol = solved_sphere_system([(0, 0, 0), (1, 0, 0)], 0.05, default_wave)
        taus = unit_vectors(rng, 7)
        base = np.array([s.e_inf for s in far_field(sol, cluster, default_wave, taus)])
        import copy

        doubled = copy.deepcopy(sol)
        doubled.a_coeffs = 2 * doubled.a_coeffs
        doubled.b_coeffs = 2 * doubled.b_coeffs
        twice = np.array([s.e_inf for s in far_field(doubled, cluster, default_wave, taus)])
        assert np.linalg.norm(twice - 2 * base) <= 1e-12 * np.linalg.norm(twice)

    def test_complex_k_rejected(self):
        wave = PlaneWave(k=1 + 1j, theta=(0, 0, 1), p=(1, 0, 0))
        cluster, tensors, blocks, rhs, sol = solved_sphere_system([(0, 0, 0)], 0.1, wave)
        with pytest.raises(ComplexWavenumberFarField):
            far_field(sol, cluster, wave, [(0, 0, 1)])

    def test_non_unit_direction_rejected(self, default_wave):
        cluster, _, _, _, sol = solved_sphere_system([(0, 0, 0)], 0.1, default_wave)
        with pytest.raises(ValueError):
            far_field(sol, cluster, default_wave, [(0, 0, 2)])

    def test_translation_covariance_of_magnitudes(self, rng):
        wave = PlaneWave(k=0.8, theta=(0, 0, 1), p=(1, 0, 0))
        centers = np.array([[0.0, 0, 0], [1.2, 0.1, 0.3]])
        shift = np.array([0.4, -0.7, 2.1])
        cluster_a, _, _, _, sol_a = solved_sphere_system(centers, 0.05, wave)
        cluster_b, _, _, _, sol_b = solved_sphere_system(centers + shift, 0.05, wave)
        taus = unit_vectors(rng, 20)
        amps_a = [np.linalg.norm(s.e_inf) for s in far_field(sol_a, cluster_a, wave, taus)]
        amps_b = [np.linalg.norm(s.e_inf) for s in far_field(sol_b, cluster_b, wave, taus)]
        assert np.allclose(amps_a, amps_b, rtol=1e-10)


class TestNearField:
    def test_matches_far_field_at_large_radius(self, rng, default_wave):
        cluster, _, _, _, sol = solved_sphere_system(
            [(0, 0, 0), (0.8, 0.3, 0.1)], 0.05, default_wave
        )
        k = default_wave.k.real
        taus = unit_vectors(rng, 4)
        reference = [s.e_inf for s in far_field(sol, cluster, default_wave, taus)]
        radius = 1e3 / k
        for tau, ref in zip(taus, reference):
            es = near_field(sol, cluster, default_wave, [radius * tau])[0]
            rescaled = radius * np.exp(-1j * k * radius) * es
            assert np.linalg.norm(rescaled - ref) <= 0.01 * np.linalg.norm(ref)

    def test_remainder_halves_when_radius_doubles(self, rng, default_wave):
        cluster, _, _, _, sol = solved_sphere_system(
            [(0, 0, 0), (0.8, 0.3, 0.1)], 0.05, default_wave
        )
        taus = unit_vectors(rng, 4)
        for tau in taus:
            ref = far_field(sol, cluster, default_wave, [tau])[0].e_inf
            errs = []
            for radius in (1e3, 2e3):
                es = near_field(sol, cluster, default_wave, [radius * tau])[0]
                errs.append(np.linalg.norm(radius * np.exp(-1j * radius) * es - ref))
            assert 0.4 <= errs[1] / errs[0] <= 0.6

    def test_attenuated_decay_along_ray(self):
        wave = PlaneWave(k=2j, theta=(0, 0, 1), p=(1, 0, 0))
        cluster, _, _, _, sol = solved_sphere_system([(0, 0, 0)], 0.05, wave)
        tau = np.array([1.0, 0, 0])
        r1, r2 = 20.0, 30.0
        e1 = near_field(sol, cluster, wave, [r1 * tau])[0]
        e2 = near_field(sol, cluster, wave, [r2 * tau])[0]
        observed = np.linalg.norm(e2) / np.linalg.norm(e1)
        expected = (r1 / r2) * math.exp(-2.0 * (r2 - r1))
        assert observed == pytest.approx(expected, rel=0.1)

    def test_zero_coefficients(self, default_wave):
        cluster, _, _, _, sol = solved_sphere_system([(0, 0, 0)], 0.1, default_wave)
        sol.a_coeffs = np.zeros_like(sol.a_coeffs)
        sol.b_coeffs = np.zeros_like(sol.b_coeffs)
        assert np.all(near_field(sol, cluster, default_wave, [(2, 0, 0)]) == 0)

    def test_proximity_warning(self, default_wave):
        cluster, _, _, _, sol = solved_sphere_system([(0, 0, 0), (2.0, 0, 0)], 0.1, default_wave)
        with pytest.warns(NearFieldProximityWarning):
            near_field(sol, cluster, default_wave, [(1.0, 0.3, 0)])

    def test_single_body_skips_proximity_check(self, default_wave):
        cluster, _, _, _, sol = solved_sphere_system([(0, 0, 0)], 0.1, default_wave)
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error", NearFieldProximityWarning)
            near_field(sol, cluster, default_wave, [(0.5, 0, 0)])

    def test_center_coincidence_rejected(self, default_wave):
        cluster, _, _, _, sol = solved_sphere_system([(0, 0, 0), (2.0, 0, 0)], 0.1, default_wave)
        with pytest.warns(NearFieldProximityWarning):  # point is inside the cluster
            with pytest.raises(CoincidentWithCenter):
                near_field(sol, cluster, default_wave, [(0.0, 0.0, 0.0)])


def zero_solution(m):
    return foldy.FoldySolution(np.zeros((m, 3), complex), np.zeros((m, 3), complex), 0.0, "direct", 0)


def mesh_body(center, size, level=1, axes=(1.0, 0.8, 0.6)):
    mesh = geometry.icosphere(level, size).transformed(np.diag(axes)).translated(center)
    return geometry.BodyShape(center=center, mesh=mesh)


def proximity_messages(cluster, points):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            near_field(zero_solution(cluster.m), cluster, PlaneWave(1.0, (0, 0, 1), (1, 0, 0)),
                       points)
        except CoincidentWithCenter:  # raised after the proximity check
            pass
    return [str(w.message) for w in caught if w.category is NearFieldProximityWarning]


def assert_warns_like_reference(cluster, points):
    """Warn exactly when the all-pairs minimum is below the threshold, with its value."""
    closest = min(b.surface_distance_to_point(p) for p in points for b in cluster.bodies)
    messages = proximity_messages(cluster, points)
    if closest < cluster.delta * (1.0 - 1e-12):
        assert len(messages) == 1
        assert messages[0].startswith(f"evaluation point at distance {closest:g} ")
    else:
        assert messages == []
    return closest


coords = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def clusters_and_points(draw):
    """Mesh-only or mixed clusters that do not overlap, and points around them."""
    mesh_only = draw(st.booleans())
    bodies = []
    for center in draw(st.lists(st.tuples(coords, coords, coords), min_size=2, max_size=6)):
        size = draw(st.floats(0.01, 0.08))
        if mesh_only or draw(st.booleans()):
            bodies.append(mesh_body(center, size, level=draw(st.integers(0, 1))))
        else:
            bodies.append(geometry.BodyShape.sphere(size, center))
    try:
        cluster = geometry.Cluster.from_bodies(bodies)
    except geometry.OverlappingBodies:
        cluster = None
    assume(cluster is not None)
    points = draw(st.lists(st.tuples(*[st.floats(-0.2, 1.2)] * 3), min_size=1, max_size=60))
    return cluster, np.array(points)


class TestNearFieldStandoff:
    @settings(max_examples=60, deadline=None)
    @given(clusters_and_points())
    def test_warning_matches_all_pairs(self, case):
        assert_warns_like_reference(*case)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_threshold_edge(self, mixed):
        first = geometry.BodyShape.sphere(0.05, (0, 0, 0)) if mixed else mesh_body((0, 0, 0), 0.05)
        cluster = geometry.Cluster.from_bodies([first, mesh_body((0.3, 0, 0), 0.05)])
        delta = cluster.delta
        # move outward from the body at x = 0.3 along the ray through its vertex
        # farthest in +x, so that vertex stays the closest surface point
        vertices = cluster.bodies[1].mesh.vertices
        tip = vertices[np.argmax(vertices[:, 0])]
        ray = (tip - cluster.centers[1]) / np.linalg.norm(tip - cluster.centers[1])
        just_outside = tip + delta * (1.0 - 0.5e-12) * ray
        just_inside = tip + delta * (1.0 - 2e-12) * ray
        far = np.array([0.15, 2.0, 0.0])
        closest = assert_warns_like_reference(cluster, np.array([far, just_outside]))
        assert delta * (1.0 - 1e-12) <= closest < delta
        closest = assert_warns_like_reference(cluster, np.array([far, just_inside]))
        assert closest < delta * (1.0 - 1e-12)

    def test_evaluates_few_point_body_pairs(self, monkeypatch):
        axis = np.arange(6) * 0.4
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        grid += np.random.default_rng(5).uniform(-0.02, 0.02, grid.shape)
        cluster = sphere_cluster(grid, 0.02)
        points = 3.0 * unit_vectors(np.random.default_rng(6), 512) + 1.0
        calls = []
        original = geometry.BodyShape.surface_distance_to_point

        def counted(self, point):
            calls.append(1)
            return original(self, point)

        monkeypatch.setattr(geometry.BodyShape, "surface_distance_to_point", counted)
        near_field(zero_solution(cluster.m), cluster, PlaneWave(1.0, (0, 0, 1), (1, 0, 0)), points)
        assert len(calls) < len(points)  # all pairs: 512 * 216

    def test_non_finite_points_rejected(self):
        cluster = sphere_cluster([(0, 0, 0), (1, 0, 0)], 0.1)
        with pytest.raises(ValueError, match="finite"):
            near_field(zero_solution(2), cluster, PlaneWave(1.0, (0, 0, 1), (1, 0, 0)),
                       [(0.5, np.nan, 0.0)])


class TestVarepsilon:
    def test_example(self):
        assert varepsilon_kdm(0.0, 0.5, 8) == pytest.approx(VAREPS_EXAMPLE, rel=1e-14)

    def test_single_body_formula(self):
        for k, delta in ((0.0, 0.4), (2.0, 1.3)):
            ak = abs(k)
            expected = (ak + 1) ** 2 / delta**2 + (ak + 1) ** 3 / delta
            assert varepsilon_kdm(k, delta, 1) == pytest.approx(expected, rel=1e-14)

    def test_doubling_delta_term_by_term(self):
        k, m = 0.0, 8
        base = varepsilon_kdm(k, 0.5, m)
        doubled = varepsilon_kdm(k, 1.0, m)
        t1 = math.log(2) / 0.125
        t2, t3 = 8.0, 8.0
        assert base == pytest.approx(t1 + t2 + t3, rel=1e-14)
        assert doubled == pytest.approx(t1 / 8 + t2 / 4 + t3 / 2, rel=1e-14)


def lattice_budget_inputs():
    radius, spacing = 0.025, 1.05
    centers = [(x * spacing, y * spacing, z * spacing)
               for x in range(2) for y in range(2) for z in range(2)]
    cluster = sphere_cluster(centers, radius)
    tensors = sphere_tensors(8, radius)
    spectra = layerops.cluster_spectra(tensors, cluster.epsilon)
    constants = invertibility_constants(cluster, spectra, 1.0)
    return cluster, spectra, constants


class TestBudget:
    def test_finite_positive_and_independent_arithmetic(self):
        cluster, spectra, constants = lattice_budget_inputs()
        budget = error_budget(cluster, spectra, 1.0, constants)
        assert budget.valid
        assert all(t.value >= 0 for t in budget.terms)
        assert all(math.isfinite(t.value) for t in budget.terms)

        # independent re-evaluation of the two near-field groups
        ak, eps, delta, m = 1.0, cluster.epsilon, cluster.delta, cluster.m
        vk = ((ak + 1) * math.log(m ** (1 / 3)) / delta**3
              + (ak + 1) ** 2 * m ** (1 / 3) / delta**2
              + (ak + 1) ** 3 * m ** (2 / 3) / delta)
        pref4 = 1.0 / (constants.c_li2 * spectra.mu_minus * spectra.mu_plus)
        group4 = pref4 * (eps**4 / delta**4 + (1 + ak) * vk * eps**4
                          + max(1 + ak, ak**2) * eps)
        pref7 = 1.0 / (constants.c_li2 * spectra.mu_minus)
        group7 = pref7 * (eps**7 / delta**7
                          + max(1.0, ak + ak**2 + ak**3) / delta**6 * eps**7
                          + max(1.0, ak**2) / delta**5 * eps**7)
        assert budget.near_field_terms["eps4_group"] == pytest.approx(group4, rel=1e-12)
        assert budget.near_field_terms["eps7_group"] == pytest.approx(group7, rel=1e-12)
        far1 = (ak**3 + ak**2) * m * eps**4
        far2 = (ak / (2 * math.pi)) * max(1.0, ak) / (constants.c_li * spectra.mu_minus) * (
            eps**4 / delta**4 + (1 + ak) * vk * eps**4 + max(1 + ak, ak**2) * eps
        ) * m * eps**3
        assert budget.far_field_terms["dipole_group"] == pytest.approx(far1, rel=1e-12)
        assert budget.far_field_terms["solve_group"] == pytest.approx(far2, rel=1e-12)

    def test_zero_frequency_drops_k_weighted_terms(self):
        cluster, spectra, _ = lattice_budget_inputs()
        constants = invertibility_constants(cluster, spectra, 0.0)
        budget = error_budget(cluster, spectra, 0.0, constants)
        assert budget.far_field_terms["dipole_group"] == 0.0
        assert budget.far_field_terms["solve_group"] == 0.0
        assert budget.near_field_terms["eps4_group"] > 0.0

    def test_monomial_scaling_eps(self):
        cluster, spectra, constants = lattice_budget_inputs()
        args = dict(delta=cluster.delta, m=cluster.m, k=1.0, mu_plus=spectra.mu_plus,
                    mu_minus=spectra.mu_minus, c_li=constants.c_li, c_li2=constants.c_li2)
        base = budget_terms(eps=cluster.epsilon, **args)
        halved = budget_terms(eps=cluster.epsilon / 2, **args)
        for t0, t1 in zip(base, halved):
            assert t1.value == pytest.approx(t0.value / 2**t0.eps_power, rel=1e-9)
        by_name = {t.name: t for t in base}
        assert by_name["near4_core"].eps_power == 4
        assert by_name["near7_core"].eps_power == 7
        ratio4 = {t0.name: t1.value / t0.value for t0, t1 in zip(base, halved) if t0.value}
        assert ratio4["near4_core"] == pytest.approx(1 / 16, rel=1e-12)
        assert ratio4["near7_core"] == pytest.approx(1 / 128, rel=1e-12)

    def test_monomial_scaling_delta_and_m(self):
        cluster, spectra, constants = lattice_budget_inputs()
        args = dict(eps=cluster.epsilon, k=1.0, mu_plus=spectra.mu_plus,
                    mu_minus=spectra.mu_minus, c_li=constants.c_li, c_li2=constants.c_li2)
        base = budget_terms(delta=cluster.delta, m=cluster.m, **args)
        d2 = budget_terms(delta=2 * cluster.delta, m=cluster.m, **args)
        for t0, t1 in zip(base, d2):
            assert t1.value == pytest.approx(
                t0.value * t0.rescale_factor(delta_factor=2.0), rel=1e-9, abs=0
            )
        m2 = budget_terms(delta=cluster.delta, m=2 * cluster.m, **args)
        for t0, t1 in zip(base, m2):
            expected = t0.value * t0.rescale_factor(m_old=cluster.m, m_new=2 * cluster.m)
            assert t1.value == pytest.approx(expected, rel=1e-9, abs=0)

    def test_invalid_constants_flagged(self):
        cluster, spectra, _ = lattice_budget_inputs()
        bad = foldy.InvertibilityConstants(c_ls=100.0, c_li=-0.5, c_li2=-0.1, heuristic_k=False)
        budget = error_budget(cluster, spectra, 1.0, bad)
        assert not budget.valid
        assert math.isnan(budget.near_field_terms["eps4_group"])

    def test_single_body_interaction_terms_vanish(self):
        cluster = sphere_cluster([(0, 0, 0)], 0.1)
        spectra = layerops.cluster_spectra(sphere_tensors(1, 0.1), 0.1)
        constants = invertibility_constants(cluster, spectra, 1.0)
        budget = error_budget(cluster, spectra, 1.0, constants)
        values = {t.name: t.value for t in budget.terms}
        assert values["near4_core"] == 0.0  # divides by delta = inf
        assert values["near4_v_log"] == 0.0
        assert values["near4_tail"] > 0.0
