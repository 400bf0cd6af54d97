import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldylax import geometry
from foldylax.geometry import (
    BodyShape,
    Cluster,
    EmptyCluster,
    MeshError,
    OverlappingBodies,
    compute_epsilon_delta,
    icosphere,
    load_off,
    save_off,
    shell_count,
    validate_regime,
)


def spheres(*specs):
    return [BodyShape.sphere(r, c) for r, c in specs]


class TestEpsilonDelta:
    def test_two_spheres(self):
        eps, delta = compute_epsilon_delta(spheres((0.1, (0, 0, 0)), (0.1, (1, 0, 0))))
        assert eps == pytest.approx(0.2, abs=0)
        assert delta == pytest.approx(0.8)

    def test_single_sphere(self):
        eps, delta = compute_epsilon_delta(spheres((0.05, (0, 0, 0))))
        assert eps == pytest.approx(0.1)
        assert delta == math.inf

    def test_closest_pair_dominates(self):
        bodies = spheres((0.1, (0, 0, 0)), (0.1, (0.5, 0, 0)), (0.1, (2, 0, 0)))
        _, delta = compute_epsilon_delta(bodies)
        assert delta == pytest.approx(0.3)

    def test_overlap_raises(self):
        with pytest.raises(OverlappingBodies):
            compute_epsilon_delta(spheres((0.3, (0, 0, 0)), (0.3, (0.5, 0, 0))))

    def test_empty_raises(self):
        with pytest.raises(EmptyCluster):
            compute_epsilon_delta([])

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_permutation_invariant(self, order):
        bodies = spheres(
            (0.1, (0, 0, 0)), (0.07, (1, 0, 0)), (0.2, (0, 2, 0)), (0.05, (1, 1, 1))
        )
        base = compute_epsilon_delta(bodies)
        permuted = compute_epsilon_delta([bodies[i] for i in order])
        assert permuted == base

    def test_mesh_delta_converges_to_analytic(self):
        analytic = spheres((0.1, (0, 0, 0)), (0.1, (1, 0, 0)))
        _, exact = compute_epsilon_delta(analytic)
        previous_gap = None
        for level in (1, 2, 3):
            meshes = [
                BodyShape.from_mesh(icosphere(level, radius=0.1, center=c))
                for c in ((0, 0, 0), (1, 0, 0))
            ]
            eps, delta = compute_epsilon_delta(meshes)
            panel = icosphere(level, radius=0.1).max_panel_diameter()
            assert abs(delta - exact) <= panel
            if previous_gap is not None:
                assert abs(delta - exact) <= previous_gap + 1e-15
            previous_gap = abs(delta - exact)


def all_pairs_epsilon_delta(bodies):
    """Scalar reference: every pair in (i, j) order, first overlap raises."""
    eps = max(b.diameter() for b in bodies)
    delta = math.inf
    for i in range(len(bodies)):
        for j in range(i + 1, len(bodies)):
            gap = bodies[i].surface_distance_to(bodies[j])
            if gap <= 0.0:
                raise OverlappingBodies(f"bodies {i} and {j} touch or overlap (gap {gap:g})")
            delta = min(delta, gap)
    return eps, delta


def same_as_reference(bodies):
    """compute_epsilon_delta equals the reference, or raises the same message."""
    try:
        expected = all_pairs_epsilon_delta(bodies)
    except OverlappingBodies as exc:
        with pytest.raises(OverlappingBodies) as got:
            compute_epsilon_delta(bodies)
        assert str(got.value) == str(exc)
        return False
    assert compute_epsilon_delta(bodies) == expected
    return True


coords = st.floats(0.0, 1.0, allow_nan=False)
points3 = st.tuples(coords, coords, coords)


@st.composite
def sphere_clusters(draw, max_size=40):
    """Spheres with radii spanning 10x; dense draws overlap."""
    centers = draw(st.lists(points3, min_size=2, max_size=max_size))
    r0 = draw(st.floats(1e-3, 0.02))
    radii = draw(st.lists(st.floats(r0, 10 * r0), min_size=len(centers), max_size=len(centers)))
    return [BodyShape.sphere(r, c) for r, c in zip(radii, centers)]


@st.composite
def mixed_clusters(draw):
    """Spheres and icosphere meshes (levels 0-1, scaled per axis)."""
    bodies = []
    for center in draw(st.lists(points3, min_size=2, max_size=10)):
        size = draw(st.floats(0.01, 0.1))
        if draw(st.booleans()):
            bodies.append(BodyShape.sphere(size, center))
        else:
            axes = draw(st.tuples(*[st.floats(0.5, 1.0)] * 3))
            mesh = icosphere(draw(st.integers(0, 1)), size).transformed(np.diag(axes))
            bodies.append(BodyShape(center=center, mesh=mesh.translated(center)))
    return bodies


class TestScreenedDelta:
    @settings(max_examples=60, deadline=None)
    @given(sphere_clusters())
    def test_spheres_match_all_pairs(self, bodies):
        same_as_reference(bodies)

    @settings(max_examples=40, deadline=None)
    @given(mixed_clusters())
    def test_mixed_meshes_match_all_pairs(self, bodies):
        same_as_reference(bodies)

    @settings(max_examples=40, deadline=None)
    @given(sphere_clusters(), st.data())
    def test_overlaps_name_the_first_pair(self, bodies, data):
        # copies shifted by less than their radius overlap their originals,
        # so several pairs overlap and the first one in (i, j) order is named
        copies = []
        for body in data.draw(st.lists(st.sampled_from(bodies), min_size=1, max_size=4)):
            shift = data.draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3))
            copies.append(BodyShape.sphere(body.radius, body.center + np.multiply(shift, body.radius)))
        assert not same_as_reference(bodies + copies)

    @pytest.mark.parametrize("spacing", [0.4, 0.1, 0.0805])
    def test_lattice_ties_match_all_pairs(self, spacing):
        # lattice gaps tie up to rounding, so every nearest-neighbour pair is a candidate
        axis = np.arange(7) * spacing
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        assert same_as_reference(spheres(*((0.04, c) for c in grid)))

    @staticmethod
    def count_pair_calls(monkeypatch, bodies):
        calls = []
        original = BodyShape.surface_distance_to

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(BodyShape, "surface_distance_to", counted)
        compute_epsilon_delta(bodies)
        return len(calls)

    def test_jittered_lattice_evaluates_few_pairs(self, monkeypatch):
        axis = np.arange(0, 4.0, 0.4)  # 10 x 10 x 4 = 400 spheres
        grid = np.stack(np.meshgrid(axis, axis, axis[:4], indexing="ij"), axis=-1).reshape(-1, 3)
        grid += np.random.default_rng(4).uniform(-0.02, 0.02, grid.shape)
        bodies = spheres(*((0.02, c) for c in grid))
        assert len(bodies) == 400
        assert self.count_pair_calls(monkeypatch, bodies) < len(bodies)  # all pairs: 79 800

    def test_exact_lattice_evaluates_neighbour_pairs(self, monkeypatch):
        # ties up to rounding are all evaluated: the 1030 nearest-neighbour
        # pairs of a 10 x 10 x 4 lattice, plus the seed pair
        axis = np.arange(0, 4.0, 0.4)
        grid = np.stack(np.meshgrid(axis, axis, axis[:4], indexing="ij"), axis=-1).reshape(-1, 3)
        bodies = spheres(*((0.02, c) for c in grid))
        neighbour_pairs = 9 * 10 * 4 + 10 * 9 * 4 + 10 * 10 * 3
        assert self.count_pair_calls(monkeypatch, bodies) <= neighbour_pairs + 1

    def test_cluster_arrays_are_read_only(self):
        cluster = Cluster.from_bodies(spheres((0.1, (0, 0, 0)), (0.2, (1, 0, 0))))
        assert np.array_equal(cluster.centers, [[0, 0, 0], [1, 0, 0]])
        assert np.array_equal(cluster.reach, [0.1, 0.2])
        with pytest.raises(ValueError):
            cluster.centers[0, 0] = 1.0


class TestShellCount:
    @pytest.mark.parametrize("m,n", [(100, 1), (1000, 3), (1, 1)])
    def test_examples(self, m, n):
        assert shell_count(m) == n

    def test_examples_brute_force(self):
        def brute(m):
            n = 1
            while sum(16 * (3 * l * l + 3 * l + 1) for l in range(1, n + 1)) < m:
                n += 1
            return n

        for m in (1, 7, 100, 112, 113, 1000, 1008, 1009, 54321):
            assert shell_count(m) == brute(m)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=10**7))
    def test_nondecreasing(self, m):
        assert shell_count(m) <= shell_count(m + 1)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_boundary_exact(self, n):
        boundary = 16 * n * (n * n + 3 * n + 3)
        assert shell_count(boundary) == n
        assert shell_count(boundary + 1) == n + 1


class TestRegime:
    def test_single_body_zero_frequency(self):
        cluster = Cluster.from_bodies(spheres((0.05, (0, 0, 0))))
        report = validate_regime(cluster, 0.0, mu_plus=4 * math.pi)
        assert report.value == 0.0
        assert report.within_threshold

    def test_term_by_term(self):
        # independent re-implementation of the condition's left-hand side
        eps, delta, m, k, mu = 0.01, 0.5, 8, 1.0, 4 * math.pi
        cluster = Cluster.from_bodies(
            spheres(*((eps / 2, (x, y, z)) for x in (0, 0.51) for y in (0, 0.51) for z in (0, 0.51)))
        )
        assert cluster.delta == pytest.approx(0.5, rel=1e-12)
        expected = (
            k**2 * eps
            + (1 + k**2) * mu * eps**3 / delta**3
            + (math.log(m ** (1 / 3)) / delta**3 + 2 * k * m ** (1 / 3) / delta**2
               + m ** (2 / 3) * k**2 / (2 * delta)) * eps**3
        )
        report = validate_regime(cluster, k, mu_plus=mu)
        assert report.value == pytest.approx(expected, rel=1e-12)

    def test_mesoscale_finite(self):
        # bodies as large as their gaps: value is finite, flag follows threshold
        step = 0.2
        centers = [(x * step, y * step, z * step) for x in range(3) for y in range(3) for z in range(3)]
        cluster = Cluster.from_bodies(spheres(*((0.05, c) for c in centers)))
        assert cluster.epsilon == pytest.approx(cluster.delta, rel=1e-9)
        report = validate_regime(cluster, 0.5, mu_plus=math.pi / 2)
        assert math.isfinite(report.value) and report.value > 0
        assert report.within_threshold == (report.value < 1.0)
        loose = validate_regime(cluster, 0.5, mu_plus=math.pi / 2, threshold=10 * report.value)
        assert loose.within_threshold


class TestMesh:
    def test_icosphere_counts(self):
        for level, panels in ((0, 20), (2, 320), (3, 1280)):
            mesh = icosphere(level)
            assert mesh.n_panels == panels

    def test_sphere_area_and_volume_converge(self):
        mesh = icosphere(3)
        assert mesh.areas.sum() == pytest.approx(4 * math.pi, rel=5e-3)
        assert mesh.signed_volume() == pytest.approx(4 * math.pi / 3, rel=1e-2)

    def test_closed_surface_identity(self):
        mesh = icosphere(2, radius=0.3, center=(1, 2, 3))
        vec_area = (mesh.normals * mesh.areas[:, None]).sum(axis=0)
        assert np.linalg.norm(vec_area) <= 1e-10 * mesh.areas.sum()

    def test_inconsistent_winding_rejected(self):
        mesh = icosphere(1)
        tris = mesh.triangles.copy()
        tris[0] = tris[0][::-1]
        with pytest.raises(MeshError):
            geometry.SurfaceMesh(mesh.vertices, tris)

    def test_open_surface_rejected(self):
        mesh = icosphere(1)
        with pytest.raises(MeshError):
            geometry.SurfaceMesh(mesh.vertices, mesh.triangles[:-1])

    def test_inward_orientation_rejected(self):
        mesh = icosphere(1)
        with pytest.raises(MeshError):
            geometry.SurfaceMesh(mesh.vertices, mesh.triangles[:, ::-1])

    def test_off_round_trip(self, tmp_path):
        mesh = icosphere(1, radius=0.25, center=(0.1, -0.2, 0.3))
        path = tmp_path / "ball.off"
        save_off(mesh, path)
        loaded = load_off(path)
        assert np.allclose(loaded.vertices, mesh.vertices, atol=1e-15)
        assert np.array_equal(loaded.triangles, mesh.triangles)

    def test_off_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("NOFF\n1 1 0\n")
        with pytest.raises(MeshError):
            load_off(path)

    def test_containment(self):
        mesh = icosphere(1, radius=0.5, center=(1, 0, 0))
        assert mesh.contains((1, 0, 0))
        assert not mesh.contains((2, 0, 0))

    def test_mesh_body_center_must_be_inside(self):
        mesh = icosphere(1, radius=0.5)
        with pytest.raises(MeshError):
            BodyShape(center=(3.0, 0.0, 0.0), mesh=mesh)


class TestCluster:
    def test_domain_diameter_default_contains(self):
        cluster = Cluster.from_bodies(spheres((0.1, (0, 0, 0)), (0.1, (1, 0, 0))))
        assert cluster.domain_diameter >= 1.2 - 1e-12

    def test_domain_diameter_too_small(self):
        with pytest.raises(ValueError):
            Cluster.from_bodies(spheres((0.1, (0, 0, 0)), (0.1, (1, 0, 0))), domain_diameter=0.5)

    def test_scenario_ingestion(self, tmp_path):
        mesh = icosphere(1, radius=0.1)
        save_off(mesh, tmp_path / "b.off")
        doc = {
            "bodies": [
                {"kind": "sphere", "center": [0, 0, 0], "radius": 0.1},
                {"kind": "mesh", "center": [1, 0, 0], "mesh_path": "b.off"},
            ],
        }
        cluster = geometry.cluster_from_dict(doc, base_dir=tmp_path)
        assert cluster.m == 2
        assert cluster.bodies[1].kind == "mesh"

    def test_scenario_errors_name_field(self):
        with pytest.raises(ValueError, match=r"bodies\[0\]\.radius"):
            geometry.cluster_from_dict(
                {"bodies": [{"kind": "sphere", "center": [0, 0, 0], "radius": -1}]}
            )
        with pytest.raises(ValueError, match=r"bodies\[0\]\.kind"):
            geometry.cluster_from_dict({"bodies": [{"kind": "cube", "center": [0, 0, 0]}]})
