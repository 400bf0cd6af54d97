"""Tests of the benchmark's independent reference and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import math
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from foldylax import foldy, geometry, layerops, oracles  # noqa: E402
from foldylax.cli import main as cli_main  # noqa: E402


def _random_tensor(rng, scale, sign):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return sign * scale**3 * (q * rng.uniform(1.0, 3.0, size=3)) @ q.T


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [0.8, 1.3 + 0.2j])
def test_solve_matches_brute_force(m, k):
    rng = np.random.default_rng(m)
    centers = rng.uniform(-0.5, 0.5, size=(m, 3))
    centers[:, 0] += 0.6 * np.arange(m)
    p = np.array([_random_tensor(rng, 0.05, -1.0) for _ in range(m)])
    t = np.array([_random_tensor(rng, 0.05, 1.0) for _ in range(m)])
    wave = {"k_re": k.real if isinstance(k, complex) else k,
            "k_im": k.imag if isinstance(k, complex) else 0.0,
            "theta": [0.0, 0.6, 0.8], "p": [1.0, 0.0, 0.0]}
    cluster = geometry.Cluster.from_bodies([geometry.BodyShape.sphere(0.01, c) for c in centers])
    tensors = [layerops.BodyTensors(p_tensor=pi, t_tensor=ti) for pi, ti in zip(p, t)]
    plane = foldy.PlaneWave(k=k, theta=wave["theta"], p=wave["p"])
    oracle = oracles.brute_force_small_system(cluster, tensors, plane)
    a, b = reference.solve(centers, wave, p, t)
    scale = max(np.abs(oracle.a_coeffs).max(), np.abs(oracle.b_coeffs).max())
    assert np.abs(a - oracle.a_coeffs).max() <= 1e-10 * scale
    assert np.abs(b - oracle.b_coeffs).max() <= 1e-10 * scale
    assert reference.residual(centers, wave, p, t, a, b) <= 1e-13


def test_single_sphere_closed_form():
    r, z = 0.03, np.array([[0.1, -0.2, 0.3]])
    wave = {"k_re": 0.8, "k_im": 0.0, "theta": [0.0, 0.0, 1.0], "p": [0.0, 1.0, 0.0]}
    p, t = reference.ellipsoid_tensors([r, r, r])
    a, b = reference.solve(z, wave, p[None], t[None])
    phase = np.exp(1j * 0.8 * z[0, 2])
    curl_e = 1j * 0.8 * np.cross([0.0, 0.0, 1.0], [0.0, 1.0, 0.0]) * phase
    np.testing.assert_allclose(a[0], 4.0 * math.pi * r**3 * curl_e, rtol=1e-13)
    np.testing.assert_allclose(b[0], -2.0 * math.pi * r**3 * np.array([0.0, 1.0, 0.0]) * phase,
                               rtol=1e-13)


def test_sphere_tensors_from_ellipsoid_formula():
    r = 0.02
    p, t = reference.ellipsoid_tensors([r, r, r])
    np.testing.assert_allclose(p, -4.0 * math.pi * r**3 * np.eye(3), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(t, 2.0 * math.pi * r**3 * np.eye(3), rtol=1e-13, atol=0.0)


def test_depolarization_factors():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert reference.depolarization(rng.uniform(0.01, 0.05, size=3)).sum() == pytest.approx(
            1.0, abs=1e-13)
    # prolate spheroid a > b = c: N_a = (1 - e^2)/e^2 (atanh(e)/e - 1)
    a, b = 0.035, 0.015
    e = math.sqrt(1.0 - (b / a) ** 2)
    expected = (1.0 - e * e) / (e * e) * (math.atanh(e) / e - 1.0)
    assert reference.depolarization([a, b, b])[0] == pytest.approx(expected, rel=1e-12)


def _run(request, tmp_path):
    argv = workloads.write_request(request, str(tmp_path))
    assert cli_main(argv) == 0
    assert checks.check(request, argv[-1]) == []
    return argv[-1]


def _perturb_json(path, key):
    with open(path) as fh:
        doc = json.load(fh)
    values = np.array(doc[key])
    index = np.unravel_index(np.abs(values).argmax(), values.shape)
    values[index] *= 1.0 + 1e-6
    doc[key] = values.tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_nearfield_check_catches_perturbation(tmp_path):
    request = workloads.direct_lattice(seed=5, index=0, n=3)
    out = _run(request, tmp_path)
    with open(out) as fh:
        lines = fh.read().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    row, col = np.unravel_index(np.abs(rows[:, 3:9]).argmax(), rows[:, 3:9].shape)
    cells = lines[1 + row].split(",")
    cells[3 + col] = format(float(cells[3 + col]) * (1.0 + 1e-6), ".16e")
    lines[1 + row] = ",".join(cells)
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert checks.check(request, out)


@pytest.mark.parametrize("key", ["a_coeffs", "b_coeffs"])
def test_residual_check_catches_perturbation(tmp_path, key):
    request = workloads.iterative_lattice(seed=5, index=0, n=5)
    out = _run(request, tmp_path)
    _perturb_json(out, key)
    assert checks.check(request, out)


@pytest.mark.parametrize("key", ["a_coeffs", "b_coeffs"])
def test_mesh_check_catches_perturbation(tmp_path, key):
    request = workloads.mesh_cluster(seed=5, index=0)
    out = _run(request, tmp_path)
    _perturb_json(out, key)
    problems = checks.check(request, out)
    assert any("sharing a mesh" in p for p in problems)


def test_mesh_check_catches_wrong_tensor(tmp_path):
    # the closed-form comparison catches a tensor error above the discretization error
    request = workloads.mesh_cluster(seed=6, index=0)
    out = _run(request, tmp_path)
    with open(out) as fh:
        doc = json.load(fh)
    doc["a_coeffs"] = (np.array(doc["a_coeffs"]) * 1.2).tolist()
    with open(out, "w") as fh:
        json.dump(doc, fh)
    assert any("closed-form" in p for p in checks.check(request, out))
