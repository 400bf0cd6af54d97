"""Seeded inputs for the three benchmark workloads.

Every request gets its own inputs, drawn from ``(seed, request index)``, so no
request repeats another's input and a cache kept across requests cannot stand
in for work the CLI does on every call.

To write the inputs of one request and print the CLI call that runs them:

    python3 perfbench/workloads.py --workload <name> --seed <n> --index <i> --out <dir>

``--workload packed-lattice`` writes the one input that is not a workload: the
seed-independent packed lattice on which the default large-m solver raises
``NoConvergence`` today.

A request is a dict holding the CLI arguments, the scenario document, the
files to write before the call and everything the independent output checks
need (centers, tensors or shapes, wave, points).
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

WAVE = {"k_re": 0.8, "k_im": 0.0, "theta": [0.0, 0.0, 1.0], "p": [1.0, 0.0, 0.0]}

# direct-lattice: 6^3 spheres answered through the dense solve (m <= 500)
DIRECT = {"n": 6, "radius": 0.02, "spacing": 0.4, "jitter": 0.02,
          "points": 512, "points_radius": 3.0}
# iterative-lattice: 9^3 = 729 spheres, above the 500-body direct cap and the
# 600-body kernel-cache cap, so every fixed-point iteration recomputes kernels
ITERATIVE = {"n": 9, "radius": 0.04, "spacing": 0.2, "jitter": 0.005, "tol": 1e-12}
# the packed lattice on which the fixed-point solve raises NoConvergence; not
# part of any workload
PACKED = {"n": 9, "radius": 0.04, "spacing": 0.0805, "jitter": 0.0}
# mesh-cluster: 2x2x2 mesh bodies of 320 panels, two shapes of four bodies each,
# so every request does the same amount of mesh work
MESH = {"n": 2, "spacing": 0.2, "jitter": 0.01, "subdivisions": 2, "shapes": 2,
        "semi_axis_min": 0.015, "semi_axis_max": 0.035}


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, index])


def lattice_centers(n: int, spacing: float, jitter: float, rng) -> np.ndarray:
    """Cubic n^3 lattice, each center moved uniformly within +-jitter per axis."""
    axis = np.arange(n) * spacing
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    if jitter > 0.0:
        grid = grid + rng.uniform(-jitter, jitter, size=grid.shape)
    return grid


def _sphere_scenario(centers, radius, task: dict, solver: dict | None = None) -> dict:
    doc = {
        "schema": 1,
        "bodies": [{"kind": "sphere", "center": [float(v) for v in c], "radius": radius}
                   for c in centers],
        "wave": dict(WAVE),
        "task": task,
    }
    if solver is not None:
        doc["solver"] = solver
    return doc


def _sphere_tensors(m: int, radius: float):
    r3 = radius**3
    p = np.broadcast_to(-4.0 * np.pi * r3 * np.eye(3), (m, 3, 3))
    t = np.broadcast_to(2.0 * np.pi * r3 * np.eye(3), (m, 3, 3))
    return p, t


def direct_lattice(seed: int, index: int, n: int = DIRECT["n"]) -> dict:
    """``nearfield`` on a jittered lattice; points on a sphere about its centre."""
    cfg = DIRECT
    centers = lattice_centers(n, cfg["spacing"], cfg["jitter"], _rng(seed, index))
    middle = [0.5 * (n - 1) * cfg["spacing"]] * 3
    task = {"type": "nearfield",
            "points": {"sphere": {"radius": cfg["points_radius"], "count": cfg["points"],
                                  "center": middle}}}
    p, t = _sphere_tensors(len(centers), cfg["radius"])
    return {
        "command": "nearfield",
        "kind": "lattice",
        "scenario": _sphere_scenario(centers, cfg["radius"], task),
        "files": {},
        "centers": centers, "p": p, "t": t,
        "points": sphere_points(cfg["points"], cfg["points_radius"], middle),
    }


def iterative_lattice(seed: int, index: int, n: int | None = None,
                      cfg: dict = ITERATIVE) -> dict:
    """``solve`` with method auto on the lattice ``cfg`` describes."""
    n = cfg["n"] if n is None else n
    centers = lattice_centers(n, cfg["spacing"], cfg["jitter"], _rng(seed, index))
    solver = {"method": "auto", "tol": ITERATIVE["tol"]}
    p, t = _sphere_tensors(len(centers), cfg["radius"])
    return {
        "command": "solve",
        "kind": "lattice",
        "scenario": _sphere_scenario(centers, cfg["radius"], {"type": "solve"}, solver),
        "files": {},
        "centers": centers, "p": p, "t": t,
        "tol": ITERATIVE["tol"],
    }


def ellipsoid_vertices(subdivisions: int, semi_axes) -> tuple[np.ndarray, np.ndarray]:
    """Icosphere of the given level mapped onto an axis-aligned ellipsoid.

    The subdivision is written out here rather than taken from the program,
    so the benchmark's meshes do not change when the program's mesh helpers
    do.  Vertices lie on the ellipsoid; faces wind outward.
    """
    t = (1.0 + 5.0**0.5) / 2.0
    verts = [(-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0), (0, -1, t), (0, 1, t),
             (0, -1, -t), (0, 1, -t), (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1)]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11), (1, 5, 9),
             (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8), (3, 9, 4), (3, 4, 2),
             (3, 2, 6), (3, 6, 8), (3, 8, 9), (4, 9, 5), (2, 4, 11), (6, 2, 10),
             (8, 6, 7), (9, 8, 1)]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                v = verts[i] + verts[j]
                verts.append(v / np.linalg.norm(v))
                cache[key] = len(verts) - 1
            return cache[key]

        new = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new
    return np.array(verts) * np.asarray(semi_axes, dtype=float), np.array(faces)


def off_text(vertices, faces) -> str:
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces.tolist()]
    return "\n".join(lines) + "\n"


def _shape_assignment(rng, bodies: int, shapes: int) -> list[int]:
    """Each shape on the same number of bodies, in a random order."""
    labels = [body % shapes for body in range(bodies)]
    return [int(v) for v in rng.permutation(labels)]


def mesh_cluster(seed: int, index: int) -> dict:
    """``solve`` on mesh bodies: spheroids and ellipsoids from 320-panel icospheres."""
    cfg = MESH
    rng = _rng(seed, index)
    centers = lattice_centers(cfg["n"], cfg["spacing"], cfg["jitter"], rng)
    labels = _shape_assignment(rng, len(centers), cfg["shapes"])
    semi_axes = []
    for _ in range(cfg["shapes"]):
        if rng.random() < 0.5:  # spheroid: two equal semi-axes
            a, b = rng.uniform(cfg["semi_axis_min"], cfg["semi_axis_max"], size=2)
            semi_axes.append(np.array([a, b, b])[rng.permutation(3)])
        else:
            semi_axes.append(rng.uniform(cfg["semi_axis_min"], cfg["semi_axis_max"], size=3))
    files = {}
    for s, axes in enumerate(semi_axes):
        verts, faces = ellipsoid_vertices(cfg["subdivisions"], axes)
        files[f"shape{s}.off"] = off_text(verts, faces)
    bodies = [{"kind": "mesh", "center": [float(v) for v in c], "mesh_path": f"shape{s}.off"}
              for c, s in zip(centers, labels)]
    scenario = {"schema": 1, "bodies": bodies, "wave": dict(WAVE), "task": {"type": "solve"}}
    return {
        "command": "solve",
        "kind": "mesh",
        "scenario": scenario,
        "files": files,
        "centers": centers,
        "labels": labels,
        "semi_axes": np.array(semi_axes),
        "panels": 20 * 4 ** cfg["subdivisions"],
    }


def sphere_points(count: int, radius: float, center) -> np.ndarray:
    """Fibonacci sphere, the point set the CLI's ``points.sphere`` task names."""
    idx = np.arange(count, dtype=float)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - 2.0 * (idx + 0.5) / count
    rho = np.sqrt(1.0 - z * z)
    unit = np.stack([rho * np.cos(golden * idx), rho * np.sin(golden * idx), z], axis=1)
    return radius * unit + np.asarray(center, dtype=float)


def packed_lattice(seed: int, index: int) -> dict:
    """The packed lattice, the same on every seed and index."""
    return iterative_lattice(seed, index, cfg=PACKED)


WORKLOADS = {
    "direct-lattice": direct_lattice,
    "iterative-lattice": iterative_lattice,
    "mesh-cluster": mesh_cluster,
}


def write_request(request: dict, directory: str) -> list[str]:
    """Write the scenario and its mesh files; return the CLI argument list."""
    os.makedirs(directory, exist_ok=True)
    for name, text in request["files"].items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
    scenario = os.path.join(directory, "scenario.json")
    with open(scenario, "w") as fh:
        json.dump(request["scenario"], fh)
    out = os.path.join(directory, "out.csv" if request["command"] == "nearfield" else "out.json")
    return [request["command"], "--scenario", scenario, "--out", out]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="write the inputs of one benchmark request")
    inputs = WORKLOADS | {"packed-lattice": packed_lattice}
    parser.add_argument("--workload", required=True, choices=sorted(inputs))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the scenario and meshes")
    args = parser.parse_args()
    generate = inputs[args.workload]
    print("PYTHONPATH=src python3 -m foldylax.cli "
          + " ".join(write_request(generate(args.seed, args.index), args.out)))
