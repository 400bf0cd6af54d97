"""Output checks of one benchmark request against the independent reference.

Each check returns a list of problems; an empty list means the output passed.

- ``nearfield`` (direct-lattice): the CSV must hold the requested points and
  match the reference near field of a dense reference solve to `FIELD_RTOL`.
- ``solve`` on spheres (iterative-lattice): the output coefficients must meet
  the solver tolerance as ``||M x - rhs|| / ||rhs||`` with the reference
  operator.
- ``solve`` on meshes (mesh-cluster): the coefficients must match a reference
  solve with closed-form ellipsoid tensors to within the 320-panel
  discretization error, and bodies that share a mesh must be explained by
  one symmetric tensor pair to `CONSISTENCY_RTOL`.
"""

from __future__ import annotations

import json

import numpy as np

import reference

FIELD_RTOL = 1e-9
CONSISTENCY_RTOL = 1e-9
# Upper bounds on the flat-panel error of 320-panel ellipsoids with semi-axes
# in [0.015, 0.035] against the closed-form tensors.  Measured tensor errors
# over that range: 5.0-7.1% (p, which drives a) and 2.2-2.6% (t, which
# drives b).  A finer or better discretization only lowers them.
MESH_A_RTOL = 0.10
MESH_B_RTOL = 0.04

CSV_HEADER = "x,y,z,Re(E1),Im(E1),Re(E2),Im(E2),Re(E3),Im(E3),|E|^2"


def check(request: dict, out_path: str) -> list[str]:
    if request["command"] == "nearfield":
        return check_nearfield(request, out_path)
    if request["kind"] == "mesh":
        return check_mesh(request, out_path)
    return check_residual(request, out_path)


def _finite(values, what: str) -> tuple[np.ndarray | None, list[str]]:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        return None, [f"{what}: non-numeric entries"]
    if not np.all(np.isfinite(arr)):
        return None, [f"{what}: non-finite entries"]
    return arr, []


def read_coefficients(request: dict, out_path: str):
    """Coefficients a, b of a ``solve`` output, or the problems found."""
    with open(out_path) as fh:
        doc = json.load(fh)
    m = len(request["centers"])
    if doc.get("m") != m:
        return None, None, [f"m is {doc.get('m')!r}, expected {m}"]
    coeffs, problems = [], []
    for key in ("a_coeffs", "b_coeffs"):
        arr, bad = _finite(doc.get(key), key)
        if not bad and arr.shape != (m, 3, 2):
            bad = [f"{key}: shape {arr.shape}, expected {(m, 3, 2)}"]
        problems += bad
        coeffs.append(None if bad else arr[..., 0] + 1j * arr[..., 1])
    return coeffs[0], coeffs[1], problems


def read_field(request: dict, out_path: str):
    """Points and field values of a ``nearfield`` CSV, or the problems found."""
    with open(out_path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None, None, [f"header {lines[:1]}, expected {CSV_HEADER!r}"]
    rows, problems = _finite([line.split(",") for line in lines[1:]], "near field")
    points = request["points"]
    if not problems and rows.shape != (len(points), 10):
        problems = [f"near field: shape {rows.shape}, expected {(len(points), 10)}"]
    if problems:
        return None, None, problems
    if np.abs(rows[:, :3] - points).max() > 1e-12 * np.abs(points).max():
        return None, None, ["near field: points differ from the requested sphere"]
    field = rows[:, 3:9:2] + 1j * rows[:, 4:9:2]
    return rows, field, []


def check_nearfield(request: dict, out_path: str) -> list[str]:
    rows, field, problems = read_field(request, out_path)
    if problems:
        return problems
    wave = request["scenario"]["wave"]
    a, b = reference.solve(request["centers"], wave, request["p"], request["t"])
    ref = reference.near_field(request["centers"], reference.wavenumber(wave), a, b,
                               request["points"])
    scale = np.abs(ref).max()
    err = np.abs(field - ref).max() / scale
    intensity = (np.abs(ref) ** 2).sum(axis=1)
    err_i = np.abs(rows[:, 9] - intensity).max() / intensity.max()
    out = []
    if not err <= FIELD_RTOL:
        out.append(f"near field differs from the reference by {err:.3e} (limit {FIELD_RTOL:g})")
    if not err_i <= FIELD_RTOL:
        out.append(f"|E|^2 differs from the reference by {err_i:.3e} (limit {FIELD_RTOL:g})")
    return out


def check_residual(request: dict, out_path: str) -> list[str]:
    a, b, problems = read_coefficients(request, out_path)
    if problems:
        return problems
    res = reference.residual(request["centers"], request["scenario"]["wave"],
                             request["p"], request["t"], a, b)
    if not res <= request["tol"]:
        return [f"reference residual {res:.3e} above the solver tolerance {request['tol']:g}"]
    return []


def check_mesh(request: dict, out_path: str) -> list[str]:
    a, b, problems = read_coefficients(request, out_path)
    if problems:
        return problems
    wave = request["scenario"]["wave"]
    centers, labels = request["centers"], request["labels"]
    shapes = [reference.ellipsoid_tensors(axes) for axes in request["semi_axes"]]
    p = np.array([shapes[s][0] for s in labels])
    t = np.array([shapes[s][1] for s in labels])
    a_ref, b_ref = reference.solve(centers, wave, p, t)
    out = []
    for name, got, ref, tol in (("a", a, a_ref, MESH_A_RTOL), ("b", b, b_ref, MESH_B_RTOL)):
        err = np.linalg.norm(got - ref, axis=1).max() / np.linalg.norm(ref, axis=1).max()
        if not err <= tol:
            out.append(f"{name} differs from the closed-form ellipsoid solve by {err:.3e} "
                       f"(limit {tol:g})")
    misfit = reference.group_consistency(centers, wave, a, b, labels)
    if not misfit <= CONSISTENCY_RTOL:
        out.append(f"bodies sharing a mesh disagree on their tensors by {misfit:.3e} "
                   f"(limit {CONSISTENCY_RTOL:g})")
    return out
