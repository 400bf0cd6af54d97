"""Static boundary-operator tensors of each body.

The electric-type and magnetic-type dipole responses of a perfectly
conducting body are 3x3 real tensors obtained from the adjoint double-layer
(Neumann-Poincare) operator of the body surface at zero frequency:

    p_tensor = integral of (-1/2 I + K*)^-1(nu)(y) (y - centroid)^T ds(y)
    t_tensor = integral of (+1/2 I + K*)^-1(nu)(y) (y - centroid)^T ds(y)

with ``nu`` the outward normal.  ``p_tensor`` is symmetric negative definite,
``t_tensor`` symmetric positive definite, and both scale with the cube of the
body size.  For a sphere of radius r they are exactly -4 pi r^3 I and
+2 pi r^3 I (the classical K* eigenvalue on degree-1 surface harmonics is
1/6, so the densities are -3 nu and 3/2 nu).

Discretization is centroid collocation on flat panels with exact panel
integration: the double-layer integral of a constant density over a flat
triangle is the signed solid angle of the triangle over 4 pi, evaluated in
closed form, so near-neighbor panels carry no quadrature error.  The
diagonal is fixed so that the constant function is reproduced exactly (K0
applied to 1 equals +1/2, the closed-surface identity; with exact panel
integrals the correction is at rounding level), and K* is the area-weighted
transpose.  The (-1/2 I + K*) solve is restricted to the zero-mean subspace
through a bordered system, matching the continuous operator's invertibility
domain.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geometry import BodyShape, Cluster, SurfaceMesh

__all__ = [
    "DegenerateMesh",
    "SingularOperator",
    "WrongSignTensor",
    "BodyTensors",
    "ClusterSpectra",
    "assemble_adjoint_np",
    "polarization_tensor",
    "virtual_mass_tensor",
    "analytic_sphere_tensors",
    "cluster_spectra",
    "body_tensors",
    "cluster_tensors",
    "tensor_report",
]

log = logging.getLogger(__name__)

_ROW_BLOCK = 512  # assembly chunk; bounds peak memory at ~3*8*512*N bytes


class DegenerateMesh(ValueError):
    """A panel area is vanishing relative to the mesh mean."""


class SingularOperator(RuntimeError):
    """The restricted boundary-operator solve failed."""


class WrongSignTensor(ValueError):
    """A tensor fails its required definiteness (sign) check."""


@dataclass
class BodyTensors:
    """Dipole response tensors of one body (units: length^3)."""

    p_tensor: np.ndarray
    t_tensor: np.ndarray

    def __post_init__(self):
        self.p_tensor = np.asarray(self.p_tensor, dtype=float).reshape(3, 3)
        self.t_tensor = np.asarray(self.t_tensor, dtype=float).reshape(3, 3)


@dataclass
class ClusterSpectra:
    """Extreme eigenvalues of the size-normalized body tensors.

    ``mu_plus``/``mu_minus`` are the max/min eigenvalues over the cluster of
    ``t_tensor/scale^3`` and ``-p_tensor/scale^3``.  ``scale`` records the
    normalization length; the products ``mu * scale^3`` are the dimensional
    tensor eigenvalues and are what every downstream formula consumes, so the
    choice of scale is a reporting convention only.
    """

    mu_plus: float
    mu_minus: float
    scale: float

    @property
    def mu_plus_dimensional(self) -> float:
        return self.mu_plus * self.scale**3

    @property
    def mu_minus_dimensional(self) -> float:
        return self.mu_minus * self.scale**3


def assemble_adjoint_np(mesh: SurfaceMesh) -> np.ndarray:
    """Collocation matrix of the adjoint double-layer operator K* at k = 0.

    Built as the area-weighted transpose K* = W^-1 K^T W (W = diag(areas)) of
    the double-layer matrix K, whose entry (p, q), p != q, is the exact
    integral of the kernel ``nu_y . (y - c_p) / (4 pi |y - c_p|^3)`` over flat
    panel q: the signed solid angle of the panel seen from centroid p, over
    4 pi.  The diagonal of K is fixed by requiring K @ 1 = 1/2 exactly (the
    discrete closed-surface identity; the self-panel principal value is 0 and
    the correction is at rounding level).  Consequently (-1/2 I + K)
    annihilates constants and the range of (-1/2 I + K*) is the discrete
    zero-mean subspace.
    """
    w = mesh.areas
    if w.min() < 1e-14 * w.mean():
        raise DegenerateMesh("panel area below 1e-14 of the mean area")
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    v1 = mesh.vertices[mesh.triangles[:, 1]]
    v2 = mesh.vertices[mesh.triangles[:, 2]]
    cen = mesh.centroids
    npan = mesh.n_panels
    dl = np.empty((npan, npan), dtype=float)
    for i0 in range(0, npan, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, npan)
        x = cen[i0:i1, None, :]
        a = v0[None, :, :] - x
        b = v1[None, :, :] - x
        c = v2[None, :, :] - x
        la = np.sqrt(np.einsum("ijk,ijk->ij", a, a))
        lb = np.sqrt(np.einsum("ijk,ijk->ij", b, b))
        lc = np.sqrt(np.einsum("ijk,ijk->ij", c, c))
        num = np.einsum("ijk,ijk->ij", a, np.cross(b, c))
        den = (
            la * lb * lc
            + np.einsum("ijk,ijk->ij", a, b) * lc
            + np.einsum("ijk,ijk->ij", b, c) * la
            + np.einsum("ijk,ijk->ij", c, a) * lb
        )
        dl[i0:i1] = np.arctan2(num, den) / (2.0 * np.pi)
    idx = np.arange(npan)
    dl[idx, idx] = 0.0
    dl[idx, idx] = 0.5 - dl.sum(axis=1)
    return (dl.T * w[None, :]) / w[:, None]


def _shifted_solve(kstar, weights, shift, rhs):
    """Solve (shift I + K*) x = rhs columnwise.

    For shift = -1/2 the matrix is singular on the discrete equilibrium
    density and its range is the zero-mean subspace; a bordered system pins
    the zero-mean representative.  For shift = +1/2 the plain solve is
    regular.
    """
    npan = len(weights)
    a = shift * np.eye(npan) + kstar
    try:
        if shift < 0.0:
            bordered = np.zeros((npan + 1, npan + 1))
            bordered[:npan, :npan] = a
            bordered[:npan, npan] = weights
            bordered[npan, :npan] = weights
            rhs_b = np.zeros((npan + 1, rhs.shape[1]))
            rhs_b[:npan] = rhs
            sol = np.linalg.solve(bordered, rhs_b)
            return sol[:npan]
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularOperator(f"boundary-operator solve failed: {exc}") from exc


def _moment_tensor(mesh, shift, kstar=None):
    if kstar is None:
        kstar = assemble_adjoint_np(mesh)
    w = mesh.areas
    density = _shifted_solve(kstar, w, shift, mesh.normals)  # (N, 3) vector density
    anchor = (w[:, None] * mesh.centroids).sum(axis=0) / w.sum()
    moments = mesh.centroids - anchor  # anchored first moments: translation invariant
    raw = np.einsum("p,pa,pb->ab", w, density, moments)
    sym = 0.5 * (raw + raw.T)
    scale = np.linalg.norm(sym)
    asym = float(np.linalg.norm(raw - raw.T) / scale) if scale > 0 else 0.0
    log.debug("tensor assembly shift=%+.1f asymmetry=%.3e", shift, asym)
    return sym, asym


def polarization_tensor(mesh: SurfaceMesh, kstar: np.ndarray | None = None) -> np.ndarray:
    """Electric-type response tensor (symmetric negative definite).

    Pass a precomputed ``kstar`` to share one assembly between both tensors.
    """
    sym, _ = _moment_tensor(mesh, -0.5, kstar)
    return sym


def virtual_mass_tensor(mesh: SurfaceMesh, kstar: np.ndarray | None = None) -> np.ndarray:
    """Magnetic-type response tensor (symmetric positive definite)."""
    sym, _ = _moment_tensor(mesh, +0.5, kstar)
    return sym


def analytic_sphere_tensors(radius: float) -> BodyTensors:
    """Closed-form sphere tensors: (-4 pi r^3 I, +2 pi r^3 I)."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    r3 = radius**3
    return BodyTensors(p_tensor=-4.0 * np.pi * r3 * np.eye(3), t_tensor=2.0 * np.pi * r3 * np.eye(3))


def body_tensors(body: BodyShape) -> BodyTensors:
    """Tensors for one body: analytic for spheres, collocation for meshes."""
    if body.kind == "sphere":
        return analytic_sphere_tensors(body.radius)
    kstar = assemble_adjoint_np(body.mesh)
    return BodyTensors(
        p_tensor=polarization_tensor(body.mesh, kstar),
        t_tensor=virtual_mass_tensor(body.mesh, kstar),
    )


def cluster_tensors(cluster: Cluster) -> list[BodyTensors]:
    return [body_tensors(b) for b in cluster.bodies]


def _check_definite(tensors: BodyTensors) -> tuple[np.ndarray, np.ndarray]:
    ev_t = np.linalg.eigvalsh(tensors.t_tensor)
    ev_p = np.linalg.eigvalsh(-tensors.p_tensor)
    if ev_t.min() <= 0.0:
        raise WrongSignTensor("t_tensor is not positive definite")
    if ev_p.min() <= 0.0:
        raise WrongSignTensor("p_tensor is not negative definite")
    return ev_t, ev_p


def cluster_spectra(tensors, eps: float) -> ClusterSpectra:
    """Extreme normalized eigenvalues over the cluster.

    ``eps`` is the normalization length (the same scale must be used wherever
    the returned ``mu_plus``/``mu_minus`` are combined with ``eps^3``).
    """
    tensors = list(tensors)
    if not tensors:
        raise ValueError("need at least one body tensor")
    if eps <= 0.0:
        raise ValueError("normalization scale must be positive")
    hi = -math.inf
    lo = math.inf
    for bt in tensors:
        ev_t, ev_p = _check_definite(bt)
        hi = max(hi, ev_t.max(), ev_p.max())
        lo = min(lo, ev_t.min(), ev_p.min())
    return ClusterSpectra(mu_plus=hi / eps**3, mu_minus=lo / eps**3, scale=eps)


def tensor_report(body: BodyShape) -> dict:
    """Per-body tensor record for structured output.

    Includes both tensors, their pre-symmetrization relative asymmetries
    (zero for analytic spheres) and eigenvalues.
    """
    if body.kind == "sphere":
        bt = analytic_sphere_tensors(body.radius)
        p_asym = t_asym = 0.0
        p, t = bt.p_tensor, bt.t_tensor
    else:
        kstar = assemble_adjoint_np(body.mesh)
        p, p_asym = _moment_tensor(body.mesh, -0.5, kstar)
        t, t_asym = _moment_tensor(body.mesh, +0.5, kstar)
    return {
        "kind": body.kind,
        "p_tensor": p.tolist(),
        "t_tensor": t.tolist(),
        "asymmetry": {"p_tensor": p_asym, "t_tensor": t_asym},
        "eigenvalues": {
            "p_tensor": np.linalg.eigvalsh(p).tolist(),
            "t_tensor": np.linalg.eigvalsh(t).tolist(),
        },
    }
