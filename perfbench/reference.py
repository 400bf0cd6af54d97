"""Independent reference for the benchmark's output checks.

Nothing here calls the program's numerics.  The interaction system is
assembled from the equations in the ``foldylax.foldy`` module docstring,

    a_i + P_i sum_{j!=i} ( Pi(z_i,z_j) a_j - k^2 grad_phi(z_i,z_j) x b_j )
        = -P_i curl_E_in(z_i)
    b_i - T_i sum_{j!=i} ( -grad_phi(z_i,z_j) x a_j + Pi(z_i,z_j) b_j )
        = -T_i E_in(z_i),

with kernels built from the radial derivatives of ``exp(ikr)/(4 pi r)`` (the
program's ``greens`` module uses a different closed form).  The scattered
field follows the ``foldylax.fields`` docstring,
``E_s(x) = sum_i ( grad_phi(x, z_i) x a_i - Pi(x, z_i) b_i )``.  Mesh-body
tensors are replaced by the closed-form tensors of the ellipsoid the mesh
approximates: ``p = -diag(V/N_i)`` and ``t = diag(V/(1-N_i))`` with ``N_i``
the depolarization factors.
"""

from __future__ import annotations

import math

import numpy as np

_ROWS = 96  # row block of the matrix-free apply; bounds memory at large m


def kernels(k: complex, d: np.ndarray):
    """Gradient and dipole kernels for displacements ``d = x - y`` (shape (..., 3)).

    With f(r) = exp(ikr)/(4 pi r): grad = f'(r) d/r and
    Pi = k^2 f I + f'(r)/r I + (f''(r) - f'(r)/r) d d^T / r^2.
    """
    r = np.sqrt((d * d).sum(axis=-1))
    f = np.exp(1j * k * r) / (4.0 * math.pi * r)
    f1 = (1j * k - 1.0 / r) * f
    f2 = ((1j * k - 1.0 / r) ** 2 + 1.0 / r**2) * f
    grad = (f1 / r)[..., None] * d
    iso = k * k * f + f1 / r
    rad = (f2 - f1 / r) / r**2
    pi = rad[..., None, None] * d[..., :, None] * d[..., None, :]
    pi = pi + iso[..., None, None] * np.eye(3)
    return grad, pi


def _cross_matrix(g):
    x = np.zeros(g.shape + (3,), dtype=complex)
    x[..., 0, 1], x[..., 0, 2] = -g[..., 2], g[..., 1]
    x[..., 1, 0], x[..., 1, 2] = g[..., 2], -g[..., 0]
    x[..., 2, 0], x[..., 2, 1] = -g[..., 1], g[..., 0]
    return x


def _pair_kernels(centers, k, rows):
    d = centers[rows, None, :] - centers[None, :, :]
    self_pair = rows[:, None] == np.arange(len(centers))[None, :]
    d[self_pair] = 1.0  # any nonzero displacement; the entries are zeroed below
    grad, pi = kernels(k, d)
    grad[self_pair] = 0.0
    pi[self_pair] = 0.0
    return grad, pi


def incident(k, wave, centers):
    """E_in and curl E_in of the plane wave p exp(ik theta.z) at the centers."""
    theta = np.asarray(wave["theta"], dtype=float)
    pol = np.asarray(wave["p"], dtype=float)
    phase = np.exp(1j * k * (centers @ theta))
    return phase[:, None] * pol, phase[:, None] * (1j * k * np.cross(theta, pol))


def wavenumber(wave) -> complex:
    return complex(wave["k_re"], wave.get("k_im", 0.0))


def rhs(centers, wave, p, t):
    """Right-hand side [-P_i curl E_in(z_i) | -T_i E_in(z_i)]."""
    e_in, curl_e_in = incident(wavenumber(wave), wave, centers)
    return np.concatenate([-np.einsum("iab,ib->ia", p, curl_e_in).ravel(),
                           -np.einsum("iab,ib->ia", t, e_in).ravel()])


def system_matrix(centers, k, p, t):
    """Dense 6m x 6m interaction matrix in the [a | b] ordering."""
    m = len(centers)
    grad, pi = _pair_kernels(centers, k, np.arange(m))
    cross = _cross_matrix(grad)
    mat = np.zeros((2, m, 3, 2, m, 3), dtype=complex)
    mat[0, :, :, 0] = np.einsum("iac,ijcb->iajb", p, pi)
    mat[0, :, :, 1] = -k * k * np.einsum("iac,ijcb->iajb", p, cross)
    mat[1, :, :, 0] = np.einsum("iac,ijcb->iajb", t, cross)
    mat[1, :, :, 1] = -np.einsum("iac,ijcb->iajb", t, pi)
    mat = mat.reshape(6 * m, 6 * m)
    mat[np.diag_indices(6 * m)] += 1.0
    return mat


def coupling(centers, k, a, b):
    """Sums sa_i = sum_j (Pi a_j - k^2 g x b_j), sb_i = sum_j (-g x a_j + Pi b_j)."""
    m = len(centers)
    sa = np.empty((m, 3), dtype=complex)
    sb = np.empty((m, 3), dtype=complex)
    for i0 in range(0, m, _ROWS):
        rows = np.arange(i0, min(i0 + _ROWS, m))
        grad, pi = _pair_kernels(centers, k, rows)
        gxa = np.cross(grad, a[None, :, :]).sum(axis=1)
        gxb = np.cross(grad, b[None, :, :]).sum(axis=1)
        sa[rows] = np.einsum("ijab,jb->ia", pi, a) - k * k * gxb
        sb[rows] = -gxa + np.einsum("ijab,jb->ia", pi, b)
    return sa, sb


def residual(centers, wave, p, t, a, b) -> float:
    """||M x - rhs|| / ||rhs|| for coefficients x = [a | b], matrix-free."""
    sa, sb = coupling(centers, wavenumber(wave), a, b)
    mx = np.concatenate([(a + np.einsum("iab,ib->ia", p, sa)).ravel(),
                         (b - np.einsum("iab,ib->ia", t, sb)).ravel()])
    f = rhs(centers, wave, p, t)
    return float(np.linalg.norm(mx - f) / np.linalg.norm(f))


def solve(centers, wave, p, t):
    """Dense solve; returns the (m, 3) coefficient arrays a and b."""
    m = len(centers)
    x = np.linalg.solve(system_matrix(centers, wavenumber(wave), p, t), rhs(centers, wave, p, t))
    return x[: 3 * m].reshape(m, 3), x[3 * m :].reshape(m, 3)


def near_field(centers, k, a, b, points):
    """E_s(x) = sum_i ( grad_phi(x, z_i) x a_i - Pi(x, z_i) b_i )."""
    grad, pi = kernels(k, points[:, None, :] - centers[None, :, :])
    return np.cross(grad, a[None, :, :]).sum(axis=1) - np.einsum("pjab,jb->pa", pi, b)


def carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's R_D(x, y, z) = 3/2 int_0^inf dt / ((t+z) sqrt((t+x)(t+y)(t+z))).

    Duplication until the arguments agree to 1e-10; the series remainder is
    then second order in that spread, below rounding.
    """
    total, scale = 0.0, 1.0
    while True:
        mu = (x + y + 3.0 * z) / 5.0
        if max(abs(x - mu), abs(y - mu), abs(z - mu)) <= 1e-10 * mu:
            return 3.0 * total + scale * mu**-1.5
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        total += scale / (sz * (z + lam))
        scale *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)


def depolarization(semi_axes) -> np.ndarray:
    """Depolarization factors N_i = (abc/3) R_D(a_j^2, a_k^2, a_i^2)."""
    a = [float(v) for v in semi_axes]
    sq = [v * v for v in a]
    prod = a[0] * a[1] * a[2]
    return np.array([prod / 3.0 * carlson_rd(sq[(i + 1) % 3], sq[(i + 2) % 3], sq[i])
                     for i in range(3)])


def ellipsoid_tensors(semi_axes):
    """Closed-form tensors of an axis-aligned ellipsoid: (-diag(V/N), diag(V/(1-N)))."""
    n = depolarization(semi_axes)
    vol = 4.0 / 3.0 * math.pi * float(np.prod(semi_axes))
    return -np.diag(vol / n), np.diag(vol / (1.0 - n))


def group_consistency(centers, wave, a, b, labels) -> float:
    """Largest relative misfit of one symmetric tensor pair per shape.

    Bodies that share a mesh share their tensors, so their coefficients must
    satisfy ``a_i = -P (sa_i + curl E_in(z_i))`` and
    ``b_i = T (sb_i - E_in(z_i))`` with one symmetric P and one symmetric T
    per shape.  Both are fitted by least squares over the shape's bodies;
    the misfit is at rounding level for a consistent solution and grows with
    any change to one body's coefficients.
    """
    k = wavenumber(wave)
    sa, sb = coupling(centers, k, a, b)
    e_in, curl_e_in = incident(k, wave, centers)
    labels = np.asarray(labels)
    worst = 0.0
    for shape in np.unique(labels):
        rows = labels == shape
        for vec, target in ((sa + curl_e_in, -a), (sb - e_in, b)):
            v, w = vec[rows], target[rows]
            x, y, z = v[:, 0], v[:, 1], v[:, 2]
            o = np.zeros_like(x)
            # columns of the unknowns P_xx, P_yy, P_zz, P_xy, P_yz, P_zx in P v
            cols = [(x, o, o), (o, y, o), (o, o, z), (y, x, o), (o, z, y), (z, o, x)]
            mat = np.array([np.stack(c, axis=1).ravel() for c in cols]).T
            mat = np.concatenate([mat.real, mat.imag])
            rhs_vec = np.concatenate([w.ravel().real, w.ravel().imag])
            coef, *_ = np.linalg.lstsq(mat, rhs_vec, rcond=None)
            misfit = np.linalg.norm(mat @ coef - rhs_vec) / np.linalg.norm(rhs_vec)
            worst = max(worst, float(misfit))
    return worst
