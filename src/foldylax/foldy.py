"""Assembly and solution of the point-interaction linear system.

Each body i carries two complex dipole coefficients ``a_i`` (curl-driven) and
``b_i`` (field-driven) coupled through the free-space kernels:

    a_i + P_i sum_{j!=i} ( Pi(z_i,z_j) a_j - k^2 grad_phi(z_i,z_j) x b_j )
        = -P_i curl_E_in(z_i)
    b_i - T_i sum_{j!=i} ( -grad_phi(z_i,z_j) x a_j + Pi(z_i,z_j) b_j )
        = -T_i E_in(z_i)

with P_i / T_i the body response tensors.  Unknowns are ordered
``[a_1..a_m | b_1..b_m]`` as a 6m complex vector.  The system is solved
either by dense factorization or by a fixed-point (Neumann-series) iteration
in transformed variables ``c = [T^-1 b | (-P)^-1 a]``, where the iteration
operator norm admits the contraction estimate

    4 mu+ eps^3 ( ln(m^{1/3})/delta^3 + 2|k| m^{1/3}/delta^2
                  + m^{2/3} |k|^2 / (2 delta) ) < 1.

The module also evaluates the conditioning constants of the system
(``c_ls``, ``c_li``, ``c_li2``) from the cluster parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import Cluster, interaction_sum
from .greens import check_wavenumber, coupling_kernels
from .layerops import ClusterSpectra

__all__ = [
    "PlaneWave",
    "FoldySolution",
    "SystemBlocks",
    "InvertibilityConstants",
    "SingularSystem",
    "CapExceeded",
    "NoConvergence",
    "ContractionWarning",
    "incident_values",
    "assemble",
    "solve_direct",
    "solve_neumann",
    "solve",
    "invertibility_constants",
    "solution_norm_bound",
]

DIRECT_SOLVE_CAP = 500  # dense path is O(m^3); larger clusters iterate
# Pi and Gx are kept when they fit in this many bytes, recomputed per apply otherwise
COUPLING_CACHE_BYTES = 256 * 2**20
_PAIR_BYTES = 2 * 9 * 16  # one body pair's 3x3 complex blocks of Pi and Gx

_UNIT_TOL = 1e-12


class SingularSystem(RuntimeError):
    """Dense factorization detected rank deficiency."""


class CapExceeded(ValueError):
    """Cluster too large for the direct solver; use the iterative path."""


class NoConvergence(RuntimeError):
    """Fixed-point iteration failed to converge (or diverged)."""


class ContractionWarning(UserWarning):
    """The sufficient contraction bound for the iteration is violated."""


@dataclass
class PlaneWave:
    """Incident plane wave p * exp(i k x . theta) with p orthogonal to theta."""

    k: complex
    theta: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.k = check_wavenumber(self.k)
        self.theta = np.asarray(self.theta, dtype=float).reshape(3)
        self.p = np.asarray(self.p, dtype=float).reshape(3)
        if abs(np.linalg.norm(self.theta) - 1.0) > _UNIT_TOL:
            raise ValueError("incidence direction must be a unit vector (|theta| = 1)")
        if abs(float(self.theta @ self.p)) > _UNIT_TOL * max(1.0, float(np.linalg.norm(self.p))):
            raise ValueError("polarization must be orthogonal to the incidence direction")


def incident_values(wave: PlaneWave, z):
    """Incident field and its curl at points ``z`` (shape (..., 3)).

    E = p exp(ik z.theta); curl E = ik (theta x p) exp(ik z.theta).
    """
    z = np.asarray(z, dtype=float)
    phase = np.exp(1j * wave.k * (z @ wave.theta))
    e_in = phase[..., None] * wave.p
    curl_e_in = phase[..., None] * (1j * wave.k * np.cross(wave.theta, wave.p))
    return e_in, curl_e_in


@dataclass
class FoldySolution:
    """Dipole coefficients per body plus solve diagnostics."""

    a_coeffs: np.ndarray  # (m, 3) complex
    b_coeffs: np.ndarray  # (m, 3) complex
    residual_norm: float
    method: str
    iterations: int


class SystemBlocks:
    """Pairwise couplings and body tensors; supports matrix-free application.

    The pair couplings are two dense 3m x 3m complex matrices in the body
    ordering of ``a`` (or ``b``): ``Pi``, the dyadic blocks Pi(z_i, z_j) that
    couple a to a and b to b, and ``Gx``, the blocks v -> grad_phi(z_i, z_j) x v
    that couple a to b.  `_kernel_slabs` produces both in row slabs of bodies;
    ``apply`` multiplies each slab with the stacked ``[a | b]`` and
    ``materialize`` writes the dense 6m x 6m matrix from the same slabs.  The
    slabs are kept when Pi and Gx together (288 m^2 bytes) fit in
    `COUPLING_CACHE_BYTES` (256 MiB: m <= 965) and recomputed on every
    application otherwise, so memory stays bounded for large m.
    """

    def __init__(self, centers, k, p_tensors, t_tensors, delta):
        self.centers = np.asarray(centers, dtype=float)
        self.k = check_wavenumber(k)
        self.p_tensors = np.asarray(p_tensors, dtype=float)
        self.t_tensors = np.asarray(t_tensors, dtype=float)
        self.delta = float(delta)
        self.m = len(self.centers)
        if self.p_tensors.shape != (self.m, 3, 3) or self.t_tensors.shape != (self.m, 3, 3):
            raise ValueError("need one 3x3 tensor pair per body")
        self._cached = None
        if _PAIR_BYTES * self.m * self.m <= COUPLING_CACHE_BYTES:
            self._cached = list(self._kernel_slabs())

    def _kernel_slabs(self):
        """Yield ``(i0, i1, pi, gx)``: rows 3*i0:3*i1 of Pi and Gx, freshly computed.

        A slab is kept to a sixteenth of the cache budget, since the kernel
        temporaries behind it are several times its size.
        """
        m = self.m
        step = max(1, COUPLING_CACHE_BYTES // (16 * _PAIR_BYTES * max(m, 1)))
        for i0 in range(0, m, step):
            i1 = min(i0 + step, m)
            rows = np.arange(i0, i1)
            d = self.centers[rows, None, :] - self.centers[None, :, :]
            grad, pi = coupling_kernels(self.k, d, self_mask=rows[:, None] == np.arange(m))
            gx = np.zeros((i1 - i0, 3, m, 3), dtype=complex)
            gx[:, 0, :, 1] = -grad[..., 2]
            gx[:, 0, :, 2] = grad[..., 1]
            gx[:, 1, :, 0] = grad[..., 2]
            gx[:, 1, :, 2] = -grad[..., 0]
            gx[:, 2, :, 0] = -grad[..., 1]
            gx[:, 2, :, 1] = grad[..., 0]
            shape = (3 * (i1 - i0), 3 * m)
            yield i0, i1, pi.transpose(0, 2, 1, 3).reshape(shape), gx.reshape(shape)

    def _slabs(self):
        return self._cached if self._cached is not None else self._kernel_slabs()

    def coupling_sums(self, a, b):
        """Interaction sums  sa_i = sum_{j!=i} (Pi a_j - k^2 G x b_j)  and
        sb_i = sum_{j!=i} (-G x a_j + Pi b_j)."""
        k2 = self.k * self.k
        ab = np.stack([np.ravel(a), np.ravel(b)], axis=1)
        sa = np.empty(3 * self.m, dtype=complex)
        sb = np.empty(3 * self.m, dtype=complex)
        for i0, i1, pi, gx in self._slabs():
            pi_ab = pi @ ab
            gx_ab = gx @ ab
            sa[3 * i0 : 3 * i1] = pi_ab[:, 0] - k2 * gx_ab[:, 1]
            sb[3 * i0 : 3 * i1] = -gx_ab[:, 0] + pi_ab[:, 1]
        return sa.reshape(self.m, 3), sb.reshape(self.m, 3)

    def apply(self, x):
        """Operator application in the [a | b] ordering."""
        x = np.asarray(x, dtype=complex)
        a = x[: 3 * self.m].reshape(self.m, 3)
        b = x[3 * self.m :].reshape(self.m, 3)
        sa, sb = self.coupling_sums(a, b)
        out_a = a + np.einsum("iab,ib->ia", self.p_tensors, sa)
        out_b = b - np.einsum("iab,ib->ia", self.t_tensors, sb)
        return np.concatenate([out_a.ravel(), out_b.ravel()])

    def residual_norm(self, x, rhs):
        rhs = np.asarray(rhs, dtype=complex)
        return float(np.linalg.norm(self.apply(x) - rhs) / np.linalg.norm(rhs))

    def materialize(self):
        """Dense 6m x 6m matrix in the [a | b] ordering."""
        m, k2 = self.m, self.k * self.k
        full = np.empty((6 * m, 6 * m), dtype=complex)
        # quadrant[row type, body, component, column type, column]
        quadrant = full.reshape(2, m, 3, 2, 3 * m)
        for i0, i1, pi, gx in self._slabs():
            p, t = self.p_tensors[i0:i1], self.t_tensors[i0:i1]
            pi = pi.reshape(i1 - i0, 3, 3 * m)
            gx = gx.reshape(i1 - i0, 3, 3 * m)
            np.matmul(p, pi, out=quadrant[0, i0:i1, :, 0])
            np.multiply(np.matmul(p, gx), -k2, out=quadrant[0, i0:i1, :, 1])
            np.matmul(t, gx, out=quadrant[1, i0:i1, :, 0])
            np.negative(np.matmul(t, pi), out=quadrant[1, i0:i1, :, 1])
        full.flat[:: 6 * m + 1] += 1.0
        return full


def assemble(cluster: Cluster, tensors, wave: PlaneWave):
    """Build the interaction operator and right-hand side for a cluster.

    Returns ``(blocks, rhs)`` with ``rhs`` the 6m complex vector
    ``[-P_i curl_E_in(z_i) | -T_i E_in(z_i)]``.
    """
    tensors = list(tensors)
    if len(tensors) != cluster.m:
        raise ValueError(f"need {cluster.m} tensor pairs, got {len(tensors)}")
    p = np.array([bt.p_tensor for bt in tensors])
    t = np.array([bt.t_tensor for bt in tensors])
    blocks = SystemBlocks(cluster.centers, wave.k, p, t, cluster.delta)
    e_in, curl_e_in = incident_values(wave, cluster.centers)
    rhs_a = -np.einsum("iab,ib->ia", p, curl_e_in)
    rhs_b = -np.einsum("iab,ib->ia", t, e_in)
    return blocks, np.concatenate([rhs_a.ravel(), rhs_b.ravel()])


def _as_solution(blocks, x, rhs, method, iterations):
    m = blocks.m
    return FoldySolution(
        a_coeffs=x[: 3 * m].reshape(m, 3).copy(),
        b_coeffs=x[3 * m :].reshape(m, 3).copy(),
        residual_norm=blocks.residual_norm(x, rhs),
        method=method,
        iterations=iterations,
    )


def solve_direct(blocks: SystemBlocks, rhs, cap: int = DIRECT_SOLVE_CAP) -> FoldySolution:
    """Dense factorization solve; raises `CapExceeded` above ``cap`` bodies."""
    if blocks.m > cap:
        raise CapExceeded(f"direct solve capped at {cap} bodies (got {blocks.m})")
    matrix = blocks.materialize()
    try:
        x = np.linalg.solve(matrix, np.asarray(rhs, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"dense factorization failed: {exc}") from exc
    return _as_solution(blocks, x, rhs, "direct", 1)


def contraction_estimate(blocks: SystemBlocks) -> float:
    """Sufficient bound on the iteration operator norm (must be < 1)."""
    eigenvalues = np.linalg.eigvalsh(np.concatenate([blocks.t_tensors, -blocks.p_tensors]))
    ev_hi = max(0.0, float(eigenvalues.max()))
    return 4.0 * ev_hi * interaction_sum(blocks.k, blocks.delta, blocks.m)


def _q_norm(q, x):
    quad = np.einsum("ia,iab,ib->", x.conj(), q, x)
    return math.sqrt(max(float(quad.real), 0.0))


def solve_neumann(
    blocks: SystemBlocks,
    rhs,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> FoldySolution:
    """Fixed-point solve c <- e - (coupling) c in the transformed variables.

    The iteration runs in ``c = [T^-1 b | (-P)^-1 a]`` where the contraction
    estimate applies; convergence is detected on the relative increment in
    the tensor-weighted norm, and three consecutive increment growths abort
    with `NoConvergence`.  A violated contraction bound emits
    `ContractionWarning` before iterating.
    """
    m = blocks.m
    rhs = np.asarray(rhs, dtype=complex)
    factor = contraction_estimate(blocks)
    if factor >= 1.0:
        warnings.warn(
            f"iteration contraction bound is {factor:.3g} >= 1; "
            "the fixed-point solve may diverge",
            ContractionWarning,
            stacklevel=2,
        )

    rhs_a = rhs[: 3 * m].reshape(m, 3)
    rhs_b = rhs[3 * m :].reshape(m, 3)
    # Transformed right-hand side: e = [T^-1 rhs_b | (-P)^-1 rhs_a].
    e_top = np.linalg.solve(blocks.t_tensors, rhs_b[..., None])[..., 0]
    e_bot = np.linalg.solve(-blocks.p_tensors, rhs_a[..., None])[..., 0]
    e = np.concatenate([e_top, e_bot])

    q = np.concatenate([blocks.t_tensors, -blocks.p_tensors])  # diagonal blocks [T | -P]
    c = e.copy()
    prev_inc = math.inf
    growth_streak = 0
    for iteration in range(1, max_iter + 1):
        u = np.einsum("iab,ib->ia", blocks.t_tensors, c[:m])  # b-type moments
        v = np.einsum("iab,ib->ia", -blocks.p_tensors, c[m:])  # a-type moments
        sa, sb = blocks.coupling_sums(v, u)
        c_next = e.copy()
        c_next[:m] += sb
        c_next[m:] += sa
        inc = _q_norm(q, c_next - c)
        ref = _q_norm(q, c_next)
        rel = inc / ref if ref > 0.0 else 0.0
        c = c_next
        if rel < tol:
            a = np.einsum("iab,ib->ia", -blocks.p_tensors, c[m:])
            b = np.einsum("iab,ib->ia", blocks.t_tensors, c[:m])
            x = np.concatenate([a.ravel(), b.ravel()])
            return _as_solution(blocks, x, rhs, "neumann", iteration)
        if inc > prev_inc:
            growth_streak += 1
            if growth_streak >= 3:
                raise NoConvergence(
                    f"increment grew for 3 consecutive iterations (iteration {iteration}); "
                    "the coupling is too strong for the fixed-point solve"
                )
        else:
            growth_streak = 0
        prev_inc = inc
    raise NoConvergence(f"no convergence after {max_iter} iterations")


def solve(
    blocks: SystemBlocks,
    rhs,
    method: str = "auto",
    tol: float = 1e-12,
    max_iter: int = 10000,
    cap: int = DIRECT_SOLVE_CAP,
) -> FoldySolution:
    """Dispatch: direct up to ``cap`` bodies, fixed-point iteration beyond."""
    if method == "auto":
        method = "direct" if blocks.m <= cap else "neumann"
    if method == "direct":
        return solve_direct(blocks, rhs, cap=cap)
    if method == "neumann":
        return solve_neumann(blocks, rhs, tol=tol, max_iter=max_iter)
    raise ValueError(f"unknown method {method!r}")


@dataclass
class InvertibilityConstants:
    """Conditioning constants of the interaction system.

    ``c_ls`` is the geometry/frequency constant; ``c_li = 1 - c_ls mu+
    eps^3/delta^3 > 0`` is the sufficient solvability condition and
    ``c_li2 > 0`` the sufficient fixed-point contraction condition.  For
    complex wavenumbers the constants are evaluated with |k| and flagged
    heuristic.
    """

    c_ls: float
    c_li: float
    c_li2: float
    heuristic_k: bool

    @property
    def c_li_positive(self) -> bool:
        return self.c_li > 0.0

    @property
    def c_li2_positive(self) -> bool:
        return self.c_li2 > 0.0

    def as_dict(self) -> dict:
        return {
            "c_ls": self.c_ls,
            "c_li": self.c_li,
            "c_li2": self.c_li2,
            "c_li_positive": self.c_li_positive,
            "c_li2_positive": self.c_li2_positive,
            "heuristic_k": self.heuristic_k,
        }


def invertibility_constants(
    cluster: Cluster,
    spectra: ClusterSpectra,
    k,
    single_layer_norm: float = 1.0,
) -> InvertibilityConstants:
    """Evaluate c_ls, c_li and c_li2 for a cluster.

        c_ls = (1+|k|^2) 64 ((1+|k|/2) D^{1/3} + (|k|/2) D^{2/3}) / (8 pi)
               + 144 ||S|| / pi + sqrt(63) |k|^2 D^{2/3} / (4 pi)

    with D the domain diameter and ||S|| the unit-sphere single-layer norm
    (its spectral value is exactly 1; see oracles.unit_sphere_single_layer_norm).
    """
    k = check_wavenumber(k)
    ak = abs(k)
    d = cluster.domain_diameter
    c_ls = (
        (1.0 + ak**2) * 64.0 * ((1.0 + ak / 2.0) * d ** (1.0 / 3.0) + (ak / 2.0) * d ** (2.0 / 3.0)) / (8.0 * math.pi)
        + 144.0 * single_layer_norm / math.pi
        + math.sqrt(63.0) * ak**2 * d ** (2.0 / 3.0) / (4.0 * math.pi)
    )
    mu_hi = float(spectra.mu_plus_dimensional)
    c_li = 1.0 - c_ls * mu_hi / cluster.delta**3
    c_li2 = 1.0 - 4.0 * mu_hi * interaction_sum(k, cluster.delta, cluster.m)
    return InvertibilityConstants(
        c_ls=float(c_ls), c_li=float(c_li), c_li2=float(c_li2), heuristic_k=k.imag != 0.0
    )


def solution_norm_bound(
    solution: FoldySolution,
    cluster: Cluster,
    spectra: ClusterSpectra,
    wave: PlaneWave,
    constants: InvertibilityConstants,
) -> dict:
    """Conditioning diagnostic comparing the solution norm with its bounds.

    ``stated_bound`` is the reference comparison ``eps^3 ||e|| / (c_li mu-)``;
    it is reported and flagged when exceeded but is not an error (it is not
    guaranteed for every right-hand side composition).  ``provable_bound`` is
    the coercivity consequence ``mu+ eps^3 ||e|| / c_li``, which holds
    whenever ``c_li > 0``.
    """
    e_in, curl_e_in = incident_values(wave, cluster.centers)
    drive = math.sqrt(
        float(np.sum(np.abs(e_in) ** 2)) + float(np.sum(np.abs(curl_e_in) ** 2))
    )
    norm_ab = math.sqrt(
        float(np.sum(np.abs(solution.a_coeffs) ** 2))
        + float(np.sum(np.abs(solution.b_coeffs) ** 2))
    )
    applicable = constants.c_li > 0.0
    stated = spectra.scale**3 * drive / (constants.c_li * spectra.mu_minus) if applicable else math.inf
    provable = spectra.mu_plus_dimensional * drive / constants.c_li if applicable else math.inf
    return {
        "norm": norm_ab,
        "drive_norm": drive,
        "applicable": applicable,
        "stated_bound": stated,
        "stated_violated": bool(applicable and norm_ab > stated * (1.0 + 1e-9)),
        "provable_bound": provable,
        "provable_satisfied": bool(not applicable or norm_ab <= provable * (1.0 + 1e-9)),
    }
