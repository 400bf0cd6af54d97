"""Scattered-field evaluation and error budgets.

Given the solved dipole coefficients, the scattered electric field away from
the cluster is

    E_s(x) = sum_i ( grad_phi(x, z_i) x a_i - Pi(x, z_i) b_i )

(the second term is the mixed double curl of the scalar kernel times a
constant vector, giving the dipole-kernel matrix with a minus sign; this is
the sign for which the rescaled near field converges to the far-field
amplitude), and for real wavenumbers the angular far-field amplitude is

    E_inf(tau) = (ik / 4 pi) sum_i exp(-ik tau.z_i) tau x (a_i - ik tau x b_i).

The budget functions evaluate the magnitudes of the model's error terms as
explicit monomials in (eps, 1/delta, m) with order-one coefficients; they are
order-of-magnitude indicators ("unnormalized"), not certified bounds, because
the true prefactors depend on untabulated shape constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .foldy import FoldySolution, InvertibilityConstants, PlaneWave
from .geometry import Cluster, _screen
from .greens import CoincidentPoints, coupling_kernels
from .layerops import ClusterSpectra

__all__ = [
    "ComplexWavenumberFarField",
    "CoincidentWithCenter",
    "NearFieldProximityWarning",
    "FarFieldSample",
    "BudgetTerm",
    "ErrorBudget",
    "far_field",
    "near_field",
    "varepsilon_kdm",
    "error_budget",
    "budget_terms",
]

_UNIT_TOL = 1e-12


class ComplexWavenumberFarField(ValueError):
    """Far-field pattern is only defined for real wavenumbers (Im k = 0)."""


class CoincidentWithCenter(ValueError):
    """Near-field evaluation point coincides with a body center."""


class NearFieldProximityWarning(UserWarning):
    """Evaluation point closer to the cluster than the body gap delta."""


@dataclass
class FarFieldSample:
    """Angular amplitude in one observation direction (tau . e_inf = 0)."""

    tau: np.ndarray
    e_inf: np.ndarray


def far_field(solution: FoldySolution, cluster: Cluster, wave: PlaneWave, taus) -> list[FarFieldSample]:
    """Far-field amplitudes in the given unit observation directions."""
    if wave.k.imag > 0.0:
        raise ComplexWavenumberFarField("far-field pattern requires Im k = 0")
    k = wave.k.real
    taus = np.asarray(taus, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(taus, axis=1)
    if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
        raise ValueError("observation directions must be unit vectors")
    z = cluster.centers
    phases = np.exp(-1j * k * (taus @ z.T))  # (n_tau, m)
    inner = solution.a_coeffs[None, :, :] - 1j * k * np.cross(
        taus[:, None, :], solution.b_coeffs[None, :, :]
    )
    summed = (phases[:, :, None] * np.cross(taus[:, None, :], inner)).sum(axis=1)
    e_inf = (1j * k / (4.0 * np.pi)) * summed
    return [FarFieldSample(tau=taus[i].copy(), e_inf=e_inf[i]) for i in range(len(taus))]


def near_field(solution: FoldySolution, cluster: Cluster, wave: PlaneWave, points) -> np.ndarray:
    """Scattered electric field at the given points (allowed for Im k >= 0).

    Points closer to the cluster than ``delta`` trigger
    `NearFieldProximityWarning` (the expansion is stated at that standoff);
    the closest point-body pairs are found by the screen of `geometry`.  A
    point on a body center raises `CoincidentWithCenter`.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points must be finite")
    if cluster.m >= 2 and np.isfinite(cluster.delta):

        def distance(p, j):
            return cluster.bodies[j].surface_distance_to_point(pts[p])

        near = _screen(pts, np.zeros(len(pts)), cluster.centers, cluster.reach, distance)
        closest = min((distance(p, j) for p, j in near), default=math.inf)
        if closest < cluster.delta * (1.0 - 1e-12):
            warnings.warn(
                f"evaluation point at distance {closest:g} from the cluster is closer "
                f"than the body gap {cluster.delta:g}; accuracy there is uncontrolled",
                NearFieldProximityWarning,
                stacklevel=2,
            )
    disp = pts[:, None, :] - cluster.centers[None, :, :]
    try:
        grad, pi = coupling_kernels(wave.k, disp)
    except CoincidentPoints as exc:
        raise CoincidentWithCenter("evaluation point coincides with a body center") from exc
    field = np.cross(grad, solution.a_coeffs[None, :, :]).sum(axis=1)
    field -= np.einsum("pjab,jb->pa", pi, solution.b_coeffs)
    return field


def varepsilon_kdm(k, delta: float, m: int) -> float:
    """Interaction-sum magnitude (|k|+1) ln(m^{1/3})/d^3 + (|k|+1)^2 m^{1/3}/d^2
    + (|k|+1)^3 m^{2/3}/d."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return sum(term[1] for term in _interaction_monomials(abs(complex(k)), delta, m))


@dataclass(frozen=True)
class BudgetTerm:
    """One monomial error contribution with its declared scaling exponents.

    ``value = coefficient * eps^eps_power / delta^inv_delta_power * m^m_power``
    times ``ln(m^{1/3})`` when ``log_m`` is set.  The exponents make the
    power-law behaviour checkable exactly: doubling one parameter multiplies
    the value by 2^power (and by the log ratio for log terms).
    """

    name: str
    value: float
    eps_power: int
    inv_delta_power: int
    m_power: float
    log_m: bool = False

    def rescale_factor(self, eps_factor=1.0, delta_factor=1.0, m_old=None, m_new=None) -> float:
        f = eps_factor**self.eps_power / delta_factor**self.inv_delta_power
        if m_old is not None and m_new is not None:
            f *= (m_new / m_old) ** self.m_power
            if self.log_m:
                lo = math.log(m_old ** (1.0 / 3.0))
                ln = math.log(m_new ** (1.0 / 3.0))
                f *= ln / lo if lo != 0.0 else math.inf
        return f


@dataclass
class ErrorBudget:
    """Evaluated error magnitudes of the field expansions.

    ``near_field_terms`` / ``far_field_terms`` are the group totals;
    ``terms`` is the monomial breakdown.  ``valid`` is False when either
    conditioning constant is nonpositive, in which case the prefactor-bearing
    values are NaN (the expansions carry no error control there).
    """

    varepsilon_kdm: float
    near_field_terms: dict
    far_field_terms: dict
    terms: list
    valid: bool

    def as_dict(self) -> dict:
        return {
            "varepsilon_kdm": self.varepsilon_kdm,
            "near_field_terms": dict(self.near_field_terms),
            "far_field_terms": dict(self.far_field_terms),
            "valid": self.valid,
            "terms": [
                {
                    "name": t.name,
                    "value": t.value,
                    "eps_power": t.eps_power,
                    "inv_delta_power": t.inv_delta_power,
                    "m_power": t.m_power,
                    "log_m": t.log_m,
                }
                for t in self.terms
            ],
        }


def _interaction_monomials(ak, delta, m):
    """The three summands of varepsilon_kdm with their exponents."""
    return [
        ("v_log", (ak + 1.0) * math.log(m ** (1.0 / 3.0)) / delta**3, 3, 0.0, True),
        ("v_m13", (ak + 1.0) ** 2 * m ** (1.0 / 3.0) / delta**2, 2, 1.0 / 3.0, False),
        ("v_m23", (ak + 1.0) ** 3 * m ** (2.0 / 3.0) / delta, 1, 2.0 / 3.0, False),
    ]


def budget_terms(
    eps: float,
    delta: float,
    m: int,
    k,
    mu_plus: float,
    mu_minus: float,
    c_li: float,
    c_li2: float,
) -> list[BudgetTerm]:
    """Monomial error terms for explicit parameters (core of `error_budget`).

    ``mu_plus``/``mu_minus`` must be normalized consistently with ``eps``.
    The conditioning constants are taken as given so that scaling laws can be
    probed with everything else held fixed.
    """
    ak = abs(complex(k))
    pref4 = 1.0 / (c_li2 * mu_minus * mu_plus)
    pref7 = 1.0 / (c_li2 * mu_minus)
    far_pref = (ak / (2.0 * math.pi)) * max(1.0, ak) / (c_li * mu_minus)

    terms = [
        BudgetTerm("near4_core", pref4 * eps**4 / delta**4, 4, 4, 0.0),
        BudgetTerm("near4_tail", pref4 * max(1.0 + ak, ak**2) * eps, 1, 0, 0.0),
    ]
    for name, val, dpow, mpow, logm in _interaction_monomials(ak, delta, m):
        terms.append(
            BudgetTerm(f"near4_{name}", pref4 * (1.0 + ak) * val * eps**4, 4, dpow, mpow, logm)
        )
    terms += [
        BudgetTerm("near7_core", pref7 * eps**7 / delta**7, 7, 7, 0.0),
        BudgetTerm(
            "near7_d6", pref7 * max(1.0, ak + ak**2 + ak**3) / delta**6 * eps**7, 7, 6, 0.0
        ),
        BudgetTerm("near7_d5", pref7 * max(1.0, ak**2) / delta**5 * eps**7, 7, 5, 0.0),
        BudgetTerm("far_dipole", (ak**3 + ak**2) * m * eps**4, 4, 0, 1.0),
        BudgetTerm("far_solve_core", far_pref * eps**4 / delta**4 * m * eps**3, 7, 4, 1.0),
        BudgetTerm(
            "far_solve_tail", far_pref * max(1.0 + ak, ak**2) * eps * m * eps**3, 4, 0, 1.0
        ),
    ]
    for name, val, dpow, mpow, logm in _interaction_monomials(ak, delta, m):
        terms.append(
            BudgetTerm(
                f"far_solve_{name}",
                far_pref * (1.0 + ak) * val * eps**4 * m * eps**3,
                7,
                dpow,
                1.0 + mpow,
                logm,
            )
        )
    return terms


def error_budget(
    cluster: Cluster,
    spectra: ClusterSpectra,
    k,
    constants: InvertibilityConstants,
) -> ErrorBudget:
    """Evaluate the field-expansion error magnitudes for a cluster."""
    valid = constants.c_li > 0.0 and constants.c_li2 > 0.0
    vk = varepsilon_kdm(k, cluster.delta, cluster.m)
    if not valid:
        nan = math.nan
        return ErrorBudget(
            varepsilon_kdm=vk,
            near_field_terms={"eps4_group": nan, "eps7_group": nan},
            far_field_terms={
                "dipole_group": (abs(complex(k)) ** 3 + abs(complex(k)) ** 2)
                * cluster.m
                * cluster.epsilon**4,
                "solve_group": nan,
            },
            terms=[],
            valid=False,
        )
    terms = budget_terms(
        eps=cluster.epsilon,
        delta=cluster.delta,
        m=cluster.m,
        k=k,
        mu_plus=spectra.mu_plus,
        mu_minus=spectra.mu_minus,
        c_li=constants.c_li,
        c_li2=constants.c_li2,
    )
    by_prefix = lambda p: sum(t.value for t in terms if t.name.startswith(p))
    return ErrorBudget(
        varepsilon_kdm=vk,
        near_field_terms={"eps4_group": by_prefix("near4"), "eps7_group": by_prefix("near7")},
        far_field_terms={
            "dipole_group": by_prefix("far_dipole"),
            "solve_group": by_prefix("far_solve"),
        },
        terms=terms,
        valid=True,
    )
