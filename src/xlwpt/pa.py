"""Power-allocation solver: Dinkelbach transform with Douglas-Rachford inner loop.

The harvested power is a PSD quadratic form in q = sqrt(omega), so the
harvest prox reduces to a per-user linear solve. A projected-gradient
ascent safeguard guarantees the transformed objective never degrades,
which in turn makes the Dinkelbach ratio trace non-decreasing.

The operators below take lane stacks (leading axes); the solver loops run
in ``lanes``, and ``dr_solve`` and ``pa_solve`` are its one-lane calls.
"""

from dataclasses import dataclass, field

import numpy as np

from .power import AllocationState, consumed_power, harvested_power, uniform_split

LAMBDA_SLACK = 1e-9          # relative tolerance on the Dinkelbach monotonicity check


class SolverFault(RuntimeError):
    """Raised when the solver produces non-finite or inconsistent iterates."""


@dataclass(frozen=True)
class PAConfig:
    """Tolerances and caps of the PA procedure.

    epsilon : Dinkelbach stopping tolerance on |I - lambda * P_c| [W]
    max_outer : Dinkelbach iteration cap
    max_dr : Douglas-Rachford sub-iteration cap
    dr_residual_tol : tolerance on the DR residual ||y - x||
    gamma : prox step as a dimensionless multiple of 1/lambda_max(A)
    lambda0 : initial ratio guess; None starts from the HPE of the
        initial iterate, which keeps the ratio trace non-decreasing
        from the very first update
    """

    epsilon: float = 1e-7
    max_outer: int = 200
    max_dr: int = 600
    dr_residual_tol: float = 1e-6
    gamma: float = 0.08
    lambda0: float | None = None

    def __post_init__(self):
        if not (self.epsilon > 0 and self.gamma > 0 and self.dr_residual_tol > 0):
            raise ValueError("epsilon, gamma and dr_residual_tol must be positive")
        if self.max_outer < 1 or self.max_dr < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass
class DinkelbachState:
    """One accepted Dinkelbach iteration."""

    t: int
    lambda_t: float
    phi: float
    harvested: float
    consumed: float
    residual: float
    dr_residual: float
    dr_iterations: int
    wall_ns: int


@dataclass
class PATrace:
    """Full record of one PA solve."""

    states: list = field(default_factory=list)
    converged: bool = False

    @property
    def lambda_trace(self):
        return [s.lambda_t for s in self.states]

    @property
    def n_iterations(self):
        return len(self.states)


def build_quadratic(ch, a_tilde):
    """Per-user PSD matrices A[m] with I(q) = sum_m q[:,m]^T A[m] q[:,m].

    The generating vectors are b[s, k, m] = a~_s kappa_{s,m} g_{s,k}^T g_{s,m}^*,
    so A[m][s, s'] = Re sum_k b[s,k,m] conj(b[s',k,m]). Leading axes of
    ``a_tilde`` are lanes: (..., S) gives (..., M, S, S).
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    b = a_tilde[..., :, None, None] * ch.kappa[:, None, :] * ch.gram
    return np.real(np.einsum("...skm,...tkm->...mst", b, np.conj(b)))


def quadratic_sup(quad):
    """Largest eigenvalue across the per-user harvest matrices, per lane."""
    lam = np.linalg.eigvalsh(quad).max(axis=(-2, -1))
    if not np.all(np.isfinite(lam)):
        raise SolverFault("largest-eigenvalue estimate of the harvest form failed")
    lam = np.maximum(lam, 0.0)
    return float(lam) if lam.ndim == 0 else lam


def _consumption_parts(a_tilde, power_cfg, n_users, n_elements):
    """Per-entry transmit slope and fixed circuit power of P_c, per lane."""
    a_tilde = np.asarray(a_tilde, float)
    slope = (a_tilde / power_cfg.varsigma)[..., :, None]
    fixed = (np.sum(a_tilde * (2.0 * power_cfg.p_syn + n_elements * power_cfg.p_ct),
                    axis=-1)
             + n_users * power_cfg.p_cr)
    return slope, fixed


def dinkelbach_phi(ch, omega, a_tilde, lam, power_cfg):
    """Transformed objective I(omega, a~) - lambda * P_c(omega, a~)."""
    alloc = AllocationState(omega=omega, a=(np.asarray(a_tilde) > 0).astype(int),
                            a_tilde=a_tilde)
    harvested = harvested_power(ch, alloc, use_parameterized=True)
    consumed = consumed_power(alloc, power_cfg, ch.n_users, ch.n_elements,
                              use_parameterized=True)
    return harvested - lam * consumed


def project_feasible(omega_raw, p_sub, p_total, active):
    """Project onto the PA feasible set; leading axes are lanes.

    Clamps negatives, zeroes inactive rows, projects every overweight row
    onto its capped simplex with the sort-based rule (Duchi et al. 2008),
    then rescales a lane's rows if its total budget still binds.
    """
    active = np.asarray(active, dtype=bool)
    omega = np.maximum(np.asarray(omega_raw, dtype=float), 0.0)
    omega[~active] = 0.0
    over = omega.sum(axis=-1) > p_sub
    if over.any():
        v = omega[over]
        u = np.sort(v, axis=-1)[:, ::-1]
        tau = (np.cumsum(u, axis=-1) - p_sub) / np.arange(1, v.shape[-1] + 1)
        # the last k with u_k > tau_k keeps coordinate k active
        k = v.shape[-1] - 1 - np.argmax((tau < u)[:, ::-1], axis=-1)
        omega[over] = np.maximum(v - tau[np.arange(len(v)), k][:, None], 0.0)
    total = omega.sum(axis=(-2, -1), keepdims=True)
    binds = total > p_total
    if binds.any():
        omega *= np.where(binds, p_total / np.maximum(total, p_total), 1.0)
    return omega


def _consumption_prox(z, step, slope, p_sub, p_total, active):
    """``prox_consumption`` from its parts: ``step`` = gamma * lambda per lane,
    P_c's per-entry ``slope`` and the feasible-set mask ``active``, which
    the DR loop takes from its lanes once for its whole run.
    """
    shifted = z - np.asarray(step)[..., None, None] * slope
    return project_feasible(shifted, p_sub, p_total, active)


def prox_consumption(z, lam, gamma, power_cfg, a_tilde, n_elements):
    """Prox of gamma * lambda * P_c plus the feasible-set indicator.

    P_c is affine in omega with per-entry slope a~_s / varsigma, so the prox
    is the feasibility projection of the linearly shifted point. ``lam``
    and ``gamma`` are scalars or one value per lane.
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    z = np.asarray(z, dtype=float)
    slope, _ = _consumption_parts(a_tilde, power_cfg, z.shape[-1], n_elements)
    return _consumption_prox(z, gamma * lam, slope, power_cfg.p_sub(n_elements),
                             power_cfg.p_total(z.shape[-2], n_elements), a_tilde > 0)


def _harvest_matrix(gamma, quad):
    """I - 2 gamma A per lane and user: the harvest prox's linear system."""
    return (np.eye(quad.shape[-1])
            - np.asarray(2.0 * gamma)[..., None, None, None] * quad)


def _harvest_prox(v, lhs):
    """The harvest prox at v given its system ``lhs`` from ``_harvest_matrix``.

    Solves lhs q = sqrt(v) per user and squares back.
    """
    q0 = np.sqrt(np.maximum(np.asarray(v, dtype=float), 0.0))
    q = np.linalg.solve(lhs, np.swapaxes(q0, -1, -2)[..., None])[..., 0]
    if not np.all(np.isfinite(q)):
        raise SolverFault("harvest prox produced non-finite iterates")
    return np.swapaxes(q, -1, -2)**2


def prox_neg_harvest(v, gamma, quad):
    """Prox of -gamma * I(., a~) at v via the q = sqrt(omega) substitution.

    ``quad`` holds the per-user matrices of ``build_quadratic``. Solves
    (Id - 2 gamma A) q = sqrt(v) per user and squares back; the caller
    keeps 2 gamma lambda_max(A) < 1 so that the solve stays definite.
    """
    return _harvest_prox(v, _harvest_matrix(gamma, quad))


def dr_solve(ch, a_tilde, lam, pa_cfg, power_cfg, omega0=None):
    """One parametric subproblem solve: DR splitting plus monotone safeguard.

    Returns the feasible allocation together with solve diagnostics. The
    returned phi never falls below the value at the projected start, so the
    caller's ratio updates stay monotone.
    """
    from . import lanes  # imported here: the lane core builds on this module

    a_tilde = np.asarray(a_tilde, dtype=float)
    stack = lanes.Lanes.build(ch, a_tilde[None], power_cfg)
    if omega0 is None:
        omega0 = uniform_split(ch, power_cfg)
    gamma = lanes.initial_gamma(stack.lam_max, pa_cfg)
    omega, info = lanes.dr_step(ch, stack, np.array([lam], dtype=float), gamma,
                                np.asarray(omega0, dtype=float)[None], pa_cfg, power_cfg)
    return omega[0], {key: value[0].item() for key, value in info.items()}


def pa_solve(ch, a_tilde, pa_cfg, power_cfg, omega0=None):
    """Maximize HPE over omega for fixed parameterized activations.

    Alternates the DR subproblem solve with the Dinkelbach ratio update
    until |I - lambda * P_c| <= epsilon. Returns the final allocation and
    the full iteration trace; the lambda trace is non-decreasing.
    """
    from .lanes import solve_lanes  # imported here: the lane core builds on this module

    a_tilde = np.asarray(a_tilde, dtype=float)
    if not np.any(a_tilde > 0):
        raise ValueError("at least one parameterized activation must be positive")
    start = None if omega0 is None else np.asarray(omega0, dtype=float)[None]
    omega, log = solve_lanes(ch, a_tilde[None], pa_cfg, power_cfg, start)
    return omega[0], log.trace(0)

