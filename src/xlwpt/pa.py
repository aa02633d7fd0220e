"""Power-allocation solver: Dinkelbach transform with Douglas-Rachford inner loop.

The harvested power is a PSD quadratic form in q = sqrt(omega), so the
harvest prox reduces to a per-user linear solve. A projected-gradient
ascent safeguard guarantees the transformed objective never degrades,
which in turn makes the Dinkelbach ratio trace non-decreasing.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .power import AllocationState, consumed_power, harvested_power

LAMBDA_SLACK = 1e-9          # relative tolerance on the Dinkelbach monotonicity check
_STALL_WINDOW = 10           # DR iterations between step-size stall checks
_STALL_SHRINK = 0.25         # step-size shrink factor when DR residual stalls
_PGA_MAX_ITER = 500          # iteration cap of the monotone ascent safeguard


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
    omega: np.ndarray
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


def _alloc(omega, a_tilde):
    return AllocationState(omega=omega, a=(a_tilde > 0).astype(int),
                           a_tilde=a_tilde)


def build_quadratic(ch, a_tilde):
    """Per-user PSD matrices A[m] with I(q) = sum_m q[:,m]^T A[m] q[:,m].

    The generating vectors are b[s, k, m] = a~_s kappa_{s,m} g_{s,k}^T g_{s,m}^*,
    so A[m][s, s'] = Re sum_k b[s,k,m] conj(b[s',k,m]).
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    b = a_tilde[:, None, None] * ch.kappa[:, None, :] * ch.gram
    return np.real(np.einsum("skm,tkm->mst", b, np.conj(b)))


def quadratic_sup(quad):
    """Largest eigenvalue across the per-user harvest matrices."""
    if quad.size == 0:
        return 0.0
    lam = float(max(np.max(np.linalg.eigvalsh(a)) for a in quad))
    if not np.isfinite(lam):
        raise SolverFault("largest-eigenvalue estimate of the harvest form failed")
    return max(lam, 0.0)


def _harvest_value(quad, q):
    return float(np.einsum("sm,mst,tm->", q, quad, q))


def _consumption_parts(a_tilde, power_cfg, n_users, n_elements):
    """Per-entry transmit slope and fixed circuit power of P_c."""
    slope = (np.asarray(a_tilde, float) / power_cfg.varsigma)[:, None]
    fixed = float(
        np.sum(np.asarray(a_tilde, float)
               * (2.0 * power_cfg.p_syn + n_elements * power_cfg.p_ct))
        + n_users * power_cfg.p_cr
    )
    return slope, fixed


def dinkelbach_phi(ch, omega, a_tilde, lam, power_cfg):
    """Transformed objective I(omega, a~) - lambda * P_c(omega, a~)."""
    alloc = _alloc(np.array(omega, dtype=float), a_tilde)
    harvested = harvested_power(ch, alloc, use_parameterized=True)
    consumed = consumed_power(alloc, power_cfg, ch.n_users, ch.n_elements,
                              use_parameterized=True)
    return harvested - lam * consumed


def _row_cap(v, cap):
    """Project one non-negative row onto {x >= 0, sum x = cap} if its sum exceeds cap."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - cap
    ks = np.arange(1, len(v) + 1)
    tau_cands = css / ks
    valid = tau_cands < u  # u_k - tau_k > 0 keeps coordinate k active
    k = np.nonzero(valid)[0][-1]
    return np.maximum(v - tau_cands[k], 0.0)


def project_feasible(omega_raw, p_sub, p_total, active):
    """Project onto the PA feasible set.

    Clamps negatives, zeroes inactive rows, projects each overweight row onto
    its capped simplex, then rescales all active rows if the total budget
    still binds.
    """
    active = np.asarray(active, dtype=bool)
    omega = np.maximum(np.asarray(omega_raw, dtype=float), 0.0)
    omega[~active, :] = 0.0
    for s in np.nonzero(active)[0]:
        if omega[s].sum() > p_sub:
            omega[s] = _row_cap(omega[s], p_sub)
    total = omega.sum()
    if total > p_total:
        omega *= p_total / total
    return omega


def prox_consumption(z, lam, gamma, power_cfg, a_tilde, n_elements):
    """Prox of gamma * lambda * P_c plus the feasible-set indicator.

    P_c is affine in omega with per-entry slope a~_s / varsigma, so the prox
    is the feasibility projection of the linearly shifted point.
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    slope, _ = _consumption_parts(a_tilde, power_cfg, z.shape[1], n_elements)
    shifted = np.asarray(z, dtype=float) - gamma * lam * slope
    p_sub = power_cfg.p_sub(n_elements)
    p_total = power_cfg.p_total(z.shape[0], n_elements)
    return project_feasible(shifted, p_sub, p_total, a_tilde > 0)


def _prox_neg_harvest_quad(v, gamma, quad):
    """Harvest prox against precomputed per-user matrices (q-space solve)."""
    q0 = np.sqrt(np.maximum(np.asarray(v, dtype=float), 0.0))
    n_sub = q0.shape[0]
    lhs = np.eye(n_sub)[None, :, :] - 2.0 * gamma * quad
    q = np.linalg.solve(lhs, q0.T[:, :, None])[:, :, 0].T
    if not np.all(np.isfinite(q)):
        raise SolverFault("harvest prox produced non-finite iterates")
    return q**2


def prox_neg_harvest(v, gamma, ch, a_tilde):
    """Prox of -gamma * I(., a~) at v via the q = sqrt(omega) substitution.

    Solves (Id - 2 gamma A) q = sqrt(v) per user and squares back; gamma is
    shrunk automatically if 2 gamma lambda_max(A) >= 1 would make the solve
    indefinite.
    """
    quad = build_quadratic(ch, a_tilde)
    lam_max = quadratic_sup(quad)
    if lam_max > 0 and 2.0 * gamma * lam_max >= 1.0:
        gamma = 0.4 / lam_max
    return _prox_neg_harvest_quad(v, gamma, quad)


def _dead_columns(ch, a_tilde):
    """Users whose channels vanish on every active sub-array."""
    reach = (np.asarray(a_tilde, float)[:, None] * ch.norms).max(axis=0)
    return reach == 0.0


def _pga_polish(omega, quad, slope, fixed, lam, p_sub, p_total, active, dead,
                lam_max):
    """Monotone projected-gradient ascent on phi in q-space.

    Never returns a point with smaller phi than the (feasible) input.
    """

    def phi_of(q):
        return (_harvest_value(quad, q)
                - lam * (float(np.sum(slope * q**2)) + fixed))

    q = np.sqrt(omega)
    q[:, dead] = 0.0
    best = phi_of(q)
    lip = 2.0 * lam_max + 2.0 * lam * float(np.max(slope)) if lam_max + lam > 0 else 1.0
    step = 1.0 / lip if lip > 0 else 1.0
    floor = step * 1e-12
    for _ in range(_PGA_MAX_ITER):
        grad = 2.0 * np.einsum("mst,tm->sm", quad, q) - 2.0 * lam * slope * q
        trial_q = np.maximum(q + step * grad, 0.0)
        trial = project_feasible(trial_q**2, p_sub, p_total, active)
        trial[:, dead] = 0.0
        trial_q = np.sqrt(trial)
        val = phi_of(trial_q)
        if val > best:
            gain = val - best
            q, best = trial_q, val
            step *= 1.3
            if gain <= 1e-13 * (abs(best) + 1e-12):
                break
        else:
            step *= 0.5
            if step < floor:
                break
    return q**2, best


def dr_solve(ch, a_tilde, lam, pa_cfg, power_cfg, omega0=None, gamma_init=None):
    """One parametric subproblem solve: DR splitting plus monotone safeguard.

    Returns the feasible allocation together with solve diagnostics. The
    returned phi never falls below the value at the projected start, so the
    caller's ratio updates stay monotone.
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    n_sub, n_users = ch.n_sub, ch.n_users
    n_elements = ch.n_elements
    p_sub = power_cfg.p_sub(n_elements)
    p_total = power_cfg.p_total(n_sub, n_elements)
    active = a_tilde > 0
    dead = _dead_columns(ch, a_tilde)

    quad = build_quadratic(ch, a_tilde)
    lam_max = quadratic_sup(quad)
    slope, fixed = _consumption_parts(a_tilde, power_cfg, n_users, n_elements)

    if omega0 is None:
        omega0 = np.full((n_sub, n_users), p_sub / n_users)
    start = project_feasible(omega0, p_sub, p_total, active)
    start[:, dead] = 0.0

    if gamma_init is not None:
        gamma = gamma_init
    elif lam_max > 0:
        gamma = pa_cfg.gamma / lam_max
    else:
        gamma = pa_cfg.gamma
    if lam_max > 0:
        gamma = min(gamma, 0.45 / lam_max)

    z = start.copy()
    x = start.copy()
    residual = np.inf
    window_best = np.inf
    iters = 0
    for u in range(pa_cfg.max_dr):
        iters = u + 1
        x = prox_consumption(z, lam, gamma, power_cfg, a_tilde, n_elements)
        x[:, dead] = 0.0
        y = _prox_neg_harvest_quad(2.0 * x - z, gamma, quad)
        y[:, dead] = 0.0
        residual = float(np.linalg.norm(y - x))
        if not np.isfinite(residual):
            raise SolverFault("DR splitting produced a non-finite residual "
                              "at sub-iteration %d" % iters)
        if residual <= pa_cfg.dr_residual_tol:
            break
        z = z + (y - x)
        window_best = min(window_best, residual)
        if (u + 1) % _STALL_WINDOW == 0:
            if residual > 0.5 * window_best:
                # residual stalled: shrink the prox step and restart the
                # drift from the last feasible point
                gamma *= _STALL_SHRINK
                z = x.copy()
            window_best = residual

    candidate = project_feasible(x, p_sub, p_total, active)
    candidate[:, dead] = 0.0

    # ascend from both the DR candidate and the start: q = 0 entries are
    # stationary under the sqrt substitution, so a single seed can get stuck
    omega, phi = _pga_polish(candidate, quad, slope, fixed, lam, p_sub,
                             p_total, active, dead, lam_max)
    omega2, phi2 = _pga_polish(start, quad, slope, fixed, lam, p_sub,
                               p_total, active, dead, lam_max)
    if phi2 > phi:
        omega, phi = omega2, phi2
    info = {
        "dr_residual": residual,
        "dr_iterations": iters,
        "gamma": gamma,
        "phi": phi,
    }
    return omega, info


def pa_solve(ch, a_tilde, pa_cfg, power_cfg, omega0=None):
    """Maximize HPE over omega for fixed parameterized activations.

    Alternates the DR subproblem solve with the Dinkelbach ratio update
    until |I - lambda * P_c| <= epsilon. Returns the final allocation and
    the full iteration trace; the lambda trace is non-decreasing.
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    if not np.any(a_tilde > 0):
        raise ValueError("at least one parameterized activation must be positive")
    n_elements = ch.n_elements
    p_sub = power_cfg.p_sub(n_elements)
    p_total = power_cfg.p_total(ch.n_sub, n_elements)
    active = a_tilde > 0
    dead = _dead_columns(ch, a_tilde)

    if omega0 is None:
        omega0 = np.full((ch.n_sub, ch.n_users), p_sub / ch.n_users)
    omega = project_feasible(omega0, p_sub, p_total, active)
    omega[:, dead] = 0.0

    def evaluate(om):
        alloc = _alloc(om, a_tilde)
        harv = harvested_power(ch, alloc, use_parameterized=True)
        cons = consumed_power(alloc, power_cfg, ch.n_users, n_elements,
                              use_parameterized=True)
        return harv, cons

    harvested, consumed = evaluate(omega)
    lam = pa_cfg.lambda0 if pa_cfg.lambda0 is not None else harvested / consumed

    trace = PATrace()
    gamma = None
    for t in range(1, pa_cfg.max_outer + 1):
        tic = time.perf_counter_ns()
        omega_new, info = dr_solve(ch, a_tilde, lam, pa_cfg, power_cfg,
                                   omega0=omega, gamma_init=gamma)
        gamma = info["gamma"]
        harvested, consumed = evaluate(omega_new)
        residual = abs(harvested - lam * consumed)
        lam_new = harvested / consumed
        if lam_new < lam * (1.0 - LAMBDA_SLACK) - LAMBDA_SLACK:
            raise SolverFault(
                "Dinkelbach ratio decreased from %.12g to %.12g" % (lam, lam_new)
            )
        omega = omega_new
        lam = max(lam, lam_new)
        trace.states.append(DinkelbachState(
            t=t,
            lambda_t=lam,
            omega=omega.copy(),
            phi=harvested - lam * consumed,
            harvested=harvested,
            consumed=consumed,
            residual=residual,
            dr_residual=info["dr_residual"],
            dr_iterations=info["dr_iterations"],
            wall_ns=time.perf_counter_ns() - tic,
        ))
        if residual <= pa_cfg.epsilon:
            trace.converged = True
            break
    return omega, trace


def export_pa_trace_csv(trace, path):
    """Per-iteration CSV of one PA solve."""
    lines = ["t,lambda,phi_watts,harvested_watts,consumed_watts,"
             "dinkelbach_residual_watts,dr_residual,wall_ns"]
    for s in trace.states:
        lines.append("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d" % (
            s.t, s.lambda_t, s.phi, s.harvested, s.consumed,
            s.residual, s.dr_residual, s.wall_ns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
