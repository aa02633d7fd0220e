"""Power-allocation solver: Dinkelbach ratio loop around DR splitting.

The harvested power is a PSD quadratic form in q = sqrt(omega), so the
harvest prox reduces to a per-user linear solve. A projected-gradient
ascent polish never lets the transformed objective degrade, which in turn
makes the Dinkelbach ratio trace non-decreasing.

The operators take lane stacks (leading axes). The solver loops run on a
lane stack (``Lanes``): B problems on one channel set along one leading
lane axis, the only batch axis, as the polish's two seeds per problem
are lanes too. Each lane has its own activation vector, ratio, step
sizes and stopping rules, leaves the working arrays when it stops, and
repeats the arithmetic of a one-lane solve exactly, so it gives the bits
of a one-lane call: ``pa_solve`` and ``dr_solve`` are one-lane calls,
PA-ES solves its subsets as stacks, and ``baselines.opening_lanes``
stacks PA-FA with PA-SA's first PA solve.

A lane stack carries its feasible set, and callers pass a start as it
is, or none for the uniform split: only the lane core projects a start.
Every loop retires its stopped lanes with ``Lanes.take``, and every
projection goes through ``Lanes.project``, which masks with
``Lanes.allowed``, a lane's active rows restricted to the users some
active row reaches: starts, the DR loop's consumption prox, DR
candidates and polish trials. A user no active sub-array reaches is thus
given no power: the start projections zero its entries, and the
operators keep them zero (its harvest matrix is 0, its consumption-prox
input <= 0 and its polish gradient 0).

The polish tries one step per lane and pass while every lane accepts.
After a rejection, a pass tries each lane's next halvings together, from
the same point and gradient (at most ``_PGA_MAX_BATCH``, and
``_PGA_BATCH_ENTRIES`` trial entries per pass), and each lane takes its
first trial that is accepted, stops it or reaches its trial cap. Halving
is exact, so every lane keeps the bits and trial count of the one-trial
ascent; only the number of passes drops.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .power import consumed_lanes, harvested_lanes, uniform_split

LAMBDA_SLACK = 1e-9          # relative tolerance on the Dinkelbach monotonicity check
_SHRINK_EVERY = 10           # DR iterations between prox-step shrinks
_SHRINK = 0.25               # prox-step shrink factor
_PGA_MAX_ITER = 500          # trial cap of each lane of the monotone ascent safeguard
_PGA_BATCH_ENTRIES = 1024    # trial entries k * B * S * M of one batched polish pass
_PGA_MAX_BATCH = 16          # most trials per lane in one polish pass


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
    pga_trials: int          # polish trials of the winning seed
    pga_seed: int            # winning polish seed: 0 the DR candidate, 1 the start
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
    return np.maximum(lam, 0.0)


def _consumption_parts(a_tilde, power_cfg, n_users, n_elements):
    """Per-entry transmit slope and fixed circuit power of P_c, per lane."""
    a_tilde = np.asarray(a_tilde, float)
    slope = (a_tilde / power_cfg.varsigma)[..., :, None]
    fixed = (np.sum(a_tilde * (2.0 * power_cfg.p_syn + n_elements * power_cfg.p_ct),
                    axis=-1)
             + n_users * power_cfg.p_cr)
    return slope, fixed


def project_feasible(omega_raw, p_sub, active):
    """Project onto the PA feasible set; leading axes are lanes.

    Clamps negatives, zeroes inactive rows and projects every overweight
    row onto its capped simplex with the sort-based rule (Duchi et al.
    2008). No total budget is needed: P_t = S * P_s, so the row caps imply
    it for any activation; ``AllocationState.validate`` still checks it.
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
    return omega


def prox_consumption(z, lam, gamma, power_cfg, a_tilde, n_elements):
    """Prox of gamma * lambda * P_c plus the feasible-set indicator.

    P_c is affine in omega with per-entry slope a~_s / varsigma, so the prox
    is the feasibility projection of the linearly shifted point. ``lam``
    and ``gamma`` are scalars or one value per lane.
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    z = np.asarray(z, dtype=float)
    slope, _ = _consumption_parts(a_tilde, power_cfg, z.shape[-1], n_elements)
    shifted = z - np.asarray(gamma * lam)[..., None, None] * slope
    return project_feasible(shifted, power_cfg.p_sub(n_elements), a_tilde > 0)


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


@dataclass
class Lanes:
    """Fixed data of B PA problems on one channel set, one row per lane."""

    a_tilde: np.ndarray      # (B, S) parameterized activations
    allowed: np.ndarray      # (B, S, M) active row, user some active row reaches
    quad: np.ndarray         # (B, M, S, S) harvest matrices
    lam_max: np.ndarray      # (B,) largest eigenvalue of each lane's matrices
    slope: np.ndarray        # (B, S, 1) transmit slope of P_c
    fixed: np.ndarray        # (B,) circuit power of P_c
    p_sub: float             # per-sub-array budget P_s, shared by all lanes

    @classmethod
    def build(cls, ch, a_tilde, power_cfg):
        # a (B, M, S, S) view of a C-contiguous (B, S, S, M) array: the
        # einsum output's memory order, in which the harvest einsums sum,
        # and one whose lanes ``take`` gathers in one copy; the copy also
        # frees the complex buffer that the real view would keep alive
        quad = np.moveaxis(np.ascontiguousarray(
            np.moveaxis(build_quadratic(ch, a_tilde), 1, -1)), -1, 1)
        slope, fixed = _consumption_parts(a_tilde, power_cfg, ch.n_users,
                                          ch.n_elements)
        reached = (a_tilde[:, :, None] * ch.norms).max(axis=1) > 0.0
        allowed = (a_tilde > 0)[:, :, None] & reached[:, None, :]
        return cls(a_tilde, allowed, quad, quadratic_sup(quad), slope, fixed,
                   power_cfg.p_sub(ch.n_elements))

    def take(self, idx):
        """The lanes at ``idx``.

        The harvest matrices keep their memory order: the einsum of the
        harvest value sums in stride order, so another order would change
        its last bits. They are gathered along the leading axis of the
        contiguous array, in one copy: a gather into the strided
        (B, M, S, S) view would also copy the source and buffer the output.
        """
        quad = np.moveaxis(np.moveaxis(self.quad, 1, -1)[idx], -1, 1)
        return Lanes(self.a_tilde[idx], self.allowed[idx], quad, self.lam_max[idx],
                     self.slope[idx], self.fixed[idx], self.p_sub)

    def project(self, omega):
        """``omega`` (..., B, S, M) projected onto each lane's feasible set."""
        allowed = self.allowed
        if omega.ndim > allowed.ndim:
            allowed = np.broadcast_to(allowed, omega.shape)
        return project_feasible(omega, self.p_sub, allowed)


def _polish(lanes, lane_of, lam, seeds):
    """Monotone projected-gradient ascent on phi in q-space, one seed per lane.

    ``seeds`` holds one feasible start per polish lane, and polish lane i
    is lane ``lane_of[i]`` of ``lanes``; each ascends on its own, never
    ends below its starting phi, and leaves the working arrays once it
    stops. A trial is accepted if it raises phi (the step then grows by
    1.3) and rejected otherwise (the step halves); a lane stops on an
    accepted trial that gains too little, once its step falls below its
    floor, or after ``_PGA_MAX_ITER`` trials.

    A rejection leaves q and the gradient as they are, so after any
    rejection a pass tries the next ``k`` steps of every lane at once,
    step * 2**-j for j < k, and each lane takes its first trial that is
    accepted, stops it or is its last. Halving by a power of two is exact,
    so every lane takes the trials, bits and stopping pass of the one-trial
    ascent; ``k`` keeps k * B * S * M within ``_PGA_BATCH_ENTRIES``. Returns
    the ascended points, their phi and each lane's trial count.
    """

    def phi_of(work, q):
        # q holds (..., B, S, M) points: leading axes are trials of each lane
        harvest = np.einsum("...bsm,bmst,...btm->...b", q, work.quad, q)
        transmit = (work.slope * q**2).reshape(q.shape[:-2] + (-1,)).sum(axis=-1)
        return harvest - lam * (transmit + work.fixed)

    work = lanes.take(lane_of)
    q = np.sqrt(seeds)
    best = phi_of(work, q)
    lip = np.where(work.lam_max + lam > 0,
                   2.0 * work.lam_max + 2.0 * lam * work.slope.max(axis=(1, 2)),
                   1.0)
    step = 1.0 / np.where(lip > 0, lip, 1.0)
    floor = step * 1e-12
    n, size = len(q), q[0].size
    q_out, best_out = np.empty_like(q), np.empty_like(best)
    trials_out = np.empty(n, dtype=int)
    run, trials = np.arange(n), np.zeros(n, dtype=int)
    # column j: the step factor 2**-j and the trial count after trial j
    ladder = np.ldexp(1.0, -np.arange(_PGA_MAX_BATCH))[:, None]
    counts = np.arange(1, _PGA_MAX_BATCH + 1)[:, None]
    k = 1
    while True:
        grad = (2.0 * np.einsum("bmst,btm->bsm", work.quad, q)
                - (2.0 * lam)[:, None, None] * work.slope * q)
        steps = step if k == 1 else step * ladder[:k]
        trial_q = np.maximum(q + steps[..., None, None] * grad, 0.0)
        trial_q = np.sqrt(work.project(trial_q**2))
        val = phi_of(work, trial_q)
        j = 0
        if k > 1:
            # each lane's first trial that is accepted, stops it or is its
            # last; a lane with none takes trial k - 1, rejected
            ends = ((val > best) | (steps * 0.5 < floor)
                    | (trials + counts[:k] >= _PGA_MAX_ITER))
            ends[-1] = True
            j = ends.argmax(axis=0)
            pick = (j, np.arange(len(run)))
            trial_q, val, steps = trial_q[pick], val[pick], steps[pick]
        up = val > best
        gain = val - best
        q = np.where(up[:, None, None], trial_q, q)
        best = np.where(up, val, best)
        step = np.where(up, steps * 1.3, steps * 0.5)
        trials = trials + (j + 1)
        stop = (np.where(up, gain <= 1e-13 * (np.abs(best) + 1e-12), step < floor)
                | (trials >= _PGA_MAX_ITER))
        if stop.any():
            fin = run[stop]
            q_out[fin], best_out[fin] = q[stop], best[stop]
            trials_out[fin] = trials[stop]
            keep = np.flatnonzero(~stop)
            run, q, best, step, floor, lam, trials = (
                a[keep] for a in (run, q, best, step, floor, lam, trials))
            if not len(run):
                break
            # freed before the gather from ``lanes``, so that no two
            # working copies of the harvest matrices are alive at once
            del work
            work = lanes.take(lane_of[run])
        k = 1 if up.all() else max(1, min(_PGA_MAX_BATCH,
                                          _PGA_BATCH_ENTRIES // (len(run) * size)))
    return q_out**2, best_out, trials_out


def _dr_loop(lanes, lam, gamma, start, pa_cfg):
    """Douglas-Rachford splitting per lane from feasible starts.

    A lane leaves the working arrays once its residual meets the
    tolerance. Every ``_SHRINK_EVERY`` iterations each running lane's prox
    step shrinks by ``_SHRINK`` and its drift restarts from the last
    feasible point, so the harvest prox's system is rebuilt only then.
    Returns each lane's last prox-consumption point, residual, iteration
    count and prox step.
    """
    n = len(lam)
    x_out = np.empty_like(start)
    residual_out, gamma_out = np.empty(n), np.empty(n)
    iters_out = np.empty(n, dtype=int)
    run = np.arange(n)
    z = start.copy()
    step, lhs = gamma * lam, _harvest_matrix(gamma, lanes.quad)
    for u in range(pa_cfg.max_dr):
        x = lanes.project(z - step[:, None, None] * lanes.slope)
        y = _harvest_prox(2.0 * x - z, lhs)
        # a stacked dot per lane: the same BLAS ddot as np.linalg.norm
        f = (y - x).reshape(len(run), 1, -1)
        residual = np.sqrt((f @ f.transpose(0, 2, 1))[:, 0, 0])
        if not np.all(np.isfinite(residual)):
            raise SolverFault("DR splitting produced a non-finite residual "
                              "at sub-iteration %d" % (u + 1))
        done = residual <= pa_cfg.dr_residual_tol
        if done.any():
            fin = run[done]
            x_out[fin], residual_out[fin] = x[done], residual[done]
            iters_out[fin], gamma_out[fin] = u + 1, gamma[done]
            keep = np.flatnonzero(~done)
            run, x, y, z, residual, lam, gamma, step, lhs = (
                a[keep] for a in (run, x, y, z, residual, lam, gamma, step, lhs))
            if not len(run):
                break
            lanes = lanes.take(keep)
        z = z + (y - x)
        if (u + 1) % _SHRINK_EVERY == 0:
            gamma = gamma * _SHRINK
            z = x
            step, lhs = gamma * lam, _harvest_matrix(gamma, lanes.quad)
    x_out[run], residual_out[run] = x, residual
    iters_out[run], gamma_out[run] = pa_cfg.max_dr, gamma
    return x_out, residual_out, iters_out, gamma_out


def dr_step(lanes, lam, gamma, omega0, pa_cfg):
    """One parametric subproblem solve per lane: DR splitting plus polish.

    ``lam`` and ``gamma`` hold one value per lane and ``omega0`` one
    start per lane. The polish runs each lane's DR candidate and projected
    start as two lanes and keeps the better. Returns the feasible
    allocations and per-lane diagnostics; each lane's phi is never below
    its value at the projected start, so the ratio updates stay monotone.
    """
    start = lanes.project(omega0)
    scaled = lanes.lam_max > 0
    cap = 0.45 / np.where(scaled, lanes.lam_max, 1.0)
    gamma = np.where(scaled, np.minimum(gamma, cap), gamma)
    x, residual, iters, gamma = _dr_loop(lanes, lam, gamma, start, pa_cfg)

    candidate = lanes.project(x)
    # ascend from both the DR candidate and the start: q = 0 entries are
    # stationary under the sqrt substitution, so a single seed can get stuck
    n = len(lam)
    pair = np.tile(np.arange(n), 2)
    omega, phi, trials = _polish(lanes, pair, lam[pair],
                                 np.concatenate([candidate, start]))
    second = phi[n:] > phi[:n]
    info = {
        "dr_residual": residual,
        "dr_iterations": iters,
        "gamma": gamma,
        "phi": np.where(second, phi[n:], phi[:n]),
        "pga_trials": np.where(second, trials[n:], trials[:n]),
        "pga_seed": second.astype(int),
    }
    return np.where(second[:, None, None], omega[n:], omega[:n]), info


def initial_gamma(lam_max, pa_cfg):
    """Each lane's first prox step: ``pa_cfg.gamma`` in units of 1/lambda_max."""
    scaled = lam_max > 0
    return np.where(scaled, pa_cfg.gamma / np.where(scaled, lam_max, 1.0), pa_cfg.gamma)


class LaneLog:
    """Dinkelbach iterations of a lane stack, kept as per-iteration arrays.

    Each row holds the indices of the lanes that ran that iteration and
    their records, one array per lane keyed by its ``DinkelbachState``
    field name; a lane's ``PATrace`` is built only when asked for.
    """

    def __init__(self, n_lanes):
        self.rows = []
        self.converged = np.zeros(n_lanes, dtype=bool)

    def trace(self, lane):
        trace = PATrace(converged=bool(self.converged[lane]))
        for t, run, wall_ns, records in self.rows:
            i = np.searchsorted(run, lane)
            if i == len(run) or run[i] != lane:
                break
            trace.states.append(DinkelbachState(
                t=t, wall_ns=wall_ns,
                **{name: values[i].item() for name, values in records.items()}))
        return trace


def solve_lanes(ch, a_tilde, pa_cfg, power_cfg, omega0=None):
    """Maximize HPE over omega for each row of ``a_tilde``, all rows at once.

    ``a_tilde`` is (B, S) and ``omega0`` an optional (B, S, M) start. Each
    lane runs its own Dinkelbach loop and leaves the working arrays once
    |I - lambda * P_c| <= epsilon. Returns the (B, S, M) allocations and
    the iteration log, from which ``log.trace(lane)`` builds a lane's trace.
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    n = len(a_tilde)
    lanes = Lanes.build(ch, a_tilde, power_cfg)
    if omega0 is None:
        omega0 = np.broadcast_to(uniform_split(ch, power_cfg), lanes.allowed.shape)
    omega = lanes.project(omega0)

    def evaluate(sub, om):
        return (harvested_lanes(ch, om, sub.a_tilde),
                consumed_lanes(om, sub.a_tilde, power_cfg, ch.n_users, ch.n_elements))

    harvested, consumed = evaluate(lanes, omega)
    lam = (np.full(n, pa_cfg.lambda0, dtype=float) if pa_cfg.lambda0 is not None
           else harvested / consumed)
    gamma = initial_gamma(lanes.lam_max, pa_cfg)

    log = LaneLog(n)
    out = np.empty_like(omega)
    run = np.arange(n)
    for t in range(1, pa_cfg.max_outer + 1):
        tic = time.perf_counter_ns()
        omega, info = dr_step(lanes, lam, gamma, omega, pa_cfg)
        gamma = info["gamma"]
        harvested, consumed = evaluate(lanes, omega)
        residual = np.abs(harvested - lam * consumed)
        lam_new = harvested / consumed
        fell = lam_new < lam * (1.0 - LAMBDA_SLACK) - LAMBDA_SLACK
        if fell.any():
            i = np.argmax(fell)
            raise SolverFault(
                "Dinkelbach ratio decreased from %.12g to %.12g" % (lam[i], lam_new[i])
            )
        lam = np.where(lam_new > lam, lam_new, lam)
        # one wall time per iteration of the whole stack
        log.rows.append((t, run, time.perf_counter_ns() - tic, dict(
            lambda_t=lam, phi=harvested - lam * consumed, harvested=harvested,
            consumed=consumed, residual=residual, dr_residual=info["dr_residual"],
            dr_iterations=info["dr_iterations"], pga_trials=info["pga_trials"],
            pga_seed=info["pga_seed"])))
        done = residual <= pa_cfg.epsilon
        if done.any():
            log.converged[run[done]] = True
            out[run[done]] = omega[done]
            keep = np.flatnonzero(~done)
            run, omega, lam, gamma = (a[keep] for a in (run, omega, lam, gamma))
            if not len(run):
                break
            lanes = lanes.take(keep)
    out[run] = omega
    return out, log


def dr_solve(ch, a_tilde, lam, pa_cfg, power_cfg, omega0=None):
    """One parametric subproblem solve: DR splitting plus monotone safeguard.

    Returns the feasible allocation together with solve diagnostics. The
    returned phi never falls below the value at the projected start, so the
    caller's ratio updates stay monotone.
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    stack = Lanes.build(ch, a_tilde[None], power_cfg)
    if omega0 is None:
        omega0 = uniform_split(ch, power_cfg)
    gamma = initial_gamma(stack.lam_max, pa_cfg)
    omega, info = dr_step(stack, np.array([lam], dtype=float), gamma,
                          np.asarray(omega0, dtype=float)[None], pa_cfg)
    return omega[0], {key: value[0].item() for key, value in info.items()}


def pa_solve(ch, a_tilde, pa_cfg, power_cfg, omega0=None):
    """Maximize HPE over omega for fixed parameterized activations.

    Alternates the DR subproblem solve with the Dinkelbach ratio update
    until |I - lambda * P_c| <= epsilon. Returns the final allocation and
    the full iteration trace; the lambda trace is non-decreasing.
    """
    a_tilde = np.asarray(a_tilde, dtype=float)
    if not np.any(a_tilde > 0):
        raise ValueError("at least one parameterized activation must be positive")
    start = None if omega0 is None else np.asarray(omega0, dtype=float)[None]
    omega, log = solve_lanes(ch, a_tilde[None], pa_cfg, power_cfg, start)
    return omega[0], log.trace(0)

