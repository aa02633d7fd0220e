"""Lane-stacked core of the PA solver.

A lane stack holds B power-allocation problems on one channel set along a
leading axis, the only batch axis: the polish's two seeds per problem are
lanes too. Each lane has its own activation vector, ratio, step sizes and
stopping rules, and leaves the working arrays when it stops. Every lane
repeats the arithmetic of a one-lane solve exactly, so a lane of a stack
gives the same bits as a one-lane call: ``pa.pa_solve`` and ``pa.dr_solve``
are one-lane calls, PA-ES solves its subsets as stacks, and
``baselines.opening_lanes`` stacks PA-FA with PA-SA's first PA solve.

Callers pass a start as it is, or none for the uniform split:
``solve_lanes`` projects each start onto its lane's feasible set, and
every projection here masks with ``Lanes.allowed``, a lane's active rows
restricted to the users some active row reaches. A user no active
sub-array reaches is thus given no power: the start projections zero its
entries, and the operators keep them zero (its harvest matrix is 0, its
consumption-prox input <= 0 and its polish gradient 0).
"""

import time
from dataclasses import dataclass

import numpy as np

from .pa import (
    LAMBDA_SLACK,
    DinkelbachState,
    PATrace,
    SolverFault,
    _consumption_parts,
    _consumption_prox,
    _harvest_matrix,
    _harvest_prox,
    build_quadratic,
    project_feasible,
    quadratic_sup,
)
from .power import _consumed, _harvested, uniform_split

_SHRINK_EVERY = 10           # DR iterations between prox-step shrinks
_SHRINK = 0.25               # prox-step shrink factor
_PGA_MAX_ITER = 500          # iteration cap of the monotone ascent safeguard


@dataclass
class Lanes:
    """Fixed data of B PA problems on one channel set, one row per lane."""

    a_tilde: np.ndarray      # (B, S) parameterized activations
    allowed: np.ndarray      # (B, S, M) active row, user some active row reaches
    quad: np.ndarray         # (B, M, S, S) harvest matrices
    lam_max: np.ndarray      # (B,) largest eigenvalue of each lane's matrices
    slope: np.ndarray        # (B, S, 1) transmit slope of P_c
    fixed: np.ndarray        # (B,) circuit power of P_c

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
        return cls(a_tilde, allowed, quad, quadratic_sup(quad), slope, fixed)

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
                     self.slope[idx], self.fixed[idx])


def _polish(lanes, lane_of, lam, seeds, p_sub, p_total):
    """Monotone projected-gradient ascent on phi in q-space, one seed per lane.

    ``seeds`` holds one feasible start per polish lane, and polish lane i
    is lane ``lane_of[i]`` of ``lanes``; each ascends on its own, never
    ends below its starting phi, and leaves the working arrays once it
    stops. Returns the ascended points and their phi.
    """

    def phi_of(work, q):
        harvest = np.einsum("bsm,bmst,btm->b", q, work.quad, q)
        transmit = (work.slope * q**2).reshape(len(q), -1).sum(axis=-1)
        return harvest - lam * (transmit + work.fixed)

    work = lanes.take(lane_of)
    q = np.sqrt(seeds)
    best = phi_of(work, q)
    lip = np.where(work.lam_max + lam > 0,
                   2.0 * work.lam_max + 2.0 * lam * work.slope.max(axis=(1, 2)),
                   1.0)
    step = 1.0 / np.where(lip > 0, lip, 1.0)
    floor = step * 1e-12
    q_out, best_out = np.empty_like(q), np.empty_like(best)
    run = np.arange(len(q))
    for _ in range(_PGA_MAX_ITER):
        grad = (2.0 * np.einsum("bmst,btm->bsm", work.quad, q)
                - (2.0 * lam)[:, None, None] * work.slope * q)
        trial_q = np.maximum(q + step[:, None, None] * grad, 0.0)
        trial_q = np.sqrt(project_feasible(trial_q**2, p_sub, p_total, work.allowed))
        val = phi_of(work, trial_q)
        up = val > best
        gain = val - best
        q = np.where(up[:, None, None], trial_q, q)
        best = np.where(up, val, best)
        step = np.where(up, step * 1.3, step * 0.5)
        stop = np.where(up, gain <= 1e-13 * (np.abs(best) + 1e-12), step < floor)
        if stop.any():
            fin = run[stop]
            q_out[fin], best_out[fin] = q[stop], best[stop]
            keep = np.flatnonzero(~stop)
            run, q, best, step, floor, lam = (
                a[keep] for a in (run, q, best, step, floor, lam))
            if not len(run):
                break
            # freed before the gather from ``lanes``, so that no two
            # working copies of the harvest matrices are alive at once
            del work
            work = lanes.take(lane_of[run])
    q_out[run], best_out[run] = q, best
    return q_out**2, best_out


def _dr_loop(lanes, lam, gamma, start, pa_cfg, p_sub, p_total):
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
    slope, allowed = lanes.slope, lanes.allowed
    step, lhs = gamma * lam, _harvest_matrix(gamma, lanes.quad)
    for u in range(pa_cfg.max_dr):
        x = _consumption_prox(z, step, slope, p_sub, p_total, allowed)
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
            run, x, y, z, residual, lam, gamma, step, slope, allowed, lhs = (
                a[keep] for a in (run, x, y, z, residual, lam, gamma, step,
                                  slope, allowed, lhs))
            if not len(run):
                break
        z = z + (y - x)
        if (u + 1) % _SHRINK_EVERY == 0:
            gamma = gamma * _SHRINK
            z = x
            step, lhs = gamma * lam, _harvest_matrix(gamma, lanes.quad[run])
    x_out[run], residual_out[run] = x, residual
    iters_out[run], gamma_out[run] = pa_cfg.max_dr, gamma
    return x_out, residual_out, iters_out, gamma_out


def dr_step(ch, lanes, lam, gamma, omega0, pa_cfg, power_cfg):
    """One parametric subproblem solve per lane: DR splitting plus polish.

    ``lam`` and ``gamma`` hold one value per lane and ``omega0`` one
    start per lane. The polish runs each lane's DR candidate and projected
    start as two lanes and keeps the better. Returns the feasible
    allocations and per-lane diagnostics; each lane's phi is never below
    its value at the projected start, so the ratio updates stay monotone.
    """
    p_sub = power_cfg.p_sub(ch.n_elements)
    p_total = power_cfg.p_total(ch.n_sub, ch.n_elements)
    start = project_feasible(omega0, p_sub, p_total, lanes.allowed)
    scaled = lanes.lam_max > 0
    cap = 0.45 / np.where(scaled, lanes.lam_max, 1.0)
    gamma = np.where(scaled, np.minimum(gamma, cap), gamma)
    x, residual, iters, gamma = _dr_loop(lanes, lam, gamma, start, pa_cfg, p_sub,
                                         p_total)

    candidate = project_feasible(x, p_sub, p_total, lanes.allowed)
    # ascend from both the DR candidate and the start: q = 0 entries are
    # stationary under the sqrt substitution, so a single seed can get stuck
    n = len(lam)
    pair = np.tile(np.arange(n), 2)
    omega, phi = _polish(lanes, pair, lam[pair],
                         np.concatenate([candidate, start]), p_sub, p_total)
    second = phi[n:] > phi[:n]
    info = {
        "dr_residual": residual,
        "dr_iterations": iters,
        "gamma": gamma,
        "phi": np.where(second, phi[n:], phi[:n]),
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
    p_sub = power_cfg.p_sub(ch.n_elements)
    p_total = power_cfg.p_total(ch.n_sub, ch.n_elements)

    if omega0 is None:
        omega0 = np.broadcast_to(uniform_split(ch, power_cfg), lanes.allowed.shape)
    omega = project_feasible(omega0, p_sub, p_total, lanes.allowed)

    def evaluate(sub, om):
        return (_harvested(ch, om, sub.a_tilde),
                _consumed(om, sub.a_tilde, power_cfg, ch.n_users, ch.n_elements))

    harvested, consumed = evaluate(lanes, omega)
    lam = (np.full(n, pa_cfg.lambda0, dtype=float) if pa_cfg.lambda0 is not None
           else harvested / consumed)
    gamma = initial_gamma(lanes.lam_max, pa_cfg)

    log = LaneLog(n)
    out = np.empty_like(omega)
    run = np.arange(n)
    for t in range(1, pa_cfg.max_outer + 1):
        tic = time.perf_counter_ns()
        omega, info = dr_step(ch, lanes, lam, gamma, omega, pa_cfg, power_cfg)
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
            dr_iterations=info["dr_iterations"])))
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
