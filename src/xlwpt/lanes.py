"""Lane-stacked core of the PA solver.

A lane stack holds B power-allocation problems on one channel set along a
leading axis, each with its own activation vector, ratio, step sizes and
stopping rules. A lane leaves the working arrays when it stops. Every lane
repeats the arithmetic of a one-lane solve exactly, so a lane of a stack
gives the same bits as a one-lane call: ``pa.pa_solve`` and ``pa.dr_solve``
are one-lane calls, and PA-ES solves its subsets as stacks.
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
    _prox_neg_harvest_quad,
    build_quadratic,
    project_feasible,
    prox_consumption,
    quadratic_sup,
)
from .power import _consumed, _harvested

_STALL_WINDOW = 10           # DR iterations between step-size stall checks
_STALL_SHRINK = 0.25         # step-size shrink factor when DR residual stalls
_PGA_MAX_ITER = 500          # iteration cap of the monotone ascent safeguard


@dataclass
class Lanes:
    """Fixed data of B PA problems on one channel set, one row per lane."""

    a_tilde: np.ndarray      # (B, S) parameterized activations
    active: np.ndarray       # (B, S) a~ > 0
    dead: np.ndarray         # (B, M) users no active sub-array reaches
    quad: np.ndarray         # (B, M, S, S) harvest matrices
    lam_max: np.ndarray      # (B,) largest eigenvalue of each lane's matrices
    slope: np.ndarray        # (B, S, 1) transmit slope of P_c
    fixed: np.ndarray        # (B,) circuit power of P_c

    @classmethod
    def build(cls, ch, a_tilde, power_cfg):
        # a compact copy in the same memory order frees the complex buffer
        # that the real view of the einsum output would keep alive
        quad = np.copy(build_quadratic(ch, a_tilde), order="K")
        slope, fixed = _consumption_parts(a_tilde, power_cfg, ch.n_users,
                                          ch.n_elements)
        reach = (a_tilde[:, :, None] * ch.norms).max(axis=1)
        return cls(a_tilde, a_tilde > 0, reach == 0.0, quad, quadratic_sup(quad),
                   slope, fixed)

    def take(self, idx):
        """The lanes at ``idx``.

        The harvest matrices keep their memory order: the einsum of the
        harvest value sums in stride order, so a C-ordered copy would
        change its last bits.
        """
        quad = np.empty_like(self.quad, shape=(len(idx),) + self.quad.shape[1:])
        # gathering into a preallocated buffer measured less peak memory
        # than fancy indexing; mode="raise" would buffer a further copy
        np.take(self.quad, idx, axis=0, out=quad, mode="clip")
        return Lanes(self.a_tilde[idx], self.active[idx], self.dead[idx], quad,
                     self.lam_max[idx], self.slope[idx], self.fixed[idx])


def _zero_dead(omega, dead):
    """Zero the columns of users that no active sub-array reaches."""
    np.copyto(omega, 0.0, where=dead[..., None, :])


def _polish(lanes, lam, seeds, p_sub, p_total):
    """Monotone projected-gradient ascent on phi in q-space.

    ``seeds`` is a (k, B, S, M) stack of k feasible starts per lane; each
    start ascends on its own and never ends below its starting phi. A
    lane leaves the working arrays once all its starts have stopped.
    Returns the k ascended points per lane and their phi.
    """

    def phi_of(q):
        harvest = np.einsum("pbsm,bmst,pbtm->pb", q, lanes.quad, q)
        transmit = (lanes.slope * q**2).reshape(q.shape[:2] + (-1,)).sum(axis=-1)
        return harvest - lam * (transmit + lanes.fixed)

    q = np.sqrt(seeds)
    _zero_dead(q, lanes.dead)
    best = phi_of(q)
    lip = np.where(lanes.lam_max + lam > 0,
                   2.0 * lanes.lam_max + 2.0 * lam * lanes.slope.max(axis=(1, 2)),
                   1.0)
    step = np.broadcast_to(1.0 / np.where(lip > 0, lip, 1.0), best.shape).copy()
    floor = step * 1e-12
    q_out, best_out = np.empty_like(q), np.empty_like(best)
    live = np.ones(best.shape, dtype=bool)
    run = np.arange(best.shape[1])
    for _ in range(_PGA_MAX_ITER):
        grad = (2.0 * np.einsum("bmst,pbtm->pbsm", lanes.quad, q)
                - (2.0 * lam)[:, None, None] * lanes.slope * q)
        trial_q = np.maximum(q + step[..., None, None] * grad, 0.0)
        trial = project_feasible(trial_q**2, p_sub, p_total,
                                 np.broadcast_to(lanes.active, q.shape[:3]))
        _zero_dead(trial, lanes.dead)
        trial_q = np.sqrt(trial)
        val = phi_of(trial_q)
        up = live & (val > best)
        gain = val - best
        q = np.where(up[..., None, None], trial_q, q)
        best = np.where(up, val, best)
        step = np.where(up, step * 1.3, step * 0.5)
        stop = live & np.where(up, gain <= 1e-13 * (np.abs(best) + 1e-12),
                               step < floor)
        if stop.any():
            p_idx, b_idx = np.nonzero(stop)
            q_out[p_idx, run[b_idx]] = q[p_idx, b_idx]
            best_out[p_idx, run[b_idx]] = best[p_idx, b_idx]
            live &= ~stop
            if not live.any():
                break
            keep = np.flatnonzero(live.any(axis=0))
            if len(keep) < len(run):
                run, lam = run[keep], lam[keep]
                q, best, step, floor, live = (
                    a[:, keep] for a in (q, best, step, floor, live))
                lanes = lanes.take(keep)
    p_idx, b_idx = np.nonzero(live)
    q_out[p_idx, run[b_idx]] = q[p_idx, b_idx]
    best_out[p_idx, run[b_idx]] = best[p_idx, b_idx]
    return q_out**2, best_out


def _dr_loop(ch, lanes, lam, gamma, start, pa_cfg, power_cfg):
    """Douglas-Rachford splitting per lane from feasible starts.

    A lane leaves the working arrays once its residual meets the
    tolerance. Returns each lane's last prox-consumption point, residual,
    iteration count and prox step.
    """
    n = len(lam)
    x_out = np.empty_like(start)
    residual_out, gamma_out = np.empty(n), np.empty(n)
    iters_out = np.empty(n, dtype=int)
    run = np.arange(n)
    z = start.copy()
    window_best = np.full(n, np.inf)
    for u in range(pa_cfg.max_dr):
        x = prox_consumption(z, lam, gamma, power_cfg, lanes.a_tilde, ch.n_elements)
        _zero_dead(x, lanes.dead)
        y = _prox_neg_harvest_quad(2.0 * x - z, gamma, lanes.quad)
        _zero_dead(y, lanes.dead)
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
            run, x, y, z, residual, window_best, lam, gamma = (
                a[keep] for a in (run, x, y, z, residual, window_best, lam, gamma))
            if not len(run):
                break
            lanes = lanes.take(keep)
        z = z + (y - x)
        window_best = np.minimum(window_best, residual)
        if (u + 1) % _STALL_WINDOW == 0:
            # a stalled residual shrinks the prox step and restarts the
            # drift from the last feasible point
            stall = residual > 0.5 * window_best
            gamma = np.where(stall, gamma * _STALL_SHRINK, gamma)
            z = np.where(stall[:, None, None], x, z)
            window_best = residual
    x_out[run], residual_out[run] = x, residual
    iters_out[run], gamma_out[run] = pa_cfg.max_dr, gamma
    return x_out, residual_out, iters_out, gamma_out


def dr_step(ch, lanes, lam, gamma, omega0, pa_cfg, power_cfg):
    """One parametric subproblem solve per lane: DR splitting plus polish.

    ``lam`` and ``gamma`` hold one value per lane and ``omega0`` one
    start per lane. Returns the feasible allocations and per-lane
    diagnostics; each lane's phi is never below its value at the
    projected start, so the ratio updates stay monotone.
    """
    p_sub = power_cfg.p_sub(ch.n_elements)
    p_total = power_cfg.p_total(ch.n_sub, ch.n_elements)
    start = project_feasible(omega0, p_sub, p_total, lanes.active)
    _zero_dead(start, lanes.dead)
    scaled = lanes.lam_max > 0
    cap = 0.45 / np.where(scaled, lanes.lam_max, 1.0)
    gamma = np.where(scaled, np.minimum(gamma, cap), gamma)
    x, residual, iters, gamma = _dr_loop(ch, lanes, lam, gamma, start, pa_cfg,
                                         power_cfg)

    candidate = project_feasible(x, p_sub, p_total, lanes.active)
    _zero_dead(candidate, lanes.dead)
    # ascend from both the DR candidate and the start: q = 0 entries are
    # stationary under the sqrt substitution, so a single seed can get stuck
    omega, phi = _polish(lanes, lam, np.stack([candidate, start]), p_sub, p_total)
    second = phi[1] > phi[0]
    info = {
        "dr_residual": residual,
        "dr_iterations": iters,
        "gamma": gamma,
        "phi": np.where(second, phi[1], phi[0]),
    }
    return np.where(second[:, None, None], omega[1], omega[0]), info


def initial_gamma(lam_max, pa_cfg):
    """Each lane's first prox step: ``pa_cfg.gamma`` in units of 1/lambda_max."""
    scaled = lam_max > 0
    return np.where(scaled, pa_cfg.gamma / np.where(scaled, lam_max, 1.0), pa_cfg.gamma)


class LaneLog:
    """Dinkelbach iterations of a lane stack, kept as per-iteration arrays.

    Each row holds the indices of the lanes that ran that iteration and
    their records; a lane's ``PATrace`` is built only when asked for.
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
            lam, omega, phi, harvested, consumed, residual, dr_residual, dr_iters = (
                r[i] for r in records)
            trace.states.append(DinkelbachState(
                t=t,
                lambda_t=float(lam),
                omega=omega.copy(),
                phi=float(phi),
                harvested=float(harvested),
                consumed=float(consumed),
                residual=float(residual),
                dr_residual=float(dr_residual),
                dr_iterations=int(dr_iters),
                wall_ns=wall_ns,
            ))
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
        omega0 = np.full((n, ch.n_sub, ch.n_users), p_sub / ch.n_users)
    omega = project_feasible(omega0, p_sub, p_total, lanes.active)
    _zero_dead(omega, lanes.dead)

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
        log.rows.append((t, run, time.perf_counter_ns() - tic, (
            lam, omega, harvested - lam * consumed, harvested, consumed, residual,
            info["dr_residual"], info["dr_iterations"])))
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
