"""Brute-force oracles shared by the test modules; not part of the package."""

import itertools

import numpy as np

from xlwpt.power import consumed_lanes, harvested_lanes

GRID_ORACLE_MAX_VARS = 4


def grid_oracle(ch, power_cfg, active_set, steps):
    """Dense grid search over feasible omega; independent verification only.

    Enumerates all but the last free coefficient and vectorizes the last,
    so runtime is steps^(S*M). Guarded to at most four free variables.
    Grid points are filtered by the per-sub-array and total budgets here,
    not by the solver's projection, and each block is scored with the
    package's lane kernels.
    """
    active_set = np.asarray(active_set, dtype=bool)
    n_sub, n_users = ch.n_sub, ch.n_users
    free = [(s, m) for s in range(n_sub) if active_set[s] for m in range(n_users)]
    if len(free) > GRID_ORACLE_MAX_VARS:
        raise ValueError("grid oracle limited to %d free variables, got %d"
                         % (GRID_ORACLE_MAX_VARS, len(free)))
    p_sub = power_cfg.p_sub(ch.n_elements)
    p_total = power_cfg.p_total(n_sub, ch.n_elements)
    axis = np.linspace(0.0, p_sub, steps + 1)
    a = active_set.astype(float)

    best = 0.0
    if not free:
        return best
    head, last = free[:-1], free[-1]
    for values in itertools.product(axis, repeat=len(head)):
        omega = np.zeros((n_sub, n_users))
        for (s, m), v in zip(head, values):
            omega[s, m] = v
        row = omega.sum(axis=1)
        if np.any(row > p_sub) or row.sum() > p_total:
            continue
        s_last, m_last = last
        room = min(p_sub - row[s_last], p_total - row.sum())
        tail = axis[axis <= room + 1e-12]
        if tail.size == 0:
            continue
        block = np.repeat(omega[None, :, :], tail.size, axis=0)
        block[:, s_last, m_last] = tail
        harvested = harvested_lanes(ch, block, a)
        consumed = consumed_lanes(block, a, power_cfg, n_users, ch.n_elements)
        best = max(best, float(np.max(harvested / consumed)))
    return best


def sequential_polish(lanes, lane_of, lam, seeds, max_iter=500):
    """``pa._polish`` as one trial per lane and pass, with a shared pass cap.

    The plain ascent that the batched polish must repeat bit for bit:
    every pass tries one step per running lane from its current q,
    accepts it if phi rises (step x 1.3) and halves the step otherwise.
    Returns the ascended points, their phi and each lane's trial count.
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
    trials_out = np.full(len(q), max_iter)
    run = np.arange(len(q))
    for it in range(max_iter):
        grad = (2.0 * np.einsum("bmst,btm->bsm", work.quad, q)
                - (2.0 * lam)[:, None, None] * work.slope * q)
        trial_q = np.maximum(q + step[:, None, None] * grad, 0.0)
        trial_q = np.sqrt(work.project(trial_q**2))
        val = phi_of(work, trial_q)
        up = val > best
        gain = val - best
        q = np.where(up[:, None, None], trial_q, q)
        best = np.where(up, val, best)
        step = np.where(up, step * 1.3, step * 0.5)
        stop = np.where(up, gain <= 1e-13 * (np.abs(best) + 1e-12), step < floor)
        if stop.any():
            fin = run[stop]
            q_out[fin], best_out[fin], trials_out[fin] = q[stop], best[stop], it + 1
            keep = np.flatnonzero(~stop)
            run, q, best, step, floor, lam = (
                a[keep] for a in (run, q, best, step, floor, lam))
            if not len(run):
                break
            work = lanes.take(lane_of[run])
    q_out[run], best_out[run] = q, best
    return q_out**2, best_out, trials_out
