"""Reference methods and brute-force oracles for the HPE benchmark."""

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .pa import PATrace, pa_solve, solve_lanes
from .power import AllocationState, _consumed, _harvested, hpe, uniform_split
from .sa import SAConfig, joint_solve, outer_problem

ES_SUBARRAY_CAP = 12
GRID_ORACLE_MAX_VARS = 4
# harvest-matrix entries (lanes x M x S^2) per PA-ES lane stack: larger
# stacks spend less Python time per subset but hold more working memory
_ES_STACK_ENTRIES = 49152


@dataclass
class MethodResult:
    """Outcome of one method on one scenario."""

    method: str                    # PA-SA, PA-FA, PA-ES or EA-FA
    hpe: float
    active_count: int
    wall_clock: float
    allocation: AllocationState
    eta: float = None              # normalized HPE, filled by normalize()
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolvedLane:
    """One PA solve made as a lane of a shared stack."""

    omega: np.ndarray
    trace: PATrace
    seconds: float           # wall time of the whole stack


def ea_fa(ch, power_cfg):
    """Equal power allocation on the full array; no optimization."""
    tic = time.perf_counter()
    a = np.ones(ch.n_sub, dtype=int)
    alloc = AllocationState(omega=uniform_split(ch, power_cfg), a=a,
                            a_tilde=a.astype(float))
    value = hpe(ch, alloc, power_cfg)
    return MethodResult(method="EA-FA", hpe=value, active_count=ch.n_sub,
                        wall_clock=time.perf_counter() - tic, allocation=alloc)


def pa_fa(ch, pa_cfg, power_cfg, first=None):
    """Optimized power allocation with every sub-array active.

    ``first`` is the solve when a shared stack has already made it (see
    ``opening_lanes``); its stack's wall time counts in ``wall_clock``.
    """
    tic = time.perf_counter()
    ones = np.ones(ch.n_sub)
    if first is None:
        omega, trace = pa_solve(ch, ones, pa_cfg, power_cfg)
    else:
        omega, trace = first.omega, first.trace
    alloc = AllocationState(omega=omega, a=ones.astype(int), a_tilde=ones)
    value = hpe(ch, alloc, power_cfg)
    seconds = time.perf_counter() - tic + (0.0 if first is None else first.seconds)
    return MethodResult(method="PA-FA", hpe=value, active_count=ch.n_sub,
                        wall_clock=seconds, allocation=alloc,
                        extra={"pa_trace": trace})


def pa_sa(ch, pa_cfg, power_cfg, sa_cfg=None, first=None):
    """The proposed joint activation and power-allocation method.

    ``first`` is the first outer iterate's PA solve when a shared stack
    has already made it (see ``opening_lanes``).
    """
    sa_cfg = sa_cfg or SAConfig()
    alloc, report = joint_solve(ch, pa_cfg, sa_cfg, power_cfg, first)
    return MethodResult(method="PA-SA", hpe=report.final_hpe,
                        active_count=int(alloc.a.sum()),
                        wall_clock=report.wall_clock, allocation=alloc,
                        extra={"report": report})


def opening_lanes(ch, pa_cfg, power_cfg):
    """PA-FA's solve and PA-SA's first outer solve, as one two-lane stack.

    Neither depends on another method: PA-FA solves the full array, and
    PA-SA's first a~ is ``outer_problem`` on the uniform split. Both lanes
    start from ``solve_lanes``' default uniform split, which the lane core
    projects onto each lane's feasible set, as either method's own
    one-lane solve would. Each lane gives the bits of that solve. Returns
    ``{"PA-FA": SolvedLane, "PA-SA": SolvedLane}``.
    """
    tic = time.perf_counter()
    ones = np.ones(ch.n_sub, dtype=int)
    _, a_tilde = outer_problem(uniform_split(ch, power_cfg), ones)
    omegas, log = solve_lanes(ch, np.stack([ones, a_tilde]), pa_cfg, power_cfg)
    seconds = time.perf_counter() - tic
    return {method: SolvedLane(omegas[i], log.trace(i), seconds)
            for i, method in enumerate(("PA-FA", "PA-SA"))}


def pa_es(ch, pa_cfg, power_cfg, subarray_cap=ES_SUBARRAY_CAP):
    """Optimized PA over every non-empty sub-array subset (exhaustive search).

    Subsets are solved as lane stacks of equal size, give or take one
    lane, each holding at most ``_ES_STACK_ENTRIES`` harvest-matrix
    entries (M S^2 per subset), so working memory stays bounded up to the
    cap. Each lane gives the bits of a one-lane solve, so the split does
    not change the answer. Ties break toward fewer active sub-arrays,
    then the lowest subset index.
    """
    n_sub = ch.n_sub
    if n_sub > subarray_cap:
        raise ValueError(
            "exhaustive search over %d sub-arrays would enumerate 2^%d "
            "subsets; raise subarray_cap only if you can afford it"
            % (n_sub, n_sub))
    tic = time.perf_counter()
    indices = np.arange(1, 2**n_sub)
    masks = ((indices[:, None] >> np.arange(n_sub)) & 1).astype(float)
    per_stack = max(1, _ES_STACK_ENTRIES // (ch.n_users * n_sub**2))
    n_stacks = -(-len(masks) // per_stack)
    omegas = np.concatenate([solve_lanes(ch, stack, pa_cfg, power_cfg)[0]
                             for stack in np.array_split(masks, n_stacks)])
    # the lane kernels of hpe(), so every subset's value has hpe()'s bits
    consumed = _consumed(omegas, masks, power_cfg, ch.n_users, ch.n_elements)
    if np.any(consumed <= 0):
        raise ValueError("consumed power must be positive to form the HPE ratio")
    values = _harvested(ch, omegas, masks) / consumed
    win = np.lexsort((indices, masks.sum(axis=1), -values))[0]
    alloc = AllocationState(omega=omegas[win], a=masks[win].astype(int),
                            a_tilde=masks[win])
    return MethodResult(method="PA-ES", hpe=float(values[win]),
                        active_count=int(alloc.a.sum()),
                        wall_clock=time.perf_counter() - tic, allocation=alloc,
                        extra={"subsets_evaluated": len(masks)})


def grid_oracle(ch, power_cfg, active_set, steps):
    """Dense grid search over feasible omega; independent verification only.

    Enumerates all but the last free coefficient and vectorizes the last,
    so runtime is steps^(S*M). Guarded to at most four free variables.
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
    a = active_set.astype(int)

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
        coef = a[None, :, None] * ch.kappa[None, :, :] * np.sqrt(block)
        t = np.einsum("usm,skm->ukm", coef, ch.gram)
        harvested = np.sum(np.abs(t) ** 2, axis=(1, 2))
        bracket = (block.sum(axis=2) / power_cfg.varsigma
                   + 2.0 * power_cfg.p_syn + ch.n_elements * power_cfg.p_ct)
        consumed = (bracket * a[None, :]).sum(axis=1) + n_users * power_cfg.p_cr
        best = max(best, float(np.max(harvested / consumed)))
    return best


def normalize(results):
    """Fill eta = hpe / hpe(EA-FA) on every result; EA-FA must be present."""
    ref = next((r for r in results if r.method == "EA-FA"), None)
    if ref is None:
        raise ValueError("normalization requires an EA-FA result")
    for r in results:
        r.eta = r.hpe / ref.hpe
    return results

