"""The HPE benchmark's methods: EA-FA, PA-FA, PA-SA and PA-ES (exhaustive search)."""

import time
from dataclasses import dataclass, field

import numpy as np

from .pa import Lanes, PATrace, pa_solve, solve_lanes
from .power import AllocationState, consumed_lanes, harvested_lanes, hpe, uniform_split
from .sa import SAConfig, joint_solve, outer_problem

ES_SUBARRAY_CAP = 12
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
    alloc = AllocationState(omega=uniform_split(ch, power_cfg),
                            a=np.ones(ch.n_sub, dtype=int))
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
    alloc = AllocationState(omega=omega, a=ones.astype(int))
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
    omegas, traces = solve_lanes(ch, np.stack([ones, a_tilde]), pa_cfg, power_cfg)
    seconds = time.perf_counter() - tic
    return {method: SolvedLane(omegas[i], traces[i], seconds)
            for i, method in enumerate(("PA-FA", "PA-SA"))}


def _stacks(masks, per_stack):
    """``masks`` as lane stacks of equal size, give or take one lane, each
    of at most ``per_stack`` lanes."""
    return np.array_split(masks, -(-len(masks) // per_stack))


def hpe_bound(lanes, varsigma):
    """The certified HPE bound UB_A of each lane of a binary-mask stack.

    See ``pa_es`` for the proof that no feasible omega on the lane's
    subset A exceeds it.
    """
    budget = lanes.a_tilde.sum(axis=-1) * lanes.p_sub
    return lanes.lam_max * budget / (budget / varsigma + lanes.fixed)


def pa_es(ch, pa_cfg, power_cfg, subarray_cap=ES_SUBARRAY_CAP):
    """Optimized PA over every non-empty sub-array subset (exhaustive search).

    The search solves the S singletons first; their best HPE is the
    incumbent. It then solves only the subsets whose certified bound UB_A
    (``hpe_bound``) reaches the incumbent, and picks the winner among the
    solved subsets. Ties break toward fewer active sub-arrays, then the
    lowest subset index.

    The bound. For subset A let Lambda_A be the largest eigenvalue over the
    users' harvest matrices A_m (``Lanes.lam_max``), F_A the circuit power
    (``Lanes.fixed``), P_s the sub-array budget and varsigma the amplifier
    efficiency. With q = sqrt(omega), the harvest is
    I = sum_m q_m^T A_m q_m <= Lambda_A sum(omega), and the consumed power
    is P_c = sum(omega) / varsigma + F_A. Their ratio
    Lambda_A x / (x / varsigma + F_A) does not decrease in x = sum(omega),
    and x <= |A| P_s on A's feasible set, so every feasible omega on A has
    HPE <= UB_A = Lambda_A |A| P_s / (|A| P_s / varsigma + F_A). So does
    the solver's answer on A, which can only be at or below A's optimum. A
    subset is skipped only when UB_A (1 + 1e-9) falls below the incumbent,
    a margin that covers the round-off of the eigenvalue and of
    ``harvested_lanes``; its value is then below the incumbent, so it can
    neither win nor tie. Every subset is decided, so
    ``extra["subsets_evaluated"]`` is 2^S - 1; ``extra["subsets_solved"]``
    counts the solves.

    Bounds and solves run in lane stacks of equal size, give or take one
    lane, each holding at most ``_ES_STACK_ENTRIES`` harvest-matrix
    entries (M S^2 per subset), so working memory stays bounded up to the
    cap. Each lane gives the bits of a one-lane solve, so neither the
    split nor the pruning changes the winner's bits.
    """
    n_sub = ch.n_sub
    if n_sub > subarray_cap:
        raise ValueError(
            "exhaustive search over %d sub-arrays would enumerate 2^%d "
            "subsets, past the cap of %d sub-arrays; raise solver.es_cap "
            "only if you can afford it" % (n_sub, n_sub, subarray_cap))
    tic = time.perf_counter()
    indices = np.arange(1, 2**n_sub)
    masks = ((indices[:, None] >> np.arange(n_sub)) & 1).astype(float)
    n_active = masks.sum(axis=1)
    per_stack = max(1, _ES_STACK_ENTRIES // (ch.n_users * n_sub**2))

    def solve(picked):
        omegas = np.concatenate([solve_lanes(ch, stack, pa_cfg, power_cfg)[0]
                                 for stack in _stacks(masks[picked], per_stack)])
        # the lane kernels of hpe(), so each solved subset's value has hpe()'s bits
        consumed = consumed_lanes(omegas, masks[picked], power_cfg, ch.n_users,
                                  ch.n_elements)
        if np.any(consumed <= 0):
            raise ValueError("consumed power must be positive to form the HPE ratio")
        return omegas, harvested_lanes(ch, omegas, masks[picked]) / consumed

    bound = np.concatenate([hpe_bound(Lanes.build(ch, stack, power_cfg),
                                      power_cfg.varsigma)
                            for stack in _stacks(masks, per_stack)])
    singles = np.flatnonzero(n_active == 1)
    omegas, values = solve(singles)
    rest = np.flatnonzero((n_active > 1) & (bound * (1.0 + 1e-9) >= values.max()))
    solved = np.concatenate([singles, rest])
    if len(rest):
        more_omegas, more_values = solve(rest)
        omegas = np.concatenate([omegas, more_omegas])
        values = np.concatenate([values, more_values])
    win = np.lexsort((indices[solved], n_active[solved], -values))[0]
    alloc = AllocationState(omega=omegas[win], a=masks[solved[win]].astype(int))
    return MethodResult(method="PA-ES", hpe=float(values[win]),
                        active_count=int(alloc.a.sum()),
                        wall_clock=time.perf_counter() - tic, allocation=alloc,
                        extra={"subsets_evaluated": len(masks),
                               "subsets_solved": len(solved)})


def normalize(results):
    """Fill eta = hpe / hpe(EA-FA), None if that is 0; EA-FA must be present."""
    ref = next((r for r in results if r.method == "EA-FA"), None)
    if ref is None:
        raise ValueError("normalization requires an EA-FA result")
    for r in results:
        r.eta = r.hpe / ref.hpe if ref.hpe > 0 else None
    return results

