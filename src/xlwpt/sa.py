"""Sub-array activation: surrogate pruning interleaved with PA solves."""

import time
from dataclasses import dataclass, field

import numpy as np

from .pa import pa_solve
from .power import AllocationState, hpe, uniform_split

HPE_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class SAConfig:
    """Outer-loop controls of the joint activation/allocation solve.

    delta : relative HPE change below which the outer loop stops
    max_iters : outer iteration cap
    warm_start : reuse the previous allocation as the next PA start;
        False restarts every PA solve from the uniform split
    """

    delta: float = 1e-3
    max_iters: int = 30
    warm_start: bool = True

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolveReport:
    """Traces and diagnostics of one joint solve."""

    hpe_trace: list = field(default_factory=list)
    active_trace: list = field(default_factory=list)
    lambda_trace: list = field(default_factory=list)   # one list per PA solve
    dr_residuals: list = field(default_factory=list)   # one list per PA solve
    outer_iterations: int = 0
    pa_iterations: int = 0
    converged: bool = False
    wall_clock: float = 0.0
    final_hpe: float = 0.0


def surrogate(omega_tilde):
    """Per-sub-array share of the optimized transmit power; sums to one."""
    omega_tilde = np.asarray(omega_tilde, dtype=float)
    row = omega_tilde.sum(axis=1)
    total = row.sum()
    if total <= 0:
        raise ValueError("surrogate undefined for an all-zero allocation")
    return row / total


def activation_update(g):
    """Keep sub-arrays whose surrogate share reaches the mean 1/S.

    Ties at exactly the mean stay active. If the rule would switch off
    everything, the strongest sub-array is kept.
    """
    g = np.asarray(g, dtype=float)
    # tolerance keeps exact ties (e.g. a perfectly uniform surrogate) active
    # despite summation rounding in the mean
    a = (g >= np.mean(g) - 1e-12).astype(int)
    if a.sum() == 0:
        a[int(np.argmax(g))] = 1
    return a


def parameterize(a, g):
    """Scale binary activations by the surrogate share: a~_s = g_s a_s."""
    return np.asarray(g, dtype=float) * np.asarray(a, dtype=float)


def outer_problem(omega, a):
    """The PA problem of the next outer iterate, from the current one.

    Prunes by the surrogate of ``omega`` (pruned modules never come back)
    and parameterizes the survivors. Returns the new binary activation and
    a~; the lane core projects whatever start the solve is given onto a~'s
    feasible set.
    """
    n_sub = len(a)
    g = surrogate(omega) if omega.sum() > 0 else np.full(n_sub, 1.0 / n_sub)
    a_new = activation_update(g) * a
    if a_new.sum() == 0:
        a_new = a.copy()
    return a_new, parameterize(a_new, g)


def joint_solve(ch, pa_cfg, sa_cfg, power_cfg, first=None):
    """Joint activation and power-allocation optimization.

    Starts from the uniform split on the full array and alternates
    surrogate pruning with PA solves until the relative HPE change drops
    below delta. The reported HPE always uses binary activations; the
    final allocation comes from one binary re-solve on the surviving set.

    An outer iterate is only accepted if the binary-activation HPE does
    not decrease, so the trace is monotone; a declining candidate ends
    the loop with the previous iterate.

    Each PA solve starts from the last accepted allocation as it stands,
    or from the uniform split when warm starts are off; the lane core
    projects that start onto the new problem's feasible set.

    ``first`` is the first outer iterate's PA solve, a
    ``baselines.SolvedLane``, when a shared stack has already made it
    (``outer_problem`` on the uniform split gives its a~); its stack's
    wall time counts in ``wall_clock``.
    """
    tic = time.perf_counter()
    a = np.ones(ch.n_sub, dtype=int)
    omega = uniform_split(ch, power_cfg)
    report = SolveReport()

    def binary_hpe(om, act):
        return hpe(ch, AllocationState(omega=om, a=act), power_cfg)

    def solve(a_tilde):
        return pa_solve(ch, a_tilde, pa_cfg, power_cfg,
                        omega0=omega if sa_cfg.warm_start else None)

    def record(pa_trace):
        report.lambda_trace.append(pa_trace.lambda_trace)
        report.dr_residuals.append([s.dr_residual for s in pa_trace.states])
        report.pa_iterations += pa_trace.n_iterations

    for i in range(1, sa_cfg.max_iters + 1):
        a_new, a_tilde = outer_problem(omega, a)
        if i == 1 and first is not None:
            omega_new, pa_trace = first.omega, first.trace
        else:
            omega_new, pa_trace = solve(a_tilde)
        gamma_i = binary_hpe(omega_new, a_new)
        gamma_prev = report.hpe_trace[-1] if report.hpe_trace else None

        if gamma_prev is not None and gamma_i < gamma_prev - HPE_MONOTONE_SLACK:
            # candidate degrades the binary-activation HPE: keep the
            # previous iterate and stop
            report.converged = True
            break

        a = a_new
        omega = omega_new
        report.hpe_trace.append(gamma_i)
        report.active_trace.append(a.copy())
        record(pa_trace)
        report.outer_iterations = i
        # an unchanged HPE also stops the loop, as a relative test cannot at 0
        if gamma_prev is not None and (gamma_i == gamma_prev or
                                       abs(gamma_i - gamma_prev) < sa_cfg.delta * gamma_prev):
            report.converged = True
            break

    # report real on/off hardware: one binary re-solve on the final active set
    omega_final, pa_trace = solve(a.astype(float))
    final = binary_hpe(omega_final, a)
    if final < report.hpe_trace[-1] - HPE_MONOTONE_SLACK:
        # binary re-solve is warm-started at the last accepted iterate, so
        # it cannot lose HPE; fall back defensively if arithmetic disagrees
        omega_final = omega
        final = report.hpe_trace[-1]
    else:
        record(pa_trace)

    report.final_hpe = final
    report.wall_clock = time.perf_counter() - tic
    if first is not None:
        report.wall_clock += first.seconds
    alloc = AllocationState(omega=omega_final, a=a)
    return alloc, report

