"""Sub-array activation: surrogate pruning interleaved with PA solves."""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .pa import pa_solve, project_feasible
from .power import AllocationState, hpe

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
class SAState:
    """Snapshot of one outer iteration."""

    iteration: int
    a: np.ndarray
    a_tilde: np.ndarray
    g_surrogate: np.ndarray
    hpe_value: float


@dataclass
class SolveReport:
    """Traces and diagnostics of one joint solve."""

    hpe_trace: list = field(default_factory=list)
    active_trace: list = field(default_factory=list)
    lambda_trace: list = field(default_factory=list)
    dr_residuals: list = field(default_factory=list)
    outer_iterations: int = 0
    pa_iterations: int = 0
    converged: bool = False
    wall_clock: float = 0.0
    final_hpe: float = 0.0
    states: list = field(default_factory=list)


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


def joint_solve(ch, pa_cfg, sa_cfg, power_cfg):
    """Joint activation and power-allocation optimization.

    Starts from the uniform split on the full array and alternates
    surrogate pruning with PA solves until the relative HPE change drops
    below delta. The reported HPE always uses binary activations; the
    final allocation comes from one binary re-solve on the surviving set.

    An outer iterate is only accepted if the binary-activation HPE does
    not decrease, so the trace is monotone; a declining candidate ends
    the loop with the previous iterate.
    """
    tic = time.perf_counter()
    n_sub, n_users = ch.n_sub, ch.n_users
    p_sub = power_cfg.p_sub(ch.n_elements)
    p_total = power_cfg.p_total(n_sub, ch.n_elements)

    a = np.ones(n_sub, dtype=int)
    omega = np.full((n_sub, n_users), p_sub / n_users)
    report = SolveReport()

    def binary_hpe(om, act):
        return hpe(ch, AllocationState(omega=np.array(om), a=act,
                                       a_tilde=act.astype(float)), power_cfg)

    gamma_prev = None
    for i in range(1, sa_cfg.max_iters + 1):
        total = omega.sum()
        g = surrogate(omega) if total > 0 else np.full(n_sub, 1.0 / n_sub)
        a_new = activation_update(g) * a  # pruned modules never come back
        if a_new.sum() == 0:
            a_new = a.copy()
        a_tilde = parameterize(a_new, g)

        start = None
        if sa_cfg.warm_start:
            start = project_feasible(omega, p_sub, p_total, a_tilde > 0)
        omega_new, pa_trace = pa_solve(ch, a_tilde, pa_cfg, power_cfg,
                                       omega0=start)
        gamma_i = binary_hpe(omega_new, a_new)

        if gamma_prev is not None and gamma_i < gamma_prev - HPE_MONOTONE_SLACK:
            # candidate degrades the binary-activation HPE: keep the
            # previous iterate and stop
            report.converged = True
            break

        a = a_new
        omega = omega_new
        report.hpe_trace.append(gamma_i)
        report.active_trace.append(a.copy())
        report.lambda_trace = pa_trace.lambda_trace
        report.dr_residuals.append([s.dr_residual for s in pa_trace.states])
        report.pa_iterations += pa_trace.n_iterations
        report.outer_iterations = i
        report.states.append(SAState(iteration=i, a=a.copy(),
                                     a_tilde=a_tilde.copy(),
                                     g_surrogate=g.copy(), hpe_value=gamma_i))
        if gamma_prev is not None and abs(gamma_i - gamma_prev) < sa_cfg.delta * gamma_prev:
            report.converged = True
            gamma_prev = gamma_i
            break
        gamma_prev = gamma_i

    # report real on/off hardware: one binary re-solve on the final active set
    start = project_feasible(omega, p_sub, p_total, a > 0) if sa_cfg.warm_start else None
    omega_final, pa_trace = pa_solve(ch, a.astype(float), pa_cfg, power_cfg,
                                     omega0=start)
    final = binary_hpe(omega_final, a)
    if report.hpe_trace and final < report.hpe_trace[-1] - HPE_MONOTONE_SLACK:
        # binary re-solve is warm-started at the last accepted iterate, so
        # it cannot lose HPE; fall back defensively if arithmetic disagrees
        omega_final = omega
        final = report.hpe_trace[-1]
    else:
        report.lambda_trace = pa_trace.lambda_trace
        report.dr_residuals.append([s.dr_residual for s in pa_trace.states])
        report.pa_iterations += pa_trace.n_iterations

    report.final_hpe = final
    report.wall_clock = time.perf_counter() - tic
    alloc = AllocationState(omega=omega_final, a=a, a_tilde=a.astype(float))
    return alloc, report


def export_report_json(report, alloc, path):
    """Nested JSON dump of a solve report plus its final allocation."""
    payload = {
        "hpe_trace": [float(v) for v in report.hpe_trace],
        "active_trace": [[int(v) for v in a] for a in report.active_trace],
        "lambda_trace": [float(v) for v in report.lambda_trace],
        "dr_residuals": [[float(v) for v in block] for block in report.dr_residuals],
        "outer_iterations": report.outer_iterations,
        "pa_iterations": report.pa_iterations,
        "converged": report.converged,
        "wall_clock_seconds": report.wall_clock,
        "final_hpe": float(report.final_hpe),
        "allocation": {
            "omega_watts": [[float(v) for v in row] for row in alloc.omega],
            "a": [int(v) for v in alloc.a],
            "a_tilde": [float(v) for v in alloc.a_tilde],
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

