"""Reference methods and brute-force oracles for the HPE benchmark."""

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .lanes import solve_lanes
from .pa import pa_solve
from .power import AllocationState, hpe
from .sa import SAConfig, joint_solve

ES_SUBARRAY_CAP = 12
GRID_ORACLE_MAX_VARS = 4
# PA-ES subsets solved per lane stack: larger stacks spend less Python time
# per subset but hold more working memory (32 chosen by measurement at S=8)
_ES_CHUNK_LANES = 32


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


def ea_fa(ch, power_cfg):
    """Equal power allocation on the full array; no optimization."""
    tic = time.perf_counter()
    p_sub = power_cfg.p_sub(ch.n_elements)
    a = np.ones(ch.n_sub, dtype=int)
    alloc = AllocationState(
        omega=np.full((ch.n_sub, ch.n_users), p_sub / ch.n_users),
        a=a, a_tilde=a.astype(float))
    value = hpe(ch, alloc, power_cfg)
    return MethodResult(method="EA-FA", hpe=value, active_count=ch.n_sub,
                        wall_clock=time.perf_counter() - tic, allocation=alloc)


def pa_fa(ch, pa_cfg, power_cfg):
    """Optimized power allocation with every sub-array active."""
    tic = time.perf_counter()
    ones = np.ones(ch.n_sub)
    omega, trace = pa_solve(ch, ones, pa_cfg, power_cfg)
    alloc = AllocationState(omega=omega, a=ones.astype(int), a_tilde=ones)
    value = hpe(ch, alloc, power_cfg)
    return MethodResult(method="PA-FA", hpe=value, active_count=ch.n_sub,
                        wall_clock=time.perf_counter() - tic, allocation=alloc,
                        extra={"pa_trace": trace})


def pa_sa(ch, pa_cfg, power_cfg, sa_cfg=None):
    """The proposed joint activation and power-allocation method."""
    sa_cfg = sa_cfg or SAConfig()
    alloc, report = joint_solve(ch, pa_cfg, sa_cfg, power_cfg)
    return MethodResult(method="PA-SA", hpe=report.final_hpe,
                        active_count=int(alloc.a.sum()),
                        wall_clock=report.wall_clock, allocation=alloc,
                        extra={"report": report})


def pa_es(ch, pa_cfg, power_cfg, subarray_cap=ES_SUBARRAY_CAP):
    """Optimized PA over every non-empty sub-array subset (exhaustive search).

    Subsets are solved as lane stacks of at most ``_ES_CHUNK_LANES``. Ties
    break toward fewer active sub-arrays, then the lowest subset index.
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
    best = None
    for start in range(0, len(masks), _ES_CHUNK_LANES):
        chunk = slice(start, start + _ES_CHUNK_LANES)
        omegas, _ = solve_lanes(ch, masks[chunk], pa_cfg, power_cfg)
        for index, mask, omega in zip(indices[chunk], masks[chunk], omegas):
            alloc = AllocationState(omega=omega, a=mask.astype(int), a_tilde=mask)
            value = hpe(ch, alloc, power_cfg)
            key = (-value, int(mask.sum()), int(index))
            if best is None or key < best[0]:
                best = (key, value, alloc)
    _, value, alloc = best
    return MethodResult(method="PA-ES", hpe=value,
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


def results_to_csv(results, path, n_sub=None, n_vr=None):
    """Results table: method, S, V, hpe, eta, active_count, seconds."""
    lines = ["method,n_subarrays,n_vr,hpe,eta,active_count,seconds"]
    for r in results:
        lines.append("%s,%s,%s,%.17g,%s,%d,%.6g" % (
            r.method,
            "" if n_sub is None else n_sub,
            "" if n_vr is None else n_vr,
            r.hpe,
            "" if r.eta is None else "%.17g" % r.eta,
            r.active_count,
            r.wall_clock))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
