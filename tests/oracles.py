"""Brute-force oracles shared by the test modules; not part of the package."""

import csv
import io
import itertools
from dataclasses import asdict

import numpy as np

from xlwpt import power
from xlwpt.geometry import AMPLITUDE_MODELS, MIN_USER_DISTANCE, UserPosition, as_points
from xlwpt.pa import solve_lanes
from xlwpt.power import consumed_lanes, harvested_lanes

GRID_ORACLE_MAX_VARS = 4


def csv_writer_text(header, rows):
    """``bench._write_csv``'s text as the csv module writes every row.

    A float cell goes in as its %.17g text and any other cell as is, so
    None is an empty cell and anything else str(); cells that hold a
    comma or a quote are quoted.
    """
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["%.17g" % v if isinstance(v, float) else v for v in row]
                     for row in rows)
    return text.getvalue()


def trace_record(trace):
    """Every field of a ``PATrace`` but the wall times, floats as exact reprs."""
    return (trace.converged, [repr({k: v for k, v in asdict(s).items() if k != "wall_ns"})
                              for s in trace.states])


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


def element_positions(geom, s):
    """All Ns element positions of sub-array s, row-major over (x, y) index."""
    if not 0 <= s < geom.n_sub:
        raise IndexError("sub-array index %d out of range" % s)
    ox, oy, _ = geom.sub_array_origins[s]
    ix, iy = np.meshgrid(np.arange(geom.nx), np.arange(geom.ny), indexing="ij")
    pos = np.zeros((geom.n_elements, 3))
    pos[:, 0] = ox + ix.ravel() * geom.d
    pos[:, 1] = oy + iy.ravel() * geom.d
    return pos


def module_center(geom, s):
    """The center of sub-array s: its corner plus half its span on each axis."""
    ox, oy, _ = geom.sub_array_origins[s]
    return np.array([ox + (geom.nx - 1) * geom.d / 2.0, oy + (geom.ny - 1) * geom.d / 2.0,
                     0.0])


def cosine_gain(theta, b):
    """The element gain 2(b+1) cos^b(theta) on [0, pi/2] and 0 outside; the
    cosine sees theta only inside, so no power of a negative cosine is formed."""
    theta = np.asarray(theta, dtype=float)
    inside = (theta >= 0.0) & (theta <= np.pi / 2.0)
    return np.where(inside, 2.0 * (b + 1.0) * np.cos(np.where(inside, theta, 0.0)) ** b, 0.0)


def scalar_channel(geom, s, user, amplitude_model="center"):
    """``geometry.channel`` as a per-element formula over ``element_positions``.

    Per-element spherical phase exp(-jk r_i); amplitude and pattern angle
    are referenced to the sub-array center (a BLAS dot and a scalar
    ``pow``) or to each element. It agrees with the kernel to ~1e-15
    relative, not bit for bit, and raises the same errors as
    ``geometry.channel`` in the same order.
    """
    if amplitude_model not in AMPLITUDE_MODELS:
        raise ValueError("unknown amplitude model %r" % amplitude_model)
    p = as_points(user.coords if isinstance(user, UserPosition) else user)
    if len(p) != 1:
        raise ValueError("channel takes one point, got %d" % len(p))
    p = p[0]
    if p[2] <= 0:
        raise ValueError("user must be in front of the array plane")
    elems = element_positions(geom, s)
    r_elem = np.linalg.norm(p[None, :] - elems, axis=1)
    if np.min(r_elem) < MIN_USER_DISTANCE:
        raise ValueError("user position degenerate: within %g m of an element"
                         % MIN_USER_DISTANCE)
    phase = np.exp(-1j * geom.wavenumber * r_elem)
    if amplitude_model == "center":
        r_ref = np.linalg.norm(p - module_center(geom, s))
        theta = np.arccos(np.clip(p[2] / r_ref, -1.0, 1.0))
        amp = geom.wavelength / (4.0 * np.pi * r_ref)
        gain = cosine_gain(theta, geom.boresight_exp)
        return amp * np.sqrt(gain) * phase
    theta = np.arccos(np.clip(p[2] / r_elem, -1.0, 1.0))
    amp = geom.wavelength / (4.0 * np.pi * r_elem)
    gain = cosine_gain(theta, geom.boresight_exp)
    return amp * np.sqrt(gain) * phase


def exp_channels(geom, points, amplitude_model="center"):
    """``geometry.channels`` as a product of complex temporaries.

    Forms the argument ``-1j * k * r``, its ``np.exp`` and the product with
    the real amplitude as three fresh complex arrays; the in-place kernel
    must give its bytes, signed zeros included.
    """
    pts = as_points(points)
    origins = np.array(geom.sub_array_origins)
    ex = origins[:, 0, None] + np.arange(geom.nx) * geom.d
    ey = origins[:, 1, None] + np.arange(geom.ny) * geom.d
    dx2 = (pts[:, 0, None, None] - ex) ** 2
    dy2 = (pts[:, 1, None, None] - ey) ** 2
    dz2 = pts[:, 2, None, None, None] ** 2
    shape = (len(pts), geom.n_sub, geom.n_elements)
    r_elem = np.sqrt((dx2[..., :, None] + dy2[..., None, :]) + dz2).reshape(shape)
    if np.any(r_elem < MIN_USER_DISTANCE):
        raise ValueError("user position degenerate")
    phase = np.exp(-1j * geom.wavenumber * r_elem)
    if amplitude_model == "center":
        centers = np.array([module_center(geom, s) for s in range(geom.n_sub)])
        r = np.sqrt(np.sum((pts[:, None, :] - centers) ** 2, axis=2))[..., None]
    else:
        r = r_elem
    theta = np.arccos(np.clip(pts[:, 2, None, None] / r, -1.0, 1.0))
    amp = geom.wavelength / (4.0 * np.pi * r)
    gain = cosine_gain(theta, geom.boresight_exp)
    return amp * np.sqrt(gain) * phase


def full_row_map(alloc, ch, probes):
    """``power.power_map`` with every sub-array's probe channels.

    Runs ``ch.kernel`` on all S rows for every probe in front of the array
    plane and scores them in one ``_received`` call with all S rows of the
    beam coefficients, switched-off and zero-power rows included; probes
    behind the plane read 0. The map, which synthesizes the radiating rows
    only, must give its bytes.
    """
    coef = power._coefficients(ch, alloc.omega, alloc.a.astype(float))
    pts = as_points(probes)
    values = np.zeros(len(pts))
    front = np.flatnonzero(pts[:, 2] > 0)
    cross = np.einsum("psi,smi->spm", ch.kernel(pts[front]), np.conj(ch.g))
    values[front] = power._received(coef, cross)
    return values


def einsum_harvest_grad(quad, q):
    """The polish's harvest gradient sum_t A[b, m, s, t] q[b, t, m] as an einsum.

    ``quad`` is the (B, M, S, S) view that ``Lanes`` keeps and ``q`` a
    (B, S, M) stack; ``pa._harvest_grad`` must give its bytes and layout.
    """
    return np.einsum("bmst,btm->bsm", quad, q)


def sort_projection(omega_raw, p_sub, active):
    """``pa.project_feasible`` made of row reductions over the user axis.

    The same capped-simplex rule (Duchi et al. 2008) with NumPy's row
    ``sum``, ``cumsum`` of the descending row and a reversed ``argmax``
    for the last k with u_k > tau_k (the last index when none is, as in
    inf and NaN rows); the column kernel must give its bytes. ``active``
    is an (S, M) or (S, 1) mask, as there.
    """
    omega = np.maximum(np.asarray(omega_raw, dtype=float), 0.0)
    omega = np.where(active, omega, 0.0)
    over = omega.sum(axis=-1) > p_sub
    if over.any():
        v = omega[over]
        u = np.sort(v, axis=-1)[:, ::-1]
        tau = (np.cumsum(u, axis=-1) - p_sub) / np.arange(1, v.shape[-1] + 1)
        k = v.shape[-1] - 1 - np.argmax((tau < u)[:, ::-1], axis=-1)
        omega[over] = np.maximum(v - tau[np.arange(len(v)), k][:, None], 0.0)
    return omega


def sequential_polish(lanes, lane_of, lam, seeds, max_iter=500):
    """``pa._polish`` as one trial per lane and pass, with a shared pass cap.

    The plain ascent that the batched polish must repeat bit for bit:
    every pass tries one step per running lane from its current q,
    accepts it if phi rises (step x 1.3) and halves the step otherwise.
    Returns the ascended points, their phi and each lane's trial count.
    """

    def phi_of(work, q):
        if q.shape[-1] == 1:
            # q times A q, as the polish forms phi at M = 1
            harvest = (q * np.einsum("bmst,btm->bsm", work.quad, q))[..., 0].sum(axis=-1)
        else:
            harvest = np.einsum("bsm,bmst,btm->b", q, work.quad, q)
        transmit = (work.slope * q**2).reshape(len(q), -1).sum(axis=-1)
        return harvest - lam * (transmit + work.fixed)

    work = lanes.take(lane_of)
    q = np.sqrt(seeds)
    best = phi_of(work, q)
    lip = np.where(work.lam_max + lam > 0,
                   2.0 * work.lam_max + 2.0 * lam * work.slope.max(axis=(1, 2)),
                   1.0)
    # a subnormal curvature counts as none, as its reciprocal overflows
    step = 1.0 / np.where(lip >= np.finfo(float).tiny, lip, 1.0)
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


def enumerate_pa_es(ch, pa_cfg, power_cfg):
    """PA-ES that solves every non-empty subset, with no bound to skip any.

    One lane stack holds all 2^S - 1 subsets, subset i (bit s set when
    sub-array s is on) in row i - 1, and each is scored with ``hpe()``'s
    lane kernels. The winner is the highest HPE, ties broken toward fewer
    active sub-arrays, then the lowest subset index. Returns the winner's
    HPE, activation and allocation.
    """
    indices = np.arange(1, 2**ch.n_sub)
    masks = ((indices[:, None] >> np.arange(ch.n_sub)) & 1).astype(float)
    omegas, _ = solve_lanes(ch, masks, pa_cfg, power_cfg)
    values = (harvested_lanes(ch, omegas, masks)
              / consumed_lanes(omegas, masks, power_cfg, ch.n_users, ch.n_elements))
    win = np.lexsort((indices, masks.sum(axis=1), -values))[0]
    return float(values[win]), masks[win].astype(int), omegas[win]
