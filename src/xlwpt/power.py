"""Harvested RF power, consumed system power and the HPE ratio.

The ``*_lanes`` kernels weight sub-arrays by any activations, binary or
parameterized; the ``AllocationState`` functions score its binary ones.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import as_points

FEASIBILITY_TOL = 1e-9
# complex channel entries (probes x S x Ns) synthesized per power-map chunk,
# 32 probes at S=6, Ns=256. Set from a sweep over 16K-192K entries on an
# 81x81 raster: this size pays each chunk's fixed NumPy call cost a third
# as often as 16K did, while a worker's ~1.2 MB of temporaries (24 B per
# entry) still fits a 2 MB per-core L2; wider chunks ran no faster and
# only added resident memory. Every size gives the same raster bytes.
_MAP_CHUNK_ENTRIES = 49152


@dataclass(frozen=True)
class PowerConfig:
    """Scalar power-consumption constants of the XL-MIMO system.

    varsigma : power-amplifier efficiency, in (0, 1]
    p_et : per-element transmit power cap [W]
    p_syn : per-sub-array frequency-synthesizer power [W]
    p_ct : per-RF-chain circuit power [W]
    p_cr : per-user receiver circuit power [W]
    """

    varsigma: float = 0.35
    p_et: float = 0.05
    p_syn: float = 0.05
    p_ct: float = 0.0482
    p_cr: float = 0.0625

    def __post_init__(self):
        if not 0 < self.varsigma <= 1:
            raise ValueError("varsigma must lie in (0, 1]")
        if not self.p_et > 0:
            raise ValueError("p_et must be positive")
        for name in ("p_syn", "p_ct", "p_cr"):
            if not getattr(self, name) >= 0:
                raise ValueError("%s must be >= 0" % name)

    def p_sub(self, n_elements):
        """Per-sub-array transmit power budget P_s = Ns * P_et."""
        return n_elements * self.p_et

    def p_total(self, n_sub, n_elements):
        """Combined transmit power budget P_t = S * P_s."""
        return n_sub * self.p_sub(n_elements)


@dataclass
class AllocationState:
    """Power coefficients with binary and parameterized activations."""

    omega: np.ndarray          # (S, M) power coefficients [W]
    a: np.ndarray              # (S,) binary activations
    a_tilde: np.ndarray = None  # (S,) parameterized activations in [0, 1]; a when None

    def __post_init__(self):
        # copies: switched-off rows are zeroed below, never in the caller's arrays
        self.omega = np.array(self.omega, dtype=float)
        self.a = np.asarray(self.a, dtype=int)
        self.a_tilde = np.array(self.a if self.a_tilde is None else self.a_tilde,
                                dtype=float)
        if self.omega.ndim != 2:
            raise ValueError("omega must be an (S, M) matrix")
        if self.a.shape != (self.omega.shape[0],) or self.a_tilde.shape != self.a.shape:
            raise ValueError("activation vectors must have length S")
        # inactive sub-arrays hold no power and no fractional weight
        off = self.a == 0
        self.omega[off, :] = 0.0
        self.a_tilde[off] = 0.0

    def validate(self, power_cfg, n_elements):
        if np.any(self.omega < -FEASIBILITY_TOL):
            raise ValueError("omega must be elementwise non-negative")
        p_sub = power_cfg.p_sub(n_elements)
        row = self.omega.sum(axis=1)
        if np.any(row > p_sub + FEASIBILITY_TOL):
            raise ValueError("per-sub-array power constraint violated")
        total = float((self.a * row).sum())
        if total > power_cfg.p_total(len(self.a), n_elements) + FEASIBILITY_TOL:
            raise ValueError("total power constraint violated")


def uniform_split(ch, power_cfg):
    """Every sub-array's budget P_s shared equally by the users, (S, M)."""
    return np.full((ch.n_sub, ch.n_users), power_cfg.p_sub(ch.n_elements) / ch.n_users)


def _coefficients(ch, omega, weights):
    """Beam coefficients w_s kappa_{s,m} sqrt(O_{s,m}), (..., S, M)."""
    return weights[..., None] * ch.kappa * np.sqrt(np.maximum(omega, 0.0))


def _received(coef, cross):
    """Harvested power at each receiver k of each lane [W].

    Beams add by power over the coherent sums
    T[k, m] = sum_s coef_{s,m} cross[s, k, m], where cross[s, k, m] is the
    receiver's channel g_{s,k}^T g_{s,m}^*: ``gram`` for the users, or a
    probe's channels against the users'. Leading axes of ``coef``
    (..., S, M) are lanes.
    """
    t = np.einsum("...sm,skm->...km", coef, cross)
    return np.sum(np.abs(t) ** 2, axis=-1)


def harvested_lanes(ch, omega, weights):
    """Harvested power of each lane of an allocation stack [W].

    Uses the coherent inner-sum form (O(S M^2)); the expanded double-sum over
    sub-array pairs is algebraically identical and serves as a test oracle.
    Leading axes of ``omega`` (..., S, M) and ``weights`` (..., S) are lanes.
    """
    return np.sum(_received(_coefficients(ch, omega, weights), ch.gram), axis=-1)


def consumed_lanes(omega, weights, power_cfg, n_users, n_elements):
    """Consumed power of each lane of an allocation stack [W]."""
    row = omega.sum(axis=-1)
    bracket = row / power_cfg.varsigma + 2.0 * power_cfg.p_syn + n_elements * power_cfg.p_ct
    # a stacked dot: the same BLAS ddot per lane as np.dot
    return ((weights[..., None, :] @ bracket[..., :, None])[..., 0, 0]
            + n_users * power_cfg.p_cr)


def _weights(ch, alloc):
    """The allocation's activations as lane weights, once its shape fits ``ch``."""
    if alloc.omega.shape != (ch.n_sub, ch.n_users):
        raise ValueError("allocation dimensions do not match the channel set")
    return alloc.a.astype(float)


def harvested_power(ch, alloc):
    """Total RF power collected by all users for the given allocation [W]."""
    return float(harvested_lanes(ch, alloc.omega, _weights(ch, alloc)))


def consumed_power(alloc, power_cfg, n_users, n_elements):
    """Total power drawn by the system for the given allocation [W]."""
    return float(consumed_lanes(alloc.omega, alloc.a.astype(float), power_cfg,
                                n_users, n_elements))


def hpe(ch, alloc, power_cfg):
    """Harvested-power efficiency: harvested over consumed power."""
    pc = consumed_power(alloc, power_cfg, ch.n_users, ch.n_elements)
    if pc <= 0:
        raise ValueError("consumed power must be positive to form the HPE ratio")
    return harvested_power(ch, alloc) / pc


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def power_map(alloc, ch, probes):
    """Harvested power a virtual probe user would collect at each location.

    The precoders and power coefficients stay fixed at the values designed
    for the real users; only the receive channel is synthesized per probe,
    by ``ch.kernel``, the kernel that made the users' channels. A probe at
    a user's position gets that user's received power, since both go
    through ``_received``. The caller and one helper thread per spare CPU
    draw the next probe chunk from one shared queue until it is empty, so
    a worker that loses CPU time leaves the rest to the others. NumPy
    releases the GIL inside the chunks' large elementwise loops, and a
    chunk's arithmetic does not depend on its size or on the thread that
    runs it, so every value has the same bits on any CPU count.
    """
    coef = _coefficients(ch, alloc.omega, _weights(ch, alloc))
    g_conj = np.conj(ch.g)
    pts = as_points(probes)
    values = np.zeros(len(pts))
    # probes behind the array plane lie outside the element pattern support
    front = np.flatnonzero(pts[:, 2] > 0)
    step = max(1, _MAP_CHUNK_ENTRIES // (ch.n_sub * ch.n_elements))
    chunks = deque(range(0, len(front), step))

    def fill():
        # popleft is atomic, so each chunk goes to one thread and no two
        # threads write the same entry of values
        while True:
            try:
                start = chunks.popleft()
            except IndexError:
                return
            idx = front[start:start + step]
            # laid out (S, probes, M) like gram
            cross = np.einsum("psi,smi->spm", ch.kernel(pts[idx]), g_conj)
            values[idx] = _received(coef, cross)

    workers = min(_cpu_count(), len(chunks))
    # the executor starts a thread per submitted fill only, so a map of one
    # chunk, or a process on one CPU, runs on the calling thread alone; on
    # leaving the with block every helper has finished
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        futures = [pool.submit(fill) for _ in range(workers - 1)]
        fill()
        for future in futures:
            future.result()
    return values
