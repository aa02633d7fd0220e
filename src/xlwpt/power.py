"""Harvested RF power, consumed system power and the HPE ratio."""

from dataclasses import dataclass, field

import numpy as np

from .geometry import channels

FEASIBILITY_TOL = 1e-9
# complex channel entries (probes x S x Ns) synthesized per power-map chunk;
# small enough that the chunk's temporaries stay in cache
_MAP_CHUNK_ENTRIES = 16384


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
    a_tilde: np.ndarray        # (S,) parameterized activations in [0, 1]

    def __post_init__(self):
        # copies: switched-off rows are zeroed below, never in the caller's arrays
        self.omega = np.array(self.omega, dtype=float)
        self.a = np.asarray(self.a, dtype=int)
        self.a_tilde = np.array(self.a_tilde, dtype=float)
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

    def weights(self, use_parameterized):
        return self.a_tilde if use_parameterized else self.a.astype(float)


def uniform_split(ch, power_cfg):
    """Every sub-array's budget P_s shared equally by the users, (S, M)."""
    return np.full((ch.n_sub, ch.n_users), power_cfg.p_sub(ch.n_elements) / ch.n_users)


def _coherent_user_sums(ch, omega, weights):
    """Complex coherent sums T[k, m] = sum_s w_s kappa_{s,m} sqrt(O_{s,m}) g_{s,k}^T g_{s,m}^*.

    Leading axes of ``omega`` (..., S, M) and ``weights`` (..., S) are lanes.
    """
    coef = weights[..., None] * ch.kappa * np.sqrt(np.maximum(omega, 0.0))
    return np.einsum("...sm,skm->...km", coef, ch.gram)


def _harvested(ch, omega, weights):
    """Harvested power of each lane of an allocation stack [W]."""
    t = _coherent_user_sums(ch, omega, weights)
    return np.sum(np.sum(np.abs(t) ** 2, axis=-1), axis=-1)


def _consumed(omega, weights, power_cfg, n_users, n_elements):
    """Consumed power of each lane of an allocation stack [W]."""
    row = omega.sum(axis=-1)
    bracket = row / power_cfg.varsigma + 2.0 * power_cfg.p_syn + n_elements * power_cfg.p_ct
    # a stacked dot: the same BLAS ddot per lane as np.dot
    return ((weights[..., None, :] @ bracket[..., :, None])[..., 0, 0]
            + n_users * power_cfg.p_cr)


def received_power_per_user(ch, alloc):
    """Harvested RF power at each receiving user [W]."""
    t = _coherent_user_sums(ch, alloc.omega, alloc.a)
    return np.sum(np.abs(t) ** 2, axis=1)


def harvested_power(ch, alloc, use_parameterized=False):
    """Total RF power collected by all users for the given allocation [W].

    Uses the coherent inner-sum form (O(S M^2)); the expanded double-sum over
    sub-array pairs is algebraically identical and serves as a test oracle.
    """
    if alloc.omega.shape != (ch.n_sub, ch.n_users):
        raise ValueError("allocation dimensions do not match the channel set")
    return float(_harvested(ch, alloc.omega, alloc.weights(use_parameterized)))


def consumed_power(alloc, power_cfg, n_users, n_elements, use_parameterized=False):
    """Total power drawn by the system for the given allocation [W]."""
    return float(_consumed(alloc.omega, alloc.weights(use_parameterized), power_cfg,
                           n_users, n_elements))


def hpe(ch, alloc, power_cfg, use_parameterized=False):
    """Harvested-power efficiency: harvested over consumed power."""
    pc = consumed_power(alloc, power_cfg, ch.n_users, ch.n_elements,
                        use_parameterized)
    if pc <= 0:
        raise ValueError("consumed power must be positive to form the HPE ratio")
    return harvested_power(ch, alloc, use_parameterized) / pc


def power_map(geom, alloc, ch, probes, amplitude_model="center"):
    """Harvested power a virtual probe user would collect at each location.

    The precoders and power coefficients stay fixed at the values designed
    for the real users; only the receive channel is re-synthesized per probe.
    """
    coef = alloc.a[:, None] * ch.kappa * np.sqrt(np.maximum(alloc.omega, 0.0))
    g_conj = np.conj(ch.g)
    pts = np.asarray(probes, dtype=float).reshape(-1, 3)
    values = np.zeros(len(pts))
    # probes behind the array plane lie outside the element pattern support
    behind = pts[:, 2] <= 0
    front = np.flatnonzero(~behind)
    step = max(1, _MAP_CHUNK_ENTRIES // (geom.n_sub * geom.n_elements))
    for start in range(0, len(front), step):
        idx = front[start:start + step]
        gq = channels(geom, pts[idx], amplitude_model)
        cross = np.einsum("psi,smi->psm", gq, g_conj)
        t = np.sum(coef * cross, axis=1)
        values[idx] = np.sum(np.abs(t) ** 2, axis=1)
    return values
