"""Scenario configuration: geometry, users, power constants, solver settings."""

import json
import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import AMPLITUDE_MODELS, ArrayGeometry, UserPosition, build_channel_set
from .pa import PAConfig
from .power import PowerConfig
from .sa import SAConfig

KNOWN_METHODS = ("PA-SA", "PA-FA", "PA-ES", "EA-FA")
ARTIFACTS = ("results", "traces", "allocation")


class ConfigError(ValueError):
    """Raised for unparseable or physically invalid scenario files."""


@dataclass(frozen=True)
class ClusterSpec:
    """Seeded user generator: V centers on an arc in front of the array.

    Users are drawn uniformly in a disc of the given radius around their
    cluster center; cluster sizes split the user count with the largest
    cluster first.
    """

    n_vr: int = 2
    count: int = 3
    range_m: float = 1.1
    radius_m: float = 0.15
    arc_deg: float = 80.0

    def __post_init__(self):
        if not 1 <= self.n_vr <= self.count:
            raise ConfigError("need count >= V >= 1 users")
        if not (self.range_m > 0 and self.radius_m > 0 and self.arc_deg > 0):
            raise ConfigError("range, radius and arc_deg must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified benchmark scenario."""

    n_sub: int = 6
    nx: int = 32
    ny: int = 8
    d: float = 0.05
    wavelength: float = 0.1
    element_size: float = 0.025
    boresight_exp: float = 2.0
    origins: tuple[tuple[float, ...], ...] | None = None
    amplitude_model: str = "center"
    # explicit (x, y, z, vr) rows; None draws users from the clusters
    positions: tuple[tuple[float, ...], ...] | None = None
    clusters: ClusterSpec = field(default_factory=ClusterSpec)
    power: PowerConfig = field(default_factory=PowerConfig)
    pa: PAConfig = field(default_factory=PAConfig)
    sa: SAConfig = field(default_factory=SAConfig)
    seed: int = 0
    es_cap: int = 12
    methods: tuple[str, ...] = KNOWN_METHODS
    output_dir: str = "out"
    artifacts: tuple[str, ...] = ARTIFACTS

    def __post_init__(self):
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise ValueError("unknown amplitude model %r" % (self.amplitude_model,))
        self.geometry()  # ArrayGeometry rejects an invalid layout
        if self.positions is not None:
            if not self.positions:
                raise ValueError("need at least one user position")
            for p in self.positions:
                if len(p) != 4 or not all(math.isfinite(v) for v in p):
                    raise ValueError("each user position needs four finite "
                                     "numbers [x, y, z, vr]")
                if not p[2] > 0:
                    raise ValueError("user z must be positive")
                if not (p[3] >= 1 and p[3] == int(p[3])):
                    raise ValueError("user VR label must be an integer >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.es_cap < 1:
            raise ValueError("es_cap must be >= 1")
        for name, known in (("methods", KNOWN_METHODS), ("artifacts", ARTIFACTS)):
            chosen = getattr(self, name)
            if not chosen or any(v not in known for v in chosen):
                raise ValueError("%s must be a non-empty list of %s"
                                 % (name, ", ".join(known)))

    def geometry(self):
        return ArrayGeometry(n_sub=self.n_sub, nx=self.nx, ny=self.ny,
                             d=self.d, wavelength=self.wavelength,
                             element_size=self.element_size,
                             boresight_exp=self.boresight_exp,
                             sub_array_origins=self.origins)

    def pa_config(self):
        return self.pa

    def sa_config(self):
        return self.sa

    def users(self, rng=None):
        """Materialize user positions, explicit or cluster-generated."""
        if self.positions is not None:
            return [UserPosition(x=p[0], y=p[1], z=p[2], vr_label=int(p[3]))
                    for p in self.positions]
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        return generate_cluster_users(self.clusters, rng)

    def channel_set(self, rng=None):
        return build_channel_set(self.geometry(), self.users(rng),
                                 self.amplitude_model)


def cluster_sizes(count, n_vr):
    """Split count users over n_vr clusters, largest cluster first."""
    base = count // n_vr
    rem = count % n_vr
    return [base + (1 if v < rem else 0) for v in range(n_vr)]


def generate_cluster_users(spec, rng):
    """Draw users around V arc-placed cluster centers; seeded and S-independent."""
    half = math.radians(spec.arc_deg) / 2.0
    if spec.n_vr == 1:
        # a single moderately off-center VR: far enough from boresight that
        # activation pruning has non-stationarity to exploit, close enough
        # that several modules still serve the cluster
        angles = [0.3 * half]
    else:
        angles = list(np.linspace(-half, half, spec.n_vr))
    users = []
    for v, (angle, size) in enumerate(zip(angles, cluster_sizes(spec.count, spec.n_vr)),
                                      start=1):
        cx = spec.range_m * math.sin(angle)
        cz = spec.range_m * math.cos(angle)
        for _ in range(size):
            r = spec.radius_m * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            users.append(UserPosition(x=cx + r * math.cos(phi),
                                      y=r * math.sin(phi),
                                      z=max(cz, 1e-3),
                                      vr_label=v))
    return users


# Scenario JSON key -> ScenarioConfig field it sets; "pa.gamma" is the gamma
# field of the nested PAConfig. The field's annotation types the JSON value.
SCHEMA = {
    "geometry.S": "n_sub",
    "geometry.Nx": "nx",
    "geometry.Ny": "ny",
    "geometry.d": "d",
    "geometry.lambda": "wavelength",
    "geometry.D": "element_size",
    "geometry.b": "boresight_exp",
    "geometry.origins": "origins",
    "geometry.amplitude_model": "amplitude_model",
    "users.positions": "positions",
    "users.clusters.V": "clusters.n_vr",
    "users.clusters.count": "clusters.count",
    "users.clusters.range": "clusters.range_m",
    "users.clusters.radius": "clusters.radius_m",
    "users.clusters.arc_deg": "clusters.arc_deg",
    "power.varsigma": "power.varsigma",
    "power.P_et": "power.p_et",
    "power.P_syn": "power.p_syn",
    "power.P_ct": "power.p_ct",
    "power.P_cr": "power.p_cr",
    "solver.epsilon": "pa.epsilon",
    "solver.delta": "sa.delta",
    "solver.gamma": "pa.gamma",
    "solver.lambda0": "pa.lambda0",
    "solver.max_outer": "pa.max_outer",
    "solver.max_dr": "pa.max_dr",
    "solver.dr_residual_tol": "pa.dr_residual_tol",
    "solver.max_sa_iters": "sa.max_iters",
    "solver.warm_start": "sa.warm_start",
    "solver.seed": "seed",
    "solver.es_cap": "es_cap",
    "methods": "methods",
    "outputs.dir": "output_dir",
    "outputs.artifacts": "artifacts",
}
_SECTIONS = {key.rpartition(".")[0] for key in SCHEMA} - {""}
# the config class behind each SCHEMA field prefix
_OWNERS = {"": ScenarioConfig, "clusters": ClusterSpec, "power": PowerConfig,
           "pa": PAConfig, "sa": SAConfig}
_TYPE_NAMES = {int: "an integer", float: "a finite number",
               bool: "true or false", str: "a string"}


def _typed(key, value, kind):
    """Check a JSON value against a field annotation; returns the field value."""
    args = typing.get_args(kind)
    if type(None) in args:                      # X | None
        return None if value is None else _typed(key, value, args[0])
    if typing.get_origin(kind) is tuple:        # tuple[X, ...]
        if isinstance(value, list):
            return tuple(_typed("%s[%d]" % (key, i), v, args[0])
                         for i, v in enumerate(value))
    elif kind is float:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value)):
            return float(value)
    elif isinstance(value, kind) and isinstance(value, bool) == (kind is bool):
        return value
    raise ConfigError("%s must be %s, got %r"
                      % (key, _TYPE_NAMES.get(kind, "a list"), value))


def _flatten(raw, prefix=""):
    """Yield (key, value) for every setting in a scenario JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("%s must be a JSON object" % (prefix[:-1] or "scenario"))
    for name, value in raw.items():
        key = prefix + name
        if key in _SECTIONS:
            yield from _flatten(value, key + ".")
        elif key in SCHEMA:
            yield key, value
        else:
            raise ConfigError("unknown scenario key %s" % key)


def _build(cls, assigned, **nested):
    """cls(**nested) plus the fields each JSON key in ``assigned`` sets.

    A ValueError or TypeError becomes a ConfigError that names the keys
    rejected on their own, or every given key when only their combination
    is invalid.
    """
    def make(*keys):
        kwargs = dict(nested)
        for key in keys:
            kwargs.update(assigned[key])
        return cls(**kwargs)

    try:
        return make(*assigned)
    except (TypeError, ValueError) as exc:
        error = exc
    bad = []
    for key in assigned:
        try:
            make(key)
        except (TypeError, ValueError):
            bad.append(key)
    raise ConfigError("%s: %s" % (", ".join(bad or assigned), error)) from error


def read_scenario_json(path):
    """The parsed JSON of a scenario file; an empty file reads as {}."""
    with open(path) as fh:
        text = fh.read().strip()
    return json.loads(text) if text else {}


def load_scenario(path):
    """Parse and validate a JSON scenario file; empty files yield defaults."""
    return scenario_from_dict(read_scenario_json(path))


def scenario_from_dict(raw):
    """Build a ScenarioConfig from a parsed scenario JSON object.

    Every key must be in SCHEMA and every value of its field's type; any
    value a config's ``__post_init__`` rejects raises ConfigError too.
    """
    assigned = {owner: {} for owner in _OWNERS}
    for key, value in _flatten(raw):
        owner, _, name = SCHEMA[key].rpartition(".")
        kind = next(f.type for f in fields(_OWNERS[owner]) if f.name == name)
        assigned[owner][key] = {name: _typed(key, value, kind)}
    geo = assigned[""]
    if "geometry.lambda" in geo:
        # d and D track the wavelength unless given explicitly
        lam = geo["geometry.lambda"]
        if "geometry.d" not in geo:
            lam["d"] = lam["wavelength"] / 2.0
        if "geometry.D" not in geo:
            lam["element_size"] = lam["wavelength"] / 4.0
    nested = {owner: _build(cls, assigned[owner])
              for owner, cls in _OWNERS.items() if owner}
    return _build(ScenarioConfig, assigned[""], **nested)
