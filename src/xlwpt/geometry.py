"""Modular XL-MIMO array geometry and near-field channel synthesis.

The array is a row of S uniform planar sub-array modules on the z=0 plane.
Channels follow the free-space spherical-wavefront model with a cosine
element radiation pattern: per-element phase, per-sub-array amplitude.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# users closer than this to any element are rejected as degenerate
MIN_USER_DISTANCE = 1e-6
AMPLITUDE_MODELS = ("center", "per_element")


def default_origins(n_sub, nx, ny, d):
    """Corner origins for a 1xS row of contiguous modules centered at x=0.

    Module centers sit at x = (s - (S-1)/2) * nx * d, y = 0, so the layout is
    symmetric about the array center and adjacent modules are separated by one
    element spacing.
    """
    origins = []
    for s in range(n_sub):
        cx = (s - (n_sub - 1) / 2.0) * nx * d
        origins.append((cx - (nx - 1) * d / 2.0, -(ny - 1) * d / 2.0, 0.0))
    return tuple(origins)


@dataclass(frozen=True)
class ArrayGeometry:
    """Layout of a modular XL-MIMO array made of S planar sub-arrays.

    Attributes
    ----------
    n_sub : number of sub-array modules S
    nx, ny : elements per module along x and y
    d : inter-element spacing [m]
    wavelength : carrier wavelength [m]
    element_size : largest physical dimension D of one element [m]
    boresight_exp : cosine-pattern exponent b (dimensionless)
    sub_array_origins : corner position of each module on z=0 [m]
    """

    n_sub: int
    nx: int
    ny: int
    d: float
    wavelength: float
    element_size: float
    boresight_exp: float
    sub_array_origins: tuple = field(default=None)

    def __post_init__(self):
        if self.n_sub < 1 or self.nx < 1 or self.ny < 1:
            raise ValueError("n_sub, nx and ny must all be >= 1")
        if not (self.d > 0 and self.wavelength > 0 and self.element_size > 0):
            raise ValueError("d, wavelength and element_size must be positive")
        if not self.boresight_exp >= 0:
            raise ValueError("boresight_exp must be >= 0")
        if self.sub_array_origins is None:
            object.__setattr__(
                self,
                "sub_array_origins",
                default_origins(self.n_sub, self.nx, self.ny, self.d),
            )
        origins = tuple(tuple(float(c) for c in o) for o in self.sub_array_origins)
        object.__setattr__(self, "sub_array_origins", origins)
        if len(origins) != self.n_sub:
            raise ValueError("need exactly one origin per sub-array")
        for o in origins:
            if len(o) != 3 or o[2] != 0.0:
                raise ValueError("sub-array origins must lie on the z=0 plane")
        self._check_no_overlap()

    def _check_no_overlap(self):
        wx = (self.nx - 1) * self.d
        wy = (self.ny - 1) * self.d
        boxes = [
            (o[0], o[0] + wx, o[1], o[1] + wy) for o in self.sub_array_origins
        ]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                a, b = boxes[i], boxes[j]
                if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]:
                    raise ValueError(
                        "sub-array bounding boxes %d and %d overlap" % (i, j)
                    )

    @property
    def n_elements(self):
        """Elements per sub-array, Ns = Nx * Ny."""
        return self.nx * self.ny

    @property
    def wavenumber(self):
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class UserPosition:
    """A user location in front of the array with its VR cluster tag.

    Every user row must have finite x, y and z, z > 0 and an integer VR
    label >= 1; a whole float label such as 2.0 is stored as the int 2.
    """

    x: float
    y: float
    z: float
    vr_label: int = 1

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError("user coordinates must be finite")
        if self.z <= 0:
            raise ValueError("users must be in front of the array plane (z > 0)")
        label = self.vr_label
        if not (math.isfinite(label) and label >= 1 and label == int(label)):
            raise ValueError("vr_label must be an integer cluster index >= 1")
        object.__setattr__(self, "vr_label", int(label))

    @property
    def coords(self):
        return np.array([self.x, self.y, self.z])


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


def sub_array_center(geom, s):
    """Geometric center of sub-array s (the amplitude/angle reference point)."""
    ox, oy, _ = geom.sub_array_origins[s]
    return np.array(
        [ox + (geom.nx - 1) * geom.d / 2.0, oy + (geom.ny - 1) * geom.d / 2.0, 0.0]
    )


def fraunhofer_distance(geom):
    """Fraunhofer array distance d_f = 2 D^2 (S Ns) / lambda."""
    return (
        2.0
        * geom.element_size**2
        * (geom.n_sub * geom.n_elements)
        / geom.wavelength
    )


def near_field_boundary(geom):
    """Radiative near-field service boundary, one tenth of d_f."""
    return fraunhofer_distance(geom) / 10.0


def radiation_pattern(theta, b):
    """Cosine element gain: 2(b+1) cos^b(theta) on [0, pi/2], zero elsewhere."""
    theta = np.asarray(theta, dtype=float)
    inside = (theta >= 0.0) & (theta <= np.pi / 2.0)
    gain = np.where(inside, 2.0 * (b + 1.0) * np.cos(np.where(inside, theta, 0.0)) ** b, 0.0)
    if gain.ndim == 0:
        return float(gain)
    return gain


def channel(geom, s, user, amplitude_model="center"):
    """Near-field channel vector from sub-array s to one user.

    Per-element spherical phase exp(-jk r_i); amplitude and pattern angle are
    referenced to the sub-array center by default, or per element when
    ``amplitude_model="per_element"``.
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
        r_ref = np.linalg.norm(p - sub_array_center(geom, s))
        theta = np.arccos(np.clip(p[2] / r_ref, -1.0, 1.0))
        amp = geom.wavelength / (4.0 * np.pi * r_ref)
        gain = radiation_pattern(theta, geom.boresight_exp)
        return amp * np.sqrt(gain) * phase
    theta = np.arccos(np.clip(p[2] / r_elem, -1.0, 1.0))
    amp = geom.wavelength / (4.0 * np.pi * r_elem)
    gain = radiation_pattern(theta, geom.boresight_exp)
    return amp * np.sqrt(gain) * phase


def as_points(points):
    """Points as a (P, 3) float array; a (..., 3) stack is flattened.

    Raises ValueError unless the last axis holds (x, y, z), so an (N, 2)
    array is never read as other, 3-D points, and unless every coordinate
    is finite.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0 or pts.shape[-1] != 3:
        raise ValueError("points must have shape (..., 3), got %s" % (pts.shape,))
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts.reshape(-1, 3)


def channels(geom, points, amplitude_model="center"):
    """Near-field channels from all S sub-arrays to P points, shape (P, S, Ns).

    Entry ``[p, s]`` is ``channel(geom, s, points[p], amplitude_model)``
    computed with the same per-element arithmetic. The center model's
    reference distance and pattern gain are computed on arrays where
    ``channel`` uses a BLAS dot and scalar ``pow``, so its entries can differ
    from ``channel`` in the last few bits (1e-15 relative). The element grid
    is separable (x from ``nx``, y from ``ny``, z = 0), so squared distances
    broadcast as ``(dx^2 + dy^2) + dz^2`` without a (P, S, Ns, 3) temporary.
    """
    if amplitude_model not in AMPLITUDE_MODELS:
        raise ValueError("unknown amplitude model %r" % amplitude_model)
    pts = as_points(points)
    if np.any(pts[:, 2] <= 0):
        raise ValueError("user must be in front of the array plane")
    origins = np.array(geom.sub_array_origins)
    ex = origins[:, 0, None] + np.arange(geom.nx) * geom.d     # (S, nx)
    ey = origins[:, 1, None] + np.arange(geom.ny) * geom.d     # (S, ny)
    dx2 = (pts[:, 0, None, None] - ex) ** 2                    # (P, S, nx)
    dy2 = (pts[:, 1, None, None] - ey) ** 2                    # (P, S, ny)
    dz2 = pts[:, 2, None, None, None] ** 2
    shape = (len(pts), geom.n_sub, geom.n_elements)
    # element index ix * ny + iy, as in element_positions
    r_elem = np.sqrt((dx2[..., :, None] + dy2[..., None, :]) + dz2).reshape(shape)
    if np.any(r_elem < MIN_USER_DISTANCE):
        raise ValueError("user position degenerate: within %g m of an element"
                         % MIN_USER_DISTANCE)
    phase = np.exp(-1j * geom.wavenumber * r_elem)
    if amplitude_model == "center":
        centers = np.array([sub_array_center(geom, s) for s in range(geom.n_sub)])
        r = np.sqrt(np.sum((pts[:, None, :] - centers) ** 2, axis=2))[..., None]
    else:
        r = r_elem
    theta = np.arccos(np.clip(pts[:, 2, None, None] / r, -1.0, 1.0))
    amp = geom.wavelength / (4.0 * np.pi * r)
    gain = radiation_pattern(theta, geom.boresight_exp)
    return amp * np.sqrt(gain) * phase


@dataclass
class ChannelSet:
    """Channels g[s, m] for every (sub-array, user) pair with cached products.

    ``gram[s]`` holds g_{s,k}^T g_{s,m}^* so harvested-power evaluation never
    touches the raw element dimension. ``kappa`` is the MRT normalizer
    1/||g||, defined as 0 for blocked (zero-norm) pairs so products vanish.
    """

    g: np.ndarray        # (S, M, Ns) complex
    norms: np.ndarray    # (S, M)
    kappa: np.ndarray    # (S, M)
    gram: np.ndarray     # (S, M, M) complex, gram[s, k, m] = g_{s,k}^T g_{s,m}^*

    @property
    def n_sub(self):
        return self.g.shape[0]

    @property
    def n_users(self):
        return self.g.shape[1]

    @property
    def n_elements(self):
        return self.g.shape[2]


def build_channel_set(geom, users, amplitude_model="center"):
    """Synthesize all S x M channels plus norms, kappa and Gram products."""
    if len(users) == 0:
        raise ValueError("need at least one user")
    boundary = near_field_boundary(geom)
    points = np.array([u.coords if isinstance(u, UserPosition)
                       else np.asarray(u, float) for u in users])
    for m, p in enumerate(points):
        if np.linalg.norm(p) > boundary:
            warnings.warn(
                "user %d at range %.3g m lies beyond the near-field service "
                "boundary d_f/10 = %.3g m" % (m, np.linalg.norm(p), boundary),
                stacklevel=2,
            )
    g = np.ascontiguousarray(
        channels(geom, points, amplitude_model).transpose(1, 0, 2))
    norms = np.linalg.norm(g, axis=2)
    kappa = np.zeros_like(norms)
    nz = norms > 0
    kappa[nz] = 1.0 / norms[nz]
    gram = np.einsum("ski,smi->skm", g, np.conj(g))
    return ChannelSet(g=g, norms=norms, kappa=kappa, gram=gram)
