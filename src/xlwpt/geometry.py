"""Modular XL-MIMO array geometry and near-field channel synthesis.

The array is a row of S uniform planar sub-array modules on the z=0 plane.
Channels follow the free-space spherical-wavefront model with a cosine
element radiation pattern: per-element phase, per-sub-array amplitude.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

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
    amplitude_model : amplitude/angle reference point, "center" or "per_element"
    """

    n_sub: int
    nx: int
    ny: int
    d: float
    wavelength: float
    element_size: float
    boresight_exp: float
    sub_array_origins: tuple = field(default=None)
    amplitude_model: str = "center"

    def __post_init__(self):
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise ValueError("unknown amplitude model %r" % (self.amplitude_model,))
        if self.n_sub < 1 or self.nx < 1 or self.ny < 1:
            raise ValueError("n_sub, nx and ny must all be >= 1")
        if not all(map(math.isfinite, (self.d, self.wavelength, self.element_size,
                                       self.boresight_exp))):
            raise ValueError("d, wavelength, element_size and boresight_exp must be finite")
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
            if len(o) != 3:
                raise ValueError("each sub-array origin needs three numbers [x, y, z], "
                                 "got %d" % len(o))
            if not all(map(math.isfinite, o)):
                raise ValueError("sub-array origins must be finite, got %r" % (o,))
            if o[2] != 0.0:
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


def sub_array_center(geom, s):
    """Geometric center of sub-array s (the amplitude/angle reference point)."""
    ox, oy, _ = geom.sub_array_origins[s]
    return np.array(
        [ox + (geom.nx - 1) * geom.d / 2.0, oy + (geom.ny - 1) * geom.d / 2.0, 0.0]
    )


def fraunhofer_distance(geom):
    """Fraunhofer array distance d_f = 2 D^2 (S Ns) / lambda; inf past the float range."""
    return (
        2.0
        * (geom.element_size * geom.element_size)
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
    return np.where(inside, 2.0 * (b + 1.0) * np.cos(np.where(inside, theta, 0.0)) ** b, 0.0)


def channel(geom, s, user):
    """Near-field channel vector from sub-array s to one user, shape (Ns,).

    The one-point view of ``ChannelKernel``: the kernel of sub-array s
    alone runs on the user, so the vector has the bytes of the row
    ``g[s, m]`` that ``build_channel_set`` gives that user. Raises
    ValueError unless the user is one finite point in front of the array
    plane, at least ``MIN_USER_DISTANCE`` from every element of sub-array
    s, and IndexError unless 0 <= s < S.
    """
    p = as_points(user.coords if isinstance(user, UserPosition) else user)
    if len(p) != 1:
        raise ValueError("channel takes one point, got %d" % len(p))
    if p[0, 2] <= 0:
        raise ValueError("user must be in front of the array plane")
    if not 0 <= s < geom.n_sub:
        raise IndexError("sub-array index %d out of range" % s)
    one = replace(geom, n_sub=1, sub_array_origins=geom.sub_array_origins[s:s + 1])
    return ChannelKernel(one)(p)[0, 0]


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


class ChannelKernel:
    """Near-field channels from all S sub-arrays of one geometry to many points.

    Built once from ``geom``, whose amplitude model it follows, it holds the
    geometry, its element x and y grids and sub-array centers. ``kernel(pts)``
    maps a (P, 3) array of finite points with z > 0 to their (P, S, Ns)
    channels, checking only the minimum element distance; ``channels`` checks
    raw points first, and a ``ChannelSet`` keeps the kernel that made it.

    ``channel(geom, s, pt)`` is its one-point view, entry ``[0, s]`` for
    ``pts = [pt]``, with these bytes. Squared distances broadcast as
    ``(dx^2 + dy^2) + dz^2`` over the separable element grid.
    The phases go into one complex buffer: x = -k r overwrites the
    distances, ``cos(x)`` and ``sin(x)`` fill its real and imaginary views
    (the values the C library's complex ``exp`` gives for
    ``np.exp(-1j * k * r)``), and the amplitude multiplies it in place as a
    real-times-complex product. The bytes are those of
    ``amp * sqrt(gain) * np.exp(-1j * k * r)``, without its temporaries.
    """

    def __init__(self, geom):
        self.geom = geom
        origins = np.array(geom.sub_array_origins)
        self.ex = origins[:, 0, None] + np.arange(geom.nx) * geom.d     # (S, nx)
        self.ey = origins[:, 1, None] + np.arange(geom.ny) * geom.d     # (S, ny)
        # amplitude and angle refer to the sub-array centers or to each element
        self.centers = (np.array([sub_array_center(geom, s) for s in range(geom.n_sub)])
                        if geom.amplitude_model == "center" else None)

    def __call__(self, pts):
        shape = (len(pts), self.geom.n_sub, self.geom.n_elements)
        dx2 = (pts[:, 0, None, None] - self.ex) ** 2               # (P, S, nx)
        dy2 = (pts[:, 1, None, None] - self.ey) ** 2               # (P, S, ny)
        # element index ix * ny + iy, row-major over the (x, y) grid
        r_elem = np.add(dx2[..., :, None], dy2[..., None, :]).reshape(shape)
        r_elem += pts[:, 2, None, None] ** 2
        np.sqrt(r_elem, out=r_elem)
        if np.any(r_elem < MIN_USER_DISTANCE):
            raise ValueError("user position degenerate: within %g m of an element"
                             % MIN_USER_DISTANCE)
        if self.centers is not None:
            r = np.sqrt(np.sum((pts[:, None, :] - self.centers) ** 2, axis=2))[..., None]
        else:
            r = r_elem
        theta = np.arccos(np.clip(pts[:, 2, None, None] / r, -1.0, 1.0))
        amp = self.geom.wavelength / (4.0 * np.pi * r)
        gain = radiation_pattern(theta, self.geom.boresight_exp)
        scale = amp * np.sqrt(gain)
        # x = -k r, the imaginary part of -1j * k * r, in r_elem's buffer
        x = np.multiply(r_elem, -self.geom.wavenumber, out=r_elem)
        out = np.empty(shape, dtype=complex)
        np.cos(x, out=out.real)
        np.sin(x, out=out.imag)
        # a real times a complex array, as amp * sqrt(gain) * phase multiplies:
        # where the gain is 0 the zeros keep the signs that product gives
        return np.multiply(scale, out, out=out)


def channels(kernel, points):
    """Near-field channels from all S sub-arrays to P points, shape (P, S, Ns).

    Checks that every point is finite and in front of the array plane,
    then runs ``kernel``, a ``ChannelKernel``, once on them.
    """
    pts = as_points(points)
    if np.any(pts[:, 2] <= 0):
        raise ValueError("user must be in front of the array plane")
    return kernel(pts)


@dataclass
class ChannelSet:
    """Channels g[s, m] for every (sub-array, user) pair with cached products.

    ``kernel`` is the ``ChannelKernel`` that synthesized ``g``, so a probe
    anywhere gets its channels from the same model. The rest is derived
    from ``g``: ``gram[s]`` holds g_{s,k}^T g_{s,m}^* so harvested-power
    evaluation never touches the raw element dimension, and ``kappa`` is
    the MRT normalizer 1/||g||, defined as 0 for blocked (zero-norm) pairs
    so products vanish.
    """

    g: np.ndarray        # (S, M, Ns) complex
    kernel: ChannelKernel
    norms: np.ndarray = field(init=False)    # (S, M)
    kappa: np.ndarray = field(init=False)    # (S, M)
    gram: np.ndarray = field(init=False)     # (S, M, M) complex, g_{s,k}^T g_{s,m}^*

    def __post_init__(self):
        self.norms = np.linalg.norm(self.g, axis=2)
        self.kappa = np.zeros_like(self.norms)
        nz = self.norms > 0
        self.kappa[nz] = 1.0 / self.norms[nz]
        self.gram = np.einsum("ski,smi->skm", self.g, np.conj(self.g))
        if not np.all(np.isfinite(self.gram)):
            raise ValueError("channel synthesis overflowed: the channels are not finite")

    @property
    def n_sub(self):
        return self.g.shape[0]

    @property
    def n_users(self):
        return self.g.shape[1]

    @property
    def n_elements(self):
        return self.g.shape[2]


def build_channel_set(geom, users):
    """Synthesize all S x M channels with one kernel; see ``ChannelSet``."""
    if len(users) == 0:
        raise ValueError("need at least one user")
    boundary = near_field_boundary(geom)
    points = np.array([u.coords if isinstance(u, UserPosition)
                       else np.asarray(u, float) for u in users])
    for m, r in enumerate(map(np.linalg.norm, points)):
        if r > boundary:
            warnings.warn("user %d at range %.3g m lies beyond the near-field service "
                          "boundary d_f/10 = %.3g m" % (m, r, boundary), stacklevel=2)
    kernel = ChannelKernel(geom)
    g = np.ascontiguousarray(channels(kernel, points).transpose(1, 0, 2))
    return ChannelSet(g=g, kernel=kernel)
