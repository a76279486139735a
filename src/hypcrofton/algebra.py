"""Scalar arithmetic over R, C, H and the signature-(1,n) hermitian form.

Scalars of all three fields share a common internal representation: a
length-4 real coefficient vector (1, i, j, k).  Reals occupy the first
slot, complex numbers the first two, quaternions all four.  Vectors over
a field are ``(m, 4)`` float arrays, which lets the form and all distance
code run vectorized regardless of field.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

REAL = "r"
COMPLEX = "c"
QUATERNION = "h"
FIELDS = (REAL, COMPLEX, QUATERNION)

#: real dimension of each field
FIELD_DIM = {REAL: 1, COMPLEX: 2, QUATERNION: 4}

SCALAR_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live in different spaces (length or field disagree)."""


@dataclass(frozen=True)
class Quaternion:
    """Hamilton quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @classmethod
    def from_real(cls, r):
        return cls(float(r), 0.0, 0.0, 0.0)

    @classmethod
    def from_complex(cls, c):
        c = complex(c)
        return cls(c.real, c.imag, 0.0, 0.0)

    @classmethod
    def from_coeffs(cls, c):
        w, x, y, z = (float(v) for v in c)
        return cls(w, x, y, z)

    def coeffs(self):
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    @property
    def real(self):
        return self.w

    def __abs__(self):
        return float(np.hypot(np.hypot(self.w, self.x), np.hypot(self.y, self.z)))

    def __add__(self, other):
        other = _as_quaternion(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_quaternion(other))

    def __rsub__(self, other):
        return _as_quaternion(other) + (-self)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        other = _as_quaternion(other)
        return Quaternion.from_coeffs(qmul(self.coeffs(), other.coeffs()))

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return self * other
        return _as_quaternion(other) * self

    def inverse(self):
        n2 = self.w**2 + self.x**2 + self.y**2 + self.z**2
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        c = self.conj()
        return Quaternion(c.w / n2, c.x / n2, c.y / n2, c.z / n2)

    def isclose(self, other, tol=SCALAR_TOL):
        other = _as_quaternion(other)
        scale = max(abs(self), abs(other), 1.0)
        return abs(self - other) <= tol * scale


QUAT_ONE = Quaternion(1.0)
QUAT_I = Quaternion(0.0, 1.0)
QUAT_J = Quaternion(0.0, 0.0, 1.0)
QUAT_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _as_quaternion(v):
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, numbers.Real):
        return Quaternion.from_real(v)
    if isinstance(v, numbers.Complex):
        return Quaternion.from_complex(v)
    raise TypeError(f"cannot interpret {type(v).__name__} as a quaternion")


def quat_mul(a, b):
    """Hamilton product of two quaternions (or embeddable scalars)."""
    return _as_quaternion(a) * _as_quaternion(b)


# -- vectorized coefficient-array operations ---------------------------------

def qmul(a, b):
    """Hamilton product on (..., 4) coefficient arrays, broadcasting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def qconj(a):
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qnorm(a):
    return np.linalg.norm(np.asarray(a, dtype=float), axis=-1)


#: CONJ_MUL[p, q, c] is the e_c coefficient of conj(e_p) e_q, so that for
#: a coefficient vector a, a @ CONJ_MUL[:, :, c] is row c of the real 4x4
#: matrix of b -> conj(a) b
CONJ_MUL = qmul(qconj(np.eye(4))[:, None, :], np.eye(4)[None, :, :])
#: Re(u v) = sum_c CONJ_SIGNS[c] u_c v_c, and |u|^2 = Re(u conj(u))
CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def to_coeffs(values, field):
    """Coerce a vector over `field` to an (m, 4) float coefficient array.

    Accepts real arrays (field 'r'), complex or real arrays ('c'),
    sequences of Quaternion/complex/real ('h'), or an (m, 4) array as-is.
    """
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}")
    if isinstance(values, np.ndarray) and values.ndim == 2 and values.shape[1] == 4 \
            and values.dtype != complex:
        out = np.array(values, dtype=float)
    elif field == REAL:
        v = np.asarray(values)
        if np.iscomplexobj(v):
            raise ValueError("complex coefficients in a real vector")
        v = v.astype(float)
        if v.ndim != 1:
            raise ValueError("expected a 1-d real vector")
        out = np.zeros((v.shape[0], 4))
        out[:, 0] = v
    elif field == COMPLEX:
        try:
            v = np.asarray(values, dtype=complex)
        except TypeError as exc:
            raise ValueError(f"cannot coerce to a complex vector: {exc}") from exc
        if v.ndim != 1:
            raise ValueError("expected a 1-d complex vector")
        out = np.zeros((v.shape[0], 4))
        out[:, 0] = v.real
        out[:, 1] = v.imag
    else:
        out = np.array([_as_quaternion(q).coeffs() for q in values])
    k = FIELD_DIM[field]
    if np.any(np.abs(out[:, k:]) > 0):
        raise ValueError(f"coefficients outside field {field!r}")
    return out


def from_coeffs(c, field):
    """Convert a length-4 coefficient vector back to the field's scalar type."""
    c = np.asarray(c, dtype=float)
    if field == REAL:
        return float(c[0])
    if field == COMPLEX:
        return complex(c[0], c[1])
    return Quaternion.from_coeffs(c)


def scalar_modulus(s):
    """Euclidean norm of a field scalar (real, complex, Quaternion or coeffs)."""
    if isinstance(s, Quaternion):
        return abs(s)
    if isinstance(s, (numbers.Real, numbers.Complex)):
        return abs(s)
    return float(qnorm(np.asarray(s, dtype=float)))


# -- hermitian form -----------------------------------------------------------

@dataclass(frozen=True)
class HermitianSpace:
    """Hyperbolic model space: F^{n+1} with form diag(-1, +1, ..., +1)."""

    field: str
    n: int

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}")
        if self.n < 1:
            raise ValueError("dimension must be at least 1")

    @property
    def dim(self):
        """Number of homogeneous coordinates, n + 1."""
        return self.n + 1


def form_coeffs(zc, wc):
    """Signature-(1,n) hermitian form on coefficient arrays, as coefficients.

    <z, w> = -conj(z^0) w^0 + sum_k conj(z^k) w^k.  Conjugation acts on the
    first slot, so the form is right-linear in the second.
    """
    prod = qmul(qconj(zc), wc)
    return prod[1:].sum(axis=0) - prod[0]


def hermitian_form(z, w, space):
    """The form <z, w> on vectors over `space.field`, in the field's own type."""
    zc = to_coeffs(z, space.field)
    wc = to_coeffs(w, space.field)
    if zc.shape[0] != space.dim or wc.shape[0] != space.dim:
        raise DimensionMismatchError(
            f"expected vectors of length {space.dim}, "
            f"got {zc.shape[0]} and {wc.shape[0]}")
    return from_coeffs(form_coeffs(zc, wc), space.field)
