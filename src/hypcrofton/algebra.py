"""Coefficient arithmetic over R, C, H and the signature-(1,n) hermitian form.

Scalars of all three fields have one representation: a length-4 real
coefficient vector (1, i, j, k).  Reals occupy the first slot, complex
numbers the first two, quaternions all four.  Vectors over a field are
``(m, 4)`` float arrays, which lets the form and all distance code run
vectorized regardless of field.  A space is named by a field letter
(FIELDS) and its dimension n, as in a point file's `kind,dim` header.
"""

from __future__ import annotations

import numpy as np

REAL = "r"
COMPLEX = "c"
QUATERNION = "h"
FIELDS = (REAL, COMPLEX, QUATERNION)

#: real dimension of each field
FIELD_DIM = {REAL: 1, COMPLEX: 2, QUATERNION: 4}

#: largest hyperbolic distance the CLI takes: the search radius of
#: search-violations, whose points past about 16.46 lose <y, y> = -1 in the
#: rounding of cosh(d)^2, and the hyperplane and horosphere --pairs, whose
#: estimators work with e^{+-2d}
MAX_DISTANCE = 16.0


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


#: CONJ_MUL[p, q, c] is the e_c coefficient of conj(e_p) e_q, so that for
#: a coefficient vector a, a @ CONJ_MUL[:, :, c] is row c of the real 4x4
#: matrix of b -> conj(a) b
CONJ_MUL = qmul(qconj(np.eye(4))[:, None, :], np.eye(4)[None, :, :])
#: Re(u v) = sum_c CONJ_SIGNS[c] u_c v_c, and |u|^2 = Re(u conj(u))
CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


# -- hermitian form -----------------------------------------------------------

def form_coeffs(zc, wc):
    """Signature-(1,n) hermitian form on coefficient arrays, as coefficients.

    <z, w> = -conj(z^0) w^0 + sum_k conj(z^k) w^k.  Conjugation acts on the
    first slot, so the form is right-linear in the second.
    """
    prod = qmul(qconj(zc), wc)
    return prod[1:].sum(axis=0) - prod[0]
