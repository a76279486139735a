"""The fields R, C and H, and the constants of their coefficient arithmetic.

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

#: CONJ_MUL[p, q, c] is the e_c coefficient of conj(e_p) e_q, so that for
#: a coefficient vector a, a @ CONJ_MUL[:, :, c] is row c of the real 4x4
#: matrix of b -> conj(a) b.  Over the units 1, i, j, k = e_0 ... e_3,
#: conj(e_p) e_q = +-e_(p xor q), with the signs of this table
CONJ_MUL = np.zeros((4, 4, 4))
for _p, _signs in enumerate([[1, 1, 1, 1],
                             [-1, 1, -1, 1],
                             [-1, 1, 1, -1],
                             [-1, -1, 1, 1]]):
    for _q, _sign in enumerate(_signs):
        CONJ_MUL[_p, _q, _p ^ _q] = _sign
#: Re(u v) = sum_c CONJ_SIGNS[c] u_c v_c, and |u|^2 = Re(u conj(u))
CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
