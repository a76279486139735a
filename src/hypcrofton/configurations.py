"""Explicit point configurations that violate the negative-type condition,
as raw coordinate arrays for kernels.build_distance_matrix."""

from __future__ import annotations

import numpy as np

#: coefficients certifying both violations: +1 on the first group, -1 on the second
SPLIT_COEFFICIENTS = np.array([1, 1, 1, -1, -1, -1], dtype=float)


def projective_six_points():
    """Six points of P^2_R whose distance matrix is not of negative type,
    as (6, 3) rows (kind p).

    Two groups of three; within-group distances are all pi/2, cross
    distances follow a pi/3 / pi/4 / pi/2 pattern, and the split
    coefficients (1,1,1,-1,-1,-1) give a positive quadratic form.
    """
    return np.array([[1, 0, 1], [1, 0, -1], [0, 1, 0],
                     [0, 1, 1], [0, 1, -1], [1, 0, 0]], dtype=float)


def quaternionic_cluster_points():
    """24 points of H^2_H violating the negative-type condition, as
    (24, 3, 4) coefficient arrays (kind h).

    Two clusters of twelve: (3, 2s + 2e, 0) and (3, 0, 2s + 2e) for
    s in {+1, -1} and e ranging over the six unit imaginary quaternions
    +i, -i, +j, -j, +k, -k, in this order.  With +1 on the first cluster and
    -1 on the second, the within-cluster distance sums exceed the
    cross-cluster sum.
    """
    first = []
    for s in (1.0, -1.0):
        for unit in (1, 2, 3):
            for sign in (1.0, -1.0):
                x = np.zeros((3, 4))
                x[0, 0], x[1, 0], x[1, unit] = 3.0, 2 * s, 2 * sign
                first.append(x)
    first = np.array(first)
    return np.concatenate([first, first[:, [0, 2, 1]]])


def cluster_sums(D):
    """(within_sum, cross_sum) of the distance matrix D of a two-cluster
    configuration whose first cluster is the first half of its points.

    within sums each cluster's unordered pairs, as half its diagonal block
    of the symmetric D; cross sums all ordered (i in first, j in second)
    pairs.  The negative-type condition fails iff within > cross.
    """
    D = np.asarray(D, dtype=float)
    split = len(D) // 2
    within = 0.5 * (D[:split, :split].sum() + D[split:, split:].sum())
    return float(within), float(D[:split, split:].sum())
