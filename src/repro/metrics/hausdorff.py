"""Set distances: point-point, point-set, modified Hausdorff (Sec. 3.2.2).

The thesis compares query elements through the *modified Hausdorff
distance* (MHD, Dubuisson & Jain) over sets of atomic descriptors
(Definition 4, Eq. 3.10):

    d(A, B) = max( 1/|A| * sum_{a in A} d(a, B),
                   1/|B| * sum_{b in B} d(b, A) )

with the Boolean point-point distance of Eq. 3.8 and the point-set
distance of Definition 3 / Eq. 3.9 (``0`` when the point occurs in the
other set, else ``1``).

Conventions for degenerate inputs (not spelled out in the thesis, chosen
to keep the measure monotone and bounded in [0, 1]):

* both sets empty -> distance 0 (nothing differs),
* exactly one set empty -> distance 1 (maximal difference).
"""

from __future__ import annotations

from typing import AbstractSet, Any, Hashable


def boolean_point_distance(a: Any, b: Any) -> float:
    """Eq. 3.8: 0 when equal, 1 otherwise."""
    return 0.0 if a == b else 1.0


def point_set_distance(point: Any, other: AbstractSet[Hashable]) -> float:
    """Definition 3 / Eq. 3.9 with the Boolean point-point distance: the
    minimal distance from ``point`` to ``other`` is a membership test."""
    if not other:
        return 1.0
    return 0.0 if point in other else 1.0


def modified_hausdorff(a: AbstractSet[Hashable], b: AbstractSet[Hashable]) -> float:
    """Definition 4 / Eq. 3.10: modified Hausdorff distance between sets.

    Under the Boolean point distance each point-set term of Eq. 3.10 is
    0 for a shared point and 1 otherwise, so the two mean terms are the
    fractions of each set missing from the other:
    ``max(|A - B| / |A|, |B - A| / |B|)``.  The sums of 0s and 1s are
    exact in floating point, so this equals the term-by-term mean
    bit for bit.
    """
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    return max(len(a - b) / len(a), len(b - a) / len(b))


def jaccard_distance(a: AbstractSet[Hashable], b: AbstractSet[Hashable]) -> float:
    """1 - |A cap B| / |A cup B| (auxiliary measure used in sanity tests)."""
    if not a and not b:
        return 0.0
    union = len(a | b)
    return 1.0 - len(a & b) / union
