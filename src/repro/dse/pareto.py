"""Pareto-frontier, knee-point, and sensitivity math.

Pure functions over objective vectors (all objectives minimized), kept
free of simulator imports so the hypothesis property suite can hammer
them with arbitrary float inputs.  Mirrors the analysis toolkit shape
from the optimal-refresh-allocation literature (arXiv 1907.01112):
dominance -> frontier -> knee -> one-at-a-time sensitivity.

Conventions:

* An objective vector is a sequence of finite floats; every objective
  is minimized (energy J/day, slowdown fraction, failure probability).
* ``pareto_indices`` returns *indices* into the input sequence so
  callers keep their own point identities; the set of frontier
  *vectors* is invariant under input permutation and under positive
  rescaling of any objective.
* The knee is the frontier point closest (Euclidean) to the utopia
  corner in min-max normalized objective space — also scale-invariant,
  and by construction always on the frontier.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigurationError

Vector = Sequence[float]


def dominates(a: Vector, b: Vector) -> bool:
    """True when ``a`` Pareto-dominates ``b`` (minimization).

    ``a`` must be no worse in every objective and strictly better in at
    least one.  Irreflexive and transitive, hence a strict partial
    order (the property suite checks this).
    """
    if len(a) != len(b):
        raise ConfigurationError(
            f"objective vectors must have equal length, got {len(a)} and {len(b)}"
        )
    if not a:
        return False
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def pareto_indices(vectors: Sequence[Vector]) -> tuple[int, ...]:
    """Indices of the non-dominated vectors, in ascending index order.

    Duplicate vectors are all kept (none dominates its copy), so a
    degenerate all-equal input returns every index.  Empty input
    returns an empty frontier.

    Skyline sweep over the *distinct* vectors: if ``a`` dominates ``b``
    then ``a`` sorts strictly before ``b`` lexicographically, so
    processing distinct vectors in that order means every candidate's
    potential dominators are already on the accepted frontier.  Cost is
    O(d log d + d * f) for d distinct vectors and f frontier vectors;
    equal vectors share one verdict, and each accepted vector expands
    back to all of its indices.
    """
    groups: dict[tuple, list[int]] = {}
    for index, vector in enumerate(vectors):
        groups.setdefault(tuple(vector), []).append(index)
    frontier: list[tuple] = []
    for candidate in sorted(groups):
        if not any(dominates(kept, candidate) for kept in frontier):
            frontier.append(candidate)
    return tuple(sorted(index for kept in frontier for index in groups[kept]))


def normalize(vectors: Sequence[Vector]) -> list[tuple[float, ...]]:
    """Min-max normalize each objective over the given vectors.

    Objectives with zero range collapse to 0.0 (they cannot
    discriminate, so they drop out of knee distances).  Invariant under
    positive rescaling of any objective.
    """
    if not vectors:
        return []
    dims = len(vectors[0])
    lows = [min(v[d] for v in vectors) for d in range(dims)]
    highs = [max(v[d] for v in vectors) for d in range(dims)]
    spans = [hi - lo for lo, hi in zip(lows, highs)]
    return [
        tuple(
            0.0 if spans[d] == 0.0 else (v[d] - lows[d]) / spans[d]
            for d in range(dims)
        )
        for v in vectors
    ]


def knee_index(vectors: Sequence[Vector]) -> int:
    """Index of the knee: min distance to utopia on the frontier.

    Normalization happens over the *frontier* vectors only, so
    dominated outliers cannot skew the knee.  Ties break toward the
    lowest input index, which is deterministic because callers present
    points in canonical order.  Raises on empty input.
    """
    if not vectors:
        raise ConfigurationError("knee_index needs at least one vector")
    frontier = pareto_indices(vectors)
    frontier_vectors = [vectors[i] for i in frontier]
    normalized = normalize(frontier_vectors)
    best_pos = min(
        range(len(frontier)),
        key=lambda pos: (math.dist(normalized[pos], [0.0] * len(normalized[pos])), pos),
    )
    return frontier[best_pos]


def sensitivity_spread(values: Sequence[float]) -> dict[str, float]:
    """Spread statistics for one objective along one swept axis."""
    lo, hi = min(values), max(values)
    return {
        "min": lo,
        "max": hi,
        "spread": hi - lo,
        "relative_spread": 0.0 if hi == 0.0 else (hi - lo) / abs(hi),
    }
