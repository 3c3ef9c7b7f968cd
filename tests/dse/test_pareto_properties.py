"""Hypothesis property suite for the Pareto/knee math.

The claims the sweep analysis rests on:

* dominance is a strict partial order (irreflexive, asymmetric,
  transitive);
* the frontier (as a multiset of vectors) is invariant under point
  permutation and under positive power-of-two rescaling of any
  objective (exact in binary floating point, so no tolerance games);
* the knee always lies on the frontier;
* degenerate inputs — single point, all-duplicates, a fully dominated
  chain — return sensible results instead of crashing.

Seed-pinned via the shared ``REPRO_HYPOTHESIS_PROFILE`` tiers
(ci = 25 derandomized examples, nightly = 250; see
``repro.fidelity.properties``).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.dse.pareto import (  # noqa: E402
    dominates,
    knee_index,
    normalize,
    pareto_indices,
    sensitivity_spread,
)
from repro.errors import ConfigurationError  # noqa: E402

DIMS = 3

#: Bounded finite coordinates: power-of-two rescales stay exact and
#: never overflow.
coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
vector = st.tuples(*([coord] * DIMS))
vectors = st.lists(vector, min_size=1, max_size=24)

#: Positive power-of-two scales: multiplication is exact in IEEE-754,
#: so dominance relations are preserved bit-for-bit.
pow2_scale = st.sampled_from([2.0**k for k in range(-8, 9)])
scales = st.tuples(*([pow2_scale] * DIMS))

#: Integer-lattice coordinates for the rescaling properties: far from
#: the subnormal range, so power-of-two products stay exact while tie
#: and duplicate structure (what the frontier logic cares about) stays
#: dense.
lattice_coord = st.integers(min_value=-1000, max_value=1000).map(float)
lattice_vector = st.tuples(*([lattice_coord] * DIMS))
lattice_vectors = st.lists(lattice_vector, min_size=1, max_size=24)


def frontier_vectors(vs):
    return sorted(vs[i] for i in pareto_indices(vs))


class TestStrictPartialOrder:
    @given(a=vector)
    def test_irreflexive(self, a):
        assert not dominates(a, a)

    @given(a=vector, b=vector)
    def test_asymmetric(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))

    @given(a=vector, b=vector, c=vector)
    def test_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="equal length"):
            dominates((1.0,), (1.0, 2.0))

    def test_empty_vectors_do_not_dominate(self):
        assert not dominates((), ())


class TestFrontierInvariance:
    @given(vs=vectors, seed=st.randoms(use_true_random=False))
    def test_invariant_under_permutation(self, vs, seed):
        shuffled = list(vs)
        seed.shuffle(shuffled)
        assert frontier_vectors(vs) == frontier_vectors(shuffled)

    @given(vs=lattice_vectors, sc=scales)
    def test_invariant_under_positive_rescaling(self, vs, sc):
        scaled = [tuple(x * s for x, s in zip(v, sc)) for v in vs]
        assert pareto_indices(vs) == pareto_indices(scaled)

    @given(vs=vectors)
    def test_frontier_members_are_mutually_non_dominated(self, vs):
        front = pareto_indices(vs)
        for i in front:
            for j in front:
                assert not dominates(vs[i], vs[j]) or vs[i] == vs[j]

    @given(vs=vectors)
    def test_non_members_are_dominated(self, vs):
        front = set(pareto_indices(vs))
        for i, v in enumerate(vs):
            if i not in front:
                assert any(dominates(vs[j], v) for j in front)


def all_pairs_frontier(vs):
    """O(n^2) oracle: ``i`` is kept iff no ``j`` dominates it."""
    return tuple(
        i for i, v in enumerate(vs) if not any(dominates(w, v) for w in vs)
    )


class TestAllPairsOracle:
    @given(vs=lattice_vectors)
    def test_matches_all_pairs_on_dense_duplicates(self, vs):
        assert pareto_indices(vs) == all_pairs_frontier(vs)

    @given(vs=vectors)
    def test_matches_all_pairs_on_arbitrary_floats(self, vs):
        assert pareto_indices(vs) == all_pairs_frontier(vs)

    @given(
        vs=st.lists(
            st.tuples(*([st.integers(0, 2).map(float)] * DIMS)),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_all_pairs_on_a_tiny_lattice(self, vs):
        # 27 possible vectors: most inputs repeat some of them.
        assert pareto_indices(vs) == all_pairs_frontier(vs)


class TestKnee:
    @given(vs=vectors)
    def test_knee_lies_on_frontier(self, vs):
        assert knee_index(vs) in pareto_indices(vs)

    @given(vs=vectors)
    def test_knee_is_deterministic(self, vs):
        assert knee_index(vs) == knee_index(list(vs))

    @given(vs=lattice_vectors, sc=scales)
    def test_knee_invariant_under_positive_rescaling(self, vs, sc):
        scaled = [tuple(x * s for x, s in zip(v, sc)) for v in vs]
        assert knee_index(vs) == knee_index(scaled)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            knee_index([])


class TestDegenerateInputs:
    @given(v=vector)
    def test_single_point_is_its_own_frontier_and_knee(self, v):
        assert pareto_indices([v]) == (0,)
        assert knee_index([v]) == 0

    @given(v=vector, n=st.integers(min_value=2, max_value=8))
    def test_duplicates_all_survive(self, v, n):
        vs = [v] * n
        assert pareto_indices(vs) == tuple(range(n))
        assert knee_index(vs) == 0

    @given(n=st.integers(min_value=2, max_value=12))
    def test_fully_dominated_chain_keeps_only_the_best(self, n):
        chain = [(float(i), float(i), float(i)) for i in range(n)]
        assert pareto_indices(chain) == (0,)
        assert knee_index(chain) == 0

    def test_empty_input_has_empty_frontier(self):
        assert pareto_indices([]) == ()

    @given(vs=vectors)
    def test_normalize_lands_in_unit_box(self, vs):
        for v in normalize(vs):
            for x in v:
                assert 0.0 <= x <= 1.0


class TestSensitivitySpread:
    @given(values=st.lists(coord, min_size=1, max_size=10))
    def test_spread_is_non_negative_and_bounds_hold(self, values):
        stats = sensitivity_spread(values)
        assert stats["min"] <= stats["max"]
        assert stats["spread"] >= 0.0
        assert stats["spread"] == stats["max"] - stats["min"]
