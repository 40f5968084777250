"""Property tests for LogHistogram.merge: the algebra fleet and
cross-daemon aggregation rely on.

Merging is bucket-count addition, so it must be commutative and
associative, and every quantile must be independent of how the
observations were sharded across workers and in what order the shards
merged — otherwise ``repro trend`` would report different
latencies depending on which worker's heartbeat arrived first.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.telemetry import (
    FLEET_EXECUTE_SCHEME,
    LogHistogram,
    fleet_execute_histogram,
    merge_histograms,
)

# Values spanning underflow, the bucketed range, and overflow.
values = st.floats(min_value=1e-5, max_value=1e4,
                   allow_nan=False, allow_infinity=False)
value_lists = st.lists(values, max_size=40)


def hist(observations) -> LogHistogram:
    histogram = fleet_execute_histogram()
    for value in observations:
        histogram.observe(value)
    return histogram


def state(histogram: LogHistogram) -> tuple:
    """Everything merge order must preserve *exactly*.  ``total`` (and
    so ``mean``) is a float sum whose last ulp legitimately depends on
    addition order — checked separately with :func:`close`."""
    return (tuple(histogram.counts), histogram.count, histogram.min,
            histogram.max)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class TestMergeAlgebra:
    @given(value_lists, value_lists)
    def test_commutative(self, a, b):
        ab = hist(a).merge(hist(b))
        ba = hist(b).merge(hist(a))
        assert state(ab) == state(ba)
        assert close(ab.total, ba.total)

    @given(value_lists, value_lists, value_lists)
    @settings(max_examples=50)
    def test_associative(self, a, b, c):
        left = hist(a).merge(hist(b)).merge(hist(c))
        right = hist(a).merge(hist(b).merge(hist(c)))
        assert state(left) == state(right)
        assert close(left.total, right.total)

    @given(value_lists)
    def test_identity(self, a):
        merged = hist(a).merge(hist([]))
        assert state(merged) == state(hist(a))
        assert merged.total == hist(a).total

    @given(value_lists, value_lists)
    def test_merge_equals_union(self, a, b):
        # Sharding observations across workers then merging must equal
        # observing everything in one histogram.
        merged = hist(a).merge(hist(b))
        assert state(merged) == state(hist(a + b))
        assert close(merged.total, hist(a + b).total)


class TestQuantileStability:
    @given(value_lists, st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_quantiles_invariant_under_shard_order(self, all_values, rng):
        # Partition the observations into up to 4 shards, merge the
        # shards in a random order: every quantile (and the moments)
        # must match the unsharded histogram exactly.
        shards = [[] for _ in range(4)]
        for value in all_values:
            shards[rng.randrange(4)].append(value)
        shard_hists = [hist(shard) for shard in shards]
        rng.shuffle(shard_hists)
        merged = fleet_execute_histogram()
        for shard in shard_hists:
            merged.merge(shard)
        reference = hist(all_values)
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert merged.quantile(q) == reference.quantile(q)
        assert close(merged.mean, reference.mean)
        assert state(merged) == state(reference)

    @given(value_lists, value_lists, value_lists)
    @settings(max_examples=50)
    def test_merge_histograms_dict_roundtrip(self, a, b, c):
        # The heartbeat path merges serialized dicts; it must agree
        # with merging the live objects.
        dicts = [hist(shard).to_dict() for shard in (a, b, c)]
        via_dicts = merge_histograms(dicts)
        direct = hist(a).merge(hist(b)).merge(hist(c)).to_dict()
        assert via_dicts == direct

    @given(value_lists)
    def test_quantiles_clamped_to_observed_range(self, a):
        histogram = hist(a)
        if not a:
            assert histogram.quantile(0.5) == 0.0
            return
        for q in (0.0, 0.5, 1.0):
            assert min(a) <= histogram.quantile(q) <= max(a)


class TestScheme:
    def test_fleet_scheme_is_shared(self):
        # Workers and coordinators must construct merge-compatible
        # histograms from the module constant alone.
        assert fleet_execute_histogram().scheme() == FLEET_EXECUTE_SCHEME
        fleet_execute_histogram().merge(fleet_execute_histogram())
