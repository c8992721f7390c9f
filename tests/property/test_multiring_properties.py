"""Property-based tests for the multi-ring layer.

The §11 merge rule is only sound if the merge is a *pure function* of
the per-ring streams: any subscriber, seeing per-ring deliveries in any
wall-clock interleaving, must compute the identical merged order.
These properties pin that, plus the determinism of the shard map and
the group directory's iteration order.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.multiring.merge import RoundRobinMerger, merge_streams
from repro.multiring.shard_map import ShardMap
from repro.spread.groups import GroupDirectory, SortedNameSet

names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
)

streams_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=999), max_size=12),
    min_size=1,
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(streams_strategy)
def test_merge_preserves_per_stream_order(streams):
    # Tag every element with its stream so the merged order can be
    # projected back per stream.
    tagged = [
        [(index, item) for item in stream]
        for index, stream in enumerate(streams)
    ]
    merged = merge_streams(tagged)
    assert sorted(merged) == sorted(sum(tagged, []))  # a permutation
    for index, stream in enumerate(tagged):
        assert [entry for entry in merged if entry[0] == index] == stream


@settings(max_examples=100, deadline=None)
@given(streams_strategy, st.integers(min_value=0, max_value=2**32 - 1))
def test_online_merge_is_arrival_order_independent(streams, seed):
    """Any interleaving of pushes yields the offline merge."""
    tagged = [
        [(index, item) for item in stream]
        for index, stream in enumerate(streams)
    ]
    # Build a random arrival interleaving that respects per-stream order.
    rng = random.Random(seed)
    cursors = [0] * len(tagged)
    merger = RoundRobinMerger(len(tagged))
    out = []
    while True:
        candidates = [
            i for i, cursor in enumerate(cursors) if cursor < len(tagged[i])
        ]
        if not candidates:
            break
        stream = rng.choice(candidates)
        merger.push(stream, tagged[stream][cursors[stream]])
        cursors[stream] += 1
        out.extend(merger.drain())
    # Pad exhausted streams with skips to flush the tail rounds.
    longest = max((len(s) for s in tagged), default=0)
    for index, stream in enumerate(tagged):
        merger.push_skip(index, longest - len(stream))
    out.extend(merger.drain())
    assert out == merge_streams(tagged)


@settings(max_examples=100, deadline=None)
@given(st.lists(names, max_size=20), st.integers(min_value=1, max_value=8))
def test_shard_map_is_total_deterministic_and_partition_covers(groups, rings):
    shard_map = ShardMap(rings)
    for group in groups:
        ring = shard_map.shard_of(group)
        assert 0 <= ring < rings
        assert shard_map.shard_of(group) == ring  # stable
    parts = shard_map.partition(groups)
    flattened = [g for ring in sorted(parts) for g in parts[ring]]
    assert sorted(flattened) == sorted(groups)
    for ring, members in parts.items():
        assert [g for g in groups if shard_map.shard_of(g) == ring] == members


@settings(max_examples=100, deadline=None)
@given(st.sets(names, max_size=12))
def test_sorted_name_set_iterates_sorted_but_compares_as_set(contents):
    sorted_set = SortedNameSet(contents)
    assert sorted_set == contents
    assert list(sorted_set) == sorted(contents)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), names, names),  # (is_join, member, group)
        max_size=30,
    )
)
def test_group_directory_dirty_iteration_is_deterministic(ops):
    directory = GroupDirectory()
    applied = []
    for is_join, member, group in ops:
        qualified = f"{member}#0"
        if is_join:
            directory.apply_join(qualified, group)
        else:
            directory.apply_leave(qualified, group)
        applied.append((is_join, qualified, group))
    dirty = directory.take_dirty()
    assert list(dirty) == sorted(dirty)
    # Replaying the same ordered ops yields the identical snapshot —
    # the replicated-directory determinism every daemon relies on.
    replay = GroupDirectory()
    for is_join, qualified, group in applied:
        if is_join:
            replay.apply_join(qualified, group)
        else:
            replay.apply_leave(qualified, group)
    for _is_join, _qualified, group in applied:
        assert replay.members(group) == directory.members(group)
    assert list(replay.take_dirty()) == list(dirty)
