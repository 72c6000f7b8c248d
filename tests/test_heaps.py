"""Unit and property tests of the addressable d-ary heap.

The heap, at the paper's arity 8 and as a binary heap, must behave
identically to a sorted-list oracle under arbitrary interleavings of
push / pop / update / remove — eviction policies are built directly on
that contract.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CampPolicy, GdsPolicy, ShardedCampPolicy
from repro.core.camp_reference import ReferenceCampPolicy
from repro.errors import ReproError
from repro.structures import DaryHeap, HeapEntry

#: the paper's 8-ary heap and a binary one
ARITIES, ARITY_IDS = [8, 2], ["dary", "binary"]


@pytest.fixture(params=ARITIES, ids=ARITY_IDS)
def heap(request):
    return DaryHeap(arity=request.param)


def new_entry(heap, priority, item=None):
    return HeapEntry(priority, item)


class TestBasicOperations:
    def test_empty(self, heap):
        assert len(heap) == 0
        assert not heap
        with pytest.raises(ReproError):
            heap.peek()
        with pytest.raises(ReproError):
            heap.pop()

    def test_push_peek_pop_single(self, heap):
        e = new_entry(heap, 5, "a")
        heap.push(e)
        assert len(heap) == 1
        assert heap.peek() is e
        assert heap.pop() is e
        assert len(heap) == 0

    def test_pop_returns_ascending(self, heap):
        vals = [7, 3, 9, 1, 5, 8, 2, 6, 4, 0]
        for v in vals:
            heap.push(new_entry(heap, v))
        out = [heap.pop().priority for _ in vals]
        assert out == sorted(vals)

    def test_duplicate_priorities_all_returned(self, heap):
        for v in [3, 3, 3, 1, 1]:
            heap.push(new_entry(heap, v))
        out = [heap.pop().priority for _ in range(5)]
        assert out == [1, 1, 3, 3, 3]

    def test_tuple_priorities(self, heap):
        heap.push(new_entry(heap, (2, 1)))
        heap.push(new_entry(heap, (1, 9)))
        heap.push(new_entry(heap, (2, 0)))
        assert heap.pop().priority == (1, 9)
        assert heap.pop().priority == (2, 0)

    def test_push_linked_entry_raises(self, heap):
        e = new_entry(heap, 1)
        heap.push(e)
        with pytest.raises(ReproError):
            heap.push(e)

    def test_contains(self, heap):
        e = new_entry(heap, 1)
        assert e not in heap
        heap.push(e)
        assert e in heap
        heap.pop()
        assert e not in heap

    def test_entry_reusable_after_pop(self, heap):
        e = new_entry(heap, 1)
        heap.push(e)
        heap.pop()
        heap.push(e)
        assert heap.peek() is e


class TestPeekSecond:
    def test_none_when_fewer_than_two(self, heap):
        assert heap.peek_second() is None
        heap.push(new_entry(heap, 1))
        assert heap.peek_second() is None

    def test_returns_second_smallest(self, heap):
        entries = [new_entry(heap, v) for v in [5, 2, 8, 1, 9]]
        for e in entries:
            heap.push(e)
        assert heap.peek_second().priority == 2

    def test_with_duplicate_minimum(self, heap):
        heap.push(new_entry(heap, 1, "a"))
        heap.push(new_entry(heap, 1, "b"))
        heap.push(new_entry(heap, 3, "c"))
        assert heap.peek_second().priority == 1

    def test_random_agreement_with_oracle(self, heap):
        rng = random.Random(42)
        entries = []
        for _ in range(200):
            e = new_entry(heap, rng.randrange(1000))
            heap.push(e)
            entries.append(e)
            if len(entries) >= 2:
                expected = sorted(x.priority for x in entries)[1]
                assert heap.peek_second().priority == expected


class TestUpdate:
    def test_decrease_key_moves_to_front(self, heap):
        e_hi = new_entry(heap, 100)
        heap.push(new_entry(heap, 10))
        heap.push(e_hi)
        heap.update(e_hi, 1)
        assert heap.peek() is e_hi

    def test_increase_key_moves_back(self, heap):
        e_lo = new_entry(heap, 1)
        heap.push(e_lo)
        heap.push(new_entry(heap, 10))
        heap.update(e_lo, 100)
        assert heap.peek().priority == 10
        assert heap.pop().priority == 10
        assert heap.pop() is e_lo

    def test_update_to_same_priority(self, heap):
        e = new_entry(heap, 5)
        heap.push(e)
        heap.update(e, 5)
        assert heap.peek() is e

    def test_update_detached_raises(self, heap):
        e = new_entry(heap, 5)
        with pytest.raises(ReproError):
            heap.update(e, 1)


class TestRemove:
    def test_remove_root(self, heap):
        e = new_entry(heap, 1)
        heap.push(e)
        heap.push(new_entry(heap, 2))
        heap.remove(e)
        assert len(heap) == 1
        assert heap.peek().priority == 2

    def test_remove_inner(self, heap):
        entries = [new_entry(heap, v) for v in range(10)]
        for e in entries:
            heap.push(e)
        heap.remove(entries[5])
        out = [heap.pop().priority for _ in range(9)]
        assert out == [0, 1, 2, 3, 4, 6, 7, 8, 9]

    def test_remove_detached_raises(self, heap):
        e = new_entry(heap, 5)
        with pytest.raises(ReproError):
            heap.remove(e)

    def test_remove_all_then_reuse(self, heap):
        entries = [new_entry(heap, v) for v in range(5)]
        for e in entries:
            heap.push(e)
        for e in entries:
            heap.remove(e)
        assert len(heap) == 0
        heap.push(entries[3])
        assert heap.peek() is entries[3]


class TestVisitCounting:
    def test_visits_accumulate_and_reset(self, heap):
        for v in range(100):
            heap.push(new_entry(heap, v))
        assert heap.node_visits > 0
        heap.reset_visits()
        assert heap.node_visits == 0
        heap.pop()
        assert heap.node_visits > 0


class TestArityConfiguration:
    def test_binary_is_arity_two(self):
        """Every heap-backed policy builds its heap at the arity it is given."""
        assert DaryHeap(arity=2).arity == 2
        assert GdsPolicy(arity=2)._heap.arity == 2
        assert CampPolicy(arity=2)._mirror.arity == 2
        assert ReferenceCampPolicy(arity=2)._heap.arity == 2
        assert all(shard._mirror.arity == 2
                   for shard in ShardedCampPolicy(arity=2)._shards)

    def test_dary_default_is_eight(self):
        assert DaryHeap().arity == 8
        assert GdsPolicy()._heap.arity == 8
        assert CampPolicy()._mirror.arity == 8
        assert ReferenceCampPolicy()._heap.arity == 8

    def test_invalid_arity_raises(self):
        with pytest.raises(ReproError):
            DaryHeap(arity=1)
        with pytest.raises(ReproError):
            GdsPolicy(arity=1)
        with pytest.raises(ReproError):
            CampPolicy(arity=1)


@st.composite
def operation_sequences(draw):
    """Sequences of (op, value) over a bounded priority universe."""
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["push", "pop", "update", "remove"]),
                  st.integers(0, 50)),
        min_size=1, max_size=120))
    return ops


@pytest.mark.parametrize("arity", ARITIES, ids=ARITY_IDS)
@settings(max_examples=60, deadline=None)
@given(ops=operation_sequences())
def test_heap_matches_sorted_oracle(arity, ops):
    """Drive the heap and a list oracle with the same operation stream."""
    heap = DaryHeap(arity=arity)
    live = []  # entries currently in the heap
    rng = random.Random(1234)
    for op, val in ops:
        if op == "push":
            e = new_entry(heap, val)
            heap.push(e)
            live.append(e)
        elif op == "pop" and live:
            e = heap.pop()
            assert e.priority == min(x.priority for x in live)
            live.remove(e)
        elif op == "update" and live:
            e = rng.choice(live)
            heap.update(e, val)
        elif op == "remove" and live:
            e = rng.choice(live)
            heap.remove(e)
            live.remove(e)
        assert len(heap) == len(live)
        if live:
            assert heap.peek().priority == min(x.priority for x in live)
        heap.check_invariants()
    # drain: must come out sorted
    drained = [heap.pop().priority for _ in range(len(heap))]
    assert drained == sorted(drained)


@pytest.mark.parametrize("arity", ARITIES, ids=ARITY_IDS)
def test_large_random_stress(arity):
    """10k mixed operations against the oracle with a fixed seed."""
    heap = DaryHeap(arity=arity)
    rng = random.Random(99)
    live = []
    for step in range(10_000):
        r = rng.random()
        if r < 0.5 or not live:
            e = new_entry(heap, (rng.randrange(10_000), step))
            heap.push(e)
            live.append(e)
        elif r < 0.75:
            e = heap.pop()
            assert e.priority == min(x.priority for x in live)
            live.remove(e)
        elif r < 0.9:
            e = rng.choice(live)
            heap.update(e, (rng.randrange(10_000), step))
        else:
            e = rng.choice(live)
            heap.remove(e)
            live.remove(e)
    drained = [heap.pop().priority for _ in range(len(heap))]
    assert drained == sorted(drained)
