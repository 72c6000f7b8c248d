"""LRU tests, including an LRU-vs-OrderedDict oracle."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LruPolicy
from repro.errors import DuplicateKeyError, EvictionError, MissingKeyError


class TestLru:
    def test_evicts_least_recent(self):
        lru = LruPolicy()
        for key in "abc":
            lru.on_insert(key, 1, 1)
        lru.on_hit("a")
        assert lru.pop_victim() == "b"

    def test_order_introspection(self):
        lru = LruPolicy()
        for key in "abc":
            lru.on_insert(key, 1, 1)
        lru.on_hit("b")
        assert list(lru.keys_lru_to_mru()) == ["a", "c", "b"]

    def test_remove(self):
        lru = LruPolicy()
        for key in "abc":
            lru.on_insert(key, 1, 1)
        lru.on_remove("b")
        assert "b" not in lru
        assert lru.pop_victim() == "a"

    def test_errors(self):
        lru = LruPolicy()
        with pytest.raises(EvictionError):
            lru.pop_victim()
        with pytest.raises(MissingKeyError):
            lru.on_hit("x")
        with pytest.raises(MissingKeyError):
            lru.on_remove("x")
        lru.on_insert("x", 1, 1)
        with pytest.raises(DuplicateKeyError):
            lru.on_insert("x", 1, 1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["touch", "insert", "evict",
                                               "remove"]),
                              st.integers(0, 15)),
                    max_size=150))
    def test_matches_ordereddict_oracle(self, ops):
        """LRU must agree with the canonical OrderedDict implementation."""
        lru = LruPolicy()
        oracle = OrderedDict()
        for op, key_id in ops:
            key = f"k{key_id}"
            if op == "insert" and key not in oracle:
                lru.on_insert(key, 1, 1)
                oracle[key] = True
            elif op == "touch" and key in oracle:
                lru.on_hit(key)
                oracle.move_to_end(key)
            elif op == "evict" and oracle:
                expected, _ = oracle.popitem(last=False)
                assert lru.pop_victim() == expected
            elif op == "remove" and key in oracle:
                lru.on_remove(key)
                del oracle[key]
            assert len(lru) == len(oracle)
            assert list(lru.keys_lru_to_mru()) == list(oracle.keys())
