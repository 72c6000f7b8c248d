"""The unified request surface: a read-through facade over any backend.

The paper's KVS model is "lookup, and on a miss recompute at cost(p) and
insert".  :class:`Store` is that contract as one public API:

* :meth:`Store.get_or_compute` — read-through with a loader; the store
  *measures* the loader's wall time and memoizes it as the paper's
  cost(p), so callers no longer hand-roll insert-on-miss or invent costs.
* Structured :class:`~repro.cache.outcomes.Outcome` / ``AccessResult``
  replace bool returns (HIT / MISS_INSERTED / MISS_REJECTED_TOO_LARGE /
  MISS_REJECTED_ADMISSION / EXPIRED).
* First-class TTLs — expiry lives in ``CacheItem``/``KVS`` (and the slab
  engine), not in any one engine's private bookkeeping.
* Batched :meth:`get_many` / :meth:`put_many` drive the eviction policy
  under a single ``bulk()`` lock acquisition — measurably faster than
  looped single calls on thread-safe-wrapped policies (see
  ``benchmarks/test_store_batch.py``).
* :class:`StoreConfig` — a fluent builder unifying construction: policy
  by registry name, admission controller, item overhead, listeners,
  metrics, clock.

A *backend* is anything exposing the structured KVS surface (``lookup``,
``insert``, ``delete``, ``touch``, containment; optionally ``access`` —
lookup plus insert-on-miss in one call).  :class:`repro.cache.kvs.KVS`
is the canonical one; the twemcache slab engine adapts its four-step
allocation path to the same protocol so the server routes through a Store
too.  Backends that hold their own value payloads declare
``stores_values = True`` and receive ``value``/metadata kwargs on insert;
otherwise the Store memoizes loader values itself and drops them on
eviction via a listener.

Thread safety has two levels: a thread-safe *policy* wrapper makes the
byte accounting safe (as for the bare KVS), while the optional ``lock``
constructor argument serializes whole Store operations — the twemcache
engine passes its engine-wide RLock so ``engine.store`` is as safe as
the engine's own methods.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Union)

from repro.cache.kvs import KVS, PutEntry
from repro.cache.metrics import SimulationMetrics
from repro.cache.outcomes import AccessResult, BatchResult, Computed, Outcome
from repro.core import make_policy
from repro.core.admission import AdmissionController
from repro.core.concurrent import ThreadSafePolicy
from repro.core.policy import CacheItem, EvictionPolicy
from repro.errors import ConfigurationError

__all__ = ["Store", "StoreConfig", "Outcome", "AccessResult", "BatchResult",
           "Computed"]

Number = Union[int, float]

#: loader(key) -> value | Computed
Loader = Callable[[str], object]


class _NoLock:
    """No-op context manager for lock-free (single-threaded) stores."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NO_LOCK = _NoLock()


class _Flight:
    """One in-progress load that concurrent callers of the same missing
    key attach to instead of recomputing (the single-flight guarantee)."""

    __slots__ = ("_event", "result", "error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.result: Optional[AccessResult] = None
        self.error: Optional[BaseException] = None

    def resolve(self, result: AccessResult) -> None:
        self.result = result
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._event.set()

    def wait(self) -> AccessResult:
        self._event.wait()
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return replace(self.result, coalesced=True)


class _ValueReaper:
    """Listener that drops memoized values when their key leaves the store."""

    def __init__(self, values: Dict[str, object]) -> None:
        self._values = values

    def on_insert(self, item: CacheItem) -> None:
        pass

    def on_evict(self, item: CacheItem, explicit: bool) -> None:
        self._values.pop(item.key, None)


class Store:
    """Read-through facade: one request API over a pluggable backend."""

    def __init__(self,
                 backend: KVS,
                 metrics: Optional[SimulationMetrics] = None,
                 sizer: Optional[Callable[[str, object], int]] = None,
                 lock: Optional[object] = None) -> None:
        """``backend`` is usually a :class:`KVS`; any object speaking the
        structured protocol works.  ``metrics`` (optional) is fed by
        :meth:`access` and :meth:`get_or_compute` with the paper's
        cold-request exclusion.  ``sizer`` maps (key, loaded value) to a
        byte size when the loader does not declare one (defaults to
        ``len(value)``).  ``lock`` (any context manager, e.g. an RLock)
        serializes every Store operation — pass the owning engine's lock
        when the backend is shared across threads."""
        self._backend = backend
        self._backend_stores_values = bool(
            getattr(backend, "stores_values", False))
        # optional backend capabilities, resolved once (not per request)
        self._backend_peek = getattr(backend, "peek", None)
        self._backend_value_of = getattr(backend, "value_of", None)
        # lookup plus insert-on-miss in one call: fused by the KVS, the two
        # calls in sequence for any other backend
        self._backend_access = (getattr(backend, "access", None)
                                or self._lookup_then_insert)
        # tiered backends price a disk-tier serve at this fraction of the
        # item's recompute cost (0.0 for single-tier backends, whose
        # lookups never return HIT_L2 / MISS_PROMOTED)
        self._backend_l2_factor = float(
            getattr(backend, "l2_hit_cost_factor", 0.0) or 0.0)
        self._sizer = sizer
        self._lock = lock if lock is not None else _NO_LOCK
        self._values: Dict[str, object] = {}
        self._reaping = False
        self._persistence = None
        #: keys a warm restart left metadata-resident with their payload
        #: lost (log-replayed inserts); get_or_compute recomputes these
        #: once and re-memoizes.  Set by StoreConfig.persistence wiring.
        self._lost_values: set = set()
        #: RecoveryReport of the warm start that built this store (None
        #: for cold builds); set by StoreConfig.persistence wiring
        self.last_recovery = None
        self.metrics = metrics
        # single-flight bookkeeping: per-key in-progress loads, guarded
        # by their own mutex (never held while a loader runs)
        self._flights: Dict[str, _Flight] = {}
        self._flights_mutex = threading.Lock()
        #: loader invocations this store actually paid for
        self.loads = 0
        #: get_or_compute calls answered by someone else's in-flight load
        self.coalesced_loads = 0

    # ------------------------------------------------------------------
    # single-key requests
    # ------------------------------------------------------------------
    def get(self, key: str) -> AccessResult:
        """Pure lookup: HIT (with the memoized value), MISS, or EXPIRED.

        On a tiered backend a disk-tier serve surfaces as ``HIT_L2``
        (promoted into DRAM) or ``MISS_PROMOTED`` (still disk-resident);
        both carry the payload when one was demoted with the item.
        """
        with self._lock:
            outcome = self._backend.lookup(key)
            if (outcome is Outcome.HIT or outcome is Outcome.HIT_L2
                    or outcome is Outcome.MISS_PROMOTED):
                item = self._peek(key)
                if item is not None:
                    return AccessResult(key, outcome, item.size, item.cost,
                                        self._value_of(key), True)
                return AccessResult(key, outcome, 0, 0.0,
                                    self._value_of(key), True)
            return AccessResult(key, outcome,
                                expired=outcome is Outcome.EXPIRED)

    def put(self, key: str, size: int, cost: Number = 0.0,
            ttl: Optional[float] = None, value: object = None,
            **meta: object) -> AccessResult:
        """Explicit insert; ``.outcome`` says what happened and
        ``.resident`` reports membership after the call — a rejected
        replacement leaves the old copy resident, so the two disagree
        exactly when an overwrite was refused.

        ``value`` (and any extra ``meta`` kwargs, for backends that store
        their own payloads) is memoized for later hits.
        """
        with self._lock:
            if self._backend_stores_values:
                if value is None:
                    raise ConfigurationError(
                        f"this store's backend holds value payloads; "
                        f"pass value= when putting {key!r}")
                outcome = self._backend.insert(key, size, cost, ttl=ttl,
                                               value=value, **meta)
            else:
                outcome = self._backend.insert(key, size, cost, ttl=ttl)
                if outcome is Outcome.MISS_INSERTED and value is not None:
                    self._memoize(key, value)
            resident = outcome is Outcome.MISS_INSERTED or (
                outcome.is_rejection and key in self._backend)
            return AccessResult(key, outcome, size=size, cost=cost,
                                value=value, resident=resident)

    def put_outcome(self, key: str, size: int, cost: Number = 0.0,
                    ttl: Optional[float] = None, value: object = None,
                    **meta: object) -> Outcome:
        """:meth:`put` without the per-request result allocation.

        Same insert semantics; returns only the :class:`Outcome`.  The
        residency-after-rejection detail that :meth:`put` reports via
        ``.resident`` is not computed — callers that only branch on "was
        the new pair stored" (the memcached ``set`` verb) use this.
        """
        with self._lock:
            if self._backend_stores_values:
                if value is None:
                    raise ConfigurationError(
                        f"this store's backend holds value payloads; "
                        f"pass value= when putting {key!r}")
                return self._backend.insert(key, size, cost, ttl=ttl,
                                            value=value, **meta)
            outcome = self._backend.insert(key, size, cost, ttl=ttl)
            if outcome is Outcome.MISS_INSERTED and value is not None:
                self._memoize(key, value)
            return outcome

    def access(self, key: str, size: int, cost: Number,
               ttl: Optional[float] = None) -> AccessResult:
        """One simulator step: lookup, record metrics, insert on miss.

        This is :meth:`get_or_compute` with the (size, cost) already
        known from a trace record — no loader, no value payload.
        """
        with self._lock:
            backend = self._backend
            outcome = backend.lookup(key)
            if outcome is Outcome.HIT:
                if self.metrics is not None:
                    self.metrics.record(key, size, cost, True)
                return AccessResult(key, outcome, size, cost, None, True)
            if outcome is Outcome.HIT_L2 or outcome is Outcome.MISS_PROMOTED:
                if self.metrics is not None:
                    self.metrics.record_l2(key, size, cost,
                                           self._backend_l2_factor * cost)
                return AccessResult(key, outcome, size, cost, None, True)
            if self.metrics is not None:
                self.metrics.record(key, size, cost, False)
            expired = outcome is Outcome.EXPIRED
            outcome = backend.insert(key, size, cost, ttl=ttl)
            return AccessResult(key, outcome, size, cost, None,
                                outcome is Outcome.MISS_INSERTED, expired)

    def access_outcome(self, key: str, size: int, cost: Number,
                       ttl: Optional[float] = None) -> Outcome:
        """:meth:`access` without the per-request result allocation.

        Returns only the final :class:`Outcome` (the lookup's HIT, or
        what happened to the insert-on-miss) — exactly the information
        the trace simulator tallies, so its per-request loop allocates
        nothing.  Metrics recording and semantics match :meth:`access`;
        an expired lookup reports the follow-up insert's outcome, as
        ``access`` reports it in ``.outcome``.  A backend with an
        ``access`` method (the KVS) does the lookup and the
        insert-on-miss in that one call.
        """
        lock = self._lock
        if lock is not _NO_LOCK:
            with lock:
                outcome = self._backend_access(key, size, cost, ttl)
                if self.metrics is not None:
                    self._record(outcome, key, size, cost)
                return outcome
        outcome = self._backend_access(key, size, cost, ttl)
        if self.metrics is not None:
            self._record(outcome, key, size, cost)
        return outcome

    def _lookup_then_insert(self, key: str, size: int, cost: Number,
                            ttl: Optional[float] = None) -> Outcome:
        """``access`` for a backend without one: look up, and insert
        unless a tier served the key."""
        backend = self._backend
        outcome = backend.lookup(key)
        if (outcome is Outcome.HIT or outcome is Outcome.HIT_L2
                or outcome is Outcome.MISS_PROMOTED):
            return outcome
        return backend.insert(key, size, cost, ttl=ttl)

    def _record(self, outcome: Outcome, key: str, size: int,
                cost: Number) -> None:
        """Feed :attr:`metrics` one request's final outcome."""
        if outcome is Outcome.HIT:
            self.metrics.record(key, size, cost, True)
        elif outcome is Outcome.HIT_L2 or outcome is Outcome.MISS_PROMOTED:
            self.metrics.record_l2(key, size, cost,
                                   self._backend_l2_factor * cost)
        else:
            self.metrics.record(key, size, cost, False)

    def get_or_compute(self, key: str, loader: Loader,
                       ttl: Optional[float] = None,
                       size: Optional[int] = None,
                       cost: Optional[Number] = None) -> AccessResult:
        """Read-through: return the cached value or recompute-and-insert.

        On a miss the ``loader(key)`` runs once; its wall-clock seconds
        become the item's cost(p) unless ``cost`` (or a
        :class:`Computed` return) says otherwise, and ``len(value)``
        becomes the size unless ``size``/``Computed``/the store's sizer
        does.  The result's ``value`` is always usable — even when the
        insert was rejected, the freshly computed value is handed back.

        Misses are **single-flight**: concurrent callers of the same
        missing key share one loader invocation and one admission
        decision — the first caller loads, the rest block until it
        resolves and receive the same result marked ``coalesced=True``
        (a thundering herd pays cost(p) once, the exact waste CAMP's
        cost model exists to avoid).  A loader failure propagates to
        every waiter.  Note that when the store holds a whole-store
        lock the loader still runs *under* it, so coalescing there is
        implicit (followers block on the lock, then hit).
        """
        with self._lock:
            outcome = self._backend.lookup(key)
            if outcome is Outcome.HIT:
                return self._hit_access(key, loader)
            if outcome is Outcome.HIT_L2 or outcome is Outcome.MISS_PROMOTED:
                result = self._l2_access(key, outcome, loader)
                if result is not None:
                    return result
        expired = outcome is Outcome.EXPIRED
        flight, leader = self._join_flight(key)
        if not leader:
            return flight.wait()
        try:
            with self._lock:
                # re-probe under leadership: the previous leader may
                # have inserted while this caller was joining
                outcome = self._backend.lookup(key)
                l2_result = None
                if (outcome is Outcome.HIT_L2
                        or outcome is Outcome.MISS_PROMOTED):
                    l2_result = self._l2_access(key, outcome, loader)
                if outcome is Outcome.HIT:
                    result = self._hit_access(key, loader)
                elif l2_result is not None:
                    result = l2_result
                else:
                    expired = expired or outcome is Outcome.EXPIRED
                    started = time.perf_counter()
                    loaded = loader(key)
                    elapsed = time.perf_counter() - started
                    self.loads += 1
                    result = self._store_loaded(key, loaded, size, cost,
                                                ttl, elapsed, expired)
            flight.resolve(result)
            return result
        except BaseException as exc:
            flight.fail(exc)
            raise
        finally:
            self._leave_flight(key, flight)

    # -- single-flight plumbing (shared with AsyncStore) ----------------
    def _join_flight(self, key: str):
        """Return ``(flight, leader)``: attach to the key's in-progress
        load, or open a new one and become its leader."""
        with self._flights_mutex:
            flight = self._flights.get(key)
            if flight is not None:
                self.coalesced_loads += 1
                return flight, False
            flight = _Flight()
            self._flights[key] = flight
            return flight, True

    def _leave_flight(self, key: str, flight: _Flight) -> None:
        with self._flights_mutex:
            if self._flights.get(key) is flight:
                del self._flights[key]

    def _value_lost(self, key: str) -> bool:
        """A warm restart left this key resident without its payload."""
        return key in self._lost_values and self._value_of(key) is None

    def _hit_access(self, key: str,
                    loader: Optional[Loader] = None) -> AccessResult:
        """Build the HIT result for a resident key (metrics recorded).

        When a warm restart's AOL replay rebuilt the key's residency
        without its payload (the log records metadata only) and a
        ``loader`` is given, honour the "value is always usable"
        contract by recomputing once and re-memoizing, while
        residency/policy still count a hit.  Keys that never had a
        value (metadata-only callers, negative-caching loaders) keep
        the plain HIT-with-None behaviour.  Caller holds the store
        lock.
        """
        if loader is not None and self._value_lost(key):
            return self._adopt_reloaded(key, loader(key))
        return self._hit_result(key, self._value_of(key))

    def _adopt_reloaded(self, key: str, loaded: object) -> AccessResult:
        """Memoize a freshly recomputed payload for a lost-value hit."""
        self._lost_values.discard(key)
        value = loaded.value if isinstance(loaded, Computed) else loaded
        if value is not None:
            self._memoize(key, value)
        return self._hit_result(key, value)

    def _l2_access(self, key: str, outcome: Outcome,
                   loader: Optional[Loader]) -> Optional[AccessResult]:
        """Build the result for a disk-tier-served lookup (caller holds
        the store lock; metrics get the discounted L2 charge).

        Returns None when the disk record carried no payload but a
        ``loader`` expects one (metadata-only demotions from trace
        traffic): the caller falls through to the ordinary miss path and
        recomputes, keeping the "value is always usable" contract.
        """
        value = self._value_of(key)
        if value is None and loader is not None:
            return None
        item = self._peek(key)
        item_size = item.size if item is not None else 0
        item_cost = item.cost if item is not None else 0.0
        if self.metrics is not None:
            self.metrics.record_l2(key, item_size, item_cost,
                                   self._backend_l2_factor * item_cost)
        return AccessResult(key, outcome, size=item_size, cost=item_cost,
                            value=value, resident=True)

    def _hit_result(self, key: str, value: object) -> AccessResult:
        item = self._peek(key)
        item_size = item.size if item is not None else 0
        item_cost = item.cost if item is not None else 0.0
        if self.metrics is not None:
            self.metrics.record(key, item_size, item_cost, True)
        return AccessResult(key, Outcome.HIT, size=item_size,
                            cost=item_cost, value=value, resident=True)

    def _store_loaded(self, key: str, loaded: object,
                      size: Optional[int], cost: Optional[Number],
                      ttl: Optional[float], elapsed: float,
                      expired: bool) -> AccessResult:
        """Insert a loader's product (the miss half of get_or_compute);
        caller holds the store lock."""
        value, size, cost, ttl = self._resolve_computed(
            key, loaded, size, cost, ttl, elapsed)
        if self._backend_stores_values:
            outcome = self._backend.insert(key, size, cost, ttl=ttl,
                                           value=value)
        else:
            outcome = self._backend.insert(key, size, cost, ttl=ttl)
            if outcome is Outcome.MISS_INSERTED and value is not None:
                self._memoize(key, value)
        if self.metrics is not None:
            self.metrics.record(key, size, cost, False)
        return AccessResult(key, outcome, size=size, cost=cost,
                            value=value,
                            resident=outcome is Outcome.MISS_INSERTED,
                            expired=expired)

    def _resolve_computed(self, key: str, loaded: object,
                          size: Optional[int], cost: Optional[Number],
                          ttl: Optional[float], elapsed: float):
        if isinstance(loaded, Computed):
            value = loaded.value
            size = size if size is not None else loaded.size
            cost = cost if cost is not None else loaded.cost
            ttl = ttl if ttl is not None else loaded.ttl
        else:
            value = loaded
        if size is None:
            if self._sizer is not None:
                size = self._sizer(key, value)
            else:
                try:
                    size = len(value)  # type: ignore[arg-type]
                except TypeError:
                    raise ConfigurationError(
                        f"cannot size loaded value for {key!r}; pass "
                        f"size=, return a Computed, or give the store a "
                        f"sizer") from None
        if cost is None:
            cost = elapsed
        return value, size, cost, ttl

    def delete(self, key: str) -> bool:
        """Explicit removal; True when the key was resident."""
        with self._lock:
            self._values.pop(key, None)
            return self._backend.delete(key)

    def touch(self, key: str, ttl: Optional[float] = None) -> bool:
        """Reset a live key's TTL (None or 0 = never); True when live."""
        with self._lock:
            return self._backend.touch(key, ttl)

    # ------------------------------------------------------------------
    # batched requests
    # ------------------------------------------------------------------
    def get_many(self, keys: Sequence[str]) -> BatchResult:
        """Batched lookup under one policy-lock acquisition.

        Returns bare per-key outcomes (no per-item result allocation, no
        metrics feed) — the throughput-oriented sibling of :meth:`get`.
        """
        with self._lock:
            lookup_many = getattr(self._backend, "lookup_many", None)
            if lookup_many is not None:
                return BatchResult(lookup_many(keys))
            return BatchResult([self._backend.lookup(key) for key in keys])

    def put_many(self, entries: Iterable[PutEntry]) -> BatchResult:
        """Batched insert of (key, size, cost[, ttl]) rows under one
        policy-lock acquisition; outcome semantics match :meth:`put`.

        Rows carry no value payloads, so backends that store their own
        values (the slab engine) are refused rather than silently fed
        empty payloads — use :meth:`put` with ``value=`` there.
        """
        if self._backend_stores_values:
            raise ConfigurationError(
                "put_many rows carry no value payloads; this store's "
                "backend holds values — use put(value=...) instead")
        with self._lock:
            insert_many = getattr(self._backend, "insert_many", None)
            if insert_many is not None:
                return BatchResult(insert_many(entries))
            outcomes = []
            for entry in entries:
                key, size, cost = entry[0], entry[1], entry[2]
                ttl = entry[3] if len(entry) > 3 else None
                outcomes.append(
                    self._backend.insert(key, size, cost, ttl=ttl))
            return BatchResult(outcomes)

    # ------------------------------------------------------------------
    # value memoization
    # ------------------------------------------------------------------
    def _memoize(self, key: str, value: object) -> None:
        if not self._reaping:
            add_listener = getattr(self._backend, "add_listener", None)
            if add_listener is not None:
                add_listener(_ValueReaper(self._values))
            self._reaping = True
        self._values[key] = value

    def _value_of(self, key: str) -> object:
        if self._backend_stores_values:
            value_of = self._backend_value_of
            return value_of(key) if value_of is not None else None
        return self._values.get(key)

    def _peek(self, key: str) -> Optional[CacheItem]:
        peek = self._backend_peek
        return peek(key) if peek is not None else None

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def persistence(self):
        """The attached :class:`~repro.persistence.PersistenceManager`
        (None unless the store was built with ``.persistence(...)``)."""
        return self._persistence

    def attach_persistence(self, manager) -> None:
        """Adopt a persistence manager (normally done by StoreConfig)."""
        self._persistence = manager

    def snapshot_payloads(self) -> Dict[str, bytes]:
        """Memoized values that can ride along in a snapshot (bytes
        only — arbitrary loader objects are cache-local by design)."""
        with self._lock:
            return self._snapshot_payloads_unlocked()

    def _snapshot_payloads_unlocked(self) -> Dict[str, bytes]:
        """Lock-free variant handed to the persistence manager as its
        payload source: the manager only calls it on paths where this
        store's lock is already held (``save()``, or auto-compaction
        fired from inside a locked mutation) — re-acquiring would
        deadlock a non-reentrant lock."""
        return {key: bytes(value)
                for key, value in self._values.items()
                if isinstance(value, (bytes, bytearray))}

    def save(self) -> int:
        """Write a snapshot generation now; returns its number.

        Requires the store to have been built with persistence
        configured (``StoreConfig.persistence(...)``).
        """
        if self._persistence is None:
            raise ConfigurationError(
                "this store has no persistence configured; build it with "
                "StoreConfig.persistence(...)")
        with self._lock:
            return self._persistence.snapshot()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> KVS:
        return self._backend

    @property
    def kvs(self) -> KVS:
        """The backend, under its historical name (usually a KVS)."""
        return self._backend

    def stats(self) -> Dict[str, Number]:
        with self._lock:
            return dict(self._backend.stats())

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._backend

    def __len__(self) -> int:
        with self._lock:
            return len(self._backend)

    def check_consistency(self) -> None:
        with self._lock:
            check = getattr(self._backend, "check_consistency", None)
            if check is not None:
                check()
            for key in self._values:
                if key not in self._backend:
                    raise ConfigurationError(
                        f"memoized value for non-resident key {key!r}")


class StoreConfig:
    """Fluent, one-stop construction of a :class:`Store` over a KVS.

    >>> store = (StoreConfig(64 << 20)
    ...          .policy("camp", precision=5)
    ...          .thread_safe()
    ...          .track_metrics()
    ...          .build())
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._policy_name: Optional[str] = "camp"
        self._policy_kwargs: Dict[str, object] = {}
        self._policy_instance: Optional[EvictionPolicy] = None
        self._admission: Optional[AdmissionController] = None
        self._item_overhead = 0
        self._thread_safe = False
        self._listeners: List[object] = []
        self._clock: Optional[Callable[[], float]] = None
        self._metrics: Optional[SimulationMetrics] = None
        self._sizer: Optional[Callable[[str, object], int]] = None
        self._lock: Optional[object] = None
        self._persistence_config: Optional[object] = None
        self._recover = True
        self._tiered_config: Optional[Dict[str, object]] = None

    def policy(self, policy: Union[str, EvictionPolicy],
               **kwargs: object) -> "StoreConfig":
        """Eviction policy, by registry name (kwargs forwarded to the
        factory) or as a ready instance."""
        if isinstance(policy, EvictionPolicy):
            if kwargs:
                raise ConfigurationError(
                    "policy kwargs only apply to registry names")
            self._policy_instance = policy
            self._policy_name = None
        else:
            self._policy_name = policy
            self._policy_kwargs = dict(kwargs)
            self._policy_instance = None
        return self

    def admission(self, controller: AdmissionController) -> "StoreConfig":
        self._admission = controller
        return self

    def item_overhead(self, overhead: int) -> "StoreConfig":
        """Bytes charged per item on top of its value size."""
        self._item_overhead = overhead
        return self

    def thread_safe(self, enabled: bool = True) -> "StoreConfig":
        """Wrap the policy in a :class:`ThreadSafePolicy`; batch calls
        still take its lock only once."""
        self._thread_safe = enabled
        return self

    def listener(self, listener: object) -> "StoreConfig":
        """Subscribe a :class:`CacheListener`; repeatable, order kept."""
        self._listeners.append(listener)
        return self

    def clock(self, clock: Callable[[], float]) -> "StoreConfig":
        """TTL clock (injectable for deterministic expiry tests)."""
        self._clock = clock
        return self

    def track_metrics(self,
                      metrics: Optional[SimulationMetrics] = None
                      ) -> "StoreConfig":
        """Feed a :class:`SimulationMetrics` (a fresh one by default)."""
        self._metrics = metrics if metrics is not None else SimulationMetrics()
        return self

    def sizer(self, sizer: Callable[[str, object], int]) -> "StoreConfig":
        """How to size loader values lacking ``len()`` / explicit sizes."""
        self._sizer = sizer
        return self

    def lock(self, lock: object) -> "StoreConfig":
        """Serialize whole Store operations under this context manager."""
        self._lock = lock
        return self

    def persistence(self, directory: str, fsync: str = "never",
                    fsync_every: int = 64,
                    compact_ratio: Optional[float] = 4.0,
                    keep_generations: int = 2,
                    snapshot_payloads: bool = True,
                    recover: bool = True) -> "StoreConfig":
        """Make the store durable: mutations append to an operation log
        under ``directory``, ``store.save()`` writes atomic snapshot
        generations, and — with ``recover`` (the default) — ``build()``
        warm-starts from whatever healthy state the directory holds,
        restoring items *and* eviction-policy priorities.
        """
        from repro.persistence import PersistenceConfig
        self._persistence_config = PersistenceConfig(
            directory=directory, fsync=fsync, fsync_every=fsync_every,
            compact_ratio=compact_ratio, keep_generations=keep_generations,
            snapshot_payloads=snapshot_payloads)
        self._recover = recover
        return self

    def tiered(self, directory: str, disk_capacity: int,
               demote_min_cost_per_byte: float = 0.0,
               l2_hit_cost_factor: float = 0.1,
               segment_bytes: int = 1 << 20,
               demotion_filter: Optional[object] = None,
               recover: bool = True) -> "StoreConfig":
        """Stack the DRAM store over an on-disk victim tier (L2).

        Capacity evictions from DRAM pass a demotion filter — by default
        :class:`~repro.tiering.filter.CostDensityFilter` at
        ``demote_min_cost_per_byte`` (0.0 demotes everything) — and are
        appended to segment files under ``directory``, bounded by
        ``disk_capacity`` logical bytes.  Misses probe the tier before
        any loader; tier hits are promoted back and charged
        ``l2_hit_cost_factor`` of their recompute cost (surfacing as
        ``Outcome.HIT_L2`` / ``Outcome.MISS_PROMOTED``).  With
        ``recover`` (the default) ``build()`` rebuilds the tier's index
        from whatever healthy segment frames the directory holds.

        Mutually exclusive with :meth:`persistence` — the tier is a
        victim cache over the same DRAM state a snapshot would capture,
        and the two would fight over recovery semantics.
        """
        self._tiered_config = {
            "directory": directory,
            "disk_capacity": disk_capacity,
            "demote_min_cost_per_byte": demote_min_cost_per_byte,
            "l2_hit_cost_factor": l2_hit_cost_factor,
            "segment_bytes": segment_bytes,
            "demotion_filter": demotion_filter,
            "recover": recover,
        }
        return self

    def build(self) -> Store:
        if self._policy_instance is not None:
            policy = self._policy_instance
        else:
            policy = make_policy(self._policy_name, self._capacity,
                                 **self._policy_kwargs)
        store_lock = self._lock
        if self._thread_safe:
            if getattr(policy, "concurrent_safe", False):
                # internally synchronized policies (sharded CAMP's
                # striped locks) must not gain a global policy lock on
                # top — that re-serializes every event and undoes the
                # striping.  The KVS byte accounting still needs mutual
                # exclusion, so the *store* gets a lock instead: policy
                # events stay striped for direct policy users while
                # whole-store operations serialize exactly once.
                if store_lock is None:
                    store_lock = threading.Lock()
            else:
                policy = ThreadSafePolicy(policy)
        kvs = KVS(self._capacity, policy, admission=self._admission,
                  item_overhead=self._item_overhead, clock=self._clock)
        backend = kvs
        if self._tiered_config is not None:
            if self._persistence_config is not None:
                raise ConfigurationError(
                    "tiered(...) and persistence(...) are mutually "
                    "exclusive — the disk tier recovers its own segment "
                    "files")
            backend = self._build_tiered_backend(kvs)
            if self._thread_safe and store_lock is None:
                # demotion/promotion are multi-step (KVS + payload dict +
                # file appends); per-policy-event locking cannot cover
                # them, so the whole store serializes
                store_lock = threading.RLock()
        for listener in self._listeners:
            kvs.add_listener(listener)
        store = Store(backend, metrics=self._metrics, sizer=self._sizer,
                      lock=store_lock)
        if self._persistence_config is not None:
            self._wire_persistence(store, kvs)
        return store

    def _build_tiered_backend(self, kvs: KVS):
        """Construct the DiskTier + TieredBackend stack (lazy import —
        ``repro.tiering`` depends on this module's siblings)."""
        from repro.tiering.backend import TieredBackend
        from repro.tiering.disk_tier import DiskTier
        config = self._tiered_config
        tier = DiskTier(config["directory"],
                        capacity_bytes=config["disk_capacity"],
                        segment_bytes=config["segment_bytes"],
                        clock=self._clock,
                        recover=config["recover"])
        demotion_filter = config["demotion_filter"]
        if demotion_filter is None:
            from repro.tiering.filter import AlwaysDemote, CostDensityFilter
            threshold = config["demote_min_cost_per_byte"]
            demotion_filter = (CostDensityFilter(threshold) if threshold > 0
                               else AlwaysDemote())
        try:
            return TieredBackend(
                kvs, tier, demotion_filter=demotion_filter,
                l2_hit_cost_factor=config["l2_hit_cost_factor"])
        except BaseException:
            tier.close()   # a refused config must not leak the open segment
            raise

    def build_async(self):
        """Build the same store wrapped for asyncio callers: an
        :class:`~repro.cache.async_store.AsyncStore` whose
        ``get_or_compute`` awaits (async or sync) loaders off the event
        loop's critical path with single-flight coalescing.  All
        configuration — policy, admission, TTL clock, metrics,
        persistence — is shared with :meth:`build`.
        """
        from repro.cache.async_store import AsyncStore
        return AsyncStore(self.build())

    def _wire_persistence(self, store: Store, kvs: KVS) -> None:
        """Recover (before the op logger attaches, so restored items are
        not re-logged), then start logging into the state directory.

        The manager is told which generation the live state actually
        corresponds to (the recovered one, or 0 for a cold build): if a
        corrupt newest snapshot forced recovery to fall back — or
        ``recover=False`` skipped it over existing state — the manager
        opens a *fresh* generation rather than appending mutations to a
        log no future recovery would pair with this state.
        """
        from repro.persistence import PersistenceManager, RecoveryManager
        # fail at build, not at the first save (or worse, mid-put when
        # auto-compaction fires): the policy must support state export
        kvs.policy.export_state()
        synced = 0
        if self._recover:
            report = RecoveryManager(
                self._persistence_config.directory).recover_into(kvs)
            for key, payload in report.payloads.items():
                store._memoize(key, payload)
            store.last_recovery = report
            synced = report.generation
            # keys whose payload did not survive (log-replayed inserts,
            # or snapshot rows saved without values): get_or_compute
            # reloads these once instead of handing back a None value
            lost = set(kvs.resident_keys())
            lost.difference_update(report.payloads)
            store._lost_values = lost
        manager = PersistenceManager(
            kvs, self._persistence_config,
            payload_source=store._snapshot_payloads_unlocked,
            synced_generation=synced)
        store.attach_persistence(manager)
