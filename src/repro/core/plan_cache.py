"""Session-level compiled-plan cache.

Compiling a query (parse → analyze → optimize → plan → build executor, plus
the trace on first graph execution) costs orders of magnitude more than
replaying the compiled artifact.  Under repeated-query traffic — the regime
the ROADMAP targets — a session therefore keeps an LRU cache of
:class:`~repro.core.session.CompiledQuery` objects keyed by the
**parameterized shape** of the statement:

``(normalized SQL with parameter markers, ExecutionOptions.cache_key(),
parameter-type hints)``

Every compile goes through this cache; :meth:`PlanCache.clear` is how a
caller gets a cold compile.

Bind-parameter markers are part of the SQL text, so every binding of a
prepared statement — and, with auto-parameterization, every ad-hoc query
differing only in literals — maps to one entry (a true *statement cache*,
not an exact-text memo).

Staleness is handled per entry rather than in the key: each cached plan
carries the schema fingerprint — ``(table, version)`` pairs — of the tables
it scans, and :meth:`PlanCache.get` revalidates it against the session's
current table versions on every hit.  Re-registering a table bumps its
version (traced programs bake data-dependent sizes in, see
``Executor.compile_program``, so any data change must miss) and eagerly
purges the plans scanning it, while plans over *unrelated* tables stay warm.
Hit/miss/eviction counters are exposed for the benchmark harness
(``benchmarks/bench_plan_cache.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable


def normalize_sql(sql: str) -> str:
    """Canonicalize SQL text for cache keying.

    Whitespace runs collapse to one space and text is lowercased — but only
    *outside* quoted regions: single-quoted string literals (``'Gift  Wrap'``
    and ``'gift wrap'`` are different predicates) and double-quoted
    identifiers (``"A"`` and ``"a"`` may be different columns) keep their
    exact bytes.  Doubled quotes inside a region (``'it''s'``) are handled.
    ``--`` and ``/* */`` comments are skipped as whitespace, as the lexer
    does, so a quote inside one (``-- don't``) opens no region.  A trailing
    semicolon is dropped.
    """
    out: list[str] = []
    quote: str | None = None  # the active quote char, if inside a region
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if quote is not None:
            out.append(ch)
            if ch == quote:
                if i + 1 < n and sql[i + 1] == quote:
                    out.append(quote)
                    i += 1
                else:
                    quote = None
        elif ch in ("'", '"'):
            quote = ch
            out.append(ch)
        elif ch.isspace() or (ch in "-/"
                              and sql.startswith(("--", "/*"), i)):
            if ch in "-/":  # a comment: skip to its last character
                end = (sql.find("\n", i) if ch == "-"
                       else sql.find("*/", i + 2) + 1)
                i = n if end <= 0 else end
            if out and out[-1] != " ":
                out.append(" ")
        else:
            out.append(ch.lower())
        i += 1
    text = "".join(out).strip()
    if text.endswith(";"):
        text = text[:-1].rstrip()
    return text


class PlanCache:
    """A thread-safe LRU mapping of plan keys to compiled queries."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        #: In-flight compilations by key (see :meth:`get_or_create`): the
        #: first miss installs an event, concurrent misses for the same key
        #: wait on it instead of compiling the same statement twice.
        self._building: dict[Hashable, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable,
            validate: Callable[[Any], bool] | None = None) -> Any | None:
        """Look up ``key``, counting a hit (and refreshing recency) or a miss.

        When ``validate`` is given and rejects the stored entry, the entry is
        dropped (counted as an invalidation) and the lookup is a miss — the
        hook sessions use to revalidate a plan's schema fingerprint.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and validate is not None and not validate(entry):
                del self._entries[key]
                self.invalidations += 1
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any],
                      validate: Callable[[Any], bool] | None = None) -> Any:
        """Return the cached entry for ``key``, building it at most once.

        Under concurrent serving traffic many clients miss on the same cold
        statement at once; without coordination each of them would compile
        (and later trace) its own copy, and the last ``put`` would win — the
        classic check-then-insert interleaving.  The first caller to miss
        installs an in-flight marker and runs ``factory``; concurrent callers
        for the *same* key block until it finishes and then share the one
        compiled entry.  Different keys build concurrently, and ``factory``
        runs outside the cache lock, so compilation never blocks lookups.

        If ``factory`` raises, waiters fall back to building their own entry
        (the error is not cached).
        """
        entry = self.get(key, validate=validate)
        if entry is not None:
            return entry
        while True:
            with self._lock:
                existing = self._entries.get(key)
                if existing is not None and (validate is None
                                             or validate(existing)):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return existing
                marker = self._building.get(key)
                if marker is None:
                    marker = self._building[key] = threading.Event()
                    building = True
                else:
                    building = False
            if building:
                try:
                    value = factory()
                    self.put(key, value)
                    return value
                finally:
                    with self._lock:
                        self._building.pop(key, None)
                    marker.set()
            marker.wait()
            entry = self.get(key, validate=validate)
            if entry is not None:
                return entry
            # The builder failed (or its entry was immediately invalidated);
            # loop and try to become the builder ourselves.

    def remove_if(self, predicate: Callable[[Any], bool]) -> int:
        """Drop every entry whose value matches ``predicate``; return count."""
        with self._lock:
            stale = [key for key, value in self._entries.items() if predicate(value)]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop all entries (counted as invalidations); return count."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    def stats(self) -> dict:
        """Counters snapshot, JSON-friendly (surfaced by the bench harness)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        s = self.stats()
        return (f"PlanCache(size={s['size']}/{s['capacity']}, "
                f"hits={s['hits']}, misses={s['misses']})")
