"""In-memory spans recorded around layer entry points, and the ledger.

The tracer is the benchmark's own: :mod:`bench.instrument` wraps the
public entry points of each ``src/repro`` package with :meth:`Tracer.wrap`
for the traced run only; the program under test carries no spans yet
(ROADMAP item 1).  A span is ``[name, start, end, thread, parent,
waits]``; spans of one op hang off one ``bench.op`` root.

:func:`ledger` turns one op's spans into per-name *self* seconds that add
up to the root exactly: every instant of the root's interval is given to
the deepest span active at that instant, and split equally when spans on
several threads are deepest at once.  A thread's root span is adopted by
the deepest *waiting* span (``waits``: the instrument table marks the
call as blocking on other threads) on another thread that contains its end — the moment
its result is consumed — and clipped to it, so a span that waits yields
to the work it waits for while parallel workers stay siblings.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

NAME, START, END, THREAD, PARENT, WAITS = range(6)
ROOT_NAME = "bench.op"

#: ``(name, start, end, thread, parent index or None, waits)`` — what
#: :func:`ledger` consumes; index 0 is the op's root.
SpanRow = tuple[str, float, float, int, Optional[int], bool]


class Tracer:
    """Records spans on every thread into one in-memory list."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._clock = time.perf_counter

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str, stack: list, waits: bool) -> list:
        span = [
            name,
            self._clock(),
            None,
            threading.get_ident(),
            stack[-1] if stack else None,
            waits,
        ]
        stack.append(span)
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable, waits: bool = False) -> Callable:
        """``fn`` recorded as one span per outermost call on a thread.

        A call made while a span of the same name is already the
        innermost open span on the thread (recursion, a method that
        delegates to its chunked twin) is charged to that span.
        """
        stack_of, open_span, clock = self._stack, self._open, self._clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            if stack and stack[-1][NAME] is name:
                return fn(*args, **kwargs)
            span = open_span(name, stack, waits)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function recorded as one span per resumption."""
        stack_of, open_span, clock = self._stack, self._open, self._clock

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = fn(*args, **kwargs)
            while True:
                stack = stack_of()
                nested = bool(stack) and stack[-1][NAME] is name
                span = None if nested else open_span(name, stack, False)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        span[END] = clock()
                        stack.pop()
                yield item

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def op(self) -> Iterator[list[SpanRow]]:
        """Trace one op; the yielded list is filled with its rows on exit."""
        rows: list[SpanRow] = []
        first = len(self.spans)
        stack = self._stack()
        root = self._open(ROOT_NAME, stack, True)
        try:
            yield rows
        finally:
            root[END] = self._clock()
            stack.pop()
            rows.extend(_rows_of(self.spans[first:], root))


def _rows_of(spans: Sequence[list], root: list) -> list[SpanRow]:
    """Freeze one op's spans: clip to the root, close what is still open."""
    lo, hi = root[START], root[END]
    index = {id(span): i for i, span in enumerate(spans)}
    rows: list[SpanRow] = []
    for span in spans:
        end = span[END]
        parent = span[PARENT]
        rows.append(
            (
                span[NAME],
                max(span[START], lo),
                hi if end is None else min(end, hi),
                span[THREAD],
                # A parent outside this op (a tail of the previous one)
                # makes the span a thread root again.
                index.get(id(parent)) if parent is not None else None,
                span[WAITS],
            )
        )
    return rows


def _adopt(rows: Sequence[SpanRow]) -> tuple[list[Optional[int]], list[int]]:
    """Global parents (same-thread, or adopted for thread roots) and depths."""
    parents: list[Optional[int]] = [row[PARENT] for row in rows]
    resolved = [row[PARENT] is not None for row in rows]
    resolved[0] = True
    depth_memo: dict[int, int] = {0: 0}

    def order_key(i: int) -> tuple[float, float, int]:
        return (rows[i][END], -rows[i][START], -i)

    def parent_of(i: int) -> Optional[int]:
        if not resolved[i]:
            resolved[i] = True
            end, thread, key = rows[i][END], rows[i][THREAD], order_key(i)
            best, best_rank = 0, (-1, 0.0)
            for j, other in enumerate(rows):
                if (
                    other[WAITS]
                    and other[THREAD] != thread
                    and other[START] <= end <= other[END]
                    and order_key(j) > key
                ):
                    rank = (depth(j), other[START])
                    if rank > best_rank:
                        best, best_rank = j, rank
            parents[i] = best
        return parents[i]

    def depth(i: int) -> int:
        chain = []
        while i not in depth_memo:
            chain.append(i)
            i = parent_of(i)  # type: ignore[assignment]
        base = depth_memo[i]
        for offset, node in enumerate(reversed(chain), start=1):
            depth_memo[node] = base + offset
        return depth_memo[chain[0]] if chain else base

    return parents, [depth(i) for i in range(len(rows))]


def ledger(rows: Sequence[SpanRow]) -> dict[str, float]:
    """Per-name self seconds of one op; the values sum to the root's span.

    ``rows[0]`` must be the root.  Children are clipped to their
    (adopted) parents; overlapping children of one parent are covered by
    their union, never subtracted twice; spans deepest on several
    threads at once share the instant equally.
    """
    if not rows:
        return {}
    parents, depth = _adopt(rows)
    eff: list[tuple[float, float]] = [(0.0, 0.0)] * len(rows)
    for i in sorted(range(len(rows)), key=depth.__getitem__):
        start, end = rows[i][START], rows[i][END]
        parent = parents[i]
        if parent is not None:
            start, end = max(start, eff[parent][0]), min(end, eff[parent][1])
        eff[i] = (start, max(start, end))

    events: list[tuple[float, int, int, int]] = []
    for i, (start, end) in enumerate(eff):
        if end > start:
            # At one instant: ends before starts, deeper ends first,
            # shallower starts first — a child never outlives its parent.
            events.append((end, 0, -depth[i], i))
            events.append((start, 1, depth[i], i))
    events.sort()

    self_time: dict[str, float] = defaultdict(float)
    active = [False] * len(rows)
    active_children = [0] * len(rows)
    leaves: set[int] = set()
    previous = events[0][0] if events else 0.0
    for instant, is_start, _, i in events:
        if instant > previous and leaves:
            share = (instant - previous) / len(leaves)
            for leaf in leaves:
                self_time[rows[leaf][NAME]] += share
        previous = instant
        parent = parents[i]
        if is_start:
            active[i] = True
            leaves.add(i)
            if parent is not None:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active[i] = False
            leaves.discard(i)
            if parent is not None:
                active_children[parent] -= 1
                if active_children[parent] == 0 and active[parent]:
                    leaves.add(parent)
    return dict(self_time)


def mean_ledger(ledgers: Sequence[dict[str, float]]) -> dict[str, float]:
    """Per-name mean over ops, so the rows add up to the mean traced op."""
    totals: dict[str, float] = defaultdict(float)
    for one in ledgers:
        for name, seconds in one.items():
            totals[name] += seconds
    return {name: seconds / len(ledgers) for name, seconds in totals.items()}
