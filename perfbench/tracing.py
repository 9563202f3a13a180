"""Span tracer for the traced benchmark mode.

The tracer replaces public callables with timing wrappers at the place where
their caller looks the name up (a module global, a class attribute, or an
attribute of a strategy object the benchmark built), and restores them
afterwards. The program itself is never edited.

Spans nest on one thread: every traced call runs on the benchmark's main
thread (the loopback provers are separate, untraced processes). Instead of
keeping one record per call, which would be millions of records on the
round-loop workloads, spans are aggregated on the fly per (parent, name)
link: call count, total duration and self time. Self time is a span's
duration minus the time covered by its direct children, so the self times
of all spans sum to the time spent inside top-level spans, which is at most
the wall time of the traced pass.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.links: dict[tuple[Optional[str], str], int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[list] = []  # [name, child_ns] per open span
        self._patches: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A function that runs `fn` inside a span called `name`."""
        open_spans = self._open
        calls, self_ns, links = self.calls, self.self_ns, self.links
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = open_spans[-1][0] if open_spans else None
            frame = [name, 0]
            open_spans.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                open_spans.pop()
                calls[name] += 1
                self_ns[name] += dur - frame[1]
                links[(parent, name)] += 1
                if open_spans:
                    open_spans[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str, pre: Optional[Callable] = None) -> None:
        """Trace `owner.attr` as span `name`.

        `pre`, if given, maps the original callable to a counting variant
        that is traced in its place (used for byte and reject counters).
        """
        had_own = attr in vars(owner)
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, self.wrap(name, pre(orig) if pre else orig))

    def restore(self) -> None:
        """Undo every patch, most recent first."""
        while self._patches:
            owner, attr, orig, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def link_table(self) -> list[dict]:
        """The aggregated call tree: one row per (parent, span) link."""
        return [
            {"parent": parent, "span": name, "calls": n}
            for (parent, name), n in sorted(self.links.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
