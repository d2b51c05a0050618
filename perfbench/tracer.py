"""Layer-boundary tracing from outside the package.

The tracer wraps public functions of the package and rebinds the wrappers
in the module namespaces where the callers look them up, so nothing inside
the package changes.  Each wrapped call pushes a frame on a stack; when it
returns, its duration is added to its own busy time and to its parent's
child time, and busy minus child time is its self time.  Generators are
timed around each ``next()``.

Shallow calls are kept as spans (name, start, end, parent span, request).
Calls marked ``span=False`` (per-candidate predicates and the like) and
anything nested deeper than ``MAX_SPAN_DEPTH`` below the root operation
are only aggregated into counts and busy time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

MAX_SPAN_DEPTH = 2
MAX_SPANS = 400_000


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.counts: Dict[str, int] = defaultdict(int)


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "keep_span")

    def __init__(self, name: str, start: float, span_id: int, keep_span: bool) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.keep_span = keep_span


class Tracer:
    """Span stack plus per-name and per-layer aggregates for one run."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = defaultdict(_Stat)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.spans: List[list] = []
        self.dropped_spans = 0
        self._stack: List[_Frame] = []
        self._next_span = 1
        self._request = 0
        self._origin = time.perf_counter()

    @property
    def active(self) -> bool:
        """Whether a benchmark operation is in progress.

        Calls made outside one (set-up, reference answers for the
        correctness gates) go straight through and are not recorded.
        """
        return bool(self._stack)

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str, span: bool) -> _Frame:
        keep = span and len(self._stack) <= MAX_SPAN_DEPTH
        span_id = 0
        if keep:
            span_id = self._next_span
            self._next_span += 1
        frame = _Frame(name, time.perf_counter(), span_id, keep)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"trace stack out of order: {popped.name} != {frame.name}")
        dur = end - frame.start
        stat = self.stats[frame.name]
        stat.busy += dur
        stat.self_time += dur - frame.child
        self.layer_self[frame.name.split(".", 1)[0]] += dur - frame.child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
        if frame.keep_span:
            if len(self.spans) < MAX_SPANS:
                parent_id = 0
                for f in reversed(self._stack):
                    if f.keep_span:
                        parent_id = f.span_id
                        break
                self.spans.append([
                    frame.span_id,
                    parent_id,
                    self._request,
                    frame.name,
                    round(frame.start - self._origin, 7),
                    round(end - self._origin, 7),
                ])
            else:
                self.dropped_spans += 1
        return dur

    @contextmanager
    def request(self, name: str):
        """Root frame of one benchmark operation; its spans share an id."""
        self._request += 1
        self.stats[name].calls += 1
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        span: bool = True,
        on_result: Optional[Callable[[_Stat, Any], None]] = None,
    ) -> Callable:
        """A traced stand-in for a plain function."""
        stat = self.stats[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            stat.calls += 1
            frame = self._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if on_result is not None:
                on_result(stat, result)
            return result

        return traced

    def wrap_gen(self, name: str, fn: Callable, span: bool = True) -> Callable:
        """A traced stand-in for a generator function, timed per next()."""
        stat = self.stats[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            stat.calls += 1
            return self._drive(name, stat, fn(*args, **kwargs), span)

        return traced

    def _drive(self, name: str, stat: _Stat, gen, span: bool):
        try:
            while True:
                frame = self._enter(name, span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                stat.counts["yielded"] += 1
                yield item
        finally:
            gen.close()

    # -- output ------------------------------------------------------------

    def stat(self, name: str) -> _Stat:
        return self.stats[name]

    def dump(self, path, meta: Dict[str, Any]) -> None:
        """Write aggregates and spans as one JSON document."""
        aggregates = {
            name: {
                "calls": st.calls,
                "busy_s": st.busy,
                "self_s": st.self_time,
                **st.counts,
            }
            for name, st in sorted(self.stats.items())
        }
        doc = {
            "meta": meta,
            "aggregates": aggregates,
            "layer_self_s": dict(sorted(self.layer_self.items())),
            "span_fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def count_truthy(stat: _Stat, result: Any) -> None:
    if result:
        stat.counts["true"] += 1


def install(tracer: Tracer, pkg) -> None:
    """Rebind traced wrappers where the package's callers look them up.

    pkg carries the imported modules (chain, fieldcodes, ringcodes,
    lifting, enumeration, oracle, cli).
    """
    chain, fc, rc = pkg.chain, pkg.fieldcodes, pkg.ringcodes
    lifting, en, oracle, cli = pkg.lifting, pkg.enumeration, pkg.oracle, pkg.cli

    sigma = fc.sigma_doubly_even
    sigma_stat = tracer.stat("fieldcodes.sigma_doubly_even")

    def sigma_probe(*args):
        # a hit is a call that moved the lru_cache's own hit counter
        hits = sigma.cache_info().hits
        result = sigma(*args)
        if tracer.active:
            hit = sigma.cache_info().hits > hits
            sigma_stat.counts["cache_hits" if hit else "cache_misses"] += 1
        return result

    en.set_sigma_impl(tracer.wrap("fieldcodes.sigma_doubly_even", sigma_probe, span=False))
    count_so = tracer.wrap("enumeration.count_so_type", en.count_so_type)
    count_sd = tracer.wrap("enumeration.count_sd_type", en.count_sd_type)
    totals = tracer.wrap("enumeration.total_counts", en.total_counts)
    en.count_so_type = cli.count_so_type = count_so
    en.count_sd_type = cli.count_sd_type = count_sd
    en.total_counts = cli.total_counts = totals
    cli.main = tracer.wrap("cli.main", cli.main)
    cli.preset = tracer.wrap("chain.ring_build", chain.preset)
    cli.parse_ring_spec = tracer.wrap("chain.ring_build", chain.parse_ring_spec)

    oracle.brute_force_code_count = tracer.wrap(
        "oracle.brute_force_code_count", oracle.brute_force_code_count
    )
    oracle.is_self_orthogonal_ring = tracer.wrap(
        "ringcodes.is_self_orthogonal_ring.from_oracle",
        rc.is_self_orthogonal_ring,
        span=False,
        on_result=count_truthy,
    )
    oracle.is_self_dual_ring = tracer.wrap(
        "ringcodes.is_self_dual_ring.from_oracle", rc.is_self_dual_ring, span=False
    )
    oracle.code_signature = tracer.wrap(
        "ringcodes.code_signature", rc.code_signature, span=False
    )

    lifting.is_self_orthogonal_ring = tracer.wrap(
        "ringcodes.is_self_orthogonal_ring.from_lifting",
        rc.is_self_orthogonal_ring,
        span=False,
        on_result=count_truthy,
    )
    lifting.satisfies_deep_orthogonality = tracer.wrap(
        "ringcodes.satisfies_deep_orthogonality",
        rc.satisfies_deep_orthogonality,
        span=False,
    )
    # lifting imports enumerate_subspaces lazily from the fieldcodes module,
    # and enumerate_extensions / sigma_doubly_even look it up there too
    fc.enumerate_subspaces = tracer.wrap_gen(
        "fieldcodes.enumerate_subspaces", fc.enumerate_subspaces, span=False
    )

    def chain_verdict(stat: _Stat, problems: Any) -> None:
        stat.counts["rejected" if problems else "yielded"] += 1

    def returned(stat: _Stat, _result: Any) -> None:
        stat.counts["yielded"] += 1

    lifting.enumerate_so_chains = tracer.wrap_gen(
        "lifting.enumerate_so_chains", lifting.enumerate_so_chains
    )
    lifting.validate_chain = tracer.wrap(
        "lifting.validate_chain", lifting.validate_chain, span=False, on_result=chain_verdict
    )
    lifting.base_lift = tracer.wrap_gen("lifting.base_lift", lifting.base_lift)
    lifting.lift_once = tracer.wrap_gen("lifting.lift_once", lifting.lift_once)
    lifting.construct_self_orthogonal = tracer.wrap(
        "lifting.construct_self_orthogonal",
        lifting.construct_self_orthogonal,
        on_result=returned,
    )
