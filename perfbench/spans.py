"""In-memory span recorder for the traced benchmark run.

The benchmark never edits the program: it wraps the public functions of each
layer from its own code (:meth:`Tracer.install`), records one span per call
(name, start, end, parent, attributes) in memory, and derives per-layer
numbers from the spans once the run is over.

Campaign pool workers are forked from the benchmark process, so they inherit
the wrapped functions and a copy of the tracer.  The first span a forked
worker records resets that copy and registers a ``multiprocessing`` finalizer
that writes the worker's spans to ``worker_dir`` once, when the pool shuts the
worker down.
"""

from __future__ import annotations

import functools
import json
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable

# A span is [name, start, end, parent_index, attrs]; parent -1 is a root.
Span = list


class Tracer:
    """Records spans around wrapped calls; restores every wrapper on removal."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: Directory forked workers write their spans to (``None``: discard).
        self.worker_dir: Path | None = None

    # ------------------------------------------------------------------ #
    def _adopt_process(self) -> None:
        """Start afresh in a forked worker and arrange to write out at exit."""
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        if self.worker_dir is not None:
            mp_util.Finalize(
                None, self._write_worker_spans, args=(self.worker_dir,), exitpriority=100
            )

    def _write_worker_spans(self, directory: Path) -> None:
        path = Path(directory) / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, attrs) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        if os.getpid() != self.pid:
            self._adopt_process()
        parent = self._stack[-1] if self._stack else -1
        span: Span = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[4] = attrs(args, result)
        return result

    # ------------------------------------------------------------------ #
    def install(self, owner: Any, attribute: str, name: str, attrs=None) -> None:
        """Replace ``owner.attribute`` by a wrapper recording span ``name``.

        ``attrs(args, result)`` optionally returns a JSON-able summary of the
        call stored on the span; it only reads the arguments and the result.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, attrs)

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def remove(self) -> None:
        """Put every wrapped function back (last installed first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def read_worker_spans(directory: Path) -> list[list[Span]]:
    """Span lists written by forked workers into ``directory``."""
    return [json.loads(path.read_text()) for path in sorted(Path(directory).glob("worker-*.json"))]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after the other in the same process, so the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]
