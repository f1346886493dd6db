"""In-memory spans recorded around calls into the ``cpdp_ifs`` modules.

A span has a name, a start, an end and the span that caused it. Spans stay
in memory and are written out once, when the traced command ends. The
layer of a span is its name up to the first dot.

Only the standard library is imported here, so that loading this module
before ``cpdp_ifs.cli`` does not shift the measured import time.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Spans the tracer spends on its own accounting (digests of matrices). They
# are children of the span they sit in, so that span's self time excludes
# them, and they belong to no layer of the program.
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of one process.

    The parent of a span is the innermost open span on the same thread. A
    thread with no open span (a pool worker) takes the span that submitted
    the work, set with ``span(..., adopt_threads=True)``; a thread-local
    stack alone would leave pair spans without a parent and book the whole
    pool as self time of the experiment.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_parent: int | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, adopt_threads: bool = False):
        stack = self._stack()
        parent = stack[-1].id if stack else self._thread_parent
        with self._lock:
            record = Span(next(self._ids), parent, name, 0.0, thread=threading.get_ident())
            self.spans.append(record)
        stack.append(record)
        if adopt_threads:
            self._thread_parent = record.id
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if adopt_threads:
                self._thread_parent = parent

    def wrap(self, owner: object, attr: str, name: str, after=None, adopt_threads: bool = False):
        """Replace ``owner.attr`` with a timed wrapper.

        ``after(span, args, result)`` runs once the call returned, inside a
        bookkeeping span. Raises ``AttributeError`` when the boundary is gone.
        """
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrapped(original, name, after, adopt_threads))

    def wrapped(self, original, name: str, after=None, adopt_threads: bool = False):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, adopt_threads) as record:
                result = original(*args, **kwargs)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(record, args, result)
            return result

        return wrapper


def array_key(array) -> str:
    """Content key of a NumPy array: shape, dtype and a hash of its bytes."""
    digest = hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()
    return f"{array.shape}|{array.dtype.str}|{digest}"


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its direct children cover.

    Children from several threads overlap; the union is subtracted, not the
    sum, so self time never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered((span.start, span.end), children.get(span.id, []))
        for span in spans
    }


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile, at least the median, with >= 10 samples beyond it.

    Uses nearest-rank percentiles: the p-th is the sample at rank
    ceil(p * n / 100), so n - that rank samples lie beyond it. ``None`` when
    fewer than 20 samples leave no such percentile.
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th nearest-rank percentile of ascending, non-empty values."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[rank - 1]
