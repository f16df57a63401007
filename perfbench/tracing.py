"""Spans, counts and the counting carrier proxy of the traced run.

Spans are recorded from the benchmark's own files around each call into a
layer's public function; nothing inside ``omegalg`` is instrumented.  Each
span's self time is its duration minus the time covered by the spans it
opened.  Spans are aggregated in memory by name as they close.

The untraced run passes :data:`NULL` wherever a tracer is expected, which
calls straight through and hands carriers back unwrapped.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# Carrier operations the proxy counts.
COUNTED_OPS = ("add", "mul", "plus", "star", "omega", "prod", "eq", "nat_act")


class NullTracer:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass

    def wrap(self, carrier, spans=None, counted=True):
        return carrier


NULL = NullTracer()


class Tracer:
    enabled = True

    def __init__(self):
        # open spans as [name, seconds covered by children, carrier ops]
        self._stack = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.span_ops = Counter()  # carrier ops made while a span was innermost
        self.ops = dict.fromkeys(COUNTED_OPS, 0)
        self.counts = Counter()

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        frame = [name, 0.0, 0]
        stack = self._stack
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            took = perf_counter() - start
            stack.pop()
            self.self_s[name] += took - frame[1]
            self.calls[name] += 1
            self.span_ops[name] += frame[2]
            if stack:
                stack[-1][1] += took

    def count(self, name, n=1):
        self.counts[name] += n

    def wrap(self, carrier, spans=None, counted=True):
        """A :class:`CountingProxy` of ``carrier`` reporting to this tracer."""
        return CountingProxy(carrier, self, spans or {}, counted)

    def metric(self, name: str):
        """Value of a per-layer metric, or None if nothing recorded it.

        ``<span>.self_s``, ``<span>.calls`` and ``<span>.carrier_ops`` sum
        over every span named ``<span>`` or ``<span>.<more>``, so
        ``extension.carrier_ops`` covers ``extension.star`` too;
        ``carrier_ops.<op>`` and named counts are read directly.
        """
        if name in self.counts:
            return self.counts[name]
        if name.startswith("carrier_ops."):
            return self.ops.get(name.split(".", 1)[1], 0)
        prefix, _, field = name.rpartition(".")
        tables = {"self_s": self.self_s, "calls": self.calls, "carrier_ops": self.span_ops}
        table = tables.get(field)
        if table is None:
            return None
        hits = [span for span in self.calls if span == prefix or span.startswith(prefix + ".")]
        return sum(table[span] for span in hits) if hits else None


class CountingProxy:
    """A carrier (or valuation weight instance) that counts its operations.

    Every attribute other than the counted operations is read from the
    wrapped object, so ``name``, ``params``, ``monoid``, ``strategy``,
    ``elements()`` and the rest behave exactly as before; the library's
    identity checks still hold because one proxy stands for one carrier
    everywhere it is passed.  Operations listed in ``spans`` also open a
    span of that name; the operation is counted first, against the span
    that made the call.  With ``counted=False`` the proxy only opens spans.
    """

    def __init__(self, base, tracer, spans, counted):
        self._base = base
        for op in COUNTED_OPS:
            fn = getattr(base, op, None)
            if callable(fn) and (counted or op in spans):
                setattr(self, op, _instrumented(tracer, op, fn, spans.get(op), counted))

    def __getattr__(self, item):
        return getattr(self._base, item)


def _instrumented(tracer, op, fn, span, counted):
    ops, stack = tracer.ops, tracer._stack
    if not counted:
        def call(*args):
            return tracer.call(span, fn, *args)
    elif span is None:
        def call(*args):
            ops[op] += 1
            if stack:
                stack[-1][2] += 1
            return fn(*args)
    else:
        def call(*args):
            ops[op] += 1
            if stack:
                stack[-1][2] += 1
            return tracer.call(span, fn, *args)
    return call
