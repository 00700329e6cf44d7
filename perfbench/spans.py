"""In-memory spans for the traced run, the wrappers that record them, and
self-time arithmetic.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began (-1 for a root), the item it
belongs to, and an optional weight (bytes a kernel call touches). Spans
are appended in begin order, so a parent always precedes its children.
"""

import functools
import gzip
import importlib
import json
import time

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "weight")

    def __init__(self, name, start, end, parent, item, weight=0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.item = item
        self.weight = weight

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    def as_dict(self):
        return {s: getattr(self, s) for s in self.__slots__}


class Recorder:
    """Collects spans from one thread; ``item`` tags every span begun
    while it is set."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._open = []

    def begin(self, name, weight=0.0):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, _clock(), None, parent, self.item, weight))
        self._open.append(index)
        return index

    def end(self, index):
        self.spans[index].end = _clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def wrap(self, fn, name, weigh=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, weigh(*args) if weigh is not None else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def write_jsonl(self, path):
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def install(recorder, targets):
    """Wrap each ``(module, attribute, span name, weigh)`` target in place.

    Returns ``(restore, absent)``: calling ``restore()`` puts the original
    functions back, and ``absent`` is the sorted list of span names none of
    whose targets exist at this commit. Those layers are reported as absent
    instead of failing the run.
    """
    # Import every module before wrapping anything: a module imported later
    # would bind an already wrapped function under its own name.
    modules = {}
    for module_name, _, _, _ in targets:
        try:
            modules[module_name] = importlib.import_module(module_name)
        except ImportError:
            pass
    originals = []
    found = set()
    wanted = set()
    for module_name, attr, name, weigh in targets:
        wanted.add(name)
        module = modules.get(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            continue
        originals.append((module, attr, fn))
        setattr(module, attr, recorder.wrap(fn, name, weigh))
        found.add(name)

    def restore():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return restore, sorted(wanted - found)


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    direct children cover (overlapping children counted once)."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda c: spans[c].start):
            lo = max(spans[child].start, reach)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def has_ancestor(spans, name):
    """Per span, whether some enclosing span (not itself) is called ``name``."""
    flags = []
    for span in spans:
        p = span.parent
        flags.append(p >= 0 and (spans[p].name == name or flags[p]))
    return flags
