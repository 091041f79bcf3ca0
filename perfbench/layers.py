"""Per-layer tracing by wrapping the public functions of each strindex module.

The wrappers live here, in the benchmark, and are installed only for the
traced run; the library itself carries no tracing code.  Each wrapped call
adds its self time (wall time minus the wall time of wrapped calls made
inside it) and one call to the counter of the current phase.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

#: (module, class or None, attribute) of every traced function.  The metric
#: name of each is "<module>.<Class>.<attribute>" or "<module>.<attribute>".
TRACED = (
    ("text", None, "load"),
    ("text", "ProbedText", "access"),
    ("text", "ProbedText", "fingerprint"),
    ("bits", "RsBitvector", "select0"),
    ("bits", "RsBitvector", "select1"),
    ("bits", "RsBitvector", "rank1"),
    ("bits", "RsBitvector", "get"),
    ("bits", "BitBuilder", "build"),
    ("bits", "BitReader", "read"),
    ("bits", "BitReader", "read_bv"),
    ("bits", "BitWriter", "write"),
    ("bits", "BitWriter", "write_bv"),
    ("mmphf", "MonotoneHash", "__init__"),
    ("mmphf", "MonotoneHash", "eval"),
    ("mmphf", "MonotoneHash", "read"),
    ("perm", "ShortcutTable", "__init__"),
    ("perm", "ShortcutTable", "invert"),
    ("perm", "ShortcutTable", "read"),
    ("pred", "PredIndex", "__init__"),
    ("pred", "PredIndex", "rank"),
    ("pred", "PredIndex", "read"),
    ("pred", "BlindTrie", "predecessor"),
    ("index", "StringIndex", "build"),
    ("index", "StringIndex", "from_bytes"),
    ("index", "StringIndex", "to_bytes"),
    ("index", "StringIndex", "select"),
    ("index", "StringIndex", "rank"),
)


class Tracer:
    """Call counts and self time per (phase, function), while installed."""

    def __init__(self):
        self.phase = None
        self.stats = {}  # (phase, name) -> [calls, self_ns]
        self._stack = []  # wall ns of wrapped children, one slot per open call
        self._saved = []

    def __enter__(self):
        for module, cls, attr in TRACED:
            mod = importlib.import_module(f"strindex.{module}")
            owner = getattr(mod, cls) if cls else mod
            name = ".".join(p for p in (module, cls, attr) if p)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_descriptor(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def calls(self, phase, name):
        return self.stats.get((phase, name), (0, 0))[0]

    def self_ns(self, phase, name):
        return self.stats.get((phase, name), (0, 0))[1]

    def _wrap_descriptor(self, original, name):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, name))
        if isinstance(original, property):
            return property(self._wrap(original.fget, name))
        return self._wrap(original, name)

    def _wrap(self, fn, name):
        stack = self._stack
        stats = self.stats
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = clock() - start
                children = stack.pop()
                key = (self.phase, name)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0]
                rec[0] += 1
                rec[1] += wall - children
                if stack:
                    stack[-1] += wall

        return traced
