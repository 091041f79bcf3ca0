"""Inverse evaluation for a permutation given only forward evaluations.

A permutation pi over [L] is augmented with back-shortcuts: along every
non-trivial cycle of length >= spacing, every spacing-th element (walking
forward from the cycle's minimum) is marked and stores the element spacing
steps behind it.  Inverting then walks forward from the query, takes at
most one back-jump at the first marked element, and walks on until the
predecessor shows up; the gap structure bounds the forward evaluations by
2 * spacing + 1.  walk() is that one loop, with a block's pi step inlined.
"""

from __future__ import annotations

from .bits import RsBitvector, split_fields, width
from .errors import (
    CorruptIndexError,
    MalformedInputError,
    OutOfRangeError,
    ProbeBudgetError,
)


class _Forward:
    """A plain evaluator pi seen as walk()'s text and hashes: the step
    reads pi(x) as the symbol, base is the identity and every offset 0."""

    __slots__ = ("access",)

    def __init__(self, pi):
        self.access = lambda session, x: pi(x)

    def __getitem__(self, c):
        return self

    def eval(self, x):
        return 0


def eval_budget(spacing):
    """Hard bound on forward evaluations per inversion."""
    return 2 * spacing + 1


class ShortcutTable:
    """Marked-position bitvector plus packed back-pointers for one permutation."""

    __slots__ = ("length", "spacing", "marked", "targets", "_tgt_width")

    def __init__(self, pi, length, spacing):
        """Build from an evaluator pi over [length]; build-time calls are free."""
        if spacing < 1:
            raise MalformedInputError(f"spacing must be >= 1, got {spacing}")
        image = list(map(pi, range(length)))
        if sorted(image) != list(range(length)):
            raise MalformedInputError("evaluator is not a bijection on [L]")
        self.length = length
        self.spacing = spacing
        self._tgt_width = width(length)
        back = {}
        visited = bytearray(length)
        for start in range(length):
            if visited[start]:
                continue
            cycle = [start]
            visited[start] = 1
            x = image[start]
            while x != start:
                visited[x] = 1
                cycle.append(x)
                x = image[x]
            c = len(cycle)
            # Fixed points resolve in one evaluation; cycles shorter than the
            # spacing resolve within it.  Neither needs shortcuts.
            if c < spacing or c == 1:
                continue
            lead = cycle.index(min(cycle))
            for step in range(0, c, spacing):
                elem = cycle[(lead + step) % c]
                back[elem] = cycle[(lead + step - spacing) % c]
        self.marked = RsBitvector.from_int(sum(1 << x for x in back), length)
        self.targets = [back[x] for x in sorted(back)]

    def invert(self, q, pi):
        """Return i with pi(i) == q, using at most eval_budget(spacing) calls."""
        forward = _Forward(pi)
        return self.walk(q, forward, None, 0, range(self.length), forward)

    def walk(self, q, text, session, start, base, hashes):
        """Return x with pi(x) == q, for the block permutation pi whose step is

            c = text.access(session, start + x)
            pi(x) = base[c] + hashes[c].eval(x)

        Walks forward from q, tests each element's mark until the one
        back-jump, and stops when q shows up again; at most
        eval_budget(spacing) accesses.
        """
        if not 0 <= q < self.length:
            raise OutOfRangeError(f"value {q} outside [0, {self.length})")
        access = text.access
        words = self.marked._words
        x = q
        for _ in range(eval_budget(self.spacing)):
            if words is not None and (words[x >> 6] >> (x & 63)) & 1:
                x = self.targets[self.marked.rank1(x)]
                words = None  # one back-jump at most
            c = access(session, start + x)
            y = base[c] + hashes[c].eval(x)
            if y == q:
                return x
            x = y
        raise ProbeBudgetError(
            f"inversion exceeded {eval_budget(self.spacing)} evaluations "
            f"(spacing={self.spacing})"
        )

    # -- size accounting and serialization ----------------------------------

    def target_bits(self):
        """Back-pointer array only: count of marks times ceil(log2 L)."""
        return len(self.targets) * self._tgt_width

    def bits(self):
        return self.marked.nbits + self.target_bits()

    def write(self, bw):
        bw.write_bv(self.marked)
        for t in self.targets:
            bw.write(t, self._tgt_width)

    @classmethod
    def read(cls, br, length, spacing):
        tab = object.__new__(cls)
        tab.length = length
        tab.spacing = spacing
        tab._tgt_width = tw = width(length)
        tab.marked = br.read_bv(length)
        ones = tab.marked.ones
        tab.targets = split_fields(br.read(ones * tw), ones, tw)
        if ones and max(tab.targets) >= length:
            raise CorruptIndexError(f"shortcut target outside [0, {length})")
        return tab
