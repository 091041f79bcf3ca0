"""Inverse evaluation for a permutation given only forward evaluations.

A permutation pi over [L] is augmented with back-shortcuts: along every
non-trivial cycle of length >= spacing, every spacing-th element (walking
forward from the cycle's minimum) is marked and stores the element spacing
steps behind it.  Inverting then walks forward from the query, takes at
most one back-jump at the first marked element, and walks on until the
predecessor shows up; the gap structure bounds the forward evaluations by
2 * spacing + 1.  walk() is that one loop, with a block's pi step inlined.

The marks are held as 64-bit words with the count of marks before each word,
so a step tests its mark with one word read and the back-jump ranks it with
one more popcount; the file stores the L mark bits and the targets only.
"""

from __future__ import annotations

import struct
from array import array
from functools import lru_cache
from itertools import accumulate

from .bits import WORD, split_fields, typecode, width
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


@lru_cache(maxsize=32)
def _shape(length, spacing):
    """What every table over [length] at this spacing shares: its target
    width, its mark word count, the typecode of its ranks and walk's step
    range."""
    return (width(length), (length + WORD - 1) // WORD, typecode(length),
            range(eval_budget(spacing)))


class ShortcutTable:
    """Marked positions plus packed back-pointers for one permutation.

    marks[i] holds mark bits 64i to 64i + 63; ranks[i] counts the marks in
    the words before word i, and ranks[-1] counts them all.  targets holds
    the back-pointers in the order of their marks.
    """

    __slots__ = ("length", "spacing", "marks", "ranks", "targets", "_tgt_width",
                 "_steps")

    def __init__(self, pi, length, spacing):
        """Build from an evaluator pi over [length]; build-time calls are free."""
        if spacing < 1:
            raise MalformedInputError(f"spacing must be >= 1, got {spacing}")
        image = list(map(pi, range(length)))
        if sorted(image) != list(range(length)):
            raise MalformedInputError("evaluator is not a bijection on [L]")
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
        self._set_marks(sum(1 << x for x in back), length, spacing)
        self.targets = [back[x] for x in sorted(back)]

    def _set_marks(self, value, length, spacing):
        """Fill every field but targets from the L-bit int of mark bits."""
        self.length = length
        self.spacing = spacing
        self._tgt_width, nwords, code, self._steps = _shape(length, spacing)
        self.marks = split_fields(value, nwords, WORD)
        self.ranks = array(code, accumulate(map(int.bit_count, self.marks), initial=0))

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
        marks = self.marks
        x = q
        for _ in self._steps:
            if marks is not None and (marks[x >> 6] >> (x & 63)) & 1:
                # x's target is at its rank among the marks: those in the
                # words before x's, and those below x in its own word.
                x = self.targets[self.ranks[x >> 6]
                                 + (marks[x >> 6] & ((1 << (x & 63)) - 1)).bit_count()]
                marks = None  # one back-jump at most
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
        """Stored size: L mark bits and the back-pointers."""
        return self.length + self.target_bits()

    def directory_bits(self):
        """In-memory mark counts per word, which the file does not store."""
        return 8 * self.ranks.itemsize * len(self.ranks)

    def write(self, bw):
        """Emit the L mark bits, then each target, as one field."""
        value = int.from_bytes(struct.pack(f"<{len(self.marks)}Q", *self.marks), "little")
        pos = self.length
        for t in self.targets:
            value |= t << pos
            pos += self._tgt_width
        bw.write(value, pos)

    @classmethod
    def read(cls, br, length, spacing):
        tab = object.__new__(cls)
        tab._set_marks(br.read(length), length, spacing)
        ones = tab.ranks[-1]
        tw = tab._tgt_width
        tab.targets = split_fields(br.read(ones * tw), ones, tw)
        if ones and max(tab.targets) >= length:
            raise CorruptIndexError(f"shortcut target outside [0, {length})")
        return tab
