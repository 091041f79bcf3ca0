"""Inverse evaluation for a permutation given only forward evaluations.

A permutation pi over [L] is augmented with back-shortcuts: along every
non-trivial cycle of length >= spacing, every spacing-th element (walking
forward from the cycle's minimum) is marked and stores the element spacing
steps behind it.  Inverting then walks forward from the query, takes at
most one back-jump at the first marked element, and walks on until the
predecessor shows up; the gap structure bounds the forward evaluations by
2 * spacing + 1.  walk() is that one loop, with a block's pi step inlined.

A table holds the back-pointers once, in its jump array: 1 plus the
element's target where it is marked, 0 elsewhere, so a step tests its mark
and finds its back-jump with one array read.  Beside it a table keeps its
L mark bits as one int, so that save need not rebuild them from the jump
array.  The file stores those bits and then the targets in mark order;
save takes the targets from the nonzero jump entries, and load puts
1 + each target at its mark.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress, count

from .bits import split_fields, typecode, width
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
    width, the typecode of its jumps, and walk's step range."""
    return width(length), typecode(length), range(eval_budget(spacing))


def _zeros(code, length):
    """An array of `length` zeros at typecode `code`."""
    return array(code, bytes(array(code).itemsize * length))


class ShortcutTable:
    """Marked positions plus packed back-pointers for one permutation.

    marks holds the L mark bits, bit x for element x: the stored form.
    jumps[x] is 1 + x's target where x is marked and 0 elsewhere, which is
    what walk() reads and the only copy of the targets.
    """

    __slots__ = ("length", "spacing", "marks", "jumps", "_tgt_width", "_steps")

    def __init__(self, pi, length, spacing):
        """Build from an evaluator pi over [length]; build-time calls are free."""
        if spacing < 1:
            raise MalformedInputError(f"spacing must be >= 1, got {spacing}")
        image = list(map(pi, range(length)))
        if sorted(image) != list(range(length)):
            raise MalformedInputError("evaluator is not a bijection on [L]")
        self.length = length
        self.spacing = spacing
        self._tgt_width, code, self._steps = _shape(length, spacing)
        self.jumps = jumps = _zeros(code, length)
        marks = 0
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
                x = cycle[(lead + step) % c]
                jumps[x] = cycle[(lead + step - spacing) % c] + 1
                marks |= 1 << x
        self.marks = marks

    def invert(self, q, pi):
        """Return i with pi(i) == q, using at most eval_budget(spacing) calls."""
        forward = _Forward(pi)
        return self.walk(q, forward, None, 0, range(self.length), forward)

    def walk(self, q, text, session, start, base, hashes):
        """Return x with pi(x) == q, for the block permutation pi whose step is

            c = text.access(session, start + x)
            pi(x) = base[c] + hashes[c].eval(x)

        Walks forward from q, reads each element's jump entry until the one
        back-jump, and stops when q shows up again; at most
        eval_budget(spacing) accesses.
        """
        if not 0 <= q < self.length:
            raise OutOfRangeError(f"value {q} outside [0, {self.length})")
        access = text.access
        jumps = self.jumps
        x = q
        for _ in self._steps:
            if jumps is not None:
                j = jumps[x]
                if j:
                    x = j - 1
                    jumps = None  # one back-jump at most
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
        return self.marks.bit_count() * self._tgt_width

    def bits(self):
        """Stored size: L mark bits and the back-pointers."""
        return self.length + self.target_bits()

    def directory_bits(self):
        """The in-memory jump array, which the file does not store."""
        return 8 * self.jumps.itemsize * len(self.jumps)

    def write(self, bw):
        """Emit the L mark bits, then each target in mark order, as one field."""
        value = self.marks
        pos = self.length
        tw = self._tgt_width
        for j in filter(None, self.jumps):
            value |= (j - 1) << pos
            pos += tw
        bw.write(value, pos)

    @classmethod
    def read(cls, br, length, spacing):
        """One table over [length], as write() emitted it, from br."""
        tab = object.__new__(cls)
        tab.length = length
        tab.spacing = spacing
        tw, code, tab._steps = _shape(length, spacing)
        tab._tgt_width = tw
        tab.marks = marks = br.read(length)
        ones = marks.bit_count()
        targets = split_fields(br.read(ones * tw), ones, tw)
        # Checked first: at L = 255 a target of 255 would not fit its
        # 8-bit jump entry as 1 + target.
        if ones and max(targets) >= length:
            raise CorruptIndexError(f"shortcut target outside [0, {length})")
        tab.jumps = jumps = _zeros(code, length)
        # The mark bits as bytes, lowest first: a NUL where unmarked.
        flags = format(marks, "b").encode()[::-1].replace(b"0", b"\0")
        for x, target in zip(compress(count(), flags), targets):
            jumps[x] = target + 1
        return tab
