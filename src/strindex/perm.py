"""Inverse evaluation for a permutation given only forward evaluations.

A permutation pi over [L] is augmented with back-shortcuts: along every
non-trivial cycle of length >= spacing, every spacing-th element (walking
forward from the cycle's minimum) is marked and stores the element spacing
steps behind it.  Inverting then walks forward from the query, takes at
most one back-jump at the first marked element, and walks on until the
predecessor shows up; the gap structure bounds the forward evaluations by
2 * spacing + 1.  walk() is that one loop, with a block's pi step inlined.

In memory a table also holds its jump array, one entry per element: 1 plus
the element's target where it is marked, 0 elsewhere.  So a step tests its
mark and finds its back-jump with one array read.  The file stores the L
mark bits and the targets only; load fills the targets and jump arrays of
a run of tables at once, each table slicing its own from the run's.
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import lru_cache
from itertools import compress

from .bits import WORD, split_fields, typecode, widen_fields, width
from .errors import (
    CorruptIndexError,
    MalformedInputError,
    OutOfRangeError,
    ProbeBudgetError,
)

#: Maps the character "0" to the byte 0: see _spread.
_TEMPLATE = bytes.maketrans(b"0", b"\0")


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
    width, its mark word count, the typecode of its targets and jumps, and
    walk's step range."""
    return (width(length), (length + WORD - 1) // WORD, typecode(length),
            range(eval_budget(spacing)))


def _zeros(code, length):
    """An array of `length` zeros at typecode `code`."""
    return array(code, bytes(array(code).itemsize * length))


def _items(code, value, count):
    """The array of `count` items at typecode `code` whose little-endian
    bytes are those of the int `value`."""
    items = array(code, value.to_bytes(count * array(code).itemsize, "little"))
    if sys.byteorder == "big":
        items.byteswap()
    return items


def _spread(bits, items):
    """The array of items' typecode with one item per character of the
    "0"/"1" string `bits`: items[i] at the i-th "1", 0 at every "0".

    It is made in C by %-formatting one bytes template, a NUL for each "0"
    and %c for each "1", once per byte of an item: pass k fills byte k of
    every item, so one template serves every item width.
    """
    raw = items.tobytes()
    size = items.itemsize
    template = bits.encode().translate(_TEMPLATE).replace(b"1", b"%c")
    out = bytearray(len(bits) * size)
    for k in range(size):
        out[k::size] = template % tuple(raw[k::size])
    return array(items.typecode, out)


class ShortcutTable:
    """Marked positions plus packed back-pointers for one permutation.

    marks[i] holds mark bits 64i to 64i + 63, and targets the back-pointers
    in the order of their marks: the stored form.  jumps[x] is 1 + x's
    target where x is marked and 0 elsewhere, which is what walk() reads.
    """

    __slots__ = ("length", "spacing", "marks", "targets", "jumps", "_tgt_width",
                 "_steps")

    def __init__(self, pi, length, spacing):
        """Build from an evaluator pi over [length]; build-time calls are free."""
        if spacing < 1:
            raise MalformedInputError(f"spacing must be >= 1, got {spacing}")
        image = list(map(pi, range(length)))
        if sorted(image) != list(range(length)):
            raise MalformedInputError("evaluator is not a bijection on [L]")
        self.length = length
        self.spacing = spacing
        self._tgt_width, nwords, code, self._steps = _shape(length, spacing)
        self.jumps = jumps = _zeros(code, length)
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
                jumps[cycle[(lead + step) % c]] = cycle[(lead + step - spacing) % c] + 1
        marked = list(compress(range(length), jumps))
        self.marks = split_fields(sum(1 << x for x in marked), nwords, WORD)
        self.targets = array(code, [jumps[x] - 1 for x in marked])

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
        return len(self.targets) * self._tgt_width

    def bits(self):
        """Stored size: L mark bits and the back-pointers."""
        return self.length + self.target_bits()

    def directory_bits(self):
        """The in-memory jump array, which the file does not store."""
        return 8 * self.jumps.itemsize * len(self.jumps)

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
        """One table over [length], as write() emitted it, from br."""
        return cls.read_blocks(br, [length], spacing)[0]

    @classmethod
    def read_blocks(cls, br, lengths, spacing):
        """The tables over [L] for each L of `lengths`, as their write()
        calls emitted them one after another, from br.

        Each table's fields are read in turn, and each run of tables that
        spans _RUN positions gets its targets and jumps at once (_fill_run),
        which keeps the strings and arrays a load makes on the way to a few
        tens of KB each.
        """
        top = max(lengths, default=0)
        tables = []
        run = []  # (table, mark bits, target bits) of the current run
        size = 0  # positions in the current run
        for length in lengths:
            tw, nwords, _, steps = _shape(length, spacing)
            marks = br.read(length)
            tab = object.__new__(cls)
            tab.length = length
            tab.spacing = spacing
            tab._tgt_width = tw
            tab._steps = steps
            tab.marks = split_fields(marks, nwords, WORD)
            run.append((tab, marks, br.read(marks.bit_count() * tw)))
            tables.append(tab)
            size += length
            if size >= _RUN:
                _fill_run(run, top)
                run = []
                size = 0
        _fill_run(run, top)
        return tables


#: Positions per run of tables that read_blocks fills at once.
_RUN = 8192


def _bits(value, length):
    """The `length`-bit binary string of value, highest bit first."""
    return format(value | 1 << length, "b")[1:]


def _fill_run(run, top):
    """Give each table of run, a list of (table, mark bits, target bits)
    read from consecutive tables over [L] with L <= top, its targets and
    jumps, at typecode(L).

    The run's targets, each widened to top's target width, go into one int
    with the first target lowest, and widen_fields moves each to an item of
    its own.  The run's marks, as one string highest bit first, place 1 +
    each target at its mark with _spread; each table slices both arrays.
    """
    code = typecode(top)
    lane = 8 * array(code).itemsize
    tw_top = width(top)
    counts = [marks.bit_count() for _, marks, _ in run]
    fields = []  # each table's targets, last table first, highest bit first
    for (tab, _, targets), ones in zip(reversed(run), reversed(counts)):
        tw = tab._tgt_width
        field = _bits(targets, ones * tw)
        if tw != tw_top:  # the narrower targets of a shorter block
            field = "".join(field[i:i + tw].rjust(tw_top, "0")
                            for i in range(0, len(field), tw))
        fields.append(field)
    total = sum(counts)
    value = widen_fields(int("".join(fields) or "0", 2), total, tw_top, lane)
    every = _items(code, value, total)
    if total and max(every) >= top:
        raise CorruptIndexError(f"shortcut target outside [0, {top})")
    # 1 + each target, added lane by lane: no target reaches 2^lane - 1.
    # The marks run from the last one to the first, and so do the values.
    plus_one = int.from_bytes((1).to_bytes(lane // 8, "little") * total, "little")
    marks = "".join([_bits(marks, tab.length) for tab, marks, _ in reversed(run)])
    jumps = _items(code, value + plus_one, total)
    jumps.reverse()
    jumps = _spread(marks, jumps)
    jumps.reverse()
    first = start = 0
    for (tab, _, _), ones in zip(run, counts):
        length = tab.length
        tab.targets = every[first:first + ones]
        tab.jumps = jumps[start:start + length]
        if length != top:  # a shorter block, maybe with narrower items
            if ones and max(tab.targets) >= length:
                raise CorruptIndexError(f"shortcut target outside [0, {length})")
            narrow = typecode(length)
            if narrow != code:
                tab.targets = array(narrow, tab.targets)
                tab.jumps = array(narrow, tab.jumps)
        first += ones
        start += length
