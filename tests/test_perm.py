import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strindex import (
    CorruptIndexError,
    MalformedInputError,
    OutOfRangeError,
    ProbeBudgetError,
    ShortcutTable,
)
from strindex.bits import BitReader, BitWriter, typecode, width
from strindex.perm import eval_budget, stored_bits


class CountingPi:
    def __init__(self, image):
        self.image = image
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.image[x]


def ones(tab):
    """Marks of a table, counted in its jump array."""
    return sum(map(bool, tab.jumps))


def elias_fano(m, length):
    """(l, upper) of format v4's Elias-Fano list of m positions in
    [0, length): l low bits per position, and an upper part of m ones among
    m + ((length - 1) >> l) bits."""
    if not m:
        return 0, 0
    low = (length // m).bit_length() - 1
    return low, m + ((length - 1) >> low)


def sparse(length, spacing):
    """Whether format v4 stores a table's marks as a count and an
    Elias-Fano list: where ceil(L / spacing) marks would be smaller so than
    as L plain bits."""
    m = -(-length // spacing)
    low, upper = elias_fano(m, length)
    return width(length + 1) + upper + m * low < length


def mark_bits(length, spacing, m):
    """The bits that a format v4 table's m marks take, count included."""
    if not sparse(length, spacing):
        return length
    low, upper = elias_fano(m, length)
    return width(length + 1) + upper + m * low


def parse_table(bits, length, spacing):
    """(marks, ranks, nbits) of the format v4 table that opens the bit
    string `bits`: its marked positions, lowest first, each mark's target
    rank, in mark order, and the table's size."""
    def field(pos, w):
        return int(bits[pos:pos + w][::-1] or "0", 2)

    if sparse(length, spacing):
        m = field(0, width(length + 1))
        low, upper = elias_fano(m, length)
        pos = width(length + 1) + upper
        ups = [i for i, bit in enumerate(bits[width(length + 1):pos]) if bit == "1"]
        marks = [(p - i) << low | field(pos + i * low, low) for i, p in enumerate(ups)]
        pos += m * low
    else:
        marks = [x for x in range(length) if bits[x] == "1"]
        m, pos = len(marks), length
    ranks = [field(pos + i * width(m), width(m)) for i in range(m)]
    return marks, ranks, pos + m * width(m)


def written(tab):
    """The bytes of a table's payload written alone, as a section holds it."""
    bw = BitWriter()
    bw.write(tab.payload, tab.nbits)
    assert bw.bit_length == tab.nbits
    return bw


def invert_all(image, spacing):
    tab = ShortcutTable(image.__getitem__, len(image), spacing)
    for q in range(len(image)):
        pi = CountingPi(image)
        got = tab.invert(q, pi)
        assert image[got] == q, (image, spacing, q, got)
        assert pi.calls <= eval_budget(spacing), (image, spacing, q, pi.calls)
    return tab


def test_two_cycle_marked_once():
    tab = ShortcutTable([1, 0, 2].__getitem__, 3, 2)
    assert ones(tab) == 1  # transposition marked once, fixed point never
    invert_all([1, 0, 2], 2)


def test_identity_has_no_marks():
    for spacing in (1, 2, 5):
        tab = ShortcutTable(list(range(6)).__getitem__, 6, spacing)
        assert ones(tab) == 0
        assert tab.payload == 0
        assert tab.nbits == 6  # mark bits only
        invert_all(list(range(6)), spacing)


def test_three_cycle_mark_spacing():
    tab = ShortcutTable([2, 0, 1].__getitem__, 3, 2)
    assert ones(tab) == 2  # ceil(3/2) marks along the single cycle
    invert_all([2, 0, 1], 2)


def test_hand_inversions():
    # stable-sort permutation of the block [1, 0, 0]: pi = [2, 0, 1]
    tab = ShortcutTable([2, 0, 1].__getitem__, 3, 1)
    assert tab.invert(1, CountingPi([2, 0, 1])) == 2
    tab = ShortcutTable(list(range(6)).__getitem__, 6, 2)
    assert tab.invert(5, CountingPi(list(range(6)))) == 5
    tab = ShortcutTable([1, 0, 2].__getitem__, 3, 2)
    assert tab.invert(0, CountingPi([1, 0, 2])) == 1


def test_exhaustive_small_permutations():
    for length in range(1, 8):
        for spacing in (1, 2, 3):
            for image in permutations(range(length)):
                invert_all(list(image), spacing)


def test_randomized_large_permutations():
    rng = random.Random(9)
    for spacing in (1, 2, 4, 16):
        image = list(range(512))
        rng.shuffle(image)
        tab = ShortcutTable(image.__getitem__, 512, spacing)
        for q in rng.sample(range(512), 60):
            pi = CountingPi(image)
            assert image[tab.invert(q, pi)] == q
            assert pi.calls <= eval_budget(spacing)


def test_target_bits_are_exact():
    rng = random.Random(10)
    image = list(range(300))
    rng.shuffle(image)
    for spacing in (1, 2, 5, 16):
        tab = ShortcutTable(image.__getitem__, 300, spacing)
        m = ones(tab)
        lead = mark_bits(300, spacing, m)
        assert (lead < 300) == (spacing >= 5)  # Elias-Fano from spacing 5 on
        assert tab.nbits == lead + m * width(m)
        assert stored_bits(tab.payload, 300, spacing) == (tab.nbits, m * width(m))
        assert tab.payload.bit_length() <= tab.nbits


def test_target_bits_halve_per_spacing_doubling():
    rng = random.Random(12)
    image = list(range(4096))
    rng.shuffle(image)
    bits = {}
    for spacing in (1, 2, 4, 8):
        tab = ShortcutTable(image.__getitem__, 4096, spacing)
        bits[spacing] = tab.nbits - mark_bits(4096, spacing, ones(tab))  # stored
        assert bits[spacing] == stored_bits(tab.payload, 4096, spacing)[1]
    for spacing in (1, 2, 4):
        ratio = bits[2 * spacing] / bits[spacing]
        assert 0.4 <= ratio <= 0.6, (spacing, ratio)


def test_empty_permutation():
    tab = ShortcutTable(lambda x: x, 0, 3)
    assert tab.nbits == 0
    assert tab.payload == 0


def test_rejects_non_bijection():
    with pytest.raises(MalformedInputError):
        ShortcutTable([0, 0, 1].__getitem__, 3, 1)
    with pytest.raises(MalformedInputError):
        ShortcutTable([5, 0, 1].__getitem__, 3, 1)
    with pytest.raises(MalformedInputError):
        ShortcutTable([0, 1].__getitem__, 2, 0)


# Payloads as the shortcut writer of format v4 emits them: the marks, as the
# L mark bits or (the last) as a count and an Elias-Fano list, then each
# target's rank among the m marks in mark order, in width(m) bits each.  A
# cycle's first mark targets its last mark.  The first four were worked by
# hand: in "cycles", marks 0, 1, 4, 5, 8 target 5, 4, 1, 0, 8, ranks 3, 2,
# 1, 0, 4 in 3 bits each.
_RECORDED = [
    ([1, 0, 2], 2, 4, "1"),
    ([2, 0, 1], 2, 5, "b"),
    ([(x + 1) % 10 for x in range(10)], 3, 18, "24e49"),  # 4 marks by 3
    ([3, 7, 0, 5, 1, 2, 6, 4, 9, 8, 10, 11], 2, 27, "4053133"),
    (list(range(6)), 2, 6, "0"),
    ([(x + 1) % 255 for x in range(255)], 16, 167,  # 16 marks by 16
     "76e5d4c3b2a1908780000000000024924924924910"),
]


@pytest.mark.parametrize("image, spacing, nbits, payload", _RECORDED,
                         ids=["pair", "three-cycle", "rotation", "cycles",
                              "identity", "rotation-255"])
def test_encode_is_the_recorded_payload(image, spacing, nbits, payload):
    payload = int(payload, 16)
    length = len(image)
    assert ShortcutTable.encode(image, spacing) == payload
    tab = ShortcutTable(image.__getitem__, length, spacing)
    assert (tab.payload, tab.nbits) == (payload, nbits)
    data = payload.to_bytes((nbits + 7) // 8, "little")
    br = BitReader(data)
    back = ShortcutTable.read(br, length, spacing)
    assert br.bits_consumed == nbits
    assert (back.payload, back.nbits) == (payload, nbits)
    assert back.jumps == tab.jumps
    if length == 255:  # marks 0, 16, ..., 240, each targeting the one before
        marks, ranks, got = parse_table(bits_of(data), length, spacing)
        assert sparse(length, spacing) and got == nbits
        assert (marks, ranks) == (list(range(0, 255, 16)), [15, *range(15)])


@pytest.mark.parametrize("image", [[0, 0, 1], [5, 0, 1], [-1, 0], [1, 1], [0.5, 0]])
def test_encode_rejects_what_the_constructor_rejects(image):
    with pytest.raises(MalformedInputError):
        ShortcutTable.encode(image, 1)
    with pytest.raises(MalformedInputError):
        ShortcutTable(image.__getitem__, len(image), 1)


def test_serialization_round_trip():
    rng = random.Random(13)
    image = list(range(100))
    rng.shuffle(image)
    tab = ShortcutTable(image.__getitem__, 100, 3)
    bw = written(tab)
    back = ShortcutTable.read(BitReader(bw.getvalue()), 100, 3)
    assert (back.payload, back.nbits) == (tab.payload, tab.nbits)
    assert written(back).getvalue() == bw.getvalue()
    for q in range(100):
        assert image[back.invert(q, CountingPi(image))] == q


def test_invert_with_a_foreign_permutation_exceeds_the_budget():
    # The table shortcuts the rotation x -> x + 1; walking x -> x - 1 instead,
    # every query meets a mark, jumps to the wrong side of q and then needs
    # about L - spacing evaluations to come back, far past the budget.
    length, spacing = 50, 2
    tab = ShortcutTable(lambda x: (x + 1) % length, length, spacing)
    assert ones(tab) == length // spacing
    for q in range(length):
        pi = CountingPi([(x - 1) % length for x in range(length)])
        with pytest.raises(ProbeBudgetError, match="inversion exceeded"):
            tab.invert(q, pi)
        assert pi.calls == eval_budget(spacing)


@pytest.mark.parametrize("value, error", [
    (100, OutOfRangeError), (10, OutOfRangeError), (-1, OutOfRangeError),
    (1.5, MalformedInputError), (2.0, MalformedInputError), (None, MalformedInputError),
])
def test_invert_rejects_a_pi_value_outside_the_table(value, error):
    tab = ShortcutTable([1, 2, 3, 4, 5, 6, 7, 8, 9, 0].__getitem__, 10, 2)
    pi = CountingPi([value] * 10)
    with pytest.raises(error, match=r"pi\(\d+\) = "):
        tab.invert(3, pi)
    assert pi.calls == 1


def bits_of(data):
    """The bits of `data`, bit 0 of byte 0 first."""
    return "".join(f"{byte:08b}"[::-1] for byte in data)


# At every length tested here from 63 on, the marks switch to an
# Elias-Fano list between spacings 4 and 5.
_SPACINGS = st.sampled_from([*range(1, 9), 16])


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([0, 1, 63, 64, 65, 128, 129, 300, 1000]), _SPACINGS,
       st.randoms(use_true_random=False))
def test_write_read_round_trip_keeps_marks_and_word_counts(length, spacing, rng):
    image = list(range(length))
    rng.shuffle(image)
    tab = ShortcutTable(image.__getitem__, length, spacing)
    bw = written(tab)
    back = ShortcutTable.read(BitReader(bw.getvalue()), length, spacing)
    marks, _, nbits = parse_table(bits_of(bw.getvalue()), length, spacing)
    assert nbits == tab.nbits == back.nbits
    assert sparse(length, spacing) == (spacing >= 5 and length >= 63)
    for table in (tab, back):
        assert len(table.jumps) == length
        for i in range((length + 63) // 64):  # the marks before each 64-bit word
            assert sum(map(bool, table.jumps[:64 * i])) == sum(x < 64 * i for x in marks)
        assert [x for x, j in enumerate(table.jumps) if j] == marks
    assert back.jumps == tab.jumps
    for q in range(length):
        pi = CountingPi(image)
        assert image[back.invert(q, pi)] == q
        assert pi.calls <= eval_budget(spacing)


def permutation_with_cycle(length, spacing, rng):
    """A random permutation of [length] that holds a cycle of exactly
    `spacing` elements when length >= spacing; that cycle's one mark
    targets itself."""
    items = list(range(length))
    rng.shuffle(items)
    cycle, rest = items[:spacing], items[spacing:]
    image = [0] * length
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        image[x] = y
    for x, y in zip(rest, rng.sample(rest, len(rest))):
        image[x] = y
    return image


def assert_jumps_follow_the_stored_bits(table, data, image):
    """jumps[x] is 1 + x's target for each x marked in the stored bits, that
    target being the mark of the stored rank, and 0 everywhere else; and each
    mark's target is the mark met first walking its cycle backwards."""
    length = table.length
    marks, ranks, nbits = parse_table(bits_of(data), length, table.spacing)
    assert nbits == table.nbits
    assert len(set(marks)) == len(marks) and all(0 <= x < length for x in marks)
    want = [0] * length
    for x, r in zip(marks, ranks):
        want[x] = marks[r] + 1
    assert list(table.jumps) == want
    assert table.jumps.typecode == typecode(length)
    before = {y: x for x, y in enumerate(image)}
    for x in marks:
        y = before[x]
        while not want[y]:
            y = before[y]
        assert want[x] == y + 1


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([0, 1, 63, 64, 65, 300]), _SPACINGS,
       st.randoms(use_true_random=False))
def test_jumps_hold_one_plus_each_marks_target(length, spacing, rng):
    image = permutation_with_cycle(length, spacing, rng)
    tab = ShortcutTable(image.__getitem__, length, spacing)
    data = written(tab).getvalue()
    back = ShortcutTable.read(BitReader(data), length, spacing)
    for table in (tab, back):
        assert_jumps_follow_the_stored_bits(table, data, image)
    assert back.jumps == tab.jumps
    assert (back.payload, back.nbits) == (tab.payload, tab.nbits)
    if 2 <= spacing <= length:  # the spacing-long cycle's mark jumps to itself
        assert any(j == x + 1 for x, j in enumerate(tab.jumps))
    for q in range(length):
        pi = CountingPi(image)
        assert image[back.invert(q, pi)] == q
        assert pi.calls <= eval_budget(spacing)


@pytest.mark.parametrize("lengths", [
    [3000, 300, 300, 70, 1],  # 16-bit items, then a table with 8-bit ones
    [70000, 5],  # 32-bit items
    [64] * 300 + [32],  # several runs of tables, and a shorter last one
    [],
])
def test_read_blocks_reads_what_each_table_wrote(lengths):
    rng = random.Random(14)
    tables = []
    bw = BitWriter()
    for length in lengths:
        image = list(range(length))
        rng.shuffle(image)
        tables.append(ShortcutTable(image.__getitem__, length, 16))
        bw.write(tables[-1].payload, tables[-1].nbits)
    br = BitReader(bw.getvalue())
    back = [ShortcutTable.read(br, length, 16) for length in lengths]
    assert br.bits_consumed == bw.bit_length
    for tab, got in zip(tables, back):
        assert got.jumps.typecode == tab.jumps.typecode == typecode(tab.length)
        assert got.jumps == tab.jumps
        assert (got.payload, got.nbits) == (tab.payload, tab.nbits)


@pytest.mark.parametrize("length, target", [(255, 255), (255, 254), (300, 300), (300, 511)])
def test_a_target_past_its_table_is_corrupt(length, target):
    # Every element is marked, so a target's rank among the marks is the
    # target itself.  At L = 255 a rank takes all 8 bits of its field, and a
    # rank of 255 would also overflow the 8-bit item that holds 1 + target.
    image = [(x + 1) % length for x in range(length)]
    tab = ShortcutTable(image.__getitem__, length, 1)
    assert ones(tab) == length  # so the last target is element length - 1's
    width = (length - 1).bit_length()
    top = tab.nbits - width  # the last target's field
    field = tab.payload & ~(((1 << width) - 1) << top) | target << top
    data = field.to_bytes((tab.nbits + 7) // 8, "little")
    if target < length:
        assert ShortcutTable.read(BitReader(data), length, 1).jumps[-1] == target + 1
        return
    longer = ShortcutTable(list(range(length + 1)).__getitem__, length + 1, 1)
    for after_longer in (False, True):  # alone, and read after a longer table
        prefix = BitWriter()
        if after_longer:
            prefix.write(longer.payload, longer.nbits)
        prefix.write(field, tab.nbits)
        br = BitReader(prefix.getvalue())
        if after_longer:
            assert ShortcutTable.read(br, length + 1, 1).jumps == longer.jumps
        with pytest.raises(CorruptIndexError, match="shortcut target outside"):
            ShortcutTable.read(br, length, 1)


def packed(*fields):
    """The bytes of the (value, width) fields, the first at bit 0, and their
    total width."""
    value = pos = 0
    for v, w in fields:
        value |= v << pos
        pos += w
    return value.to_bytes((pos + 7) // 8, "little"), pos


# Stored tables that the encoder cannot make: each as its fields in order,
# and the one field that, set to the value given, mends it.  At L = 64 and
# spacing 8 the marks are a 7-bit count and an Elias-Fano list: for 2 marks,
# a 3-bit upper part and 5 low bits each; for 3 marks, a 6-bit upper part
# and 4 low bits each.  At L = 40, 2 marks take a 4-bit upper part and 4 low
# bits each.
_FORGED = {
    "count-past-L": (64, 8, [(65, 7)], None, "65 shortcut marks in a table of 64"),
    "equal-marks": (64, 8, [(2, 7), (0b011, 3), (5, 5), (5, 5), (1, 1), (0, 1)],
                    (3, 6), "increase strictly"),
    "falling-marks": (64, 8, [(2, 7), (0b011, 3), (9, 5), (5, 5), (1, 1), (0, 1)],
                      (2, 4), "increase strictly"),
    "mark-past-L": (40, 8, [(2, 6), (0b1001, 4), (0, 4), (15, 4), (1, 1), (0, 1)],
                    (3, 7), "increase strictly below 40"),  # marks 0 and 47
    "three-upper-ones": (64, 8, [(2, 7), (0b111, 3), (1, 5), (5, 5), (1, 1), (0, 1)],
                         (1, 0b011), "upper part does not hold 2 ones"),
    "one-upper-one": (64, 8, [(2, 7), (0b001, 3), (1, 5), (5, 5), (1, 1), (0, 1)],
                      (1, 0b011), "upper part does not hold 2 ones"),
    "rank-past-m": (64, 8, [(3, 7), (0b10101, 6), (1, 4), (4, 4), (8, 4),
                            (1, 2), (2, 2), (3, 2)],  # marks 1, 20 and 40
                    (7, 0), "target outside the table's 3 marks"),
    "rank-past-m-plain": (64, 2, [(1 << 1 | 1 << 20 | 1 << 40, 64),
                                  (1, 2), (2, 2), (3, 2)],
                          (3, 0), "target outside the table's 3 marks"),
}


@pytest.mark.parametrize("case", sorted(_FORGED))
def test_a_forged_table_is_corrupt_before_any_jump_is_filled(case):
    length, spacing, fields, mend, match = _FORGED[case]
    data, nbits = packed(*fields)
    table = object.__new__(ShortcutTable)
    with pytest.raises(CorruptIndexError, match=match):
        table._decode(int.from_bytes(data, "little"), length, spacing)
    assert not hasattr(table, "jumps")
    with pytest.raises(CorruptIndexError, match=match):
        ShortcutTable.read(BitReader(data), length, spacing)
    if mend is not None:  # one field away from a table that decodes
        i, value = mend
        data = packed(*fields[:i], (value, fields[i][1]), *fields[i + 1:])[0]
        marks, ranks, got = parse_table(bits_of(data), length, spacing)
        assert got == nbits
        br = BitReader(data)
        tab = ShortcutTable.read(br, length, spacing)
        assert (br.bits_consumed, tab.nbits) == (nbits, nbits)
        assert list(tab.jumps) == [marks[ranks[marks.index(x)]] + 1 if x in marks else 0
                                   for x in range(length)]
