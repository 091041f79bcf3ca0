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
from strindex.bits import BitReader, BitWriter, typecode
from strindex.perm import eval_budget


class CountingPi:
    def __init__(self, image):
        self.image = image
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.image[x]


def ones(tab):
    """Marks of a table, counted from the L mark bits that open its payload."""
    return (tab.payload & ((1 << tab.length) - 1)).bit_count()


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
    for spacing in (1, 2, 5):
        tab = ShortcutTable(image.__getitem__, 300, spacing)
        width = (300 - 1).bit_length()
        assert tab.nbits == 300 + ones(tab) * width
        assert tab.payload.bit_length() <= tab.nbits


def test_target_bits_halve_per_spacing_doubling():
    rng = random.Random(12)
    image = list(range(4096))
    rng.shuffle(image)
    bits = {
        spacing: ShortcutTable(image.__getitem__, 4096, spacing).nbits - 4096
        for spacing in (1, 2, 4, 8)
    }
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


# Payloads as the shortcut writer of format v3 emitted them: the L mark bits,
# then each target in mark order, in width(L) bits each.
_RECORDED = [
    ([1, 0, 2], 2, 5, "1"),
    ([2, 0, 1], 2, 7, "13"),
    ([(x + 1) % 10 for x in range(10)], 3, 26, "18c1e49"),  # 10 marks by 3
    ([3, 7, 0, 5, 1, 2, 6, 4, 9, 8, 10, 11], 2, 32, "80175133"),
    (list(range(6)), 2, 6, "0"),
    ([(x + 1) % 255 for x in range(255)], 16, 383,  # 255 marked by 16
     "7068605850484038302820181008007780010001000100010001000100010001"
     "00010001000100010001000100010001"),
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
    br = BitReader(payload.to_bytes((nbits + 7) // 8, "little"))
    back = ShortcutTable.read(br, length, spacing)
    assert br.bits_consumed == nbits
    assert (back.payload, back.nbits) == (payload, nbits)
    assert back.jumps == tab.jumps


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


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([1, 63, 64, 65, 128, 129, 1000]), st.integers(1, 4),
       st.randoms(use_true_random=False))
def test_write_read_round_trip_keeps_marks_and_word_counts(length, spacing, rng):
    image = list(range(length))
    rng.shuffle(image)
    tab = ShortcutTable(image.__getitem__, length, spacing)
    bw = written(tab)
    back = ShortcutTable.read(BitReader(bw.getvalue()), length, spacing)
    marks = bits_of(bw.getvalue())[:length]  # the section starts with the marks
    for table in (tab, back):
        assert table.payload & ((1 << length) - 1) == int(marks[::-1], 2)
        assert len(table.jumps) == length
        for i in range((length + 63) // 64):  # the marks before each 64-bit word
            assert sum(map(bool, table.jumps[:64 * i])) == marks[:64 * i].count("1")
        assert sum(map(bool, table.jumps)) == marks.count("1") == ones(table)
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


def assert_jumps_follow_the_stored_bits(table, data):
    """jumps[x] is 1 + x's target for each x marked in the stored bits, whose
    targets follow the L mark bits in mark order, and 0 everywhere else."""
    length = table.length
    bits = bits_of(data)
    marked = [x for x in range(length) if bits[x] == "1"]
    width = max(1, (length - 1).bit_length())
    stored = [int(bits[length + i * width:length + (i + 1) * width][::-1], 2)
              for i in range(len(marked))]
    assert table.payload & ((1 << length) - 1) == sum(1 << x for x in marked)
    assert [j - 1 for j in table.jumps if j] == stored
    want = [0] * length
    for x, target in zip(marked, stored):
        want[x] = target + 1
    assert list(table.jumps) == want
    assert table.jumps.typecode == typecode(length)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([0, 1, 63, 64, 65, 300]), st.integers(1, 8),
       st.randoms(use_true_random=False))
def test_jumps_hold_one_plus_each_marks_target(length, spacing, rng):
    image = permutation_with_cycle(length, spacing, rng)
    tab = ShortcutTable(image.__getitem__, length, spacing)
    data = written(tab).getvalue()
    back = ShortcutTable.read(BitReader(data), length, spacing)
    for table in (tab, back):
        assert_jumps_follow_the_stored_bits(table, data)
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
    # At L = 255 a target takes all 8 bits of its 8-bit item, so the last
    # one being 255 would also overflow the item that holds 1 + it.
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
