import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strindex import MalformedInputError, ProbeBudgetError, ShortcutTable
from strindex.bits import BitReader, BitWriter
from strindex.perm import eval_budget


class CountingPi:
    def __init__(self, image):
        self.image = image
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.image[x]


def ones(tab):
    """Marks of a table, counted from its mark words."""
    return sum(word.bit_count() for word in tab.marks)


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
        assert tab.target_bits() == 0
        assert tab.bits() == 6  # mark bits only
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
        assert tab.target_bits() == ones(tab) * width
        assert tab.bits() == 300 + tab.target_bits()


def test_target_bits_halve_per_spacing_doubling():
    rng = random.Random(12)
    image = list(range(4096))
    rng.shuffle(image)
    bits = {
        spacing: ShortcutTable(image.__getitem__, 4096, spacing).target_bits()
        for spacing in (1, 2, 4, 8)
    }
    for spacing in (1, 2, 4):
        ratio = bits[2 * spacing] / bits[spacing]
        assert 0.4 <= ratio <= 0.6, (spacing, ratio)


def test_empty_permutation():
    tab = ShortcutTable(lambda x: x, 0, 3)
    assert tab.bits() == 0
    assert tab.target_bits() == 0


def test_rejects_non_bijection():
    with pytest.raises(MalformedInputError):
        ShortcutTable([0, 0, 1].__getitem__, 3, 1)
    with pytest.raises(MalformedInputError):
        ShortcutTable([5, 0, 1].__getitem__, 3, 1)
    with pytest.raises(MalformedInputError):
        ShortcutTable([0, 1].__getitem__, 2, 0)


def test_serialization_round_trip():
    rng = random.Random(13)
    image = list(range(100))
    rng.shuffle(image)
    tab = ShortcutTable(image.__getitem__, 100, 3)
    bw = BitWriter()
    tab.write(bw)
    assert bw.bit_length == tab.bits()
    back = ShortcutTable.read(BitReader(bw.getvalue()), 100, 3)
    bw2 = BitWriter()
    back.write(bw2)
    assert bw2.getvalue() == bw.getvalue()
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
    bw = BitWriter()
    tab.write(bw)
    assert bw.bit_length == tab.bits()
    back = ShortcutTable.read(BitReader(bw.getvalue()), length, spacing)
    marks = bits_of(bw.getvalue())[:length]  # the section starts with the marks
    for table in (tab, back):
        assert len(table.marks) == len(table.ranks) - 1 == (length + 63) // 64
        for i, word in enumerate(table.marks):
            assert word == int(marks[64 * i:64 * i + 64][::-1], 2)
            assert table.ranks[i] == marks[:64 * i].count("1")
        assert table.ranks[-1] == marks.count("1") == len(table.targets)
    assert back.targets == tab.targets
    for q in range(length):
        pi = CountingPi(image)
        assert image[back.invert(q, pi)] == q
        assert pi.calls <= eval_budget(spacing)
