import random

import pytest

from setcons.encoding import build_partition, translate_map
from setcons.errors import CellEncodingError
from setcons.expr import SetMap, Var, augment_constants
from setcons.intervals import Interval, IntervalSet, Universe

from helpers import (
    BOX200,
    CYCLIC3_START,
    HALF_LINE,
    cyclic3_map,
    iv,
    pinned6_map,
    random_set,
    random_set_map,
    random_word,
)
from oracles import block_incidence_check

REF_CELLS = [
    ((1, 1, 0), "[4,5]"),
    ((1, 0, 0), "[2,4)"),
    ((0, 1, 0), "(5,7]"),
    ((0, 0, 1), "[8,11]"),
    ((0, 0, 0), "[0,2) | (7,8) | (11,inf)"),
]


def ref_partition():
    return build_partition(list(CYCLIC3_START), HALF_LINE)


def test_partition_reference():
    p = ref_partition()
    assert p.kappa == 5
    assert list(p.cells()) == [(sig, iv(text)) for sig, text in REF_CELLS]


def test_partition_single_generator_universe():
    p = build_partition([HALF_LINE.carrier], HALF_LINE)
    assert p.kappa == 1
    assert p.regions == (HALF_LINE.carrier,)


def test_partition_complementary_generators():
    u = Universe.of(Interval.closed(0, 10))
    p = build_partition([iv("[0,4]"), iv("(4,10]")], u)
    assert p.kappa == 2
    assert p.regions == (iv("[0,4]"), iv("(4,10]"))


def test_partition_no_generators():
    p = build_partition([], BOX200)
    assert p.kappa == 1 and p.regions == (BOX200.carrier,)


def test_partition_axioms_random():
    rng = random.Random(51)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(25):
        gens = [random_set(rng) & u.carrier for _ in range(rng.randint(0, 4))]
        p = build_partition(gens, u)
        union = IntervalSet.empty()
        for i, region in enumerate(p.regions):
            union = union | region
            for other in p.regions[i + 1 :]:
                assert (region & other).is_empty()
        assert union == u.carrier
        # Each cell equals the intersection named by its signature.
        for sig, region in p.cells():
            expected = u.carrier
            for g, bit in zip(gens, sig):
                expected = expected & (g if bit else u.complement(g))
            assert region == expected


def test_partition_generator_escape():
    with pytest.raises(ValueError):
        build_partition([iv("[0,300]")], BOX200)


# Bit h of a word stands for cell h, so cell 0 is the last binary digit.


def test_encode_reference_vectors():
    p = ref_partition()
    assert p.encode(iv("[2,5]")) == 0b00011
    assert p.encode(iv("[4,7]")) == 0b00101
    assert p.encode(iv("[8,11]")) == 0b01000
    assert p.encode(IntervalSet.empty()) == 0b00000
    assert p.encode(HALF_LINE.carrier) == 0b11111


def test_decode_reference_vectors():
    p = ref_partition()
    assert p.decode(0b11011) == iv("[0,5] | (7,inf)")
    assert p.decode(0b10000) == iv("[0,2) | (7,8) | (11,inf)")
    assert p.decode(0b00000) == IntervalSet.empty()
    for word in (1 << p.kappa, -1):
        with pytest.raises(ValueError):
            p.decode(word)


def test_encode_rejects_straddling_sets():
    p = ref_partition()
    with pytest.raises(CellEncodingError):
        p.encode(iv("[2,3]"))


def test_encode_decode_round_trip():
    rng = random.Random(53)
    p = ref_partition()
    for _ in range(40):
        word = random_word(rng, p.kappa)
        assert p.encode(p.decode(word)) == word


def test_encode_is_boolean_homomorphism():
    rng = random.Random(55)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(25):
        gens = [random_set(rng) & u.carrier for _ in range(rng.randint(1, 4))]
        p = build_partition(gens, u)
        s = p.decode(random_word(rng, p.kappa))
        t = p.decode(random_word(rng, p.kappa))
        es, et = p.encode(s), p.encode(t)
        assert p.encode(s & t) == es & et
        assert p.encode(s | t) == es | et
        assert p.encode(u.complement(s)) == es ^ ((1 << p.kappa) - 1)


def test_translate_reference_step():
    f = cyclic3_map()
    p = ref_partition()
    enc = translate_map(f, p)
    words = enc.encode_state(CYCLIC3_START)
    assert words == (0b00011, 0b00101, 0b01000)
    out = enc.map.step(words)
    assert enc.decode_state(out) == f.eval(CYCLIC3_START)
    # Words after one round, per variable.
    assert out == (0b00011, 0b11011, 0b10000)


def test_translate_identity_map():
    u = Universe.of(Interval.closed(0, 24))
    rng = random.Random(57)
    gens = [random_set(rng) & u.carrier for _ in range(3)]
    p = build_partition(gens, u)
    f = SetMap((Var(0), Var(1)), u)
    enc = translate_map(f, p)
    for _ in range(10):
        words = (random_word(rng, p.kappa), random_word(rng, p.kappa))
        assert enc.map.step(words) == words


def test_translate_requires_constant_free():
    p = build_partition([iv("[40,60] | [100,120]")], BOX200)
    with pytest.raises(ValueError):
        translate_map(pinned6_map(), p)
    # After augmentation the frozen value is a generator, so it encodes:
    # bit 1 on the generator's cell, 0 on the complement cell.
    enc = translate_map(augment_constants(pinned6_map()), p)
    assert enc.pinned_words == (0b01,)


def test_commuting_diagram_random():
    rng = random.Random(59)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(50):
        n = rng.randint(1, 3)
        f = random_set_map(rng, n, 4, u)
        gens = [random_set(rng) & u.carrier for _ in range(rng.randint(1, 3))]
        p = build_partition(gens, u)
        enc = translate_map(f, p)
        for _ in range(3):
            state = tuple(p.decode(random_word(rng, p.kappa)) for _ in range(n))
            direct = f.eval(state)
            encoded = enc.decode_state(enc.map.step(enc.encode_state(state)))
            assert encoded == direct


def test_closure_under_evaluation():
    # Any map over the generators keeps states cell-representable forever.
    rng = random.Random(61)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(15):
        n = rng.randint(1, 3)
        f = random_set_map(rng, n, 4, u)
        gens = [random_set(rng) & u.carrier for _ in range(rng.randint(1, 3))]
        p = build_partition(gens, u)
        state = tuple(p.decode(random_word(rng, p.kappa)) for _ in range(n))
        for _ in range(4):
            state = f.eval(state)
            for s in state:
                p.encode(s)  # raises if not representable


def test_per_cell_independence():
    rng = random.Random(63)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(10):
        n = rng.randint(1, 3)
        f = random_set_map(rng, n, 4, u)
        gens = [random_set(rng) & u.carrier for _ in range(2)]
        p = build_partition(gens, u)
        enc = translate_map(f, p)
        words = tuple(random_word(rng, p.kappa) for _ in range(n))
        base = enc.map.step(words)
        h = rng.randrange(p.kappa)
        moved = enc.map.step(tuple(w ^ (1 << h) for w in words))
        for a, b in zip(base, moved):
            assert (a ^ b) & ~(1 << h) == 0


def test_block_incidence_reference_systems():
    assert block_incidence_check(cyclic3_map(), ref_partition())
    u = Universe.of(Interval.closed(0, 24))
    ident = SetMap((Var(0), Var(1)), u)
    p = build_partition([iv("[1,2]"), iv("[5,9)")], u)
    assert block_incidence_check(ident, p)
    aug = augment_constants(pinned6_map())
    gens = list(CYCLIC3_START) + [aug.frozen_values[0]]
    p6 = build_partition([g & BOX200.carrier for g in gens], BOX200)
    assert block_incidence_check(aug, p6)
