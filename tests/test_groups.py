import random

import pytest

from zerosum.groups import (
    ORDER_CEILING,
    GroupCeilingError,
    GroupElement,
    GroupMismatchError,
    GroupSpec,
    SumSet,
    coset_index_mod_2G,
    doubling_subgroup,
    parse_group,
)

SMALL_GROUPS = [(2,), (3,), (4,), (2, 2), (6,), (2, 4), (8,), (3, 3), (2, 6), (2, 2, 2), (12,), (2, 12)]
ORDER_64_GROUPS = [(64,), (2, 32), (4, 16), (8, 8), (2, 2, 16), (2, 2, 2, 2, 2, 2)]


def test_parse_group_round_trip():
    g = parse_group("2,12")
    assert g.invariant_factors == (2, 12)
    assert g.spec_string == "2,12"
    assert g.order == 24
    assert g.exponent == 12
    assert g.rank == 2


def test_parse_group_rejects_bad_chains():
    with pytest.raises(ValueError):
        parse_group("2,5")
    with pytest.raises(ValueError):
        parse_group("1,4")
    with pytest.raises(ValueError):
        parse_group("")
    with pytest.raises(ValueError):
        parse_group("2,,4")
    with pytest.raises(ValueError):
        parse_group("2,x")
    with pytest.raises(ValueError, match="at least one invariant factor"):
        GroupSpec([])
    with pytest.raises(ValueError, match="must be integers"):
        GroupSpec([2.9, 4])


def test_order_ceiling():
    with pytest.raises(GroupCeilingError):
        GroupSpec([2, 64])
    assert GroupSpec([2, 32]).order == ORDER_CEILING == 64


def test_index_coords_round_trip():
    for factors in SMALL_GROUPS:
        g = GroupSpec(factors)
        for i in range(g.order):
            assert g.index_of(g.coords_of(i)) == i
        assert g.coords_of(0) == (0,) * g.rank
        for index in (-1, g.order):
            with pytest.raises(ValueError, match="out of range"):
                g.coords_of(index)
            with pytest.raises(ValueError, match="out of range"):
                g.element_at(index)
        for bad in (g.coords_of, g.element_at, lambda i: GroupElement(g, i)):
            with pytest.raises(TypeError):
                bad(g.order - 1.5)
        with pytest.raises(TypeError):
            g.index_of((0.5,) + (1,) * (g.rank - 1))


def test_index_encoding_most_significant_last():
    g = GroupSpec([2, 4])
    # coordinate 0 is the least significant digit
    assert g.index_of((1, 0)) == 1
    assert g.index_of((0, 1)) == 2
    assert g.index_of((1, 3)) == 7


def test_element_arithmetic_examples():
    g = GroupSpec([2, 4])
    a = g.element((1, 3))
    b = g.element((1, 2))
    assert (a + b).coords == (0, 1)
    c6 = GroupSpec([6])
    assert (c6.element((4,)) + c6.element((5,))).coords == (3,)
    assert (a + g.zero) == a
    assert (-a + a) == g.zero
    assert (3 * g.element((1, 1))).coords == (1, 3)


def test_element_orders():
    g = GroupSpec([2, 6])
    assert g.element((0, 0)).order == 1
    assert g.element((1, 0)).order == 2
    assert g.element((1, 1)).order == 6
    assert g.element((0, 2)).order == 3
    assert g.element((1, 3)).order == 2


def test_group_mismatch_rejected():
    a = GroupSpec([4]).element((1,))
    b = GroupSpec([6]).element((1,))
    with pytest.raises(GroupMismatchError):
        a + b


def test_total_order_by_index():
    g = GroupSpec([2, 4])
    elems = list(g.elements())
    assert elems == sorted(elems)
    assert g.element((1, 0)) < g.element((0, 1))


def test_arithmetic_tables_match_coordinate_formula():
    for factors in SMALL_GROUPS + ORDER_64_GROUPS:
        g = GroupSpec(factors)
        exp = g.exponent
        coords = [g.coords_of(i) for i in range(g.order)]
        for i, ci in enumerate(coords):
            assert g.neg_index(i) == g.index_of((-c) % n for c, n in zip(ci, factors))
            for j, cj in enumerate(coords):
                assert g.add_indices(i, j) == g.index_of((a + b) % n for a, b, n in zip(ci, cj, factors))
            for k in range(-exp - 1, 2 * exp + 1):
                assert g.scale_index(k, i) == g.index_of((k * c) % n for c, n in zip(ci, factors))
        # a table lookup would wrap -1 around to the last element
        for bad in (-1, g.order):
            with pytest.raises(ValueError):
                g.add_indices(bad, 0)
            with pytest.raises(ValueError):
                g.add_indices(0, bad)
            with pytest.raises(ValueError):
                g.neg_index(bad)
            with pytest.raises(ValueError):
                g.scale_index(3, bad)


@pytest.mark.parametrize("factors", [(2,), (7,), (12,), (64,), (2, 2), (2, 8), (3, 6), (4, 8), (8, 8), (2, 2, 4),
                                     (3, 3, 3), (2, 4, 8), (2, 2, 2, 2), (2, 2, 2, 6), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2)])
def test_whole_tables_match_coords_of_and_index_of(factors):
    # the tables are built one factor at a time from digit sums and products
    # times strides; here every entry is rebuilt through the coordinates
    g = GroupSpec(factors)
    coords = [g.coords_of(i) for i in range(g.order)]
    assert g.add_table == tuple(tuple(g.index_of([(a + b) % n for a, b, n in zip(ci, cj, factors)]) for cj in coords)
                                for ci in coords)
    assert g.scale_table == tuple(tuple(g.index_of([k * c % n for c, n in zip(ci, factors)]) for ci in coords)
                                  for k in range(g.exponent))


def test_translation_ops_against_element_wise_oracle():
    rng = random.Random(7)
    for factors in SMALL_GROUPS:
        g = GroupSpec(factors)
        for h in range(g.order):
            # oracle: translate singletons
            for x in range(g.order):
                assert g.translate_bits(1 << x, h) == 1 << g.add_indices(x, h)
        for _ in range(25):
            bits = rng.getrandbits(g.order)
            h = rng.randrange(g.order)
            expect = 0
            for x in range(g.order):
                if bits >> x & 1:
                    expect |= 1 << g.add_indices(x, h)
            assert g.translate_bits(bits, h) == expect


def test_dilate_bits_matches_scaling():
    g = GroupSpec([2, 6])
    bits = 0
    for x in (1, 3, 7):
        bits |= 1 << x
    out = g.dilate_bits(bits, 2)
    expect = 0
    for x in (1, 3, 7):
        expect |= 1 << g.scale_index(2, x)
    assert out == expect


def sumset(a: SumSet, b: SumSet) -> SumSet:
    """The pointwise sum {x + y : x in a, y in b}, by translating b."""
    bits = 0
    for i in a.indices():
        bits |= a.group.translate_bits(b.bits, i)
    return SumSet(a.group, bits)


def test_sumset_examples_and_oracle():
    c6 = GroupSpec([6])
    a = SumSet.of(c6, [0, 1, 2, 3])
    b = SumSet.of(c6, [0, 1, 3])
    assert sumset(a, b).is_full()
    c4 = GroupSpec([4])
    evens = SumSet.of(c4, [0, 2])
    assert sumset(evens, evens) == evens
    # identity {0} + B = B
    for factors in [(6,), (2, 4)]:
        g = GroupSpec(factors)
        zero = SumSet.of(g, [0])
        b = SumSet.of(g, [1, 2])
        assert sumset(zero, b) == b
        assert sumset(SumSet.empty(g), b) == SumSet.empty(g)
    rng = random.Random(11)
    for factors in SMALL_GROUPS:
        g = GroupSpec(factors)
        for _ in range(10):
            xa = rng.getrandbits(g.order)
            xb = rng.getrandbits(g.order)
            expect = 0
            for x in range(g.order):
                if xa >> x & 1:
                    for y in range(g.order):
                        if xb >> y & 1:
                            expect |= 1 << g.add_indices(x, y)
            assert sumset(SumSet(g, xa), SumSet(g, xb)).bits == expect


def test_cauchy_davenport_style_covering():
    # |A| + |B| >= |G| + 1 forces A + B = G
    rng = random.Random(99)
    groups = [GroupSpec(f) for f in [(6,), (8,), (2, 4), (12,), (2, 6), (3, 3)]]
    checked = 0
    while checked < 1000:
        g = groups[checked % len(groups)]
        ka = rng.randrange(1, g.order + 1)
        kb = max(g.order + 1 - ka, 1)
        if ka + kb < g.order + 1 or kb > g.order:
            continue
        a = SumSet.of(g, rng.sample(range(g.order), ka))
        b = SumSet.of(g, rng.sample(range(g.order), kb))
        assert sumset(a, b).is_full()
        checked += 1


def test_doubling_subgroup():
    g = GroupSpec([2, 4])
    d = doubling_subgroup(g)
    assert sorted(e.coords for e in d.elements()) == [(0, 0), (0, 2)]
    assert len(doubling_subgroup(GroupSpec([2, 2, 2]))) == 1
    c6 = GroupSpec([6])
    assert sorted(i for i in doubling_subgroup(c6).indices()) == [0, 2, 4]


def test_coset_index_examples_and_partition():
    g = GroupSpec([2, 4])
    assert coset_index_mod_2G(g, g.element((0, 2))) == 0
    assert coset_index_mod_2G(g, g.element((1, 0))) == 1
    assert coset_index_mod_2G(g, g.element((1, 3))) == 3
    for n in range(1, 7):
        g = GroupSpec([2, 2 * n])
        counts = [0, 0, 0, 0]
        for e in g.elements():
            counts[coset_index_mod_2G(g, e)] += 1
        assert counts == [n, n, n, n]
    with pytest.raises(ValueError):
        coset_index_mod_2G(GroupSpec([8]), 1)


def test_sumset_container_basics():
    g = GroupSpec([2, 4])
    s = SumSet.of(g, [g.element((1, 2)), 0])
    assert g.element((1, 2)) in s
    assert 0 in s
    assert len(s) == 2
    assert list(s.indices()) == [0, 5]
    t = s.translate(g.element((1, 0)))
    assert sorted(t.indices()) == [1, 4]
    with pytest.raises(GroupMismatchError):
        s | SumSet.empty(GroupSpec([8]))
    for bits in (-1, 1 << g.order):
        with pytest.raises(ValueError, match="bit mask out of range"):
            SumSet(g, bits)
    with pytest.raises(TypeError):
        2.7 in s
    with pytest.raises(TypeError):
        SumSet.of(g, [2.7])
