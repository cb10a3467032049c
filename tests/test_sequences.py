import math
import random
from itertools import combinations

import pytest

from zerosum import sequences
from zerosum.groups import GroupSpec, SumSet
from zerosum.sequences import (
    LengthSumTable,
    Sequence,
    WeightSet,
    enumerate_squarefree,
    has_weighted_zero_of_length,
    length_sum_table,
    nonempty_subsums,
    oracle_has_weighted_zero_of_length,
    oracle_has_weighted_zero_up_to,
    oracle_nonempty_subsums,
    oracle_ops,
    oracle_terms_have_zero_of_length,
    sigma,
    subsum_kernel,
    subsums_sigma0,
    weighted_length_sums_oracle,
    weighted_sums,
)


def test_weight_set_normalization():
    w = WeightSet.of(12, [13, -1, 1])
    assert w.classes == (1, 11)
    assert not w.trivial
    assert WeightSet.of(6, [6, 2]).trivial
    assert WeightSet.plus_minus(2).classes == (1,)
    assert WeightSet.classic(5).classes == (1,)
    assert WeightSet.parse("pm", 12).classes == (1, 11)
    assert WeightSet.parse("classic", 12).classes == (1,)
    assert WeightSet.parse("1,5", 12).classes == (1, 5)
    with pytest.raises(ValueError):
        WeightSet.of(6, [])
    with pytest.raises(ValueError):
        WeightSet.parse("1,,2", 6)
    with pytest.raises(ValueError):
        WeightSet.parse("", 6)
    with pytest.raises(ValueError, match="modulus must be positive"):
        WeightSet(0, (0,))
    # a modulus of 0 is refused before the weights are reduced by it
    for build in (lambda: WeightSet.of(0, [1]), lambda: WeightSet.classic(0), lambda: WeightSet.plus_minus(0),
                  lambda: WeightSet.parse("1", 0), lambda: WeightSet.of(-3, [1])):
        with pytest.raises(ValueError, match="^weight modulus must be positive$"):
            build()
    for classes in [(5,), (3, 1), (1, 1)]:  # unreduced, unsorted, repeated
        with pytest.raises(ValueError, match="reduced, sorted and duplicate-free"):
            WeightSet(4, classes)


def test_weight_labels():
    assert WeightSet.plus_minus(12).label() == "pm"
    assert WeightSet.classic(12).label() == "classic"
    assert WeightSet.of(12, [1, 5]).label() == "1,5"
    # at exponent 2 plus-minus collapses to the classic set
    assert WeightSet.plus_minus(2).label() == "classic"


def test_sequence_parse_render_round_trip():
    g = GroupSpec([2, 4])
    s = Sequence.parse(g, "(1,3);(0,2)^2")
    assert s.length == 3
    assert s.multiplicity(g.element((0, 2))) == 2
    assert Sequence.parse(g, s.literal()) == s
    c6 = GroupSpec([6])
    assert Sequence.parse(c6, "3;5^2").literal() == "(3);(5)^2"
    assert Sequence.parse(c6, "").length == 0


@pytest.mark.parametrize("dims", [[2, 8], [3, 6], [2, 2, 2]])
def test_literal_matches_the_coordinate_formula(dims):
    # every element, alone and repeated, and a mixed multiset on each run
    g = GroupSpec(dims)

    def formula(s):
        parts = []
        for i, m in enumerate(s.mult):
            if m:
                term = "(" + ",".join(str(c) for c in g.coords_of(i)) + ")"
                parts.append(term if m == 1 else f"{term}^{m}")
        return ";".join(parts)

    rng = random.Random(7)
    for i in range(g.order):
        for m in (1, 2, 11):
            s = Sequence.from_indices(g, [i] * m)
            assert s.literal() == formula(s)
        mult = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(g.order))
        s = Sequence(g, mult)
        assert s.literal() == formula(s)
        assert Sequence.parse(g, s.literal()) == s
    assert Sequence.empty(g).literal() == ""


def test_sequence_parse_rejects_garbage():
    g = GroupSpec([2, 4])
    for bad in ["(1,3);;(0,2)", "(1)", "(0,4)", "(a,b)", "(1,1)^0", "(1,1)^x", "3"]:
        with pytest.raises(ValueError):
            Sequence.parse(g, bad)


def test_sequence_views_and_edits():
    g = GroupSpec([2, 4])
    s = Sequence.from_indices(g, [5, 0, 5])
    assert s.indices() == (0, 5, 5)
    assert not s.is_squarefree
    assert s.support_indices() == (0, 5)
    assert s.remove_index(5).indices() == (0, 5)
    with pytest.raises(ValueError):
        s.remove_index(3)


def test_sequence_constructors_refuse_bad_input():
    g = GroupSpec([2, 4])
    with pytest.raises(ValueError, match="length must equal the group order"):
        Sequence(g, (1,) * 7)
    with pytest.raises(ValueError, match="must be nonnegative"):
        Sequence(g, (-1,) + (0,) * 7)
    for index in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            Sequence.from_indices(g, [0, index])
    with pytest.raises(ValueError, match="different group"):
        Sequence.from_elements(g, [g.element_at(1), GroupSpec([8]).element_at(1)])


def test_sigma_examples():
    g = GroupSpec([2, 4])
    assert sigma(Sequence.empty(g)) == g.zero
    full = Sequence.full_squarefree(g)
    # oracle: direct summation
    acc = g.zero
    for e in full.elements():
        acc = acc + e
    assert sigma(full) == acc
    c6 = GroupSpec([6])
    assert sigma(Sequence.from_indices(c6, range(6))).coords == (3,)


def test_subsums_examples():
    c4 = GroupSpec([4])
    s = Sequence.from_indices(c4, [1, 2])
    assert sorted(subsums_sigma0(s).indices()) == [0, 1, 2, 3]
    assert sorted(nonempty_subsums(s).indices()) == [1, 2, 3]
    g = GroupSpec([2, 6])
    one = Sequence.from_indices(g, [7])
    assert sorted(subsums_sigma0(one).indices()) == [0, 7]
    # brute force cross-check on random sequences
    rng = random.Random(3)
    for _ in range(30):
        seq = Sequence.from_indices(g, [rng.randrange(g.order) for _ in range(rng.randrange(7))])
        expect = set()
        terms = seq.indices()
        for ln in range(len(terms) + 1):
            for combo in combinations(terms, ln):
                acc = 0
                for i in combo:
                    acc = g.add_indices(acc, i)
                expect.add(acc)
        assert set(subsums_sigma0(seq).indices()) == expect


def test_nonempty_subsums_against_oracle():
    g = GroupSpec([2, 4])
    rng = random.Random(5)
    for _ in range(40):
        seq = Sequence.from_indices(g, [rng.randrange(g.order) for _ in range(rng.randrange(6))])
        terms = seq.indices()
        expect = set()
        for ln in range(1, len(terms) + 1):
            for combo in combinations(terms, ln):
                acc = 0
                for i in combo:
                    acc = g.add_indices(acc, i)
                expect.add(acc)
        assert set(nonempty_subsums(seq).indices()) == expect


def test_weighted_sums_single_term():
    g = GroupSpec([2, 6])
    pm = WeightSet.plus_minus(g.exponent)
    x = g.element((1, 2))
    s = Sequence.from_elements(g, [x])
    assert set(weighted_sums(s, pm).elements()) == {x, -x}
    assert set(weighted_sums(s, WeightSet.classic(g.exponent)).elements()) == {x}


def test_weighted_sums_identity():
    # sigma_pm(S) = -sigma(S) + 2*Sigma0(S)
    rng = random.Random(17)
    for factors in [(2, 4), (2, 6), (5,), (7,)]:
        g = GroupSpec(factors)
        pm = WeightSet.plus_minus(g.exponent)
        for _ in range(200):
            seq = Sequence.from_indices(g, [rng.randrange(g.order) for _ in range(rng.randrange(9))])
            lhs = weighted_sums(seq, pm)
            rhs = subsums_sigma0(seq).dilate(2).translate(-sigma(seq))
            assert lhs == rhs


def test_weighted_sums_lower_bound_odd_order():
    # for odd |G| the plus-minus sum set has at least 1 + |supp(S)\{0}| values
    rng = random.Random(23)
    for factors in [(5,), (7,), (3, 3)]:
        g = GroupSpec(factors)
        pm = WeightSet.plus_minus(g.exponent)
        for _ in range(100):
            seq = Sequence.from_indices(g, rng.sample(range(g.order), rng.randrange(1, g.order)))
            nonzero_support = sum(1 for i in seq.support_indices() if i != 0)
            assert len(weighted_sums(seq, pm)) >= 1 + nonzero_support


def test_length_sum_table_small_rows():
    g = GroupSpec([2, 4])
    pm = WeightSet.plus_minus(g.exponent)
    s = Sequence.from_indices(g, [2, 2])
    t = length_sum_table(s, pm, 2)
    assert t.row(0) == SumSet.of(g, [0])
    # one copy of (0,1): weights give (0,1) and (0,3)
    assert sorted(t.row(1).indices()) == [g.index_of((0, 1)), g.index_of((0, 3))]
    # g twice with opposite signs cancels
    assert t.contains_zero(2)
    with pytest.raises(ValueError, match="beyond table cap"):
        t.contains_zero(3)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        subsum_kernel(g, pm, -1)


def test_length_sum_table_against_oracle_exhaustive():
    # every multiset up to length 4 over C2xC4, three weight sets
    g = GroupSpec([2, 4])
    weight_sets = [
        WeightSet.plus_minus(g.exponent),
        WeightSet.classic(g.exponent),
        WeightSet.of(g.exponent, [1, 2]),
    ]
    seqs = [()]
    for ln in range(1, 5):
        new = []

        def grow(prefix, start):
            if len(prefix) == ln:
                new.append(tuple(prefix))
                return
            for i in range(start, g.order):
                grow(prefix + [i], i)

        grow([], 0)
        seqs.extend(new)
    assert len(seqs) == sum(math.comb(g.order + ln - 1, ln) for ln in range(5))
    for stream in seqs:
        seq = Sequence.from_indices(g, stream)
        for w in weight_sets:
            table = length_sum_table(seq, w, seq.length)
            oracle = weighted_length_sums_oracle(seq, w)
            for ln in range(seq.length + 1):
                assert set(table.row(ln).indices()) == oracle[ln], (stream, w.classes, ln)


def test_length_sum_table_against_oracle_random_larger():
    rng = random.Random(41)
    for factors in [(2, 6), (8,), (3, 3)]:
        g = GroupSpec(factors)
        for w in [WeightSet.plus_minus(g.exponent), WeightSet.classic(g.exponent)]:
            for _ in range(15):
                seq = Sequence.from_indices(g, [rng.randrange(g.order) for _ in range(rng.randrange(5, 8))])
                table = length_sum_table(seq, w, seq.length)
                oracle = weighted_length_sums_oracle(seq, w)
                for ln in range(seq.length + 1):
                    assert set(table.row(ln).indices()) == oracle[ln]


def _unpack(g, word, cap):
    """Rows 0..cap of a packed kernel word, each as a set of element indices."""
    return [set(SumSet(g, (word >> j * g.order) & g.full_mask).indices()) for j in range(cap + 1)]


def test_subsum_kernel_dead_flag_and_input_rows_kept():
    # each stream ends at its first dead push: only live words are pushed
    rng = random.Random(43)
    for factors in [(2, 4), (6,), (3, 3)]:
        g = GroupSpec(factors)
        for w in [WeightSet.plus_minus(g.exponent), WeightSet.classic(g.exponent)]:
            zero_lengths = (1, g.exponent)
            for _ in range(20):
                stream = [rng.randrange(g.order) for _ in range(rng.randrange(1, 7))]
                word, push = subsum_kernel(g, w, g.exponent, zero_lengths)
                for size, i in enumerate(stream, 1):
                    before = word
                    new = push(word, i)
                    assert word == before  # a search backtracks to the old word
                    oracle = weighted_length_sums_oracle(Sequence.from_indices(g, stream[:size]), w)
                    dead = any(0 in oracle.get(j, ()) for j in zero_lengths)
                    assert (new is None) == dead, (stream, size)  # a dead push returns None
                    if dead:
                        break
                    word = new
                    rows = _unpack(g, word, g.exponent)
                    for ln in range(min(size, g.exponent) + 1):
                        assert rows[ln] == oracle[ln]


# random zero-length sets: the engine's (exp,) and 1..exp, sets with gaps,
# and lengths above the stream length or above the table cap.  Under pm every
# row is closed under negation, so only the weight sets not closed under it
# ({1,2} mod 4, {1,2,5} mod 6, {1,3} mod 8) tell a missing -w*g apart.
KERNEL_CASES = [
    ((2, 4), [1, 3]),
    ((2, 4), [1, 2]),
    ((6,), [1, 5, 2]),
    ((8,), [1, 7]),
    ((8,), [1, 3]),
    ((3, 3), [1, 2]),
    ((2, 2, 2), [1]),
    ((2, 6), [1, 5]),
]


def _zero_length_sets(rng, e, cap):
    return [(e,), tuple(range(1, e + 1)),
            tuple(sorted(rng.sample(range(1, cap + 3), rng.randint(1, 3)))),
            (cap,), (cap + 1,)]


def _live_streams(rng, g):
    """Yield ``(zero_lengths, cap, stream)`` over random caps and zero lengths."""
    for _ in range(40):
        cap = rng.randint(1, g.exponent + 2)
        for zl in _zero_length_sets(rng, g.exponent, cap):
            yield zl, cap, [rng.randrange(g.order) for _ in range(rng.randint(1, 7))]


@pytest.mark.parametrize("factors,weights", KERNEL_CASES, ids=str)
def test_packed_rows_of_every_live_state_match_oracle(factors, weights):
    g = GroupSpec(factors)
    w = WeightSet.of(g.exponent, weights)
    rng = random.Random(f"packed rows {factors} {weights}")
    states = 0
    for zl, cap, stream in _live_streams(rng, g):
        word, push = subsum_kernel(g, w, cap, zl)
        assert _unpack(g, word, cap) == [{0}] + [set()] * cap
        for size, i in enumerate(stream, 1):
            new = push(word, i)
            if new is None:
                break
            word = new
            oracle = weighted_length_sums_oracle(Sequence.from_indices(g, stream[:size]), w)
            assert _unpack(g, word, cap) == [oracle.get(ln, set()) for ln in range(cap + 1)], (zl, cap, stream, size)
            states += 1
    assert states >= 100


@pytest.mark.parametrize("spec", ["12", "2,8", "3,6", "4,8", "2,2,4", "3,3,3", "2,2,2,2,2,2"])
def test_kernel_functions_translate_as_translate_bits(spec):
    # each element's function ORs the translates of rows 0..cap-1 by its
    # weighted multiples, one row up; up to eight masked shifts are written
    # out, and 2,2,4 and 3,3,3 under pm and 2,2,2,2,2,2 need more, split in eights
    g = GroupSpec(int(n) for n in spec.split(","))
    N, rng = g.order, random.Random(f"kernel functions {spec}")
    for w in (WeightSet.classic(g.exponent), WeightSet.plus_minus(g.exponent)):
        for cap in (1, 3):
            fns = sequences._packed_ops(g, w, cap)
            assert len(fns) == N
            for h, fn in enumerate(fns):
                for _ in range(4):
                    word = rng.getrandbits((cap + 1) * N)
                    rows = [(word >> j * N) & g.full_mask for j in range(cap)]
                    expect = 0
                    for wh in {g.scale_index(k, h) for k in w.classes}:
                        for j, row in enumerate(rows):
                            expect |= g.translate_bits(row, wh) << (j + 1) * N
                    assert fn(word) == expect, (spec, w, cap, h)
    split = any(fn.__code__.co_freevars == ("head", "tail")
                for fn in sequences._packed_ops(g, WeightSet.plus_minus(g.exponent), 1))
    assert split == (spec in ("2,2,4", "3,3,3", "2,2,2,2,2,2"))


@pytest.mark.parametrize("spec, weights", [("3,6", "pm"), ("3,6", "classic"), ("2,8", "1,3"), ("4,8", "1,3"),
                                           ("2,8", "pm"), ("2,2,4", "pm"), ("3,3,3", "classic")])
def test_kernel_push_matches_a_loop_over_translation_ops(spec, weights):
    # the push on random live words against a reference loop over each
    # weighted multiple's translation ops, masks tiled over rows 0..cap-1
    g = GroupSpec(int(n) for n in spec.split(","))
    w = WeightSet.parse(weights, g.exponent)
    N, rng = g.order, random.Random(f"kernel push {spec} {weights}")
    cap = g.exponent
    low = (1 << cap * N) - 1
    tile = sum(1 << j * N for j in range(cap))
    pre = [sum({1 << g.neg_index(g.scale_index(k, h)) for k in w.classes}) for h in range(N)]
    pushed = 0
    for _ in range(30):
        word, push = subsum_kernel(g, w, cap, (cap,))
        for h in [rng.randrange(N) for _ in range(rng.randint(1, 8))]:
            acc = 0
            for wh in dict.fromkeys(g.scale_index(k, h) for k in w.classes):
                x = word & low
                for m1, s1, m2, s2 in g._translation_ops[wh]:
                    x = ((x & m1 * tile) << s1) | ((x & m2 * tile) >> s2)
                acc |= x
            new = push(word, h)
            if (word >> (cap - 1) * N) & g.full_mask & pre[h]:  # some -w*h in row cap - 1
                assert new is None
                break
            assert new == word | (acc << N), (spec, weights, h)
            word = new
            pushed += 1
    assert pushed >= 60


@pytest.mark.parametrize("factors,weights", KERNEL_CASES, ids=str)
def test_dead_verdict_of_one_and_matches_oracle(factors, weights):
    g = GroupSpec(factors)
    w = WeightSet.of(g.exponent, weights)
    rng = random.Random(f"dead verdict {factors} {weights}")
    verdicts = []
    for zl, cap, stream in _live_streams(rng, g):
        word, push = subsum_kernel(g, w, cap, zl)
        for size, i in enumerate(stream, 1):
            new = push(word, i)
            oracle = weighted_length_sums_oracle(Sequence.from_indices(g, stream[:size]), w)
            # the table holds rows up to cap; a zero length above it is never hit
            dead = any(0 in oracle.get(j, ()) for j in zl if j <= cap)
            assert (new is None) == dead, (zl, cap, stream, size)  # a dead push returns None
            verdicts.append(dead)
            if dead:
                break
            word = new
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_has_weighted_zero_of_length():
    g = GroupSpec([2, 2])
    classic = WeightSet.classic(2)
    assert has_weighted_zero_of_length(Sequence.empty(g), classic, 0)
    # squarefree full Klein group: distinct elements never cancel in pairs
    assert not has_weighted_zero_of_length(Sequence.full_squarefree(g), classic, 2)
    c4 = GroupSpec([4])
    s = Sequence.from_indices(c4, [0, 1, 3])
    assert not has_weighted_zero_of_length(s, WeightSet.classic(4), 4)
    assert has_weighted_zero_of_length(s, WeightSet.classic(4), 3)
    assert not has_weighted_zero_of_length(s, WeightSet.classic(4), 17)
    with pytest.raises(ValueError, match="length must be nonnegative"):
        has_weighted_zero_of_length(s, WeightSet.classic(4), -1)


@pytest.mark.parametrize("check", [
    lambda s, w: sequences.weight_multiples(s.group, w),
    weighted_length_sums_oracle,
    lambda s, w: oracle_has_weighted_zero_of_length(s, w, 2),
    lambda s, w: oracle_has_weighted_zero_up_to(s, w, 2),
], ids=["weight_multiples", "weighted_length_sums_oracle", "oracle_has_weighted_zero_of_length",
        "oracle_has_weighted_zero_up_to"])
def test_weight_modulus_off_the_exponent_is_refused(check):
    s = Sequence.from_indices(GroupSpec([2, 4]), [1, 2, 3])
    with pytest.raises(ValueError, match="weight modulus .*does not match"):
        check(s, WeightSet.plus_minus(3))


def test_weighted_zero_downward_closed_under_deletion():
    # if S lacks a weighted zero of the length, so does every subsequence
    rng = random.Random(59)
    g = GroupSpec([2, 6])
    pm = WeightSet.plus_minus(g.exponent)
    for _ in range(60):
        seq = Sequence.from_indices(g, [rng.randrange(g.order) for _ in range(9)])
        ln = rng.randrange(1, 7)
        if has_weighted_zero_of_length(seq, pm, ln):
            continue
        cur = seq
        while cur.length:
            cur = cur.remove_index(rng.choice(cur.support_indices()))
            assert not has_weighted_zero_of_length(cur, pm, ln)


def test_trivial_weights_always_hit_zero():
    g = GroupSpec([6])
    w = WeightSet.of(6, [0, 1])
    s = Sequence.from_indices(g, [1, 5, 3])
    for ln in range(1, 4):
        assert has_weighted_zero_of_length(s, w, ln)


def test_enumerate_squarefree_counts_and_order():
    g = GroupSpec([2, 4])
    seen = []
    n = enumerate_squarefree(g, 3, seen.append)
    assert n == math.comb(8, 3) == len(seen)
    assert len(set(seen)) == n
    assert seen[0] == (0, 1, 2)
    assert seen == sorted(seen)
    stopped = []

    def stop_after_five(t):
        stopped.append(t)
        if len(stopped) == 5:
            return False

    assert enumerate_squarefree(g, 3, stop_after_five) == 5
    assert enumerate_squarefree(g, 0, seen.append) == 1
    with pytest.raises(ValueError):
        enumerate_squarefree(g, 9, seen.append)


_DP_GRID = [([2, 4], "pm"), ([2, 4], "classic"), ([6], "pm"), ([6], "classic"), ([8], "1,3,5,7"),
            ([10], "1,3,7,9"), ([12], "1,5,7,11"), ([8], "1,3"), ([6], "0,1"), ([6], "1,2"), ([6], "2,3")]


def test_length_dp_oracles_match_full_enumeration():
    """Both oracles, and the length DP under them, against brute force:
    pm and classic; several classes (all units on C8, C10 and C12, {1,3} on
    C8, sets holding 0 or a non-unit on C6); multisets with repeated terms;
    every length 0..count + 1, so the rows the DP skips meet the edge past
    which they could still reach the length."""
    rng = random.Random(11)
    for spec, wspec in _DP_GRID:
        g = GroupSpec(spec)
        w = WeightSet.parse(wspec, g.exponent)
        for _ in range(25):
            pool = rng.sample(range(g.order), rng.randint(1, 4))  # few values, so terms repeat
            seq = Sequence.from_indices(g, [rng.choice(pool) for _ in range(rng.randint(0, 6))])
            table = weighted_length_sums_oracle(seq, w)
            for ln in range(seq.length + 2):
                want = 0 in table.get(ln, ())
                assert oracle_has_weighted_zero_of_length(seq, w, ln) == want, (spec, wspec, seq, ln)
                if ln:
                    assert sequences._zero_in_rows(g, w, seq.indices(), ln, ln) == want, (spec, wspec, seq, ln)
                expect = any(0 in table.get(j, ()) for j in range(1, ln + 1))
                assert oracle_has_weighted_zero_up_to(seq, w, ln) == expect, (spec, wspec, seq, ln)


@pytest.mark.parametrize("factors", [[7], [8], [2, 6], [3, 3], [2, 2, 2]], ids=str)
def test_single_weight_oracle_matches_full_enumeration(factors):
    """Every weight class, zero and non-units included, on multisets with
    repeated terms; lengths up to one past the count reach both the kept
    side (length <= count - length) and the dropped side."""
    g = GroupSpec(factors)
    rng = random.Random(sum(factors) * 31 + len(factors))
    sides = set()
    for w in range(g.exponent):
        ws = WeightSet.of(g.exponent, [w])
        for _ in range(12):
            count = rng.randint(0, 8)
            pool = rng.sample(range(g.order), rng.randint(1, 3))  # few values, so terms repeat
            terms = tuple(sorted(rng.choice(pool) for _ in range(count)))
            table = weighted_length_sums_oracle(Sequence.from_indices(g, terms), ws)
            for length in range(count + 2):
                want = 0 in table.get(length, ())
                assert oracle_terms_have_zero_of_length(g, ws, terms, length) == want, (w, terms, length)
                if 0 < length <= count:
                    sides.add(length <= count - length)
    assert sides == {True, False}


def test_oracle_takes_the_complement_for_one_class_when_cheaper_else_the_dp(monkeypatch):
    g = GroupSpec([2, 8])
    terms = (1, 2, 3, 5, 8, 9, 12, 14, 15)
    sides = []

    def spy(items, r):
        sides.append(r)
        return combinations(items, r)

    monkeypatch.setattr(sequences, "combinations", spy)
    for ws in (WeightSet.plus_minus(8), WeightSet.of(8, [1, 3, 5, 7])):
        for length in range(len(terms) + 2):
            oracle_terms_have_zero_of_length(g, ws, terms, length)
    assert sides == []
    for length in (2, 7, 8):  # kept side 2; dropped sides 9 - 7 and 9 - 8
        oracle_terms_have_zero_of_length(g, WeightSet.classic(8), terms, length)
    assert sides == [2, 2, 1]
    # egz C14's classic witness (0)^13;(1)^13 at length 14: the dropped side
    # has 12 terms, C(26, 12)*12 reads against the DP's 26*13*14 set updates;
    # at length 13 the kept side has 13; at length 25 the dropped side has 1
    witness = (0,) * 13 + (1,) * 13
    assert not oracle_terms_have_zero_of_length(GroupSpec([14]), WeightSet.classic(14), witness, 14)
    assert oracle_terms_have_zero_of_length(GroupSpec([14]), WeightSet.classic(14), witness, 13)
    assert not oracle_terms_have_zero_of_length(GroupSpec([14]), WeightSet.classic(14), witness, 25)
    assert sides == [2, 2, 1, 1]
    # the census sample rule's price: the complement's reads for one class,
    # a recursion over weight assignments' for several
    assert oracle_ops(WeightSet.classic(8), 9, 8) == 9
    assert oracle_ops(WeightSet.classic(8), 9, 4) == math.comb(9, 4) * 4
    assert oracle_ops(WeightSet.plus_minus(8), 9, 8) == 9 * 2 ** 8 * 8
    assert oracle_ops(WeightSet.classic(8), 9, 10) == oracle_ops(WeightSet.classic(8), 9, 0) == 0


def test_oracle_nonempty_subsums_examples():
    g = GroupSpec([4])
    assert oracle_nonempty_subsums(Sequence.empty(g)) == set()
    assert oracle_nonempty_subsums(Sequence.parse(g, "1;2")) == {1, 2, 3}
    assert oracle_nonempty_subsums(Sequence.parse(g, "1;1;2")) == {1, 2, 3, 0}
    g2 = GroupSpec([2, 4])
    s = Sequence.parse(g2, "(1,1);(0,2)")
    got = oracle_nonempty_subsums(s)
    assert got == {g2.index_of((1, 1)), g2.index_of((0, 2)), g2.index_of((1, 3))}
