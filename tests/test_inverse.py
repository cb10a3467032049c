"""Extremal sequence census and structure predicate checks."""

import math
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import pytest

from zerosum import cli, inverse
from zerosum.engine import ConstantKind, InternalCheckError
from zerosum.groups import GroupElement, GroupSpec, doubling_subgroup, parse_group
from zerosum.inverse import (
    HypothesisError,
    TheoremId,
    check_doubled_subsums_full,
    check_theorem_hypotheses,
    enumerate_extremal,
    predicate_c2c4_pm,
    predicate_full_group,
    predicate_pm_general,
    predicate_unweighted_even,
    predicate_unweighted_odd,
    verify_characterization,
    weights_for_theorem,
)
from zerosum.inverse import _PREDICATES, _is_squarefree_of_length, _scope_n, _shape_count
from zerosum.sequences import (
    Sequence,
    WeightSet,
    enumerate_squarefree,
    oracle_has_weighted_zero_of_length,
)


def pm(n):
    return WeightSet.plus_minus(n)


def classic(n):
    return WeightSet.classic(n)


def seq_of(group, coords):
    return Sequence.from_elements(group, [group.element(c) for c in coords])


# -- census ------------------------------------------------------------------------


def test_census_c2c4_pm():
    g = parse_group("2,4")
    census = enumerate_extremal(g, pm(4))
    assert census.value == 5
    assert census.group is g
    assert len(census.members) == 48
    idx = [m.indices() for m in census.members]
    assert idx == sorted(idx)
    assert census.member_indices == tuple(idx)
    assert len(set(idx)) == len(idx)
    assert all(m.length == 4 and m.is_squarefree for m in census.members)


def test_census_members_are_failing():
    g = parse_group("2,4")
    census = enumerate_extremal(g, pm(4))
    for m in census.members[:6]:
        assert not oracle_has_weighted_zero_of_length(m, pm(4), 4)


def test_census_to_dict():
    g = parse_group("2,4")
    d = enumerate_extremal(g, pm(4)).to_dict()
    assert d["schema"] == 1
    assert d["type"] == "extremal_census"
    assert d["group"] == "2,4"
    assert d["count"] == 48
    assert len(d["members"]) == 48
    assert d["members"][0] == "(0,0);(1,0);(0,1);(0,2)"


def test_census_sizes_frozen():
    assert len(enumerate_extremal(parse_group("2,6"), pm(6)).members) == 36
    assert len(enumerate_extremal(parse_group("2,6"), classic(6)).members) == 18


def _bad_member(group, weights, census, how):
    """``(member, bad)``: a mid-census member and a non-member made from it
    by changing its last term, to one that closes a weighted zero-sum of
    length exp(G), to a repeat of the term before it, or by dropping it."""
    members = set(census)
    order = sorted(census)
    for idxs in order[len(order) // 2:]:
        head = idxs[:-1]
        if how == "repeated index":
            return idxs, head + (head[-1],)
        if how == "wrong length":
            return idxs, head
        for x in range(head[-1] + 1, group.order):
            bad = head + (x,)
            if bad not in members and oracle_has_weighted_zero_of_length(
                    Sequence.from_indices(group, bad), weights, group.exponent):
                return idxs, bad
    raise AssertionError("no zero-sum variant of a mid-census member")


@pytest.mark.parametrize("how", ["zero-sum", "repeated index", "wrong length"])
@pytest.mark.parametrize("spec, wspec", [("2,6", "pm"), ("2,8", "classic")])
def test_prefix_shared_recheck_catches_a_bad_member(spec, wspec, how, monkeypatch):
    g = parse_group(spec)
    w = WeightSet.parse(wspec, g.exponent)
    report, census = inverse.failing_census(ConstantKind.HARBORTH, g, w)
    member, bad = _bad_member(g, w, census, how)
    corrupted = tuple(bad if idxs == member else idxs for idxs in census)
    order = sorted(corrupted)
    at = order.index(bad)
    # mid-census, after a member that shares a prefix with it, so the check
    # reuses words pushed for that member
    assert 0 < at < len(order) - 1 and order[at - 1][:2] == bad[:2]
    monkeypatch.setattr(inverse, "failing_census", lambda *args, **opts: (report, corrupted))
    # with the oracle off, the kernel re-check alone has to catch a zero-sum
    monkeypatch.setattr(inverse, "oracle_terms_have_zero_of_length", lambda *args: False)
    name = re.escape(Sequence.from_indices(g, bad).literal())
    with pytest.raises(InternalCheckError, match=f"census member {name} (is not|has)"):
        enumerate_extremal(g, w)


@pytest.mark.parametrize("spec, wspec, size, sampled", [("2,8", "classic", 4896, None), ("2,10", "pm", 1260, 8),
                                                        ("4,4", "pm", 1152, None), ("2,8", "pm", 256, 8)])
def test_oracle_sample_rule(spec, wspec, size, sampled, monkeypatch):
    """The oracle checks every member while ``oracle_ops`` allows, else
    eight spread over the sorted census: all of 4,4 pm's members but eight
    of 2,8 pm's, although the length DP would check either in full."""
    g = parse_group(spec)
    w = WeightSet.parse(wspec, g.exponent)
    seen = []
    real = inverse.oracle_terms_have_zero_of_length

    def spy(group, weights, terms, length):
        seen.append(tuple(terms))
        return real(group, weights, terms, length)

    monkeypatch.setattr(inverse, "oracle_terms_have_zero_of_length", spy)
    idxs = [m.indices() for m in enumerate_extremal(g, w).members]
    assert len(idxs) == size
    if sampled is None:
        assert seen == idxs
    else:
        assert seen == [idxs[i * (size - 1) // (sampled - 1)] for i in range(sampled)]


# -- characterization agreement ----------------------------------------------------


def test_verify_c2c4_pm():
    r = verify_characterization(TheoremId.C2C4_PM, parse_group("2,4"))
    assert r.agree
    assert r.value == 5
    assert r.census_size == r.predicate_size == 48
    assert r.only_in_census == () and r.only_in_predicate == ()


def test_verify_pm_general():
    r = verify_characterization(TheoremId.PM_GENERAL, parse_group("2,6"))
    assert r.agree
    assert r.value == 8
    assert r.census_size == 36


def test_verify_unweighted_odd():
    r = verify_characterization(TheoremId.UNWEIGHTED_ODD, parse_group("2,6"))
    assert r.agree
    assert r.value == 9
    assert r.census_size == 18


def test_verify_full_group():
    r = verify_characterization(TheoremId.FULL_GROUP, parse_group("2,2"), classic(2))
    assert r.agree
    assert r.value == 5
    assert r.census_size == 1
    r = verify_characterization(TheoremId.FULL_GROUP, parse_group("6"), pm(6))
    assert r.agree
    assert r.census_size == 1


def test_report_to_dict():
    d = verify_characterization(TheoremId.C2C4_PM, parse_group("2,4")).to_dict()
    assert d["schema"] == 1
    assert d["type"] == "characterization_report"
    assert d["theorem"] == "c2c4-pm"
    assert d["agree"] is True
    assert d["only_in_census"] == []
    assert d["only_in_predicate"] == []


# -- shape counts and the disagreement path -----------------------------------------

# Every in-scope group with n <= 5, and the full-group cases: the filter over
# every candidate of the census length is the reference for the count.
COUNTED = [
    (TheoremId.C2C4_PM, "2,4", 4),
    (TheoremId.PM_GENERAL, "2,6", 7),
    (TheoremId.PM_GENERAL, "2,8", 9),
    (TheoremId.PM_GENERAL, "2,10", 11),
    (TheoremId.UNWEIGHTED_EVEN, "2,8", 9),
    (TheoremId.UNWEIGHTED_ODD, "2,6", 8),
    (TheoremId.UNWEIGHTED_ODD, "2,10", 12),
    (TheoremId.FULL_GROUP, "2,2", 4),
    (TheoremId.FULL_GROUP, "6", 6),
]


@pytest.mark.parametrize("theorem, spec, length", COUNTED, ids=[f"{t.value}-{spec}" for t, spec, _ in COUNTED])
def test_shape_count_equals_the_filter(theorem, spec, length):
    g = parse_group(spec)
    predicate = _PREDICATES[theorem]
    accepted = 0

    def visit(idxs):
        nonlocal accepted
        accepted += predicate(g, idxs)

    enumerate_squarefree(g, length, visit)
    assert accepted > 0
    assert _shape_count(theorem, g, length) == accepted
    # the predicates accept no other length, so neither does the count
    assert _shape_count(theorem, g, length - 1) == _shape_count(theorem, g, length + 1) == 0


def test_shape_count_at_2_12_equals_the_census_size():
    g = parse_group("2,12")
    assert _shape_count(TheoremId.PM_GENERAL, g, 13) == 8_640
    assert _shape_count(TheoremId.UNWEIGHTED_EVEN, g, 13) == 1_142_640


def _patch_theorem(monkeypatch, accepts, count_shift):
    """Make pm-general's predicate ``accepts(g, idxs, verdict)`` and shift its
    shape count by ``count_shift``; a theorem that is wrong about the census
    still has a count that matches its own predicate, so both move together."""
    real, real_count = _PREDICATES[TheoremId.PM_GENERAL], inverse._shape_count
    monkeypatch.setitem(_PREDICATES, TheoremId.PM_GENERAL,
                        lambda g, idxs: accepts(g, idxs, real(g, idxs)))
    monkeypatch.setattr(inverse, "_shape_count",
                        lambda *args: real_count(*args) + count_shift)


def test_a_rejected_member_is_only_in_census(monkeypatch, capsys):
    g = parse_group("2,8")
    members = enumerate_extremal(g, pm(8)).member_indices
    victim = members[len(members) // 2]
    _patch_theorem(monkeypatch, lambda g, idxs, verdict: verdict and idxs != victim, -1)
    r = verify_characterization(TheoremId.PM_GENERAL, g)
    assert not r.agree
    assert r.only_in_census == (Sequence.from_indices(g, victim),)
    assert r.only_in_predicate == ()
    assert (r.census_size, r.predicate_size) == (256, 255)
    assert cli.main(["verify", "--group", "2,8", "--theorem", "pm-general"]) == 2
    out = capsys.readouterr().out
    assert "verdict: DISAGREE" in out
    assert f"only in census: {Sequence.from_indices(g, victim).literal()}" in out


def test_an_extra_shape_is_only_in_predicate(monkeypatch):
    g = parse_group("2,8")
    members = set(enumerate_extremal(g, pm(8)).member_indices)
    extra = next(idxs for idxs in combinations(range(g.order), 9) if idxs not in members)
    _patch_theorem(monkeypatch, lambda g, idxs, verdict: verdict or idxs == extra, 1)
    r = verify_characterization(TheoremId.PM_GENERAL, g)
    assert not r.agree
    assert r.only_in_census == ()
    assert r.only_in_predicate == (Sequence.from_indices(g, extra),)
    assert (r.census_size, r.predicate_size) == (256, 257)


@pytest.mark.parametrize("count_shift, rejects_one", [(1, False), (-1, False), (0, True)],
                         ids=["count-too-high", "count-too-low", "predicate-off-its-count"])
def test_a_count_the_filter_contradicts_raises(monkeypatch, count_shift, rejects_one):
    g = parse_group("2,8")
    first = enumerate_extremal(g, pm(8)).member_indices[0]
    _patch_theorem(monkeypatch, lambda g, idxs, verdict: verdict and not (rejects_one and idxs == first),
                   count_shift)
    with pytest.raises(InternalCheckError, match="pm-general on 2,8: the predicate accepts"):
        verify_characterization(TheoremId.PM_GENERAL, g)


def test_an_agreeing_verify_lists_no_candidates_and_builds_no_members(monkeypatch):
    def no_filter(*args):
        raise AssertionError("an agreeing verify must not filter the candidates")

    built = []
    real = Sequence.from_indices.__func__
    monkeypatch.setattr(inverse, "enumerate_squarefree", no_filter)
    monkeypatch.setattr(Sequence, "from_indices",
                        classmethod(lambda cls, group, idxs: built.append(idxs) or real(cls, group, idxs)))
    r = verify_characterization(TheoremId.UNWEIGHTED_EVEN, parse_group("2,8"))
    assert r.agree
    assert r.census_size == r.predicate_size == 4_896
    assert len(built) <= 1  # the search report's witness


def test_scope_is_looked_up_once_per_theorem_and_group(monkeypatch):
    # the predicates reuse the scope verify has checked, not one lookup per
    # member; a group outside the scope raises the same error on every call
    calls = []
    real = GroupSpec.shape_2x2n
    monkeypatch.setattr(GroupSpec, "shape_2x2n", lambda self: calls.append(self) or real(self))
    _scope_n.cache_clear()
    r = verify_characterization(TheoremId.UNWEIGHTED_EVEN, parse_group("2,8"))
    assert r.agree and r.census_size == 4_896
    assert len(calls) == 1
    g = parse_group("2,6")
    for _ in range(2):
        with pytest.raises(HypothesisError, match=r"^unweighted-even needs C2 x C2n with even n >= 4, got C2 x C6$"):
            predicate_unweighted_even(g, (0, 1, 2))
    assert len(calls) == 3


# -- structure predicates on hand-built sequences -----------------------------------
# Each positive example is double-checked against the subset oracle: the predicate
# accepts exactly the sequences with no weighted zero-sum subsequence of length exp.


def test_predicate_c2c4_sizes_1_3():
    g = parse_group("2,4")
    s = seq_of(g, [(0, 0), (1, 0), (1, 1), (1, 2)])
    assert predicate_c2c4_pm(g, s.indices())
    assert not oracle_has_weighted_zero_of_length(s, pm(4), 4)


def test_predicate_c2c4_sizes_2_2():
    g = parse_group("2,4")
    s = seq_of(g, [(0, 0), (0, 1), (1, 0), (1, 2)])
    assert predicate_c2c4_pm(g, s.indices())
    assert not oracle_has_weighted_zero_of_length(s, pm(4), 4)


def test_predicate_c2c4_rejects():
    g = parse_group("2,4")
    s = seq_of(g, [(0, 0), (0, 1), (0, 2), (0, 3)])
    assert not predicate_c2c4_pm(g, s.indices())
    assert oracle_has_weighted_zero_of_length(s, pm(4), 4)


def test_predicate_pm_general_three_odd_cosets():
    g = parse_group("2,6")
    s = seq_of(g, [(0, 0), (1, 0), (1, 2), (1, 4), (0, 1), (0, 3), (0, 5)])
    assert predicate_pm_general(g, s.indices())
    assert not oracle_has_weighted_zero_of_length(s, pm(6), 6)


def test_predicate_pm_general_rejects_four_cosets():
    g = parse_group("2,6")
    s = seq_of(g, [(0, 0), (1, 0), (1, 2), (1, 4), (0, 1), (0, 3), (1, 1)])
    assert not predicate_pm_general(g, s.indices())
    assert oracle_has_weighted_zero_of_length(s, pm(6), 6)


def test_predicate_unweighted_odd_accepts():
    g = parse_group("2,6")
    s = seq_of(g, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)])
    assert predicate_unweighted_odd(g, s.indices())
    assert not oracle_has_weighted_zero_of_length(s, classic(6), 6)


def test_predicate_unweighted_odd_rejects():
    g = parse_group("2,6")
    s = seq_of(g, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 5)])
    assert not predicate_unweighted_odd(g, s.indices())
    assert oracle_has_weighted_zero_of_length(s, classic(6), 6)


def test_predicate_unweighted_even_accepts():
    g = parse_group("2,8")
    s = seq_of(g, [(0, b) for b in range(8)] + [(1, 5)])
    assert predicate_unweighted_even(g, s.indices())
    assert not oracle_has_weighted_zero_of_length(s, classic(8), 8)


def test_predicate_unweighted_even_rejects():
    g = parse_group("2,8")
    s = seq_of(g, [(0, 0), (0, 4), (1, 0), (1, 4), (0, 2), (0, 6), (1, 2), (1, 6), (0, 1)])
    assert not predicate_unweighted_even(g, s.indices())
    assert oracle_has_weighted_zero_of_length(s, classic(8), 8)


def test_predicate_full_group():
    g = parse_group("2,2")
    assert predicate_full_group(g, tuple(range(g.order)))
    assert not predicate_full_group(g, seq_of(g, [(0, 0), (0, 1), (1, 0)]).indices())


# -- the paper's literal basis readings, as test references -----------------------
#
# The paper states each C2 x C2n shape "for some basis (e1, e2)".  The
# predicates in ``zerosum.inverse`` are basis-free; the readings below try
# every basis, as the statements do, and the odd one lays G/2G out by coset
# representatives, zero and the three involutions.


@dataclass(frozen=True)
class Basis2x2n:
    """An ordered basis (e1, e2) of C2 + C2n with ord(e1)=2, ord(e2)=2n.

    ``coords`` maps each element index to its (a1, a2) coordinates in this
    basis; it doubles as the bijectivity certificate.
    """

    e1: GroupElement
    e2: GroupElement
    coords: tuple[tuple[int, int], ...]


@lru_cache(maxsize=64)
def enumerate_bases_2x2n(group: GroupSpec) -> tuple[Basis2x2n, ...]:
    """All ordered bases of a C2 + C2n group, sorted by (index(e1), index(e2)).
    Brute force: try every pair with the right element orders and keep it
    exactly when a1*e1 + a2*e2 hits every element once."""
    if group.shape_2x2n() is None:
        raise ValueError(f"basis enumeration needs a C2+C2n group, got {group}")
    exp = group.exponent
    N = group.order
    out = []
    for i in range(N):
        if group.order_of_index(i) != 2:
            continue
        for j in range(N):
            if group.order_of_index(j) != exp:
                continue
            coords = [None] * N
            seen = 0
            for a1 in range(2):
                acc = group.scale_index(a1, i)
                for a2 in range(exp):
                    coords[acc] = (a1, a2)
                    seen |= 1 << acc
                    acc = group.add_indices(acc, j)
            if seen == group.full_mask:
                out.append(Basis2x2n(GroupElement(group, i), GroupElement(group, j), tuple(coords)))
    return tuple(out)


def _basis_split(basis, idxs):
    """Coordinates along e2 for the terms with e1-coordinate 0 and 1."""
    parts = ([], [])
    for idx in idxs:
        a1, a2 = basis.coords[idx]
        parts[a1].append(a2)
    return parts


def _c2c4_pm_via_basis(group, idxs):
    """For some basis the halves split 1 + 3, or split 2 + 2 sharing one
    element with the two leftover elements summing to an odd multiple of e2."""
    _scope_n(TheoremId.C2C4_PM, group)
    if not _is_squarefree_of_length(idxs, 4):
        return False
    for basis in enumerate_bases_2x2n(group):
        s0, s1 = _basis_split(basis, idxs)
        sizes = sorted((len(s0), len(s1)))
        if sizes == [1, 3]:
            return True
        if sizes == [2, 2]:
            shared = set(s0) & set(s1)
            if len(shared) == 1:
                (g0,) = set(s0) - shared
                (g1,) = set(s1) - shared
                if (g0 + g1) % 4 in (1, 3):
                    return True
    return False


def _pm_general_via_basis(group, idxs):
    """Some basis splits the sequence into the four classes with one part
    empty and the rest of odd size."""
    n = _scope_n(TheoremId.PM_GENERAL, group)
    if not _is_squarefree_of_length(idxs, 2 * n + 1):
        return False
    for basis in enumerate_bases_2x2n(group):
        sizes = [0, 0, 0, 0]
        for idx in idxs:
            a1, a2 = basis.coords[idx]
            sizes[a1 + 2 * (a2 % 2)] += 1
        if sum(1 for s in sizes if s == 0) == 1 and all(s % 2 == 1 for s in sizes if s):
            return True
    return False


def _unweighted_even_via_basis(group, idxs):
    """For some basis, the total along e2 avoids the support of the odd-size
    half."""
    n = _scope_n(TheoremId.UNWEIGHTED_EVEN, group)
    if not _is_squarefree_of_length(idxs, 2 * n + 1):
        return False
    for basis in enumerate_bases_2x2n(group):
        s0, s1 = _basis_split(basis, idxs)
        total = (sum(s0) + sum(s1)) % (2 * n)
        odd_part = s0 if len(s0) % 2 == 1 else s1
        if total not in odd_part:
            return True
    return False


@lru_cache(maxsize=64)
def _odd_layout(group):
    """``(halves, split, pair_masks)`` of a C2 x C2n group (odd n), with zero
    and the three involutions as representatives of G / 2G: ``halves[x]``
    lists every h with 2h = x, ``split[t]`` is ``(c, t - reps[c])`` for the
    class c of t, and each pair {g, -g} in 2G without 0 has one mask holding
    the bits of g and -g."""
    N = group.order
    two_g = doubling_subgroup(group)
    reps = [0] + [idx for idx in range(1, N) if group.order_of_index(idx) == 2]
    assert len(reps) == 4 and not any(r in two_g for r in reps[1:])
    split = []
    for t in range(N):
        (c,) = [c for c, r in enumerate(reps) if group.add_indices(t, group.neg_index(r)) in two_g]
        split.append((c, group.add_indices(t, group.neg_index(reps[c]))))
    halves = [[] for _ in range(N)]
    for h in range(N):
        halves[group.scale_index(2, h)].append(h)
    pair_masks = {1 << g | 1 << group.neg_index(g) for g in two_g.indices() if g}
    return halves, split, sorted(pair_masks)


def _unweighted_odd_via_layout(group, idxs):
    """A translate of the sequence splits evenly across the four classes
    modulo doubled elements, taking one of each opposite pair within every
    class, with the in-class parts summing to zero."""
    n = _scope_n(TheoremId.UNWEIGHTED_ODD, group)
    if not _is_squarefree_of_length(idxs, 2 * n + 2):
        return False
    add = group.add_table
    sig = 0
    for idx in idxs:
        sig = add[sig][idx]
    halves, split, pair_masks = _odd_layout(group)
    for h in halves[sig]:
        translate = add[group.neg_index(h)]
        parts = [0, 0, 0, 0]  # in-class offsets of the translated terms, as bit masks
        total = 0
        for idx in idxs:
            c, offset = split[translate[idx]]
            parts[c] |= 1 << offset
            total = add[total][offset]
        if any(p.bit_count() != (n + 1) // 2 for p in parts):
            continue
        # one of each opposite pair: a pair both in or both out fails
        if any((p & m) in (0, m) for p in parts for m in pair_masks):
            continue
        if total == 0:
            return True
    return False


REFERENCES = {
    TheoremId.C2C4_PM: _c2c4_pm_via_basis,
    TheoremId.PM_GENERAL: _pm_general_via_basis,
    TheoremId.UNWEIGHTED_EVEN: _unweighted_even_via_basis,
    TheoremId.UNWEIGHTED_ODD: _unweighted_odd_via_layout,
}


def _oracle_bases(group):
    # independent brute force: every ordered element pair with the right
    # orders, explicit bijection test
    found = []
    for i in range(group.order):
        if group.order_of_index(i) != 2:
            continue
        for j in range(group.order):
            if group.order_of_index(j) != group.exponent:
                continue
            hit = set()
            for a1 in range(2):
                for a2 in range(group.exponent):
                    x = group.add_indices(group.scale_index(a1, i), group.scale_index(a2, j))
                    hit.add(x)
            if len(hit) == group.order:
                found.append((i, j))
    return found


def test_enumerate_bases_against_oracle():
    for factors in [(2, 2), (2, 4), (2, 6)]:
        g = GroupSpec(factors)
        bases = enumerate_bases_2x2n(g)
        assert [(b.e1.index, b.e2.index) for b in bases] == sorted(_oracle_bases(g))
        for b in bases:
            assert b.e1.order == 2
            assert b.e2.order == g.exponent
            # coords table inverts a1*e1 + a2*e2
            for idx in range(g.order):
                a1, a2 = b.coords[idx]
                assert g.add_indices(g.scale_index(a1, b.e1.index), g.scale_index(a2, b.e2.index)) == idx


def test_klein_group_has_six_bases():
    assert len(enumerate_bases_2x2n(GroupSpec([2, 2]))) == 6


def test_bases_rejects_wrong_shape():
    with pytest.raises(ValueError):
        enumerate_bases_2x2n(GroupSpec([8]))
    with pytest.raises(ValueError):
        enumerate_bases_2x2n(GroupSpec([4, 4]))


def test_pm_general_coset_and_basis_forms_agree():
    # the coset-count form must match the literal per-basis split form everywhere
    g = parse_group("2,6")

    def check(idxs):
        assert predicate_pm_general(g, idxs) == _pm_general_via_basis(g, idxs)

    assert enumerate_squarefree(g, 7, check) == 792


def test_equal_groups_give_equal_verdicts():
    # two equal groups built apart: the per-group tables filled while judging
    # one must give the other the same verdicts
    a, b = GroupSpec([2, 10]), GroupSpec([2, 10])
    assert a == b and a is not b
    rng = random.Random(20)
    units = [u for u in range(1, a.exponent) if math.gcd(u, a.exponent) == 1]
    odd_shape = [(x, y) for x in (0, 1) for y in range(6)]
    pm_shape = [(x, y) for x in (0, 1) for y in range(0, 10, 2)] + [(0, 1)]

    def candidates(shape):
        # odd k: a uniform random subset; even k: an image of an accepted
        # shape under a unit multiplier x -> u*x (an automorphism) and a
        # translation, every other one with a term swapped out
        for k in range(200):
            if k % 2:
                idxs = rng.sample(range(a.order), len(shape))
            else:
                u, shift = rng.choice(units), rng.randrange(a.order)
                idxs = [a.add_indices(a.scale_index(u, a.index_of(c)), shift) for c in shape]
                if k % 4 == 2:
                    idxs[rng.randrange(len(idxs))] = rng.choice(sorted(set(range(a.order)) - set(idxs)))
            yield tuple(idxs)

    odd_verdicts = []
    for idxs in candidates(odd_shape):
        odd_verdicts.append(predicate_unweighted_odd(a, idxs))
        assert predicate_unweighted_odd(b, idxs) == odd_verdicts[-1], idxs
    pm_verdicts = []
    for idxs in candidates(pm_shape):
        pm_verdicts.append(predicate_pm_general(b, idxs))
        assert predicate_pm_general(a, idxs) == pm_verdicts[-1] == _pm_general_via_basis(a, idxs), idxs
    assert set(odd_verdicts) == set(pm_verdicts) == {True, False}


# Every candidate of a group, as ``verify`` sees them: the candidate length,
# the number of candidates and of accepted ones (the census size).
EXHAUSTIVE = [
    (TheoremId.C2C4_PM, "2,4", 4, 70, 48),
    (TheoremId.UNWEIGHTED_ODD, "2,6", 8, 495, 18),
    (TheoremId.UNWEIGHTED_EVEN, "2,8", 9, 11_440, 4_896),
    (TheoremId.UNWEIGHTED_ODD, "2,10", 12, 125_970, 260),
]


@pytest.mark.parametrize("theorem, spec, length, candidates, accepted", EXHAUSTIVE,
                         ids=[f"{t.value}-{spec}" for t, spec, *_ in EXHAUSTIVE])
def test_basis_free_form_matches_literal_reading_on_every_candidate(theorem, spec, length, candidates, accepted):
    g = parse_group(spec)
    predicate, reference = _PREDICATES[theorem], REFERENCES[theorem]
    verdicts = []
    for idxs in combinations(range(g.order), length):
        verdicts.append(predicate(g, idxs))
        assert verdicts[-1] == reference(g, idxs), idxs
    assert (len(verdicts), sum(verdicts)) == (candidates, accepted)


def _shape_of(theorem, g, rng):
    """A random sequence of the theorem's shape, built from the paper's
    description in the standard basis (1,0), (0,1)."""
    n = g.shape_2x2n()
    if theorem is TheoremId.PM_GENERAL:
        # three of the four classes of G/2G, an odd number of terms in each
        while True:
            sizes = [rng.randrange(1, n + 1, 2) for _ in range(2)]
            sizes.append(2 * n + 1 - sum(sizes))
            if 1 <= sizes[2] <= n and sizes[2] % 2:
                break
        idxs = []
        for c, k in zip(rng.sample(range(4), 3), sizes):
            idxs += [g.index_of((c % 2, c // 2 + 2 * j)) for j in rng.sample(range(n), k)]
        return tuple(idxs)
    if theorem is TheoremId.UNWEIGHTED_EVEN:
        # a uniform candidate the literal reading accepts (about half are)
        while True:
            idxs = tuple(rng.sample(range(g.order), 2 * n + 1))
            if _unweighted_even_via_basis(g, idxs):
                return idxs
    # odd n: G[2] plus one of each other opposite pair {x, -x}, summing to
    # zero, then translated by a random h
    neg = g.scale_table[-1]
    torsion = [x for x in range(g.order) if neg[x] == x]
    pairs = sorted({min(x, neg[x]) for x in range(g.order) if neg[x] != x})
    while True:
        t = torsion + [rng.choice((x, neg[x])) for x in pairs]
        total = 0
        for x in t:
            total = g.add_table[total][x]
        if total == 0:
            h = rng.randrange(g.order)
            return tuple(g.add_table[x][h] for x in t)


@pytest.mark.parametrize("theorem", [TheoremId.PM_GENERAL, TheoremId.UNWEIGHTED_EVEN, TheoremId.UNWEIGHTED_ODD],
                         ids=lambda t: t.value)
def test_basis_free_form_matches_literal_reading_on_generated_shapes(theorem):
    # every in-scope C2 x C2n up to the order ceiling: shapes built from the
    # paper's description, their images under x -> u*x + t for a unit u, and
    # the shapes with one term swapped for an element outside them
    predicate, reference = _PREDICATES[theorem], REFERENCES[theorem]
    rng = random.Random(7)
    verdicts = set()
    for n in range(3, 17):
        g = GroupSpec([2, 2 * n])
        try:
            _scope_n(theorem, g)
        except HypothesisError:
            continue
        units = [u for u in range(1, 2 * n) if math.gcd(u, 2 * n) == 1]
        for _ in range(12):
            shape = _shape_of(theorem, g, rng)
            assert reference(g, shape), (g, shape)
            u, t = rng.choice(units), rng.randrange(g.order)
            image = tuple(g.add_table[g.scale_index(u, x)][t] for x in shape)
            tries = [shape, image]
            for base in (shape, image):
                swapped = list(base)
                swapped[rng.randrange(len(base))] = rng.choice([x for x in range(g.order) if x not in base])
                tries.append(tuple(swapped))
            for idxs in tries:
                verdict = predicate(g, idxs)
                assert verdict == reference(g, idxs), (g, idxs)
                verdicts.add(verdict)
    assert verdicts == {True, False}


# An accepted tuple per theorem, from the hand-built examples above.
ACCEPTED = {
    TheoremId.C2C4_PM: ("2,4", [(0, 0), (1, 0), (1, 1), (1, 2)]),
    TheoremId.PM_GENERAL: ("2,6", [(0, 0), (1, 0), (1, 2), (1, 4), (0, 1), (0, 3), (0, 5)]),
    TheoremId.UNWEIGHTED_EVEN: ("2,8", [(0, b) for b in range(8)] + [(1, 5)]),
    TheoremId.UNWEIGHTED_ODD: ("2,6", [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]),
    TheoremId.FULL_GROUP: ("2,2", [(0, 0), (1, 0), (0, 1), (1, 1)]),
}


@pytest.mark.parametrize("theorem", list(ACCEPTED), ids=lambda t: t.value)
def test_predicate_rejects_wrong_length_and_repeated_index(theorem):
    predicate = _PREDICATES[theorem]
    spec, coords = ACCEPTED[theorem]
    g = parse_group(spec)
    t = seq_of(g, coords).indices()
    assert predicate(g, t)
    assert not predicate(g, t[:-1])
    assert not predicate(g, t + (t[0],))
    # every right-length tuple with one term replaced by a repeat of another
    for i in range(len(t)):
        for j in range(len(t)):
            if i != j:
                assert not predicate(g, t[:i] + (t[j],) + t[i + 1:]), (t, i, j)


SCOPE_GROUPS = ["2", "4", "6", "8", "2,2", "2,4", "2,6", "2,8", "2,10", "2,12", "2,14", "3,3", "4,4",
                "2,2,2", "2,2,4", "4,8"]


@pytest.mark.parametrize("theorem", [t for t in TheoremId if t is not TheoremId.FULL_GROUP],
                         ids=lambda t: t.value)
def test_predicate_scope_is_the_hypothesis_scope(theorem):
    predicate = _PREDICATES[theorem]
    verdicts = []
    for spec in SCOPE_GROUPS:
        g = parse_group(spec)
        try:
            check_theorem_hypotheses(theorem, g, None)
            in_scope = True
        except HypothesisError:
            in_scope = False
        try:
            predicate(g, (0, 1, 2))
            applies = True
        except HypothesisError:
            applies = False
        assert applies == in_scope, spec
        verdicts.append(in_scope)
    assert set(verdicts) == {True, False}


# -- hypothesis checking -------------------------------------------------------------


def test_weights_for_theorem_defaults():
    g = parse_group("2,4")
    assert weights_for_theorem(TheoremId.C2C4_PM, g, None).classes == (1, 3)
    g = parse_group("2,6")
    assert weights_for_theorem(TheoremId.UNWEIGHTED_ODD, g, None).classes == (1,)


def test_hypothesis_wrong_group_shape():
    with pytest.raises(HypothesisError):
        check_theorem_hypotheses(TheoremId.C2C4_PM, parse_group("2,6"), None)
    with pytest.raises(HypothesisError):
        check_theorem_hypotheses(TheoremId.PM_GENERAL, parse_group("3,3"), None)


def test_hypothesis_wrong_parity():
    with pytest.raises(HypothesisError):
        check_theorem_hypotheses(TheoremId.UNWEIGHTED_EVEN, parse_group("2,6"), None)
    with pytest.raises(HypothesisError):
        check_theorem_hypotheses(TheoremId.UNWEIGHTED_ODD, parse_group("2,8"), None)


def test_hypothesis_wrong_weights():
    with pytest.raises(HypothesisError):
        check_theorem_hypotheses(TheoremId.C2C4_PM, parse_group("2,4"), classic(4))
    with pytest.raises(HypothesisError):
        check_theorem_hypotheses(TheoremId.UNWEIGHTED_ODD, parse_group("2,6"), pm(6))


def test_hypothesis_full_group():
    with pytest.raises(HypothesisError):
        check_theorem_hypotheses(TheoremId.FULL_GROUP, parse_group("2,2"), None)
    # |G| + 1 does not hold for classic weights on C3, so the theorem does not apply
    with pytest.raises(HypothesisError):
        check_theorem_hypotheses(TheoremId.FULL_GROUP, parse_group("3"), classic(3))
    with pytest.raises(HypothesisError, match="^weight sets containing class zero are out of scope$"):
        verify_characterization(TheoremId.FULL_GROUP, parse_group("2,2"), WeightSet.of(2, [0, 1]))


# -- doubled subsums cover the doubled subgroup ---------------------------------------


def test_doubled_subsums_on_census_members():
    g = parse_group("2,6")
    census = enumerate_extremal(g, pm(6))
    for m in census.members[:8]:
        assert check_doubled_subsums_full(m)


def test_doubled_subsums_rejects_bad_input():
    g = parse_group("2,6")
    with pytest.raises(ValueError):
        check_doubled_subsums_full(seq_of(g, [(0, 1)]))
    # right length but not failing: support meets all four cosets of 2G
    s = seq_of(g, [(0, 0), (1, 0), (1, 2), (1, 4), (0, 1), (0, 3), (1, 1)])
    with pytest.raises(ValueError):
        check_doubled_subsums_full(s)
    h = parse_group("3,3")
    with pytest.raises(HypothesisError):
        check_doubled_subsums_full(Sequence.full_squarefree(h))
