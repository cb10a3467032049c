"""Extremal sequence census and structure predicate checks."""

import random

import pytest

from zerosum.groups import GroupSpec, parse_group
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
from zerosum.inverse import _pm_general_via_basis
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


# -- structure predicates on hand-built sequences -----------------------------------
# Each positive example is double-checked against the subset oracle: the predicate
# accepts exactly the sequences with no weighted zero-sum subsequence of length exp.


def test_predicate_c2c4_sizes_1_3():
    g = parse_group("2,4")
    s = seq_of(g, [(0, 0), (1, 0), (1, 1), (1, 2)])
    assert predicate_c2c4_pm(s)
    assert not oracle_has_weighted_zero_of_length(s, pm(4), 4)


def test_predicate_c2c4_sizes_2_2():
    g = parse_group("2,4")
    s = seq_of(g, [(0, 0), (0, 1), (1, 0), (1, 2)])
    assert predicate_c2c4_pm(s)
    assert not oracle_has_weighted_zero_of_length(s, pm(4), 4)


def test_predicate_c2c4_rejects():
    g = parse_group("2,4")
    s = seq_of(g, [(0, 0), (0, 1), (0, 2), (0, 3)])
    assert not predicate_c2c4_pm(s)
    assert oracle_has_weighted_zero_of_length(s, pm(4), 4)


def test_predicate_pm_general_three_odd_cosets():
    g = parse_group("2,6")
    s = seq_of(g, [(0, 0), (1, 0), (1, 2), (1, 4), (0, 1), (0, 3), (0, 5)])
    assert predicate_pm_general(s)
    assert not oracle_has_weighted_zero_of_length(s, pm(6), 6)


def test_predicate_pm_general_rejects_four_cosets():
    g = parse_group("2,6")
    s = seq_of(g, [(0, 0), (1, 0), (1, 2), (1, 4), (0, 1), (0, 3), (1, 1)])
    assert not predicate_pm_general(s)
    assert oracle_has_weighted_zero_of_length(s, pm(6), 6)


def test_predicate_unweighted_odd_accepts():
    g = parse_group("2,6")
    s = seq_of(g, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)])
    assert predicate_unweighted_odd(s)
    assert not oracle_has_weighted_zero_of_length(s, classic(6), 6)


def test_predicate_unweighted_odd_rejects():
    g = parse_group("2,6")
    s = seq_of(g, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 5)])
    assert not predicate_unweighted_odd(s)
    assert oracle_has_weighted_zero_of_length(s, classic(6), 6)


def test_predicate_unweighted_even_accepts():
    g = parse_group("2,8")
    s = seq_of(g, [(0, b) for b in range(8)] + [(1, 5)])
    assert predicate_unweighted_even(s)
    assert not oracle_has_weighted_zero_of_length(s, classic(8), 8)


def test_predicate_unweighted_even_rejects():
    g = parse_group("2,8")
    s = seq_of(g, [(0, 0), (0, 4), (1, 0), (1, 4), (0, 2), (0, 6), (1, 2), (1, 6), (0, 1)])
    assert not predicate_unweighted_even(s)
    assert oracle_has_weighted_zero_of_length(s, classic(8), 8)


def test_predicate_full_group():
    g = parse_group("2,2")
    assert predicate_full_group(Sequence.full_squarefree(g))
    assert not predicate_full_group(seq_of(g, [(0, 0), (0, 1), (1, 0)]))


def test_pm_general_coset_and_basis_forms_agree():
    # the coset-count form must match the literal per-basis split form everywhere
    g = parse_group("2,6")

    def check(idx):
        s = Sequence.from_indices(g, idx)
        assert predicate_pm_general(s) == _pm_general_via_basis(s)

    assert enumerate_squarefree(g, 7, check) == 792


def test_equal_groups_give_equal_verdicts():
    # two equal groups built apart: the per-group tables filled while judging
    # one must give the other the same verdicts
    a, b = GroupSpec([2, 10]), GroupSpec([2, 10])
    assert a == b and a is not b
    rng = random.Random(20)
    autos = a.automorphisms
    odd_shape = [(x, y) for x in (0, 1) for y in range(6)]
    pm_shape = [(x, y) for x in (0, 1) for y in range(0, 10, 2)] + [(0, 1)]

    def candidates(shape):
        # odd k: a uniform random subset; even k: an image of an accepted
        # shape under an automorphism and a translation, every other one
        # with a term swapped out
        for k in range(200):
            if k % 2:
                idxs = rng.sample(range(a.order), len(shape))
            else:
                perm, shift = rng.choice(autos), rng.randrange(a.order)
                idxs = [a.add_indices(perm[a.index_of(c)], shift) for c in shape]
                if k % 4 == 2:
                    idxs[rng.randrange(len(idxs))] = rng.choice(sorted(set(range(a.order)) - set(idxs)))
            yield idxs

    odd_verdicts = []
    for idxs in candidates(odd_shape):
        odd_verdicts.append(predicate_unweighted_odd(Sequence.from_indices(a, idxs)))
        assert predicate_unweighted_odd(Sequence.from_indices(b, idxs)) == odd_verdicts[-1], idxs
    pm_verdicts = []
    for idxs in candidates(pm_shape):
        sa, sb = Sequence.from_indices(a, idxs), Sequence.from_indices(b, idxs)
        pm_verdicts.append(predicate_pm_general(sb))
        assert predicate_pm_general(sa) == pm_verdicts[-1] == _pm_general_via_basis(sa), idxs
    assert set(odd_verdicts) == set(pm_verdicts) == {True, False}


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
