"""Structure of extremal sequences for the squarefree constant.

The direct problem asks for the constant's value; the inverse problem asks
what the longest failing sequences look like.  This module enumerates the
complete census of maximal failing squarefree sequences and checks it against
structural descriptions of them: shape predicates that claim to characterize
the census for particular group families and weight sets.  A verification
run builds both sides independently, search on one side and the predicate
filter over all candidate sequences on the other, and reports the symmetric
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb

from zerosum.engine import ConstantKind, InternalCheckError, failing_census
from zerosum.formulas import gw_equals_order_plus_one
from zerosum.groups import GroupSpec, coset_index_mod_2G, doubling_subgroup, enumerate_bases_2x2n
from zerosum.sequences import (
    Sequence,
    WeightSet,
    enumerate_squarefree,
    has_weighted_zero_of_length,
    oracle_has_weighted_zero_of_length,
)


class HypothesisError(ValueError):
    """The group or weight set is outside the theorem's hypotheses."""


class TheoremId(str, Enum):
    C2C4_PM = "c2c4-pm"
    PM_GENERAL = "pm-general"
    UNWEIGHTED_EVEN = "unweighted-even"
    UNWEIGHTED_ODD = "unweighted-odd"
    FULL_GROUP = "full-group"


@dataclass(frozen=True)
class ExtremalCensus:
    group: GroupSpec
    weights: WeightSet
    value: int
    members: tuple[Sequence, ...]
    nodes_visited: int

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "type": "extremal_census",
            "group": self.group.spec_string,
            "weights": list(self.weights.classes),
            "value": self.value,
            "count": len(self.members),
            "members": [s.literal() for s in self.members],
            "nodes_visited": self.nodes_visited,
        }


_FULL_ORACLE_OP_LIMIT = 2_000_000


def enumerate_extremal(group: GroupSpec, weights: WeightSet, **opts) -> ExtremalCensus:
    """All squarefree sequences of the maximal failing length, re-validated
    and sorted by their index tuples."""
    report, census = failing_census(ConstantKind.HARBORTH, group, weights, **opts)
    members = tuple(sorted(census, key=lambda s: s.indices()))
    exp = group.exponent
    length = report.value - 1
    oracle_cost = comb(length, exp) * len(weights.classes) ** exp * exp if length >= exp else 0
    check_all = oracle_cost * len(members) <= _FULL_ORACLE_OP_LIMIT
    sample = set(range(len(members))) if check_all else set(
        i * (len(members) - 1) // 7 for i in range(8)
    )
    for i, s in enumerate(members):
        if not (s.is_squarefree and s.length == length):
            raise InternalCheckError(f"census member {s.literal()} is not squarefree of length {length}")
        if has_weighted_zero_of_length(s, weights, exp) or (
            i in sample and oracle_has_weighted_zero_of_length(s, weights, exp)
        ):
            raise InternalCheckError(f"census member {s.literal()} has a weighted zero-sum of length {exp}")
    return ExtremalCensus(
        group=group,
        weights=weights,
        value=report.value,
        members=members,
        nodes_visited=report.nodes_visited,
    )


# -- shape predicates --------------------------------------------------------------
#
# Each predicate answers: does this squarefree sequence have the shape the
# characterization ascribes to maximal failing sequences?  They take any
# sequence over an in-scope group and may return False for right-length
# sequences that fail the shape, so a census comparison is meaningful.


def _require_shape(seq: Sequence, n_parity: str | None, n_min: int) -> int:
    n = seq.group.shape_2x2n()
    if n is None:
        raise HypothesisError(f"group {seq.group.describe()} is not of shape C2 x C2n")
    if n < n_min:
        raise HypothesisError(f"needs n >= {n_min}, got n = {n}")
    if n_parity == "even" and n % 2 == 1:
        raise HypothesisError(f"needs even n, got n = {n}")
    if n_parity == "odd" and n % 2 == 0:
        raise HypothesisError(f"needs odd n, got n = {n}")
    return n


def _basis_split(basis, idxs: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Coordinates along e2 for the terms with e1-coordinate 0 and 1."""
    parts: tuple[list[int], list[int]] = ([], [])
    coords = basis.coords
    for idx in idxs:
        a1, a2 = coords[idx]
        parts[a1].append(a2)
    return parts


def predicate_c2c4_pm(seq: Sequence) -> bool:
    """Extremal shape over C2 x C4 with both signs allowed: for some basis the
    halves split 1 + 3, or split 2 + 2 sharing one element with the two leftover
    elements summing to an odd multiple of e2."""
    group = seq.group
    if group.invariant_factors != (2, 4):
        raise HypothesisError(f"characterization is specific to C2 x C4, not {group.describe()}")
    if not seq.is_squarefree or seq.length != 4:
        return False
    idxs = seq.indices()
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


@lru_cache(maxsize=64)
def _coset_table(group: GroupSpec) -> tuple[int, ...]:
    """``coset_index_mod_2G`` of every element index."""
    return tuple(coset_index_mod_2G(group, idx) for idx in range(group.order))


def _coset_counts_mod_doubles(seq: Sequence) -> list[int]:
    coset = _coset_table(seq.group)
    counts = [0, 0, 0, 0]
    for idx in seq.indices():
        counts[coset[idx]] += 1
    return counts


def _involution_coset_reps(group: GroupSpec) -> list[int]:
    """Representatives of G / 2G for C2 x C2n with odd n: zero and the three
    involutions, which then lie one in each nonzero class."""
    two_g = doubling_subgroup(group)
    reps = [0]
    for idx in range(1, group.order):
        if group.order_of_index(idx) == 2:
            if idx in two_g:
                raise InternalCheckError(f"involution {group.coords_of(idx)} lies in 2G")
            reps.append(idx)
    if len(reps) != 4:
        raise InternalCheckError("expected zero plus three involutions")
    return reps


@lru_cache(maxsize=64)
def _odd_layout(group: GroupSpec):
    """What predicate_unweighted_odd needs of a C2 x C2n group (odd n), as
    ``(halves, split, pair_masks)``: ``halves[x]`` lists every h with 2h = x,
    ``split[t]`` is ``(c, t - reps[c])`` for the class c of t, and each pair
    {g, -g} in 2G without 0 has one mask holding the bits of g and -g."""
    N = group.order
    two_g = doubling_subgroup(group)
    reps = _involution_coset_reps(group)
    split = []
    for t in range(N):
        for c, r in enumerate(reps):
            offset = group.add_indices(t, group.neg_index(r))
            if offset in two_g:
                split.append((c, offset))
                break
        else:
            raise InternalCheckError("element in no coset")
    halves: list[list[int]] = [[] for _ in range(N)]
    for h in range(N):
        halves[group.scale_index(2, h)].append(h)
    pair_masks = []
    seen = set()
    for g in two_g.indices():
        if g == 0 or g in seen:
            continue
        neg = group.neg_index(g)
        seen.update((g, neg))
        pair_masks.append(1 << g | 1 << neg)
    return tuple(map(tuple, halves)), tuple(split), tuple(pair_masks)


def predicate_pm_general(seq: Sequence) -> bool:
    """Extremal shape over C2 x C2n (n >= 3) with both signs: the support
    occupies exactly three of the four classes modulo doubled elements, an odd
    number of terms in each.  Basis-free."""
    n = _require_shape(seq, None, 3)
    if not seq.is_squarefree or seq.length != 2 * n + 1:
        return False
    counts = _coset_counts_mod_doubles(seq)
    return sum(1 for c in counts if c == 0) == 1 and all(c % 2 == 1 for c in counts if c)


def _pm_general_via_basis(seq: Sequence) -> bool:
    """Literal reading of the same shape: some basis splits the sequence into
    the four classes with one part empty and the rest of odd size."""
    n = _require_shape(seq, None, 3)
    if not seq.is_squarefree or seq.length != 2 * n + 1:
        return False
    idxs = seq.indices()
    for basis in enumerate_bases_2x2n(seq.group):
        sizes = [0, 0, 0, 0]
        for idx in idxs:
            a1, a2 = basis.coords[idx]
            sizes[a1 + 2 * (a2 % 2)] += 1
        if sum(1 for s in sizes if s == 0) == 1 and all(s % 2 == 1 for s in sizes if s):
            return True
    return False


def predicate_unweighted_even(seq: Sequence) -> bool:
    """Extremal shape over C2 x C2n (even n >= 4), single positive weight: for
    some basis, the total along e2 avoids the support of the odd-size half."""
    n = _require_shape(seq, "even", 3)
    if not seq.is_squarefree or seq.length != 2 * n + 1:
        return False
    idxs = seq.indices()
    for basis in enumerate_bases_2x2n(seq.group):
        s0, s1 = _basis_split(basis, idxs)
        total = (sum(s0) + sum(s1)) % (2 * n)
        odd_part = s0 if len(s0) % 2 == 1 else s1
        if total not in odd_part:
            return True
    return False


def predicate_unweighted_odd(seq: Sequence) -> bool:
    """Extremal shape over C2 x C2n (odd n >= 3), single positive weight: a
    translate of the sequence splits evenly across the four classes modulo
    doubled elements, taking one of each opposite pair within every class,
    with the in-class parts summing to zero."""
    n = _require_shape(seq, "odd", 3)
    if not seq.is_squarefree or seq.length != 2 * n + 2:
        return False
    group = seq.group
    add = group.add_table
    idxs = seq.indices()
    sig = 0
    for idx in idxs:
        sig = add[sig][idx]
    halves, split, pair_masks = _odd_layout(group)
    half = (n + 1) // 2
    for h in halves[sig]:
        translate = add[group.neg_index(h)]
        parts = [0, 0, 0, 0]  # in-class offsets of the translated terms, as bit masks
        total = 0
        for idx in idxs:
            c, offset = split[translate[idx]]
            parts[c] |= 1 << offset
            total = add[total][offset]
        if any(p.bit_count() != half for p in parts):
            continue
        # one of each opposite pair: a pair both in or both out fails
        if any((p & m) in (0, m) for p in parts for m in pair_masks):
            continue
        if total == 0:
            return True
    return False


def predicate_full_group(seq: Sequence) -> bool:
    """Extremal shape when the constant sits at |G| + 1: the sequence holding
    every group element once."""
    return seq == Sequence.full_squarefree(seq.group)


_PREDICATES = {
    TheoremId.C2C4_PM: predicate_c2c4_pm,
    TheoremId.PM_GENERAL: predicate_pm_general,
    TheoremId.UNWEIGHTED_EVEN: predicate_unweighted_even,
    TheoremId.UNWEIGHTED_ODD: predicate_unweighted_odd,
    TheoremId.FULL_GROUP: predicate_full_group,
}


def weights_for_theorem(theorem: TheoremId, group: GroupSpec, weights: WeightSet | None) -> WeightSet:
    """Resolve and hypothesis-check the weight set a characterization speaks about."""
    exp = group.exponent
    if theorem in (TheoremId.C2C4_PM, TheoremId.PM_GENERAL):
        expected = WeightSet.plus_minus(exp)
        if weights is not None and weights != expected:
            raise HypothesisError(f"{theorem.value} is about plus-minus weights, not {weights.label()}")
        return expected
    if theorem in (TheoremId.UNWEIGHTED_EVEN, TheoremId.UNWEIGHTED_ODD):
        expected = WeightSet.classic(exp)
        if weights is not None and weights != expected:
            raise HypothesisError(f"{theorem.value} is about unweighted sums, not {weights.label()}")
        return expected
    if weights is None:
        raise HypothesisError(f"{theorem.value} needs an explicit weight set")
    if weights.trivial:
        raise HypothesisError("weight sets containing class zero are out of scope")
    return weights


def check_theorem_hypotheses(theorem: TheoremId, group: GroupSpec, weights: WeightSet | None) -> WeightSet:
    w = weights_for_theorem(theorem, group, weights)
    if theorem is TheoremId.C2C4_PM:
        if group.invariant_factors != (2, 4):
            raise HypothesisError(f"{theorem.value} needs C2 x C4, got {group.describe()}")
    elif theorem is TheoremId.PM_GENERAL:
        n = group.shape_2x2n()
        if n is None or n < 3:
            raise HypothesisError(f"{theorem.value} needs C2 x C2n with n >= 3, got {group.describe()}")
    elif theorem is TheoremId.UNWEIGHTED_EVEN:
        n = group.shape_2x2n()
        if n is None or n < 3 or n % 2 == 1:
            raise HypothesisError(f"{theorem.value} needs C2 x C2n with even n >= 4, got {group.describe()}")
    elif theorem is TheoremId.UNWEIGHTED_ODD:
        n = group.shape_2x2n()
        if n is None or n < 3 or n % 2 == 0:
            raise HypothesisError(f"{theorem.value} needs C2 x C2n with odd n >= 3, got {group.describe()}")
    else:
        if not gw_equals_order_plus_one(group, w):
            raise HypothesisError(
                f"{theorem.value} applies only when the squarefree constant is |G| + 1"
            )
    return w


@dataclass(frozen=True)
class CharacterizationReport:
    theorem: TheoremId
    group: GroupSpec
    weights: WeightSet
    value: int
    census_size: int
    predicate_size: int
    only_in_census: tuple[Sequence, ...]
    only_in_predicate: tuple[Sequence, ...]
    nodes_visited: int

    @property
    def agree(self) -> bool:
        return not self.only_in_census and not self.only_in_predicate

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "type": "characterization_report",
            "theorem": self.theorem.value,
            "group": self.group.spec_string,
            "weights": list(self.weights.classes),
            "value": self.value,
            "census_size": self.census_size,
            "predicate_size": self.predicate_size,
            "agree": self.agree,
            "only_in_census": [s.literal() for s in self.only_in_census],
            "only_in_predicate": [s.literal() for s in self.only_in_predicate],
            "nodes_visited": self.nodes_visited,
        }


def verify_characterization(
    theorem: TheoremId,
    group: GroupSpec,
    weights: WeightSet | None = None,
    **opts,
) -> CharacterizationReport:
    """Compare the searched census with the predicate filter, member by member."""
    w = check_theorem_hypotheses(theorem, group, weights)
    census = enumerate_extremal(group, w, **opts)
    predicate = _PREDICATES[theorem]
    length = census.value - 1
    matched: list[Sequence] = []

    def visit(idxs):
        s = Sequence.from_indices(group, idxs)
        if predicate(s):
            matched.append(s)
        return True

    enumerate_squarefree(group, length, visit)
    census_set = set(census.members)
    predicate_set = set(matched)
    only_census = tuple(sorted(census_set - predicate_set, key=lambda s: s.indices()))
    only_predicate = tuple(sorted(predicate_set - census_set, key=lambda s: s.indices()))
    return CharacterizationReport(
        theorem=theorem,
        group=group,
        weights=w,
        value=census.value,
        census_size=len(census.members),
        predicate_size=len(matched),
        only_in_census=only_census,
        only_in_predicate=only_predicate,
        nodes_visited=census.nodes_visited,
    )


def check_doubled_subsums_full(seq: Sequence) -> bool:
    """For a maximal failing sequence over C2 x C2n (n >= 3, both signs), the
    doubled subsums of every one-term-removed subsequence fill the doubled
    subgroup.  Validates the input is such a sequence first."""
    from zerosum.sequences import subsums_sigma0

    group = seq.group
    n = _require_shape(seq, None, 3)
    if not seq.is_squarefree or seq.length != 2 * n + 1:
        raise ValueError("expected a maximal failing squarefree sequence of length 2n + 1")
    w = WeightSet.plus_minus(group.exponent)
    if has_weighted_zero_of_length(seq, w, group.exponent):
        raise ValueError("sequence is not failing, the statement does not apply")
    two_g = doubling_subgroup(group)
    for idx in seq.support_indices():
        rest = seq.remove_index(idx)
        if subsums_sigma0(rest).dilate(2) != two_g:
            return False
    return True
