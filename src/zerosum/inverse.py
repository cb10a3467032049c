"""Structure of extremal sequences for the squarefree constant.

The direct problem asks for the constant's value; the inverse problem asks
what the longest failing sequences look like.  This module enumerates the
complete census of maximal failing squarefree sequences and checks it against
structural descriptions of them: shape predicates that claim to characterize
the census for particular group families and weight sets.  A verification
run builds both sides independently, search on one side and the predicate
filter over every candidate index tuple on the other, and reports the
symmetric difference.  Each theorem's group scope is written once, in
``_SCOPES``; the hypothesis check and the predicates both read it.

The paper states its shapes over C2 x C2n "for some basis (e1, e2)".  None
of them depends on the basis, so each predicate is a basis-free statement
about the classes of G/2G, the sum sigma(S) of the terms and negation, and
no predicate enumerates bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from zerosum.engine import ConstantKind, InternalCheckError
# bound under the engine's census name, which the benchmark's span recorder wraps
from zerosum.engine import failing_census_indices as failing_census
from zerosum.formulas import gw_equals_order_plus_one
from zerosum.groups import GroupSpec, coset_index_mod_2G, doubling_subgroup
from zerosum.sequences import (
    Sequence,
    WeightSet,
    enumerate_squarefree,
    has_weighted_zero_of_length,
    oracle_ops,
    oracle_terms_have_zero_of_length,
    subsum_kernel,
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
    member_indices: tuple[tuple[int, ...], ...]  # each member's ascending element indices

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
    """All squarefree sequences of the maximal failing length, sorted by their
    index tuples and re-validated: each is squarefree of that length, and
    neither a fresh subsum table nor (on every member while the cost allows,
    else on eight spread over the census) the oracle finds a weighted
    zero-sum of length exp(G).

    Sorted members share prefixes, and a table word depends only on the
    terms pushed so far, so one kernel keeps the words of the previous
    member's prefixes and pushes only the suffix in which the next member
    differs; each member ends on the word a push from scratch gives.  The
    oracle shares nothing with the kernel: for one weight class it lists the
    smaller side of each kept/dropped split, else it recurses over weight
    assignments, and ``oracle_ops`` prices the one that runs."""
    report, found = failing_census(ConstantKind.HARBORTH, group, weights, **opts)
    census = tuple(sorted(found))
    exp = group.exponent
    length = report.value - 1
    check_all = oracle_ops(weights, length, exp) * len(census) <= _FULL_ORACLE_OP_LIMIT
    sample = set(range(len(census))) if check_all else set(
        i * (len(census) - 1) // 7 for i in range(8)
    )
    empty, push = subsum_kernel(group, weights, exp)
    top = exp * group.order  # bit 0 of row exp: a zero-sum of length exp
    words = [empty] * (length + 1)  # words[j]: the word after the previous member's first j terms
    previous: tuple[int, ...] = ()
    members = tuple(Sequence.from_indices(group, idxs) for idxs in census)
    for i, (idxs, s) in enumerate(zip(census, members)):
        if not _is_squarefree_of_length(idxs, length):
            raise InternalCheckError(f"census member {s.literal()} is not squarefree of length {length}")
        shared = 0
        for a, b in zip(previous, idxs):
            if a != b:
                break
            shared += 1
        for j in range(shared, length):
            words[j + 1] = push(words[j], idxs[j], j + 1)[0]
        if words[length] >> top & 1 or (i in sample and oracle_terms_have_zero_of_length(group, weights, idxs, exp)):
            raise InternalCheckError(f"census member {s.literal()} has a weighted zero-sum of length {exp}")
        previous = idxs
    return ExtremalCensus(
        group=group,
        weights=weights,
        value=report.value,
        members=members,
        nodes_visited=report.nodes_visited,
        member_indices=census,
    )


# -- shape predicates --------------------------------------------------------------
#
# Each predicate answers: does this squarefree sequence have the shape the
# characterization ascribes to maximal failing sequences?  They take the
# group and the sequence as a tuple of element indices, so a candidate never
# becomes a ``Sequence``.  A tuple of the wrong length or with a repeated
# index is not of the shape; a group outside the theorem's scope raises
# ``HypothesisError``.  They may return False for right-length tuples that
# fail the shape, so a census comparison is meaningful.

_SCOPES = {
    TheoremId.C2C4_PM: ("C2 x C4", lambda n: n == 2),
    TheoremId.PM_GENERAL: ("C2 x C2n with n >= 3", lambda n: n >= 3),
    TheoremId.UNWEIGHTED_EVEN: ("C2 x C2n with even n >= 4", lambda n: n >= 4 and n % 2 == 0),
    TheoremId.UNWEIGHTED_ODD: ("C2 x C2n with odd n >= 3", lambda n: n >= 3 and n % 2 == 1),
}


def _scope_n(theorem: TheoremId, group: GroupSpec) -> int:
    """The n of C2 x C2n when the group lies in the theorem's scope."""
    what, holds = _SCOPES[theorem]
    n = group.shape_2x2n()
    if n is None or not holds(n):
        raise HypothesisError(f"{theorem.value} needs {what}, got {group.describe()}")
    return n


def _is_squarefree_of_length(idxs: tuple[int, ...], length: int) -> bool:
    return len(idxs) == length and len(set(idxs)) == length


@lru_cache(maxsize=64)
def _coset_table(group: GroupSpec) -> tuple[int, ...]:
    """``coset_index_mod_2G`` of every element index."""
    return tuple(coset_index_mod_2G(group, idx) for idx in range(group.order))


@lru_cache(maxsize=64)
def _halves_table(group: GroupSpec) -> tuple[int, ...]:
    """Per element x: the bit mask of every h with 2h = x (0 off 2G)."""
    out = [0] * group.order
    for h in range(group.order):
        out[group.scale_index(2, h)] |= 1 << h
    return tuple(out)


def _sigma(group: GroupSpec, idxs: tuple[int, ...]) -> int:
    """The index of sigma(S), the sum of the terms."""
    add = group.add_table
    total = 0
    for idx in idxs:
        total = add[total][idx]
    return total


def predicate_c2c4_pm(group: GroupSpec, idxs: tuple[int, ...]) -> bool:
    """Extremal shape over C2 x C4 with both signs allowed: the support meets
    exactly three of the four classes of G/2G.  A basis's halves are the two
    cosets of <e2>, two classes each, so the paper's splits along some basis
    (1 + 3, or 2 + 2 sharing one e2-coordinate with the leftover two summing
    to an odd multiple of e2) are the four-sets that fill one class and
    touch two more."""
    _scope_n(TheoremId.C2C4_PM, group)
    if not _is_squarefree_of_length(idxs, 4):
        return False
    coset = _coset_table(group)
    return len({coset[idx] for idx in idxs}) == 3


def predicate_pm_general(group: GroupSpec, idxs: tuple[int, ...]) -> bool:
    """Extremal shape over C2 x C2n (n >= 3) with both signs: the support
    occupies exactly three of the four classes modulo doubled elements, an odd
    number of terms in each.  Basis-free."""
    n = _scope_n(TheoremId.PM_GENERAL, group)
    if not _is_squarefree_of_length(idxs, 2 * n + 1):
        return False
    coset = _coset_table(group)
    counts = [0, 0, 0, 0]
    for idx in idxs:
        counts[coset[idx]] += 1
    return counts.count(0) == 1 and all(c % 2 == 1 for c in counts if c)


def predicate_unweighted_even(group: GroupSpec, idxs: tuple[int, ...]) -> bool:
    """Extremal shape over C2 x C2n (even n >= 4), single positive weight:
    sigma(S) is not a term of S.  The paper asks that, for some basis, the
    total along e2 avoid the e2-coordinates of the odd-size half; the
    coordinates of a basis are an isomorphism onto Z2 x Z2n, and sigma(S)
    has the e1-coordinate of the odd-size half, so every basis asks whether
    sigma(S) lies in S."""
    n = _scope_n(TheoremId.UNWEIGHTED_EVEN, group)
    if not _is_squarefree_of_length(idxs, 2 * n + 1):
        return False
    return _sigma(group, idxs) not in idxs


def predicate_unweighted_odd(group: GroupSpec, idxs: tuple[int, ...]) -> bool:
    """Extremal shape over C2 x C2n (odd n >= 3), single positive weight:
    for some h with 2h = sigma(S), T = S - h meets -T exactly in G[2], the
    four elements with 2x = 0.  G[2] holds one element of each class of
    G/2G, so this is the paper's one of each opposite pair in every class;
    the class sizes follow from the length, and the in-class parts sum to
    sigma(T) = sigma(S) - (2n + 2)h = 0.  Translated by h, the test reads: S
    meets sigma(S) - S exactly in the halves of sigma(S).  (With no halves
    it fails anyway, as 2n + 2 terms fill some pair {x, sigma(S) - x}.)"""
    n = _scope_n(TheoremId.UNWEIGHTED_ODD, group)
    if not _is_squarefree_of_length(idxs, 2 * n + 2):
        return False
    sig = _sigma(group, idxs)
    reflect = group.add_table[sig]
    neg = group.scale_table[-1]
    support = mirror = 0
    for idx in idxs:
        support |= 1 << idx
        mirror |= 1 << reflect[neg[idx]]
    return support & mirror == _halves_table(group)[sig]


def predicate_full_group(group: GroupSpec, idxs: tuple[int, ...]) -> bool:
    """Extremal shape when the constant sits at |G| + 1: the sequence holding
    every group element once."""
    return _is_squarefree_of_length(idxs, group.order)


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
    if theorem is not TheoremId.FULL_GROUP:
        _scope_n(theorem, group)
    elif not gw_equals_order_plus_one(group, w):
        raise HypothesisError(f"{theorem.value} applies only when the squarefree constant is |G| + 1")
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
    matched: set[tuple[int, ...]] = set()

    def visit(idxs):
        if predicate(group, idxs):
            matched.add(idxs)

    enumerate_squarefree(group, census.value - 1, visit)
    members = dict(zip(census.member_indices, census.members))
    only_census = tuple(s for idxs, s in members.items() if idxs not in matched)
    only_predicate = tuple(Sequence.from_indices(group, idxs) for idxs in sorted(matched - members.keys()))
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
    n = _scope_n(TheoremId.PM_GENERAL, group)
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
