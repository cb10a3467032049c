"""Structure of extremal sequences for the squarefree constant.

The direct problem asks for the constant's value; the inverse problem asks
what the longest failing sequences look like.  This module enumerates the
complete census of maximal failing squarefree sequences and checks it against
structural descriptions of them: shape predicates that claim to characterize
the census for particular group families and weight sets.  A verification
run checks each census member with the theorem's predicate, and counts the
sequences of the theorem's shape exactly, with no listing and no search
(``_shape_count``).  Census members are distinct, so when every member
passes and the count equals the census size, the census is the predicate's
set.  Only when they disagree does the run filter every candidate index
tuple through the predicate, to name the sequences that only the predicate
accepts.  Each C2 x C2n theorem's groups, weight set and shape length are
written once, in ``_SCOPES``; the hypothesis checks, the predicates and the
counts all read it.

The paper states its shapes over C2 x C2n "for some basis (e1, e2)".  None
of them depends on the basis, so each predicate is a basis-free statement
about the classes of G/2G, the sum sigma(S) of the terms and negation, and
no predicate enumerates bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from math import comb
from typing import Callable, NamedTuple

from zerosum.engine import ConstantKind, InternalCheckError, failing_census
from zerosum.formulas import gw_equals_order_plus_one
from zerosum.groups import GroupSpec, coset_index_mod_2G, doubling_subgroup
from zerosum.sequences import (
    Sequence,
    WeightSet,
    _term_literals,
    enumerate_squarefree,
    has_weighted_zero_of_length,
    oracle_ops,
    oracle_terms_have_zero_of_length,
    sigma_index,
    subsum_kernel,
    subsums_sigma0,
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
    nodes_visited: int
    member_indices: tuple[tuple[int, ...], ...]  # each member's ascending element indices

    @cached_property
    def members(self) -> tuple[Sequence, ...]:
        """Each member as a ``Sequence``, built on first use."""
        return tuple(Sequence.from_indices(self.group, idxs) for idxs in self.member_indices)

    def to_dict(self) -> dict:
        terms = _term_literals(self.group)
        return {
            "schema": 1,
            "type": "extremal_census",
            "group": self.group.spec_string,
            "weights": list(self.weights.classes),
            "value": self.value,
            "count": len(self.member_indices),
            # members are squarefree, so each literal joins its terms' literals
            "members": [";".join(terms[i] for i in idxs) for idxs in self.member_indices],
            "nodes_visited": self.nodes_visited,
        }


_FULL_ORACLE_OP_LIMIT = 2_000_000


def enumerate_extremal(group: GroupSpec, weights: WeightSet, *, node_budget: int | None = None) -> ExtremalCensus:
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
    smaller side of each kept/dropped split while that is cheap, else it
    runs a DP over lengths.  ``oracle_ops`` is the sample rule's price, not
    the oracle's cost: a DP over every pm member measured slower than the
    kernel re-check plus this sample, so the rule stays as it is."""
    report, found = failing_census(ConstantKind.HARBORTH, group, weights, node_budget=node_budget)
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
    for i, idxs in enumerate(census):
        if not _is_squarefree_of_length(idxs, length):
            literal = Sequence.from_indices(group, idxs).literal()
            raise InternalCheckError(f"census member {literal} is not squarefree of length {length}")
        shared = 0
        for a, b in zip(previous, idxs):
            if a != b:
                break
            shared += 1
        for j in range(shared, length):
            words[j + 1] = push(words[j], idxs[j])
        if words[length] >> top & 1 or (i in sample and oracle_terms_have_zero_of_length(group, weights, idxs, exp)):
            literal = Sequence.from_indices(group, idxs).literal()
            raise InternalCheckError(f"census member {literal} has a weighted zero-sum of length {exp}")
        previous = idxs
    return ExtremalCensus(
        group=group,
        weights=weights,
        value=report.value,
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

class _Scope(NamedTuple):
    """One C2 x C2n theorem: the groups and the weight set it is about, and
    the length of its shapes."""

    groups: str  # as ``HypothesisError`` names them
    holds: Callable[[int], bool]  # whether C2 x C2n is in scope, from n
    weights: Callable[[int], WeightSet]  # the weight set, from exp(G)
    about: str  # that weight set, as ``HypothesisError`` names it
    length: Callable[[int], int]  # the shape length, from n


_SCOPES = {
    TheoremId.C2C4_PM: _Scope("C2 x C4", lambda n: n == 2,
                              WeightSet.plus_minus, "plus-minus weights", lambda n: 4),
    TheoremId.PM_GENERAL: _Scope("C2 x C2n with n >= 3", lambda n: n >= 3,
                                 WeightSet.plus_minus, "plus-minus weights", lambda n: 2 * n + 1),
    TheoremId.UNWEIGHTED_EVEN: _Scope("C2 x C2n with even n >= 4", lambda n: n >= 4 and n % 2 == 0,
                                      WeightSet.classic, "unweighted sums", lambda n: 2 * n + 1),
    TheoremId.UNWEIGHTED_ODD: _Scope("C2 x C2n with odd n >= 3", lambda n: n >= 3 and n % 2 == 1,
                                     WeightSet.classic, "unweighted sums", lambda n: 2 * n + 2),
}


@lru_cache(maxsize=64)
def _scope_n(theorem: TheoremId, group: GroupSpec) -> int:
    """The n of C2 x C2n when the group lies in the theorem's scope.

    Memoised, since every predicate call asks again; a group outside the
    scope is not cached and raises on every call."""
    scope = _SCOPES[theorem]
    n = group.shape_2x2n()
    if n is None or not scope.holds(n):
        raise HypothesisError(f"{theorem.value} needs {scope.groups}, got {group.describe()}")
    return n


def _shape_length(theorem: TheoremId, group: GroupSpec) -> int:
    """The length of the theorem's shapes on the group, which ``_scope_n``
    checks is in scope."""
    return _SCOPES[theorem].length(_scope_n(theorem, group))


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


def predicate_c2c4_pm(group: GroupSpec, idxs: tuple[int, ...]) -> bool:
    """Extremal shape over C2 x C4 with both signs allowed: the support meets
    exactly three of the four classes of G/2G.  A basis's halves are the two
    cosets of <e2>, two classes each, so the paper's splits along some basis
    (1 + 3, or 2 + 2 sharing one e2-coordinate with the leftover two summing
    to an odd multiple of e2) are the four-sets that fill one class and
    touch two more."""
    if not _is_squarefree_of_length(idxs, _shape_length(TheoremId.C2C4_PM, group)):
        return False
    coset = _coset_table(group)
    return len({coset[idx] for idx in idxs}) == 3


def predicate_pm_general(group: GroupSpec, idxs: tuple[int, ...]) -> bool:
    """Extremal shape over C2 x C2n (n >= 3) with both signs: the support
    occupies exactly three of the four classes modulo doubled elements, an odd
    number of terms in each.  Basis-free."""
    if not _is_squarefree_of_length(idxs, _shape_length(TheoremId.PM_GENERAL, group)):
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
    if not _is_squarefree_of_length(idxs, _shape_length(TheoremId.UNWEIGHTED_EVEN, group)):
        return False
    return sigma_index(group, idxs) not in idxs


def predicate_unweighted_odd(group: GroupSpec, idxs: tuple[int, ...]) -> bool:
    """Extremal shape over C2 x C2n (odd n >= 3), single positive weight:
    for some h with 2h = sigma(S), T = S - h meets -T exactly in G[2], the
    four elements with 2x = 0.  G[2] holds one element of each class of
    G/2G, so this is the paper's one of each opposite pair in every class;
    the class sizes follow from the length, and the in-class parts sum to
    sigma(T) = sigma(S) - (2n + 2)h = 0.  Translated by h, the test reads: S
    meets sigma(S) - S exactly in the halves of sigma(S).  (With no halves
    it fails anyway, as 2n + 2 terms fill some pair {x, sigma(S) - x}.)"""
    if not _is_squarefree_of_length(idxs, _shape_length(TheoremId.UNWEIGHTED_ODD, group)):
        return False
    sig = sigma_index(group, idxs)
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
    scope = _SCOPES.get(theorem)
    if scope is not None:
        expected = scope.weights(group.exponent)
        if weights is not None and weights != expected:
            raise HypothesisError(f"{theorem.value} is about {scope.about}, not {weights.label()}")
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


def _shape_count(theorem: TheoremId, group: GroupSpec, length: int) -> int:
    """The number of squarefree sequences of the length that the theorem's
    predicate accepts, counted without listing them and without the search.

    N = |G|, L is the length, and the four classes of G/2G have n elements
    each.  A length other than the theorem's has no shapes.

    - c2c4-pm (L = 4) and pm-general (L = 2n + 1): choose the class the
      support misses, then a, b, c terms of the other three, each from 1 to
      n, with a + b + c = L:  4 * sum C(n,a) C(n,b) C(n,c).  pm-general asks
      a, b and c to be odd as well.
    - unweighted-even (L = 2n + 1): sigma(S) lies in S exactly when
      S = {s} + T with sigma(T) = 0 and s not in T; then s = sigma(S), so
      each such S splits one way.  The count is C(N, L) - (N - L + 1) * Z,
      Z the number of (L - 1)-subsets of G with sum 0 (a DP by size and
      sum).
    - unweighted-odd (L = 2n + 2): for each sig in 2G, the four halves of
      sig plus one element of each of the other 2n - 2 pairs {x, sig - x},
      with sum sig (a DP over the pairs on the running sum).
    - full-group (L = N): the one sequence holding every element.
    """
    order = group.order
    if theorem is TheoremId.FULL_GROUP:
        return int(length == order)
    n = _scope_n(theorem, group)
    if length != _SCOPES[theorem].length(n):
        return 0
    add = group.add_table
    if theorem in (TheoremId.C2C4_PM, TheoremId.PM_GENERAL):
        odd = theorem is TheoremId.PM_GENERAL
        # ways[a]: a terms from one class, a >= 1 (and odd for pm-general)
        ways = [comb(n, a) if a and (a % 2 or not odd) else 0 for a in range(n + 1)]
        return 4 * sum(
            ways[a] * ways[b] * ways[length - a - b]
            for a in range(n + 1) for b in range(n + 1) if 0 <= length - a - b <= n
        )
    if theorem is TheoremId.UNWEIGHTED_EVEN:
        # by_sum[k][x]: the k-subsets of the elements seen so far with sum x
        by_sum = [[0] * order for _ in range(length)]
        by_sum[0][0] = 1
        for g in range(order):
            row = add[g]
            for k in range(min(g + 1, length - 1), 0, -1):
                below, here = by_sum[k - 1], by_sum[k]
                for x, subsets in enumerate(below):
                    if subsets:
                        here[row[x]] += subsets
        return comb(order, length) - (order - length + 1) * by_sum[length - 1][0]
    total = 0
    for sig in range(order):
        halves = [h for h in range(order) if add[h][h] == sig]
        if not halves:
            continue
        start = 0
        for h in halves:
            start = add[start][h]
        by_sum = [0] * order  # by_sum[x]: choices from the pairs so far with running sum x
        by_sum[start] = 1
        used = set(halves)
        for x in range(order):
            if x in used:
                continue
            y = add[x].index(sig)  # the y with x + y = sig
            used.update((x, y))
            step = [0] * order
            for acc, choices in enumerate(by_sum):
                if choices:
                    step[add[acc][x]] += choices
                    step[add[acc][y]] += choices
            by_sum = step
        total += by_sum[sig]
    return total


def verify_characterization(
    theorem: TheoremId,
    group: GroupSpec,
    weights: WeightSet | None = None,
    *,
    node_budget: int | None = None,
) -> CharacterizationReport:
    """Compare the searched census with the theorem's shapes.

    Every census member goes through the predicate, and ``_shape_count``
    counts the shapes.  When every member passes and the count equals the
    census size, the two sets are equal and nothing is enumerated.
    Otherwise the predicate filters every squarefree candidate of the census
    length, to list the shapes the census lacks; a filter whose size differs
    from the count raises ``InternalCheckError``, since then the count or a
    predicate is wrong."""
    w = check_theorem_hypotheses(theorem, group, weights)
    census = enumerate_extremal(group, w, node_budget=node_budget)
    predicate = _PREDICATES[theorem]
    members = census.member_indices
    length = census.value - 1
    rejected = [idxs for idxs in members if not predicate(group, idxs)]
    count = _shape_count(theorem, group, length)
    extra: list[tuple[int, ...]] = []
    if rejected or count != len(members):
        matched: set[tuple[int, ...]] = set()

        def visit(idxs):
            if predicate(group, idxs):
                matched.add(idxs)

        enumerate_squarefree(group, length, visit)
        if len(matched) != count:
            raise InternalCheckError(
                f"{theorem.value} on {group.spec_string}: the predicate accepts {len(matched)} "
                f"sequences of length {length}, the shape count is {count}"
            )
        extra = sorted(matched.difference(members))
    return CharacterizationReport(
        theorem=theorem,
        group=group,
        weights=w,
        value=census.value,
        census_size=len(members),
        predicate_size=count,
        only_in_census=tuple(Sequence.from_indices(group, idxs) for idxs in rejected),
        only_in_predicate=tuple(Sequence.from_indices(group, idxs) for idxs in extra),
        nodes_visited=census.nodes_visited,
    )


def check_doubled_subsums_full(seq: Sequence) -> bool:
    """For a maximal failing sequence over C2 x C2n (n >= 3, both signs), the
    doubled subsums of every one-term-removed subsequence fill the doubled
    subgroup.  Validates the input is such a sequence first."""
    group = seq.group
    if not seq.is_squarefree or seq.length != _shape_length(TheoremId.PM_GENERAL, group):
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
