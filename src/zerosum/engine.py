"""Exhaustive searches for weighted zero-sum constants.

Every constant here is ``1 + L`` where L is the largest length of a sequence
that fails the constant's property.  Failing sequences are closed under
taking subsequences, so the failing lengths form an initial segment and one
maximal search settles the value.

One walker does all the searching.  It builds sequences as chains from the
largest element index downward, which visits each fixed length in colex
order.  A node carries the state of its partial sequence: the per-length
weighted subsum table (the kernel in ``zerosum.sequences``), or for davenport
and the critical number the mask of nonempty weighted subsums.  A node whose
state shows a forbidden zero-sum, or sums covering G, is dead, and so is
every extension, which is what keeps the walk far below the raw binomial
counts.  A value search records each chain longer than the best so far, so
its first chain of the maximal length is the colex-least witness.  A census
runs the same walk but keeps the chains that tie the best so far, starting
over whenever the best grows, so at the end it holds every failing sequence
of the maximal length, in colex order, with the witness first.

Determinism contract: every search, a census included, is one sequential
walk whose nodes depend only on the search inputs.  Roots (topmost elements)
go in element order, and one bound, the best length so far, carries from
root to root.  One node budget covers the walk, and the walk stops at the
first node past it, so node counts, witnesses and budget aborts are
byte-stable across runs.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from zerosum.groups import GroupSpec
from zerosum.sequences import (
    Sequence,
    WeightSet,
    negated_multiples,
    oracle_has_weighted_zero_of_length,
    oracle_has_weighted_zero_up_to,
    oracle_nonempty_subsums,
    subsum_kernel,
    weight_multiples,
)

DEFAULT_NODE_BUDGET = 50_000_000


class SearchBudgetExceeded(RuntimeError):
    """The search hit its node budget before finishing; no partial answer.

    ``nodes`` is the total the computation had used, ``budget + 1``.
    """

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"search exceeded node budget ({nodes} > {budget})")
        self.nodes = nodes
        self.budget = budget


class SearchInputError(ValueError):
    """The engine refuses its arguments; raised before any search starts."""


class InternalCheckError(RuntimeError):
    """A computed result failed an independent re-check: a bug, not bad input."""


def _check(ok: bool, what: str) -> None:
    """A result guard that, unlike ``assert``, survives ``python -O``."""
    if not ok:
        raise InternalCheckError(f"internal check failed: {what}")


class ConstantKind(str, Enum):
    DAVENPORT = "davenport"
    ETA = "eta"
    EGZ = "egz"
    HARBORTH = "harborth"
    CRITICAL = "critical"


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one constant computation.

    ``wall_time_ms`` is the only field that varies between identical runs;
    serialization leaves it out unless asked, so default reports are
    byte-identical across runs.
    """

    kind: ConstantKind
    group: GroupSpec
    weights: WeightSet | None
    value: int
    witness: Sequence
    nodes_visited: int
    wall_time_ms: float

    def to_dict(self, include_perf: bool = False) -> dict:
        out = {
            "schema": 1,
            "type": "search_report",
            "kind": self.kind.value,
            "group": self.group.spec_string,
            "weights": list(self.weights.classes) if self.weights is not None else None,
            "value": self.value,
            "witness": self.witness.literal(),
            "nodes_visited": self.nodes_visited,
        }
        if include_perf:
            out["wall_time_ms"] = round(self.wall_time_ms, 3)
        return out


def _node_budget(node_budget: int | None) -> int:
    if node_budget is None:
        return DEFAULT_NODE_BUDGET
    if node_budget < 0:
        raise SearchInputError(f"node budget must be nonnegative, got {node_budget}")
    return node_budget


# -- node state ----------------------------------------------------------------


def _nonempty_engine(group: GroupSpec, weights: WeightSet, dead_mask: int):
    """The mask of nonempty weighted subsums as ``(0, push)``; a node is dead
    once its mask holds all of ``dead_mask``: bit 0 for a weighted zero-sum
    (davenport), the full mask for sums covering G (critical).  A davenport
    child g of a live node is dead exactly when some -w*g is a sum or 0, one
    AND before the push; coverage has no such test."""
    translate = group.translate_bits
    scaled = weight_multiples(group, weights)
    pre = negated_multiples(group, weights) if dead_mask == 1 else (0,) * group.order

    def push(ne: int, g: int, new_size: int):
        with_empty = ne | 1  # translating the empty sum too adds each w*g itself
        if with_empty & pre[g]:
            return ne, True
        new = ne
        for wg in scaled[g]:
            new |= translate(with_empty, wg)
        return new, new & dead_mask == dead_mask

    return 0, push


# -- the walker -------------------------------------------------------------------


def _walk(universe, init_state, push, *, best: int, cap: int, squarefree: bool,
          ties: bool, nodes: int, budget: int):
    """Walk every live chain, one topmost position after another.

    A chain is a run of positions into ``universe``, strictly decreasing when
    ``squarefree`` and nonincreasing otherwise, so chains come out in colex
    order.  The walk records the first chain longer than ``best`` each time
    it finds one, and ``best`` carries over from one root to the next; a
    chain of length ``cap`` sets ``best`` and ends the walk.  Squarefree
    chains that cannot get longer than ``best`` are pruned, or with ``ties``
    only those that cannot reach it.  With ``ties`` every live chain of
    length ``best`` is a hit, and the hits start over whenever ``best``
    grows.

    A value search starts at ``best = 0`` with a cap no failing chain can
    reach, and with ``ties`` its final hits are the census: every live chain
    of the longest length in colex order (the empty chain if none is
    longer).  A probe for length L starts at ``best = L - 1`` with
    ``cap = L`` and stops at the first chain that reaches L.

    ``nodes`` is the count used before this walk; the walk raises
    ``SearchBudgetExceeded`` at the first node that takes it past ``budget``.
    It recurses once per term, so the recursion limit is raised by ``cap``
    while it runs.

    Returns ``(length, witness, hits, nodes)``: the longest chain found with
    its length (the first, so colex-least; ``None`` if none beat ``best``),
    the hits, and the node count including this walk.
    """
    hits: list[tuple[int, ...]] = [()] if ties else []
    chain: list[int] = []
    best_chain = None
    reach = 1 if ties else 0  # with ties a chain only has to reach best, not beat it

    def grow(state, size: int, children) -> bool:
        """Try each child position after the live chain; True ends the walk."""
        nonlocal nodes, best, best_chain, hits
        n = size + 1
        for c in children:
            if squarefree and c < best - size - reach:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes, budget)
            new, dead = push(state, universe[c], n)
            if dead:
                continue
            chain.append(c)
            if n > best:
                best, best_chain = n, tuple(chain)
                if ties:
                    hits = [best_chain]
                if n == cap:
                    return True
            elif ties and n == best:
                hits.append(tuple(chain))
            below = range(max(0, best - n - reach), c) if squarefree else range(c + 1)
            if grow(new, n, below):
                return True
            chain.pop()
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + cap)
    try:
        grow(init_state, 0, range(len(universe)))
    finally:
        sys.setrecursionlimit(limit)
        # grow reaches itself through its closure; breaking the cycle frees
        # the walk's state now, not at some later cyclic collection
        grow = None
    return best, best_chain, hits, nodes


# -- search driver -----------------------------------------------------------------


@dataclass(frozen=True)
class MaxFailingResult:
    length: int
    witness: Sequence
    nodes_visited: int
    census: tuple[tuple[int, ...], ...] | None = None  # ascending index tuples


def _search_max_failing(
    group: GroupSpec,
    weights: WeightSet | None,
    kind: ConstantKind,
    *,
    node_budget: int,
    want_census: bool,
) -> MaxFailingResult:
    """One walk: the longest failing length and its colex-least witness, and
    with ``want_census`` every failing sequence of that length as an
    ascending index tuple, in colex order, from the same walk kept open for
    ties.  ``node_budget`` covers the walk."""
    squarefree = kind in (ConstantKind.HARBORTH, ConstantKind.CRITICAL)
    exp = group.exponent
    universe = tuple(range(1 if kind is ConstantKind.CRITICAL else 0, group.order))
    if kind is ConstantKind.CRITICAL:
        init_state, push = _nonempty_engine(group, WeightSet.classic(exp), group.full_mask)
    elif kind is ConstantKind.DAVENPORT:
        init_state, push = _nonempty_engine(group, weights, 1)
    else:
        zl = tuple(range(1, exp + 1)) if kind is ConstantKind.ETA else (exp,)
        init_state, push = subsum_kernel(group, weights, exp, zl)

    # above every failing length: D(G) <= |G|, s(G) <= |G| + exp - 1, and a
    # squarefree chain has at most |G| terms; reaching it can only mean a bug
    cap = 4 * group.order + exp + 8
    length, chain, hits, nodes = _walk(universe, init_state, push, best=0, cap=cap,
                                       squarefree=squarefree, ties=want_census,
                                       nodes=0, budget=node_budget)
    _check(length < cap, f"failing lengths for {kind.value} on {group} stay below {cap}")

    census = None
    if want_census:
        # a chain runs from its topmost position down, so reversed it ascends;
        # each hit is replaced in place, so one copy of the census is live
        for i, hit in enumerate(hits):
            hits[i] = tuple(universe[p] for p in reversed(hit))
        census = tuple(hits)
    witness = Sequence.from_indices(group, [universe[p] for p in chain or ()])
    return MaxFailingResult(length=length, witness=witness, nodes_visited=nodes, census=census)


def _validate_witness(kind: ConstantKind, group: GroupSpec, weights: WeightSet | None, witness: Sequence) -> None:
    """Re-check the witness through the independent oracles, never the kernel."""
    if kind is ConstantKind.CRITICAL:
        _check(witness.is_squarefree and witness.multiplicity(0) == 0,
               "critical witness is a zero-free set")
        _check(oracle_nonempty_subsums(witness) != set(range(group.order)),
               "critical witness leaves G uncovered")
        return
    exp = group.exponent
    if kind in (ConstantKind.HARBORTH, ConstantKind.EGZ):
        _check(not oracle_has_weighted_zero_of_length(witness, weights, exp),
               f"witness has no weighted zero-sum of length {exp}")
        if kind is ConstantKind.HARBORTH:
            _check(witness.is_squarefree, "harborth witness is squarefree")
    elif kind is ConstantKind.ETA:
        _check(not oracle_has_weighted_zero_up_to(witness, weights, exp),
               f"witness has no weighted zero-sum of length at most {exp}")
    else:  # davenport
        _check(not oracle_has_weighted_zero_up_to(witness, weights, witness.length),
               "witness has no nonempty weighted zero-sum")


def _compute(
    kind: ConstantKind,
    group: GroupSpec,
    weights: WeightSet | None,
    *,
    node_budget: int | None = None,
    want_census: bool = False,
):
    t0 = time.perf_counter()
    if kind is ConstantKind.CRITICAL:
        if weights is not None:
            raise SearchInputError("the critical number takes no weight set")
        if group.order < 3:
            raise SearchInputError(f"critical number needs |G| >= 3, got {group.order}")
    else:
        if weights is None:
            raise SearchInputError(f"{kind.value} needs a weight set")
        if weights.modulus != group.exponent:
            raise SearchInputError(
                f"weight modulus {weights.modulus} does not match exponent {group.exponent} of {group}"
            )
    node_budget = _node_budget(node_budget)
    result = _search_max_failing(group, weights, kind, node_budget=node_budget,
                                 want_census=want_census)
    value = result.length + 1
    _validate_witness(kind, group, weights, result.witness)
    _check(result.witness.length == value - 1, "witness length is one below the value")
    if kind in (ConstantKind.HARBORTH, ConstantKind.EGZ):
        _check(value >= group.exponent, "value is at least exp(G)")
    if kind is ConstantKind.HARBORTH:
        _check(value <= group.order + 1, "value is at most |G| + 1")
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report = SearchReport(
        kind=kind,
        group=group,
        weights=weights,
        value=value,
        witness=result.witness,
        nodes_visited=result.nodes_visited,
        wall_time_ms=wall_ms,
    )
    return report, result.census


def harborth(group: GroupSpec, weights: WeightSet, **opts) -> SearchReport:
    """Least g such that every squarefree sequence of length >= g has a
    weighted zero-sum subsequence of length exp(G)."""
    return _compute(ConstantKind.HARBORTH, group, weights, **opts)[0]


def egz(group: GroupSpec, weights: WeightSet, **opts) -> SearchReport:
    """Least s such that every sequence of length >= s has a weighted
    zero-sum subsequence of length exp(G)."""
    return _compute(ConstantKind.EGZ, group, weights, **opts)[0]


def eta(group: GroupSpec, weights: WeightSet, **opts) -> SearchReport:
    """Least e such that every sequence of length >= e has a nonempty
    weighted zero-sum subsequence of length <= exp(G)."""
    return _compute(ConstantKind.ETA, group, weights, **opts)[0]


def davenport(group: GroupSpec, weights: WeightSet, **opts) -> SearchReport:
    """Least D such that every sequence of length >= D has a nonempty
    weighted zero-sum subsequence."""
    return _compute(ConstantKind.DAVENPORT, group, weights, **opts)[0]


def critical_number(group: GroupSpec, **opts) -> SearchReport:
    """Least c such that every zero-free squarefree set of size >= c has
    nonempty subset sums covering all of G."""
    return _compute(ConstantKind.CRITICAL, group, None, **opts)[0]


def compute_constant(kind: ConstantKind, group: GroupSpec, weights: WeightSet | None, **opts) -> SearchReport:
    return _compute(kind, group, weights, **opts)[0]


def failing_census_indices(
    kind: ConstantKind, group: GroupSpec, weights: WeightSet | None, **opts
) -> tuple[SearchReport, tuple[tuple[int, ...], ...]]:
    """The report plus every failing sequence of the maximal failing length,
    each as its ascending tuple of element indices, in colex order."""
    report, census = _compute(kind, group, weights, want_census=True, **opts)
    _check(census is not None, "a census search returns a census")
    return report, census


def failing_census(
    kind: ConstantKind, group: GroupSpec, weights: WeightSet | None, **opts
) -> tuple[SearchReport, tuple[Sequence, ...]]:
    """The report plus every failing sequence of the maximal failing length,
    in colex order."""
    report, census = failing_census_indices(kind, group, weights, **opts)
    return report, tuple(Sequence.from_indices(group, idxs) for idxs in census)


def exists_failing_sequence(
    group: GroupSpec,
    weights: WeightSet,
    length: int,
    zero_lengths: Iterable[int],
    *,
    mode: str = "multiset",
    node_budget: int | None = None,
) -> bool:
    """Whether some length-``length`` sequence avoids weighted zero-sums at
    every length in ``zero_lengths``.  Exhaustive up to dead-branch pruning;
    the walk stops at the first such sequence."""
    zl = tuple(sorted(set(int(j) for j in zero_lengths)))
    if not zl or zl[0] < 1:
        raise SearchInputError("zero_lengths must be positive")
    if length < 0:
        raise SearchInputError(f"length must be nonnegative, got {length}")
    if mode not in ("squarefree", "multiset"):
        raise SearchInputError(f"unknown mode {mode!r}; expected 'squarefree' or 'multiset'")
    node_budget = _node_budget(node_budget)
    if length == 0:
        return True
    squarefree = mode == "squarefree"
    universe = tuple(range(group.order))
    if squarefree and length > group.order:
        return False
    # a zero-sum longer than the sequence cannot occur, so no row above
    # ``length`` is ever needed
    zl = tuple(j for j in zl if j <= length)
    cap = zl[-1] if zl else 0
    if not squarefree:
        # a failing multiset of length N*(cap-1) + 1 repeats some term cap
        # times, and more copies of it leave rows 0..cap as they are
        length = min(length, group.order * max(cap, 1) + 1)
    init_state, push = subsum_kernel(group, weights, cap, zl)
    return _walk(universe, init_state, push, best=length - 1, cap=length, squarefree=squarefree,
                 ties=False, nodes=0, budget=node_budget)[0] == length
