"""Exhaustive searches for weighted zero-sum constants.

Every constant here is ``1 + L`` where L is the largest length of a sequence
that fails the constant's property.  Failing sequences are closed under
taking subsequences, so the failing lengths form an initial segment and one
maximal search settles the value.

One walker does all the searching.  It builds sequences as chains from the
largest element index downward, which visits each fixed length in colex
order.  A node is one pushed child.  It carries the state of its partial
sequence (the per-length weighted subsum table, the kernel in
``zerosum.sequences``, or for davenport and the critical number the mask of
nonempty weighted subsums) and its live mask, the element indices it may
still push (``_walk``, ``_walk_parts``).  A state that shows a forbidden
zero-sum, or sums covering G, is dead, and so is every extension, which is
what keeps the walk far below the raw binomial counts; a child the state
already rules out is left out of the mask and never pushed.  A squarefree
chain whose mask, or a davenport or critical chain whose nonempty sums
(``_nonempty_engine``), leave it no room to beat the best is not extended.
A value search records each chain longer than the best so far, so its
first chain of the maximal length is the colex-least witness.  A census
runs the same walk but keeps the chains that tie the best so far, starting
over whenever the best grows, so at the end it holds every failing sequence
of the maximal length, in colex order, with the witness first.

Determinism contract: every search, a census included, is one sequential
walk whose nodes depend only on the search inputs.  Roots (topmost elements)
go in element order, and one bound, the best length so far, carries from
root to root.  One node budget covers the walk, and the walk stops at the
first node past it, so node counts, witnesses and budget aborts are
byte-stable across runs.  Reports carry no timing, so two identical
searches return equal reports; the CLI times its calls for ``--perf``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from math import gcd
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

    A plain value: every field follows from the search inputs, so identical
    searches give equal reports and byte-identical serializations.  Timing
    is the caller's to take (the CLI's ``--perf``).
    """

    kind: ConstantKind
    group: GroupSpec
    weights: WeightSet | None
    value: int
    witness: Sequence
    nodes_visited: int

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "type": "search_report",
            "kind": self.kind.value,
            "group": self.group.spec_string,
            "weights": list(self.weights.classes) if self.weights is not None else None,
            "value": self.value,
            "witness": self.witness.literal(),
            "nodes_visited": self.nodes_visited,
        }


def _node_budget(node_budget: int | None) -> int:
    if node_budget is None:
        return DEFAULT_NODE_BUDGET
    if node_budget < 0:
        raise SearchInputError(f"node budget must be nonnegative, got {node_budget}")
    return node_budget


# -- node state ----------------------------------------------------------------


def _nonempty_engine(group: GroupSpec, weights: WeightSet, dead_mask: int):
    """The mask of nonempty weighted subsums as ``(0, push, room)``.

    ``push(ne, g)`` returns the mask with g added, or ``None`` once it holds
    all of ``dead_mask``: bit 0 for a weighted zero-sum (davenport), the full
    mask for sums covering G (critical).  A davenport child g of a live node
    is dead exactly when some -w*g is a sum or 0, one AND before the push;
    coverage has no such test.

    ``room(ne) = N - 1 - |ne|``, N = |G|, bounds how many terms a live chain
    can still gain; this holds for every weight set.
      Davenport: if T = S*g has no weighted zero-sum, then with
      A0 = sums(S) | {0} and any w, A0 + w*g lies in sums(T), which avoids 0,
      so each term adds a nonzero sum and at most N - 1 - |ne| follow.
      Critical (classic weights, distinct nonzero terms, 0 may be a sum):
      A = ne | {0} grows as A -> A + {0, g}, and a term that does not grow A
      lies in Stab(A), hence in the stabiliser H of the final A.  If the
      final A is not G, at most N - |H| - |A| terms grow A and at most
      |H| - 1 lie in H; if it is G, 0 is never a sum and the davenport
      argument applies.  Either way at most N - 1 - |ne| terms follow.
    """
    translate = group.translate_bits
    scaled = weight_multiples(group, weights)
    pre = negated_multiples(group, weights) if dead_mask == 1 else (0,) * group.order
    top = group.order - 1

    def push(ne: int, g: int):
        with_empty = ne | 1  # translating the empty sum too adds each w*g itself
        if with_empty & pre[g]:
            return None
        new = ne
        for wg in scaled[g]:
            new |= translate(with_empty, wg)
        return None if new & dead_mask == dead_mask else new

    def room(ne: int) -> int:
        return top - ne.bit_count()

    return 0, push, room


# -- the walker -------------------------------------------------------------------


def _walk(start: int, init_state, push, *, dead=None, best: int, cap: int, squarefree: bool,
          ties: bool, budget: int, room=None):
    """Walk every live chain, one topmost element after another.

    A chain is a run of element indices, strictly decreasing when
    ``squarefree`` and nonincreasing otherwise, so chains come out in colex
    order.  Each node holds its live mask, the element indices it may still
    push, and pushes only those, lowest first.  The root's mask is ``start``;
    a child's is its parent's mask below it (at or below it when not
    ``squarefree``) less ``dead(state)``, a set of children that every push
    on the child's state would reject.  Dead sets only grow along a chain,
    so the mask holds every term any extension can add.

    The walk records the first chain longer than ``best`` each time it
    finds one, and ``best`` carries over from one root to the next; a chain
    of length ``cap`` sets ``best`` and ends the walk.  A squarefree child
    with fewer live positions below it than it needs to beat ``best`` (with
    ``ties``, to reach it) is skipped unpushed, and a live squarefree chain
    of length n is extended only when n plus the size of its mask can still
    beat ``best``; so is any chain with ``n + room(state)`` below that,
    when ``room`` bounds how many terms a chain can still gain
    (``_nonempty_engine`` gives it for davenport and the critical number).
    With ``ties`` every live chain of length ``best`` is a hit, and the hits
    start over whenever ``best`` grows.

    A value search starts at ``best = 0`` with a cap no failing chain can
    reach, and with ``ties`` its final hits are the census: every live chain
    of the longest length in colex order (the empty chain if none is
    longer).  A probe for length L starts at ``best = L - 1`` with
    ``cap = L`` and stops at the first chain that reaches L.

    A node is one push.  The walk counts its nodes from 0 and raises
    ``SearchBudgetExceeded`` at the first node that takes the count past
    ``budget``.  It recurses once per term, so the recursion limit is raised
    by ``cap`` while it runs.

    Returns ``(length, witness, hits, nodes)``: the longest chain found with
    its length (the first, so colex-least; ``None`` if none beat ``best``),
    the hits, and the walk's node count.
    """
    nodes = 0
    hits: list[tuple[int, ...]] = [()] if ties else []
    chain = [0] * cap  # chain[i] is the (i+1)-th term of the chain being grown
    best_chain = None
    reach = 1 if ties else 0  # with ties a chain only has to reach best, not beat it

    def grow(state, size: int, live: int) -> bool:
        """Push each child in the live mask after the chain; True ends the walk."""
        nonlocal nodes, best, best_chain, hits
        n = size + 1
        todo = live
        trimmed = -1  # the best the squarefree mask was last trimmed for
        while todo:
            if squarefree and best != trimmed:
                # skip the children with fewer than t live positions below
                # them, as a chain through one needs t more terms; a
                # position below t has fewer than t below it
                trimmed, t = best, best - size - reach
                if t > 0:
                    todo &= -1 << t
                    below = (live ^ todo).bit_count()
                    while below < t and todo:
                        todo &= todo - 1
                        below += 1
                    if not todo:
                        break
            low = todo & -todo
            todo ^= low
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes, budget)
            c = low.bit_length() - 1
            new = push(state, c)
            if new is None:
                continue
            chain[size] = c
            if n > best:
                best, best_chain = n, tuple(chain[:n])
                if ties:
                    hits = [best_chain]
                if n == cap:
                    return True
            elif ties and n == best:
                hits.append(tuple(chain[:n]))
            need = best + 1 - reach - n  # terms an extension still needs
            if room is not None and room(new) < need:
                continue
            child = live & (low - 1 if squarefree else (low << 1) - 1)
            if dead is not None:
                child &= ~dead(new)
            if child and (not squarefree or child.bit_count() >= need) and grow(new, n, child):
                return True
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + cap)
    try:
        grow(init_state, 0, start if dead is None else start & ~dead(init_state))
    finally:
        sys.setrecursionlimit(limit)
        # grow reaches itself through its closure; breaking the cycle frees
        # the walk's state now, not at some later cyclic collection
        grow = None
    return best, best_chain, hits, nodes


# -- search ------------------------------------------------------------------------


def _unit_scaled(weights: WeightSet) -> WeightSet | None:
    """V = -u^-1 * W for the least unit u in W (u = 1 for pm and classic), or
    ``None`` when W holds no unit.

    Scaling every weight by one unit scales every weighted sum by it, so V
    has the same zero-sums as W.  A table built on V holds -u^-1 * s for
    each sum s on W, so its row j - 1 lists exactly the g with u*g + s = 0
    for some s in row j - 1 on W: children that close a zero-sum of length
    j.  With W = {u} or W = {u, -u} (pm and classic) those are all of them.
    """
    m = weights.modulus
    u = next((w for w in weights.classes if gcd(w, m) == 1), None)
    if u is None:
        return None
    return WeightSet.of(m, [-pow(u, -1, m) * w for w in weights.classes])


def _walk_parts(kind: ConstantKind, group: GroupSpec, weights: WeightSet | None):
    """The kind's walk as ``(start, init_state, push, dead, room)``.

    ``dead(state)`` is a set of children every push on the state rejects,
    read off a kernel built on ``_unit_scaled`` weights: row exp - 1 of the
    table for harborth, egz and eta, the nonempty sums and 0 for davenport.
    The eta table starts with 0 in every row, not in row 0 alone, so row j
    holds the sums of length at most j, and a zero-sum of any length
    1..exp closes through row exp - 1 as one of length exp does for egz.
    ``dead`` is ``None`` for the critical number, whose dead children
    (those that cover G) no row shows, and for a weight set with no unit;
    ``push`` stays the exact judge either way.  The critical number's
    ``start`` leaves out 0, which is never a term of a zero-free set.
    """
    full = group.full_mask
    if kind is ConstantKind.CRITICAL:
        init_state, push, room = _nonempty_engine(group, WeightSet.classic(group.exponent), full)
        return full & ~1, init_state, push, None, room
    scaled = _unit_scaled(weights)
    exp = group.exponent
    if kind is ConstantKind.DAVENPORT:
        init_state, push, room = _nonempty_engine(group, scaled or weights, 1)

        def dead(ne: int) -> int:
            return ne | 1
    else:
        room = None
        init_state, push = subsum_kernel(group, scaled or weights, exp, (exp,))
        if kind is ConstantKind.ETA:
            init_state = sum(1 << j * group.order for j in range(exp + 1))
        shift = (exp - 1) * group.order

        def dead(word: int) -> int:
            return (word >> shift) & full
    return full, init_state, push, dead if scaled else None, room


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
) -> tuple[SearchReport, tuple[tuple[int, ...], ...] | None]:
    """One walk: the report with the value and its colex-least witness, and
    with ``want_census`` every failing sequence of the maximal length as an
    ascending index tuple, in colex order, from the same walk kept open for
    ties (else ``None``).  ``node_budget`` covers the walk."""
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
    exp = group.exponent
    start, init_state, push, dead, room = _walk_parts(kind, group, weights)

    # above every failing length: D(G) <= |G|, s(G) <= |G| + exp - 1, and a
    # squarefree chain has at most |G| terms; reaching it can only mean a bug
    cap = 4 * group.order + exp + 8
    squarefree = kind in (ConstantKind.HARBORTH, ConstantKind.CRITICAL)
    length, chain, hits, nodes = _walk(start, init_state, push, dead=dead, best=0, cap=cap,
                                       squarefree=squarefree, ties=want_census, budget=node_budget,
                                       room=room)
    _check(length < cap, f"failing lengths for {kind.value} on {group} stay below {cap}")

    value = length + 1
    witness = Sequence.from_indices(group, chain or ())
    _validate_witness(kind, group, weights, witness)
    _check(witness.length == value - 1, "witness length is one below the value")
    if kind in (ConstantKind.HARBORTH, ConstantKind.EGZ):
        _check(value >= exp, "value is at least exp(G)")
    if kind is ConstantKind.HARBORTH:
        _check(value <= group.order + 1, "value is at most |G| + 1")
    report = SearchReport(kind=kind, group=group, weights=weights, value=value,
                          witness=witness, nodes_visited=nodes)
    if not want_census:
        return report, None
    # a chain runs from its topmost element down, so reversed it ascends;
    # each hit is replaced in place, so one copy of the census is live
    for i, hit in enumerate(hits):
        hits[i] = hit[::-1]
    return report, tuple(hits)


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
    return _walk(group.full_mask, init_state, push, best=length - 1, cap=length, squarefree=squarefree,
                 ties=False, budget=node_budget)[0] == length
