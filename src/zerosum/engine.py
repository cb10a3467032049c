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
already rules out is left out of the mask and never pushed.  A chain whose
mask holds too few terms, or a davenport or critical chain whose nonempty
sums (``_nonempty_engine``) leave too little room, to beat the best is not
extended.

The walk runs over weight classes, not elements (``_classes``).  For u in
U_W, the units u with u*W = W (u = -1 for pm), replacing a term g by u*g
keeps every weighted sum, so whether a sequence fails depends only on the
multiset of its terms' U_W-orbits, and the walk uses one representative per
orbit, the orbit's top index.  A squarefree kind may use an orbit's members
from the top down, as many as it has.  Under classic weights, on groups of
exponent 2, and for the critical number every orbit is one element, and the
class walk is the element walk.  Walks record each chain longer than the
best so far, so the first chain of the maximal length is colex-least among
the chains walked; a census keeps the chains that tie the best so far,
starting over whenever the best grows.

A value search also forces symmetry (``_plan``).  Gamma, the automorphisms
of G composed with the translations that keep the property
(``zerosum.groups.symmetries``), maps failing sequences to failing ones,
so each failing sequence has an image that holds a fixed representative
of the last Gamma-orbit it meets and nothing from later orbits.  One job
per orbit forces that representative and walks the orbits up to it, and
each job splits again inside the stabiliser of what it forced, three
terms deep.

Determinism contract: a value search is the plan plus a probe.  The jobs
of the plan run in order, each pushing its forced terms and then walking
its start mask, and one bound, the best length so far, carries from job to
job; the maximal failing length L is the best at the end.  Then one probe
for L over the lowest members of each class (``_lowest_members``), whose
first chain is the colex-least witness.  A census is one class walk that
keeps its ties, each lifted to every failing sequence it stands for
(``_lift``) and sorted into colex order, with the witness first; with
one-element orbits the lift is the walk's own hits.
``failing_census`` returns the members as ascending index tuples, and
``Sequence.from_indices`` turns one into a sequence.  A census builds no
Gamma and no plan.  Every walk is sequential, and its nodes depend only on
the search inputs.  Roots (topmost elements) go in index order, and the
bound carries from root to root.  One node budget covers every forced push,
every job's walk and the probe, each counting on from the running total,
and a search stops at the first node past it, naming the job, the probe or
the class walk it stopped in, so node counts, witnesses and budget aborts
are byte-stable across runs.  Reports carry no timing, so two identical
searches return equal reports; the CLI times its calls for ``--perf``.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import gcd
from typing import Iterable

from zerosum.groups import GroupSpec, symmetries
from zerosum.sequences import (
    Sequence,
    WeightSet,
    _packed_ops,
    negated_multiples,
    oracle_has_weighted_zero_of_length,
    oracle_has_weighted_zero_up_to,
    oracle_nonempty_subsums,
    subsum_kernel,
)

DEFAULT_NODE_BUDGET = 50_000_000


class SearchBudgetExceeded(RuntimeError):
    """The search hit its node budget before finishing; no partial answer.

    ``nodes`` is the total the computation had used, ``budget + 1``, and
    ``phase`` the part of the search that used the last node: ``"class
    walk"``, ``"job i of m"`` of a value search's plan, or ``"witness
    probe"``.
    """

    def __init__(self, nodes: int, budget: int, phase: str = "class walk"):
        super().__init__(f"search exceeded node budget ({nodes} > {budget}) in {phase}")
        self.nodes = nodes
        self.budget = budget
        self.phase = phase


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


_MULTISET_KINDS = (ConstantKind.EGZ, ConstantKind.ETA, ConstantKind.DAVENPORT)
_FORCED_TERMS = 3  # a fourth forced term saved no nodes on the searches measured, and cost some


def _node_budget(node_budget: int | None) -> int:
    if node_budget is None:
        return DEFAULT_NODE_BUDGET
    if node_budget < 0:
        raise SearchInputError(f"node budget must be nonnegative, got {node_budget}")
    return node_budget


def _check_weights(group: GroupSpec, weights: WeightSet | None, who: str) -> None:
    """Refuse a missing weight set, or one whose modulus is not exp(G)."""
    if weights is None:
        raise SearchInputError(f"{who} needs a weight set")
    if weights.modulus != group.exponent:
        raise SearchInputError(f"weight modulus {weights.modulus} does not match exponent {group.exponent} of {group}")


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
    N = group.order
    shifted = _packed_ops(group, weights, 1)  # one row: each w*g's translate, moved up N bits
    pre = negated_multiples(group, weights) if dead_mask == 1 else (0,) * N
    top = N - 1

    def push(ne: int, g: int):
        with_empty = ne | 1  # translating the empty sum too adds each w*g itself
        if with_empty & pre[g]:
            return None
        new = ne | (shifted[g](with_empty) >> N)
        return None if new & dead_mask == dead_mask else new

    def room(ne: int) -> int:
        return top - ne.bit_count()

    return 0, push, room


# -- the walker -------------------------------------------------------------------


def _walk(start: int, init_state, push, *, below, unlock, width, levels, dead=None, best: int, cap: int,
          ties: bool, budget: int, room=None, spent: int = 0, phase: str = "class walk"):
    """Walk every live chain, one topmost element after another.

    A chain is a nonincreasing run of element indices, so chains come out
    in colex order.  Each node holds its live mask, the element indices it
    may still push, and pushes only those, lowest first.  The root's mask is
    ``start``; a child pushed as index c takes its parent's mask within
    ``below[c]`` (the indices below c, less c's class for the witness
    probe's bundles), adds ``unlock[c]`` (c itself for a multiset, the next
    lower member of c's orbit for a class walk of a squarefree kind, else
    nothing; see ``_classes`` and ``_lowest_members``), and drops
    ``dead(state)``, a set of children that every push on the child's state
    would reject.  Dead sets only grow along a chain, so the mask holds
    every term any extension can add.  Pushing c adds ``width[c]`` terms: 1,
    or for a bundle of the probe the members of c's class from c down.

    A term's capacity is how many times a chain may still use it and the
    members it unlocks: 1, plus one for each ``levels[j]`` that holds it.
    ``levels`` is ``None`` for a multiset, whose terms repeat without end.
    Otherwise a chain gains at most the capacity of its mask (a bundle's
    terms all lie in the mask too), so a child whose mask below it, with its
    own unlocks, holds too little capacity to beat ``best`` (with ``ties``,
    to reach it) is skipped unpushed, and a live chain of length n is
    extended only when n plus its mask's capacity can still beat ``best``;
    so is any chain with ``n + room(state)`` below that, when ``room``
    bounds how many terms a chain can still gain (``_nonempty_engine``
    gives it for davenport and the critical number).

    The walk records the first chain longer than ``best`` each time it
    finds one, and ``best`` carries over from one root to the next; a chain
    of length ``cap`` or more sets ``best`` and ends the walk.  With
    ``ties`` every live chain of length ``best`` is a hit, and the hits
    start over whenever ``best`` grows.

    A value search starts at ``best = 0`` with a cap no failing chain can
    reach, and with ``ties`` its final hits are every live chain of the
    longest length in colex order (the empty chain if none is longer).  A
    probe for length L starts at ``best = L - 1`` with ``cap = L`` and stops
    at the first chain that reaches L.

    A node is one push.  The walk counts its nodes on from ``spent`` and
    raises ``SearchBudgetExceeded`` in ``phase`` at the first node that
    takes the count past ``budget``.  It recurses once per push, so the
    recursion limit is raised by ``cap`` while it runs.

    Returns ``(length, witness, hits, nodes)``: the longest chain found with
    its length in terms (the first, so colex-least; ``None`` if none beat
    ``best``), the hits, and the node count at the end of the walk.  Chains
    and hits list the pushed indices, one per push.
    """
    nodes = spent
    hits: list[tuple[int, ...]] = [()] if ties else []
    chain = [0] * cap  # chain[i] is the (i+1)-th push of the chain being grown
    best_chain = None
    reach = 1 if ties else 0  # with ties a chain only has to reach best, not beat it
    if levels is None:
        capacity = None
    elif not levels:
        capacity = int.bit_count
    else:
        def capacity(mask: int) -> int:
            uses = mask.bit_count()
            for level in levels:
                uses += (mask & level).bit_count()
            return uses

    def grow(state, depth: int, size: int, live: int) -> bool:
        """Push each child in the live mask after the chain of ``depth``
        pushes and ``size`` terms; True ends the walk."""
        nonlocal nodes, best, best_chain, hits
        pushes = depth + 1
        todo = live
        trimmed = -1  # the best the mask was last trimmed for
        while todo:
            if capacity is not None and best != trimmed:
                # skip the children that cannot gain the t more terms a
                # chain through one needs: after c a chain gains at most the
                # capacity of the mask at or below c, less the one use of c
                # itself; a position below t has fewer than t below it
                trimmed, t = best, best - size - reach
                if t > 0:
                    todo &= -1 << t
                    held = capacity(live ^ todo)  # the capacity at or below the lowest child left
                    while todo:
                        low = todo & -todo
                        held += capacity(low)
                        if held > t:
                            break
                        todo ^= low
                    if not todo:
                        break
            low = todo & -todo
            todo ^= low
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes, budget, phase)
            c = low.bit_length() - 1
            new = push(state, c)
            if new is None:
                continue
            chain[depth] = c
            n = size + width[c]
            if n > best:
                best, best_chain = n, tuple(chain[:pushes])
                if ties:
                    hits = [best_chain]
                if n >= cap:
                    return True
            elif ties and n == best:
                hits.append(tuple(chain[:pushes]))
            need = best + 1 - reach - n  # terms an extension still needs
            if room is not None and room(new) < need:
                continue
            child = (live & below[c]) | unlock[c]
            if dead is not None:
                child &= ~dead(new)
            if child and (capacity is None or capacity(child) >= need) and grow(new, pushes, n, child):
                return True
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + cap)
    try:
        grow(init_state, 0, 0, start if dead is None else start & ~dead(init_state))
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


def _stabiliser(weights: WeightSet | None) -> tuple[int, ...]:
    """U_W, the units u modulo exp with u*W = W: (1, -1) for pm, (1,) for
    classic and for the critical number, which takes no weights."""
    if weights is None:
        return (1,)
    m, ws = weights.modulus, set(weights.classes)
    return tuple(u for u in range(1, m) if gcd(u, m) == 1 and {u * w % m for w in ws} == ws) or (1,)


def _classes(group: GroupSpec, units: tuple[int, ...], start: int, multiset: bool):
    """The class walk over the ``units``-orbits of ``start`` as
    ``(tops, moves, orbit)``: ``moves`` holds ``_walk``'s ``below``,
    ``unlock``, ``width`` and ``levels``, and ``orbit[c]`` is c's orbit, top
    first.

    Soundness: for u in U_W (``_stabiliser``), u*W = W, so a term g and u*g
    have the same weighted multiples {w*g}, and replacing g by u*g keeps
    every weighted sum of every subsequence.  So whether a sequence fails
    depends only on the multiset of its terms' orbits, and each multiset of
    orbits needs one representative.  The walk starts from the orbits' top
    indices, ``tops``.  A multiset kind unlocks c itself (``unlock[c]``), so
    a top repeats as often as a chain likes, and has no levels.  A
    squarefree kind may use up to k members of an orbit of size k, taken
    from the top down: pushing a member unlocks the next lower one, and
    ``levels[j]`` holds the indices with more than j members of their orbit
    below them, so the capacity ``_walk`` counts for an orbit's top is the
    orbit's size.  Either way each multiset of orbits is walked as exactly
    one chain, and ``_lift`` turns that chain back into every failing
    sequence it stands for.  With one-element orbits ``tops`` is ``start``,
    nothing is unlocked but a multiset's own index, and the class walk is
    the element walk.
    """
    n = group.order
    rows = [group.scale_table[u] for u in units]
    orbit = [tuple(sorted({row[c] for row in rows}, reverse=True)) for c in range(n)]
    tops = sum(1 << c for c in range(n) if start >> c & 1 and orbit[c][0] == c)
    moves = {"below": tuple((1 << c) - 1 for c in range(n)), "width": (1,) * n}
    if multiset:
        return tops, {**moves, "unlock": tuple(1 << c for c in range(n)), "levels": None}, orbit
    unlock, levels = [0] * n, []
    for c in range(n):
        lower = orbit[c][orbit[c].index(c) + 1:]
        if lower:
            unlock[c] = 1 << lower[0]
        for j in range(len(lower)):
            if j == len(levels):
                levels.append(0)
            levels[j] |= 1 << c
    return tops, {**moves, "unlock": tuple(unlock), "levels": tuple(levels)}, orbit


def _lowest_members(push, orbit, start: int, multiset: bool, moves: dict):
    """The witness probe's walk over the lowest members of each class, as
    ``(start, push, moves, bundles)``, from the class walk's ``orbit`` and
    ``moves``; ``bundles[c]`` lists the terms a push of c adds.

    Replacing a term by a lower member of its class keeps every weighted
    sum (``_classes``) and lowers the sequence in colex order, so the
    colex-least failing sequence of each length uses, in each class it
    meets, the class's lowest members.  A multiset kind walks each class's
    lowest index, repeated, with the class walk's moves.  A squarefree kind
    pushes a member c as a bundle with every lower member of its class,
    ``width[c]`` terms in all, and the child's mask drops the class, so each
    chain is one set closed downward within each class.  Where the pushes
    of two such sets of one length first differ, the colex-lower set
    pushes the lower index, and neither set adds a term above its own push
    from there on, so the walk meets them in colex order, and its first
    chain of length L is the colex-least failing L-set.  With one-element classes both walks are
    the element walk.
    """
    n = len(orbit)
    bundles = [members[members.index(c):] for c, members in enumerate(orbit)]
    if multiset:
        return sum(1 << c for c in range(n) if start >> c & 1 and orbit[c][-1] == c), push, moves, bundles
    moves = {"below": tuple(((1 << c) - 1) & ~sum(1 << g for g in orbit[c]) for c in range(n)),
             "unlock": (0,) * n, "width": tuple(map(len, bundles)), "levels": ()}
    if all(len(bundle) == 1 for bundle in bundles):
        return start, push, moves, bundles

    def push_bundle(state, c: int):
        for g in bundles[c]:
            state = push(state, g)
            if state is None:
                return None
        return state

    return start, push_bundle, moves, bundles


def _lift(hits: list[tuple[int, ...]], orbit, multiset: bool) -> list[tuple[int, ...]]:
    """Every failing chain from the class walk's representatives, in colex
    order: an orbit of size k used m times lifts to the m-subsets of its
    members (C(k, m) ways), or for a multiset to its size-m multisets."""
    pick = combinations_with_replacement if multiset else combinations
    lifted = []
    for hit in hits:
        used = Counter(orbit[c] for c in hit)
        for parts in product(*(pick(members, m) for members, m in used.items())):
            lifted.append(tuple(sorted((c for part in parts for c in part), reverse=True)))
    lifted.sort()  # chains run downward, so plain tuple order is colex order
    return lifted


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

    ``start`` is over elements; ``_classes`` cuts it to one index per
    U_W-orbit.  The masks stay exact there because every dead set is a
    union of orbits: its members are sums of terms v*g with v in V, and for
    u in U_W, u*V = V (V is a unit multiple of W), so u times such a sum is
    another one.  Whenever one member of an orbit is dead, all are.
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


@lru_cache(maxsize=64)
def _plan(kind: ConstantKind, group: GroupSpec, weights: WeightSet | None):
    """A value search as jobs ``(forced, start)``, in the order they run:
    the terms each chain of the job begins with, and the live mask its walk
    after them starts from.

    Soundness.  Every map of Gamma (``symmetries``) takes failing sequences
    to failing ones.  An automorphism keeps every weighted zero-sum.  A
    translation by h moves a weighted sum of exp terms by
    (w_1 + ... + w_exp)*h, which is 0 for every h under classic weights, and
    for h in G[2] under pm weights when exp is even (the w_i then sum to an
    even number); harborth and egz ask only about sums of exp terms, so
    those translations serve there, and no other kind or weight set takes
    one.  Each map commutes with every u in U_W (-h = h on G[2]), so Gamma
    permutes the classes of ``_classes`` and the forcing works on classes.

    Split the allowed classes into Gamma-orbits O_1, O_2, ..., smallest
    first, and let r_k be the top of the lowest class of O_k.  A failing
    sequence meets a last orbit O_k; some map takes one of its terms there
    to r_k and keeps the rest in O_1..O_k, so job k forces r_k and walks
    O_1..O_k, r_k's class one use short for a squarefree kind.  Inside job
    k the same argument runs on what the job may still add, with the maps
    that keep r_k's class (they hold all of U_W).  ``_FORCED_TERMS`` terms
    deep the job walks what is left.  A prefix whose allowed set runs out early is a
    job with an empty walk, and the search counts every live forced prefix
    as a chain, so every failing sequence has an image some job reaches.
    """
    start, init_state, _, dead, _ = _walk_parts(kind, group, weights)
    if dead is not None:
        start &= ~dead(init_state)  # 0 for eta and davenport
    multiset = kind in _MULTISET_KINDS
    orbit = _classes(group, _stabiliser(weights), start, multiset)[2]
    torsion = 1
    if kind in (ConstantKind.HARBORTH, ConstantKind.EGZ):
        if weights.classes == (1,):
            torsion = 0
        elif weights.modulus % 2 == 0 and weights.classes == (1, weights.modulus - 1):
            torsion = 2

    def split(forced: tuple[int, ...], allowed: int, maps) -> list:
        # forced: the class tops forced so far; allowed: the elements whose
        # classes a chain may still use; a job with none left stays as it is
        parts, left = [], allowed
        while left:
            x = (left & -left).bit_length() - 1
            part = 0
            for m in maps:
                part |= 1 << m[x]
            parts.append(part)
            left &= ~part
        parts.sort(key=int.bit_count)
        out, seen = [], 0
        for part in parts:
            seen |= part
            r = orbit[(part & -part).bit_length() - 1][0]
            members = sum(1 << c for c in orbit[r])
            rest = seen
            if not multiset and forced.count(r) + 1 == len(orbit[r]):
                rest &= ~members
            out.append((forced + (r,), rest, [m for m in maps if members >> m[r] & 1]))
        return out or [(forced, allowed, maps)]

    level = [((), start, symmetries(group, torsion))]
    for _ in range(_FORCED_TERMS):
        level = [job for node in level for job in split(*node)]
    jobs = []
    for forced, allowed, _ in level:
        terms = tuple(r if multiset else orbit[r][forced[:i].count(r)] for i, r in enumerate(forced))
        jobs.append((terms, sum(1 << (c if multiset else orbit[c][forced.count(c)])
                                for c in range(group.order) if allowed >> c & 1 and orbit[c][0] == c)))
    return tuple(jobs)


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
    """The report with the value and its colex-least witness, and with
    ``want_census`` every failing sequence of the maximal length as an
    ascending index tuple, in colex order (else ``None``).  The value entry
    points keep the report; ``failing_census`` keeps both.

    A value search runs the jobs of ``_plan`` to find the maximal failing
    length L, sharing the states of forced terms from one job to the next,
    and then a probe for L over the lowest class members for the witness.
    A census is one class walk (``_classes``) that keeps its ties, lifted
    (``_lift``) when some orbit has more than one member.  ``node_budget``
    covers the whole search."""
    if kind is ConstantKind.CRITICAL:
        if weights is not None:
            raise SearchInputError("the critical number takes no weight set")
        if group.order < 3:
            raise SearchInputError(f"critical number needs |G| >= 3, got {group.order}")
    else:
        _check_weights(group, weights, kind.value)
    node_budget = _node_budget(node_budget)
    exp = group.exponent
    start, init_state, push, dead, room = _walk_parts(kind, group, weights)
    multiset = kind in _MULTISET_KINDS
    tops, moves, orbit = _classes(group, _stabiliser(weights), start, multiset)

    # above every failing length: D(G) <= |G|, s(G) <= |G| + exp - 1, and a
    # squarefree chain has at most |G| terms; reaching it can only mean a bug
    cap = 4 * group.order + exp + 8
    if want_census:
        length, chain, hits, nodes = _walk(tops, init_state, push, **moves, dead=dead,
                                           best=0, cap=cap, ties=True, budget=node_budget, room=room)
        if tops != start:
            hits = _lift(hits, orbit, multiset)
        chain = hits[0]
    else:
        length = nodes = 0
        jobs = _plan(kind, group, weights)
        states, previous = [init_state], ()  # states[i]: the state after previous[:i]
        for i, (forced, mask) in enumerate(jobs):
            phase = f"job {i + 1} of {len(jobs)}"
            keep = 0
            while keep < min(len(forced), len(previous)) and forced[keep] == previous[keep]:
                keep += 1
            del states[keep + 1:]
            for c in forced[keep:]:
                state = states[-1]
                if state is not None and (dead is None or not dead(state) >> c & 1):
                    nodes += 1
                    if nodes > node_budget:
                        raise SearchBudgetExceeded(nodes, node_budget, phase)
                    state = push(state, c)
                    if state is not None:
                        length = max(length, len(states))
                else:
                    state = None
                states.append(state)
            previous = forced
            if states[-1] is not None and mask:
                found, _, _, nodes = _walk(mask, states[-1], push, **moves, dead=dead,
                                           best=length - len(forced), cap=cap - len(forced), ties=False,
                                           budget=node_budget, room=room, spent=nodes, phase=phase)
                length = len(forced) + found
                if length == cap:
                    break
    _check(length < cap, f"failing lengths for {kind.value} on {group} stay below {cap}")
    if not want_census:
        chain = ()
        if length:
            lowest, push, moves, bundles = _lowest_members(push, orbit, start, multiset, moves)
            found, heads, _, nodes = _walk(lowest, init_state, push, **moves, dead=dead,
                                           best=length - 1, cap=length, ties=False, budget=node_budget,
                                           room=room, spent=nodes, phase="witness probe")
            _check(found == length, "the probe finds the plan's length")
            chain = [g for c in heads for g in bundles[c]]

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


def harborth(group: GroupSpec, weights: WeightSet, *, node_budget: int | None = None) -> SearchReport:
    """Least g such that every squarefree sequence of length >= g has a
    weighted zero-sum subsequence of length exp(G)."""
    return _compute(ConstantKind.HARBORTH, group, weights, node_budget=node_budget)[0]


def egz(group: GroupSpec, weights: WeightSet, *, node_budget: int | None = None) -> SearchReport:
    """Least s such that every sequence of length >= s has a weighted
    zero-sum subsequence of length exp(G)."""
    return _compute(ConstantKind.EGZ, group, weights, node_budget=node_budget)[0]


def eta(group: GroupSpec, weights: WeightSet, *, node_budget: int | None = None) -> SearchReport:
    """Least e such that every sequence of length >= e has a nonempty
    weighted zero-sum subsequence of length <= exp(G)."""
    return _compute(ConstantKind.ETA, group, weights, node_budget=node_budget)[0]


def davenport(group: GroupSpec, weights: WeightSet, *, node_budget: int | None = None) -> SearchReport:
    """Least D such that every sequence of length >= D has a nonempty
    weighted zero-sum subsequence."""
    return _compute(ConstantKind.DAVENPORT, group, weights, node_budget=node_budget)[0]


def critical_number(group: GroupSpec, *, node_budget: int | None = None) -> SearchReport:
    """Least c such that every zero-free squarefree set of size >= c has
    nonempty subset sums covering all of G."""
    return _compute(ConstantKind.CRITICAL, group, None, node_budget=node_budget)[0]


def compute_constant(
    kind: ConstantKind, group: GroupSpec, weights: WeightSet | None, *, node_budget: int | None = None
) -> SearchReport:
    return _compute(kind, group, weights, node_budget=node_budget)[0]


def failing_census(
    kind: ConstantKind, group: GroupSpec, weights: WeightSet | None, *, node_budget: int | None = None
) -> tuple[SearchReport, tuple[tuple[int, ...], ...]]:
    """The report plus every failing sequence of the maximal failing length,
    each as its ascending tuple of element indices, in colex order, so the
    first is the witness's (``Sequence.from_indices`` builds a member)."""
    report, census = _compute(kind, group, weights, node_budget=node_budget, want_census=True)
    _check(census is not None, "a census search returns a census")
    return report, census


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
    every length in ``zero_lengths``.  One class walk (``_classes``) over a
    kernel on ``_unit_scaled`` weights, whose rows j - 1 for j in
    ``zero_lengths`` list the children that close a zero-sum of length j;
    it stops at the first such sequence."""
    _check_weights(group, weights, "exists_failing_sequence")
    zl = tuple(zero_lengths)
    if not all(isinstance(j, int) for j in zl + (length,)):
        raise SearchInputError(f"length and zero_lengths must be integers, got {length!r} and {list(zl)!r}")
    zl = tuple(sorted(set(zl)))
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
    scaled = _unit_scaled(weights)
    init_state, push = subsum_kernel(group, scaled or weights, cap, zl)
    full = group.full_mask
    shifts = tuple((j - 1) * group.order for j in zl)

    def dead(word: int) -> int:
        rows = 0
        for shift in shifts:
            rows |= word >> shift
        return rows & full

    tops, moves, _ = _classes(group, _stabiliser(weights), full, not squarefree)
    return _walk(tops, init_state, push, **moves, dead=dead if scaled and zl else None,
                 best=length - 1, cap=length, ties=False, budget=node_budget)[0] == length
