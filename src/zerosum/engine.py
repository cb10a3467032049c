"""Exhaustive searches for weighted zero-sum constants.

Every constant here is ``1 + L`` where L is the largest length of a sequence
that fails the constant's property.  Failing sequences are closed under
taking subsequences, so the failing lengths form an initial segment and one
maximal search settles the value.

One walker does all the searching.  It builds sequences as chains from the
largest element index downward, which visits each fixed length in colex
order.  A node carries the per-length weighted subsum table of its partial
sequence (the kernel in ``zerosum.sequences``); a node whose table already
contains zero in a forbidden row is dead, and so is every extension, which
is what keeps the walk far below the raw binomial counts.  A value round
records each chain longer than the best so far, so its first chain of the
maximal length is the colex-least witness.  The same walk with the length
fixed lists every failing sequence of that length for a census.  With orbit
pruning, the value round walks the reversed universe and skips chains that
are not lex-least in their orbit under the group's automorphisms; an exact
scan then finds the witness.

Determinism contract: the set of nodes visited depends only on the search
inputs, never on the thread count.  The walk forks into one task per topmost
element; tasks never share discoveries mid-flight, and their results merge
in element order.  Reported node counts and witnesses are therefore
byte-stable across runs and across ``threads`` settings.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable

from zerosum.groups import GroupSpec
from zerosum.sequences import (
    Sequence,
    WeightSet,
    oracle_has_weighted_zero_of_length,
    oracle_has_weighted_zero_up_to,
    oracle_nonempty_subsums,
    subsum_kernel,
)

DEFAULT_NODE_BUDGET = 50_000_000


class SearchBudgetExceeded(RuntimeError):
    """The search hit its node budget before finishing; no partial answer."""

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


# kind -> (default mode, needs weights)
_KIND_MODE = {
    ConstantKind.DAVENPORT: "multiset",
    ConstantKind.ETA: "multiset",
    ConstantKind.EGZ: "multiset",
    ConstantKind.HARBORTH: "squarefree",
    ConstantKind.CRITICAL: "squarefree",
}


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one constant computation.

    ``wall_time_ms`` is the only field that varies between identical runs;
    serialization leaves it out unless asked, so default reports are
    byte-identical across runs and thread counts.
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


def _default_threads() -> int:
    raw = os.environ.get("ZEROSUM_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise SearchInputError(f"ZEROSUM_THREADS must be an integer, got {raw!r}") from None


def _run_limits(threads: int | None, node_budget: int | None) -> tuple[int, int]:
    source = "threads" if threads is not None else "ZEROSUM_THREADS"
    threads = threads if threads is not None else _default_threads()
    node_budget = node_budget if node_budget is not None else DEFAULT_NODE_BUDGET
    if threads < 1:
        raise SearchInputError(f"{source} must be at least 1, got {threads}")
    if node_budget < 0:
        raise SearchInputError(f"node budget must be nonnegative, got {node_budget}")
    return threads, node_budget


# -- node state ----------------------------------------------------------------


def _coverage_engine(group: GroupSpec):
    """Nonempty subsum state for the critical number; dead when sums cover G."""
    full = group.full_mask
    translate = group.translate_bits

    def push(ne: int, g: int, new_size: int):
        new = ne | translate(ne, g) | (1 << g)
        return new, new == full

    return 0, push


# -- the walker -------------------------------------------------------------------


def _walk(universe, init_state, push, root: int, *, best: int, cap: int, squarefree: bool,
          collect: bool, budget: int, auts=()):
    """Walk every live chain whose topmost position is ``root``.

    A chain is a run of positions into ``universe``, strictly decreasing when
    ``squarefree`` and nonincreasing otherwise, so chains come out in colex
    order.  The walk records the first chain longer than ``best`` each time
    it finds one; squarefree chains that cannot get longer than ``best`` are
    pruned.  A chain of length ``cap`` is a hit: it is kept and not extended,
    and unless ``collect`` is set the walk stops there.

    Value rounds start at ``best = 0``; an exact scan for length L fixes
    ``best = L - 1`` and ``cap = L``, which prunes every chain that cannot
    reach L.  With ``auts`` a child is skipped when an automorphism fixing
    the chain maps it to a smaller element: run over the reversed universe,
    this never prunes the lex-least member of an orbit.

    Returns ``(best, best_chain, hits, nodes)``.
    """
    nodes = 0
    best_chain = None
    hits: list[tuple[int, ...]] = []
    chain: list[int] = []

    def grow(state, size: int, children, stab) -> bool:
        """Try each child position after the live chain; True stops the walk."""
        nonlocal nodes, best, best_chain
        n = size + 1
        for c in children:
            if squarefree and c < best - size:
                continue
            e = universe[c]
            if stab and any(s[e] < e for s in stab):
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes, budget)
            new, dead = push(state, e, n)
            if dead:
                continue
            chain.append(c)
            if n == cap:
                hits.append(tuple(chain))
                if not collect:
                    return True
            else:
                if n > best:
                    best, best_chain = n, tuple(chain)
                below = range(max(0, best - n), c) if squarefree else range(c + 1)
                if grow(new, n, below, [s for s in stab if s[e] == e] if stab else stab):
                    return True
            chain.pop()
        return False

    grow(init_state, 0, (root,), auts)
    return best, best_chain, hits, nodes


def _walk_roots(universe, init_state, push, threads: int, **walk_opts):
    """One walk per topmost position, merged in position order."""
    task = partial(_walk, universe, init_state, push, **walk_opts)
    roots = range(len(universe))
    if threads > 1 and len(roots) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(task, roots))
    return [task(m) for m in roots]


# -- search driver -----------------------------------------------------------------


@dataclass(frozen=True)
class MaxFailingResult:
    length: int
    witness: Sequence
    nodes_visited: int
    census: tuple[Sequence, ...] | None = None


def _initial_ltop(group: GroupSpec) -> int:
    return group.exponent + group.order.bit_length() + 3


def _search_max_failing(
    group: GroupSpec,
    weights: WeightSet | None,
    kind: ConstantKind,
    mode: str,
    *,
    threads: int,
    node_budget: int,
    auts: tuple[tuple[int, ...], ...] | None,
    want_census: bool,
) -> MaxFailingResult:
    """Value rounds until no chain reaches the length cap, then an exact scan
    when a census is wanted or orbit pruning left no witness."""
    squarefree = mode == "squarefree"
    exp = group.exponent
    if kind is ConstantKind.CRITICAL:
        universe = tuple(range(1, group.order))
    else:
        universe = tuple(range(group.order))

    # squarefree chains cannot outgrow the universe, so their cap is never hit
    ltop = len(universe) + 1 if squarefree else _initial_ltop(group)
    safety = 4 * group.order + exp + 8

    def build_engine(cur_ltop: int):
        if kind is ConstantKind.CRITICAL:
            return _coverage_engine(group)
        if kind in (ConstantKind.HARBORTH, ConstantKind.EGZ):
            zl = (exp,)
        elif kind is ConstantKind.ETA:
            zl = tuple(range(1, exp + 1))
        else:  # davenport
            zl = tuple(range(1, cur_ltop + 1))
        return subsum_kernel(group, weights, zl[-1], zl)

    def check_budget():
        if total_nodes > node_budget:
            raise SearchBudgetExceeded(total_nodes, node_budget)

    # orbit pruning keeps lex-least chains, which descend the reversed universe
    value_universe, round_auts = (universe, ()) if auts is None else (universe[::-1], auts)
    total_nodes = 0
    while True:
        init_state, push = build_engine(ltop)
        results = _walk_roots(value_universe, init_state, push, threads, best=0, cap=ltop,
                              squarefree=squarefree, collect=False, budget=node_budget, auts=round_auts)
        total_nodes += sum(r[3] for r in results)
        check_budget()
        if not any(r[2] for r in results):
            break
        ltop *= 2
        if ltop > safety:
            raise RuntimeError(f"failing lengths for {kind.value} on {group} keep growing past {safety}")

    length, chain = 0, None
    for best, best_chain, _, _ in results:
        if best > length:
            length, chain = best, best_chain

    census: tuple[Sequence, ...] | None = None
    if length == 0:
        chain = ()
        if want_census:
            census = (Sequence.empty(group),)
    elif want_census or auts is not None:
        results = _walk_roots(universe, init_state, push, threads, best=length - 1, cap=length,
                              squarefree=squarefree, collect=want_census, budget=node_budget)
        total_nodes += sum(r[3] for r in results)
        check_budget()
        hits = [h for r in results for h in r[2]]
        _check(bool(hits), "a witness exists at the established failing length")
        chain = hits[0]
        if want_census:
            census = tuple(Sequence.from_indices(group, [universe[p] for p in hit]) for hit in hits)
    witness = Sequence.from_indices(group, [universe[p] for p in chain])
    return MaxFailingResult(length=length, witness=witness, nodes_visited=total_nodes, census=census)


def _validate_witness(kind: ConstantKind, group: GroupSpec, weights: WeightSet | None, witness: Sequence) -> None:
    """Re-check the witness through the recursive oracle, never the tables."""
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
    mode: str | None = None,
    threads: int | None = None,
    node_budget: int | None = None,
    orbit_pruning: bool = False,
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
    mode = mode or _KIND_MODE[kind]
    if mode not in ("squarefree", "multiset"):
        raise SearchInputError(f"unknown search mode {mode!r}")
    if kind in (ConstantKind.HARBORTH, ConstantKind.CRITICAL) and mode != "squarefree":
        raise SearchInputError(f"{kind.value} is defined over squarefree sequences")
    threads, node_budget = _run_limits(threads, node_budget)
    auts = None
    if orbit_pruning:
        try:
            auts = group.automorphisms
        except ValueError as exc:
            raise SearchInputError(f"orbit pruning: {exc}") from exc
    result = _search_max_failing(
        group,
        weights,
        kind,
        mode,
        threads=threads,
        node_budget=node_budget,
        auts=auts,
        want_census=want_census,
    )
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


def max_failing_length(
    group: GroupSpec,
    weights: WeightSet | None,
    kind: ConstantKind,
    mode: str | None = None,
    **opts,
) -> MaxFailingResult:
    """Largest length of a sequence failing the kind's property, with witness."""
    report, _ = _compute(kind, group, weights, mode=mode, **opts)
    return MaxFailingResult(
        length=report.value - 1, witness=report.witness, nodes_visited=report.nodes_visited
    )


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


def failing_census(
    kind: ConstantKind, group: GroupSpec, weights: WeightSet | None, **opts
) -> tuple[SearchReport, tuple[Sequence, ...]]:
    """The report plus every failing sequence of the maximal failing length."""
    report, census = _compute(kind, group, weights, want_census=True, **opts)
    _check(census is not None, "a census search returns a census")
    return report, census


def exists_failing_sequence(
    group: GroupSpec,
    weights: WeightSet,
    length: int,
    zero_lengths: Iterable[int],
    *,
    mode: str = "multiset",
    threads: int | None = None,
    node_budget: int | None = None,
) -> bool:
    """Whether some length-``length`` sequence avoids weighted zero-sums at
    every length in ``zero_lengths``.  Exhaustive up to dead-branch pruning."""
    zl = tuple(sorted(set(int(j) for j in zero_lengths)))
    if not zl or zl[0] < 1:
        raise SearchInputError("zero_lengths must be positive")
    threads, node_budget = _run_limits(threads, node_budget)
    if length == 0:
        return True
    squarefree = mode == "squarefree"
    universe = tuple(range(group.order))
    if squarefree and length > group.order:
        return False
    init_state, push = subsum_kernel(group, weights, zl[-1], zl)
    results = _walk_roots(universe, init_state, push, threads, best=length - 1, cap=length,
                          squarefree=squarefree, collect=False, budget=node_budget)
    nodes = sum(r[3] for r in results)
    if nodes > node_budget:
        raise SearchBudgetExceeded(nodes, node_budget)
    return any(r[2] for r in results)
