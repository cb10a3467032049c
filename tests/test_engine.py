"""Search engine checks: known small values, witness contracts, determinism."""

import ast
import collections
import functools
import gc
import hashlib
import inspect
import itertools
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import zerosum
from zerosum import engine
from zerosum.engine import (
    ConstantKind,
    SearchBudgetExceeded,
    SearchInputError,
    compute_constant,
    critical_number,
    davenport,
    egz,
    eta,
    exists_failing_sequence,
    failing_census,
    harborth,
)
from zerosum.groups import GroupSpec, parse_group, symmetries
from zerosum.sequences import (
    Sequence,
    WeightSet,
    enumerate_squarefree,
    oracle_has_weighted_zero_of_length,
    oracle_has_weighted_zero_up_to,
    oracle_nonempty_subsums,
    oracle_terms_have_zero_of_length,
    sigma_index,
    weighted_length_sums_oracle,
)


def pm(n):
    return WeightSet.plus_minus(n)


def classic(n):
    return WeightSet.classic(n)


# -- known values ----------------------------------------------------------------


def test_davenport_smallest():
    r = davenport(parse_group("2"), classic(2))
    assert r.value == 2
    assert r.witness.literal() == "(1)"


def test_davenport_c4():
    r = davenport(parse_group("4"), pm(4))
    assert r.value == 3
    assert r.witness.literal() == "(1);(2)"
    r = davenport(parse_group("4"), classic(4))
    assert r.value == 4
    assert r.witness.literal() == "(1)^3"


def test_eta_klein():
    r = eta(parse_group("2,2"), classic(2))
    assert r.value == 4
    assert r.witness.literal() == "(1,0);(0,1);(1,1)"


def test_harborth_klein_classic():
    r = harborth(parse_group("2,2"), classic(2))
    assert r.value == 5
    assert r.witness == Sequence.full_squarefree(parse_group("2,2"))


def test_harborth_rank2_plus_minus():
    expected = {1: 5, 2: 5, 3: 8, 4: 10, 5: 12}
    for n, want in expected.items():
        g = parse_group(f"2,{2 * n}")
        assert harborth(g, pm(g.exponent)).value == want


def test_harborth_rank2_classic():
    expected = {1: 5, 2: 6, 3: 9, 4: 10, 5: 13}
    for n, want in expected.items():
        g = parse_group(f"2,{2 * n}")
        assert harborth(g, classic(g.exponent)).value == want


def test_harborth_cyclic_plus_minus():
    # n + 1 exactly when both weight classes share the odd residue mod 2^q, 2^q | n
    assert harborth(parse_group("6"), pm(6)).value == 7
    assert harborth(parse_group("8"), pm(8)).value == 8
    assert harborth(parse_group("5"), pm(5)).value == 5


def test_egz_values():
    assert egz(parse_group("2,2"), classic(2)).value == 5
    assert egz(parse_group("2,4"), pm(4)).value == 7
    assert egz(parse_group("2,6"), pm(6)).value == 9
    assert egz(parse_group("4"), pm(4)).value == 6
    assert egz(parse_group("3"), classic(3)).value == 5  # the classical theorem


def test_davenport_eta_plus_minus_rank2():
    dav = {1: 3, 2: 4, 3: 4, 4: 5, 5: 5, 6: 5}
    et = {1: 4, 2: 4, 3: 4, 4: 5, 5: 5, 6: 5}
    for n in range(1, 7):
        g = parse_group(f"2,{2 * n}")
        w = pm(g.exponent)
        assert davenport(g, w).value == dav[n]
        assert eta(g, w).value == et[n]


def test_critical_numbers():
    expected = {
        "4": 3, "6": 4, "8": 5, "2,4": 5, "2,2": 3,
        "10": 5, "12": 6, "2,6": 6, "2,2,2": 4,
        "16": 8, "2,8": 8, "4,4": 8, "2,2,4": 8, "2,2,2,2": 8, "14": 7,
        "5": 3,
    }
    for spec, want in expected.items():
        assert critical_number(parse_group(spec)).value == want, spec


def test_trivial_weights_collapse():
    g = parse_group("4")
    w = WeightSet.of(4, [0, 1])
    assert davenport(g, w).value == 1
    assert eta(g, w).value == 1
    assert egz(g, w).value == 4
    assert harborth(g, w).value == 4
    assert davenport(g, w).witness.length == 0


# -- cross-checks against the independent oracles ---------------------------------


def _colex_multisets(limit, size, max_mult):
    if size == 0:
        yield ()
        return
    for top in range(limit):
        for run in range(1, min(max_mult, size) + 1):
            if run == size:
                yield (top,) * run
            else:
                for rest in _colex_multisets(top, size - run, max_mult):
                    yield rest + (top,) * run


def enumerate_multisets(group, length, max_mult, visitor):
    """Visit every multiset of the length with multiplicities <= max_mult.

    Each multiset appears exactly once, as its nondecreasing index tuple, in
    colex order.  Returning False from the visitor halts the walk.  Returns
    the number visited.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if max_mult < 1:
        raise ValueError("max_mult must be >= 1")
    count = 0
    for stream in _colex_multisets(group.order, length, max_mult):
        count += 1
        if visitor(stream) is False:
            break
    return count


def test_enumerate_multisets_counts_and_order():
    g = GroupSpec([4])
    seen = []
    n = enumerate_multisets(g, 3, 3, seen.append)
    assert n == math.comb(4 + 3 - 1, 3) == len(seen)
    assert len(set(seen)) == n
    assert seen[0] == (0, 0, 0)
    assert all(t == tuple(sorted(t)) for t in seen)
    assert seen == sorted(seen, key=lambda t: tuple(reversed(t)))
    capped = []
    enumerate_multisets(g, 3, 1, capped.append)
    assert capped == [t for t in seen if len(set(t)) == 3]
    with pytest.raises(ValueError):
        enumerate_multisets(g, 2, 0, seen.append)


def _brute_max_failing_multiset(group, weights, check):
    """Largest failing length and the colex-first failing multiset of it."""
    best, witness = 0, Sequence.empty(group)
    length = 1
    while True:
        found = []

        def visit(idxs):
            s = Sequence.from_indices(group, idxs)
            if not check(s):
                found.append(s)
                return False
            return True

        enumerate_multisets(group, length, length, visit)
        if not found:
            return best, witness
        best, witness = length, found[0]
        length += 1


def test_davenport_matches_bruteforce():
    g = parse_group("6")
    w = pm(6)
    brute, _ = _brute_max_failing_multiset(
        g, w, lambda s: oracle_has_weighted_zero_up_to(s, w, s.length)
    )
    assert davenport(g, w).value == brute + 1


def test_eta_matches_bruteforce():
    g = parse_group("2,4")
    w = pm(4)
    brute, _ = _brute_max_failing_multiset(
        g, w, lambda s: oracle_has_weighted_zero_up_to(s, w, g.exponent)
    )
    assert eta(g, w).value == brute + 1


def test_multiset_witnesses_are_colex_first():
    for spec, w_of in [("2,4", pm), ("6", pm), ("2,2", classic)]:
        g = parse_group(spec)
        w = w_of(g.exponent)
        checks = [
            (egz, lambda s: oracle_has_weighted_zero_of_length(s, w, g.exponent)),
            (eta, lambda s: oracle_has_weighted_zero_up_to(s, w, g.exponent)),
            (davenport, lambda s: oracle_has_weighted_zero_up_to(s, w, s.length)),
        ]
        for fn, check in checks:
            best, witness = _brute_max_failing_multiset(g, w, check)
            r = fn(g, w)
            assert (r.value, r.witness) == (best + 1, witness), (spec, fn.__name__)


def test_harborth_matches_bruteforce():
    g = parse_group("2,4")
    w = pm(4)
    best = 0
    for length in range(1, g.order + 1):
        found = []

        def visit(idxs):
            s = Sequence.from_indices(g, idxs)
            if not oracle_has_weighted_zero_of_length(s, w, g.exponent):
                found.append(s)
                return False
            return True

        enumerate_squarefree(g, length, visit)
        if found:
            best = length
    assert harborth(g, w).value == best + 1


def test_critical_matches_bruteforce():
    g = parse_group("8")
    full = set(range(8))
    best, witness = 0, None
    for length in range(1, 8):
        found = []

        def visit(idxs):
            s = Sequence.from_indices(g, idxs)
            if 0 not in idxs and oracle_nonempty_subsums(s) != full:
                found.append(s)

        enumerate_squarefree(g, length, visit)
        if found:
            # the reported witness is the colex-least failing set
            best, witness = length, min(found, key=lambda s: tuple(reversed(s.indices())))
    r = critical_number(g)
    assert r.value == best + 1
    assert r.witness == witness


@pytest.mark.parametrize("spec", ["6", "2,4", "8", "2,2,2"])
def test_nonempty_engine_matches_oracles(spec):
    g = parse_group(spec)
    e = g.exponent
    weight_sets = [pm(e), classic(e), WeightSet.of(e, [1, 2]), WeightSet.of(e, [2]), WeightSet.of(e, [0, 1])]
    rng = random.Random(f"nonempty {spec}")
    for w in weight_sets:
        init, davenport_push, _ = engine._nonempty_engine(g, w, 1)
        _, critical_push, _ = engine._nonempty_engine(g, w, g.full_mask)
        for _ in range(40):
            idxs = [rng.randrange(g.order) for _ in range(rng.randint(1, 5))]
            # the critical push returns every mask short of G, so a covered
            # state is the full mask; the davenport push decides a dead child
            # before building it, so it runs up to its first dead push
            state, zero = init, False
            for n, i in enumerate(idxs, 1):
                if not zero:
                    new = davenport_push(state, i)
                    zero = new is None
                    prefix = Sequence.from_indices(g, idxs[:n])
                    assert zero == oracle_has_weighted_zero_up_to(prefix, w, n), (spec, w, idxs[:n])
                pushed = critical_push(state, i)
                covered = pushed is None
                state = g.full_mask if covered else pushed
                if not zero:
                    assert new == state
            seq = Sequence.from_indices(g, idxs)
            sums = set().union(*(weighted_length_sums_oracle(seq, w)[k] for k in range(1, len(idxs) + 1)))
            assert state == sum(1 << x for x in sums), (spec, w, idxs)
            assert zero == oracle_has_weighted_zero_up_to(seq, w, len(idxs)), (spec, w, idxs)
            assert covered == (len(sums) == g.order), (spec, w, idxs)
            if w == classic(e):
                assert sums == oracle_nonempty_subsums(seq), (spec, idxs)


@pytest.mark.parametrize("spec", ["6", "7", "8", "2,4", "2,6", "2,2,2", "3,3"])
def test_room_bounds_every_failing_extension(spec):
    # the room of every reachable live state is at least the longest failing
    # extension, found here by set arithmetic and subset listing alone; it is
    # attained somewhere, so a room one smaller would fail
    g = parse_group(spec)
    e = g.exponent
    tight = 0
    for w in [pm(e), classic(e)] + ([WeightSet.of(e, [1, 2])] if e > 2 else []):
        init, push, room = engine._nonempty_engine(g, w, 1)
        scaled = [{g.scale_index(k, t) for k in w.classes} for t in range(g.order)]

        @functools.cache
        def longest(sums):
            # a term t adds each w*t and each a + w*t; a zero among them fails
            best = 0
            for t in range(g.order):
                new = sums | scaled[t] | {g.add_indices(a, b) for a in sums for b in scaled[t]}
                if 0 not in new:
                    best = max(best, 1 + longest(frozenset(new)))
            return best

        seen, stack = set(), [init]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            bound = longest(frozenset(i for i in range(g.order) if state >> i & 1))
            assert room(state) >= bound, (spec, w, state)
            tight += room(state) == bound
            stack.extend(new for t in range(g.order) if (new := push(state, t)) is not None)

    # critical: distinct nonzero terms, so an extension is a superset
    init, push, room = engine._nonempty_engine(g, classic(e), g.full_mask)
    full = set(range(g.order))
    sets = [frozenset(c) for k in range(g.order) for c in itertools.combinations(range(1, g.order), k)]
    live = [t for t in sets if oracle_nonempty_subsums(Sequence.from_indices(g, sorted(t))) != full]
    for t in live:
        state = init
        for i in sorted(t):
            state = push(state, i)
        bound = max(len(u) - len(t) for u in live if t <= u)
        assert room(state) >= bound, (spec, sorted(t))
        tight += room(state) == bound
    assert tight > 0, spec


# -- live masks ----------------------------------------------------------------------


_MASKED_KINDS = (ConstantKind.HARBORTH, ConstantKind.EGZ, ConstantKind.ETA, ConstantKind.DAVENPORT)


def _no_unit(e):
    """A weight set modulo e that holds no unit: the nonzero non-units, or {0}."""
    return WeightSet.of(e, [w for w in range(1, e) if math.gcd(w, e) > 1] or [0])


def _oracle_forbids(kind, seq, w):
    """Whether seq has the zero-sum the kind forbids, by the independent oracles."""
    e = seq.group.exponent
    if kind in (ConstantKind.HARBORTH, ConstantKind.EGZ):
        return oracle_has_weighted_zero_of_length(seq, w, e)
    return oracle_has_weighted_zero_up_to(seq, w, e if kind is ConstantKind.ETA else seq.length)


@pytest.mark.parametrize("spec", ["2,6", "3,3", "8", "2,2,2"])
def test_dead_masks_hold_only_rejected_children(spec):
    # along seeded random live sequences, a child in dead(state) is rejected
    # by push, and the oracle on the unscaled weights finds the zero-sum it
    # closes; under pm and classic every other child is pushed, and push
    # agrees with the oracle on every child
    g = parse_group(spec)
    e = g.exponent
    rng = random.Random(f"dead masks {spec}")
    no_unit = _no_unit(e)
    for w in [pm(e), classic(e), WeightSet.of(e, [1, 2]), no_unit]:
        exact = w in (pm(e), classic(e))
        for kind in _MASKED_KINDS:
            start, init, push, dead, _ = engine._walk_parts(kind, g, w)
            assert start == g.full_mask
            if w == no_unit:
                assert dead is None, (spec, kind)
                continue
            for _ in range(6):
                state, terms = init, []
                while True:
                    mask = dead(state)
                    live = []
                    for t in range(g.order):
                        new = push(state, t)
                        seq = Sequence.from_indices(g, terms + [t])
                        if mask >> t & 1:
                            assert new is None, (spec, w, kind, terms, t)
                            assert _oracle_forbids(kind, seq, w), (spec, w, kind, terms, t)
                        elif exact:
                            assert new is not None, (spec, w, kind, terms, t)
                            assert not _oracle_forbids(kind, seq, w), (spec, w, kind, terms, t)
                        if new is not None and (kind is not ConstantKind.HARBORTH or t not in terms):
                            live.append((t, new))
                    if not live or len(terms) == 6:
                        break
                    t, state = rng.choice(live)
                    terms.append(t)


@pytest.mark.parametrize("spec", ["2,4", "2,6", "3,3", "7"])
def test_live_masks_bound_every_failing_extension(spec):
    # every live harborth chain the walk reaches has a mask at least as large
    # as its longest failing extension, found by subset listing and the oracle
    # alone; the bound is attained by some chain with a nonempty mask
    g = parse_group(spec)
    e = g.exponent
    tight = 0
    for w in [pm(e), classic(e)]:
        @functools.cache
        def fails(terms):
            return not oracle_terms_have_zero_of_length(g, w, terms, e)

        @functools.cache
        def longest(terms):
            # a chain runs downward, so an extension adds terms below its last
            return max((1 + longest(terms + (t,)) for t in range(terms[-1]) if fails(terms + (t,))), default=0)

        start, init, push, dead, _ = engine._walk_parts(ConstantKind.HARBORTH, g, w)
        stack = [((), init, start & ~dead(init))]
        while stack:
            terms, state, live = stack.pop()
            if terms:
                bound = longest(terms)
                assert bound <= live.bit_count(), (spec, w, terms)
                tight += bound == live.bit_count() > 0
            for c in range(g.order):
                if live >> c & 1:
                    new = push(state, c)
                    assert (new is not None) == fails(terms + (c,)), (spec, w, terms, c)
                    if new is not None:
                        stack.append((terms + (c,), new, live & ((1 << c) - 1) & ~dead(new)))
    assert tight > 0, spec


def test_masked_walks_push_no_dead_child(monkeypatch):
    # a node is one push; davenport and eta never push 0 (w*0 = 0 is a
    # zero-sum of length 1), and under pm and classic weights no push, in a
    # value walk or a census walk, is rejected
    pushes = []
    walk_parts = engine._walk_parts

    def spying(kind, group, weights):
        start, init, push, dead, room = walk_parts(kind, group, weights)

        def spy(state, c):
            new = push(state, c)
            pushes.append((c, new is None))
            return new

        return start, init, spy, dead, room

    monkeypatch.setattr(engine, "_walk_parts", spying)
    for kind, spec in [(ConstantKind.DAVENPORT, "2,12"), (ConstantKind.ETA, "2,6")]:
        pushes.clear()
        g = parse_group(spec)
        report = compute_constant(kind, g, classic(g.exponent))
        assert len(pushes) == report.nodes_visited
        assert all(c != 0 for c, _ in pushes), (kind, spec)
    for spec in ["2,4", "2,6", "3,3", "8", "2,2,2"]:
        g = parse_group(spec)
        for w in [pm(g.exponent), classic(g.exponent)]:
            for kind in _MASKED_KINDS:
                for search in (compute_constant, failing_census):
                    pushes.clear()
                    search(kind, g, w)
                    # a harborth census under one unit weight may be listed
                    # by complements, with no class walk
                    listed = search is failing_census and kind is ConstantKind.HARBORTH and engine._one_unit(w)
                    assert pushes or listed, (spec, w, kind)
                    assert not any(rejected for _, rejected in pushes), (spec, w, kind)


# -- class walks ---------------------------------------------------------------------


def _element_walk(kind, g, w, ties):
    """The walk over elements, with no classes: ``(length, hits, nodes)``,
    the hits (with ``ties``, else the first longest chain alone) as
    ascending tuples in walk order."""
    start, init, push, dead, room = engine._walk_parts(kind, g, w)
    length, chain, hits, nodes = engine._walk(start, init, push, **_element_moves(kind, g), dead=dead, best=0,
                                              cap=4 * g.order + g.exponent + 8, ties=ties, budget=10**9, room=room)
    return length, [h[::-1] for h in hits] if ties else [(chain or ())[::-1]], nodes


def _element_moves(kind, g):
    """``_walk``'s moves for a walk over single elements."""
    squarefree = kind in (ConstantKind.HARBORTH, ConstantKind.CRITICAL)
    return {"below": [(1 << c) - 1 for c in range(g.order)], "width": [1] * g.order,
            "unlock": [0 if squarefree else 1 << c for c in range(g.order)], "levels": () if squarefree else None}


def _class_walk_cases():
    for spec in ("3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "2,2", "2,4", "2,6", "2,8",
                 "3,3", "4,4", "2,2,2"):
        e = parse_group(spec).exponent
        wspecs = dict.fromkeys(["pm", "classic"] + (["1,3,5,7", "2,6"] if e == 8 else []))
        for wspec in wspecs:
            for kind in _MASKED_KINDS:
                # an egz element walk on a larger group takes seconds
                if kind is not ConstantKind.EGZ or parse_group(spec).order <= 9 or (spec, wspec) in (
                        ("2,6", "pm"), ("4,4", "pm")):
                    yield kind, spec, wspec


def _class_walk_census(monkeypatch):
    """Make ``failing_census`` take the class walk for every census, with no
    listing by complements."""
    monkeypatch.setattr(engine, "_complement_census", lambda group, budget: (0, None))


@pytest.mark.parametrize("kind, spec, wspec", list(_class_walk_cases()))
def test_class_walk_matches_the_element_walk(kind, spec, wspec, monkeypatch):
    # the plan with its probe, and the census lifted from the class walk's
    # ties, give the element walk's value, colex-least witness and census;
    # when every class is one element the census walk is the element walk,
    # node for node (a classic harborth census is made to walk here)
    _class_walk_census(monkeypatch)
    g = parse_group(spec)
    w = WeightSet.parse(wspec, g.exponent)
    length, hits, census_nodes = _element_walk(kind, g, w, ties=True)
    _, (witness,), nodes = _element_walk(kind, g, w, ties=False)
    report = compute_constant(kind, g, w)
    census_report, census = engine.failing_census(kind, g, w)
    assert report.value == census_report.value == length + 1
    assert report.witness == census_report.witness == Sequence.from_indices(g, witness)
    assert list(census) == hits and hits[0] == witness
    if engine._stabiliser(w) == (1,):
        assert census_report.nodes_visited == census_nodes


# the acceptance grid's groups; the class walk passes 2M nodes on the
# censuses of 2,12 and 4,8
_COMPLEMENT_GROUPS = ("2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "2,2", "2,4", "2,6", "2,8", "2,10",
                      "3,3", "3,6", "4,4", "5,5", "2,2,2", "2,2,4", "2,2,2,2", "3,3,3")


def _census_digest(g, census):
    return hashlib.sha256("\n".join(Sequence.from_indices(g, idxs).literal() for idxs in census).encode()).hexdigest()


@pytest.mark.parametrize("spec", _COMPLEMENT_GROUPS)
def test_complement_census_matches_the_class_walk(spec, monkeypatch):
    # every harborth census under one unit weight class equals the class
    # walk's: value, witness, members, colex order and digest; a listed
    # census counts one node per member, and a census that falls back
    # counts the members listed up to the first that extends to a failing
    # set of exp + 3 terms (none when L < exp), then the class walk's nodes.
    # Under {u} the class walk runs on the same scaled weights {-1} for
    # every unit u, so one walk under classic weights is the reference for
    # all of them.
    g = parse_group(spec)
    e = g.exponent
    listing, listed = engine._complement_census(g, 10**9)
    with monkeypatch.context() as m:
        _class_walk_census(m)
        walked, walked_census = failing_census(ConstantKind.HARBORTH, g, classic(e))
    for u in (u for u in range(1, e) if math.gcd(u, e) == 1):
        w = WeightSet.of(e, [u])
        assert engine._unit_scaled(w) == WeightSet.of(e, [-1])
        report, census = failing_census(ConstantKind.HARBORTH, g, w)
        assert (report.value, report.witness) == (walked.value, walked.witness), (spec, u)
        assert census == walked_census and _census_digest(g, census) == _census_digest(g, walked_census)
        assert list(census) == sorted(census, key=lambda t: t[::-1]) and census[0] == report.witness.indices()
        k = report.value - 1 - e
        assert (listed is not None) == (0 <= k <= 2), (spec, k)
        if listed is not None:
            assert listing == report.nodes_visited == len(census), (spec, u)
        else:
            assert (listing == 0) == (k < 0), (spec, k)
            assert report.nodes_visited == listing + walked.nodes_visited, (spec, u)


def test_complement_census_lists_translates_and_pair_choices():
    # 2,8 classic: L = exp + 1, the 306 sets with sum 0 that avoid 0 and
    # their 15 translates; 2,6 classic: L = exp + 2, one term of each pair
    # {x, sig - x} and every x with 2x = sig, one node per member
    g = parse_group("2,8")
    nodes, census = engine._complement_census(g, 10**9)
    add = g.add_table
    assert nodes == len(census) == 4896
    base = [m for m in census if sigma_index(g, m) == 0]
    assert len(base) == 306 and all(0 not in m for m in base)
    assert sorted(census) == sorted(tuple(sorted(add[h][x] for x in m)) for h in range(16) for m in base)
    g = parse_group("2,6")
    nodes, census = engine._complement_census(g, 10**9)
    add = g.add_table
    assert nodes == len(census) == 18
    for m in census:
        sig = sigma_index(g, m)
        assert not any(add[x][y] == sig for x, y in itertools.combinations(m, 2))


def _three_sums_less_sigma(g, terms):
    """T | (Sigma3(T) - sigma(T)) with plain sets, Sigma3 the sums of three
    distinct terms: the y that do not extend T to a failing set."""
    add, neg = g.add_table, g.scale_table[-1 % g.exponent]
    back = neg[sigma_index(g, terms)]
    return set(terms) | {add[sigma_index(g, t)][back] for t in itertools.combinations(terms, 3)}


def test_complement_census_refutes_exp_plus_three_by_three_sums():
    # the identity the listing relies on when L = exp + 2: a failing set T
    # of exp + 2 terms extends by y to a failing set exactly when y lies
    # outside T | (Sigma3(T) - sigma(T)), so every listed member covers G;
    # on 4,4 classic, which falls back, a failing set of exp + 3 terms less
    # any one term y is such a T, with no two terms summing to sigma(T),
    # that y does extend
    for spec, size in (("2,6", 18), ("2,10", 260), ("3,6", 3384), ("2,2,4", 1472)):
        g = parse_group(spec)
        census = engine._complement_census(g, 10**9)[1]
        assert len(census) == size and len(census[0]) == g.exponent + 2
        assert all(len(_three_sums_less_sigma(g, t)) == g.order for t in census), spec
    g = parse_group("4,4")
    add = g.add_table
    failing = next(s for s in itertools.combinations(range(g.order), 7)
                   if not oracle_terms_have_zero_of_length(g, classic(4), s, 4))
    for y in failing:
        t = tuple(x for x in failing if x != y)
        sig = sigma_index(g, t)
        assert not any(add[a][b] == sig for a, b in itertools.combinations(t, 2)), y
        assert y not in _three_sums_less_sigma(g, t), y


@pytest.mark.parametrize("spec, members", [("3,6", 3384), ("2,2,4", 1472), ("2,10", 260)])
def test_complement_census_budget_names_its_phase(spec, members):
    # one budget covers the listing, which refutes exp + 3 as it goes; an
    # abort names it, at node budget + 1
    g = parse_group(spec)
    w = classic(g.exponent)
    report, census = failing_census(ConstantKind.HARBORTH, g, w)
    total = report.nodes_visited
    assert total == len(census) == members
    for budget in (0, 1, total // 2, total - 1):
        with pytest.raises(SearchBudgetExceeded) as exc:
            failing_census(ConstantKind.HARBORTH, g, w, node_budget=budget)
        assert (exc.value.nodes, exc.value.phase) == (budget + 1, "complement listing"), budget
    again, again_census = failing_census(ConstantKind.HARBORTH, g, w, node_budget=total)
    assert again.to_dict() == report.to_dict() and again_census == census


def test_complement_census_falls_back_to_the_class_walk():
    # 4,4 classic has a failing set of exp + 3 terms (L = exp + 4): its
    # first listed member extends to one, so the census walks its classes
    # after that one node, counting on from it; C5 has no failing set of
    # exp terms and walks at once
    g = parse_group("4,4")
    assert engine._complement_census(g, 10**9) == (1, None)
    report, census = failing_census(ConstantKind.HARBORTH, g, classic(4))
    assert (report.value, len(census), report.nodes_visited) == (9, 24, 1 + 1573)
    for budget, phase in ((0, "complement listing"), (1, "class walk")):
        with pytest.raises(SearchBudgetExceeded) as exc:
            failing_census(ConstantKind.HARBORTH, g, classic(4), node_budget=budget)
        assert (exc.value.nodes, exc.value.phase) == (budget + 1, phase)
    assert engine._complement_census(parse_group("5"), 10**9) == (0, None)


def _probe_cases():
    for spec in ("2,4", "2,6", "2,8", "2,10", "2,12", "3,6", "4,4", "12"):
        yield ConstantKind.HARBORTH, spec
    for spec in ("2,4", "2,6", "2,8", "3,6", "4,4", "8", "12"):
        yield ConstantKind.EGZ, spec


@pytest.mark.parametrize("kind, spec", list(_probe_cases()))
def test_probe_over_lowest_members_finds_the_element_probes_witness(kind, spec, monkeypatch):
    # the probe over the lowest class members and a probe over single
    # elements at the value search's length stop at the same first chain
    g = parse_group(spec)
    w = pm(g.exponent)
    spans = _walk_spans(monkeypatch)
    report = compute_constant(kind, g, w)
    monkeypatch.undo()
    phase, spent, total = spans[-1]
    length = report.value - 1
    start, init, push, dead, _ = engine._walk_parts(kind, g, w)
    found, chain, _, nodes = engine._walk(start, init, push, **_element_moves(kind, g), dead=dead,
                                          best=length - 1, cap=length, ties=False, budget=10**7)
    assert found == length and Sequence.from_indices(g, chain) == report.witness
    assert phase == "witness probe" and total - spent <= nodes, (total - spent, nodes)


def test_classes_of_plus_minus_and_unit_weights():
    # pm pairs g with -g; all units of Z/8 make classes of size 4; {2,6}
    # holds no unit but is kept by every unit; classic keeps one element each
    g = parse_group("8")
    assert engine._stabiliser(pm(8)) == (1, 7)
    assert engine._stabiliser(WeightSet.of(8, [1, 3, 5, 7])) == (1, 3, 5, 7)
    assert engine._stabiliser(WeightSet.of(8, [2, 6])) == (1, 3, 5, 7)
    assert engine._stabiliser(classic(8)) == engine._stabiliser(None) == (1,)
    tops, moves, orbit = engine._classes(g, (1, 3, 5, 7), g.full_mask, multiset=False)
    assert tops == 1 << 0 | 1 << 4 | 1 << 6 | 1 << 7
    assert orbit[3] == (7, 5, 3, 1) and orbit[2] == (6, 2)
    assert [moves["unlock"][c].bit_length() - 1 for c in (7, 5, 3, 1, 6, 2, 4, 0)] == [5, 3, 1, -1, 2, -1, -1, -1]
    assert moves["levels"] == (1 << 7 | 1 << 5 | 1 << 3 | 1 << 6, 1 << 7 | 1 << 5, 1 << 7)
    assert moves["below"] == tuple((1 << c) - 1 for c in range(8)) and moves["width"] == (1,) * 8
    tops, moves, _ = engine._classes(g, (1, 7), g.full_mask, multiset=True)
    assert tops == 0b11110001 and moves["levels"] is None and moves["unlock"] == tuple(1 << c for c in range(8))


def test_lift_counts_every_member_of_a_class():
    # an orbit of size k used m times lifts to C(k, m) sets, or to
    # C(k + m - 1, m) multisets; the lifts come out in colex order
    orbit = [(0,), (3, 2, 1), (3, 2, 1), (3, 2, 1)]
    sets = engine._lift([(3, 2, 0)], orbit, multiset=False)
    assert sets == [(2, 1, 0), (3, 1, 0), (3, 2, 0)]
    multisets = engine._lift([(3, 3, 0), (3, 0, 0)], orbit, multiset=True)
    assert len(multisets) == math.comb(4, 2) + 3
    assert multisets == sorted(multisets) and (1, 1, 0) in multisets and (3, 0, 0) in multisets



# -- symmetry-forced plans ---------------------------------------------------------


def _is_affine_bijection(g, m):
    add = g.add_table
    return sorted(m) == list(range(g.order)) and all(
        add[m[x]][m[y]] == add[m[add[x][y]]][m[0]] for x in range(g.order) for y in range(g.order))


@pytest.mark.parametrize("spec, torsion, size", [
    ("2,12", 1, 16), ("2,12", 2, 64), ("2,12", 0, 384), ("4,8", 1, 128), ("3,3", 1, 48), ("2,2,2", 0, 1344),
])
def test_symmetries_are_affine_bijections(spec, torsion, size):
    # |Aut(C2 + C12)| = 16, |Aut(C4 + C8)| = 128, |GL(2,3)| = 48 and
    # |GL(3,2)| = 168, times the translations by G[2] (4 on 2,12) or by G
    g = parse_group(spec)
    maps = symmetries(g, torsion)
    assert len(maps) == len(set(maps)) == size
    assert {m[0] for m in maps} == {h for h in range(g.order) if g.scale_index(torsion, h) == 0}
    assert all(_is_affine_bijection(g, m) for m in maps)
    units = {g.scale_table[u] for u in range(1, g.exponent) if math.gcd(u, g.exponent) == 1}
    assert units <= set(maps)


def test_symmetries_fall_back_to_a_subgroup_on_large_groups():
    # C2^6 has about 2*10^10 automorphisms: the build keeps the 720
    # permutations of its factors, or with its 64 translations the identity
    # alone; 8,8 lists all 1,536 automorphisms, but with its 64 translations
    # keeps the 32 sending each basis element to a unit multiple of one
    for spec, torsion, size in (("2,2,2,2,2,2", 1, 720), ("2,2,2,2,2,2", 0, 64), ("8,8", 0, 32 * 64),
                                ("8,8", 1, 1536)):
        started = time.perf_counter()
        maps = symmetries.__wrapped__(parse_group(spec), torsion)  # uncached, on a fresh group
        assert time.perf_counter() - started < 1
        assert len(maps) == len(set(maps)) == size


@pytest.mark.parametrize("kind, spec, wspec, value, witness", [
    (ConstantKind.EGZ, "12", "1,5,7,11", 15, "(0)^11;(1);(2);(4)"),
    (ConstantKind.EGZ, "10", "1,3,7,9", 12, "(0)^9;(1);(2)"),
    (ConstantKind.ETA, "12", "1,5,7,11", 4, "(1);(2);(4)"),
    (ConstantKind.ETA, "10", "1,3,7,9", 3, "(1);(2)"),
], ids=["egz-12", "egz-10", "eta-12", "eta-10"])
def test_all_unit_weights_on_cyclic_groups_finish(kind, spec, wspec, value, witness):
    # four weight classes: the witness check reads the length DP's rows, where
    # a recursion over weight assignments would make about 1.8*10^10 table
    # reads on the egz C12 witness
    g = parse_group(spec)
    started = time.perf_counter()
    report = compute_constant(kind, g, WeightSet.parse(wspec, g.exponent))
    assert time.perf_counter() - started < 1
    assert (report.value, report.witness.literal()) == (value, witness)


def _torsion(kind, w):
    """The translations a kind keeps: all for classic harborth and egz,
    G[2] for pm ones of even exponent, none otherwise (as ``symmetries``)."""
    if kind in (ConstantKind.HARBORTH, ConstantKind.EGZ) and w.classes == (1,):
        return 0
    if kind in (ConstantKind.HARBORTH, ConstantKind.EGZ) and w.modulus % 2 == 0 and w == pm(w.modulus):
        return 2
    return 1


def _failing_class_multisets(kind, g, w):
    """Every nonempty failing sequence as the sorted tuple of its terms'
    class tops, grown one class at a time through the kernel's push (a
    squarefree kind pushes a class's members from the top down)."""
    start, init, push, _, _ = engine._walk_parts(kind, g, w)
    multiset = kind in engine._MULTISET_KINDS
    tops, _, orbit = engine._classes(g, engine._stabiliser(w), start, multiset)
    classes = [c for c in range(g.order) if tops >> c & 1]
    failing, frontier = set(), {(): init}
    while frontier:
        grown = {}
        for ms, state in frontier.items():
            for c in classes:
                used = ms.count(c)
                if (ms and c < ms[-1]) or (not multiset and used == len(orbit[c])):
                    continue
                new = push(state, c if multiset else orbit[c][used])
                if new is not None:
                    grown[ms + (c,)] = new
        failing.update(grown)
        frontier = grown
    return failing, orbit


def _plan_cases():
    for spec in ("3", "4", "5", "6", "7", "8", "2,2", "2,4", "2,6", "3,3", "2,2,2"):
        g = parse_group(spec)
        for kind in _MASKED_KINDS:
            for wspec in dict.fromkeys(["pm", "classic"]):
                # egz multisets on the larger groups number in the millions
                if kind is not ConstantKind.EGZ or g.order <= 6:
                    yield kind, spec, wspec
        yield ConstantKind.CRITICAL, spec, None


@pytest.mark.parametrize("kind, spec, wspec", list(_plan_cases()))
def test_plan_covers_every_failing_sequence(kind, spec, wspec, monkeypatch):
    # at every depth, every failing sequence has an image under the
    # symmetries that some job reaches: one of its forced prefixes, or its
    # forced terms and then classes the job allows; the images of failing
    # sequences all fail, and the search finds the brute-force value
    g = parse_group(spec)
    w = WeightSet.parse(wspec, g.exponent) if wspec else None
    failing, orbit = _failing_class_multisets(kind, g, w)
    maps = symmetries(g, 1 if w is None else _torsion(kind, w))
    for depth in (1, 2, 3):
        monkeypatch.setattr(engine, "_FORCED_TERMS", depth)
        engine._plan.cache_clear()
        reached = set()
        for forced, start in engine._plan(kind, g, w):
            forced = [orbit[c][0] for c in forced]
            reached.update(tuple(sorted(forced[:i])) for i in range(1, len(forced)))
            allowed = {orbit[c][0] for c in range(g.order) if start >> c & 1}
            for ms in failing:
                rest = collections.Counter(ms)
                rest.subtract(forced)
                if min(rest.values()) >= 0 and all(c in allowed for c, k in rest.items() if k):
                    reached.add(ms)
        covered = {tuple(sorted(orbit[m[c]][0] for c in ms)) for ms in reached & failing for m in maps}
        assert covered == failing, depth
        assert compute_constant(kind, g, w).value == max(map(len, failing), default=0) + 1
    monkeypatch.undo()
    engine._plan.cache_clear()  # drop the plans of other depths


# -- witness contracts -------------------------------------------------------------


def test_witness_lengths_and_failure():
    cases = [
        (harborth, "2,6", pm(6)),
        (egz, "2,4", pm(4)),
        (davenport, "12", pm(12)),
        (eta, "2,6", pm(6)),
    ]
    for fn, spec, w in cases:
        g = parse_group(spec)
        r = fn(g, w)
        assert r.witness.length == r.value - 1
        assert r.witness.group == g


def test_witness_subsequences_also_fail():
    g = parse_group("2,6")
    w = pm(6)
    r = davenport(g, w)
    seq = r.witness
    while seq.length > 0:
        assert not oracle_has_weighted_zero_up_to(seq, w, seq.length)
        seq = seq.remove_index(seq.indices()[0])


# 8 and 2,2,2 only for the nonempty-sum kinds, whose walks prune by room;
# a critical set on 2,2,2 can have 0 among its sums (the stabiliser case).
# Every unit of Z/8 keeps {1,3,5,7}, so its classes on 8 have up to 4 members
_CENSUS_CASES = [(kind, spec, wspec)
                 for spec in ("2,2", "4", "6", "2,4", "3,3", "8", "2,2,2")
                 for kind in ConstantKind
                 if spec not in ("8", "2,2,2") or kind in (ConstantKind.DAVENPORT, ConstantKind.CRITICAL)
                 for wspec in ((None,) if kind is ConstantKind.CRITICAL
                               else ("classic",) if spec in ("2,2", "2,2,2") else ("classic", "pm"))
                 ] + [(ConstantKind.DAVENPORT, "8", "1,3,5,7"), (ConstantKind.ETA, "8", "1,3,5,7")]


@pytest.mark.parametrize("kind, spec, wspec", _CENSUS_CASES)
def test_census_matches_bruteforce(kind, spec, wspec):
    # every failing set or multiset of the failing length, in colex order,
    # listed and filtered by the independent oracles alone
    g = parse_group(spec)
    w = WeightSet.parse(wspec, g.exponent) if wspec else None
    e = g.exponent
    fails = {
        ConstantKind.HARBORTH: lambda s: not oracle_has_weighted_zero_of_length(s, w, e),
        ConstantKind.EGZ: lambda s: not oracle_has_weighted_zero_of_length(s, w, e),
        ConstantKind.ETA: lambda s: not oracle_has_weighted_zero_up_to(s, w, e),
        ConstantKind.DAVENPORT: lambda s: not oracle_has_weighted_zero_up_to(s, w, s.length),
        ConstantKind.CRITICAL: lambda s: oracle_nonempty_subsums(s) != set(range(g.order)),
    }[kind]

    def failing(length):
        if kind is ConstantKind.CRITICAL:
            streams = sorted(itertools.combinations(range(1, g.order), length), key=lambda t: t[::-1])
        elif kind is ConstantKind.HARBORTH:
            streams = sorted(itertools.combinations(range(g.order), length), key=lambda t: t[::-1])
        else:
            streams = []
            enumerate_multisets(g, length, max(length, 1), streams.append)
        seqs = (Sequence.from_indices(g, t) for t in streams)
        return [s for s in seqs if fails(s)]

    report, census = failing_census(kind, g, w)
    length = report.value - 1
    expected = failing(length)
    assert [Sequence.from_indices(g, idxs) for idxs in census] == expected
    assert report.witness == expected[0]
    assert not failing(length + 1)


def test_harborth_witness_is_squarefree_and_colex_least():
    g = parse_group("2,6")
    r = harborth(g, pm(6))
    assert r.witness.is_squarefree
    report, census = failing_census(ConstantKind.HARBORTH, g, pm(6))
    census = [Sequence.from_indices(g, idxs) for idxs in census]
    assert report.value == r.value
    assert r.witness in census
    # colex-least member of the census is the reported witness
    key = lambda s: tuple(reversed(s.indices()))
    assert min(census, key=key) == r.witness


def test_census_members_all_fail_and_are_distinct():
    g = parse_group("2,4")
    w = pm(4)
    report, census = failing_census(ConstantKind.HARBORTH, g, w)
    census = [Sequence.from_indices(g, idxs) for idxs in census]
    assert len(set(census)) == len(census)
    for s in census:
        assert s.length == report.value - 1
        assert s.is_squarefree
        assert not oracle_has_weighted_zero_of_length(s, w, g.exponent)


_CORRUPTED_WITNESS_RUN = textwrap.dedent("""
    import sys
    import zerosum.engine as engine
    from zerosum.groups import parse_group
    from zerosum.sequences import WeightSet

    assert False, "asserts are on; this check must run under python -O"
    walk = engine._walk

    def corrupted(*args, **kwargs):
        length, chain, hits, nodes = walk(*args, **kwargs)
        # same length as the true witness chain, but positions 0..length-1
        # of 2,6 hold a zero-sum of length 6
        return length, tuple(range(length)), hits, nodes

    engine._walk = corrupted
    g = parse_group("2,6")
    try:
        engine.harborth(g, WeightSet.plus_minus(6))
    except engine.InternalCheckError as exc:
        print("caught:", exc)
        sys.exit(0)
    sys.exit(1)
""")


def test_witness_check_survives_python_O():
    # the child imports the same zerosum as this process, however it was found
    src = str(Path(zerosum.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_WITNESS_RUN],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "caught: internal check failed" in proc.stdout


def test_cap_overrun_is_an_internal_error(monkeypatch):
    # a push that is never dead lets chains grow past every failing length
    def never_dead(group, weights, cap, zero_lengths):
        return 0, lambda state, g: state

    monkeypatch.setattr(engine, "subsum_kernel", never_dead)
    with pytest.raises(engine.InternalCheckError, match="stay below"):
        egz(parse_group("2"), classic(2))


def _walk_spans(monkeypatch):
    """Spy on ``engine._walk``: the returned list gets ``(phase, spent,
    total)`` for each walk, the running node totals at its start and end."""
    spans = []
    walk = engine._walk

    def recording(*args, **kwargs):
        out = walk(*args, **kwargs)
        spans.append((kwargs.get("phase", "class walk"), kwargs.get("spent", 0), out[3]))
        return out

    monkeypatch.setattr(engine, "_walk", recording)
    return spans


def test_value_search_is_one_walk(monkeypatch):
    # each job of the plan is one walk with one cap, in plan order: no
    # shorter-capped round is walked and thrown away; one probe over the
    # lowest class members follows the jobs for the witness, and counts on
    # from them
    spans = _walk_spans(monkeypatch)
    for search, spec, w, value, probe in ((eta, "2,2,2,2", classic(2), 16, (8_789, 41_556)),
                                          (harborth, "2,6", pm(6), 8, (69, 154))):
        spans.clear()
        g = parse_group(spec)
        r = search(g, w)
        assert r.value == value
        *jobs, last = spans
        assert last == ("witness probe", *probe) and probe[1] == r.nodes_visited
        m = len(engine._plan(ConstantKind(search.__name__), g, w))
        numbers = [int(phase.split()[1]) for phase, _, _ in jobs]
        assert numbers == sorted(set(numbers)) and all(phase.endswith(f" of {m}") for phase, _, _ in jobs)
        assert all(a[2] <= b[1] for a, b in zip(spans, spans[1:]))
        if search is eta:  # the one zero-sum-free set of 15 terms, which the probe reaches last
            assert r.witness == Sequence.full_squarefree(g).remove_index(0)


def test_room_bound_prunes_nonempty_sum_walks():
    # a chain whose sums leave no room to beat the best is not extended;
    # without the room bound these walks took 535,715 and 309,570 nodes, and
    # davenport 140,509 before its live masks
    g = parse_group("2,12")
    r = davenport(g, classic(12))
    assert (r.value, r.witness.literal(), r.nodes_visited) == (13, "(1,0);(0,1)^11", 5_455)
    g = parse_group("4,8")
    r = critical_number(g)
    assert (r.value, r.nodes_visited) == (16, 21_367)
    assert r.witness == Sequence.from_indices(g, [g.index_of((x, y)) for y in (0, 2, 4, 6) for x in range(4)
                                                  if (x, y) != (0, 0)])


# -- node budget ---------------------------------------------------------------------


def test_budget_exceeded():
    with pytest.raises(SearchBudgetExceeded) as exc:
        harborth(parse_group("2,10"), pm(10), node_budget=500)
    assert exc.value.nodes == 501
    assert exc.value.budget == 500


@pytest.mark.parametrize("budget, raised", [(500, 501), (3_000, 3_001),
                                            (4_559, 4_560), (4_560, None)])
def test_budget_is_global_across_roots(budget, raised):
    # harborth 2,10 pm needs 4,560 nodes in all: 2,252 in the 26 jobs of its
    # plan, then 2,308 in the probe over the lowest class members
    g, w = parse_group("2,10"), pm(10)
    if raised is None:
        assert harborth(g, w, node_budget=budget).nodes_visited == budget
        return
    with pytest.raises(SearchBudgetExceeded) as exc:
        harborth(g, w, node_budget=budget)
    assert exc.value.nodes == raised


@pytest.mark.parametrize("kind, spec, wspec", [
    (ConstantKind.HARBORTH, "2,6", "pm"),
    (ConstantKind.EGZ, "2,4", "pm"),
    (ConstantKind.ETA, "2,4", "classic"),
    (ConstantKind.ETA, "2,2,2,2", "classic"),
    (ConstantKind.DAVENPORT, "2,4", "pm"),
    (ConstantKind.CRITICAL, "2,2,2", None),
])
def test_budget_counts_the_value_walk_and_the_census_scan(kind, spec, wspec, monkeypatch):
    # a census is one class walk, so its budget is one count; a value search
    # is the jobs of its plan and a probe, and one budget covers all
    g = parse_group(spec)
    w = WeightSet.parse(wspec, g.exponent) if wspec else None
    spans = _walk_spans(monkeypatch)
    report, census = failing_census(kind, g, w)
    assert spans == [("class walk", 0, report.nodes_visited)]
    assert Sequence.from_indices(g, census[0]) == report.witness
    spans.clear()
    value_report = compute_constant(kind, g, w)
    monkeypatch.undo()
    assert spans[-1][0] == "witness probe" and spans[-1][2] == value_report.nodes_visited
    assert (value_report.value, value_report.witness) == (report.value, report.witness)
    for search, total in ((failing_census, report.nodes_visited), (compute_constant, value_report.nodes_visited)):
        # the first node, a middle node, the very last node
        for budget in (0, total // 2, total - 1):
            with pytest.raises(SearchBudgetExceeded) as exc:
                search(kind, g, w, node_budget=budget)
            assert exc.value.nodes == budget + 1
    again, again_census = failing_census(kind, g, w, node_budget=report.nodes_visited)
    assert again.to_dict() == report.to_dict() and again_census == census
    assert compute_constant(kind, g, w, node_budget=value_report.nodes_visited).to_dict() == value_report.to_dict()


@pytest.mark.parametrize("kind, spec", [(ConstantKind.HARBORTH, "2,8"), (ConstantKind.EGZ, "2,4"),
                                        (ConstantKind.DAVENPORT, "2,6")])
def test_budget_runs_out_inside_the_probe(kind, spec, monkeypatch):
    # the probe counts on from the jobs' total, so a budget that runs out in
    # the probe still aborts at node budget + 1, and the jobs' nodes plus the
    # probe's are exactly enough
    g = parse_group(spec)
    w = pm(g.exponent)
    spans = _walk_spans(monkeypatch)
    report = compute_constant(kind, g, w)
    monkeypatch.undo()
    phase, jobs, total = spans[-1]
    assert phase == "witness probe" and jobs < total == report.nodes_visited
    for budget in (jobs, (jobs + total) // 2, total - 1):
        with pytest.raises(SearchBudgetExceeded) as exc:
            compute_constant(kind, g, w, node_budget=budget)
        assert (exc.value.nodes, exc.value.phase) == (budget + 1, "witness probe")
    assert compute_constant(kind, g, w, node_budget=total) == report


def test_budget_aborts_name_their_phase(monkeypatch):
    # one budget runs through the jobs and the probe: a budget one short of
    # the last node of a job's walk, or of the probe, stops at that node and
    # names the part of the search it stopped in; so does a forced push
    g, w = parse_group("2,10"), pm(10)
    spans = _walk_spans(monkeypatch)
    harborth(g, w)
    monkeypatch.undo()
    *jobs, probe = spans
    job = max(jobs, key=lambda span: span[2] - span[1])  # a job whose walk pushes
    assert re.fullmatch(r"job \d+ of 26", job[0]) and probe[0] == "witness probe"
    for phase, _, last in (job, probe, ("job 1 of 26", 0, 1)):
        with pytest.raises(SearchBudgetExceeded) as exc:
            harborth(g, w, node_budget=last - 1)
        assert (exc.value.nodes, exc.value.phase) == (last, phase)
        assert str(exc.value) == f"search exceeded node budget ({last} > {last - 1}) in {phase}"
    with pytest.raises(SearchBudgetExceeded) as exc:
        failing_census(ConstantKind.HARBORTH, g, w, node_budget=100)
    assert (exc.value.nodes, exc.value.phase) == (101, "class walk")


def test_budget_bounds_exists_failing_sequence():
    # no length-7 sequence on 2,4 avoids pm zero-sums of length 4: the probe
    # walks all 6 class roots, 291 nodes in all
    g = parse_group("2,4")
    for budget in (10, 200, 290):
        with pytest.raises(SearchBudgetExceeded) as exc:
            exists_failing_sequence(g, pm(4), 7, [4], node_budget=budget)
        assert exc.value.nodes == budget + 1
    assert exists_failing_sequence(g, pm(4), 7, [4], node_budget=291) is False


def test_exists_failing_sequence_stops_at_the_first_hit():
    # a length-6 sequence on 2,4 avoiding pm zero-sums of length 4 turns up
    # at node 90, and the walk ends there instead of trying the other roots
    g = parse_group("2,4")
    assert exists_failing_sequence(g, pm(4), 6, [4], node_budget=90) is True
    with pytest.raises(SearchBudgetExceeded) as exc:
        exists_failing_sequence(g, pm(4), 6, [4], node_budget=89)
    assert exc.value.nodes == 90


def test_exists_failing_sequence_ignores_zero_lengths_above_length(monkeypatch):
    # a sequence has no subsequence longer than itself, so a zero length above
    # ``length`` must neither size the table (10**9 rows here) nor move the
    # answer or the node count of the budget tests above
    g = parse_group("2,4")
    kernel = engine.subsum_kernel
    length = 0

    def bounded_kernel(group, weights, cap, zero_lengths=()):
        assert cap <= length, f"table cap {cap} above length {length}"
        return kernel(group, weights, cap, zero_lengths)

    monkeypatch.setattr(engine, "subsum_kernel", bounded_kernel)
    for length, expect, nodes in ((6, True, 90), (7, False, 291)):
        assert exists_failing_sequence(g, pm(4), length, [4, 10**9], node_budget=nodes) is expect
        with pytest.raises(SearchBudgetExceeded) as exc:
            exists_failing_sequence(g, pm(4), length, [4, 10**9], node_budget=nodes - 1)
        assert exc.value.nodes == nodes
    # every zero length above ``length``: nothing can be hit, and the walk
    # takes its first chain of 5 nodes, as it did with a table up to row 6
    length = 5
    for mode in ("multiset", "squarefree"):
        assert exists_failing_sequence(g, pm(4), 5, [6, 10**9], mode=mode, node_budget=5) is True
        with pytest.raises(SearchBudgetExceeded):
            exists_failing_sequence(g, pm(4), 5, [6, 10**9], mode=mode, node_budget=4)


# -- auxiliary entry points -----------------------------------------------------------


def test_exists_failing_sequence_probe():
    g = parse_group("4")
    w = pm(4)
    # Davenport is 3: something of length 2 avoids zero everywhere, nothing of length 3 does
    assert exists_failing_sequence(g, w, 2, range(1, 3))
    assert not exists_failing_sequence(g, w, 3, range(1, 4))
    # squarefree mode: lengths beyond the group order are impossible
    assert not exists_failing_sequence(g, w, 5, [4], mode="squarefree")


def test_exists_failing_sequence_refuses_bad_input():
    g = parse_group("6")
    w = classic(6)
    # the two modes give different answers here, so a misspelt mode cannot
    # quietly run the multiset walk
    assert exists_failing_sequence(g, w, 7, [6], mode="multiset") is True
    assert exists_failing_sequence(g, w, 7, [6], mode="squarefree") is False
    for length, mode in [(-1, "multiset"), (-1, "squarefree"), (7, "squarefre"), (0, "Multiset")]:
        with pytest.raises(SearchInputError):
            exists_failing_sequence(g, w, length, [1], mode=mode, node_budget=0)
    for zero_lengths in ([0], [-1, 3], []):
        with pytest.raises(SearchInputError, match="zero_lengths must be positive"):
            exists_failing_sequence(g, w, 3, zero_lengths)
    # the empty sequence has no nonempty subsequence, so it always fails
    assert exists_failing_sequence(g, w, 0, [1], node_budget=0) is True


def test_exists_failing_sequence_refuses_lengths_that_are_not_integers():
    # a zero length that is not an integer is refused, not truncated ([1,
    # 2.9] would answer as [1, 2], False, where [1, 3] gives True), and so
    # is such a length, before the walk
    g, w = parse_group("2,4"), pm(4)
    assert exists_failing_sequence(g, w, 6, [1, 2]) is False
    assert exists_failing_sequence(g, w, 6, [1, 3]) is True
    for length, zero_lengths in [(6, [1, 2.9]), (6, [2.0]), (6, [1, "2"]), (2.5, [4]), (3.0, [4])]:
        with pytest.raises(SearchInputError, match="must be integers"):
            exists_failing_sequence(g, w, length, zero_lengths)


@pytest.mark.parametrize("length, mode", [(0, "multiset"), (7, "squarefree"), (3, "multiset")])
def test_exists_failing_sequence_checks_the_weight_set_first(length, mode):
    # the weight set is checked before the shortcuts for length 0 and for a
    # squarefree length past |G|, so a weight set that does not fit never
    # gets an answer
    g = parse_group("6")
    with pytest.raises(SearchInputError, match="^weight modulus 4 does not match exponent 6 of 6$"):
        exists_failing_sequence(g, pm(4), length, [6], mode=mode)
    with pytest.raises(SearchInputError, match="^exists_failing_sequence needs a weight set$"):
        exists_failing_sequence(g, None, length, [6], mode=mode)


def test_exists_failing_sequence_on_long_multiset_lengths():
    # without a 0 term nothing has a zero-sum of length 1, so any length
    # fails; the walk used to recurse once per term and raise RecursionError.
    # 0 is in the dead mask, so the walk pushes 1 seven times, up to the
    # clamp N*cap + 1 = 7
    g, w = parse_group("6"), classic(6)
    assert exists_failing_sequence(g, w, 5000, [1], node_budget=7) is True
    with pytest.raises(SearchBudgetExceeded) as exc:
        exists_failing_sequence(g, w, 5000, [1], node_budget=6)
    assert exc.value.nodes == 7
    # past N*cap + 1 terms the answer no longer depends on the length: the
    # same answers as brute force over every multiset on both sides of it
    answers = set()
    for spec in ("2", "3", "2,2"):
        g = parse_group(spec)
        e = g.exponent
        for weights in (classic(e), pm(e)):
            for zl in ([1], [2], [1, 2], [e], [2, e]):
                clamp = g.order * max(zl) + 1
                for length in range(clamp - 1, clamp + 3):
                    found = []

                    def visit(idxs):
                        s = Sequence.from_indices(g, idxs)
                        if not any(oracle_has_weighted_zero_of_length(s, weights, j) for j in zl):
                            found.append(s)
                            return False

                    enumerate_multisets(g, length, length, visit)
                    got = exists_failing_sequence(g, weights, length, zl)
                    assert got == bool(found), (spec, weights, zl, length)
                    answers.add(got)
    assert answers == {True, False}


def test_exists_failing_sequence_past_the_recursion_limit():
    # the multiset clamp 64*16 + 1 = 1,025 terms is deeper than the default
    # recursion limit; the walk raises the limit while it runs, then restores it
    limit = sys.getrecursionlimit()
    assert exists_failing_sequence(GroupSpec([64]), classic(64), 5000, [16]) is True
    assert sys.getrecursionlimit() == limit


def test_a_census_walk_leaves_no_garbage_cycle():
    # the walk's closure refers to itself; unless the walk breaks that cycle,
    # its hits stay alive until the cyclic collector runs; the same holds
    # for the listing by complements, which carries kernel words when k = 2
    gc.collect()
    gc.disable()
    try:
        for spec, w, size in (("2,8", classic(8), 4896), ("3,6", classic(6), 3384), ("2,8", pm(8), 256)):
            report, census = engine.failing_census(ConstantKind.HARBORTH, parse_group(spec), w)
            assert len(census) == size
            assert gc.collect() == 0, spec
    finally:
        gc.enable()


def test_oracle_calls_leave_no_garbage_cycle():
    # every witness check and every sampled census member calls an oracle;
    # a reference cycle in one (a closure that refers to itself, say) would
    # leave garbage for the cyclic collector on each call
    g = parse_group("2,10")
    member = engine.failing_census(ConstantKind.HARBORTH, g, pm(10))[1][0]
    gc.collect()
    gc.disable()
    try:
        assert compute_constant(ConstantKind.ETA, parse_group("2,6"), classic(6)).value == 8
        assert compute_constant(ConstantKind.DAVENPORT, parse_group("2,6"), classic(6)).value == 7
        for _ in range(20):
            assert not oracle_terms_have_zero_of_length(g, pm(10), member, 10)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compute_constant_dispatch():
    g = parse_group("2,2")
    assert compute_constant(ConstantKind.EGZ, g, classic(2)).value == 5
    assert compute_constant(ConstantKind.CRITICAL, g, None).value == 3


def test_input_validation():
    g = parse_group("2,4")
    with pytest.raises(ValueError):
        harborth(g, WeightSet.plus_minus(3))  # modulus mismatch
    with pytest.raises(ValueError):
        critical_number(parse_group("2"))  # needs at least 3 elements
    with pytest.raises(ValueError):
        compute_constant(ConstantKind.CRITICAL, g, pm(4))  # no weights allowed
    with pytest.raises(ValueError):
        compute_constant(ConstantKind.DAVENPORT, g, None)  # weights required
    with pytest.raises(SearchInputError):
        harborth(g, pm(4), node_budget=-1)


def test_report_serialization_shape():
    r = davenport(parse_group("4"), pm(4))
    d = r.to_dict()
    assert d["schema"] == 1
    assert d["kind"] == "davenport"
    assert d["group"] == "4"
    assert d["weights"] == [1, 3]
    assert d["value"] == 3
    assert "wall_time_ms" not in d


def test_identical_searches_give_equal_reports():
    # a report holds no timing, so it is a plain value of the search inputs
    g, w = parse_group("2,6"), pm(6)
    assert harborth(g, w) == harborth(g, w)
    assert critical_number(parse_group("6")) == critical_number(parse_group("6"))
    first = engine.failing_census(ConstantKind.HARBORTH, g, w)
    assert first == engine.failing_census(ConstantKind.HARBORTH, g, w)
    assert len(first[1]) == 36


_HARBORTH = (ConstantKind.HARBORTH,)
_ENTRY_POINTS = [
    (harborth, (), "2,6"),
    (egz, (), "2,4"),
    (eta, (), "2,4"),
    (davenport, (), "2,4"),
    (critical_number, (), "6"),
    (compute_constant, _HARBORTH, "2,6"),
    (failing_census, _HARBORTH, "2,6"),
    (zerosum.enumerate_extremal, (), "2,6"),
    (zerosum.verify_characterization, (zerosum.TheoremId.PM_GENERAL,), "2,6"),
]


@pytest.mark.parametrize("fn, lead, spec", _ENTRY_POINTS, ids=[e[0].__name__ for e in _ENTRY_POINTS])
def test_node_budget_is_the_only_search_option(fn, lead, spec):
    params = inspect.signature(fn).parameters
    assert [p for p in params.values() if p.kind is inspect.Parameter.KEYWORD_ONLY] == [params["node_budget"]]
    assert all(p.kind is not inspect.Parameter.VAR_KEYWORD for p in params.values())
    g = parse_group(spec)
    args = [*lead, g] + ([] if fn is critical_number else [pm(g.exponent)])
    with pytest.raises(TypeError):
        fn(*args, want_census=True)
    with pytest.raises(TypeError):
        fn(*args, None)  # no positional budget
    fn(*args, node_budget=None)


def test_sources_hold_no_assert_statement():
    # result checks go through engine._check, which survives python -O
    src = Path(zerosum.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

