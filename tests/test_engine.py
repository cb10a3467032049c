"""Search engine checks: known small values, witness contracts, determinism."""

import gc
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
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
from zerosum.groups import GroupSpec, parse_group
from zerosum.sequences import (
    Sequence,
    WeightSet,
    enumerate_squarefree,
    oracle_has_weighted_zero_of_length,
    oracle_has_weighted_zero_up_to,
    oracle_nonempty_subsums,
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
        init, davenport_push = engine._nonempty_engine(g, w, 1)
        _, critical_push = engine._nonempty_engine(g, w, g.full_mask)
        for _ in range(40):
            idxs = [rng.randrange(g.order) for _ in range(rng.randint(1, 5))]
            # the critical push builds every mask; the davenport push decides
            # a dead child before building it, so it runs up to its first dead push
            state, zero = init, False
            for n, i in enumerate(idxs, 1):
                if not zero:
                    new, zero = davenport_push(state, i, n)
                    prefix = Sequence.from_indices(g, idxs[:n])
                    assert zero == oracle_has_weighted_zero_up_to(prefix, w, n), (spec, w, idxs[:n])
                    if zero:
                        assert new == state  # decided before the push
                state, covered = critical_push(state, i, n)
                if not zero:
                    assert new == state
            seq = Sequence.from_indices(g, idxs)
            sums = set().union(*(weighted_length_sums_oracle(seq, w)[k] for k in range(1, len(idxs) + 1)))
            assert state == sum(1 << x for x in sums), (spec, w, idxs)
            assert zero == oracle_has_weighted_zero_up_to(seq, w, len(idxs)), (spec, w, idxs)
            assert covered == (len(sums) == g.order), (spec, w, idxs)
            if w == classic(e):
                assert sums == oracle_nonempty_subsums(seq), (spec, idxs)


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


_CENSUS_CASES = [(kind, spec, wspec)
                 for spec in ("2,2", "4", "6", "2,4", "3,3")
                 for kind in ConstantKind
                 for wspec in ((None,) if kind is ConstantKind.CRITICAL
                               else ("classic",) if spec == "2,2" else ("classic", "pm"))]


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
    assert list(census) == expected
    assert report.witness == expected[0]
    assert not failing(length + 1)


def test_harborth_witness_is_squarefree_and_colex_least():
    g = parse_group("2,6")
    r = harborth(g, pm(6))
    assert r.witness.is_squarefree
    report, census = failing_census(ConstantKind.HARBORTH, g, pm(6))
    assert report.value == r.value
    assert r.witness in census
    # colex-least member of the census is the reported witness
    key = lambda s: tuple(reversed(s.indices()))
    assert min(census, key=key) == r.witness


def test_census_members_all_fail_and_are_distinct():
    g = parse_group("2,4")
    w = pm(4)
    report, census = failing_census(ConstantKind.HARBORTH, g, w)
    assert len(set(census)) == len(census)
    for s in census:
        assert s.length == report.value - 1
        assert s.is_squarefree
        assert not oracle_has_weighted_zero_of_length(s, w, g.exponent)


_CORRUPTED_WITNESS_RUN = textwrap.dedent("""
    import dataclasses, sys
    import zerosum.engine as engine
    from zerosum.groups import parse_group
    from zerosum.sequences import Sequence, WeightSet

    assert False, "asserts are on; this check must run under python -O"
    search = engine._search_max_failing

    def corrupted(group, *args, **kwargs):
        result = search(group, *args, **kwargs)
        # same length as the true witness, but it holds a zero-sum of length 6
        bad = Sequence.from_indices(group, range(result.witness.length))
        return dataclasses.replace(result, witness=bad)

    engine._search_max_failing = corrupted
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
        return 0, lambda state, g, new_size: (state, False)

    monkeypatch.setattr(engine, "subsum_kernel", never_dead)
    with pytest.raises(engine.InternalCheckError, match="stay below"):
        egz(parse_group("2"), classic(2))


def test_value_search_is_one_walk():
    # one walk with one cap: no shorter-capped round is walked and thrown away
    r = eta(parse_group("2,2,2,2"), classic(2))
    assert r.value == 16
    assert r.nodes_visited == 98_302
    assert r.witness == Sequence.full_squarefree(parse_group("2,2,2,2")).remove_index(0)


# -- node budget ---------------------------------------------------------------------


def test_budget_exceeded():
    with pytest.raises(SearchBudgetExceeded) as exc:
        harborth(parse_group("2,10"), pm(10), node_budget=500)
    assert exc.value.nodes == 501
    assert exc.value.budget == 500


@pytest.mark.parametrize("budget, raised", [(500, 501), (100_000, 100_001),
                                            (157_712, 157_713), (157_713, None)])
def test_budget_is_global_across_roots(budget, raised):
    # harborth 2,10 pm needs 157,713 nodes in all, spread over 20 roots
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
    # the value and the census come from one walk, so the budget is one count
    g = parse_group(spec)
    w = WeightSet.parse(wspec, g.exponent) if wspec else None
    ends = []  # the running node total after each walk
    walk = engine._walk

    def recording(*args, **kwargs):
        out = walk(*args, **kwargs)
        ends.append(out[3])
        return out

    monkeypatch.setattr(engine, "_walk", recording)
    report, census = failing_census(kind, g, w)
    monkeypatch.undo()
    assert ends == [report.nodes_visited]
    assert census[0] == report.witness
    # the first node, a middle node, the very last node
    total = ends[0]
    for budget in (0, total // 2, total - 1):
        with pytest.raises(SearchBudgetExceeded) as exc:
            failing_census(kind, g, w, node_budget=budget)
        assert exc.value.nodes == budget + 1
    again, again_census = failing_census(kind, g, w, node_budget=total)
    assert again.to_dict() == report.to_dict() and again_census == census


def test_budget_bounds_exists_failing_sequence():
    # no length-7 sequence on 2,4 avoids pm zero-sums of length 4: the probe
    # walks all 8 roots, 1,607 nodes in all and at most 635 in one root
    g = parse_group("2,4")
    for budget in (10, 1_000, 1_606):
        with pytest.raises(SearchBudgetExceeded) as exc:
            exists_failing_sequence(g, pm(4), 7, [4], node_budget=budget)
        assert exc.value.nodes == budget + 1
    assert exists_failing_sequence(g, pm(4), 7, [4], node_budget=1_607) is False


def test_exists_failing_sequence_stops_at_the_first_hit():
    # a length-6 sequence on 2,4 avoiding pm zero-sums of length 4 turns up
    # at node 145, and the walk ends there instead of trying the other roots
    g = parse_group("2,4")
    assert exists_failing_sequence(g, pm(4), 6, [4], node_budget=145) is True
    with pytest.raises(SearchBudgetExceeded) as exc:
        exists_failing_sequence(g, pm(4), 6, [4], node_budget=144)
    assert exc.value.nodes == 145


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
    for length, expect, nodes in ((6, True, 145), (7, False, 1_607)):
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


def test_exists_failing_sequence_on_long_multiset_lengths():
    # without a 0 term nothing has a zero-sum of length 1, so any length
    # fails; the walk used to recurse once per term and raise RecursionError
    g, w = parse_group("6"), classic(6)
    assert exists_failing_sequence(g, w, 5000, [1], node_budget=14) is True
    with pytest.raises(SearchBudgetExceeded) as exc:
        exists_failing_sequence(g, w, 5000, [1], node_budget=13)
    assert exc.value.nodes == 14
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
    # its hits stay alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        report, census = engine.failing_census_indices(ConstantKind.HARBORTH, parse_group("2,8"), classic(8))
        assert len(census) == 4896
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
    assert "wall_time_ms" in r.to_dict(include_perf=True)
