"""Search engine checks: known small values, witness contracts, determinism."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import zerosum
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
    max_failing_length,
)
from zerosum.groups import parse_group
from zerosum.sequences import (
    Sequence,
    WeightSet,
    enumerate_multisets,
    enumerate_squarefree,
    oracle_has_weighted_zero_of_length,
    oracle_has_weighted_zero_up_to,
    oracle_nonempty_subsums,
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


# -- cross-checks against the recursive oracle ------------------------------------


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
            if 0 in idxs:
                return True
            s = Sequence.from_indices(g, idxs)
            if oracle_nonempty_subsums(s) != full:
                found.append(s)
                return False
            return True

        enumerate_squarefree(g, length, visit)
        if found:
            best, witness = length, found[0]
    r = critical_number(g)
    assert r.value == best + 1
    assert r.witness == witness


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


# -- determinism, orbit pruning, budget ---------------------------------------------


def test_reports_identical_across_thread_counts():
    g = parse_group("2,6")
    w = pm(6)
    a = harborth(g, w, threads=1)
    b = harborth(g, w, threads=8)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert a.nodes_visited == b.nodes_visited
    ca = failing_census(ConstantKind.HARBORTH, g, w, threads=1)[1]
    cb = failing_census(ConstantKind.HARBORTH, g, w, threads=8)[1]
    assert ca == cb


def test_orbit_pruning_agrees_and_saves_nodes():
    cases = [("2,6", "pm"), ("8", "pm"), ("2,2,2", "classic")]
    for spec, wspec in cases:
        g = parse_group(spec)
        w = WeightSet.parse(wspec, g.exponent)
        plain = harborth(g, w)
        pruned = harborth(g, w, orbit_pruning=True)
        assert pruned.value == plain.value
        assert pruned.witness == plain.witness
        assert pruned.nodes_visited <= plain.nodes_visited
    c_plain = critical_number(parse_group("2,2,2"))
    c_orb = critical_number(parse_group("2,2,2"), orbit_pruning=True)
    assert c_orb.value == c_plain.value and c_orb.witness == c_plain.witness


def test_budget_exceeded():
    with pytest.raises(SearchBudgetExceeded) as exc:
        harborth(parse_group("2,10"), pm(10), node_budget=500)
    assert exc.value.nodes > 500
    assert exc.value.budget == 500


# -- auxiliary entry points -----------------------------------------------------------


def test_exists_failing_sequence_probe():
    g = parse_group("4")
    w = pm(4)
    # Davenport is 3: something of length 2 avoids zero everywhere, nothing of length 3 does
    assert exists_failing_sequence(g, w, 2, range(1, 3))
    assert not exists_failing_sequence(g, w, 3, range(1, 4))
    # squarefree mode: lengths beyond the group order are impossible
    assert not exists_failing_sequence(g, w, 5, [4], mode="squarefree")


def test_max_failing_length_wrapper():
    g = parse_group("2,4")
    res = max_failing_length(g, pm(4), ConstantKind.HARBORTH)
    assert res.length == 4
    assert res.witness.length == 4


def test_compute_constant_dispatch():
    g = parse_group("2,2")
    assert compute_constant(ConstantKind.EGZ, g, classic(2)).value == 5
    assert compute_constant(ConstantKind.CRITICAL, g, None).value == 3


def test_input_validation():
    g = parse_group("2,4")
    with pytest.raises(ValueError):
        harborth(g, WeightSet.plus_minus(3))  # modulus mismatch
    with pytest.raises(ValueError):
        harborth(g, pm(4), mode="multiset")  # squarefree by definition
    with pytest.raises(ValueError):
        critical_number(parse_group("2"))  # needs at least 3 elements
    with pytest.raises(ValueError):
        compute_constant(ConstantKind.CRITICAL, g, pm(4))  # no weights allowed
    with pytest.raises(ValueError):
        compute_constant(ConstantKind.DAVENPORT, g, None)  # weights required
    with pytest.raises(SearchInputError):
        harborth(g, pm(4), threads=0)
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
