"""Acceptance suite.

One test per headline claim, in order.  Each criterion runs in two passes,
the first with every per-group cache of the package emptied and the second
with those caches filled by the first, and records its canonical JSON
payload per pass; the final determinism criterion compares the recorded
bytes pass against pass.  Time limits are the stated expectations, not
tuning targets.
"""

import json
import random
import time
from itertools import combinations

from zerosum import groups, inverse, sequences
from zerosum.engine import (
    critical_number,
    davenport,
    egz,
    eta,
    exists_failing_sequence,
    harborth,
)
from zerosum.formulas import (
    critical_formula,
    davenport_formula,
    eta_formula,
    gw_equals_order_plus_one,
    harborth_formula,
)
from zerosum.groups import parse_group
from zerosum.inverse import (
    TheoremId,
    check_doubled_subsums_full,
    enumerate_extremal,
    verify_characterization,
)
from zerosum.sequences import (
    Sequence,
    WeightSet,
    has_weighted_zero_of_length,
    oracle_has_weighted_zero_of_length,
    sigma,
    subsums_sigma0,
    weighted_sums,
)

PASSES = ("cold", "warm")

# every abelian group of order at most 16, one invariant factor chain each
SMALL_GROUPS = [
    "2", "3", "4", "2,2", "5", "6", "7", "8", "2,4", "2,2,2", "9", "3,3",
    "10", "11", "12", "2,6", "13", "14", "15", "16", "2,8", "4,4",
    "2,2,4", "2,2,2,2",
]
EVEN_ORDER_GROUPS = [s for s in SMALL_GROUPS
                     if parse_group(s).order % 2 == 0 and parse_group(s).order >= 4]

_reports: dict[str, dict[str, str]] = {}


def pm(n):
    return WeightSet.plus_minus(n)


def classic(n):
    return WeightSet.classic(n)


def passes():
    """Yield each pass name; the cold pass starts with every per-group
    ``lru_cache`` in the package empty."""
    for name in PASSES:
        if name == "cold":
            for module in (groups, inverse, sequences):
                for obj in vars(module).values():
                    if hasattr(obj, "cache_clear"):
                        obj.cache_clear()
        yield name


def record(key, pass_name, payload):
    _reports.setdefault(key, {})[pass_name] = json.dumps(payload, sort_keys=True)


def finish(criterion, started, limit):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {criterion} took {elapsed:.1f}s, limit {limit}s"
    print(f"criterion {criterion}: PASS ({elapsed:.1f}s)")


def cyclic_weight_grid():
    """All (n, W) with n <= 12 and non-trivial W within [1, n-1], |W| <= 2."""
    for n in range(2, 13):
        for classes in [(w,) for w in range(1, n)] + list(combinations(range(1, n), 2)):
            yield n, WeightSet.of(n, classes)


def test_criterion_01_squarefree_pm_values():
    t0 = time.time()
    for pass_name in passes():
        payload = []
        for n in range(1, 6):
            r = harborth(parse_group(f"2,{2 * n}"), pm(2 * n))
            payload.append(r.to_dict())
        assert [p["value"] for p in payload] == [5, 5, 8, 10, 12]
        record("c1", pass_name, payload)
    finish(1, t0, 60)


def test_criterion_02_squarefree_classic_values():
    t0 = time.time()
    for pass_name in passes():
        payload = []
        for n in range(1, 6):
            r = harborth(parse_group(f"2,{2 * n}"), classic(2 * n))
            payload.append(r.to_dict())
        assert [p["value"] for p in payload] == [5, 6, 9, 10, 13]
        record("c2", pass_name, payload)
    finish(2, t0, 60)


def test_criterion_03_cyclic_formula_grid():
    t0 = time.time()
    for pass_name in passes():
        payload = []
        count = 0
        for n, w in cyclic_weight_grid():
            r = harborth(parse_group(str(n)), w)
            fv = harborth_formula(parse_group(str(n)), w)
            assert fv.is_point and r.value == fv.value, (n, w.classes, r.value, fv)
            payload.append(r.to_dict())
            count += 1
        assert count == 286
        record("c3", pass_name, payload)
    finish(3, t0, 600)


def test_criterion_04_order_plus_one_boundary():
    t0 = time.time()
    for pass_name in passes():
        payload = []
        for n, w in cyclic_weight_grid():
            g = parse_group(str(n))
            r = harborth(g, w)
            assert (r.value == g.order + 1) == gw_equals_order_plus_one(g, w), (n, w.classes)
            payload.append(r.to_dict())
        for k in range(1, 5):
            g = parse_group(",".join(["2"] * k))
            r = harborth(g, classic(2))
            assert r.value == g.order + 1
            assert gw_equals_order_plus_one(g, classic(2))
            payload.append(r.to_dict())
        record("c4", pass_name, payload)
    finish(4, t0, 600)


def test_criterion_05_egz_pm_values():
    t0 = time.time()
    for pass_name in passes():
        small = egz(parse_group("2,4"), pm(4))
        klein = egz(parse_group("2,2"), pm(2))
        larger = egz(parse_group("2,6"), pm(6))
        assert (small.value, klein.value, larger.value) == (7, 5, 9)
        record("c5", pass_name, [small.to_dict(), klein.to_dict(), larger.to_dict()])
    t1 = time.time()
    assert egz(parse_group("2,4"), pm(4)).value == 7
    assert time.time() - t1 < 1
    finish(5, t0, 600)


def test_criterion_06_davenport_eta_pm():
    t0 = time.time()
    for pass_name in passes():
        payload = []
        dav, et = [], []
        for n in range(1, 7):
            g = parse_group(f"2,{2 * n}")
            rd = davenport(g, pm(2 * n))
            re = eta(g, pm(2 * n))
            fd = davenport_formula(g, pm(2 * n))
            fe = eta_formula(g, pm(2 * n))
            assert fd.is_point and rd.value == fd.value, (n, rd.value, fd)
            assert fe.is_point and re.value == fe.value, (n, re.value, fe)
            dav.append(rd.value)
            et.append(re.value)
            payload += [rd.to_dict(), re.to_dict()]
        assert dav == [3, 4, 4, 5, 5, 5]
        assert et == [4, 4, 4, 5, 5, 5]
        record("c6", pass_name, payload)
    finish(6, t0, 60)


def test_criterion_07_critical_numbers():
    t0 = time.time()
    for pass_name in passes():
        payload = []
        for spec in EVEN_ORDER_GROUPS:
            g = parse_group(spec)
            r = critical_number(g)
            fv = critical_formula(g)
            assert fv.is_point and r.value == fv.value, (spec, r.value, fv)
            payload.append(r.to_dict())
        assert len(payload) == 15
        record("c7", pass_name, payload)
    finish(7, t0, 300)


def test_criterion_08_characterizations():
    t0 = time.time()
    instances = [
        (TheoremId.C2C4_PM, "2,4", 48),
        (TheoremId.PM_GENERAL, "2,6", 36),
        (TheoremId.PM_GENERAL, "2,8", 256),
        (TheoremId.PM_GENERAL, "2,10", 1260),
        (TheoremId.UNWEIGHTED_EVEN, "2,8", 4896),
        (TheoremId.UNWEIGHTED_ODD, "2,6", 18),
        (TheoremId.UNWEIGHTED_ODD, "2,10", 260),
    ]
    for pass_name in passes():
        payload = []
        for theorem, spec, size in instances:
            t1 = time.time()
            r = verify_characterization(theorem, parse_group(spec))
            assert r.agree, (theorem.value, spec, r.only_in_census, r.only_in_predicate)
            assert r.census_size == size, (theorem.value, spec, r.census_size)
            assert time.time() - t1 < 900
            print(f"{theorem.value} {spec}: census {r.census_size}")
            payload.append(r.to_dict())
        record("c8", pass_name, payload)
    finish(8, t0, 4000)


def test_criterion_09_example_families():
    t0 = time.time()
    g = parse_group("2,8")
    for pass_name in passes():
        payload = []
        for alpha in range(8):
            doubles = Sequence.from_elements(
                g, [g.element((0, alpha))] + [g.element((1, i)) for i in range(8)])
            shifted = Sequence.from_elements(
                g, [g.element((1, alpha))] + [g.element((0, i)) for i in range(8)])
            for name, s in (("alpha-in-doubles", doubles), ("alpha-in-shifted", shifted)):
                assert s.length == 9 and s.is_squarefree
                no_classic = not has_weighted_zero_of_length(s, classic(8), 8)
                pm_zero = has_weighted_zero_of_length(s, pm(8), 8)
                assert no_classic and pm_zero, (name, alpha)
                assert not oracle_has_weighted_zero_of_length(s, classic(8), 8)
                assert oracle_has_weighted_zero_of_length(s, pm(8), 8)
                payload.append({"family": name, "alpha": alpha,
                                "sequence": s.literal(),
                                "classic_zero_len_8": not no_classic,
                                "pm_zero_len_8": pm_zero})
        record("c9", pass_name, payload)
    finish(9, t0, 60)


def test_criterion_10_property_suites():
    t0 = time.time()

    # weighted sums of a whole sequence against shifted doubled subsums
    rng = random.Random(20260816)
    for spec in ["2,4", "2,6", "5", "7"]:
        g = parse_group(spec)
        w = pm(g.exponent)
        odd_order = g.order % 2 == 1
        for _ in range(10_000):
            k = rng.randrange(0, 11)
            s = Sequence.from_elements(
                g, [g.element_at(rng.randrange(g.order)) for _ in range(k)])
            left = weighted_sums(s, w)
            right = subsums_sigma0(s).dilate(2).translate(g.neg_index(sigma(s).index))
            assert left.bits == right.bits, (spec, s.literal())
            if odd_order:
                nonzero_support = sum(1 for i in s.support_indices() if i != 0)
                assert bin(left.bits).count("1") >= 1 + nonzero_support

    # short plus-minus zero-subsums: any length, then even length, all |G| <= 16
    for spec in SMALL_GROUPS:
        g = parse_group(spec)
        w = pm(g.exponent)
        bound = g.order.bit_length()  # floor(log2 |G|) + 1
        assert davenport(g, w).value <= bound, spec
        evens = range(2, bound + 2, 2)
        assert exists_failing_sequence(g, w, bound + 1, evens) is False, spec

    # every extremal member projects its doubled subsums onto all of 2G
    for spec in ["2,6", "2,8"]:
        g = parse_group(spec)
        census = enumerate_extremal(g, pm(g.exponent))
        for member in census.members:
            assert check_doubled_subsums_full(member), (spec, member.literal())

    # sequence constant against exponent plus Davenport
    for spec, w_of in [("2,2", pm), ("2,4", pm), ("2,6", pm), ("4", pm),
                       ("6", pm), ("3", classic), ("4", classic), ("5", classic)]:
        g = parse_group(spec)
        w = w_of(g.exponent)
        s_val = egz(g, w).value
        d_val = davenport(g, w).value
        assert s_val >= g.exponent + d_val - 1, (spec, w.label(), s_val, d_val)

    finish(10, t0, 600)


def test_criterion_11_determinism():
    t0 = time.time()
    assert set(_reports) == {f"c{i}" for i in range(1, 10)}
    for key, by_pass in sorted(_reports.items()):
        assert set(by_pass) == set(PASSES), key
        assert by_pass["cold"] == by_pass["warm"], f"{key} differs between cold and warm caches"
    finish(11, t0, 60)
