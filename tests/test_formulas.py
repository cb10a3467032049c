"""Closed-form module: frozen examples, boundary characterization, engine spot checks."""

import pytest

from zerosum.engine import ConstantKind, critical_number, davenport, egz, eta, harborth
from zerosum.formulas import (
    FormulaValue,
    critical_formula,
    davenport_formula,
    egz_formula,
    eta_formula,
    formula_for,
    gw_equals_order_plus_one,
    harborth_formula,
)
from zerosum.groups import parse_group
from zerosum.sequences import WeightSet


def pm(n):
    return WeightSet.plus_minus(n)


def classic(n):
    return WeightSet.classic(n)


def test_formula_value_api():
    p = FormulaValue.point("x", 7)
    assert p.is_point and p.value == 7 and p.matches(7) and not p.matches(8)
    iv = FormulaValue.interval("x", 3, 5)
    assert not iv.is_point and iv.matches(4) and not iv.matches(6)
    with pytest.raises(ValueError):
        iv.value
    na = FormulaValue.none("out of range")
    assert not na.applicable and not na.matches(3)
    with pytest.raises(ValueError):
        na.value
    with pytest.raises(ValueError):
        FormulaValue.interval("x", 5, 3)
    assert p.to_dict()["value"] == 7
    assert na.to_dict() == {"applicable": False, "reason": "out of range"}


def test_boundary_characterization_examples():
    # elementary 2-groups always sit at |G| + 1
    for spec in ("2", "2,2", "2,2,2"):
        g = parse_group(spec)
        assert gw_equals_order_plus_one(g, classic(2))
    # even cyclic: all classes odd and congruent modulo the 2-part
    assert gw_equals_order_plus_one(parse_group("6"), pm(6))  # 2-part 2: 1 and 5 both odd
    assert gw_equals_order_plus_one(parse_group("4"), classic(4))
    assert gw_equals_order_plus_one(parse_group("12"), WeightSet.of(12, [1, 5]))  # 2-part 4
    assert not gw_equals_order_plus_one(parse_group("8"), pm(8))  # 7 - 1 = 6 not divisible by 8
    assert not gw_equals_order_plus_one(parse_group("6"), WeightSet.of(6, [1, 4]))  # 4 even
    assert not gw_equals_order_plus_one(parse_group("6"), WeightSet.of(6, [2]))
    # odd cyclic and larger rank never do
    assert not gw_equals_order_plus_one(parse_group("5"), pm(5))
    assert not gw_equals_order_plus_one(parse_group("2,4"), pm(4))
    with pytest.raises(ValueError):
        gw_equals_order_plus_one(parse_group("4"), WeightSet.of(4, [0, 1]))


def test_harborth_formula_families():
    assert harborth_formula(parse_group("2,2"), classic(2)) == FormulaValue.point("harborth-elementary2", 5)
    assert harborth_formula(parse_group("6"), pm(6)).value == 7
    assert harborth_formula(parse_group("8"), pm(8)).value == 8
    assert harborth_formula(parse_group("5"), pm(5)).value == 5
    for n, want in {2: 5, 3: 8, 4: 10, 5: 12}.items():
        f = harborth_formula(parse_group(f"2,{2 * n}"), pm(2 * n))
        assert f.tag == "harborth-rank2-pm" and f.value == want
    for n, want in {2: 6, 3: 9, 4: 10, 5: 13}.items():
        f = harborth_formula(parse_group(f"2,{2 * n}"), classic(2 * n))
        assert f.tag == "harborth-rank2-classic" and f.value == want
    assert harborth_formula(parse_group("4"), WeightSet.of(4, [0, 2])).tag == "trivial-weights"
    assert not harborth_formula(parse_group("3,3"), pm(3)).applicable
    assert not harborth_formula(parse_group("2,6"), WeightSet.of(6, [1, 2])).applicable


def test_egz_formula_families():
    assert egz_formula(parse_group("2,2"), pm(2)).tag == "egz-pm-klein"
    assert egz_formula(parse_group("2,2"), pm(2)).value == 5
    for n, want in {2: 3, 3: 4, 4: 6, 6: 8, 10: 13, 12: 15}.items():
        assert egz_formula(parse_group(str(n)), pm(n)).value == want
    for n, want in {2: 7, 3: 9, 4: 12, 6: 16}.items():
        assert egz_formula(parse_group(f"2,{2 * n}"), pm(2 * n)).value == want
    assert not egz_formula(parse_group("6"), classic(6)).applicable
    assert not egz_formula(parse_group("3,3"), pm(3)).applicable
    assert egz_formula(parse_group("4"), WeightSet.of(4, [0, 1])).value == 4


def test_davenport_formula_families():
    for n, want in {1: 3, 2: 4, 3: 4, 4: 5, 5: 5, 6: 5}.items():
        f = davenport_formula(parse_group(f"2,{2 * n}"), pm(2 * n))
        assert f.tag == "davenport-pm-rank2-point" and f.value == want
    cyc = davenport_formula(parse_group("12"), pm(12))
    assert cyc.is_point and cyc.value == 4
    box = davenport_formula(parse_group("3,3"), pm(3))
    assert box.tag == "davenport-pm-log-bounds" and (box.lo, box.hi) == (3, 4) and not box.is_point
    exact = davenport_formula(parse_group("4,4"), pm(4))
    assert exact.is_point and exact.value == 5
    assert not davenport_formula(parse_group("6"), classic(6)).applicable
    assert davenport_formula(parse_group("6"), WeightSet.of(6, [0, 3])).value == 1


def test_eta_formula_families():
    assert eta_formula(parse_group("2,2"), pm(2)) == FormulaValue.point("eta-pm-klein", 4)
    for spec, want in {"2,4": 4, "2,6": 4, "2,8": 5, "2,12": 5, "4,4": 5, "4,8": 6, "8,8": 7}.items():
        f = eta_formula(parse_group(spec), pm(parse_group(spec).exponent))
        assert f.tag == "eta-pm-two-power-scaled" and f.value == want, spec
    assert not eta_formula(parse_group("6"), pm(6)).applicable
    assert not eta_formula(parse_group("3,3"), pm(3)).applicable
    assert not eta_formula(parse_group("6,6"), pm(6)).applicable
    assert not eta_formula(parse_group("2,6"), classic(6)).applicable
    assert eta_formula(parse_group("6"), WeightSet.of(6, [0, 3])) == FormulaValue.point("trivial-weights", 1)


def test_critical_formula_values():
    expected = {"2,2": 3, "4": 3, "6": 4, "2,4": 5, "8": 5, "10": 5, "12": 6, "2,6": 6,
                "2,2,2": 4, "16": 8, "2,8": 8, "4,4": 8, "2,2,4": 8, "2,2,2,2": 8, "14": 7}
    for spec, want in expected.items():
        f = critical_formula(parse_group(spec))
        assert f.applicable and f.value == want, spec
    assert not critical_formula(parse_group("5")).applicable
    assert not critical_formula(parse_group("9")).applicable
    assert not critical_formula(parse_group("2")).applicable


def test_dispatch():
    g = parse_group("2,4")
    assert formula_for(ConstantKind.HARBORTH, g, pm(4)).value == 5
    assert formula_for(ConstantKind.CRITICAL, g, None).value == 5
    with pytest.raises(ValueError):
        formula_for(ConstantKind.CRITICAL, g, pm(4))
    with pytest.raises(ValueError):
        formula_for(ConstantKind.ETA, g, None)
    with pytest.raises(ValueError):
        harborth_formula(g, pm(3))


@pytest.mark.parametrize("formula", [egz_formula, davenport_formula, eta_formula, gw_equals_order_plus_one])
def test_formulas_refuse_a_weight_modulus_off_the_exponent(formula):
    with pytest.raises(ValueError, match="^weight modulus does not match the group exponent$"):
        formula(parse_group("2,4"), pm(3))


def test_families_are_arithmetically_consistent():
    # on C2 x C2n with n >= 2 the sequence constant equals exp + davenport - 1,
    # and eta agrees with davenport; the Klein group sits strictly above both
    for n in range(2, 13):
        g = parse_group(f"2,{2 * n}")
        w = pm(2 * n)
        s = egz_formula(g, w).value
        d = davenport_formula(g, w).value
        assert s == g.exponent + d - 1
        assert eta_formula(g, w).value == d
    klein = parse_group("2,2")
    assert egz_formula(klein, pm(2)).value == 5 > klein.exponent + davenport_formula(klein, pm(2)).value - 1


def test_formulas_match_engine_spot_checks():
    # cyclic squarefree constant across assorted weight pairs
    for n, wspec in ((5, "pm"), (6, "pm"), (6, "2"), (6, "3"), (6, "1,4"), (8, "pm"),
                     (8, "1,3"), (12, "1,5"), (7, "1,2"), (9, "classic")):
        g = parse_group(str(n))
        w = WeightSet.parse(wspec, n)
        f = harborth_formula(g, w)
        assert f.is_point
        assert harborth(g, w).value == f.value, (n, wspec)
    # eta beyond the 2 x 2n family
    g = parse_group("4,4")
    assert eta(g, pm(4)).value == eta_formula(g, pm(4)).value
    # davenport interval on a group with slack
    g = parse_group("3,3")
    assert davenport_formula(g, pm(3)).matches(davenport(g, pm(3)).value)
    # critical numbers on both bumped and baseline orders
    for spec in ("6", "10", "2,4"):
        g = parse_group(spec)
        assert critical_number(g).value == critical_formula(g).value
    # egz on the Klein group
    assert egz(parse_group("2,2"), pm(2)).value == 5
