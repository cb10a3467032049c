"""Closed-form values and bounds for the searched constants.

Each function reports a FormulaValue: a point value or an interval when a
closed form is known for the (group, weights) shape, and an inapplicable
marker with a reason otherwise.  Nothing here searches; the point of the
module is to give the engine something independent to be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from zerosum.engine import ConstantKind
from zerosum.groups import GroupSpec
from zerosum.sequences import WeightSet


def _log2_floor(n: int) -> int:
    return n.bit_length() - 1


@dataclass(frozen=True)
class FormulaValue:
    applicable: bool
    tag: str | None = None
    lo: int | None = None
    hi: int | None = None
    reason: str | None = None

    @classmethod
    def point(cls, tag: str, value: int) -> "FormulaValue":
        return cls(applicable=True, tag=tag, lo=value, hi=value)

    @classmethod
    def interval(cls, tag: str, lo: int, hi: int) -> "FormulaValue":
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return cls(applicable=True, tag=tag, lo=lo, hi=hi)

    @classmethod
    def none(cls, reason: str) -> "FormulaValue":
        return cls(applicable=False, reason=reason)

    @property
    def is_point(self) -> bool:
        return self.applicable and self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.is_point:
            raise ValueError("no point value: " + (self.reason or f"interval [{self.lo}, {self.hi}]"))
        return self.lo

    def matches(self, observed: int) -> bool:
        return self.applicable and self.lo <= observed <= self.hi

    def to_dict(self) -> dict:
        if not self.applicable:
            return {"applicable": False, "reason": self.reason}
        out = {"applicable": True, "tag": self.tag, "lo": self.lo, "hi": self.hi}
        if self.is_point:
            out["value"] = self.lo
        return out


def gw_equals_order_plus_one(group: GroupSpec, weights: WeightSet) -> bool:
    """Whether every squarefree sequence shorter than the whole group has no
    weighted zero-sum of full-exponent length, i.e. the squarefree constant
    sits at |G| + 1.  True exactly for elementary 2-groups, and for cyclic
    groups of even order n when all weight classes are odd and agree modulo
    the 2-part of n."""
    weights.check_exponent(group)
    if weights.trivial:
        raise ValueError("the boundary characterization needs a weight set without class zero")
    if group.is_elementary_two:
        return True
    if not group.is_cyclic:
        return False
    n = group.order
    if n % 2 == 1:
        return False
    two_part = n & -n
    first = weights.classes[0]
    if first % 2 == 0:
        return False
    return all((w - first) % two_part == 0 for w in weights.classes)


def harborth_formula(group: GroupSpec, weights: WeightSet) -> FormulaValue:
    """Squarefree constant: smallest g with every squarefree sequence of
    length >= g holding a weighted zero-sum of length exp(G)."""
    weights.check_exponent(group)
    if weights.trivial:
        return FormulaValue.point("trivial-weights", group.exponent)
    if group.is_elementary_two:
        return FormulaValue.point("harborth-elementary2", group.order + 1)
    if group.is_cyclic:
        n = group.order
        bump = 1 if gw_equals_order_plus_one(group, weights) else 0
        return FormulaValue.point("harborth-cyclic", n + bump)
    n = group.shape_2x2n()
    if n is not None:
        if weights.is_plus_minus:
            value = 2 * n + 2 if n >= 3 else 5
            return FormulaValue.point("harborth-rank2-pm", value)
        if weights.is_classic:
            value = 2 * n + 3 if n % 2 == 1 else 2 * n + 2
            return FormulaValue.point("harborth-rank2-classic", value)
        return FormulaValue.none(f"no closed form for weights {weights.label()} on {group.describe()}")
    return FormulaValue.none(f"no closed form for {group.describe()}")


def egz_formula(group: GroupSpec, weights: WeightSet) -> FormulaValue:
    """Sequence constant: smallest s with every sequence of length >= s
    holding a weighted zero-sum of length exp(G)."""
    weights.check_exponent(group)
    if weights.trivial:
        return FormulaValue.point("trivial-weights", group.exponent)
    if not weights.is_plus_minus:
        return FormulaValue.none(f"no closed form for weights {weights.label()} on {group.describe()}")
    if group.is_cyclic:
        n = group.order
        return FormulaValue.point("egz-pm-cyclic", n + _log2_floor(n))
    n = group.shape_2x2n()
    if n == 1:
        return FormulaValue.point("egz-pm-klein", 5)
    if n is not None:
        return FormulaValue.point("egz-pm-rank2", 2 * n + _log2_floor(2 * n) + 1)
    return FormulaValue.none(f"no closed form for {group.describe()}")


def davenport_formula(group: GroupSpec, weights: WeightSet) -> FormulaValue:
    """Smallest D with every sequence of length >= D holding a nonempty
    weighted zero-sum."""
    weights.check_exponent(group)
    if weights.trivial:
        return FormulaValue.point("trivial-weights", 1)
    if not weights.is_plus_minus:
        return FormulaValue.none(f"no closed form for weights {weights.label()} on {group.describe()}")
    n = group.shape_2x2n()
    if n is not None:
        return FormulaValue.point("davenport-pm-rank2-point", _log2_floor(2 * n) + 2)
    lo = sum(_log2_floor(f) for f in group.invariant_factors) + 1
    hi = _log2_floor(group.order) + 1
    return FormulaValue.interval("davenport-pm-log-bounds", lo, hi)


def eta_formula(group: GroupSpec, weights: WeightSet) -> FormulaValue:
    """Smallest e with every sequence of length >= e holding a nonempty
    weighted zero-sum of length <= exp(G)."""
    weights.check_exponent(group)
    if weights.trivial:
        return FormulaValue.point("trivial-weights", 1)
    if not weights.is_plus_minus:
        return FormulaValue.none(f"no closed form for weights {weights.label()} on {group.describe()}")
    if group.invariant_factors == (2, 2):
        return FormulaValue.point("eta-pm-klein", 4)
    if group.rank == 2:
        a, b = group.invariant_factors
        if a & (a - 1) == 0 and b >= 4:
            n = b // a
            l = _log2_floor(a)
            return FormulaValue.point("eta-pm-two-power-scaled", _log2_floor(n) + 2 * l + 1)
    return FormulaValue.none(f"no closed form for {group.describe()}")


_CRITICAL_BUMPED = {(2, 2), (4,), (6,), (2, 4), (8,)}


def critical_formula(group: GroupSpec) -> FormulaValue:
    """Smallest c with every zero-free subset of size >= c having subset sums
    covering all of G.  Known for every even order >= 4; five small groups
    sit one above the half-order baseline."""
    if group.order < 4 or group.order % 2 == 1:
        return FormulaValue.none(f"covered only for even order >= 4, not {group.describe()}")
    bump = 1 if group.invariant_factors in _CRITICAL_BUMPED else 0
    return FormulaValue.point("critical-even-order", group.order // 2 + bump)


def formula_for(kind: ConstantKind, group: GroupSpec, weights: WeightSet | None) -> FormulaValue:
    if kind is ConstantKind.CRITICAL:
        if weights is not None:
            raise ValueError("the critical number takes no weight set")
        return critical_formula(group)
    if weights is None:
        raise ValueError(f"{kind.value} needs a weight set")
    fn = {
        ConstantKind.HARBORTH: harborth_formula,
        ConstantKind.EGZ: egz_formula,
        ConstantKind.DAVENPORT: davenport_formula,
        ConstantKind.ETA: eta_formula,
    }[kind]
    return fn(group, weights)
