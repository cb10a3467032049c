"""Finite abelian group arithmetic on dense element indices.

A group is described by its invariant factor chain ``n1 | n2 | ... | nr``.
Elements are addressed both as coordinate tuples and as a dense mixed-radix
index (the first factor is the least significant digit).  Subsets of the
group are packed into a single Python int, one bit per element, so that the
subsum dynamic programs run word-parallel: translating a whole subset by a
group element is a handful of shift/mask operations instead of a loop over
members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

ORDER_CEILING = 64
SYMMETRY_CAP = 8192


class GroupMismatchError(ValueError):
    """Operands belong to different groups."""


class GroupCeilingError(ValueError):
    """Requested group order exceeds ``ORDER_CEILING``."""


def _replicate(pattern: int, span: int, total: int) -> int:
    """Tile ``pattern`` (one ``span``-bit block) across ``total`` bits."""
    out = 0
    for off in range(0, total, span):
        out |= pattern << off
    return out


class GroupSpec:
    """A finite abelian group C_{n1} + ... + C_{nr} in invariant factor form.

    The factor chain must satisfy n1 | n2 | ... | nr with n1 > 1, and the
    order is capped by ``ORDER_CEILING`` so every subset fits one machine word.
    Instances are immutable after construction and safe to share across
    threads; equality and hashing go by the factor tuple.
    """

    def __init__(self, invariant_factors: Iterable[int]):
        factors = tuple(int(n) for n in invariant_factors)
        if not factors:
            raise ValueError("at least one invariant factor is required")
        if any(n < 2 for n in factors):
            raise ValueError(f"invariant factors must be >= 2, got {factors}")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"invariant factor chain broken: {a} does not divide {b}")
        order = math.prod(factors)
        if order > ORDER_CEILING:
            raise GroupCeilingError(f"group order {order} exceeds ceiling {ORDER_CEILING}")
        self.invariant_factors = factors
        self.rank = len(factors)
        self.order = order
        self.exponent = factors[-1]
        strides = []
        acc = 1
        for n in factors:
            strides.append(acc)
            acc *= n
        self._strides = tuple(strides)
        self.full_mask = (1 << order) - 1

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupSpec) and self.invariant_factors == other.invariant_factors

    def __hash__(self) -> int:
        return hash(self.invariant_factors)

    def __repr__(self) -> str:
        return f"GroupSpec({self.spec_string!r})"

    def __str__(self) -> str:
        return self.spec_string

    @property
    def spec_string(self) -> str:
        """The external form: comma-separated invariant factors, e.g. ``2,12``."""
        return ",".join(str(n) for n in self.invariant_factors)

    def describe(self) -> str:
        return "C" + " x C".join(str(n) for n in self.invariant_factors)

    # -- element encoding -------------------------------------------------

    def index_of(self, coords: Iterable[int]) -> int:
        cs = tuple(coords)
        if len(cs) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(cs)}")
        idx = 0
        for c, n, b in zip(cs, self.invariant_factors, self._strides):
            if not 0 <= c < n:
                raise ValueError(f"coordinate {c} out of range [0,{n})")
            idx += c * b
        return idx

    def coords_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range [0,{self.order})")
        out = []
        for n in self.invariant_factors:
            out.append(index % n)
            index //= n
        return tuple(out)

    def element(self, coords: Iterable[int]) -> "GroupElement":
        return GroupElement(self, self.index_of(coords))

    def element_at(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range [0,{self.order})")
        return GroupElement(self, index)

    @property
    def zero(self) -> "GroupElement":
        return GroupElement(self, 0)

    def elements(self) -> Iterator["GroupElement"]:
        for i in range(self.order):
            yield GroupElement(self, i)

    # -- index arithmetic --------------------------------------------------

    # The tables are built from the coordinate formulas, one invariant factor
    # at a time, not from translate_bits, so the two stay independent checks
    # of each other.  With G' the first factors, of order M, and n the next,
    # the index x + a*M of G' + C_n adds and scales digit by digit.

    @cached_property
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        """``add_table[i][j]`` is the index of i + j (built on first use)."""
        table = [[0]]
        for n, stride in zip(self.invariant_factors, self._strides):
            table = [[s + off for off in [(a + b) % n * stride for b in range(n)] for s in row]
                     for a in range(n) for row in table]
        return tuple(map(tuple, table))

    @cached_property
    def scale_table(self) -> tuple[tuple[int, ...], ...]:
        """``scale_table[k][i]`` is the index of k*i for 0 <= k < exponent."""
        rows = []
        for k in range(self.exponent):
            row = [0]
            for n, stride in zip(self.invariant_factors, self._strides):
                row = [s + k * a % n * stride for a in range(n) for s in row]
            rows.append(tuple(row))
        return tuple(rows)

    def add_indices(self, i: int, j: int) -> int:
        # a negative index would wrap around in the table, so check first
        if not (0 <= i < self.order and 0 <= j < self.order):
            raise ValueError(f"element index {j if 0 <= i < self.order else i} out of range [0,{self.order})")
        return self.add_table[i][j]

    def neg_index(self, i: int) -> int:
        return self.scale_index(-1, i)

    def scale_index(self, k: int, i: int) -> int:
        if not 0 <= i < self.order:
            raise ValueError(f"element index {i} out of range [0,{self.order})")
        return self.scale_table[k % self.exponent][i]

    def order_of_index(self, i: int) -> int:
        cs = self.coords_of(i)
        o = 1
        for c, n in zip(cs, self.invariant_factors):
            o = math.lcm(o, n // math.gcd(n, c))
        return o

    # -- word-parallel subset translation -----------------------------------

    @cached_property
    def _translation_ops(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        """Per element h: shift/mask ops realizing ``bits -> bits + h``.

        Adding h rotates each coordinate's digit independently; a rotation by
        t in coordinate i moves every bit within its span-block of size
        stride*n_i, which two masked shifts accomplish for the whole word at
        once.
        """
        N = self.order
        all_ops = []
        for h in range(N):
            digits = self.coords_of(h)
            ops = []
            for t, n, b in zip(digits, self.invariant_factors, self._strides):
                if t == 0:
                    continue
                span = b * n
                shift = t * b
                lo_width = span - shift
                pattern_lo = (1 << lo_width) - 1
                pattern_hi = ((1 << shift) - 1) << lo_width
                ops.append(
                    (
                        _replicate(pattern_lo, span, N),
                        shift,
                        _replicate(pattern_hi, span, N),
                        lo_width,
                    )
                )
            all_ops.append(tuple(ops))
        return tuple(all_ops)

    def translate_bits(self, bits: int, h: int) -> int:
        """Return the bit mask of ``{x + h : x in bits}``."""
        for m_lo, sl, m_hi, sr in self._translation_ops[h]:
            bits = ((bits & m_lo) << sl) | ((bits & m_hi) >> sr)
        return bits

    def dilate_bits(self, bits: int, k: int) -> int:
        """Return the bit mask of ``{k*x : x in bits}``."""
        out = 0
        while bits:
            low = bits & -bits
            out |= 1 << self.scale_index(k, low.bit_length() - 1)
            bits ^= low
        return out

    # -- shape predicates ---------------------------------------------------

    @property
    def is_cyclic(self) -> bool:
        return self.rank == 1

    @property
    def is_elementary_two(self) -> bool:
        return all(n == 2 for n in self.invariant_factors)

    def shape_2x2n(self) -> int | None:
        """Return n when the group is C2 + C2n (rank two, first factor 2)."""
        if self.rank == 2 and self.invariant_factors[0] == 2:
            return self.invariant_factors[1] // 2
        return None


def parse_group(text: str) -> GroupSpec:
    """Parse a comma-separated invariant factor chain such as ``2,12``."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"malformed group spec {text!r}")
    try:
        factors = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"malformed group spec {text!r}: factors must be integers") from None
    return GroupSpec(factors)


@lru_cache(maxsize=64)
def symmetries(group: GroupSpec, torsion: int) -> tuple[tuple[int, ...], ...]:
    """The maps x -> a(x) + h, for a in a group A of automorphisms and h
    with ``torsion * h = 0`` (0: every h, 1: none, 2: G[2]), each as the
    tuple of the images of the element indices.  They form a group, since
    each such set of h is characteristic.

    A homomorphism is fixed by the images x_i of the basis elements e_i,
    any x_i with n_i * x_i = 0, and is an automorphism when it is one to
    one; the search extends the images of the first i basis elements by
    each candidate x_i and keeps those still one to one.  A is all of
    Aut(G), found among every such x_i; else the monomial maps, x_i a unit
    multiple of a basis element of the same order (the unit multipliers
    and the permutations of equal invariant factors generate them); else
    the unit multipliers alone.  A search gives up when a step would try
    more than ``SYMMETRY_CAP`` extensions or the maps would number more.
    Any subgroup of Aut(G) holding the unit multipliers serves; a smaller
    one only reduces less.
    """
    add, scale, factors, e = group.add_table, group.scale_table, group.invariant_factors, group.exponent
    shifts = [h for h in range(group.order) if scale[torsion % e][h] == 0]
    units = [u for u in range(1, e) if math.gcd(u, e) == 1]

    def search(candidates: list) -> list:
        found = [[0]]  # the one-to-one images of the span of the basis elements so far
        for k, xs in zip(factors, candidates):
            if len(found) * len(xs) > SYMMETRY_CAP:
                return []
            found = [new for img in found for x in xs
                     if len(set(new := [add[a][scale[t][x]] for t in range(k) for a in img])) == len(new)]
        return found if len(found) * len(shifts) <= SYMMETRY_CAP else []

    found = (search([[x for x in range(group.order) if scale[k % e][x] == 0] for k in factors])
             or search([sorted({scale[u][b] for u in units for b, m in zip(group._strides, factors) if m == k})
                        for k in factors])
             or [scale[u] for u in units])
    return tuple(tuple(add[h][x] for x in a) for a in found for h in shifts)


@dataclass(frozen=True)
class GroupElement:
    """A group element; value semantics, totally ordered by dense index."""

    group: GroupSpec
    index: int

    @property
    def coords(self) -> tuple[int, ...]:
        return self.group.coords_of(self.index)

    @property
    def order(self) -> int:
        return self.group.order_of_index(self.index)

    def _require_same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise GroupMismatchError(f"elements of {self.group} and {other.group} do not mix")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._require_same_group(other)
        return GroupElement(self.group, self.group.add_indices(self.index, other.index))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._require_same_group(other)
        return GroupElement(self.group, self.group.add_indices(self.index, self.group.neg_index(other.index)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, self.group.neg_index(self.index))

    def __rmul__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, self.group.scale_index(k, self.index))

    def __lt__(self, other: "GroupElement") -> bool:
        self._require_same_group(other)
        return self.index < other.index

    def __le__(self, other: "GroupElement") -> bool:
        self._require_same_group(other)
        return self.index <= other.index

    def __repr__(self) -> str:
        return f"({','.join(str(c) for c in self.coords)})"


class SumSet:
    """A subset of a group stored as one bit per element."""

    __slots__ = ("group", "bits")

    def __init__(self, group: GroupSpec, bits: int = 0):
        if not 0 <= bits <= group.full_mask:
            raise ValueError("bit mask out of range for group")
        self.group = group
        self.bits = bits

    @classmethod
    def empty(cls, group: GroupSpec) -> "SumSet":
        return cls(group, 0)

    @classmethod
    def full(cls, group: GroupSpec) -> "SumSet":
        return cls(group, group.full_mask)

    @classmethod
    def of(cls, group: GroupSpec, members: Iterable) -> "SumSet":
        bits = 0
        for m in members:
            bits |= 1 << _member_index(group, m)
        return cls(group, bits)

    def _require_same_group(self, other: "SumSet") -> None:
        if self.group != other.group:
            raise GroupMismatchError("sets over different groups do not mix")

    def __contains__(self, member) -> bool:
        return bool(self.bits >> _member_index(self.group, member) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, SumSet) and self.group == other.group and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.group, self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __or__(self, other: "SumSet") -> "SumSet":
        self._require_same_group(other)
        return SumSet(self.group, self.bits | other.bits)

    def __and__(self, other: "SumSet") -> "SumSet":
        self._require_same_group(other)
        return SumSet(self.group, self.bits & other.bits)

    def indices(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def elements(self) -> Iterator[GroupElement]:
        for i in self.indices():
            yield GroupElement(self.group, i)

    def translate(self, h) -> "SumSet":
        return SumSet(self.group, self.group.translate_bits(self.bits, _member_index(self.group, h)))

    def dilate(self, k: int) -> "SumSet":
        return SumSet(self.group, self.group.dilate_bits(self.bits, k))

    def is_full(self) -> bool:
        return self.bits == self.group.full_mask

    def __repr__(self) -> str:
        members = ";".join(repr(e) for e in self.elements())
        return f"SumSet{{{members}}}"


def _member_index(group: GroupSpec, member) -> int:
    if isinstance(member, GroupElement):
        if member.group != group:
            raise GroupMismatchError("element belongs to a different group")
        return member.index
    idx = int(member)
    if not 0 <= idx < group.order:
        raise ValueError(f"element index {idx} out of range [0,{group.order})")
    return idx


def doubling_subgroup(group: GroupSpec) -> SumSet:
    """The subgroup 2G = {2x : x in G}."""
    return SumSet.full(group).dilate(2)


def coset_index_mod_2G(group: GroupSpec, g) -> int:
    """Class of g in G/2G for groups C2 + C2n, numbered 0..3.

    The order is [2G, e1+2G, e2+2G, e1+e2+2G] with respect to the standard
    basis e1 = (1,0), e2 = (0,1).
    """
    if group.shape_2x2n() is None:
        raise ValueError(f"coset indexing needs a C2+C2n group, got {group}")
    a, b = group.coords_of(_member_index(group, g))
    return a + 2 * (b & 1)
