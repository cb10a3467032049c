"""Sequences over a group, weight sets, and weighted subsum tables.

A sequence is a finite multiset of group elements, stored as a multiplicity
vector over the dense element index.  The central computation is the
per-length weighted subsum table: row L holds every value w1*g1 + ... + wL*gL
obtainable from a length-L subsequence with weights drawn from the weight
set.  Rows are bit masks packed into one int, row j at bit ``j*|G|``, so
pushing one term costs a few word operations for the whole table, and one
AND decides beforehand whether the term adds a forbidden zero-sum.

``weighted_length_sums_oracle`` recomputes the same data by enumerating all
subsequences and weight assignments directly.  It is exponential and exists
so the table (and every search built on it) can be checked against an
implementation that shares no machinery with it, and so do the ``oracle_*``
functions (for one weight class, by subsets of the smaller side of each
kept/dropped split).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb
from typing import Callable, Iterable, Iterator

from zerosum.groups import GroupElement, GroupSpec, SumSet, _replicate


@dataclass(frozen=True)
class WeightSet:
    """A nonempty set of integer weight classes modulo a fixed exponent."""

    modulus: int
    classes: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("weight modulus must be positive")
        if not self.classes:
            raise ValueError("weight set must be nonempty")
        if self.classes != tuple(sorted(set(w % self.modulus for w in self.classes))):
            raise ValueError("weight classes must be reduced, sorted and duplicate-free")

    @classmethod
    def of(cls, modulus: int, weights: Iterable[int]) -> "WeightSet":
        return cls(modulus, tuple(sorted(set(w % modulus for w in weights))))

    @classmethod
    def classic(cls, modulus: int) -> "WeightSet":
        return cls.of(modulus, [1])

    @classmethod
    def plus_minus(cls, modulus: int) -> "WeightSet":
        return cls.of(modulus, [1, modulus - 1])

    @classmethod
    def parse(cls, text: str, modulus: int) -> "WeightSet":
        """Parse ``pm``, ``classic`` or a comma-separated residue list."""
        text = text.strip()
        if text == "pm":
            return cls.plus_minus(modulus)
        if text == "classic":
            return cls.classic(modulus)
        parts = [p.strip() for p in text.split(",")]
        if not parts or any(not p for p in parts):
            raise ValueError(f"malformed weight spec {text!r}")
        try:
            ws = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"malformed weight spec {text!r}: weights must be integers") from None
        return cls.of(modulus, ws)

    @property
    def trivial(self) -> bool:
        """True when the zero class is available, collapsing every sum to 0."""
        return 0 in self.classes

    def label(self) -> str:
        if self.classes == WeightSet.classic(self.modulus).classes:
            return "classic"
        if self.classes == WeightSet.plus_minus(self.modulus).classes:
            return "pm"
        return ",".join(str(w) for w in self.classes)

    def __repr__(self) -> str:
        return f"WeightSet({{{','.join(str(w) for w in self.classes)}}} mod {self.modulus})"


def weights_for(group: GroupSpec, spec: str) -> WeightSet:
    return WeightSet.parse(spec, group.exponent)


@lru_cache(maxsize=64)
def _term_literals(group: GroupSpec) -> tuple[str, ...]:
    """Per element index: its coordinates as a literal term, ``(a,b)``."""
    return tuple("(" + ",".join(str(c) for c in group.coords_of(i)) + ")" for i in range(group.order))


@dataclass(frozen=True)
class Sequence:
    """A finite multiset of elements of one group (order never matters)."""

    group: GroupSpec
    mult: tuple[int, ...]

    def __post_init__(self):
        if len(self.mult) != self.group.order:
            raise ValueError("multiplicity vector length must equal the group order")
        if any(m < 0 for m in self.mult):
            raise ValueError("multiplicities must be nonnegative")

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, group: GroupSpec) -> "Sequence":
        return cls(group, (0,) * group.order)

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "Sequence":
        mult = [0] * group.order
        for i in indices:
            if not 0 <= i < group.order:
                raise ValueError(f"element index {i} out of range [0,{group.order})")
            mult[i] += 1
        return cls(group, tuple(mult))

    @classmethod
    def from_elements(cls, group: GroupSpec, elems: Iterable[GroupElement]) -> "Sequence":
        idxs = []
        for e in elems:
            if e.group != group:
                raise ValueError("element belongs to a different group")
            idxs.append(e.index)
        return cls.from_indices(group, idxs)

    @classmethod
    def full_squarefree(cls, group: GroupSpec) -> "Sequence":
        return cls(group, (1,) * group.order)

    @classmethod
    def parse(cls, group: GroupSpec, text: str) -> "Sequence":
        """Parse a literal like ``(1,3);(0,2)^2`` (bare ints allowed at rank 1)."""
        text = text.strip()
        if not text:
            return cls.empty(group)
        mult = [0] * group.order
        for raw in text.split(";"):
            term = raw.strip()
            if not term:
                raise ValueError(f"empty term in sequence literal {text!r}")
            count = 1
            if "^" in term:
                term, _, tail = term.partition("^")
                term = term.strip()
                try:
                    count = int(tail.strip())
                except ValueError:
                    raise ValueError(f"bad multiplicity in term {raw.strip()!r}") from None
                if count < 1:
                    raise ValueError(f"multiplicity must be >= 1 in term {raw.strip()!r}")
            if term.startswith("(") and term.endswith(")"):
                inner = term[1:-1]
                try:
                    coords = tuple(int(p.strip()) for p in inner.split(","))
                except ValueError:
                    raise ValueError(f"bad coordinates in term {raw.strip()!r}") from None
            else:
                if group.rank != 1:
                    raise ValueError(f"term {raw.strip()!r} needs a coordinate tuple for rank {group.rank}")
                try:
                    coords = (int(term),)
                except ValueError:
                    raise ValueError(f"bad coordinate in term {raw.strip()!r}") from None
            mult[group.index_of(coords)] += count
        return cls(group, tuple(mult))

    # -- views --------------------------------------------------------------

    @cached_property
    def length(self) -> int:
        return sum(self.mult)

    @property
    def is_squarefree(self) -> bool:
        return all(m <= 1 for m in self.mult)

    def support_indices(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.mult) if m)

    def indices(self) -> tuple[int, ...]:
        """All terms as element indices, with multiplicity, ascending."""
        out = []
        for i, m in enumerate(self.mult):
            out.extend([i] * m)
        return tuple(out)

    def elements(self) -> Iterator[GroupElement]:
        for i in self.indices():
            yield GroupElement(self.group, i)

    def multiplicity(self, member) -> int:
        if isinstance(member, GroupElement):
            if member.group != self.group:
                raise ValueError("element belongs to a different group")
            return self.mult[member.index]
        return self.mult[int(member)]

    def literal(self) -> str:
        terms = _term_literals(self.group)
        return ";".join(terms[i] if m == 1 else f"{terms[i]}^{m}" for i, m in enumerate(self.mult) if m)

    # -- edits ---------------------------------------------------------------

    def remove_index(self, i: int) -> "Sequence":
        if self.mult[i] < 1:
            raise ValueError(f"element index {i} not present")
        mult = list(self.mult)
        mult[i] -= 1
        return Sequence(self.group, tuple(mult))

    def __repr__(self) -> str:
        return f"Sequence[{self.literal() or 'empty'} over {self.group}]"


# -- plain subsums ------------------------------------------------------------


def sigma(seq: Sequence) -> GroupElement:
    """The sum of all terms (the empty sequence sums to 0)."""
    g = seq.group
    acc = 0
    for i, m in enumerate(seq.mult):
        if m:
            acc = g.add_indices(acc, g.scale_index(m, i))
    return GroupElement(g, acc)


def subsums_sigma0(seq: Sequence) -> SumSet:
    """All subsequence sums including the empty one."""
    g = seq.group
    bits = 1
    for i in seq.indices():
        bits |= g.translate_bits(bits, i)
    return SumSet(g, bits)


def nonempty_subsums(seq: Sequence) -> SumSet:
    """All sums over nonempty subsequences."""
    g = seq.group
    ne = 0
    for i in seq.indices():
        ne = ne | g.translate_bits(ne, i) | (1 << i)
    return SumSet(g, ne)


# -- weighted subsums ----------------------------------------------------------


@lru_cache(maxsize=64)
def weight_multiples(group: GroupSpec, weights: WeightSet) -> tuple[tuple[int, ...], ...]:
    """Per element g: each distinct w*g for w in the weight set, once."""
    if weights.modulus != group.exponent:
        raise ValueError(f"weight modulus {weights.modulus} does not match exponent {group.exponent}")
    return tuple(tuple(dict.fromkeys(group.scale_index(w, g) for w in weights.classes))
                 for g in range(group.order))


@lru_cache(maxsize=64)
def negated_multiples(group: GroupSpec, weights: WeightSet) -> tuple[int, ...]:
    """Per element g: the mask of ``{-w*g}``; sums A meet it exactly when some A + w*g holds 0."""
    return tuple(sum(1 << group.neg_index(wg) for wg in row) for row in weight_multiples(group, weights))


@lru_cache(maxsize=64)
def _packed_ops(group: GroupSpec, weights: WeightSet, cap: int):
    """Per element g: the translation ops of each distinct w*g, masks tiled over rows 0..cap-1."""
    tile = _replicate(1, group.order, cap * group.order)
    trans = tuple(tuple((m1 * tile, s1, m2 * tile, s2) for m1, s1, m2, s2 in ops)
                  for ops in group._translation_ops)
    return tuple(tuple(trans[wg] for wg in row) for row in weight_multiples(group, weights))


def subsum_kernel(group: GroupSpec, weights: WeightSet, cap: int, zero_lengths: tuple[int, ...] = ()):
    """The per-length weighted subsum table as ``(init_word, push)``.

    The state is one int: row j (rows 0..cap) is the N-bit mask at bit
    ``j*N``, N = |G|.  ``push(word, g, new_size)`` adds element g as term
    number ``new_size``, row j becoming row j | (row j-1 + w*g) for each w,
    and returns the new word and False, or the input word and True when some
    row listed in ``zero_lengths`` would contain zero.  Only live words, whose
    zero_lengths rows hold no zero, may be pushed; then 0 enters row j exactly
    when some -w*g lies in row j-1, so one AND decides a dead child before
    its word is built.
    """
    if cap < 0:
        raise ValueError("table cap must be nonnegative")
    N = group.order
    ops_table = _packed_ops(group, weights, cap)
    low = (1 << cap * N) - 1  # rows 0..cap-1, the ones a push translates
    below_zero_rows = sum(1 << (j - 1) * N for j in set(zero_lengths) if j <= cap)
    pre = tuple(k * below_zero_rows for k in negated_multiples(group, weights))

    def push(word: int, g: int, new_size: int):
        if word & pre[g]:
            return word, True
        x0 = word & low
        acc = 0
        for ops in ops_table[g]:
            x = x0
            for m1, s1, m2, s2 in ops:
                x = ((x & m1) << s1) | ((x & m2) >> s2)
            acc |= x
        return word | (acc << N), False

    return 1, push


def weighted_sums(seq: Sequence, weights: WeightSet) -> SumSet:
    """sigma_W(S): every w1*g1 + ... + wk*gk using all terms once."""
    return length_sum_table(seq, weights, seq.length).row(seq.length)


@dataclass(frozen=True)
class LengthSumTable:
    """Row L = union of sigma_W(T) over length-L subsequences T."""

    group: GroupSpec
    weights: WeightSet
    cap: int
    rows: tuple[int, ...]

    def row(self, length: int) -> SumSet:
        return SumSet(self.group, self.rows[length])

    def contains_zero(self, length: int) -> bool:
        if length > self.cap:
            raise ValueError(f"row {length} beyond table cap {self.cap}")
        return bool(self.rows[length] & 1)


def length_sum_table(seq: Sequence, weights: WeightSet, cap: int) -> LengthSumTable:
    """Build rows 0..cap of the per-length weighted subsum table."""
    word, push = subsum_kernel(seq.group, weights, cap)
    for size, i in enumerate(seq.indices(), 1):
        word, _ = push(word, i, size)
    N, full = seq.group.order, seq.group.full_mask
    return LengthSumTable(seq.group, weights, cap, tuple((word >> j * N) & full for j in range(cap + 1)))


def has_weighted_zero_of_length(seq: Sequence, weights: WeightSet, length: int) -> bool:
    """Whether some length-``length`` subsequence has 0 among its weighted sums."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return True
    if length > seq.length:
        return False
    return length_sum_table(seq, weights, length).contains_zero(length)


# -- exhaustive oracle ---------------------------------------------------------


def weighted_length_sums_oracle(seq: Sequence, weights: WeightSet) -> dict[int, set[int]]:
    """Brute force: every subsequence, every weight assignment.

    Exponential in the length; only for cross-checking small instances.
    """
    if weights.modulus != seq.group.exponent:
        raise ValueError("weight modulus does not match the group exponent")
    g = seq.group
    terms = seq.indices()
    out: dict[int, set[int]] = {ln: set() for ln in range(len(terms) + 1)}
    out[0].add(0)
    for ln in range(1, len(terms) + 1):
        sums = out[ln]
        for combo in combinations(terms, ln):
            for ws in product(weights.classes, repeat=ln):
                acc = 0
                for w, i in zip(ws, combo):
                    acc = g.add_indices(acc, g.scale_index(w, i))
                sums.add(acc)
    return out


def oracle_has_weighted_zero_of_length(seq: Sequence, weights: WeightSet, length: int) -> bool:
    """Same question as has_weighted_zero_of_length, answered with no shared
    machinery: by subset enumeration for a single weight class, else by
    direct recursion over weight assignments."""
    if weights.modulus != seq.group.exponent:
        raise ValueError("weight modulus does not match the group exponent")
    return oracle_terms_have_zero_of_length(seq.group, weights, seq.indices(), length)


def oracle_terms_have_zero_of_length(group: GroupSpec, weights: WeightSet, terms: tuple[int, ...], length: int) -> bool:
    """``oracle_has_weighted_zero_of_length`` over the terms as element
    indices, reading the addition and scaling tables directly; the caller
    checks the weight modulus.

    With one weight class w, a kept subset K has the single weighted sum
    w*sigma(K) = w*sigma(S) - w*sigma(D), D the dropped terms, so it is 0
    exactly when w*sigma(D) = w*sigma(S); the oracle lists the combinations
    of whichever side is smaller, min(length, count - length) terms.
    Several classes take the recursion over weight assignments.
    ``oracle_ops`` estimates the cost of either.
    """
    count = len(terms)
    if length == 0:
        return True
    if length > count:
        return False
    add = group.add_table
    if len(weights.classes) == 1:
        times_w = group.scale_table[weights.classes[0]]
        side, target = length, 0
        if length > count - length:
            total = 0
            for t in terms:
                total = add[total][t]
            side, target = count - length, times_w[total]
        for subset in combinations(terms, side):
            acc = 0
            for t in subset:
                acc = add[acc][t]
            if times_w[acc] == target:
                return True
        return False
    scaled = [[group.scale_table[w][i] for w in weights.classes] for i in terms]

    def rec(pos: int, left: int, acc: int) -> bool:
        if left == 0:
            return acc == 0
        if count - pos < left:
            return False
        if rec(pos + 1, left, acc):
            return True
        row = add[acc]
        for s in scaled[pos]:
            if rec(pos + 1, left - 1, row[s]):
                return True
        return False

    return rec(0, length, 0)


def oracle_ops(weights: WeightSet, count: int, length: int) -> int:
    """About how many table reads ``oracle_terms_have_zero_of_length`` makes
    on ``count`` terms when no zero-sum stops it early."""
    if not 0 < length <= count:
        return 0
    if len(weights.classes) == 1:
        side = min(length, count - length)
        return comb(count, side) * side
    return comb(count, length) * len(weights.classes) ** length * length


def oracle_has_weighted_zero_up_to(seq: Sequence, weights: WeightSet, maxlen: int) -> bool:
    """Whether some nonempty subsequence of length <= maxlen has a weighted
    zero-sum; recursive, independent of the table machinery."""
    if weights.modulus != seq.group.exponent:
        raise ValueError("weight modulus does not match the group exponent")
    g = seq.group
    terms = seq.indices()
    scaled = [[g.scale_index(w, i) for w in weights.classes] for i in terms]

    def rec(pos: int, used: int, acc: int) -> bool:
        if used > 0 and acc == 0:
            return True
        if pos == len(terms) or used == maxlen:
            return False
        if rec(pos + 1, used, acc):
            return True
        for s in scaled[pos]:
            if rec(pos + 1, used + 1, g.add_indices(acc, s)):
                return True
        return False

    return rec(0, 0, 0)


def oracle_nonempty_subsums(seq: Sequence) -> set[int]:
    """Nonempty subsequence sums as a plain set, by recursion."""
    g = seq.group
    out: set[int] = set()
    for i in seq.indices():
        out |= {g.add_indices(s, i) for s in out}
        out.add(i)
    return out


# -- enumeration ----------------------------------------------------------------


def enumerate_squarefree(group: GroupSpec, length: int, visitor: Callable) -> int:
    """Visit every squarefree sequence of the length, in lex index order.

    The visitor receives the ascending index tuple; returning False halts the
    walk.  Returns the number of sequences visited.
    """
    if not 0 <= length <= group.order:
        raise ValueError(f"squarefree length {length} out of range [0,{group.order}]")
    count = 0
    for subset in combinations(range(group.order), length):
        count += 1
        if visitor(subset) is False:
            break
    return count
