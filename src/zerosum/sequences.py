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
implementation that shares no machinery with it.  The ``oracle_*``
functions answer the searches' questions the same independent way, from the
addition and scaling tables alone, in polynomial time: by a DP over lengths
on plain sets, or for one weight class by the subsets of the smaller side of
each kept/dropped split while those are few.
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
        if modulus < 1:  # before reducing, which would divide by zero
            raise ValueError("weight modulus must be positive")
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


def sigma_index(group: GroupSpec, idxs: Iterable[int]) -> int:
    """The index of sigma(S), the sum of the terms, for S as element indices."""
    add = group.add_table
    total = 0
    for idx in idxs:
        total = add[total][idx]
    return total


def sigma(seq: Sequence) -> GroupElement:
    """The sum of all terms (the empty sequence sums to 0)."""
    return GroupElement(seq.group, sigma_index(seq.group, seq.indices()))


def nonempty_subsums(seq: Sequence) -> SumSet:
    """All sums over nonempty subsequences."""
    g = seq.group
    ne = 0
    for i in seq.indices():
        ne = ne | g.translate_bits(ne, i) | (1 << i)
    return SumSet(g, ne)


def subsums_sigma0(seq: Sequence) -> SumSet:
    """All subsequence sums including the empty one."""
    return SumSet(seq.group, nonempty_subsums(seq).bits | 1)


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


def _or_of_shifts(pieces: list[tuple[int, int]]):
    """The function x -> OR of (x & m) << s over the ``(m, s)`` pieces,
    written out for two, four or eight pieces (padded with empty ones), and
    past eight as the OR of the functions of the first eight and the rest."""
    if len(pieces) > 8:
        head, tail = _or_of_shifts(pieces[:8]), _or_of_shifts(pieces[8:])
        return lambda x: head(x) | tail(x)
    (m0, s0), (m1, s1), (m2, s2), (m3, s3), (m4, s4), (m5, s5), (m6, s6), (m7, s7) = (
        pieces + [(0, 0)] * (8 - len(pieces)))
    if len(pieces) <= 2:
        return lambda x: (x & m0) << s0 | (x & m1) << s1
    if len(pieces) <= 4:
        return lambda x: (x & m0) << s0 | (x & m1) << s1 | (x & m2) << s2 | (x & m3) << s3
    return lambda x: ((x & m0) << s0 | (x & m1) << s1 | (x & m2) << s2 | (x & m3) << s3
                      | (x & m4) << s4 | (x & m5) << s5 | (x & m6) << s6 | (x & m7) << s7)


@lru_cache(maxsize=64)
def _packed_ops(group: GroupSpec, weights: WeightSet, cap: int):
    """Per element g: the function that ORs the translates of a word's rows
    0..cap-1 by each distinct w*g, each moved up one row (built on first use).

    A translation by h rotates each coordinate's digit on its own, and
    ``group._translation_ops`` gives one op per digit h moves: a bit whose
    digit does not wrap moves up by t*stride, one whose digit wraps moves
    down by (n - t)*stride, each picked out by a mask of that digit.  So a
    translation is an OR of masked shifts, one for each choice of wrapping
    digits, with the AND of the chosen masks and the sum of their moves.
    The pieces of every w*g that share a move share one shift.  Moving up one
    row adds N to each move, so every shift is a left shift, and the masks,
    tiled over rows 0..cap-1, keep row cap out."""
    N = group.order
    tile = _replicate(1, N, cap * N)
    kernels = []
    for row in weight_multiples(group, weights):
        merged: dict[int, int] = {}
        for wg in row:
            pieces = [(0, group.full_mask)]
            for m1, s1, m2, s2 in group._translation_ops[wg]:
                pieces = [(move + step, m & mask) for move, m in pieces for mask, step in ((m1, s1), (m2, -s2))]
            for move, m in pieces:
                merged[move] = merged.get(move, 0) | m
        kernels.append(_or_of_shifts([(m * tile, move + N) for move, m in merged.items()]))
    return tuple(kernels)


def subsum_kernel(group: GroupSpec, weights: WeightSet, cap: int, zero_lengths: tuple[int, ...] = ()):
    """The per-length weighted subsum table as ``(init_word, push)``.

    The state is one int: row j (rows 0..cap) is the N-bit mask at bit
    ``j*N``, N = |G|.  ``push(word, g)`` adds element g as one more term,
    row j becoming row j | (row j-1 + w*g) for each w (one call of g's
    ``_packed_ops`` function), and returns the new word, or ``None`` when
    some row listed in ``zero_lengths`` would contain zero.  Only live
    words, whose zero_lengths rows hold no zero, may be pushed; then 0
    enters row j exactly when some -w*g lies in row j-1, so one AND decides
    a dead child before its word is built.
    """
    if cap < 0:
        raise ValueError("table cap must be nonnegative")
    N = group.order
    shifted = _packed_ops(group, weights, cap)
    below_zero_rows = sum(1 << (j - 1) * N for j in set(zero_lengths) if j <= cap)
    pre = tuple(k * below_zero_rows for k in negated_multiples(group, weights))

    def push(word: int, g: int):
        if word & pre[g]:
            return None
        return word | shifted[g](word)

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
    for i in seq.indices():
        word = push(word, i)
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
    machinery, by ``oracle_terms_have_zero_of_length``."""
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
    of whichever side is smaller, m = min(length, count - length) terms,
    while those C(count, m)*m reads cost no more than the length DP's
    count*(count - length + 1)*|G|.  Otherwise it reads row ``length`` of
    the DP (``_zero_in_rows``).
    """
    count = len(terms)
    if length == 0:
        return True
    if length > count:
        return False
    side = min(length, count - length)
    if len(weights.classes) == 1 and comb(count, side) * side <= count * (count - length + 1) * group.order:
        add, times_w = group.add_table, group.scale_table[weights.classes[0]]
        target = 0
        if side < length:  # list the dropped terms
            total = 0
            for t in terms:
                total = add[total][t]
            target = times_w[total]
        for subset in combinations(terms, side):
            acc = 0
            for t in subset:
                acc = add[acc][t]
            if times_w[acc] == target:
                return True
        return False
    return _zero_in_rows(group, weights, terms, length, length)


def oracle_ops(weights: WeightSet, count: int, length: int) -> int:
    """The price ``enumerate_extremal``'s sample rule puts on one length
    oracle call on ``count`` terms: for one weight class C(count, m)*m,
    m = min(length, count - length), the reads of the subset complement; for
    several C(count, length)*|W|^length*length, the reads of a recursion
    over weight assignments.  The oracle's DP costs far less there, but a DP
    over every member measured slower than the sample this price keeps."""
    if not 0 < length <= count:
        return 0
    if len(weights.classes) == 1:
        side = min(length, count - length)
        return comb(count, side) * side
    return comb(count, length) * len(weights.classes) ** length * length


def oracle_has_weighted_zero_up_to(seq: Sequence, weights: WeightSet, maxlen: int) -> bool:
    """Whether some nonempty subsequence of length <= maxlen has a weighted
    zero-sum: rows 1..maxlen of the length DP (``_zero_in_rows``),
    independent of the table machinery."""
    if weights.modulus != seq.group.exponent:
        raise ValueError("weight modulus does not match the group exponent")
    return _zero_in_rows(seq.group, weights, seq.indices(), 1, maxlen)


def _zero_in_rows(group: GroupSpec, weights: WeightSet, terms: tuple[int, ...], low: int, high: int) -> bool:
    """Whether some subsequence of ``low`` to ``high`` terms, low >= 1, has 0
    among its weighted sums, by a DP over lengths on plain sets.

    ``rows[j]`` holds the weighted sums of the length-j subsequences of the
    terms read so far.  Each term updates the highest row first, so the row
    below still lacks the term when it is read.  After term p, count - p - 1
    terms are left, so a row below low - (count - p - 1) can no longer reach
    ``low`` and the pass skips it.  The first 0 in a row from low to high
    stops the DP.
    """
    count = len(terms)
    rows = [{0}] + [set() for _ in range(high)]
    for p, t in enumerate(terms):
        shifts = [group.add_table[s] for s in {group.scale_table[w][t] for w in weights.classes}]
        for j in range(min(high, p + 1), max(low - (count - p - 1), 1) - 1, -1):
            row, below = rows[j], rows[j - 1]
            for shift in shifts:
                row.update(map(shift.__getitem__, below))
            if j >= low and 0 in row:
                return True
    return False


def oracle_nonempty_subsums(seq: Sequence) -> set[int]:
    """Nonempty subsequence sums as a plain set, grown one term at a time."""
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
