"""Binary relations over a poset carrier.

Provides closure operators, boolean relation algebra, classification
predicates, and the two-way translation between preorders and ordered
partitions (blocks of mutually related elements plus a partial order on
the blocks).  An ordered partition carries its block labelling: the
block of each carrier element (``labels``) and the block order as a
``Poset`` (``order``), both built once when it is validated, so the
rest of the library never maps block names back to carrier indices.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError
from .poset import Poset, bits, close_rows, compose_rows, fibres, transpose


@dataclass(frozen=True)
class Rel:
    """A binary relation on a carrier, one bitmask row per element.

    The carrier's partial order is available but not implied: a Rel can
    hold any relation.  Classification is computed on first use and
    cached on the instance, since the rows never change.
    """

    carrier: Poset
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.carrier.elements)
        if len(self.rows) != n:
            raise ValidationError("relation matrix does not match carrier size")
        full = (1 << n) - 1
        for row in self.rows:
            if row & ~full:
                raise ValidationError("relation row mentions an unknown index")

    def holds(self, x: str, y: str) -> bool:
        return bool((self.rows[self.carrier.index(x)] >> self.carrier.index(y)) & 1)

    def holds_idx(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Related pairs in row-major canonical order."""
        names = self.carrier.elements
        for i, row in enumerate(self.rows):
            for j in bits(row):
                yield names[i], names[j]

    def pair_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def bit_tuple(self) -> tuple[int, ...]:
        """Row-major matrix bits; the canonical sort key for relations."""
        n = len(self.rows)
        return tuple((row >> j) & 1 for row in self.rows for j in range(n))

    @property
    def is_reflexive(self) -> bool:
        return all((row >> i) & 1 for i, row in enumerate(self.rows))

    @cached_property
    def is_symmetric(self) -> bool:
        return transpose(self.rows) == self.rows

    # left uncached: the library reaches it only through the cached
    # is_preorder, and benchmarks/tracing.py wraps this property's getter.
    # The test for a row depends only on its value, so equal rows are
    # tested once.
    @property
    def is_transitive(self) -> bool:
        rows = self.rows
        return all(rows[j] | row == row for row in set(rows) for j in bits(row))

    @property
    def is_antisymmetric(self) -> bool:
        return all(i == j or not self.holds_idx(j, i)
                   for i, row in enumerate(self.rows) for j in bits(row))

    @cached_property
    def is_preorder(self) -> bool:
        return self.is_reflexive and self.is_transitive

    @cached_property
    def is_equivalence(self) -> bool:
        return self.is_preorder and self.is_symmetric

    def subset_of(self, other: "Rel") -> bool:
        _same_carrier(self, other)
        return all(r | o == o for r, o in zip(self.rows, other.rows))


def _same_carrier(r: Rel, s: Rel) -> None:
    if r.carrier != s.carrier:
        raise ValidationError("relations live on different carriers")


def rel_from_pairs(carrier: Poset, pairs: Iterable[tuple[str, str]]) -> Rel:
    rows = [0] * len(carrier.elements)
    for a, b in pairs:
        rows[carrier.index(a)] |= 1 << carrier.index(b)
    return Rel(carrier, tuple(rows))


def identity_rel(carrier: Poset) -> Rel:
    return Rel(carrier, tuple(1 << i for i in range(len(carrier.elements))))


def all_rel(carrier: Poset) -> Rel:
    full = (1 << len(carrier.elements)) - 1
    return Rel(carrier, (full,) * len(carrier.elements))


def order_rel(carrier: Poset) -> Rel:
    """The carrier's own partial order, as a relation value."""
    return Rel(carrier, carrier.rows)


def is_complete_preorder(q: Rel) -> bool:
    """A preorder containing the carrier order.

    On finite posets this coincides with the definition by suprema of
    directed subsets; the tests check that definition literally and
    assert that the two agree.
    """
    return q.is_preorder and order_rel(q.carrier).subset_of(q)


_CLASSES = {
    "preorder": (lambda r: r.is_preorder, "a preorder"),
    "equivalence": (lambda r: r.is_equivalence, "an equivalence relation"),
    "complete": (is_complete_preorder, "a complete preorder"),
}


def require(r: Rel, cls: str | None, what: str,
            carrier: Poset | None = None) -> None:
    """Reject ``r`` unless it is in ``cls`` ('preorder', 'equivalence',
    'complete' or None for any relation) and, when given, lives on
    ``carrier``.  ``what`` names the argument in the error message."""
    if cls is not None:
        test, noun = _CLASSES[cls]
        if not test(r):
            raise ValidationError(f"{what} must be {noun}")
    if carrier is not None and r.carrier != carrier:
        raise ValidationError(f"{what} lives on the wrong carrier")


CLOSURE_KINDS = ("refl_trans", "equivalence")


def close(r: Rel, kind: str) -> Rel:
    """Reflexive-transitive or full equivalence closure."""
    if kind not in CLOSURE_KINDS:
        raise ValidationError(f"unknown closure kind {kind!r}")
    rows = r.rows
    if kind == "equivalence":
        rows = [a | b for a, b in zip(rows, transpose(rows))]
    return Rel(r.carrier, tuple(close_rows(rows)))


def intersect(r: Rel, s: Rel) -> Rel:
    _same_carrier(r, s)
    return Rel(r.carrier, tuple(a & b for a, b in zip(r.rows, s.rows)))


def union(r: Rel, s: Rel) -> Rel:
    _same_carrier(r, s)
    return Rel(r.carrier, tuple(a | b for a, b in zip(r.rows, s.rows)))


def invert(r: Rel) -> Rel:
    return Rel(r.carrier, transpose(r.rows))


def compose(r: Rel, s: Rel) -> Rel:
    """Relational composition: x (r;s) z iff some y has x r y and y s z."""
    _same_carrier(r, s)
    return Rel(r.carrier, compose_rows(r.rows, s.rows))


def restrict_rel(r: Rel, target: Poset) -> Rel:
    """Restrict to a sub-carrier, matched up by element name."""
    src = [r.carrier.index(name) for name in target.elements]
    rows = []
    for i in src:
        row = 0
        for jt, js in enumerate(src):
            if r.holds_idx(i, js):
                row |= 1 << jt
        rows.append(row)
    return Rel(target, tuple(rows))


@dataclass(frozen=True)
class OrderedPartition:
    """Blocks covering the carrier plus a partial order on block indices.

    Validation builds two derived views: ``labels[i]`` is the block of
    carrier element i, and ``order`` is the block order as a ``Poset``
    on the names ``"0" .. "k-1"`` (its rows are ``block_rows``).  Neither
    takes part in equality or the repr.
    """

    carrier: Poset
    blocks: tuple[tuple[str, ...], ...]
    block_rows: tuple[int, ...]
    labels: tuple[int, ...] = field(init=False, repr=False, compare=False)
    order: Poset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = [-1] * len(self.carrier.elements)
        for b, block in enumerate(self.blocks):
            if not block:
                raise ValidationError("empty block in ordered partition")
            for name in block:
                i = self.carrier.index(name)
                if labels[i] >= 0:
                    raise ValidationError(f"element {name!r} in two blocks")
                labels[i] = b
        if -1 in labels:
            raise ValidationError("blocks do not cover the carrier")
        # the block order must itself be a poset on block indices
        order = Poset(tuple(str(b) for b in range(len(self.blocks))),
                      self.block_rows)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "order", order)

    def block_of(self, name: str) -> int:
        return self.labels[self.carrier.index(name)]

    def block_leq(self, b1: int, b2: int) -> bool:
        return bool((self.block_rows[b1] >> b2) & 1)


def to_ordered_partition(q: Rel) -> OrderedPartition:
    """Split a preorder into mutually-related blocks plus a block order.

    Blocks come out in order of least member index; members keep
    declaration order.
    """
    if not q.is_preorder:
        raise ValidationError("only a preorder has an ordered partition")
    names = q.carrier.elements
    converse = transpose(q.rows)
    labels = [-1] * len(names)
    block_masks: list[int] = []
    for i in range(len(names)):
        if labels[i] < 0:
            # mutual class of i: every j with i q j and j q i
            mask = q.rows[i] & converse[i]
            for j in bits(mask):
                labels[j] = len(block_masks)
            block_masks.append(mask)
    blocks = tuple(tuple(names[j] for j in bits(mask)) for mask in block_masks)
    # the members of a block have equal rows, so their OR is any one of them
    return OrderedPartition(q.carrier, blocks,
                            _block_rows(q.rows, labels, block_masks))


def _block_rows(rows: Sequence[int], labels: Sequence[int],
                block_masks: Sequence[int]) -> tuple[int, ...]:
    """The relation ``rows`` induces on blocks: block b relates to every
    block that the OR of its members' rows meets.  One step per block
    met: the block of the lowest remaining element is recorded and all
    of its members are cleared."""
    out = []
    for reach in compose_rows(block_masks, rows):
        met = 0
        while reach:
            b = labels[(reach & -reach).bit_length() - 1]
            met |= 1 << b
            reach &= ~block_masks[b]
        out.append(met)
    return tuple(out)


def from_ordered_partition(op: OrderedPartition) -> Rel:
    """Expand block structure back into a preorder on the carrier."""
    block_masks = fibres(op.labels, len(op.blocks))
    return Rel(op.carrier, compose_rows((op.block_rows[b] for b in op.labels),
                                        block_masks))


def equivalence_from_blocks(carrier: Poset, blocks: Iterable[Iterable[str]]) -> Rel:
    """Equivalence relation with the given blocks (no order between them)."""
    blocks = tuple(tuple(b) for b in blocks)
    op = OrderedPartition(carrier, blocks,
                          tuple(1 << i for i in range(len(blocks))))
    return from_ordered_partition(op)


def preorder_from_blocks(carrier: Poset, blocks: Iterable[Iterable[str]],
                         covers: Iterable[tuple[int, int]]) -> Rel:
    """Preorder with the given blocks and block order generated by covers."""
    blocks = tuple(tuple(b) for b in blocks)
    rows = [0] * len(blocks)
    for b1, b2 in covers:
        rows[b1] |= 1 << b2
    op = OrderedPartition(carrier, blocks, tuple(close_rows(rows)))
    return from_ordered_partition(op)


def block_label(block: tuple[str, ...]) -> str:
    return "{" + " ".join(block) + "}"


def format_relation(rel: Rel) -> str:
    """One-line rendering.

    Preorders render as their ordered partition: plain blocks for an
    equivalence, ``<=``-joined blocks for a chain, and blocks plus cover
    pairs otherwise.  Anything else falls back to a pair list.
    """
    if not rel.is_preorder:
        return "pairs: " + " ".join(f"({a},{b})" for a, b in rel.pairs())
    op = to_ordered_partition(rel)
    labels = [block_label(b) for b in op.blocks]
    k = len(op.blocks)
    if all(op.block_rows[b] == 1 << b for b in range(k)):
        return " ".join(labels)
    total = all(op.block_leq(b1, b2) or op.block_leq(b2, b1)
                for b1 in range(k) for b2 in range(k))
    if total:
        # in a chain the number of blocks weakly above strictly decreases upward
        by_height = sorted(range(k), key=lambda b: -op.block_rows[b].bit_count())
        return " <= ".join(labels[b] for b in by_height)
    covers = ", ".join(f"{labels[i]} <= {labels[j]}"
                       for i, j in op.order.covers())
    return " ".join(labels) + " ord: " + covers
