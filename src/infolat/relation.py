"""Binary relations over a poset carrier.

Provides closure operators, boolean relation algebra, classification
predicates, and the two-way translation between preorders and ordered
partitions (blocks of mutually related elements plus a partial order on
the blocks).  The library reads a preorder's quotient off its rows
(``preorder_quotient``); ``OrderedPartition`` is its public, validated
view, whose block labelling (``labels``) and block order as a ``Poset``
(``order``) are built once, so its users never map block names back.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError
from .poset import (Poset, bits, close_rows, compose_rows, preorder_cols,
                    preorder_quotient, pull_rows, row_covers, rows_transitive,
                    transpose, unique_names)


_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Rel:
    """A binary relation on a carrier, one bitmask row per element.

    The carrier's partial order is available but not implied: a Rel can
    hold any relation.  Classification is computed on first use and
    cached on the instance, since the rows never change.
    """

    carrier: Poset
    rows: tuple[int, ...]

    def __init__(self, carrier: Poset, rows: tuple[int, ...]) -> None:
        _set(self, "carrier", carrier)
        _set(self, "rows", rows)
        # the one validation hook, looked up on the class so that a
        # wrapper put there sees every construction
        self.__post_init__()

    def __post_init__(self) -> None:
        rows = self.rows
        n = len(self.carrier.elements)
        if len(rows) != n:
            raise ValidationError("relation matrix does not match carrier size")
        # a negative row, or one with a bit at index n or above, keeps
        # bits after the shift
        for row in rows:
            if row >> n:
                raise ValidationError("relation row mentions an unknown index")

    def holds(self, x: str, y: str) -> bool:
        return bool((self.rows[self.carrier.index(x)] >> self.carrier.index(y)) & 1)

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Related pairs in row-major canonical order."""
        names = self.carrier.elements
        for i, row in enumerate(self.rows):
            for j in bits(row):
                yield names[i], names[j]

    def bit_tuple(self) -> tuple[int, ...]:
        """Row-major matrix bits; the canonical sort key for relations."""
        n = len(self.rows)
        return tuple((row >> j) & 1 for row in self.rows for j in range(n))

    @property
    def is_reflexive(self) -> bool:
        return all((row >> i) & 1 for i, row in enumerate(self.rows))

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Transposed rows, the converse: bit i of ``cols[j]`` iff i r j;
        by classes and jumps for a preorder, whole-matrix otherwise."""
        if self.is_preorder:
            return preorder_cols(self.rows)
        return transpose(self.rows, len(self.rows))

    # left uncached and unreached by the library, whose preorder check
    # is the cached quotient; benchmarks/tracing.py wraps this getter.
    @property
    def is_transitive(self) -> bool:
        return rows_transitive(self.rows)

    @cached_property
    def _quotient(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                                 tuple[int, ...]] | None:
        return preorder_quotient(self.rows)

    @cached_property
    def is_preorder(self) -> bool:
        return self._quotient is not None

    @cached_property
    def is_equivalence(self) -> bool:
        return self._quotient is not None and _discrete(self._quotient)

    def subset_of(self, other: "Rel") -> bool:
        _same_carrier(self, other)
        return all(r | o == o for r, o in zip(self.rows, other.rows))


def _discrete(quotient) -> bool:
    """Whether each block of a preorder's quotient is below itself alone."""
    return all(row == 1 << b for b, row in enumerate(quotient[2]))


def _same_carrier(r: Rel, s: Rel) -> None:
    if r.carrier != s.carrier:
        raise ValidationError("relations live on different carriers")


def rel_from_pairs(carrier: Poset, pairs: Iterable[tuple[str, str]]) -> Rel:
    """The relation holding exactly ``pairs``; the first unknown name,
    each pair read left to right, is the one reported."""
    index = carrier._index
    rows = [0] * len(index)
    for a, b in pairs:
        try:
            rows[index[a]] |= 1 << index[b]
        except KeyError as exc:
            raise ValidationError(f"unknown element {exc.args[0]!r}") from None
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
    return q.is_preorder and all(
        c | r == r for c, r in zip(q.carrier.rows, q.rows))


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
        rows = [a | b for a, b in zip(rows, r.cols)]
    return Rel(r.carrier, tuple(close_rows(rows)))


def intersect(r: Rel, s: Rel) -> Rel:
    _same_carrier(r, s)
    return Rel(r.carrier, tuple(a & b for a, b in zip(r.rows, s.rows)))


def union(r: Rel, s: Rel) -> Rel:
    _same_carrier(r, s)
    return Rel(r.carrier, tuple(a | b for a, b in zip(r.rows, s.rows)))


def invert(r: Rel) -> Rel:
    return Rel(r.carrier, r.cols)


def compose(r: Rel, s: Rel) -> Rel:
    """Relational composition: x (r;s) z iff some y has x r y and y s z."""
    _same_carrier(r, s)
    return Rel(r.carrier, compose_rows(r.rows, s.rows))


def restrict_rel(r: Rel, target: Poset) -> Rel:
    """Restrict to a sub-carrier, matched up by element name: the
    pullback of r through each target element's source index."""
    src = [r.carrier.index(name) for name in target.elements]
    return Rel(target, pull_rows(r.rows, src))


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


def to_ordered_partition(q: Rel) -> OrderedPartition:
    """Split a preorder into mutually-related blocks plus a block order.

    Blocks come out in order of least member index; members keep
    declaration order.
    """
    if q._quotient is None:
        raise ValidationError("only a preorder has an ordered partition")
    _, classes, block_rows = q._quotient
    return OrderedPartition(q.carrier, _class_names(q.carrier, classes),
                            block_rows)


def _class_names(carrier: Poset, classes) -> tuple[tuple[str, ...], ...]:
    """Each class of carrier indices as its members' names."""
    return tuple(tuple(map(carrier.elements.__getitem__, c)) for c in classes)


def from_ordered_partition(op: OrderedPartition) -> Rel:
    """Expand block structure back into a preorder on the carrier."""
    return Rel(op.carrier, pull_rows(op.block_rows, op.labels))


def preorder_from_blocks(carrier: Poset, blocks: Iterable[Iterable[str]],
                         covers: Iterable[tuple[int, int]]) -> Rel:
    """Preorder with the given blocks and block order generated by covers."""
    blocks = tuple(tuple(b) for b in blocks)
    rows = [0] * len(blocks)
    for b1, b2 in covers:
        if not (0 <= b1 < len(rows) and 0 <= b2 < len(rows)):
            raise ValidationError("order row mentions an unknown index")
        rows[b1] |= 1 << b2
    op = OrderedPartition(carrier, blocks, tuple(close_rows(rows)))
    return from_ordered_partition(op)


def equivalence_from_blocks(carrier: Poset, blocks: Iterable[Iterable[str]]) -> Rel:
    """Equivalence relation with the given blocks (no order between them)."""
    return preorder_from_blocks(carrier, blocks, ())


def block_label(block: Sequence[str]) -> str:
    return "{" + " ".join(block) + "}"


def _block_names(blocks: Sequence[Sequence[str]]) -> tuple[str, ...]:
    """Names for a poset of blocks (a quotient or a powerdomain): members
    joined by ``+``; a later copy of a join (``{a b}``, ``{a+b}``) takes
    a suffix by :func:`unique_names`."""
    return unique_names(map("+".join, blocks))


def format_relation(rel: Rel) -> str:
    """One-line rendering.

    Preorders render as their ordered partition: plain blocks for an
    equivalence, ``<=``-joined blocks for a chain, and blocks plus cover
    pairs otherwise.  Anything else falls back to a pair list.
    """
    if (quotient := preorder_quotient(rel.rows)) is None:
        return "pairs: " + " ".join(f"({a},{b})" for a, b in rel.pairs())
    _, classes, block_rows = quotient
    labels = [block_label(b) for b in _class_names(rel.carrier, classes)]
    if _discrete(quotient):
        return " ".join(labels)
    # a finite poset is a chain iff its up-sets have pairwise distinct
    # sizes; the largest goes first
    sizes = [row.bit_count() for row in block_rows]
    if len(set(sizes)) == len(sizes):
        by_height = sorted(range(len(sizes)), key=lambda b: -sizes[b])
        return " <= ".join(labels[b] for b in by_height)
    covers = ", ".join(f"{labels[i]} <= {labels[j]}"
                       for i, j in row_covers(block_rows))
    return " ".join(labels) + " ord: " + covers
