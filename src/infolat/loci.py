"""Complete preorders on a poset: the order-aware information lattice.

A complete preorder respects the carrier's suprema of directed subsets;
on a finite poset that is the same as containing the carrier order.
That test is `is_complete_preorder`, defined in `relation` and
re-exported here; the tests check it against the directed-suprema
definition.  The lattice is ordered by reverse inclusion with the
carrier order itself at the top.  This module also houses the round
trip to the equivalence world: underlying equivalence (`er`),
completion (`cp`), realisability, and the quotient construction
witnessing that complete preorders are exactly the ordered kernels of
monotone tables.
"""

from dataclasses import dataclass
from typing import Iterator

from .errors import CapExceededError, ValidationError
from .loi import _fibre_images, _image_closure, pullback
from .poset import FnTable, Poset, _monotone_tables, bits, close_rows, fibres
from .relation import (Rel, _block_rows, close, intersect, invert, order_rel,
                       require, to_ordered_partition, union)
from .relation import is_complete_preorder  # noqa: F401  (re-exported)

DEFAULT_ENUMERATION_CAP = 6
DEFAULT_SEARCH_BOUND = 10_000_000


def loci_leq(p: Rel, q: Rel) -> bool:
    """p below q (q more revealing): q contained in p."""
    require(p, "complete", "left argument")
    require(q, "complete", "right argument")
    return q.subset_of(p)


def loci_join(p: Rel, q: Rel) -> Rel:
    """Least upper bound: the intersection."""
    require(p, "complete", "left argument")
    require(q, "complete", "right argument")
    return intersect(p, q)


def loci_meet(p: Rel, q: Rel) -> Rel:
    """Greatest lower bound: reflexive-transitive closure of the union.

    The closure already contains the carrier order, so it is complete.
    """
    require(p, "complete", "left argument")
    require(q, "complete", "right argument")
    return close(union(p, q), "refl_trans")


def ordered_kernel(f: FnTable) -> Rel:
    """Relates x to y when f(x) is below f(y) in the codomain order.

    The order-aware analogue of the kernel; always a complete preorder
    for monotone f.
    """
    return pullback(f, order_rel(f.cod))


def ordered_knowledge_set(f: FnTable, a: str) -> frozenset[str]:
    """Inputs whose observation under f refines what ``a`` shows."""
    v = f.images[f.dom.index(a)]
    return frozenset(x for x, w in zip(f.dom.elements, f.images)
                     if f.cod.leq_idx(v, w))


def loci_pullback(f: FnTable, q: Rel) -> Rel:
    """Inverse image of a complete preorder; again complete for monotone f."""
    require(q, "complete", "relation", f.cod)
    return pullback(f, q)


def loci_pushforward(f: FnTable, p: Rel) -> Rel:
    """Least complete preorder on the codomain the outputs land in.

    Closure of the image pairs together with the codomain order.
    """
    require(p, "complete", "precondition", f.dom)
    return _image_closure(f, p, order_rel(f.cod), "refl_trans")


def er(p: Rel) -> Rel:
    """Underlying equivalence of a preorder: the mutually related pairs."""
    require(p, "preorder", "argument")
    return intersect(p, invert(p))


def cp(r: Rel) -> Rel:
    """Completion: least complete preorder containing the equivalence.

    Computed as the reflexive-transitive closure of the union with the
    carrier order; tests cross-check this against the defining
    intersection of all complete preorders containing r.
    """
    require(r, "equivalence", "argument")
    return close(union(r, order_rel(r.carrier)), "refl_trans")


def is_realisable(r: Rel) -> bool:
    """Is r the underlying equivalence of its own completion?"""
    return er(cp(r)) == r


@dataclass(frozen=True)
class RealisabilityResult:
    """Either a witness (quotient poset and map whose kernel is r) or a
    non-trivial cycle of blocks obstructing realisability."""

    realisable: bool
    witness_poset: Poset | None = None
    witness_fn: FnTable | None = None
    cycle: tuple[tuple[str, ...], ...] | None = None


def _block_name(block: tuple[str, ...]) -> str:
    return "+".join(block)


def _shortest_cycle(phi: list[int], start: int) -> list[int]:
    """Blocks of a shortest closed walk of steps from ``start`` back to
    it through some other block, from ``start`` on; ``start`` must lie
    on one.  Breadth-first, so no block repeats: a repeat would leave a
    shorter closed walk."""
    parents = {start: start}
    frontier = [start]
    while True:
        nxt = []
        for b in frontier:
            for b2 in bits(phi[b]):
                if b2 == start and b != start:
                    path = [b]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                if b2 not in parents:
                    parents[b2] = b
                    nxt.append(b2)
        frontier = nxt


def phi_realisability(r: Rel) -> RealisabilityResult:
    """Cycle test on blocks.

    One block steps to another when some member of the first is below
    some member of the second in the carrier.  If the transitive
    closure of that step relation is antisymmetric, the quotient map
    onto the closed block order realises r; otherwise a shortest cycle
    through the first block that lies on one is returned as the
    obstruction.  It passes each of its blocks once.
    """
    require(r, "equivalence", "argument")
    op = to_ordered_partition(r)
    blocks = op.blocks
    phi = _block_rows(r.carrier.rows, op.labels,
                      fibres(op.labels, len(blocks)))
    closed = close_rows(phi)
    for b1, row in enumerate(closed):
        if any(b2 != b1 and (closed[b2] >> b1) & 1 for b2 in bits(row)):
            cycle = _shortest_cycle(phi, b1)
            return RealisabilityResult(
                False, cycle=tuple(blocks[b] for b in cycle))
    witness = Poset(tuple(_block_name(b) for b in blocks), tuple(closed))
    return RealisabilityResult(True, witness_poset=witness,
                               witness_fn=FnTable(r.carrier, witness, op.labels))


def quotient_map(q: Rel) -> FnTable:
    """Monotone map collapsing each mutual class of a complete preorder.

    The codomain is the block order; the ordered kernel of the result
    is q itself.
    """
    require(q, "complete", "argument")
    op = to_ordered_partition(q)
    target = Poset(tuple(_block_name(b) for b in op.blocks), op.block_rows)
    return FnTable(q.carrier, target, op.labels)


def iter_equivalences(carrier: Poset) -> Iterator[Rel]:
    """Every equivalence relation on the carrier, restricted-growth order.

    This enumeration order is the canonical partition order used by
    searches; counts follow the Bell numbers.
    """
    n = len(carrier.elements)
    labels = [0] * n
    # blocks_before[i]: the number of blocks among labels[:i], so
    # labels[i] may range over 0 .. blocks_before[i]
    blocks_before = [0] + [1] * (n - 1)
    while True:
        masks = fibres(labels, max(labels) + 1)
        yield Rel(carrier, tuple(masks[b] for b in labels))
        # lexicographic successor: bump the last label that can grow and
        # reset everything after it to block 0
        i = n - 1
        while i > 0 and labels[i] == blocks_before[i]:
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        width = max(blocks_before[i], labels[i] + 1)
        for t in range(i + 1, n):
            labels[t] = 0
            blocks_before[t] = width


def enumerate_loi(carrier: Poset, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Rel]:
    """All equivalence relations, sorted by canonical matrix bits."""
    if len(carrier.elements) > cap:
        raise CapExceededError(
            f"carrier has {len(carrier.elements)} elements, cap is {cap}")
    return sorted(iter_equivalences(carrier), key=_matrix_key)


def _matrix_key(r: Rel) -> str:
    """``r.bit_tuple()`` spelled as one string of 0s and 1s: row-major,
    each row from bit 0 up.  Keys of one carrier have equal length, so
    they sort as the binary numbers they spell, in ``bit_tuple`` order."""
    width = f"0{len(r.rows)}b"
    return "".join([format(row, width)[::-1] for row in r.rows])


def enumerate_loci(a: Poset, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Rel]:
    """All complete preorders on the poset, sorted by canonical matrix bits.

    Depth-first over the candidate pairs above the carrier order, in
    row-major order, on an explicit stack.  Each node holds a closed
    preorder and one mask of excluded pairs per row.  Including (i, j)
    closes incrementally: the closure of a closed R plus (i, j) is R
    together with every (x, y) where x R i and j R y, so each row that
    contains i absorbs row j, and the branch is pruned as soon as a row
    meets its excluded mask.  Both branches fix the candidate's bit and
    every earlier one, and the carrier's own bits are always set, so
    visiting the exclude branch first emits the results in increasing
    ``bit_tuple`` order without a sort.  Each closed superset is
    produced exactly once.
    """
    n = len(a.elements)
    if n > cap:
        raise CapExceededError(f"carrier has {n} elements, cap is {cap}")
    candidates = [(i, j, 1 << j) for i in range(n) for j in range(n)
                  if not (a.rows[i] >> j) & 1]
    end = len(candidates)
    found: list[Rel] = []
    stack = [(a.rows, 0, (0,) * n)]
    while stack:
        rows, k, forbidden = stack.pop()
        while k < end:
            i, j, bit_j = candidates[k]
            if not rows[i] & bit_j:
                break
            k += 1
        else:
            found.append(Rel(a, rows))
            continue
        bit_i, row_j = 1 << i, rows[j]
        grown = list(rows)
        for x, row in enumerate(rows):
            if row & bit_i:
                row |= row_j
                if row & forbidden[x]:
                    break
                grown[x] = row
        else:
            stack.append((tuple(grown), k + 1, forbidden))
        excluded = list(forbidden)
        excluded[i] |= bit_j
        stack.append((rows, k + 1, tuple(excluded)))
    return found


def find_monotone_postprocessor(f: FnTable, g: FnTable,
                                bound: int = DEFAULT_SEARCH_BOUND) -> FnTable | None:
    """First monotone p (lexicographic on image tuples) with f = p after g.

    Exhausts the candidate space cod(g) -> cod(f) depth-first, pruning
    partial assignments that break monotonicity or the composition
    constraint.  Raises when the candidate space exceeds ``bound``.
    """
    if f.dom != g.dom:
        raise ValidationError("tables must share a domain")
    m = len(g.cod.elements)
    k = len(f.cod.elements)
    if k ** m > bound:
        raise CapExceededError(
            f"search space {k}**{m} exceeds bound {bound}")
    required = _fibre_images(f, g)
    if required is None:
        return None
    choices = [range(k) if want is None else (want,) for want in required]
    return next(_monotone_tables(g.cod, f.cod, choices), None)
