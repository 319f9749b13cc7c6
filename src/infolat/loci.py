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
from typing import Iterator, Sequence

from .errors import CapExceededError
from .loi import _fibre_images, _image_closure, pullback
from .poset import (FnTable, Poset, _monotone_tables, bits, close_rows,
                    image_rows, kernel_rows, row_runs)
from .relation import (Rel, _block_names, _class_names, close, intersect,
                       order_rel, require, union)
from .relation import is_complete_preorder  # noqa: F401  (re-exported)

DEFAULT_ENUMERATION_CAP = 6
DEFAULT_SEARCH_BOUND = 10_000_000
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


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
    return _image_closure(f, p, order_rel(f.cod))


def er(p: Rel) -> Rel:
    """Underlying equivalence of a preorder: the mutually related pairs."""
    require(p, "preorder", "argument")
    labels, classes, _ = p._quotient
    return Rel(p.carrier, kernel_rows(labels, len(classes)))


def cp(r: Rel) -> Rel:
    """Completion: least complete preorder containing the equivalence.

    Computed as the reflexive-transitive closure of the union with the
    carrier order; tests cross-check this against the defining
    intersection of all complete preorders containing r.
    """
    require(r, "equivalence", "argument")
    return close(union(r, order_rel(r.carrier)), "refl_trans")


def is_realisable(r: Rel) -> bool:
    """Is r the underlying equivalence of its own completion (φ decides)?"""
    return phi_realisability(r).realisable


@dataclass(frozen=True)
class RealisabilityResult:
    """Either a witness (quotient poset and map whose kernel is r) or a
    non-trivial cycle of blocks obstructing realisability."""

    realisable: bool
    witness_poset: Poset | None = None
    witness_fn: FnTable | None = None
    cycle: tuple[tuple[str, ...], ...] | None = None


def _shortest_cycle(phi: list[int], start: int) -> list[int]:
    """Blocks of a shortest closed walk of steps from ``start`` back to
    it through some other block, from ``start`` on; ``start`` must lie
    on one.  Breadth-first, so no block repeats: a repeat would leave a
    shorter closed walk."""
    parents = {start: start}
    queue = [start]
    for b in queue:
        for b2 in bits(phi[b]):
            if b2 == start and b != start:
                path = [b]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                return path[::-1]
            if b2 not in parents:
                parents[b2] = b
                queue.append(b2)


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
    labels, classes, _ = r._quotient
    blocks = _class_names(r.carrier, classes)
    phi = image_rows(r.carrier.rows, labels, len(blocks))
    closed = close_rows(phi)
    # the closure is antisymmetric iff its rows are pairwise distinct; the
    # first block on a cycle is the least whose closed row occurs twice
    shared = [run[0] for run in row_runs(closed) if len(run) > 1]
    if shared:
        cycle = tuple(blocks[b] for b in _shortest_cycle(phi, min(shared)))
        return RealisabilityResult(False, cycle=cycle)
    witness = Poset(_block_names(blocks), tuple(closed))
    return RealisabilityResult(True, witness_poset=witness,
                               witness_fn=FnTable(r.carrier, witness, labels))


def quotient_map(q: Rel) -> FnTable:
    """Monotone map collapsing each mutual class of a complete preorder.

    The codomain is the block order; the ordered kernel of the result
    is q itself.
    """
    require(q, "complete", "argument")
    labels, classes, block_rows = q._quotient
    blocks = _block_names(_class_names(q.carrier, classes))
    return FnTable(q.carrier, Poset(blocks, block_rows), labels)


def iter_equivalences(carrier: Poset) -> Iterator[Rel]:
    """Every equivalence relation on the carrier, restricted-growth order.

    This enumeration order is the canonical partition order used by
    searches; counts follow the Bell numbers.  It is the uncut
    `_growth_walk`.
    """
    for _, rows in _growth_walk(len(carrier.elements)):
        yield Rel(carrier, rows)


def _completions(n: int) -> list[list[int]]:
    """``table[r][m]``: the restricted-growth labellings of r more
    positions after m blocks, T(r, m) = m·T(r−1, m) + T(r−1, m+1) with
    T(0, m) = 1 (each position joins one of the m blocks or opens the
    next one), for every r < n and m <= n − r.  T(n−1, 1) is Bell(n)."""
    table = [[1] * (n + 1)]
    for r in range(1, n):
        prev = table[-1]
        table.append([m * prev[m] + prev[m + 1] for m in range(n + 1 - r)])
    return table


def _growth_walk(n: int, cut: Sequence[int] | None = None
                ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every restricted-growth labelling of n positions, in lexicographic
    order (the partitions of ``iter_equivalences``), as its rank from 1
    in that order and the rows of its equivalence: row x is the block of
    x.

    The labels are placed one position at a time, each into one of the
    blocks so far or into a new one, on an explicit stack (the labels
    themselves), so no carrier is too deep.  With symmetric ``cut`` rows,
    a prefix that puts a position p into a block meeting ``cut[p]`` is
    left with all its completions: a later label never splits a block,
    so each of them holds that pair too.  They are not visited, but the
    T(r, m) of them (`_completions`) still count in the ranks that
    follow.
    """
    table = None if cut is None else _completions(n)
    labels = [0] * n
    blocks: list[int] = []  # the positions of each block so far
    rank = 0
    p = b = 0  # the position to place, and the first label left to try
    while True:
        m = len(blocks)
        if p == n or b > m:  # past a leaf, or p's labels all tried: take back p - 1's
            if p == 0:
                return
            p -= 1
            b = labels[p]
            blocks[b] ^= 1 << p
            if not blocks[b]:
                blocks.pop()
            b += 1
            continue
        if b == m:
            blocks.append(1 << p)
        elif cut is not None and cut[p] & blocks[b]:
            rank += table[n - 1 - p][m]
            b += 1
            continue
        else:
            blocks[b] |= 1 << p
        labels[p] = b
        p += 1
        b = 0
        if p == n:
            rank += 1
            yield rank, tuple([blocks[c] for c in labels])


def _matrix_key(rows: tuple[int, ...]) -> bytes:
    """Sort key of n rows of n bits that compares as ``Rel.bit_tuple``
    does: each row's little-endian bytes, each byte's bits reversed."""
    width = (len(rows) + 7) // 8
    return b"".join([row.to_bytes(width, "little")
                     for row in rows]).translate(_REVERSED_BITS)


def enumerate_loi(carrier: Poset, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Rel]:
    """All equivalence relations, sorted by canonical matrix bits: the
    restricted-growth walk sorted by `_matrix_key`."""
    n = len(carrier.elements)
    if n > cap:
        raise CapExceededError(f"carrier has {n} elements, cap is {cap}")
    return [Rel(carrier, rows) for rows in sorted(
        [rows for _, rows in _growth_walk(n)], key=_matrix_key)]


def enumerate_loci(a: Poset, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Rel]:
    """All complete preorders on the poset, sorted by canonical matrix
    bits: the closed supersets of the carrier order."""
    return [Rel(a, rows) for rows in _closed_supersets(a.rows, cap)]


def _closed_supersets(start: tuple[int, ...], cap: int) -> Iterator[tuple[int, ...]]:
    """Yield the rows of every closure of the preorder ``start`` plus
    some candidate pairs, each once, in increasing ``bit_tuple`` order.

    The candidates are the pairs (i, j) outside ``start``.  Including
    (i, j) ORs ``rows[i] | rows[j]`` into each row that holds i, which
    closes a preorder plus (i, j): a row holding i already holds row i.

    Decided prefix: a stack node ``(rows, i, low, common)`` holds closed
    rows, the first open position (i, j), with ``low = 1 << j``, and row
    i's ``common`` (below).  Every pair before it in row-major order is
    decided: it is in a result below the node iff it is in ``rows``.  So
    no exclusion state is kept, and the node is itself a result, the
    least below it; each pop yields one.

    Feasibility: the children are the first inclusions (i', j') at or
    after (i, j) and outside ``rows`` that change no decided pair.  Each
    row x < i' that holds i' gains ``rows[j']``, so that must lie inside
    ``common``, the AND of those rows (j' itself must be in it, which
    filters the columns of row i' first), and row i' must gain nothing
    below j'.  Together, one whole-row test per candidate: ``rows[j']``
    inside ``common & (rows[i'] | -bit_j')``.  A child keeps
    ``rows[:i']`` as it is, so its ``common`` is the one its parent
    computed for row i' and goes on the stack with it: a node ANDs
    earlier rows only for the rows after its own.

    Order: each result below a later first inclusion lacks every earlier
    one, so it comes first; children are pushed in increasing position
    and the last pushed pops first.

    Last row: an inclusion changes no row before its own, so every
    result below a node's last-row children differs from the node only
    in that row, and they are pushed last, so they pop next.  That
    subtree is walked at once on ``(row, low)`` pairs of its own LIFO
    list, in the same order, each result ``head + (row,)`` with the
    node's ``head`` and ``common``.
    """
    n = len(start)
    if n > cap:
        raise CapExceededError(f"carrier has {n} elements, cap is {cap}")
    full = (1 << n) - 1
    last = n - 1
    stack = [(start, 0, 1, -1)]
    pop, push = stack.pop, stack.append
    while stack:
        rows, i, low, common = pop()
        yield rows
        own = i
        for i in range(i, n):
            row = rows[i]
            free = ~row & full & -low
            low = 1
            if not free:
                continue
            bit_i = 1 << i
            if i != own:
                common = -1
                for r in rows[:i]:
                    if r & bit_i:
                        common &= r
            free &= common
            if not free:
                continue
            head = rows[:i]
            if i == last:  # below here only row i changes: walk it on ints
                walk = []
                while True:
                    while free:
                        bit_j = free & -free
                        free ^= bit_j
                        add = head[bit_j.bit_length() - 1]
                        if not add & ~(common & (row | -bit_j)):
                            walk.append((row | add, bit_j << 1))
                    if not walk:
                        break
                    row, low = walk.pop()
                    yield head + (row,)
                    free = ~row & full & -low & common
                break
            tail = rows[i:]
            while free:
                bit_j = free & -free
                free ^= bit_j
                add = rows[bit_j.bit_length() - 1]
                if add & ~(common & (row | -bit_j)):
                    continue
                joined = row | add
                push((head + tuple([r | joined if r & bit_i else r
                                    for r in tail]), i, bit_j << 1, common))


def find_monotone_postprocessor(f: FnTable, g: FnTable,
                                bound: int = DEFAULT_SEARCH_BOUND) -> FnTable | None:
    """First monotone p (lexicographic on image tuples) with f = p after g.

    Exhausts the candidate space cod(g) -> cod(f) depth-first, pruning
    partial assignments that break monotonicity or the composition
    constraint.  Raises when the candidate space exceeds ``bound``.
    """
    required = _fibre_images(f, g)
    m = len(g.cod.elements)
    k = len(f.cod.elements)
    if k ** m > bound:
        raise CapExceededError(
            f"search space {k}**{m} exceeds bound {bound}")
    if required is None:
        return None
    choices = [(1 << k) - 1 if want is None else 1 << want
               for want in required]
    return next(_monotone_tables(g.cod, f.cod, choices), None)
