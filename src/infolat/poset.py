"""Finite partially ordered sets and monotone function tables.

The element tuple fixes the canonical order: every enumeration and
every piece of output in the library derives its ordering from
declaration order.  The order relation is stored as one bitmask row
per element; bit ``j`` of ``rows[i]`` is set iff
``elements[i] <= elements[j]``.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import count, groupby
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotMonotoneError, OrderCycleError, ValidationError


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def close_rows(rows: Iterable[int]) -> list[int]:
    """Reflexive-transitive closure of bitmask rows; every bit must
    index a row.

    One depth-first pass that also finds the strongly connected
    components (Tarjan).  Roots go from the last index down, so covers
    pointing to higher indices find their targets closed.  An entered
    row is open: it has a 1-based depth on a stack of open rows and a
    ``low``, the least depth of an open row it reaches.  Its lowest
    pending bit j is closed, and row j is ORed in and all of its bits
    leave the pending mask; or open, and only ``low`` may fall; or new,
    and j is entered first.  A finished row hands its bits and ``low``
    to its parent, which drops those bits from its pending mask too.  A
    row whose ``low`` is its own depth roots a component: its bits are
    the closed row of every open row from it up.
    """
    src = list(rows)
    # out[v]: 0 unvisited, -depth while open, else the closed row
    out = [0] * len(src)
    for root in range(len(src) - 1, -1, -1):
        if out[root]:
            continue
        v, bit = root, 1 << root
        acc = src[v] | bit
        pending = acc ^ bit
        # every earlier root closed its whole component
        stack, frames, low = [v], [], 1
        out[v] = -1
        while True:
            while pending:
                bit = pending & -pending
                j = bit.bit_length() - 1
                done = out[j]
                if done > 0:
                    acc |= done
                    pending &= ~done
                elif done:
                    if -done < low:
                        low = -done
                    pending ^= bit
                else:
                    frames.append((v, acc, pending, low))
                    v = j
                    acc = src[j] | bit
                    pending = acc ^ bit
                    stack.append(v)
                    low = len(stack)
                    out[v] = -low
            if low == -out[v]:
                if stack[-1] == v:
                    stack.pop()
                    out[v] = acc
                else:
                    for w in stack[low - 1:]:
                        out[w] = acc
                    del stack[low - 1:]
            if not frames:
                break
            child, child_low = acc, low
            v, acc, pending, low = frames.pop()
            acc |= child
            pending &= ~child
            if child_low < low:
                low = child_low
    return out


def rows_transitive(rows: Sequence[int]) -> bool:
    """Do the rows form a transitive relation?

    Each distinct row value is tested once (equal rows are neighbours
    once sorted, see :func:`row_runs`), by jumps: its lowest
    untested bit j needs ``rows[j]`` inside the row; then bit j and
    every bit of a strictly smaller ``rows[j]`` are settled, and of an
    equal one only bit j.  Sound because a failing row with the fewest
    bits only jumps through smaller rows, which pass, so whatever they
    settle holds.  Every bit must index a row.  This is not ``R∘R ⊆ R``
    through :func:`compose_rows`: the loop stops at the first failing
    row and builds no result rows, and on 4-6 points, where the searches
    build their relations, the composition takes two to three times as
    long.
    """
    prev = -1  # no row is negative
    for row in sorted(rows):
        if row == prev:
            continue
        prev = pending = row
        while pending:
            low = pending & -pending
            sub = rows[low.bit_length() - 1]
            if sub | row != row:
                return False
            if sub == row:
                pending ^= low
            else:
                pending &= ~(sub | low)
    return True


def row_runs(rows: Sequence[int]) -> list[list[int]]:
    """The indices of each distinct row value, ascending within a run;
    runs in decreasing value.

    Equal rows are found as neighbours in sorted order, not by hashing:
    an int hashes to its value modulo 2**61 - 1, so the 10,000 up-sets
    of a chain share 61 hash values and a set of them compares rows
    pairwise.
    """
    key = rows.__getitem__
    order = sorted(range(len(rows)), key=key, reverse=True)
    return [list(run) for _, run in groupby(order, key)]


def preorder_quotient(rows: Sequence[int]) -> tuple[
        tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
    """None unless the rows are reflexive and transitive; else each
    index's class (by least member), each class's members and the block
    rows.  Each distinct row, by increasing value, must hold its class;
    its other bits are tested in jumps as in :func:`rows_transitive`.
    When every class is a singleton the block rows are the rows."""
    runs = row_runs(rows)[::-1]  # increasing value
    classes = sorted(runs)  # disjoint ascending runs: by least member
    labels, block = [0] * len(rows), [0] * len(runs)
    for b, run in enumerate(classes):
        for m in run:
            labels[m] = b
    for run in runs:
        row, b, mask = rows[run[0]], labels[run[0]], 0
        for m in run:
            mask |= 1 << m
        if mask | row != row:
            return None
        acc, pending = 1 << b, row & ~mask
        while pending:
            j = (pending & -pending).bit_length() - 1
            sub = rows[j]
            if sub | row != row:
                return None
            acc |= block[labels[j]]
            pending &= ~sub
        block[b] = acc
    if len(runs) == len(rows):
        block = rows
    return tuple(labels), tuple(map(tuple, classes)), tuple(block)


def compose_rows(rows: Iterable[int], table: Sequence[int]) -> tuple[int, ...]:
    """Row i of the result is the OR of ``table[j]`` over the set bits j
    of the i-th row; every bit must index the table.  A bit past the
    last row reads an empty row, which sorts first and settles nothing.

    Rows go in increasing value, so a row strictly inside row i, a
    smaller number, is done before it, and equal rows are neighbours,
    computed once.  At the lowest pending bit j of row i, a ``rows[j]``
    strictly inside row i settles itself and bit j at once (its result
    is ORed in with ``table[j]``); any other j settles only itself.  The
    nesting is tested at every step, so the result is exact for any
    rows: transitive rows take jumps, others single steps.
    """
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    n = len(rows)
    if n < len(table):
        rows = [*rows, *[0] * (len(table) - n)]
    out = [0] * len(rows)
    prev, acc = -1, 0  # no row is negative
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        row = rows[i]
        if row != prev:
            prev, acc, pending = row, 0, row
            while pending:
                low = pending & -pending
                j = low.bit_length() - 1
                sub = rows[j]
                if sub | row == row and sub != row:
                    acc |= out[j] | table[j]
                    pending &= ~(sub | low)
                else:
                    acc |= table[j]
                    pending ^= low
        out[i] = acc
    return tuple(out[:n])


def fibres(labels: Iterable[int], k: int) -> list[int]:
    """Mask of the positions that carry each label ``0 .. k-1``: bit i
    of ``out[b]`` iff the i-th label is b."""
    out = [0] * k
    for i, b in enumerate(labels):
        out[b] |= 1 << i
    return out


def pull_rows(rows: Sequence[int], images: Sequence[int]) -> tuple[int, ...]:
    """Pullback of square ``rows`` through a table: row x holds every y
    with bit ``images[y]`` in ``rows[images[x]]``.

    ``up[v]``, the OR of the fibre of each w in ``rows[v]``, holds every
    y that row v reaches; the row of x is ``up[images[x]]``.  Only the
    values the table hits matter, so the other rows are emptied and the
    other bits cleared: on a small domain the work stays small whatever
    the rows are, and transitive rows still nest.
    """
    preimage = fibres(images, len(rows))
    hit = 0
    for v in images:
        hit |= 1 << v
    up = compose_rows([row & hit if fibre else 0
                       for row, fibre in zip(rows, preimage)], preimage)
    return tuple(up[v] for v in images)


def broken_rows(pre: Sequence[int], post: Sequence[int],
                images: Sequence[int]) -> tuple[int, ...]:
    """Row x holds every y that ``pre`` relates to x while ``post`` does
    not relate ``images[x]`` to ``images[y]``: the pairs that break the
    flow judgement ``pre ⇒ post`` of a table, whose first pair, row-major,
    is the lowest bit of the first non-empty row."""
    return tuple(row & ~ok for row, ok in zip(pre, pull_rows(post, images)))


def image_rows(rows: Sequence[int], images: Sequence[int],
               k: int) -> tuple[int, ...]:
    """Direct image of square ``rows`` under a table into ``0 .. k-1``:
    row v holds ``images[y]`` for every y that the row of some x with
    image v holds."""
    out = [0] * k
    met = compose_rows(rows, [1 << v for v in images])
    for v, row in zip(images, met):
        out[v] |= row
    return tuple(out)


def kernel_rows(labels: Sequence[int], k: int) -> tuple[int, ...]:
    """Row i holds every j with the label of i, each in ``0 .. k-1``:
    the kernel of a table, or a preorder's mutual classes."""
    masks = fibres(labels, k)
    return tuple(masks[b] for b in labels)


def compatible_rows(labels: Sequence[int],
                    block_rows: Sequence[int]) -> tuple[int, ...]:
    """Row x holds every y that shares an upper bound with x in the
    preorder with classes ``labels`` and block order ``block_rows``.

    Two up-sets of a finite order meet exactly when they share a top, a
    block whose row is only itself.  Points whose blocks have equal sets
    of tops above them are one group (:func:`row_runs`), so each row is
    computed once: each top's down-set is the OR of the groups that hold
    it, and a group's row the OR of its tops' down-sets.  A lone top
    lies above every point, so then every row is full.
    """
    tops = 0
    for b, row in enumerate(block_rows):
        if row == 1 << b:
            tops |= 1 << b
    if not tops & (tops - 1):
        return ((1 << len(labels)) - 1,) * len(labels)
    above = [block_rows[b] & tops for b in labels]
    groups = row_runs(above)
    down = [0] * len(block_rows)
    for run in groups:
        mask, pending = 0, above[run[0]]
        for x in run:
            mask |= 1 << x
        while pending:
            low = pending & -pending
            down[low.bit_length() - 1] |= mask
            pending ^= low
    out = [0] * len(labels)
    for run in groups:
        row, pending = 0, above[run[0]]
        while pending:
            low = pending & -pending
            row |= down[low.bit_length() - 1]
            pending ^= low
        for x in run:
            out[x] = row
    return tuple(out)


def transpose(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Converse of an m × n matrix: bit i of ``out[j]`` iff bit j of ``rows[i]``.

    Whole-matrix, for m >= 1 rows and n >= 1: each row, 0 <= row < 2**n,
    becomes an n-character binary string, and ``zip`` reads the n columns
    off those strings.  Taking the rows last to first puts row i at bit i
    of each column; the columns come out from bit n-1 down to bit 0.
    """
    width = f"0{n}b"
    strs = [format(row, width) for row in reversed(rows)]
    cols = [int(col, 2) for col in map("".join, zip(*strs))]
    cols.reverse()
    return tuple(cols)


def preorder_cols(rows: Sequence[int]) -> tuple[int, ...]:
    """:func:`transpose` of reflexive, transitive rows: bit i of
    ``out[j]`` iff bit j of ``rows[i]``, the down-set of j.

    One pass over the classes of equal rows (:func:`row_runs`) in
    decreasing value: a row strictly below a class has a strictly larger
    up-set, a larger number, so it is done first.  A class's down-set is
    its members and whatever was pushed to them.  It is pushed on in
    jumps through the rest of the row: to the lowest pending j, and all
    of ``rows[j]`` leaves the pending mask, since what lies above j gets
    the down-set through j's class.  The cost follows the classes and
    the jumps, not n².
    """
    out = [0] * len(rows)
    pushed = [0] * len(rows)
    for run in row_runs(rows):
        down = 0
        for m in run:
            down |= 1 << m | pushed[m]
        for m in run:
            out[m] = down
        pending = rows[run[0]] & ~down
        while pending:
            j = (pending & -pending).bit_length() - 1
            pushed[j] |= down
            pending &= ~rows[j]
    return tuple(out)


def row_covers(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Hasse covers of partial-order rows as index pairs, row-major
    order: the strict order minus its composition with itself."""
    strict = [row ^ (1 << i) for i, row in enumerate(rows)]
    far = compose_rows(strict, strict)
    return [(i, j) for i, (up, skip) in enumerate(zip(strict, far))
            for j in bits(up & ~skip)]


def _check_names(names: tuple[str, ...]) -> None:
    if not names:
        raise ValidationError("carrier must be non-empty")
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValidationError(f"duplicate element name {name!r}")
        seen.add(name)


def unique_names(names: Iterable[str]) -> tuple[str, ...]:
    """``names`` with each later copy of a name given the first suffix
    ``#2``, ``#3``, ... that is no other name."""
    names = list(names)
    taken, seen = set(names), set()
    for i, name in enumerate(names):
        if name in seen:
            names[i] = next(new for k in count(2)
                            if (new := f"{name}#{k}") not in taken)
            taken.add(names[i])
        seen.add(name)
    return tuple(names)


def _raise_first_order_failure(elements: tuple[str, ...],
                               rows: tuple[int, ...]) -> None:
    """Raise for the first pair, row-major, that breaks transitivity or
    antisymmetry of reflexive rows; the kernels only tell that one does."""
    for i, row in enumerate(rows):
        for j in bits(row):
            if row | rows[j] != row:
                raise ValidationError(
                    f"order not transitive at {elements[i]!r}")
            if i != j and (rows[j] >> i) & 1:
                raise OrderCycleError(
                    f"antisymmetry violated: {elements[i]!r} and "
                    f"{elements[j]!r} are below each other",
                    (elements[i], elements[j]))


@dataclass(frozen=True)
class Poset:
    """A finite poset over named elements.

    Instances are immutable and validate reflexivity, transitivity and
    antisymmetry on construction, in whole rows: :func:`rows_transitive`
    and a test that the rows are pairwise distinct, which for reflexive,
    transitive rows is antisymmetry.  Only when those fail does a scan
    over the related pairs, row-major, name the first failing pair.  Use
    :func:`build_poset` to go from a cover list to the closed relation.
    """

    elements: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_names(self.elements)
        n = len(self.elements)
        if len(self.rows) != n:
            raise ValidationError("order matrix does not match carrier size")
        for i, row in enumerate(self.rows):
            if row >> n:
                raise ValidationError("order row mentions an unknown index")
            if not (row >> i) & 1:
                raise ValidationError(
                    f"order not reflexive at {self.elements[i]!r}")
        # reflexive, transitive rows are antisymmetric iff pairwise
        # distinct, which sorted rows show as unequal neighbours
        ordered = sorted(self.rows)
        if any(map(int.__eq__, ordered, ordered[1:])) or \
                not rows_transitive(self.rows):
            _raise_first_order_failure(self.elements, self.rows)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Poset({' '.join(self.elements)})"

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Down-sets: bit i of ``cols[j]`` iff element i <= element j."""
        return preorder_cols(self.rows)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown element {name!r}") from None

    def leq(self, x: str, y: str) -> bool:
        return bool((self.rows[self.index(x)] >> self.index(y)) & 1)

    def leq_idx(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def minimum(self) -> int | None:
        """Index of the global least element, if there is one."""
        full = (1 << len(self.elements)) - 1
        for i, row in enumerate(self.rows):
            if row == full:
                return i
        return None

    def covers(self) -> list[tuple[int, int]]:
        """Transitive reduction as index pairs, row-major order."""
        return row_covers(self.rows)


def build_poset(names: Iterable[str], covers: Iterable[tuple[str, str]]) -> Poset:
    """Close ``covers`` reflexively-transitively and validate the result.

    Rejects duplicate names, unknown endpoints, and cycles (which would
    break antisymmetry).
    """
    elems = tuple(names)
    index = {name: i for i, name in enumerate(elems)}
    # Poset checks the names; they are checked here first only when that
    # decides the error, which an unknown endpoint must not hide
    if not elems or len(index) < len(elems):
        _check_names(elems)
    rows = [0] * len(elems)
    for a, b in covers:
        try:
            rows[index[a]] |= 1 << index[b]
        except KeyError as exc:
            raise ValidationError(
                f"unknown element {exc.args[0]!r} in order pair") from None
    return Poset(elems, tuple(close_rows(rows)))


def discrete(names: Iterable[str]) -> Poset:
    """Poset with no order besides reflexivity."""
    return build_poset(names, ())


def chain(names: Iterable[str]) -> Poset:
    """Total order in declaration order."""
    elems = tuple(names)
    return build_poset(elems, zip(elems, elems[1:]))


def lift(a: Poset) -> Poset:
    """Add a fresh bottom element below everything in ``a``."""
    fresh = "⊥"
    k = 0
    while fresh in a.elements:
        k += 1
        fresh = f"⊥{k}"
    n = len(a.elements) + 1
    rows = [(1 << n) - 1]
    rows.extend(row << 1 for row in a.rows)
    return Poset((fresh,) + a.elements, tuple(rows))


def product(a: Poset, b: Poset) -> Poset:
    """Componentwise order on pairs, named ``x.y``, in row-major order.
    Names with ``.`` can clash (``a`` with ``b.c``, ``a.b`` with ``c``);
    a later clashing pair takes a suffix by :func:`unique_names`."""
    names = unique_names(f"{x}.{y}" for x in a.elements for y in b.elements)
    nb = len(b.elements)
    # spread[i] holds bit i2 * nb for each i2 above i; times a row of b,
    # it places that row in the block of each such i2, with no carries
    spread = compose_rows(a.rows, [1 << (i2 * nb)
                                   for i2 in range(len(a.elements))])
    return Poset(names, tuple(s * row for s in spread for row in b.rows))


@dataclass(frozen=True)
class FnTable:
    """A total function between carriers, one codomain index per element.

    Totality is an invariant; monotonicity is not.  The validating
    constructor is :func:`check_monotone`; direct construction is the
    deliberate escape hatch for the unordered postprocessor setting.
    """

    dom: Poset
    cod: Poset
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.dom.elements):
            raise ValidationError("function table is not total")
        k = len(self.cod.elements)
        for v in self.images:
            if not 0 <= v < k:
                raise ValidationError("function table maps outside the codomain")

    def __call__(self, name: str) -> str:
        return self.cod.elements[self.images[self.dom.index(name)]]

    def mapping(self) -> dict[str, str]:
        return {x: self.cod.elements[v]
                for x, v in zip(self.dom.elements, self.images)}

    @property
    def is_monotone(self) -> bool:
        """Decided in row jumps: row i tests f(i) <= f(j) at its lowest
        pending j and drops all of row j.  A failed test is a violating
        pair.  When every test passes, f is monotone on each row, by
        induction on up-set size: a j strictly above i has a smaller
        up-set, so f(i) <= f(j) <= f(k) for each k the jump drops.  This
        is not a test of the rows against the pullback of the codomain
        order through :func:`compose_rows`: the loop stops at the first
        failing pair and builds no rows, and the pullback takes several
        times as long, on the tables of a 4-point carrier and of a
        3,000-point chain alike."""
        rows, images, cod = self.dom.rows, self.images, self.cod.rows
        for i, row in enumerate(rows):
            up = cod[images[i]]
            pending = row ^ (1 << i)
            while pending:
                j = (pending & -pending).bit_length() - 1
                if not (up >> images[j]) & 1:
                    return False
                pending &= ~rows[j]
        return True

    def monotone_witness(self) -> tuple[str, str] | None:
        """First pair (x, y), row-major, with x <= y but f(x) not <= f(y),
        if any: the order judged as a flow ``<= ⇒ <=``, read off
        :func:`broken_rows` only when :attr:`is_monotone` fails."""
        if self.is_monotone:
            return None
        broken = broken_rows(self.dom.rows, self.cod.rows, self.images)
        i, row = next((i, row) for i, row in enumerate(broken) if row)
        j = (row & -row).bit_length() - 1
        return self.dom.elements[i], self.dom.elements[j]

    def then(self, g: "FnTable") -> "FnTable":
        """Composition: apply ``self`` first, then ``g``."""
        if self.cod != g.dom:
            raise ValidationError("composition carriers do not match")
        return FnTable(self.dom, g.cod, tuple(g.images[v] for v in self.images))


def check_monotone(dom: Poset, cod: Poset, table: Mapping[str, str]) -> FnTable:
    """Validate a mapping as a total monotone table.

    Raises :class:`NotMonotoneError` with the first violating pair, or
    :class:`ValidationError` for missing/unknown names.
    """
    missing = [x for x in dom.elements if x not in table]
    if missing:
        raise ValidationError(f"table not total, missing {missing[0]!r}")
    if len(table) != len(dom.elements):
        known = set(dom.elements)
        extra = next(x for x in table if x not in known)
        raise ValidationError(f"table mentions unknown element {extra!r}")
    index = cod._index
    try:
        images = tuple([index[table[x]] for x in dom.elements])
    except KeyError as exc:
        raise ValidationError(f"unknown element {exc.args[0]!r}") from None
    fn = FnTable(dom, cod, images)
    witness = fn.monotone_witness()
    if witness is not None:
        x, y = witness
        raise NotMonotoneError(
            f"not monotone: {x!r} <= {y!r} but {fn(x)!r} is not below {fn(y)!r}",
            witness)
    return fn


def identity_fn(a: Poset) -> FnTable:
    return FnTable(a, a, tuple(range(len(a.elements))))


def constant_fn(dom: Poset, cod: Poset, value: str) -> FnTable:
    return FnTable(dom, cod, (cod.index(value),) * len(dom.elements))


def iter_monotone_tables(dom: Poset, cod: Poset) -> Iterator[FnTable]:
    """All monotone tables dom -> cod, lexicographic on image tuples.

    Depth-first over one mask of the images left to try per position;
    exponential in the domain size.
    """
    every = (1 << len(cod.elements)) - 1
    return _monotone_tables(dom, cod, [every] * len(dom.elements))


def _monotone_tables(dom: Poset, cod: Poset,
                     choices: Sequence[int]) -> Iterator[FnTable]:
    """Monotone tables whose image at i is a bit of the mask ``choices[i]``,
    in image-tuple order.  Position i tries, lowest bit first, what is left
    of ``choices[i]`` in the up-set of each earlier image below it and the
    down-set of each earlier image above it; an empty mask is a dead end."""
    n = len(dom.elements)
    images: list[int] = []
    left = [choices[0]]  # per position so far: images not yet tried
    while left:
        mask = left[-1]
        if not mask:
            left.pop()
            if images:
                images.pop()
            continue
        low = mask & -mask
        left[-1] = mask ^ low
        images.append(low.bit_length() - 1)
        pos = len(images)
        if pos == n:
            yield FnTable(dom, cod, tuple(images))
            images.pop()
            continue
        earlier = (1 << pos) - 1
        mask = choices[pos]
        for q in bits(dom.cols[pos] & earlier):
            mask &= cod.rows[images[q]]
        for q in bits(dom.rows[pos] & earlier):
            mask &= cod.cols[images[q]]
        left.append(mask)
