"""Finite partially ordered sets and monotone function tables.

The element tuple fixes the canonical order: every enumeration and
every piece of output in the library derives its ordering from
declaration order.  The order relation is stored as one bitmask row
per element; bit ``j`` of ``rows[i]`` is set iff
``elements[i] <= elements[j]``.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotMonotoneError, OrderCycleError, ValidationError


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def close_rows(rows: Iterable[int]) -> list[int]:
    """Reflexive-transitive closure of bitmask rows (Warshall)."""
    out = list(rows)
    n = len(out)
    for i in range(n):
        out[i] |= 1 << i
    for k in range(n):
        bit_k = 1 << k
        row_k = out[k]
        for i in range(n):
            if out[i] & bit_k:
                out[i] |= row_k
    return out


def compose_rows(rows: Iterable[int], table: Sequence[int]) -> tuple[int, ...]:
    """Row i of the result is the OR of ``table[j]`` over the set bits j
    of the i-th row; equal rows are computed once."""
    done: dict[int, int] = {}
    out = []
    for row in rows:
        acc = done.get(row)
        if acc is None:
            acc = 0
            for j in bits(row):
                acc |= table[j]
            done[row] = acc
        out.append(acc)
    return tuple(out)


def fibres(labels: Iterable[int], k: int) -> list[int]:
    """Mask of the positions that carry each label ``0 .. k-1``: bit i
    of ``out[b]`` iff the i-th label is b."""
    out = [0] * k
    for i, b in enumerate(labels):
        out[b] |= 1 << i
    return out


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """Converse of bitmask rows: bit i of ``out[j]`` iff bit j of ``rows[i]``.

    Whole-matrix: each row becomes a fixed-width binary string, most
    significant bit first, and ``zip`` reads the columns off those
    strings.  Taking the rows last to first puts row i at bit i of each
    column; the columns come out from bit n-1 down to bit 0.
    """
    width = f"0{len(rows)}b"
    strs = [format(row, width) for row in reversed(rows)]
    cols = [int(col, 2) for col in map("".join, zip(*strs))]
    cols.reverse()
    return tuple(cols)


def _check_names(names: tuple[str, ...]) -> None:
    if not names:
        raise ValidationError("carrier must be non-empty")
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValidationError(f"duplicate element name {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class Poset:
    """A finite poset over named elements.

    Instances are immutable and validate reflexivity, transitivity and
    antisymmetry on construction; use :func:`build_poset` to go from a
    cover list to the closed relation.
    """

    elements: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_names(self.elements)
        n = len(self.elements)
        if len(self.rows) != n:
            raise ValidationError("order matrix does not match carrier size")
        full = (1 << n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValidationError("order row mentions an unknown index")
            if not (row >> i) & 1:
                raise ValidationError(
                    f"order not reflexive at {self.elements[i]!r}")
        for i in range(n):
            for j in bits(self.rows[i]):
                if self.rows[i] | self.rows[j] != self.rows[i]:
                    raise ValidationError(
                        f"order not transitive at {self.elements[i]!r}")
                if i != j and (self.rows[j] >> i) & 1:
                    raise OrderCycleError(
                        f"antisymmetry violated: {self.elements[i]!r} and "
                        f"{self.elements[j]!r} are below each other",
                        (self.elements[i], self.elements[j]))

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Poset({' '.join(self.elements)})"

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Transposed rows: bit i of ``cols[j]`` iff element i <= element j."""
        return transpose(self.rows)

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
        n = len(self.elements)
        out = []
        for i in range(n):
            for j in bits(self.rows[i] & ~(1 << i)):
                between = self.rows[i] & self.cols[j] & ~(1 << i) & ~(1 << j)
                if not between:
                    out.append((i, j))
        return out


def build_poset(names: Iterable[str], covers: Iterable[tuple[str, str]]) -> Poset:
    """Close ``covers`` reflexively-transitively and validate the result.

    Rejects duplicate names, unknown endpoints, and cycles (which would
    break antisymmetry).
    """
    elems = tuple(names)
    _check_names(elems)
    index = {name: i for i, name in enumerate(elems)}
    rows = [0] * len(elems)
    for a, b in covers:
        if a not in index:
            raise ValidationError(f"unknown element {a!r} in order pair")
        if b not in index:
            raise ValidationError(f"unknown element {b!r} in order pair")
        rows[index[a]] |= 1 << index[b]
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
    """Componentwise order on pairs, named ``x.y``, in row-major order."""
    names = tuple(f"{x}.{y}" for x in a.elements for y in b.elements)
    nb = len(b.elements)
    rows = []
    for i in range(len(a.elements)):
        for j in range(nb):
            row = 0
            for i2 in bits(a.rows[i]):
                row |= b.rows[j] << (i2 * nb)
            rows.append(row)
    return Poset(names, tuple(rows))


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
        for v in self.images:
            if not 0 <= v < len(self.cod.elements):
                raise ValidationError("function table maps outside the codomain")

    def __call__(self, name: str) -> str:
        return self.cod.elements[self.images[self.dom.index(name)]]

    def mapping(self) -> dict[str, str]:
        return {x: self.cod.elements[v]
                for x, v in zip(self.dom.elements, self.images)}

    def monotone_witness(self) -> tuple[str, str] | None:
        """First pair (x, y) with x <= y but f(x) not <= f(y), if any."""
        n = len(self.dom.elements)
        for i in range(n):
            for j in bits(self.dom.rows[i]):
                if not self.cod.leq_idx(self.images[i], self.images[j]):
                    return self.dom.elements[i], self.dom.elements[j]
        return None

    @property
    def is_monotone(self) -> bool:
        return self.monotone_witness() is None

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
    images = tuple(cod.index(table[x]) for x in dom.elements)
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

    Depth-first with partial-monotonicity pruning; exponential in the
    domain size.
    """
    every = range(len(cod.elements))
    return _monotone_tables(dom, cod, [every] * len(dom.elements))


def _monotone_tables(dom: Poset, cod: Poset,
                     choices: Sequence[Iterable[int]]) -> Iterator[FnTable]:
    """Monotone tables whose image at position i is drawn from
    ``choices[i]``, in the order the choices give."""
    n = len(dom.elements)
    images: list[int] = []

    def feasible(pos: int, candidate: int) -> bool:
        earlier = (1 << pos) - 1
        return (all(cod.leq_idx(images[prev], candidate)
                    for prev in bits(dom.cols[pos] & earlier))
                and all(cod.leq_idx(candidate, images[prev])
                        for prev in bits(dom.rows[pos] & earlier)))

    # one iterator over the remaining choices per assigned position,
    # plus one for the position being filled
    pending = [iter(choices[0])]
    while pending:
        pos = len(images)
        for candidate in pending[-1]:
            if feasible(pos, candidate):
                break
        else:
            pending.pop()
            if images:
                images.pop()
            continue
        images.append(candidate)
        if pos + 1 == n:
            yield FnTable(dom, cod, tuple(images))
            images.pop()
        else:
            pending.append(iter(choices[pos + 1]))
