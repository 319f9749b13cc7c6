"""Finite convex (Plotkin) powerdomains.

Elements are non-empty convex subsets of a base poset, ordered by the
Egli-Milner extension of the base order; `pd_lift_relation` extends a
complete preorder the same way, so order-aware relations can be lifted
alongside.  Union-then-convex-closure gives the binary nondeterministic
choice, and the Kleisli extension/composition wire set-valued tables
together.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapExceededError, ValidationError
from .poset import FnTable, Poset, bits, compose_rows, transpose
from .relation import Rel, _block_names, require

DEFAULT_POWERDOMAIN_CAP = 5


def _mask_of(base: Poset, members: Iterable[str]) -> int:
    mask = 0
    for name in members:
        mask |= 1 << base.index(name)
    return mask


def _names_of(base: Poset, mask: int) -> tuple[str, ...]:
    return tuple(base.elements[i] for i in bits(mask))


def subset_name(base: Poset, mask: int) -> str:
    """Canonical name of a subset: members joined with '+'."""
    return "+".join(_names_of(base, mask))


def _convex_masks(base: Poset, masks: Sequence[int]) -> list[int]:
    """Convex hull of each mask: its up-closure meets its down-closure."""
    return [up & down for up, down in zip(compose_rows(masks, base.rows),
                                          compose_rows(masks, base.cols))]


def _convex_mask(base: Poset, mask: int) -> int:
    return _convex_masks(base, (mask,))[0]


def convex_closure(members: Iterable[str], base: Poset) -> frozenset[str]:
    """Everything between two members: {b | a <= b <= c for a, c in X}."""
    mask = _mask_of(base, members)
    return frozenset(_names_of(base, _convex_mask(base, mask)))


def _all_subset_masks(base: Poset) -> list[int]:
    """Every non-empty subset mask, lexicographic on membership with the
    first element most significant: the bit reversals of 1 .. 2**n - 1."""
    n = len(base.elements)
    return [int(format(r, f"0{n}b")[::-1], 2) for r in range(1, 1 << n)]


@dataclass(frozen=True)
class PdElement:
    """A non-empty convex subset of a base poset."""

    base: Poset
    mask: int

    def __post_init__(self) -> None:
        if not self.mask:
            raise ValidationError("powerdomain elements are non-empty")
        if self.mask >> len(self.base.elements):
            raise ValidationError("membership mask outside the base carrier")
        if _convex_mask(self.base, self.mask) != self.mask:
            raise ValidationError(
                f"{{{' '.join(_names_of(self.base, self.mask))}}} is not convex")

    @property
    def members(self) -> tuple[str, ...]:
        return _names_of(self.base, self.mask)

    @property
    def name(self) -> str:
        return subset_name(self.base, self.mask)


def pd_element(base: Poset, members: Iterable[str]) -> PdElement:
    return PdElement(base, _mask_of(base, members))


def pd_union(x: PdElement, y: PdElement) -> PdElement:
    """Nondeterministic choice: convex closure of the plain union."""
    if x.base != y.base:
        raise ValidationError("elements live over different bases")
    return PdElement(x.base, _convex_mask(x.base, x.mask | y.mask))


def _em_rows(r: Rel | Poset, masks: Sequence[int]) -> tuple[int, ...]:
    """Egli-Milner extension of r (a relation or a poset's order, read
    through ``rows``) on the given subset masks: X is below Y iff each
    point of Y is in the r-image of X and Y meets r(x) for each x in X.
    One composition finds the Y that fail: bit p of X's row, a point
    outside its image, reads the masks holding p (the n columns of the
    masks), bit n + x, for x in X, the masks that miss r(x)."""
    n, full = len(r.rows), (1 << len(masks)) - 1
    members = transpose(masks, n)
    misses = [full & ~meets for meets in compose_rows(r.rows, members)]
    points = (1 << n) - 1
    fails = compose_rows([points & ~up | x << n for x, up in
                          zip(masks, compose_rows(masks, r.rows))],
                         [*members, *misses])
    return tuple(full & ~fail for fail in fails)


@dataclass(frozen=True, repr=False)
class PlotkinPoset(Poset):
    """Powerdomain carrier: convex subsets under the Egli-Milner order.

    Keeps the base poset and each element's membership mask so that
    set-level operations can recover the underlying subsets.
    """

    base: Poset
    masks: tuple[int, ...]

    @cached_property
    def mask_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}


def plotkin(base: Poset, cap: int = DEFAULT_POWERDOMAIN_CAP) -> PlotkinPoset:
    """The convex powerdomain of a base poset of at most ``cap`` elements.
    Each element is named by its ``subset_name``, plus ``#k`` on a clash."""
    n = len(base.elements)
    if n > cap:
        raise CapExceededError(f"base carrier has {n} elements, cap is {cap}")
    every = _all_subset_masks(base)
    masks = [m for m, h in zip(every, _convex_masks(base, every)) if h == m]
    names = _block_names([_names_of(base, m) for m in masks])
    rows = _em_rows(base, masks)
    return PlotkinPoset(names, rows, base, tuple(masks))


def pd_unit(base: Poset) -> FnTable:
    """Singleton embedding of the base into its powerdomain."""
    target = plotkin(base)
    images = tuple(target.mask_index[1 << i] for i in range(len(base.elements)))
    return FnTable(base, target, images)


def kleisli_extend(f: FnTable) -> FnTable:
    """Extend a set-valued table to whole sets.

    For f from A into plotkin(B), the extension maps a convex X over A
    to the convex closure of the union of the f-images of its members.
    """
    target = f.cod
    if not isinstance(target, PlotkinPoset):
        raise ValidationError("codomain is not a powerdomain carrier")
    source = plotkin(f.dom)
    unions = compose_rows(source.masks, [target.masks[v] for v in f.images])
    return FnTable(source, target,
                   tuple(target.mask_index[hull]
                         for hull in _convex_masks(target.base, unions)))


def kleisli_compose(f: FnTable, g: FnTable) -> FnTable:
    """Sequence two set-valued tables: run f, then g on every outcome."""
    if not isinstance(f.cod, PlotkinPoset) or f.cod.base != g.dom:
        raise ValidationError(
            "left codomain must be the powerdomain of the right domain")
    return f.then(kleisli_extend(g))


def pd_lift_relation(p: Rel) -> Rel:
    """Egli-Milner extension of a complete preorder, on the powerdomain carrier."""
    require(p, "complete", "argument")
    carrier = plotkin(p.carrier)
    return Rel(carrier, _em_rows(p, carrier.masks))
