"""Termination-insensitive flow checking.

The compatible extension of a preorder relates two elements when they
share an upper bound under it; checking a flow property against the
compatible extensions of both sides ignores leaks that only manifest
through (non-)termination.  The flat-observer encoding recovers a
restricted form of this on the equivalence side, and the exhaustive
observer search shows where that encoding runs out.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceededError, ValidationError
from .loci import _completions, _growth_walk
from .loi import Violation, flow_check, loi_join, pullback
from .poset import FnTable, Poset, broken_rows, compatible_rows, image_rows
from .relation import Rel, equivalence_from_blocks, require


def compatible_extension(q: Rel) -> Rel:
    """Relates x, y when some z has x q z and y q z.

    Contains q, is reflexive and symmetric, and in general is not
    transitive.
    """
    require(q, "preorder", "argument")
    labels, _, block_rows = q._quotient
    return Rel(q.carrier, compatible_rows(labels, block_rows))


def ti_flow_check(f: FnTable, pre: Rel, post: Rel) -> Violation | None:
    """Flow check between the compatible extensions of two complete preorders."""
    require(pre, "complete", "precondition")
    require(post, "complete", "postcondition")
    return flow_check(f, compatible_extension(pre), compatible_extension(post))


def flat_termination_observer(b: Poset) -> Rel:
    """The divergence observer on a lifted flat poset.

    Requires a unique bottom with a discrete layer above it; the result
    relates the bottom only to itself and all defined values to each
    other.
    """
    n = len(b.elements)
    bot = b.minimum()
    if n < 2 or bot is None:
        raise ValidationError("carrier is not a lifted flat poset")
    for i, row in enumerate(b.rows):
        if i != bot and row != 1 << i:
            raise ValidationError("carrier is not a lifted flat poset")
    rest = [name for i, name in enumerate(b.elements) if i != bot]
    return equivalence_from_blocks(b, [[b.elements[bot]], rest])


def ti_via_observer(f: FnTable, pre: Rel, post: Rel, t: Rel) -> Violation | None:
    """Equivalence-side encoding: strengthen the precondition with the
    pulled-back termination observer, then flow check."""
    require(pre, "equivalence", "precondition")
    require(post, "equivalence", "postcondition")
    require(t, "equivalence", "termination observer")
    return flow_check(f, loi_join(pre, pullback(f, t)), post)


@dataclass(frozen=True)
class ObserverSearch:
    """Outcome of the exhaustive observer search.

    ``separating`` is the first observer (canonical partition order)
    that accepts the good function and rejects every bad one, or None
    when no observer does; ``checked`` counts the candidates up to it,
    or all Bell(k) of them, whether visited or left with a cut prefix.
    """

    separating: Rel | None
    checked: int


def observer_impossibility_search(
        f_ok: FnTable, g_bad: FnTable | Iterable[FnTable],
        pre: Rel, post: Rel, cap: int = 8) -> ObserverSearch:
    """Search every equivalence on the shared codomain for a separator.

    A separating observer T makes the encoded check pass for ``f_ok``
    and fail for each bad table.  Passing several bad tables demands a
    T that defeats all of them at once; this is how symmetric variants
    of a leak are covered.

    The candidates are the restricted-growth labellings of the codomain,
    walked a value at a time (``loci._growth_walk``).  A prefix that
    puts two values ``f_ok`` must keep apart into one block fails
    ``f_ok`` with every completion, so it is cut and its completions are
    only counted; the rest are tested against the bad tables at the
    leaves, and a ``Rel`` is built only for the separator returned.
    """
    bads: Sequence[FnTable] = (g_bad,) if isinstance(g_bad, FnTable) else tuple(g_bad)
    if not bads:
        raise ValidationError("need at least one bad function")
    cod = f_ok.cod
    for g in bads:
        if g.cod != cod:
            raise ValidationError("functions must share a codomain")
    if len(cod.elements) > cap:
        raise CapExceededError(
            f"codomain has {len(cod.elements)} elements, cap is {cap}")
    # the checks ti_via_observer would make on every candidate, made once:
    # each candidate t is an equivalence on cod by construction
    require(pre, "equivalence", "precondition")
    require(post, "equivalence", "postcondition")
    for g in (f_ok, *bads):
        if pre.carrier != g.dom:
            raise ValidationError("relations live on different carriers")
    require(post, None, "postcondition", cod)

    # the encoded check fails for g when t relates g(x) to g(y) for a
    # pair (x, y) of g's broken_rows: when row v of t meets row v of the
    # image of those pairs under g.  Both conditions are equivalences, so
    # these rows are symmetric: the walk cuts every prefix that puts a
    # value into a block meeting its ok row, and a leaf costs one AND
    # per codomain value and bad table
    k = len(cod)
    ok, *bad = [image_rows(broken_rows(pre.rows, post.rows, g.images),
                           g.images, k) for g in (f_ok, *bads)]
    for checked, rows in _growth_walk(k, ok):
        if all(any(map(int.__and__, unsafe, rows)) for unsafe in bad):
            return ObserverSearch(Rel(cod, rows), checked)
    return ObserverSearch(None, _completions(k)[k - 1][1])  # Bell(k)
