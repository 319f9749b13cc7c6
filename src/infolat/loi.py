"""The lattice of equivalence relations on a carrier.

Ordering is reverse inclusion: P below Q means Q is contained in P, so
the identity relation is the top (full knowledge) and the all-relation
is the bottom (no knowledge).  Join is intersection; meet closes the
union.  Kernels, knowledge sets, flow checking and the two image maps
(pullback and pushforward) connect function tables to the lattice.
"""

from dataclasses import dataclass

from .errors import ValidationError
from .poset import FnTable, bits, compose_rows, fibres
from .relation import Rel, close, identity_rel, intersect, require, union


def loi_leq(p: Rel, q: Rel) -> bool:
    """p below q (q reveals at least as much): q is a subset of p."""
    require(p, "equivalence", "left argument")
    require(q, "equivalence", "right argument")
    return q.subset_of(p)


def loi_join(p: Rel, q: Rel) -> Rel:
    """Least upper bound: the intersection."""
    require(p, "equivalence", "left argument")
    require(q, "equivalence", "right argument")
    return intersect(p, q)


def loi_meet(p: Rel, q: Rel) -> Rel:
    """Greatest lower bound: equivalence closure of the union."""
    require(p, "equivalence", "left argument")
    require(q, "equivalence", "right argument")
    return close(union(p, q), "equivalence")


def kernel(f: FnTable) -> Rel:
    """Indistinguishability under f: relates x, y with f(x) = f(y)."""
    preimage = fibres(f.images, len(f.cod.elements))
    return Rel(f.dom, tuple(preimage[v] for v in f.images))


def knowledge_set(f: FnTable, a: str) -> frozenset[str]:
    """Inputs an observer of f cannot tell apart from ``a``."""
    v = f.images[f.dom.index(a)]
    return frozenset(x for x, w in zip(f.dom.elements, f.images) if w == v)


@dataclass(frozen=True)
class Violation:
    """Witness that a flow property fails: a related input pair whose
    outputs are unrelated."""

    a: str
    a_prime: str
    fa: str
    fa_prime: str

    def __str__(self) -> str:
        return (f"VIOLATION: a={self.a} a'={self.a_prime} "
                f"f(a)={self.fa} f(a')={self.fa_prime}")


def flow_check(f: FnTable, pre: Rel, post: Rel) -> Violation | None:
    """Does every pre-related input pair map to a post-related pair?

    Returns None when the property holds, otherwise the first violating
    pair in row-major canonical order.  Works for arbitrary relations.
    """
    require(pre, None, "precondition", f.dom)
    require(post, None, "postcondition", f.cod)
    # row i of the pullback of post holds every j that pre may relate to
    # i; the lowest bit outside it in the first failing row is the
    # row-major first violation
    for i, (row, ok) in enumerate(zip(pre.rows, _pullback_rows(f, post))):
        bad = row & ~ok
        if bad:
            j = (bad & -bad).bit_length() - 1
            names, out = f.dom.elements, f.cod.elements
            return Violation(names[i], names[j],
                             out[f.images[i]], out[f.images[j]])
    return None


def pullback(f: FnTable, r: Rel) -> Rel:
    """Inverse image: relates x, y exactly when f(x) r f(y).

    Preserves reflexivity, transitivity and symmetry; the kernel of f
    is the pullback of the identity relation.
    """
    require(r, None, "relation", f.cod)
    return Rel(f.dom, _pullback_rows(f, r))


def _pullback_rows(f: FnTable, r: Rel) -> tuple[int, ...]:
    """Rows of the pullback of r, a relation on the codomain of f.

    ``preimage[v]`` holds every x with f(x) = v; the row of x is the OR
    of ``preimage[w]`` over the w in ``r.rows[f(x)]`` that f hits.
    """
    preimage = fibres(f.images, len(f.cod.elements))
    hit = 0
    for v in f.images:
        hit |= 1 << v
    return compose_rows((r.rows[v] & hit for v in f.images), preimage)


def pushforward(f: FnTable, p: Rel) -> Rel:
    """Direct image: the least equivalence the outputs are forced into.

    Equivalence closure over the codomain of the image pairs of p; the
    least Q (most revealing) with f carrying p to Q.
    """
    require(p, "equivalence", "precondition", f.dom)
    return _image_closure(f, p, identity_rel(f.cod), "equivalence")


def _image_closure(f: FnTable, p: Rel, base: Rel, kind: str) -> Rel:
    """Closure of ``kind`` over the image pairs of p added to ``base``,
    a relation on the codomain of f."""
    rows = list(base.rows)
    for i, row in enumerate(p.rows):
        for j in bits(row):
            rows[f.images[i]] |= 1 << f.images[j]
    return close(Rel(f.cod, tuple(rows)), kind)


def find_postprocessor(f: FnTable, g: FnTable) -> FnTable | None:
    """A table p with f = p after g, when g reveals at least as much.

    Exists exactly when kernel(f) is below kernel(g).  The returned
    table is built in the unordered setting and is deliberately not
    monotonicity-checked; unconstrained values go to the first codomain
    element.
    """
    if f.dom != g.dom:
        raise ValidationError("tables must share a domain")
    required = _fibre_images(f, g)
    if required is None:
        return None
    return FnTable(g.cod, f.cod, tuple(0 if v is None else v for v in required))


def _fibre_images(f: FnTable, g: FnTable) -> list[int | None] | None:
    """The image any p with f = p after g gives each point of cod(g):
    f's value on the fibre of g over it, or None where g hits nothing.
    None overall when some fibre meets two values of f, so no p exists."""
    required: list[int | None] = [None] * len(g.cod.elements)
    for j, v in zip(g.images, f.images):
        if required[j] is None:
            required[j] = v
        elif required[j] != v:
            return None
    return required
