"""The lattice of equivalence relations on a carrier.

Ordering is reverse inclusion: P below Q means Q is contained in P, so
the identity relation is the top (full knowledge) and the all-relation
is the bottom (no knowledge).  Join is intersection; meet closes the
union.  Kernels, knowledge sets, flow checking and the two image maps
(pullback and pushforward) connect function tables to the lattice.
"""

from dataclasses import dataclass

from .errors import ValidationError
from .poset import FnTable, broken_rows, image_rows, kernel_rows, pull_rows
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
    """Greatest lower bound: equivalence closure of the union.

    The union of two equivalences is already reflexive and symmetric,
    and the transitive closure of a symmetric relation stays symmetric,
    so the reflexive-transitive closure is the equivalence closure.
    """
    require(p, "equivalence", "left argument")
    require(q, "equivalence", "right argument")
    return close(union(p, q), "refl_trans")


def kernel(f: FnTable) -> Rel:
    """Indistinguishability under f: relates x, y with f(x) = f(y)."""
    return Rel(f.dom, kernel_rows(f.images, len(f.cod.elements)))


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
    for i, bad in enumerate(broken_rows(pre.rows, post.rows, f.images)):
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
    return Rel(f.dom, pull_rows(r.rows, f.images))


def pushforward(f: FnTable, p: Rel) -> Rel:
    """Direct image: the least equivalence the outputs are forced into.

    Equivalence closure over the codomain of the image pairs of p; the
    least Q (most revealing) with f carrying p to Q.  The image pairs of
    the symmetric p and the identity form a reflexive symmetric
    relation, so its reflexive-transitive closure is that equivalence
    closure.
    """
    require(p, "equivalence", "precondition", f.dom)
    return _image_closure(f, p, identity_rel(f.cod))


def _image_closure(f: FnTable, p: Rel, base: Rel) -> Rel:
    """Reflexive-transitive closure of the image pairs of p added to
    ``base``, a relation on the codomain of f."""
    image = image_rows(p.rows, f.images, len(base.rows))
    return close(Rel(f.cod, tuple(map(int.__or__, base.rows, image))),
                 "refl_trans")


def find_postprocessor(f: FnTable, g: FnTable) -> FnTable | None:
    """A table p with f = p after g, when g reveals at least as much.

    Exists exactly when kernel(f) is below kernel(g).  The returned
    table is built in the unordered setting and is deliberately not
    monotonicity-checked; unconstrained values go to the first codomain
    element.
    """
    required = _fibre_images(f, g)
    if required is None:
        return None
    return FnTable(g.cod, f.cod, tuple(0 if v is None else v for v in required))


def _fibre_images(f: FnTable, g: FnTable) -> list[int | None] | None:
    """The image any p with f = p after g gives each point of cod(g):
    f's value on the fibre of g over it, or None where g hits nothing.
    None overall when some fibre meets two values of f, so no p exists."""
    if f.dom != g.dom:
        raise ValidationError("tables must share a domain")
    required: list[int | None] = [None] * len(g.cod.elements)
    for j, v in zip(g.images, f.images):
        if required[j] is None:
            required[j] = v
        elif required[j] != v:
            return None
    return required
