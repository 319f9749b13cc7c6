"""Declaration order is invisible: declaring a carrier's elements again in
another order, and carrying relations across by name, changes no
verdict."""

from hypothesis import given, strategies as st

from infolat import (Poset, Rel, ValidationError, build_poset, close,
                     compatible_extension, er, get_example,
                     is_complete_preorder, is_realisable, list_examples,
                     order_rel, rel_from_pairs, to_ordered_partition, union)
from infolat.poset import bits
from helpers import (random_equivalence, random_preorder, random_rows,
                     redeclared_posets, seeded)

# a bundle's posets, sized ones at a small n; built when drawn, since
# nd-bool builds a powerdomain and no test module may at import
CATALOG_POSETS = st.sampled_from(list_examples()).flatmap(
    lambda name: st.sampled_from(tuple(get_example(name, n=4).posets.values())))


def redeclare(rng, p: Poset) -> Poset:
    """The same order with its elements declared in a random order."""
    names = p.elements
    return build_poset(rng.sample(names, len(names)),
                       [(names[i], names[j]) for i, j in p.covers()])


def relations(rng, p: Poset) -> list[Rel]:
    """Seeded raw, preorder, complete-preorder and equivalence relations,
    the carrier's order and that order with one bit flipped."""
    n = len(p)
    near = list(p.rows)
    if n > 1:
        i, j = rng.sample(range(n), 2)
        near[i] ^= 1 << j
    complete = close(union(random_preorder(rng, p), order_rel(p)),
                     "refl_trans")
    return [Rel(p, random_rows(rng, n)), random_preorder(rng, p), complete,
            random_equivalence(rng, p), order_rel(p), Rel(p, tuple(near))]


def validates_as_order(r: Rel) -> bool:
    try:
        Poset(r.carrier.elements, r.rows)
    except ValidationError:
        return False
    return True


def verdicts(r: Rel) -> list:
    """Every verdict on r, in terms of names only.  A preorder's ordered
    partition is its block order as pairs of blocks, each block a set of
    names; the reflexive pairs list every block.  Its compatible
    extension and underlying equivalence are sets of pairs of names."""
    out = [validates_as_order(r), r.is_preorder, r.is_equivalence,
           is_complete_preorder(r)]
    if r.is_equivalence:
        out.append(is_realisable(r))
    if r.is_preorder:
        op = to_ordered_partition(r)
        blocks = [frozenset(block) for block in op.blocks]
        out.append({(blocks[a], blocks[b])
                    for a, row in enumerate(op.block_rows) for b in bits(row)})
        out += [set(compatible_extension(r).pairs()), set(er(r).pairs())]
    return out


@given(seeded(), st.one_of(CATALOG_POSETS, redeclared_posets(max_size=6)))
def test_declaration_order_changes_no_verdict(rng, p):
    q = redeclare(rng, p)
    for r in relations(rng, p):
        assert verdicts(rel_from_pairs(q, r.pairs())) == verdicts(r)
