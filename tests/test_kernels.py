"""Whole-row kernels against the per-pair loops they replaced, and the
lattice identities that tie them together, on seeded carriers of 50 to
300 points."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from infolat import (FnTable, Rel, close, compatible_extension, compose, cp,
                     er, flow_check, from_ordered_partition, identity_rel,
                     invert, kernel, order_rel, phi_realisability, pullback,
                     to_ordered_partition, union)
from infolat.poset import transpose
from infolat.relation import _block_rows
from helpers import (block_steps_pairwise, compatible_extension_pairwise,
                     flow_check_pairwise, pullback_pairwise, random_equivalence,
                     random_poset, random_preorder, random_rows, seeded,
                     transpose_pairwise)

SIZES = st.integers(50, 300)
AT_SCALE = settings(max_examples=20)


@st.composite
def tables(draw):
    """A seeded generator and a table, not necessarily monotone, between
    random posets; the codomain ranges from one point to the domain's size."""
    rng = draw(seeded())
    n = draw(SIZES)
    m = rng.choice((1, 2, rng.randint(2, n), n))
    dom, cod = random_poset(rng, n), random_poset(rng, m)
    return rng, FnTable(dom, cod, tuple(rng.randrange(m) for _ in range(n)))


@st.composite
def scale_posets(draw):
    rng = draw(seeded())
    return rng, random_poset(rng, draw(SIZES))


@AT_SCALE
@given(seeded(), st.integers(0, 300))
def test_transpose_matches_pairwise(rng, n):
    rows = random_rows(rng, n)
    cols = transpose(rows)
    assert cols == transpose_pairwise(rows)
    assert transpose(cols) == rows


@AT_SCALE
@given(tables())
def test_pullback_matches_pairwise(inst):
    rng, f = inst
    r = Rel(f.cod, random_rows(rng, len(f.cod)))
    assert pullback(f, r) == pullback_pairwise(f, r)
    assert kernel(f) == pullback(f, identity_rel(f.cod))


@AT_SCALE
@given(tables(), st.sampled_from(("random", "inside", "one extra")))
def test_flow_check_matches_pairwise(inst, shape):
    rng, f = inst
    post = Rel(f.cod, random_rows(rng, len(f.cod)))
    allowed = pullback_pairwise(f, post).rows
    n = len(f.dom)
    if shape == "random":
        rows = random_rows(rng, n)
    else:
        # a sub-relation of the pullback, so the flow holds ...
        rows = tuple(a & b for a, b in zip(allowed, random_rows(rng, n)))
        if shape == "one extra":
            # ... until one pair is added at a random place
            bumped = list(rows)
            bumped[rng.randrange(n)] |= 1 << rng.randrange(n)
            rows = tuple(bumped)
    pre = Rel(f.dom, rows)
    got = flow_check(f, pre, post)
    assert got == flow_check_pairwise(f, pre, post)
    assert (got is None) == pre.subset_of(pullback(f, post))


@AT_SCALE
@given(scale_posets())
def test_compatible_extension_matches_pairwise(inst):
    rng, carrier = inst
    q = random_preorder(rng, carrier)
    ext = compatible_extension(q)
    assert ext == compatible_extension_pairwise(q)
    assert ext == compose(q, invert(q))


@AT_SCALE
@given(scale_posets())
def test_is_transitive_matches_pairwise(inst):
    rng, carrier = inst
    n = len(carrier)
    for rows in (random_rows(rng, n), random_preorder(rng, carrier).rows):
        want = all(rows[i] | rows[j] == rows[i]
                   for i in range(n) for j in range(n) if (rows[i] >> j) & 1)
        assert Rel(carrier, rows).is_transitive == want


@AT_SCALE
@given(scale_posets())
def test_ordered_partition_block_rows(inst):
    rng, carrier = inst
    q = random_preorder(rng, carrier)
    op = to_ordered_partition(q)
    reps = [carrier.index(block[0]) for block in op.blocks]
    for b1, r1 in enumerate(reps):
        want = sum(1 << b2 for b2, r2 in enumerate(reps) if q.holds_idx(r1, r2))
        assert op.block_rows[b1] == want
    assert from_ordered_partition(op) == q


def block_masks(carrier, blocks):
    return [sum(1 << carrier.index(x) for x in block) for block in blocks]


def assert_simple_cycle(blocks, cycle_blocks, steps):
    """The cycle passes at least two blocks, each once, and steps from
    each block to the next and from the last back to the first."""
    cycle = [blocks.index(b) for b in cycle_blocks]
    assert len(cycle) >= 2 and len(set(cycle)) == len(cycle)
    for b1, b2 in zip(cycle, cycle[1:] + cycle[:1]):
        assert (steps[b1] >> b2) & 1


@AT_SCALE
@given(scale_posets())
def test_block_steps_and_realisability_witnesses(inst):
    rng, carrier = inst
    raw = random_equivalence(rng, carrier)
    # er(cp(r)) is always realisable, so both outcomes are exercised
    for r in (raw, er(cp(raw))):
        blocks = to_ordered_partition(r).blocks
        masks = block_masks(carrier, blocks)
        index = [0] * len(carrier)
        for b, mask in enumerate(masks):
            for x in range(len(carrier)):
                if (mask >> x) & 1:
                    index[x] = b
        steps = block_steps_pairwise(carrier, masks)
        assert _block_rows(carrier.rows, index, masks) == tuple(steps)
        result = phi_realisability(r)
        if result.realisable:
            # the blocks read off the rows are the ordered partition's
            assert result.witness_poset.elements == \
                tuple("+".join(b) for b in blocks)
            assert kernel(result.witness_fn) == r
            assert result.witness_fn.is_monotone
        else:
            assert_simple_cycle(blocks, result.cycle, steps)
    assert phi_realisability(er(cp(raw))).realisable


@pytest.mark.parametrize("seed", [20, 99])
def test_realisability_cycle_passes_each_block_once(seed):
    # a forward path joined to a back path revisited a block here: the
    # block walks were 1, 35, 20, 35 and 0, 7, 12, 1, 12
    rng = random.Random(seed)
    carrier = random_poset(rng, rng.randint(20, 120))
    r = random_equivalence(rng, carrier)
    result = phi_realisability(r)
    assert not result.realisable
    blocks = to_ordered_partition(r).blocks
    steps = block_steps_pairwise(carrier, block_masks(carrier, blocks))
    assert_simple_cycle(blocks, result.cycle, steps)


@AT_SCALE
@given(scale_posets())
def test_er_cp_round_trips_on_equivalences(inst):
    rng, carrier = inst
    r = random_equivalence(rng, carrier)
    closed = er(cp(r))
    assert cp(closed) == cp(r)
    assert r.subset_of(closed)
    assert (closed == r) == phi_realisability(r).realisable


@AT_SCALE
@given(scale_posets())
def test_er_cp_round_trips_on_complete_preorders(inst):
    rng, carrier = inst
    q = close(union(random_preorder(rng, carrier), order_rel(carrier)),
              "refl_trans")
    assert cp(er(q)).subset_of(q)
    assert er(cp(er(q))) == er(q)
