"""Whole-row kernels against the per-pair loops they replaced, and the
lattice identities that tie them together, on seeded carriers of 1 to
300 points; plus guards at 3,000 points that take seconds only while
the order kernels and the set images stay near-linear in their rows."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from infolat import (FnTable, NotMonotoneError, OrderCycleError, Poset, Rel,
                     ValidationError, all_rel, block_label, chain,
                     check_monotone, cli, close, compatible_extension,
                     compose, cp, discrete, enumerate_loci, enumerate_loi,
                     er, flow_check, format_relation,
                     from_ordered_partition, get_example, identity_fn,
                     identity_rel, intersect, invert, is_realisable, kernel,
                     lift, order_rel, ordered_kernel, phi_realisability,
                     plotkin, product, pullback, quotient_map, ti_flow_check,
                     to_ordered_partition, union)
from infolat.cli import _quote, emit_dot
from infolat.loci import _matrix_key
from infolat import poset as poset_module, powerdomain, relation
from infolat.poset import (bits, close_rows, compatible_rows, compose_rows,
                           fibres, image_rows, preorder_cols,
                           preorder_quotient, pull_rows, row_covers,
                           row_runs, rows_transitive, transpose)
from infolat.powerdomain import _em_rows
from infolat.relation import preorder_from_blocks
from helpers import (CHAIN3, FAMILY, block_steps_pairwise,
                     close_rows_warshall, compatible_extension_by_converse,
                     compatible_extension_pairwise, compose_rows_bitwise,
                     covers_pairwise,
                     em_rows_by_converse, flow_check_pairwise,
                     format_relation_via_partition, is_chain_pairwise,
                     is_equivalence_pairwise,
                     is_transitive_pairwise, monotone_witness_pairwise,
                     mutual_classes_pairwise, oracle_compose,
                     poset_checks_pairwise, pullback_pairwise,
                     random_equivalence, random_poset, random_preorder,
                     random_rows, redeclared_posets, seeded,
                     strict_pairs_pairwise, transpose_pairwise)

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
@given(seeded(), st.integers(1, 300), st.integers(1, 300))
def test_transpose_matches_pairwise(rng, m, n):
    # m rows of n bits, m and n drawn apart as for the Egli-Milner masks
    width = (1 << n) - 1
    rows = tuple(row & width for row in random_rows(rng, max(m, n))[:m])
    cols = transpose(rows, n)
    assert cols == transpose_pairwise(rows, n)
    assert transpose(cols, m) == rows


@pytest.mark.parametrize("rows, n", [((8,), 2), ((0,), 0), ((), 3)])
def test_transpose_checker_refuses_calls_outside_its_precondition(
        checked_transpose, rows, n):
    # unchecked, these give 4 columns, 1 column and no columns
    for module in (poset_module, relation, powerdomain):
        assert module.transpose is checked_transpose
    assert checked_transpose.__name__ == "transpose"
    assert checked_transpose.__module__ == "infolat.poset"
    with pytest.raises(AssertionError):
        checked_transpose(rows, n)


@AT_SCALE
@given(seeded(), st.integers(1, 300))
def test_rel_cols_is_the_cached_converse(rng, n):
    # raw rows, mostly not preorders: the whole-matrix transpose
    r = Rel(random_poset(rng, n), random_rows(rng, n))
    assert r.cols == transpose_pairwise(r.rows, n)
    assert r.cols is r.cols


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
        assert Rel(carrier, rows).is_transitive == is_transitive_pairwise(rows)


def relabel(rows, perm):
    """The rows with index i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j] for j in range(len(rows))
                           if (row >> j) & 1)
    return out


def flip_bits(rng, rows, k):
    """The rows with k random bits flipped, the diagonal left alone."""
    out = list(rows)
    n = len(out)
    for _ in range(k if n > 1 else 0):
        i = rng.randrange(n)
        out[i] ^= 1 << rng.choice([j for j in range(n) if j != i])
    return tuple(out)


def dag_rows(rng, n):
    """Covers of a random acyclic relation on n points, relabelled at
    random so that they point both up and down the indices."""
    density = rng.choice((0.0, 1.0 / n, 4.0 / n, 0.05, 0.5))
    rows = [sum(1 << j for j in range(i + 1, n) if rng.random() < density)
            for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(rows, perm)


def close_a_cycle(rng, rows):
    """Add the edge from the end of a random path back to its start; a
    path of one point gets an edge to a random other point and back."""
    n = len(rows)
    path = [rng.randrange(n)]
    while rows[path[-1]] and len(path) < 5:
        path.append(rng.choice(list(bits(rows[path[-1]]))))
    if len(path) == 1:
        path.append(rng.choice([j for j in range(n) if j != path[0]]))
        rows[path[0]] |= 1 << path[1]
    rows[path[-1]] |= 1 << path[0]


def lay_cycles(rng, rows):
    """Add 2 to 8 closed walks of 2 to 6 points, each sharing a point
    with an earlier one half of the time, and a few self-loops.  Walks
    of three or more points, entered in walk order, reach the first
    point only through the last, so its low is handed up."""
    n = len(rows)
    walked: list[int] = []
    for _ in range(rng.randint(2, 8)):
        walk = rng.sample(range(n), rng.randint(2, 6))
        if walked and rng.random() < 0.5:
            walk.append(rng.choice(walked))
        for a, b in zip(walk, walk[1:] + walk[:1]):
            rows[a] |= 1 << b
        walked.extend(walk)
    for i in rng.sample(range(n), rng.randint(0, n // 10)):
        rows[i] |= 1 << i


@pytest.mark.parametrize("rows, want", [
    # a two-cycle: row 0, entered from the root 1, finds row 1 open
    ((0b10, 0b01), [0b11, 0b11]),
    # a three-cycle, closed through its last row
    ((0b010, 0b100, 0b001), [0b111, 0b111, 0b111])])
def test_close_rows_of_fixed_cycles(rows, want):
    assert close_rows(rows) == want == close_rows_warshall(rows)


@AT_SCALE
@given(seeded(), SIZES,
       st.sampled_from(("covers", "closed", "cyclic", "components")))
def test_close_rows_matches_warshall(rng, n, shape):
    rows = dag_rows(rng, n)
    if shape == "closed":
        rows = close_rows_warshall(rows)
    elif shape == "cyclic":
        close_a_cycle(rng, rows)
    elif shape == "components":
        lay_cycles(rng, rows)
    assert close_rows(rows) == close_rows_warshall(rows)


# --- set images: compose_rows and its nested-row jumps -------------------

def pair_set(rows):
    return {(i, j) for i, row in enumerate(rows) for j in bits(row)}


def rows_of(pairs, n):
    out = [0] * n
    for i, j in pairs:
        out[i] |= 1 << j
    return tuple(out)


NESTED_SHAPES = ("chain", "antichain", "ranked", "large classes", "strict",
                 "dense raw", "sparse raw")


def nested_shape(rng, n, shape):
    """Square rows on n points: a chain relabelled at random, an
    antichain, ranked blocks with ties, a preorder on at most four
    classes, a poset order with the diagonal dropped from most rows
    (transitive, not reflexive), near-full rows (not transitive), or rows
    of one to three random bits (not transitive either), where a row can
    hold more bits than a larger one, as 0b0111 and 0b1000 do."""
    if shape == "chain":
        perm = list(range(n))
        rng.shuffle(perm)
        return tuple(relabel(up_sets(range(n)), perm))
    if shape == "antichain":
        return tuple(1 << i for i in range(n))
    if shape == "ranked":
        carrier = discrete(f"e{i}" for i in range(n))
        return ranked_preorder(rng, carrier, ties=True).rows
    if shape == "large classes":
        k = rng.randint(1, min(n, 4))
        labels = [rng.randrange(k) for _ in range(n)]
        masks = [sum(1 << i for i in range(n) if labels[i] == b)
                 for b in range(k)]
        above = close_rows_warshall([rng.getrandbits(k) for _ in range(k)])
        return tuple(sum(masks[c] for c in bits(above[b])) for b in labels)
    if shape == "strict":
        return tuple(row & ~(1 << i) if rng.random() < 0.8 else row
                     for i, row in
                     enumerate(close_rows_warshall(dag_rows(rng, n))))
    if shape == "sparse raw":
        return tuple(sum(1 << j for j in rng.sample(range(n),
                                                    rng.randint(1, min(n, 3))))
                     for _ in range(n))
    return tuple(rng.getrandbits(n) | rng.getrandbits(n) for _ in range(n))


def image_table(rng, n):
    """n sparse rows of up to 2n bits, or n singletons as in a set image."""
    if rng.random() < 0.5:
        return [1 << rng.randrange(n) for _ in range(n)]
    m = rng.randint(1, 2 * n)
    return [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(n)]


@settings(max_examples=200)
@given(seeded(), st.integers(0, 10), st.integers(1, 10), st.integers(1, 10))
def test_compose_rows_matches_pair_sets(rng, m, n, p):
    # m rows over n points and a table of n rows over p points: not
    # square unless m == n; a few rows repeat, as equal rows share work
    rows = [rng.getrandbits(n) for _ in range(m)]
    rows += rng.choices(rows, k=rng.randint(0, 3)) if rows else []
    table = [rng.getrandbits(p) for _ in range(n)]
    want = rows_of(oracle_compose(pair_set(rows), pair_set(table), n),
                   len(rows))
    assert compose_rows(rows, table) == want
    assert compose_rows(iter(rows), table) == want


@settings(max_examples=200)
@given(seeded(), st.integers(1, 10), st.sampled_from(NESTED_SHAPES))
def test_compose_rows_matches_pair_sets_on_nested_shapes(rng, n, shape):
    rows = nested_shape(rng, n, shape)
    table = image_table(rng, n)
    want = rows_of(oracle_compose(pair_set(rows), pair_set(table), n), n)
    assert compose_rows(rows, table) == want


@settings(max_examples=60)
@given(seeded(), st.integers(1, 300), st.sampled_from(NESTED_SHAPES))
def test_compose_rows_matches_bitwise_on_nested_shapes(rng, n, shape):
    rows = nested_shape(rng, n, shape)
    table = image_table(rng, n)
    assert compose_rows(rows, table) == compose_rows_bitwise(rows, table)


@settings(max_examples=30)
@given(seeded(), st.integers(1, 300), st.sampled_from(NESTED_SHAPES),
       st.sampled_from(NESTED_SHAPES))
def test_compose_matches_bitwise_at_scale(rng, n, shape_r, shape_s):
    carrier = discrete(f"e{i}" for i in range(n))
    r = Rel(carrier, nested_shape(rng, n, shape_r))
    s = Rel(carrier, nested_shape(rng, n, shape_s))
    assert compose(r, s).rows == compose_rows_bitwise(r.rows, s.rows)


@pytest.mark.parametrize("rows", [
    (0b110, 0b100, 0b000),
    (0b10, 0b00),
    (0b1110, 0b1100, 0b1000, 0b0000),
    (0b1111, 0b1100, 0b1000, 0b1000),
    (0b011, 0b110, 0b100),
])
def test_compose_rows_on_rows_that_are_not_reflexive(rows):
    # a jump to j settles bit j as well as row j, which need not hold it:
    # clearing row j alone would find bit j pending again and never stop
    n = len(rows)
    table = [1 << (2 * j) | 1 << (2 * j + 1) for j in range(n)]
    want = rows_of(oracle_compose(pair_set(rows), pair_set(table), n), n)
    assert compose_rows(rows, table) == want


def partial_table(rng, m, k):
    """m images into k values, drawn from a random non-empty subset of
    them, so a table often leaves values unhit."""
    hit = rng.sample(range(k), rng.randint(1, k))
    return [rng.choice(hit) for _ in range(m)]


# m against k: domains smaller and larger than the codomain
@settings(max_examples=200)
@given(seeded(), st.integers(1, 10), st.integers(1, 10),
       st.sampled_from(NESTED_SHAPES))
def test_pull_rows_matches_pair_sets(rng, m, k, shape):
    rows = nested_shape(rng, k, shape)
    images = partial_table(rng, m, k)
    pairs = pair_set(rows)
    want = {(x, y) for x in range(m) for y in range(m)
            if (images[x], images[y]) in pairs}
    assert pull_rows(rows, images) == rows_of(want, m)


@settings(max_examples=200)
@given(seeded(), st.integers(1, 10), st.integers(1, 10),
       st.sampled_from(NESTED_SHAPES))
def test_image_rows_matches_pair_sets(rng, m, k, shape):
    rows = nested_shape(rng, m, shape)
    images = partial_table(rng, m, k)
    want = {(images[x], images[y]) for x, y in pair_set(rows)}
    assert image_rows(rows, images, k) == rows_of(want, k)


# raw rows, reflexive or not: one composition does both Egli-Milner clauses
@settings(max_examples=200)
@given(seeded(), st.integers(1, 6))
def test_em_rows_match_the_converse_route_on_raw_rows(rng, n):
    r = Rel(discrete(tuple(f"x{i}" for i in range(n))), random_rows(rng, n))
    masks = range(1, 1 << n)
    assert _em_rows(r, masks) == em_rows_by_converse(r, masks)


@pytest.mark.parametrize("base", [discrete(tuple("abcdefghij")),
                                  chain(tuple("abcdefghij"))],
                         ids=["discrete", "chain"])
def test_em_rows_match_the_converse_route_on_plotkin_masks(base):
    masks = plotkin(base, cap=10).masks
    assert _em_rows(base, masks) == em_rows_by_converse(base, masks)


def up_sets(values):
    """Row p holds every q with values[q] >= values[p], one pass down the
    distinct values."""
    at = {}
    for p, v in enumerate(values):
        at.setdefault(v, []).append(p)
    out, acc = [0] * len(values), 0
    for v in sorted(at, reverse=True):
        for p in at[v]:
            acc |= 1 << p
        for p in at[v]:
            out[p] = acc
    return tuple(out)


def test_compose_rows_at_3000_points():
    # closed forms: a chain takes suffix ORs of the table, its strict
    # part the next one, an antichain the table itself
    n = 3000
    rng = random.Random(15)
    table = [rng.getrandbits(64) for _ in range(n)]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | table[i]
    line = up_sets(range(n))
    assert compose_rows(line, table) == tuple(suffix[:n])
    strict = tuple(row ^ (1 << i) for i, row in enumerate(line))
    assert compose_rows(strict, table) == tuple(suffix[1:])
    assert compose_rows([1 << i for i in range(n)], table) == tuple(table)
    # three classes in a chain and one beside them: four distinct rows,
    # so the bitwise definition is cheap on the rows of the classes
    labels = [rng.randrange(4) for _ in range(n)]
    masks = [sum(1 << i for i in range(n) if labels[i] == b)
             for b in range(4)]
    above = [masks[0] | masks[1] | masks[2], masks[1] | masks[2], masks[2],
             masks[3]]
    rows = [above[b] for b in labels]
    by_class = compose_rows_bitwise(above, table)
    assert compose_rows(rows, table) == tuple(by_class[b] for b in labels)


def test_compose_of_a_chain_order_with_itself_at_3000_points():
    c = chain(f"e{i}" for i in range(3000))
    assert compose(order_rel(c), order_rel(c)) == order_rel(c)


@AT_SCALE
@given(tables(), st.sampled_from(NESTED_SHAPES))
def test_pullback_of_nested_rows_matches_pairwise(inst, shape):
    rng, f = inst
    r = Rel(f.cod, nested_shape(rng, len(f.cod), shape))
    assert pullback(f, r) == pullback_pairwise(f, r)


def test_ordered_kernel_of_omega_at_3000_points():
    # S1 maps into the chain 0 < 1 < ... < ω, so x is below y exactly
    # when S1(x) is at most S1(y); the blocks are S1's fibres in order of
    # least member, and a block is below another when its image is.
    # Each step here once took k² bit steps, about 10 s together at this size
    n = 3000
    s1 = get_example("omega", n).functions["S1"]
    images = s1.images
    assert s1.cod.rows == up_sets(range(n + 1))
    q = ordered_kernel(s1)
    assert q == Rel(s1.dom, up_sets(images))
    fibre: dict[int, list[int]] = {}
    for x, v in enumerate(images):
        fibre.setdefault(v, []).append(x)
    members = sorted(fibre.values())
    op = to_ordered_partition(q)
    names = s1.dom.elements
    assert op.blocks == tuple(tuple(names[x] for x in xs) for xs in members)
    assert op.block_rows == up_sets([images[xs[0]] for xs in members])
    assert from_ordered_partition(op) == q
    assert format_relation(q) == " <= ".join(
        block_label(tuple(names[x] for x in fibre[v])) for v in sorted(fibre))


PREORDER_SHAPES = ("chain", "antichain", "one class", "equivalence",
                   "ranked", "large classes", "window dag", "preorder")


def preorder_shape(rng, n, shape):
    """Reflexive, transitive rows on n points: a chain and a window DAG
    (each point covers up to three of the next eight, closed), both
    relabelled at random; an antichain; one class of every point; a
    random equivalence; the "ranked" and "large classes" preorders of
    :func:`nested_shape`; or the closure of random pairs."""
    if shape == "chain":
        out, acc = [0] * n, 0
        for p in rng.sample(range(n), n):
            acc |= 1 << p
            out[p] = acc
        return tuple(out)
    if shape == "antichain":
        return tuple(1 << i for i in range(n))
    if shape == "one class":
        return ((1 << n) - 1,) * n
    if shape == "equivalence":
        labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        masks = fibres(labels, n)
        return tuple(masks[b] for b in labels)
    if shape == "window dag":
        perm = rng.sample(range(n), n)
        rows = [0] * n
        for i in range(n - 1):
            for j in rng.sample(range(i + 1, min(n, i + 9)),
                                min(3, n - 1 - i)):
                rows[perm[i]] |= 1 << perm[j]
        return tuple(close_rows(rows))
    if shape == "preorder":
        return random_preorder(rng, discrete(f"e{i}" for i in range(n))).rows
    return nested_shape(rng, n, shape)


def test_row_runs_group_equal_rows():
    assert row_runs((5, 3, 5, 0, 3, 5, 7)) == [[6], [0, 2, 5], [1, 4], [3]]
    # chain up-sets share 61 hash values in 3,000 rows; all are distinct
    line = up_sets(range(3000))
    assert row_runs(line) == [[i] for i in range(3000)]
    assert row_runs(line + line) == [[i, i + 3000] for i in range(3000)]


@settings(max_examples=100)
@given(seeded(), st.integers(1, 300),
       st.sampled_from(PREORDER_SHAPES + ("poset", "poset preorder")))
def test_preorder_cols_matches_pairwise(rng, n, shape):
    if shape == "poset":
        rows = random_poset(rng, n).rows
    elif shape == "poset preorder":
        rows = random_preorder(rng, random_poset(rng, n)).rows
    else:
        rows = preorder_shape(rng, n, shape)
    assert is_transitive_pairwise(rows)
    assert preorder_cols(rows) == transpose_pairwise(rows, n)


@AT_SCALE
@given(seeded(), st.integers(1, 3000), st.sampled_from(PREORDER_SHAPES))
def test_preorder_cols_matches_transpose(rng, n, shape):
    rows = preorder_shape(rng, n, shape)
    assert preorder_cols(rows) == transpose(rows, n)


@AT_SCALE
@given(seeded(), st.integers(1, 300), st.sampled_from(PREORDER_SHAPES))
def test_cols_of_preorders_and_posets_are_the_converse(rng, n, shape):
    carrier = discrete(f"e{i}" for i in range(n))
    rows = preorder_shape(rng, n, shape)
    q = Rel(carrier, rows)
    assert q.is_preorder
    assert q.cols == transpose_pairwise(rows, n)
    assert q.cols is q.cols
    if len(set(rows)) == n:
        # distinct rows of a preorder are a poset's order
        p = Poset(carrier.elements, rows)
        assert p.cols == q.cols
        assert p.cols is p.cols


def test_converses_at_3000_points():
    # closed forms: a chain's down-sets are prefixes, the compatible
    # extension of an order with a top relates everything, and a lifted
    # antichain's relates the bottom to all and each other point to the
    # bottom and itself.  Each converse here was an n² transpose
    n = 3000
    omega = get_example("omega", n)
    s1 = omega.functions["S1"]
    line = s1.cod
    assert line.cols == tuple((1 << (i + 1)) - 1 for i in range(n + 1))
    assert compatible_extension(order_rel(line)) == all_rel(line)
    assert compatible_extension(all_rel(s1.dom)) == all_rel(s1.dom)
    assert ti_flow_check(s1, all_rel(s1.dom), order_rel(line)) is None
    # S1 is injective, so its kernel relates each point to itself alone
    # and the identity is its own compatible extension
    assert compatible_extension(kernel(s1)) == identity_rel(s1.dom)
    fan = lift(discrete(str(i) for i in range(n - 1)))
    full = (1 << n) - 1
    assert fan.cols == (1,) + tuple(1 | 1 << i for i in range(1, n))
    assert compatible_extension(order_rel(fan)).rows == \
        (full,) + tuple(1 | 1 << i for i in range(1, n))


TOPPED_SHAPES = ("top class", "shared tops", "flow")


def topped_shape(rng, n, shape):
    """Reflexive, transitive rows on n points, relabelled at random: a
    window DAG under one class of two to five points ("top class"), or
    under two to five single tops that each DAG point reaches in a
    random subset, all of them half the time ("shared tops"); the shape
    of the flow benchmark's complete preorders, each point covering up
    to two of the next six, with n // 10 extra pairs at most five apart
    ("flow"); or a shape of :func:`preorder_shape`."""
    if shape not in TOPPED_SHAPES:
        return preorder_shape(rng, n, shape)
    rows = [0] * n
    if shape == "flow":
        for i in range(n - 1):
            for j in rng.sample(range(i + 1, min(n, i + 7)),
                                min(2, n - 1 - i)):
                rows[i] |= 1 << j
        for _ in range(n // 10):
            i = rng.randrange(n)
            rows[i] |= 1 << rng.randrange(max(0, i - 5), min(n, i + 6))
    else:
        crown = min(n, rng.randint(2, 5))
        base = n - crown
        for i in range(base - 1):
            for j in rng.sample(range(i + 1, min(base, i + 9)),
                                min(3, base - 1 - i)):
                rows[i] |= 1 << j
        tops = (1 << n) - (1 << base)
        for i in range(base):
            if shape == "top class":
                rows[i] |= 1 << rng.randrange(base, n)
            else:
                rows[i] |= tops if rng.random() < 0.5 else \
                    rng.getrandbits(n) & tops
        if shape == "top class":
            # a cycle through the crown makes it one class
            for t in range(base, n):
                rows[t] |= 1 << (t + 1 if t + 1 < n else base)
    perm = rng.sample(range(n), n)
    return tuple(relabel(close_rows(rows), perm))


def check_quotient_readers(q: Rel) -> None:
    """The compatible extension and ``er`` of the preorder q against the
    definitions they replace, with no converse of q taken."""
    ext, eq = compatible_extension(q), er(q)
    assert "cols" not in vars(q)
    assert ext == compatible_extension_pairwise(q)
    assert ext == compatible_extension_by_converse(q)
    assert eq == intersect(q, invert(q))


def check_ti_flow_reads_no_converse(pre: Rel, post: Rel) -> None:
    """The TI check of the identity table between two complete preorders
    of one carrier against the pair-set flow check of their pairwise
    compatible extensions, with no converse of either side taken."""
    f = identity_fn(pre.carrier)
    got = ti_flow_check(f, pre, post)
    assert "cols" not in vars(pre) and "cols" not in vars(post)
    assert got == flow_check_pairwise(f, compatible_extension_pairwise(pre),
                                      compatible_extension_pairwise(post))


@given(seeded(), redeclared_posets(max_size=6))
def test_quotient_readers_match_their_definitions(rng, p):
    for _ in range(4):
        check_quotient_readers(random_preorder(rng, p))
    complete = [close(union(random_preorder(rng, p), order_rel(p)),
                      "refl_trans") for _ in range(2)]
    check_ti_flow_reads_no_converse(*complete)


@settings(max_examples=30, deadline=None)
@given(seeded(), st.sampled_from(PREORDER_SHAPES + TOPPED_SHAPES),
       st.sampled_from(PREORDER_SHAPES + TOPPED_SHAPES))
def test_quotient_readers_match_their_definitions_at_400_points(
        rng, shape, other):
    # over a discrete carrier, every preorder is complete
    carrier = discrete(f"e{i}" for i in range(400))
    q = Rel(carrier, topped_shape(rng, 400, shape))
    check_quotient_readers(q)
    check_ti_flow_reads_no_converse(
        Rel(carrier, topped_shape(rng, 400, shape)),
        Rel(carrier, topped_shape(rng, 400, other)))


@pytest.mark.parametrize("shape", ["antichain", "equivalence", "ranked",
                                   "large classes", "window dag",
                                   "preorder", *TOPPED_SHAPES])
def test_compatible_rows_group_points_by_the_tops_above_them(
        monkeypatch, shape):
    """Points are grouped by the set of top blocks above their block, a
    top being a block with no other block above it, so no row is built
    from a block that is not maximal; with one top nothing is grouped,
    and every row is full."""
    rng = random.Random(shape)
    keys = []
    monkeypatch.setattr(poset_module, "row_runs",
                        lambda rows: keys.append(list(rows)) or row_runs(rows))
    for n in (1, 2, 3, 7, 60):
        rows = topped_shape(rng, n, shape)
        labels, _, block = preorder_quotient(rows)
        keys.clear()
        got = compatible_rows(labels, block)
        assert got == compatible_extension_pairwise(
            Rel(discrete(f"e{i}" for i in range(n)), rows)).rows
        k = len(block)
        tops = sum(1 << b for b in range(k)
                   if not any((block[b] >> c) & 1
                              for c in range(k) if c != b))
        if tops.bit_count() == 1:
            assert keys == [] and got == ((1 << n) - 1,) * n
        else:
            assert keys == [[block[b] & tops for b in labels]]


def test_preorder_from_blocks_rejects_unknown_indices():
    # checked before closing: close_rows needs every bit to index a row
    for cover in [(0, 5), (5, 0), (-1, 0), (0, -1)]:
        with pytest.raises(ValidationError,
                           match="order row mentions an unknown index"):
            preorder_from_blocks(CHAIN3, [["0"], ["1"], ["2"]], [cover])


@settings(max_examples=200)
@given(seeded(), st.integers(1, 9), st.booleans(), st.integers(0, 3))
def test_rows_transitive_matches_pairwise(rng, n, closed, flips):
    rows = tuple(row | 1 << i for i, row in enumerate(random_rows(rng, n)))
    if closed:
        rows = tuple(close_rows_warshall(rows))
    rows = flip_bits(rng, rows, flips)
    assert rows_transitive(rows) == is_transitive_pairwise(rows)


def quotient_pairwise(rows):
    """None unless the rows are reflexive and transitive pair by pair;
    else each index's mutual class, the classes as
    :func:`mutual_classes_pairwise` orders them, and the order the rows
    induce on the classes."""
    n = len(rows)
    if not (all((rows[i] >> i) & 1 for i in range(n))
            and is_transitive_pairwise(rows)):
        return None
    q = Rel(discrete(str(i) for i in range(n)), rows)
    classes = tuple(tuple(map(int, c)) for c in mutual_classes_pairwise(q))
    labels = {m: b for b, c in enumerate(classes) for m in c}
    return (tuple(labels[i] for i in range(n)), classes,
            tuple(sum(1 << b for b, d in enumerate(classes)
                      if (q.rows[c[0]] >> d[0]) & 1) for c in classes))


@pytest.mark.parametrize("rows,want", [
    ((0b1,), ((0,), ((0,),), (0b1,))),
    ((0b11, 0b11), ((0, 0), ((0, 1),), (0b1,))),
    # the class of 1 has a smaller row than the class of 0, and 0 jumps
    # to it
    ((0b11, 0b10), ((0, 1), ((0,), (1,)), (0b11, 0b10))),
    ((0b111, 0b110, 0b110), ((0, 1, 1), ((0,), (1, 2)), (0b11, 0b10))),
    # transitive, not reflexive
    ((0b10, 0b10), None),
    ((0b0, 0b11), None),
    ((0b110, 0b010, 0b110), None),
    # reflexive, not transitive: the path 0 -> 1 -> 2
    ((0b011, 0b110, 0b100), None),
])
def test_preorder_quotient_of_fixed_rows(rows, want):
    assert preorder_quotient(rows) == want == quotient_pairwise(rows)


QUOTIENT_SHAPES = ("raw", "reflexive raw", "closure", "flipped closure",
                   "strict", "duplicated")


@settings(max_examples=300)
@given(seeded(), st.integers(1, 40),
       st.sampled_from(QUOTIENT_SHAPES + PREORDER_SHAPES + NESTED_SHAPES))
def test_preorder_quotient_matches_pairwise(rng, n, shape):
    if shape in PREORDER_SHAPES:
        rows = preorder_shape(rng, n, shape)
    elif shape in NESTED_SHAPES:
        rows = nested_shape(rng, n, shape)
    else:
        rows = random_rows(rng, n)
        if shape != "raw":
            rows = tuple(row | 1 << i for i, row in enumerate(rows))
        if shape not in ("raw", "reflexive raw"):
            rows = tuple(close_rows_warshall(rows))
        if shape == "flipped closure":
            rows = flip_bits(rng, rows, rng.randint(1, 3))
        elif shape in ("strict", "duplicated"):
            # duplicated: the square rows of line + line, whose second
            # copy holds none of its own indices
            rows = tuple(row ^ (rng.random() < 0.3) << i
                         for i, row in enumerate(rows)) \
                if shape == "strict" else rows + rows
    assert preorder_quotient(rows) == quotient_pairwise(rows)


def value_quotient(values):
    """The quotient of ``up_sets(values)``: a class per value, ordered
    by value, in closed form."""
    fibre = {}
    for p, v in enumerate(values):
        fibre.setdefault(v, []).append(p)
    classes = tuple(sorted(map(tuple, fibre.values())))
    labels = [0] * len(values)
    for b, c in enumerate(classes):
        for p in c:
            labels[p] = b
    return (tuple(labels), classes,
            up_sets([values[c[0]] for c in classes]))


def test_preorder_quotient_at_3000_points():
    # a chain, a chain of two-point classes, the ordered kernel of
    # omega's S1, and line + line, whose second copy is not reflexive
    n = 3000
    images = get_example("omega", n).functions["S1"].images
    rng = random.Random(33)
    shuffled = rng.sample(range(n), n)
    for values in (range(n), [*range(n // 2)] * 2, images, shuffled):
        assert preorder_quotient(up_sets(values)) == value_quotient(values)
    line = up_sets(range(n))
    assert preorder_quotient(line + line) is None


@settings(max_examples=300)
@given(seeded(), st.integers(1, 20))
def test_matrix_key_orders_as_bit_tuple(rng, n):
    # any rows of n bits, not only the relations a search reaches, against
    # a random second matrix, the first with one bit flipped (so the two
    # first differ anywhere in row-major order) and the first itself
    carrier = discrete(tuple(f"e{i}" for i in range(n)))
    a = Rel(carrier, random_rows(rng, n))
    flipped = list(a.rows)
    flipped[rng.randrange(n)] ^= 1 << rng.randrange(n)
    for rows in (random_rows(rng, n), tuple(flipped), a.rows):
        b = Rel(carrier, rows)
        assert (_matrix_key(a.rows) < _matrix_key(b.rows)) == \
            (a.bit_tuple() < b.bit_tuple())
        assert (_matrix_key(a.rows) == _matrix_key(b.rows)) == (a == b)


def raised(build):
    """Type, message and pair of the error ``build()`` raises, if any."""
    try:
        build()
    except ValidationError as err:
        return type(err), str(err), getattr(err, "pair", None)
    return None


@settings(max_examples=60)
@given(seeded(), st.integers(1, 120),
       st.sampled_from(("valid", "irreflexive", "intransitive", "cycle",
                        "back edge", "unknown index", "flipped")))
def test_broken_poset_rows_raise_as_pairwise(rng, n, shape):
    names = tuple(f"e{i}" for i in range(n))
    rows = [row | 1 << i for i, row in
            enumerate(close_rows_warshall(dag_rows(rng, n)))]
    i = rng.randrange(n)
    if shape == "irreflexive":
        rows[i] ^= 1 << i
    elif shape == "intransitive":
        # drop the top of a two-step path from its bottom's row
        for a in rng.sample(range(n), n):
            above = [k for k in bits(rows[a]) if k != a
                     and rows[k] != 1 << k]
            if above:
                mid = rng.choice(above)
                top = rng.choice([k for k in bits(rows[mid]) if k != mid])
                rows[a] &= ~(1 << top)
                break
    elif shape == "cycle":
        j = rng.randrange(n)
        rows[j] |= rows[i]
        rows[i] |= rows[j]
        if rng.random() < 0.5:
            rows = close_rows_warshall(rows)
    elif shape == "back edge":
        # i below j and now j below i: the row-major scan meets the pair
        # as a cycle from i's row, or from j's row where it also breaks
        # transitivity first
        above = [j for j in bits(rows[i]) if j != i]
        if above:
            rows[rng.choice(above)] |= 1 << i
    elif shape == "unknown index":
        rows[i] |= 1 << (n + rng.randrange(3))
    elif shape == "flipped":
        rows = list(flip_bits(rng, rows, rng.randint(1, 3)))
    rows = tuple(rows)
    want = raised(lambda: poset_checks_pairwise(names, rows))
    assert raised(lambda: Poset(names, rows)) == want
    if shape in ("valid", "irreflexive", "unknown index"):
        assert (want is None) == (shape == "valid")


COVER_SHAPES = ("dag", "chain", "antichain", "product", "lift",
                "dense ranked")


def cover_shape(rng, n, shape):
    """A poset on at most n points: the closure of a random acyclic
    relation, a chain relabelled at random, an antichain, a product of
    two random posets, one of these shapes with a bottom added, or
    points of random ranks, each below every point of a higher rank."""
    names = tuple(f"e{i}" for i in range(n))
    if shape == "dag":
        return Poset(names, tuple(close_rows_warshall(dag_rows(rng, n))))
    if shape == "chain":
        perm = list(range(n))
        rng.shuffle(perm)
        return Poset(names, tuple(relabel(up_sets(range(n)), perm)))
    if shape == "antichain":
        return discrete(names)
    if shape == "product":
        a = rng.randint(1, n)
        return product(random_poset(rng, a), random_poset(rng, n // a))
    if shape == "lift":
        if n == 1:
            return discrete(names)
        return lift(cover_shape(rng, n - 1, rng.choice(COVER_SHAPES)))
    k = rng.randint(1, n)
    ranks = [rng.randrange(k) for _ in range(n)]
    level = fibres(ranks, k)
    return Poset(names, tuple(row & ~level[rank] | 1 << i for i, (rank, row)
                              in enumerate(zip(ranks, up_sets(ranks)))))


@settings(max_examples=100)
@given(seeded(), st.integers(1, 300), st.sampled_from(COVER_SHAPES))
def test_covers_match_pairwise(rng, n, shape):
    carrier = cover_shape(rng, n, shape)
    assert carrier.covers() == covers_pairwise(carrier)


@pytest.mark.parametrize("base", FAMILY, ids=repr)
def test_covers_of_powerdomains_match_pairwise(base):
    carrier = plotkin(base)
    assert carrier.covers() == covers_pairwise(carrier)


def test_covers_at_3000_points():
    # covers_pairwise takes a step per related pair, so these shapes have
    # few: a bottom under an antichain, a short chain times an antichain,
    # and a random tree, each point above a random earlier one
    n = 3000
    rng = random.Random(16)
    names = tuple(f"e{i}" for i in range(n))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [0] * n
    for k in range(1, n):
        edges[perm[rng.randrange(k)]] |= 1 << perm[k]
    tree = Poset(names, tuple(close_rows(edges)))
    for carrier in (lift(discrete(names[1:])),
                    product(CHAIN3, discrete(names[:n // 3])), tree):
        assert carrier.covers() == covers_pairwise(carrier)
    assert tree.covers() == [(i, j) for i, row in enumerate(edges)
                             for j in bits(row)]


@pytest.mark.parametrize("rows,error,message,pair", [
    ((0b011, 0b111, 0b100), ValidationError, "order not transitive at 'e0'",
     None),
    ((0b111, 0b011, 0b100), OrderCycleError,
     "antisymmetry violated: 'e0' and 'e1' are below each other",
     ("e0", "e1")),
    ((0b001, 0b110, 0b110), OrderCycleError,
     "antisymmetry violated: 'e1' and 'e2' are below each other",
     ("e1", "e2")),
])
def test_poset_names_the_first_failing_pair(rows, error, message, pair):
    # in the first case the first pair (0, 1) both breaks transitivity
    # and closes a cycle, and transitivity is tested first
    names = ("e0", "e1", "e2")
    assert raised(lambda: Poset(names, rows)) == (error, message, pair)
    assert raised(lambda: poset_checks_pairwise(names, rows)) == \
        (error, message, pair)


@AT_SCALE
@given(scale_posets())
def test_ordered_partition_block_rows(inst):
    rng, carrier = inst
    q = random_preorder(rng, carrier)
    op = to_ordered_partition(q)
    assert op.blocks == mutual_classes_pairwise(q)
    reps = [carrier.index(block[0]) for block in op.blocks]
    for b1, r1 in enumerate(reps):
        want = sum(1 << b2 for b2, r2 in enumerate(reps)
                   if (q.rows[r1] >> r2) & 1)
        assert op.block_rows[b1] == want
    assert from_ordered_partition(op) == q


def ranked_preorder(rng, carrier, ties):
    """Blocks of a random equivalence, each given a rank; block b is
    below block c when b's rank is lower.  Without ties the blocks form
    a chain; with ties, blocks of equal rank are incomparable."""
    n = len(carrier)
    k = rng.randint(1, n)
    labels = [rng.randrange(k) for _ in range(n)]
    ranks = [rng.randrange(max(1, k // 2)) if ties else b for b in range(k)]
    if not ties:
        rng.shuffle(ranks)
    return Rel(carrier, tuple(
        sum(1 << j for j in range(n) if labels[i] == labels[j]
            or ranks[labels[i]] < ranks[labels[j]])
        for i in range(n)))


@settings(max_examples=200)
@given(seeded(), st.integers(1, 40),
       st.sampled_from(("preorder", "equivalence", "chain", "ranked")))
def test_format_relation_finds_chains_as_pairwise(rng, n, shape):
    carrier = random_poset(rng, n)
    if shape == "preorder":
        q = random_preorder(rng, carrier)
    elif shape == "equivalence":
        q = random_equivalence(rng, carrier)
    else:
        q = ranked_preorder(rng, carrier, ties=shape == "ranked")
    op = to_ordered_partition(q)
    labels = [block_label(b) for b in op.blocks]
    k = len(labels)
    text = format_relation(q)
    if all(op.block_rows[b] == 1 << b for b in range(k)):
        assert text == " ".join(labels)
    elif is_chain_pairwise(op.block_rows):
        by_height = sorted(range(k), key=lambda b: -op.block_rows[b].bit_count())
        assert text == " <= ".join(labels[b] for b in by_height)
    else:
        assert text.startswith(" ".join(labels) + " ord: ")
    if shape == "chain":
        assert is_chain_pairwise(op.block_rows)


def assert_formats_as_the_partition_route(r):
    assert format_relation(r) == format_relation_via_partition(r)
    if r.is_preorder:
        op = to_ordered_partition(r)
        assert row_covers(op.block_rows) == covers_pairwise(op.order)


@pytest.mark.parametrize("carrier", FAMILY, ids=repr)
def test_format_relation_matches_the_partition_route_on_lattices(carrier):
    for r in enumerate_loci(carrier) + enumerate_loi(carrier):
        assert_formats_as_the_partition_route(r)


@settings(max_examples=200)
@given(seeded(), st.integers(1, 60))
def test_format_relation_matches_the_partition_route(rng, n):
    # besides a preorder and raw rows, rows one step from a preorder:
    # reflexive but not transitive, or transitive with a diagonal bit
    # dropped
    carrier = random_poset(rng, n)
    q = random_preorder(rng, carrier)
    for rows in (q.rows, random_rows(rng, n), flip_bits(rng, q.rows, 1),
                 nested_shape(rng, n, "strict")):
        r = Rel(carrier, rows)
        assert_formats_as_the_partition_route(r)
        assert format_relation(r).startswith("pairs: ") != r.is_preorder


@AT_SCALE
@given(scale_posets())
def test_emit_dot_full_matches_pairwise(inst):
    rng, carrier = inst
    op = to_ordered_partition(random_preorder(rng, carrier))
    for labels, rows, skeleton in (
            (carrier.elements, carrier.rows, carrier),
            ([block_label(b) for b in op.blocks], op.block_rows, op.order)):
        edges = sorted(f"  {_quote(labels[i])} -> {_quote(labels[j])};"
                       for i, j in strict_pairs_pairwise(skeleton))
        nodes = [f"  {_quote(label)};" for label in labels]
        assert emit_dot(labels, rows, full=True).splitlines() == \
            ["digraph {", *nodes, *edges, "}"]


def monotone_table(rng, dom):
    """A monotone table on dom: the quotient map of a complete preorder
    into its blocks, a constant, or the height of each point in a chain."""
    kind = rng.randrange(3)
    if kind == 0:
        return quotient_map(close(union(random_preorder(rng, dom),
                                        order_rel(dom)), "refl_trans"))
    n = len(dom)
    if kind == 1:
        cod = random_poset(rng, rng.randint(1, n))
        return FnTable(dom, cod, (rng.randrange(len(cod)),) * n)
    # the number of points below i rises along the order
    heights = [col.bit_count() - 1 for col in dom.cols]
    cod = chain([f"h{h}" for h in range(n)])
    return FnTable(dom, cod, tuple(heights))


def break_pairs(rng, f, k):
    """f with the image of a point above some i moved, k times, to a
    codomain value not above f(i), where one exists."""
    images = list(f.images)
    n, m = len(f.dom), len(f.cod)
    for _ in range(k):
        i = rng.randrange(n)
        above = [j for j in bits(f.dom.rows[i]) if j != i]
        off = [v for v in range(m) if not f.cod.leq_idx(images[i], v)]
        if above and off:
            images[rng.choice(above)] = rng.choice(off)
    return FnTable(f.dom, f.cod, tuple(images))


@settings(max_examples=200)
@given(seeded(), st.integers(1, 60), st.integers(0, 3))
def test_monotone_witness_matches_pairwise(rng, n, breaks):
    # relabelled, so index order need not extend the order
    dom = Poset(tuple(f"e{i}" for i in range(n)),
                tuple(close_rows_warshall(dag_rows(rng, n))))
    f = monotone_table(rng, dom)
    assert monotone_witness_pairwise(f) is None
    f = break_pairs(rng, f, breaks)
    want = monotone_witness_pairwise(f)
    assert f.monotone_witness() == want
    assert f.is_monotone == (want is None)
    # monotonicity is the flow judgement from the order to the order
    flow = flow_check(f, order_rel(f.dom), order_rel(f.cod))
    assert (flow is None) == (want is None)
    assert flow is None or (flow.a, flow.a_prime) == want
    if want is None:
        assert check_monotone(f.dom, f.cod, f.mapping()) == f
        return
    x, y = want
    with pytest.raises(NotMonotoneError) as exc:
        check_monotone(f.dom, f.cod, f.mapping())
    assert str(exc.value) == \
        f"not monotone: {x!r} <= {y!r} but {f(x)!r} is not below {f(y)!r}"
    assert exc.value.witness == want


def block_masks(carrier, blocks):
    return [sum(1 << carrier.index(x) for x in block) for block in blocks]


def assert_simple_cycle(blocks, cycle_blocks, steps):
    """The cycle passes at least two blocks, each once, and steps from
    each block to the next and from the last back to the first."""
    cycle = [blocks.index(b) for b in cycle_blocks]
    assert len(cycle) >= 2 and len(set(cycle)) == len(cycle)
    for b1, b2 in zip(cycle, cycle[1:] + cycle[:1]):
        assert (steps[b1] >> b2) & 1


def first_block_on_a_cycle(steps):
    """The first block b1, in index order, whose Warshall-closed row
    holds a block b2 != b1 that reaches back to b1."""
    closed = close_rows_warshall(steps)
    return next((b1 for b1, row in enumerate(closed)
                 if any(b2 != b1 and (closed[b2] >> b1) & 1
                        for b2 in bits(row))), None)


@AT_SCALE
@given(scale_posets())
def test_block_steps_and_realisability_witnesses(inst):
    rng, carrier = inst
    raw = random_equivalence(rng, carrier)
    # er(cp(r)) is always realisable, so both outcomes are exercised
    for r in (raw, er(cp(raw))):
        blocks = mutual_classes_pairwise(r)
        masks = block_masks(carrier, blocks)
        index = [0] * len(carrier)
        for b, mask in enumerate(masks):
            for x in range(len(carrier)):
                if (mask >> x) & 1:
                    index[x] = b
        steps = block_steps_pairwise(carrier, masks)
        labels, classes, _ = r._quotient
        assert labels == tuple(index)
        assert classes == tuple(tuple(bits(mask)) for mask in masks)
        assert image_rows(carrier.rows, labels, len(classes)) == tuple(steps)
        result = phi_realisability(r)
        start = first_block_on_a_cycle(steps)
        assert result.realisable == (start is None)
        if result.realisable:
            # a hashable witness: its images are the reader's tuple
            assert type(result.witness_fn.images) is tuple
            assert hash(result.witness_fn) == hash(quotient_map(cp(r)))
            assert result.witness_poset.elements == \
                tuple("+".join(b) for b in blocks)
            assert kernel(result.witness_fn) == r
            assert result.witness_fn.is_monotone
            # the same codomain elements and rows, and the same images
            assert result.witness_fn == quotient_map(cp(r))
        else:
            assert result.cycle[0] == blocks[start]
            assert_simple_cycle(blocks, result.cycle, steps)
    assert phi_realisability(er(cp(raw))).realisable


def classes_pairwise(rows):
    """Each index's class by least member and each class's members, read
    off the pairwise classes of mutually related indices; None unless
    the rows are an equivalence by the pair-set definition."""
    if not is_equivalence_pairwise(rows):
        return None
    n = len(rows)
    carrier = discrete(tuple(f"e{i}" for i in range(n)))
    classes = tuple(tuple(map(carrier.index, block)) for block in
                    mutual_classes_pairwise(Rel(carrier, tuple(rows))))
    labels = [0] * n
    for b, members in enumerate(classes):
        for m in members:
            labels[m] = b
    return tuple(labels), classes


def with_bit_flipped(rows, i, j):
    out = list(rows)
    out[i] ^= 1 << j
    return tuple(out)


@given(seeded(), st.integers(1, 9))
def test_equivalence_classes_match_pairwise(rng, n):
    carrier = discrete(tuple(f"e{i}" for i in range(n)))
    identity = tuple(1 << i for i in range(n))
    full = ((1 << n) - 1,) * n
    eq = random_equivalence(rng, carrier).rows
    # a chain's order, a preorder and (past one point) no equivalence:
    # the discrete-block test refuses it, not the preorder check
    order = chain(carrier.elements).rows
    assert Rel(carrier, order).is_preorder
    x = rng.randrange(n)
    cases = [random_rows(rng, n), eq, identity, full, order,
             *(with_bit_flipped(rows, x, x) for rows in (eq, identity, full))]
    for rows in cases:
        expected = classes_pairwise(rows)
        r = Rel(carrier, rows)
        assert r.is_equivalence == (expected is not None)
        if expected is not None:
            assert r._quotient[:2] == expected


@pytest.mark.parametrize("rows", [
    # each row's least member is its own index, so a reader that checks
    # only that accepts it; but row 0 holds 1, whose row is smaller
    (0b11, 0b10),
    # row 1 holds 0, whose row lacks 1
    (0b01, 0b11),
    # the rows of 1 and 2 overlap and differ
    (0b011, 0b011, 0b110),
    # row 2 lacks its own index
    (0b101, 0b010, 0b001)])
def test_equivalence_classes_refuse_near_misses(rows):
    assert not is_equivalence_pairwise(rows)
    carrier = discrete(tuple(f"e{i}" for i in range(len(rows))))
    assert not Rel(carrier, rows).is_equivalence


@pytest.mark.parametrize("k", [3000, 1, 60], ids=["identity", "one-class",
                                                  "60-classes"])
def test_equivalence_classes_at_3000_points(k):
    n = 3000
    masks = [0] * k
    for i in range(n):
        masks[i % k] |= 1 << i
    rows = tuple(masks[i % k] for i in range(n))
    carrier = discrete(tuple(f"e{i}" for i in range(n)))
    r = Rel(carrier, rows)
    assert r.is_equivalence
    assert r._quotient[:2] == (
        tuple(i % k for i in range(n)),
        tuple(tuple(range(b, n, k)) for b in range(k)))
    for i, j in ((n - 1, n - 1), (0, n - 1)):
        assert not Rel(carrier, with_bit_flipped(rows, i, j)).is_equivalence


def test_one_reading_of_classes_per_relation(monkeypatch):
    """The preorder and equivalence checks, the φ test,
    ``is_realisable``, ``er`` and the ordered partition share one reading
    of a relation's classes."""
    calls = []

    def counted(rows):
        calls.append(rows)
        return preorder_quotient(rows)

    monkeypatch.setattr("infolat.relation.preorder_quotient", counted)
    carrier = get_example("V").posets["V"]
    for blocks in ([["⊥"], ["c"], ["a", "b"]], [["⊥", "a"], ["c"], ["b"]]):
        r = preorder_from_blocks(carrier, blocks, ())
        calls.clear()
        assert r.is_preorder and r.is_equivalence
        phi_realisability(r)
        is_realisable(r)
        assert er(r) == r
        to_ordered_partition(r)
        assert calls == [r.rows]


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


def test_order_kernels_at_3000_points(capsys):
    # each step here was quadratic in per-pair Python steps, together
    # well over ten seconds at this size
    names = tuple(str(i) for i in range(3000))
    line = chain(names)
    assert line.rows == tuple((1 << 3000) - (1 << i) for i in range(3000))
    assert line.covers() == [(i, i + 1) for i in range(2999)]
    assert order_rel(line).is_transitive
    flat = discrete(names)
    assert flat.rows == tuple(1 << i for i in range(3000))
    assert flat.covers() == []
    cycle = Rel(flat, tuple(1 << ((i + 1) % 3000) for i in range(3000)))
    assert close(cycle, "refl_trans") == all_rel(flat)
    path = Rel(flat, tuple(1 << (i + 1) for i in range(2999)) + (0,))
    assert close(path, "equivalence") == all_rel(flat)
    assert cli.run(["check", "--example", "omega", "--n", "3000", "--fn", "S1",
                    "--pre", "All", "--post", "order", "--ti"]) == 0
    assert capsys.readouterr().out == "HOLDS\n"
