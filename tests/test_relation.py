"""Relations as bit matrices: algebra, closures, ordered partitions."""

import pytest
from hypothesis import given, strategies as st

from infolat import (OrderCycleError, OrderedPartition, Poset, Rel,
                     ValidationError, all_rel, block_label, build_poset,
                     check_monotone, close, compose, discrete, enumerate_loci,
                     format_relation, from_ordered_partition, identity_rel,
                     intersect, invert, order_rel, rel_from_pairs,
                     restrict_rel, to_ordered_partition, union)
from infolat.poset import bits
from infolat.relation import equivalence_from_blocks, preorder_from_blocks
from helpers import (CHAIN3, CHAIN4, VEE, idx_pairs,
                     is_equivalence_pairwise, oracle_close, oracle_compose,
                     outside_carrier, poset_checks_pairwise, preorders,
                     random_equivalence, random_poset, random_rows,
                     rel_of_pairs, seeded)

pair_lists = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                      max_size=10)


def test_from_pairs_and_holds():
    r = rel_from_pairs(VEE, [("a", "b"), ("b", "⊥")])
    assert r.holds("a", "b") and r.holds("b", "⊥")
    assert not r.holds("b", "a")
    # exactly the given pairs, row-major
    assert list(r.pairs()) == [("a", "b"), ("b", "⊥")]


def test_from_pairs_unknown_name():
    with pytest.raises(ValidationError):
        rel_from_pairs(VEE, [("a", "nope")])


def test_first_unknown_name_is_reported():
    # pairs in order, each read left to right
    with pytest.raises(ValidationError) as exc:
        rel_from_pairs(VEE, [("a", "zz"), ("yy", "a")])
    assert str(exc.value) == "unknown element 'zz'"
    with pytest.raises(ValidationError) as exc:
        rel_from_pairs(VEE, [("yy", "zz")])
    assert str(exc.value) == "unknown element 'yy'"
    # images in the domain's element order, not the table's
    with pytest.raises(ValidationError) as exc:
        check_monotone(VEE, CHAIN3, {"b": "zz", "⊥": "0", "c": "q", "a": "1"})
    assert str(exc.value) == "unknown element 'q'"


def test_builtin_shapes():
    assert len(idx_pairs(identity_rel(VEE))) == 4
    assert len(idx_pairs(all_rel(VEE))) == 16
    assert len(idx_pairs(order_rel(VEE))) == 9


UNKNOWN_INDEX = "relation row mentions an unknown index"
WRONG_SIZE = "relation matrix does not match carrier size"


def test_matrix_shape_validated():
    for rows, message in [
        ((0, 0, 0), WRONG_SIZE),
        ((0, 0, 0, 0, 0), WRONG_SIZE),
        ((-1, 1 << 9), WRONG_SIZE),  # the size is checked before any row
        ((1 << 4, 0, 0, 0), UNKNOWN_INDEX),  # bit beyond the carrier
        ((1, -1, 4, 8), UNKNOWN_INDEX),
        ((-16, 2, 4, 8), UNKNOWN_INDEX),  # negative, no bit inside the carrier
        ((1, 2, 1 << 200 | 4, 8), UNKNOWN_INDEX),
    ]:
        with pytest.raises(ValidationError) as exc:
            Rel(VEE, rows)
        assert str(exc.value) == message


def raised(call):
    """The type and text of what ``call`` raises, or None."""
    try:
        call()
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


class TestValidation:
    def test_post_init_sees_every_rel_once(self, monkeypatch):
        """``Rel.__post_init__`` is the one validation hook, looked up on
        the class at each construction, so a wrapper put there (as the
        benchmark's tracer does) counts every Rel built."""
        calls = []
        hook = Rel.__post_init__

        def counted(self):
            calls.append(self.rows)
            hook(self)

        monkeypatch.setattr(Rel, "__post_init__", counted)
        Rel(VEE, (1, 2, 4, 8))
        assert calls == [(1, 2, 4, 8)]
        calls.clear()
        assert len(enumerate_loci(discrete(("p", "q", "r", "s")))) == 355
        assert len(calls) == 355

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.one_of(st.integers(-3, 1 << n + 1), st.integers()),
        min_size=n, max_size=n)))
    def test_range_checks_match_the_mask_oracle(self, rows):
        n = len(rows)
        names = tuple(f"e{i}" for i in range(n))
        want = (ValidationError, UNKNOWN_INDEX) \
            if any(outside_carrier(row, n) for row in rows) else None
        assert raised(lambda: Rel(discrete(names), tuple(rows))) == want
        # each row's own bit set, so no row fails reflexivity: the range
        # test speaks first, then the order checks
        reflexive = tuple(row | 1 << i for i, row in enumerate(rows))
        assert raised(lambda: Poset(names, reflexive)) == \
            raised(lambda: poset_checks_pairwise(names, reflexive))


def with_pair(rows, i, j):
    out = list(rows)
    out[i] ^= 1 << j
    return tuple(out)


@given(seeded(), st.integers(1, 8))
def test_is_equivalence_matches_pair_sets(rng, n):
    carrier = discrete(tuple(f"e{i}" for i in range(n)))
    eq = random_equivalence(rng, carrier).rows
    held = [(i, j) for i in range(n) for j in bits(eq[i])]
    free = [(i, j) for i in range(n) for j in range(n) if (i, j) not in held]
    # near misses: one pair removed, or one added
    misses = [with_pair(eq, *rng.choice(pairs)) for pairs in (held, free)
              if pairs]
    assert is_equivalence_pairwise(eq)
    assert not any(map(is_equivalence_pairwise, misses))
    cases = [random_rows(rng, n), eq, (0,) * n, *misses]
    if free:
        # a pair added both ways: an equivalence again when it joins two
        # one-point classes
        i, j = rng.choice(free)
        cases.append(with_pair(with_pair(eq, i, j), j, i))
    for rows in cases:
        r = Rel(carrier, rows)
        assert r.is_equivalence == is_equivalence_pairwise(rows)
        assert r.is_equivalence == (r.is_preorder and r.cols == r.rows)


def test_is_equivalence_on_one_point():
    one = discrete(("x",))
    assert Rel(one, (1,)).is_equivalence
    assert not Rel(one, (0,)).is_equivalence


@given(pair_lists)
def test_equivalence_closure_matches_oracle(pairs):
    got = idx_pairs(close(rel_of_pairs(CHAIN4, pairs), "equivalence"))
    assert got == oracle_close(pairs, 4, symmetric=True)


@given(pair_lists)
def test_preorder_closure_matches_oracle(pairs):
    got = idx_pairs(close(rel_of_pairs(CHAIN4, pairs), "refl_trans"))
    assert got == oracle_close(pairs, 4, symmetric=False)


def test_close_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        close(identity_rel(VEE), "symmetric")


@given(pair_lists, pair_lists)
def test_boolean_algebra_matches_sets(ps, qs):
    r, s = rel_of_pairs(CHAIN4, ps), rel_of_pairs(CHAIN4, qs)
    rp, sp = idx_pairs(r), idx_pairs(s)
    assert idx_pairs(intersect(r, s)) == rp & sp
    assert idx_pairs(union(r, s)) == rp | sp
    assert idx_pairs(invert(r)) == {(b, a) for a, b in rp}
    assert idx_pairs(compose(r, s)) == oracle_compose(rp, sp, 4)


def test_carrier_mismatch_rejected():
    with pytest.raises(ValidationError):
        union(identity_rel(VEE), identity_rel(CHAIN3))


@given(preorders(VEE))
def test_predicates_match_definitions(r):
    ps = idx_pairs(r)
    n = 4
    assert r.is_reflexive == all((i, i) in ps for i in range(n))
    assert r.is_transitive == all(
        (a, d) in ps for a, b in ps for c, d in ps if b == c)


def test_restrict_keeps_agreeing_pairs():
    sub = restrict_rel(order_rel(VEE), build_poset(("⊥", "a"), (("⊥", "a"),)))
    assert sub.holds("⊥", "a")
    assert not sub.holds("a", "⊥")


@given(seeded(), st.integers(1, 6))
def test_restrict_onto_permuted_subcarrier(rng, n):
    r = Rel(random_poset(rng, n), random_rows(rng, n))
    keep = rng.sample(r.carrier.elements, rng.randint(1, n))
    sub = restrict_rel(r, discrete(tuple(keep)))
    for x in keep:
        for y in keep:
            assert sub.holds(x, y) == r.holds(x, y)


def test_restrict_requires_subset_of_names():
    with pytest.raises(ValidationError):
        restrict_rel(order_rel(VEE), discrete(("z",)))


class TestOrderedPartition:
    def test_blocks_by_least_member(self):
        q = close(union(equivalence_from_blocks(VEE, [["⊥"], ["c", "b"], ["a"]]),
                        order_rel(VEE)), "refl_trans")
        op = to_ordered_partition(q)
        assert op.blocks == (("⊥",), ("c", "b"), ("a",))
        assert op.labels[op.carrier.index("b")] == 1
        assert op.order.leq_idx(0, 2) and not op.order.leq_idx(2, 0)

    def test_members_in_declaration_order(self):
        q = equivalence_from_blocks(VEE, [["b", "a"], ["⊥", "c"]])
        op = to_ordered_partition(q)
        assert op.blocks == (("⊥", "c"), ("a", "b"))

    def test_round_trip(self):
        q = close(union(equivalence_from_blocks(CHAIN3, [["0", "1"], ["2"]]),
                        order_rel(CHAIN3)), "refl_trans")
        assert from_ordered_partition(to_ordered_partition(q)) == q

    def test_rejects_non_preorder(self):
        r = rel_from_pairs(VEE, [("a", "b")])
        with pytest.raises(ValidationError):
            to_ordered_partition(r)

    def test_partition_validation(self):
        with pytest.raises(ValidationError):
            equivalence_from_blocks(VEE, [["⊥", "c"], ["c", "a", "b"]])
        with pytest.raises(ValidationError):
            equivalence_from_blocks(VEE, [["⊥", "c"]])

    @pytest.mark.parametrize("blocks,rows,error,message", [
        ([["⊥", "c"], [], ["a", "b"]], (1, 2, 4), ValidationError,
         "empty block in ordered partition"),
        ([["⊥", "c"], ["c", "a", "b"]], (1, 2), ValidationError,
         "element 'c' in two blocks"),
        ([["⊥", "c"], ["a"]], (1, 2), ValidationError,
         "blocks do not cover the carrier"),
        ([["⊥", "c"], ["a", "z"], ["b"]], (1, 2, 4), ValidationError,
         "unknown element 'z'"),
        ([["⊥", "c"], ["a", "b"]], (3, 3), OrderCycleError,
         "antisymmetry violated: '0' and '1' are below each other"),
        ([["⊥", "c"], ["a", "b"]], (2, 2), ValidationError,
         "order not reflexive at '0'"),
    ])
    def test_partition_validation_messages(self, blocks, rows, error, message):
        blocks = tuple(tuple(b) for b in blocks)
        with pytest.raises(error) as info:
            OrderedPartition(VEE, blocks, rows)
        assert str(info.value) == message

    def test_labels_and_order_follow_the_blocks(self):
        q = close(union(equivalence_from_blocks(VEE, [["⊥"], ["c", "b"], ["a"]]),
                        order_rel(VEE)), "refl_trans")
        op = to_ordered_partition(q)
        assert all(op.labels[op.carrier.index(x)] == b
                   for b, block in enumerate(op.blocks) for x in block)
        assert op.labels == (0, 1, 2, 1)
        assert op.order.rows == op.block_rows
        assert op.order.elements == ("0", "1", "2")
        # derived views take no part in equality
        assert OrderedPartition(VEE, op.blocks, op.block_rows) == op

    def test_preorder_from_blocks_closes_block_order(self):
        q = preorder_from_blocks(CHAIN3, [["0"], ["1"], ["2"]],
                                 [(0, 1), (1, 2)])
        assert q.holds("0", "2")


class TestFormatting:
    def test_equivalence_blocks(self):
        q = equivalence_from_blocks(VEE, [["⊥"], ["c", "b"], ["a"]])
        assert format_relation(q) == "{⊥} {c b} {a}"
        assert format_relation(all_rel(VEE)) == "{⊥ c a b}"

    def test_chain_of_blocks(self):
        q = close(union(equivalence_from_blocks(VEE, [["⊥"], ["c", "b"], ["a"]]),
                        order_rel(VEE)), "refl_trans")
        assert format_relation(q) == "{⊥} <= {c b} <= {a}"

    def test_partial_block_order(self):
        assert format_relation(order_rel(VEE)) == \
            "{⊥} {c} {a} {b} ord: {⊥} <= {c}, {c} <= {a}, {c} <= {b}"

    def test_raw_pairs(self):
        r = rel_from_pairs(VEE, [("a", "b")])
        assert format_relation(r) == "pairs: (a,b)"

    def test_block_label(self):
        assert block_label(("c", "b")) == "{c b}"
