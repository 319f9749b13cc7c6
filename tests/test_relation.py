"""Relations as bit matrices: algebra, closures, ordered partitions."""

import pytest
from hypothesis import given, strategies as st

from infolat import (OrderCycleError, OrderedPartition, Rel, ValidationError,
                     all_rel, block_label, build_poset, close, compose, discrete, format_relation,
                     from_ordered_partition, identity_rel, intersect, invert,
                     order_rel, rel_from_pairs, restrict_rel,
                     to_ordered_partition, union)
from infolat.relation import equivalence_from_blocks, preorder_from_blocks
from helpers import (CHAIN3, CHAIN4, VEE, idx_pairs, oracle_close,
                     oracle_compose, preorders, rel_of_pairs)

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


def test_builtin_shapes():
    assert identity_rel(VEE).pair_count() == 4
    assert all_rel(VEE).pair_count() == 16
    assert order_rel(VEE).pair_count() == 9


def test_matrix_shape_validated():
    with pytest.raises(ValidationError):
        Rel(VEE, (0, 0, 0))  # wrong row count
    with pytest.raises(ValidationError):
        Rel(VEE, (1 << 4, 0, 0, 0))  # bit beyond the carrier


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
    assert r.is_symmetric == all((b, a) in ps for a, b in ps)
    assert r.is_transitive == all(
        (a, d) in ps for a, b in ps for c, d in ps if b == c)
    assert r.is_antisymmetric == all(
        a == b for a, b in ps if (b, a) in ps)


def test_restrict_keeps_agreeing_pairs():
    sub = restrict_rel(order_rel(VEE), build_poset(("⊥", "a"), (("⊥", "a"),)))
    assert sub.holds("⊥", "a")
    assert not sub.holds("a", "⊥")


def test_restrict_requires_subset_of_names():
    with pytest.raises(ValidationError):
        restrict_rel(order_rel(VEE), discrete(("z",)))


class TestOrderedPartition:
    def test_blocks_by_least_member(self):
        q = close(union(equivalence_from_blocks(VEE, [["⊥"], ["c", "b"], ["a"]]),
                        order_rel(VEE)), "refl_trans")
        op = to_ordered_partition(q)
        assert op.blocks == (("⊥",), ("c", "b"), ("a",))
        assert op.block_of("b") == 1
        assert op.block_leq(0, 2) and not op.block_leq(2, 0)

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
        assert op.labels == tuple(op.block_of(x) for x in VEE.elements)
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
