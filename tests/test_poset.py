"""Poset construction, monotone tables, and their enumeration."""

import itertools
from math import comb

import pytest
from hypothesis import example, given

from infolat import (FnTable, NotMonotoneError, OrderCycleError, Poset,
                     ValidationError, build_poset, chain, check_monotone,
                     constant_fn, discrete, get_example, identity_fn,
                     iter_monotone_tables, lift, product)
from helpers import (BOOLBOT, CHAIN2, CHAIN3, DIAMOND, DISC2, FAMILY, VEE,
                     directed_subsets, monotone_tables_pairwise, posets,
                     redeclared_posets)


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            discrete(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            discrete(())

    def test_cycle_reports_offending_pair(self):
        with pytest.raises(OrderCycleError) as exc:
            build_poset(("a", "b"), (("a", "b"), ("b", "a")))
        assert set(exc.value.pair) == {"a", "b"}

    def test_unknown_cover_name(self):
        with pytest.raises(ValidationError):
            build_poset(("a",), (("a", "z"),))
        with pytest.raises(ValidationError,
                           match="^unknown element 'z' in order pair$"):
            build_poset(("a",), (("z", "a"),))

    @pytest.mark.parametrize("names, covers, message", [
        (["a", "a"], [("a", "z")], "duplicate element name 'a'"),
        ([], [("a", "b")], "carrier must be non-empty"),
        (["a", "b"], [("a", "z")], "unknown element 'z' in order pair"),
    ], ids=["duplicate", "empty", "unknown"])
    def test_name_errors_come_before_unknown_endpoints(self, names, covers,
                                                        message):
        with pytest.raises(ValidationError) as exc:
            build_poset(names, covers)
        assert str(exc.value) == message

    def test_raw_rows_must_match_carrier_size(self):
        with pytest.raises(ValidationError,
                           match="^order matrix does not match carrier size$"):
            Poset(("a", "b"), (0b01,))

    @pytest.mark.parametrize("rows, message", [
        ((0b111, 0b010), "order row mentions an unknown index"),
        ((0b01, -2), "order row mentions an unknown index"),
        ((0b01, 1 << 300 | 0b10), "order row mentions an unknown index"),
        # rows are checked in order, each for its range, then reflexivity
        ((0b00, 0b110), "order not reflexive at 'a'"),
        ((0b101, 0b00), "order row mentions an unknown index"),
    ], ids=["bit-n", "negative", "huge", "reflexive-first", "range-first"])
    def test_raw_rows_are_range_checked(self, rows, message):
        with pytest.raises(ValidationError) as exc:
            Poset(("a", "b"), rows)
        assert str(exc.value) == message

    def test_raw_rows_must_be_transitive(self):
        # a<=b, b<=c but not a<=c
        rows = (0b011, 0b110, 0b100)
        with pytest.raises(ValidationError):
            Poset(("a", "b", "c"), rows)

    def test_raw_rows_must_be_reflexive(self):
        with pytest.raises(ValidationError):
            Poset(("a", "b"), (0b01, 0b01))

    def test_leq(self):
        assert VEE.leq("⊥", "a")
        assert not VEE.leq("a", "b")
        assert not VEE.leq("a", "⊥")
        assert VEE.leq("c", "c")

    def test_covers_are_transitive_reduction(self):
        assert CHAIN3.covers() == [(0, 1), (1, 2)]
        assert sorted(DIAMOND.covers()) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_minimum(self):
        assert CHAIN3.minimum() == 0
        assert DISC2.minimum() is None
        assert BOOLBOT.minimum() == 0


class TestCombinators:
    def test_lift_adds_fresh_bottom(self):
        lifted = lift(DISC2)
        assert lifted.elements == ("⊥", "p", "q")
        assert lifted.leq("⊥", "p") and lifted.leq("⊥", "q")
        assert not lifted.leq("p", "q")

    def test_lift_avoids_name_capture(self):
        again = lift(BOOLBOT)
        assert again.elements[0] == "⊥1"
        assert again.leq("⊥1", "⊥")

    def test_product_is_componentwise(self):
        grid = product(CHAIN2, CHAIN2)
        assert grid.elements == ("0.0", "0.1", "1.0", "1.1")
        assert grid.leq("0.0", "1.1")
        assert not grid.leq("0.1", "1.0")
        # order-isomorphic to the diamond
        assert [grid.rows[i].bit_count() for i in range(4)] == \
            [DIAMOND.rows[i].bit_count() for i in range(4)]

    @given(posets(max_size=4), posets(max_size=4))
    def test_product_matches_componentwise_order(self, a, b):
        grid = product(a, b)
        pairs = [(x, y) for x in a.elements for y in b.elements]
        assert grid.elements == tuple(f"{x}.{y}" for x, y in pairs)
        for i, (x, y) in enumerate(pairs):
            for j, (x2, y2) in enumerate(pairs):
                assert grid.leq_idx(i, j) == (a.leq(x, x2) and b.leq(y, y2))

    def test_product_suffixes_clashing_pair_names(self):
        # the lifted diamond of lazy pairs (isEven2's codomain) names its
        # elements with ".", so ("⊥", "⊥.⊥") and ("⊥.⊥", "⊥") both join
        # to "⊥.⊥.⊥"; the later one takes "#2"
        d = get_example("iseven").posets["D"]
        grid = product(d, d)
        pairs = [(x, y) for x in d.elements for y in d.elements]
        assert len(set(grid.elements)) == 25
        assert [e for e in grid.elements if "#" in e] == \
            ["⊥.⊥.⊥#2", "⊥.*.⊥#2"]
        assert [e.removesuffix("#2") for e in grid.elements] == \
            [f"{x}.{y}" for x, y in pairs]
        for i, (x, y) in enumerate(pairs):
            for j, (x2, y2) in enumerate(pairs):
                assert grid.leq_idx(i, j) == (d.leq(x, x2) and d.leq(y, y2))

    def test_chain_total(self):
        c = chain(("x", "y", "z"))
        assert c.leq("x", "z")
        assert c.covers() == [(0, 1), (1, 2)]


class TestDirectedSubsets:
    def test_chain_counts(self):
        # every nonempty subset of a chain is directed
        assert len(list(directed_subsets(CHAIN3))) == 7

    def test_discrete_counts(self):
        assert len(list(directed_subsets(DISC2))) == 2

    def test_vee_count(self):
        assert len(list(directed_subsets(VEE))) == 11

    @given(posets())
    def test_greatest_dominates(self, p):
        for mask, top in directed_subsets(p):
            assert (mask >> top) & 1
            for i in range(len(p.elements)):
                if (mask >> i) & 1:
                    assert p.leq_idx(i, top)


class TestOrderLaws:
    @given(posets())
    def test_partial_order(self, p):
        n = len(p.elements)
        for i in range(n):
            assert p.leq_idx(i, i)
            for j in range(n):
                if i != j and p.leq_idx(i, j):
                    assert not p.leq_idx(j, i)
                for k in range(n):
                    if p.leq_idx(i, j) and p.leq_idx(j, k):
                        assert p.leq_idx(i, k)

    @given(posets())
    def test_covers_regenerate_order(self, p):
        names = p.elements
        rebuilt = build_poset(names, [(names[i], names[j])
                                      for i, j in p.covers()])
        assert rebuilt == p


class TestFnTable:
    def test_totality_checked(self):
        with pytest.raises(ValidationError):
            check_monotone(CHAIN2, CHAIN2, {"0": "0"})
        with pytest.raises(ValidationError):
            check_monotone(CHAIN2, CHAIN2, {"0": "0", "1": "1", "x": "0"})

    def test_direct_construction_checks_images(self):
        with pytest.raises(ValidationError,
                           match="^function table is not total$"):
            FnTable(CHAIN2, CHAIN2, (0,))
        with pytest.raises(ValidationError,
                           match="^function table maps outside the codomain$"):
            FnTable(CHAIN2, CHAIN2, (0, 2))
        with pytest.raises(ValidationError,
                           match="^function table maps outside the codomain$"):
            FnTable(CHAIN2, CHAIN2, (-1, 1))
        # totality is checked before any image
        with pytest.raises(ValidationError,
                           match="^function table is not total$"):
            FnTable(CHAIN2, CHAIN2, (5,))

    def test_monotonicity_witness(self):
        with pytest.raises(NotMonotoneError) as exc:
            check_monotone(CHAIN2, CHAIN2, {"0": "1", "1": "0"})
        assert exc.value.witness == ("0", "1")

    def test_call_and_mapping(self):
        f = check_monotone(VEE, VEE, {"⊥": "⊥", "c": "c", "a": "a", "b": "c"})
        assert f("b") == "c"
        assert f.mapping() == {"⊥": "⊥", "c": "c", "a": "a", "b": "c"}

    def test_identity_and_constant(self):
        assert identity_fn(VEE).mapping() == {x: x for x in VEE.elements}
        k = constant_fn(VEE, CHAIN2, "1")
        assert set(k.mapping().values()) == {"1"}

    def test_then_composes_left_to_right(self):
        f = check_monotone(CHAIN2, CHAIN3, {"0": "0", "1": "2"})
        g = check_monotone(CHAIN3, CHAIN2, {"0": "0", "1": "0", "2": "1"})
        assert f.then(g).mapping() == {"0": "0", "1": "1"}

    def test_then_checks_interface(self):
        f = identity_fn(CHAIN2)
        with pytest.raises(ValidationError):
            f.then(identity_fn(CHAIN3))


class TestEnumeration:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_chain_to_chain_count(self, m, n):
        # weakly increasing sequences: multiset coefficient
        dom = chain(tuple(f"x{i}" for i in range(m)))
        cod = chain(tuple(f"y{i}" for i in range(n)))
        assert len(list(iter_monotone_tables(dom, cod))) == comb(m + n - 1, m)

    def test_discrete_dom_unconstrained(self):
        assert len(list(iter_monotone_tables(DISC2, CHAIN2))) == 4

    def test_chain2_counts_order_pairs(self):
        # a monotone map from the 2-chain picks one related pair
        want = sum(VEE.rows[i].bit_count() for i in range(4))
        assert len(list(iter_monotone_tables(CHAIN2, VEE))) == want

    @given(posets(max_size=3))
    def test_all_results_monotone_and_distinct(self, p):
        tables = list(iter_monotone_tables(p, BOOLBOT))
        assert len({t.images for t in tables}) == len(tables)
        for t in tables:
            assert t.is_monotone
        # exactly the monotone tables, lexicographic on image tuples
        k = len(BOOLBOT.elements)
        every = (FnTable(p, BOOLBOT, images) for images in
                 itertools.product(range(k), repeat=len(p.elements)))
        assert tables == [t for t in every if t.is_monotone]

    @given(redeclared_posets(max_size=5), redeclared_posets(max_size=4))
    @example(build_poset(("t", "b"), (("b", "t"),)), CHAIN2)
    def test_matches_pairwise_oracle_when_index_order_is_not_the_order(
            self, dom, cod):
        # an element may be declared before one below it, so the search
        # must check earlier positions above the current one as well
        assert list(iter_monotone_tables(dom, cod)) == \
            monotone_tables_pairwise(dom, cod)


@pytest.mark.parametrize("p", FAMILY, ids=lambda p: "x".join(p.elements[:2]))
def test_repr_mentions_elements(p):
    assert p.elements[0] in repr(p)
