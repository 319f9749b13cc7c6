"""Complete preorders: lattice, Galois round trip, realisability, quotients."""

import itertools
import random
import sys
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from infolat import (CapExceededError, FnTable, Poset, ValidationError,
                     all_rel, build_poset, close, constant_fn, cp, discrete,
                     enumerate_loci, enumerate_loi, er,
                     find_monotone_postprocessor, find_postprocessor,
                     flow_check, get_example,
                     identity_fn, identity_rel, intersect, invert,
                     is_complete_preorder, is_realisable, iter_equivalences,
                     iter_monotone_tables, kernel, loci_join, loci_leq,
                     loci_meet, loci_pullback, loci_pushforward, loi_leq,
                     order_rel, ordered_kernel, ordered_knowledge_set,
                     phi_realisability, pushforward, quotient_map,
                     rel_from_pairs, union)
from infolat.loci import _closed_supersets, _completions, _growth_walk
from helpers import (BELL, BOOLBOT, CHAIN2, CHAIN3, CHAIN4, DIAMOND, DISC2,
                     DISC3, FAMILY, VEE, all_preorder_pair_sets,
                     complete_preorders, enumerate_loci_warshall,
                     enumerate_loi_sorted, equivalences, feasible_inclusions,
                     fn_between_family, idx_pairs, is_antisymmetric_pairwise,
                     is_complete_preorder_exhaustive, monotone_fns,
                     monotone_tables_pairwise, oracle_close, posets,
                     preorders, random_equivalence, random_poset,
                     redeclared_posets, rel_of_pairs, row_common,
                     search_trace, seeded, set_partitions)

# labelled posets on k points, OEIS A001035
A001035 = (1, 1, 3, 19, 219, 4231)
LOCI_VEE = enumerate_loci(VEE)
LOI_VEE = enumerate_loi(VEE)


class TestCompleteness:
    @given(preorders(VEE))
    def test_fast_path_matches_directed_suprema(self, q):
        assert is_complete_preorder(q) == is_complete_preorder_exhaustive(q)

    @given(complete_preorders(DIAMOND))
    def test_generated_complete_preorders_accepted(self, q):
        assert is_complete_preorder(q)
        assert is_complete_preorder_exhaustive(q)

    def test_identity_incomplete_unless_discrete(self):
        assert not is_complete_preorder(identity_rel(VEE))
        assert is_complete_preorder(identity_rel(DISC3))

    def test_non_preorder_rejected(self):
        assert not is_complete_preorder(rel_from_pairs(VEE, [("a", "b")]))


class TestLattice:
    def test_extremes(self):
        for q in LOCI_VEE:
            assert loci_leq(all_rel(VEE), q)
            assert loci_leq(q, order_rel(VEE))

    @given(complete_preorders(VEE), complete_preorders(VEE))
    def test_join_is_least_upper_bound(self, p, q):
        j = loci_join(p, q)
        assert is_complete_preorder(j)
        assert loci_leq(p, j) and loci_leq(q, j)
        for r in LOCI_VEE:
            if loci_leq(p, r) and loci_leq(q, r):
                assert loci_leq(j, r)

    @given(complete_preorders(VEE), complete_preorders(VEE))
    def test_meet_is_greatest_lower_bound(self, p, q):
        m = loci_meet(p, q)
        assert is_complete_preorder(m)
        assert loci_leq(m, p) and loci_leq(m, q)
        for r in LOCI_VEE:
            if loci_leq(r, p) and loci_leq(r, q):
                assert loci_leq(r, m)

    def test_arguments_must_be_complete(self):
        with pytest.raises(ValidationError):
            loci_join(identity_rel(VEE), order_rel(VEE))


class TestEnumeration:
    @pytest.mark.parametrize("carrier", FAMILY,
                             ids=lambda p: "-".join(p.elements[:2]))
    def test_loci_matches_brute_force(self, carrier):
        n = len(carrier.elements)
        got = {frozenset(idx_pairs(q)) for q in enumerate_loci(carrier)}
        want = {frozenset(s) for s in all_preorder_pair_sets(
            n, must_contain=frozenset(idx_pairs(order_rel(carrier))))}
        assert got == want

    @given(redeclared_posets(max_size=5))
    def test_matches_warshall_oracle_in_order(self, carrier):
        got = enumerate_loci(carrier)
        assert got == enumerate_loci_warshall(carrier)
        # the search emits in canonical order without sorting
        keys = [q.bit_tuple() for q in got]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_warshall_oracle_in_order_on_six_points(self, seed):
        # the drawn carriers stop at 5 points; these 6-point ones, each
        # pair ordered with probability 1/2 and declared in a shuffled
        # order, have 32 to 3,707 results, so the oracle stays quick
        rng = random.Random(seed)
        names = [f"e{i}" for i in range(6)]
        covers = [(names[i], names[j])
                  for j in range(6) for i in range(j) if rng.random() < 0.5]
        rng.shuffle(names)
        carrier = build_poset(names, covers)
        assert enumerate_loci(carrier) == enumerate_loci_warshall(carrier)

    @settings(max_examples=60)
    @given(st.data(), redeclared_posets(max_size=5))
    def test_inclusions_keep_exactly_the_decided_pairs(self, data, carrier):
        # the whole-row feasibility rule against its definition, at
        # nodes the search reaches: each child pushed is a Warshall
        # closure that changes no pair before its inclusion, and every
        # such closure is pushed, in increasing position; every node
        # carries its own row's common
        results, trace = search_trace(
            lambda: list(_closed_supersets(carrier.rows, 5)))
        assert [node[0] for node, _ in trace] == results
        assert all(common == row_common(rows, i)
                   for (rows, i, _, common), _ in trace)
        for node, children in data.draw(st.lists(st.sampled_from(trace),
                                                 min_size=1, max_size=6)):
            assert children == feasible_inclusions(*node)

    @pytest.mark.parametrize("carrier,count", [
        (discrete(("p", "q", "r", "s")), 355), (VEE, 14)],
        ids=["discrete4", "V"])
    def test_every_node_is_a_result(self, carrier, count):
        results, trace = search_trace(lambda: enumerate_loci(carrier))
        assert len(results) == len(trace) == count
        assert sum(len(children) for _, children in trace) == count - 1

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29), (4, 355),
                                         (5, 6942), (6, 209527)])
    def test_discrete_counts_follow_a000798(self, n, count):
        carrier = discrete(tuple(f"e{i}" for i in range(n)))
        assert len(enumerate_loci(carrier)) == count

    @pytest.mark.parametrize("n", range(1, 6))
    def test_each_partition_carries_the_posets_of_its_classes(self, n):
        """On discrete n, the results with the same mutual classes are the
        partial orders of those classes: A001035(k) of them for k
        classes, and A001035(n) antisymmetric results in all."""
        carrier = discrete(tuple(f"e{i}" for i in range(n)))
        results = enumerate_loci(carrier)
        assert Counter(er(q) for q in results) == \
            {eq: A001035[len(set(eq.rows))]
             for eq in iter_equivalences(carrier)}
        assert (sum(is_antisymmetric_pairwise(q.rows) for q in results)
                == A001035[n])

    def test_pinned_counts(self):
        assert len(LOCI_VEE) == 14
        assert len(enumerate_loci(DISC3)) == 29
        assert [len(enumerate_loci(chain))
                for chain in (CHAIN2, CHAIN3, CHAIN4)] == [2, 4, 8]

    def test_loi_counts_follow_bell(self):
        for carrier in FAMILY:
            n = len(carrier.elements)
            assert len(enumerate_loi(carrier)) == BELL[n]

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 15),
                                         (5, 52), (6, 203), (7, 877),
                                         (8, 4140)])
    def test_equivalence_counts_follow_a000110(self, n, count):
        carrier = discrete(tuple(f"e{i}" for i in range(n)))
        assert len(enumerate_loi(carrier, cap=8)) == count
        assert sum(1 for _ in iter_equivalences(carrier)) == count

    @given(redeclared_posets(max_size=6))
    def test_loi_matches_sorted_partitions_in_order(self, carrier):
        assert enumerate_loi(carrier) == enumerate_loi_sorted(carrier)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_loi_on_discrete_matches_sorted_partitions(self, n):
        # from 9 points on each row is two bytes of the sort key
        carrier = discrete(tuple(f"e{i}" for i in range(n)))
        assert enumerate_loi(carrier, cap=9) == enumerate_loi_sorted(carrier)

    def test_partitions_match_oracle(self):
        got = {frozenset(idx_pairs(q)) for q in iter_equivalences(CHAIN4)}
        want = {frozenset((a, b) for blk in part for a in blk for b in blk)
                for part in set_partitions(range(4))}
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partitions_in_restricted_growth_order(self, n):
        # product() yields label strings lexicographically; keep the
        # restricted-growth ones (each label at most one above the
        # largest before it)
        growth = [labels for labels in itertools.product(range(n), repeat=n)
                  if all(b <= max(labels[:x], default=-1) + 1
                         for x, b in enumerate(labels))]
        carrier = discrete(tuple(f"e{i}" for i in range(n)))
        want = [rel_of_pairs(carrier, [(x, y) for x in range(n)
                                       for y in range(n)
                                       if labels[x] == labels[y]])
                for labels in growth]
        assert list(iter_equivalences(carrier)) == want

    def test_enumeration_order_canonical(self):
        six = discrete(tuple(f"e{i}" for i in range(6)))
        for rels in [LOCI_VEE, enumerate_loi(six),
                     *(enumerate_loi(carrier) for carrier in FAMILY)]:
            keys = [q.bit_tuple() for q in rels]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_first_equivalence_is_all_last_is_identity(self):
        rels = list(iter_equivalences(VEE))
        assert rels[0] == all_rel(VEE)
        assert rels[-1] == identity_rel(VEE)

    def test_completions_of_one_block_follow_bell(self):
        # T(n - 1, 1): the labellings after the first position's block 0
        assert [_completions(n)[n - 1][1] for n in range(1, len(BELL))] == \
            list(BELL[1:])

    @pytest.mark.parametrize("seed", range(24))
    def test_cut_walk_is_the_uncut_walk_filtered(self, seed):
        # symmetric cut rows with no diagonal, as the observer search's
        # ok rows are: the cut walk yields exactly the uncut labellings
        # none of whose blocks holds a cut pair, each with its rank in
        # the uncut order
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        cut = [0] * n
        for _ in range(rng.randrange(n + 1)):
            x, y = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if x != y:
                cut[x] |= 1 << y
                cut[y] |= 1 << x
        walk = list(_growth_walk(n))
        assert [rank for rank, _ in walk] == list(range(1, BELL[n] + 1))
        assert list(_growth_walk(n, cut)) == \
            [(rank, rows) for rank, rows in walk
             if not any(map(int.__and__, cut, rows))]

    def test_cap_enforced(self):
        from infolat import discrete
        big = discrete(tuple(f"e{i}" for i in range(7)))
        with pytest.raises(CapExceededError):
            enumerate_loci(big)
        with pytest.raises(CapExceededError):
            enumerate_loi(big)

    def test_oracle_sanity_on_discrete_four(self):
        # labelled preorders on four points
        assert sum(1 for _ in all_preorder_pair_sets(4)) == 355


class TestGaloisRoundTrip:
    def test_cp_is_intersection_of_completions(self):
        # defining form: intersect every complete preorder containing p
        for p in LOI_VEE:
            containing = [q for q in LOCI_VEE if p.subset_of(q)]
            assert cp(p) == reduce(intersect, containing)

    def test_adjunction(self):
        # er below p exactly when q below cp: er is the lower adjoint
        for p in LOI_VEE:
            for q in LOCI_VEE:
                assert loci_leq(q, cp(p)) == loi_leq(er(q), p)

    def test_cp_after_er_stays_inside(self):
        for q in LOCI_VEE:
            e = er(q)
            assert e.is_equivalence
            assert cp(e).subset_of(q)

    @given(preorders(VEE))
    def test_er_keeps_mutual_pairs(self, p):
        e = er(p)
        for i in range(4):
            for j in range(4):
                assert (e.rows[i] >> j) & 1 == (
                    (p.rows[i] >> j) & 1 and (p.rows[j] >> i) & 1)

    def test_er_rejects_raw(self):
        with pytest.raises(ValidationError):
            er(rel_from_pairs(VEE, [("a", "b")]))

    def test_cp_rejects_preorder(self):
        with pytest.raises(ValidationError):
            cp(order_rel(VEE))


class TestRealisability:
    @pytest.mark.parametrize("carrier", (CHAIN3, VEE, DIAMOND, BOOLBOT),
                             ids=lambda p: "-".join(p.elements[:2]))
    def test_phi_agrees_with_galois_test(self, carrier):
        for r in iter_equivalences(carrier):
            assert phi_realisability(r).realisable == (er(cp(r)) == r)

    @pytest.mark.parametrize("carrier", (CHAIN3, VEE, DIAMOND, BOOLBOT),
                             ids=lambda p: "-".join(p.elements[:2]))
    def test_witness_realises(self, carrier):
        for r in iter_equivalences(carrier):
            res = phi_realisability(r)
            if res.realisable:
                assert res.witness_fn.is_monotone
                assert kernel(res.witness_fn) == r
                assert ordered_kernel(res.witness_fn) == cp(r)

    def test_cycle_is_honest(self):
        for r in iter_equivalences(VEE):
            res = phi_realisability(r)
            if not res.realisable:
                cyc = res.cycle
                assert len(cyc) >= 2
                assert len(set(cyc)) == len(cyc)
                for k, block in enumerate(cyc):
                    nxt = cyc[(k + 1) % len(cyc)]
                    assert any(VEE.leq(x, y) for x in block for y in nxt)

    def test_vee_collapses(self):
        # identifying the two maximal points is fine; identifying a
        # maximal point with the bottom loops around the middle
        from infolat.relation import equivalence_from_blocks
        ok = equivalence_from_blocks(VEE, [["⊥"], ["c"], ["a", "b"]])
        assert is_realisable(ok)
        bad = equivalence_from_blocks(VEE, [["⊥", "a"], ["c"], ["b"]])
        assert not is_realisable(bad)
        cyc = phi_realisability(bad).cycle
        assert set(map(frozenset, cyc)) == {frozenset({"⊥", "a"}),
                                            frozenset({"c"})}

    def test_colliding_block_names_get_suffixes(self):
        # the blocks {a b} and {a+b} both join to "a+b"
        carrier = discrete(("a", "b", "a+b"))
        r = close(rel_from_pairs(carrier, [("a", "b")]), "equivalence")
        assert is_realisable(r)
        res = phi_realisability(r)
        assert res.witness_poset.elements == ("a+b", "a+b#2")
        assert kernel(res.witness_fn) == r
        assert quotient_map(r).cod.elements == ("a+b", "a+b#2")
        assert ordered_kernel(quotient_map(r)) == r

    def test_block_name_suffix_skips_taken_names(self):
        from infolat.loci import _block_names
        assert _block_names([("x",), ("x#2",), ("x",), ("y",), ("x",)]) \
            == ("x", "x#2", "x#3", "y", "x#4")

    @given(seeded(), st.integers(7, 8))
    def test_is_realisable_is_the_er_cp_fixpoint(self, rng, n):
        carrier = random_poset(rng, n)
        for _ in range(10):
            r = random_equivalence(rng, carrier)
            for s in (r, er(cp(r))):
                assert is_realisable(s) == (er(cp(s)) == s)

    def test_realisable_count_on_vee(self):
        assert sum(1 for r in iter_equivalences(VEE)
                   if is_realisable(r)) == 10


class TestQuotient:
    def test_every_complete_preorder_is_an_ordered_kernel(self):
        for q in LOCI_VEE:
            f = quotient_map(q)
            assert f.is_monotone
            assert ordered_kernel(f) == q
            assert kernel(f) == er(q)

    def test_quotient_requires_completeness(self):
        with pytest.raises(ValidationError):
            quotient_map(identity_rel(VEE))


class TestOrderedKernel:
    @given(fn_between_family())
    def test_definition(self, f):
        k = ordered_kernel(f)
        for x in f.dom.elements:
            for y in f.dom.elements:
                assert k.holds(x, y) == f.cod.leq(f(x), f(y))
        assert is_complete_preorder(k)
        assert er(k) == kernel(f)

    @given(fn_between_family())
    def test_ordered_knowledge_set(self, f):
        for a in f.dom.elements:
            want = {x for x in f.dom.elements if f.cod.leq(f(a), f(x))}
            assert ordered_knowledge_set(f, a) == want


@st.composite
def ordered_flow_instances(draw):
    f = draw(fn_between_family())
    return f, draw(complete_preorders(f.dom)), draw(complete_preorders(f.cod))


class TestOrderedFlow:
    @given(ordered_flow_instances())
    def test_flow_iff_pullback_below_pre(self, inst):
        f, p, q = inst
        holds = flow_check(f, p, q) is None
        assert holds == loci_leq(loci_pullback(f, q), p)

    @given(ordered_flow_instances())
    def test_flow_iff_post_below_pushforward(self, inst):
        f, p, q = inst
        holds = flow_check(f, p, q) is None
        assert holds == loci_leq(q, loci_pushforward(f, p))

    @given(ordered_flow_instances())
    def test_pullback_and_pushforward_stay_complete(self, inst):
        f, p, q = inst
        assert is_complete_preorder(loci_pullback(f, q))
        assert is_complete_preorder(loci_pushforward(f, p))

    @given(ordered_flow_instances())
    def test_pushforward_is_least(self, inst):
        f, p, _ = inst
        push = loci_pushforward(f, p)
        assert flow_check(f, p, push) is None
        for q in enumerate_loci(f.cod):
            if flow_check(f, p, q) is None:
                assert loci_leq(q, push)

    def test_order_as_flow_is_monotonicity(self):
        # every monotone table carries the domain order to the codomain order
        for f in (get_example("V").functions.values()):
            assert flow_check(f, order_rel(f.dom), order_rel(f.cod)) is None


class TestMonotonePostprocessor:
    @given(monotone_fns(VEE, CHAIN3), monotone_fns(CHAIN3, DISC2))
    def test_composition_recoverable(self, f, h):
        g = f.then(h)
        p = find_monotone_postprocessor(g, f)
        assert p is not None
        assert p.is_monotone
        assert f.then(p).images == g.images

    @given(monotone_fns(CHAIN3, VEE), monotone_fns(CHAIN3, DIAMOND))
    def test_found_iff_search_space_has_one(self, f, g):
        # every table, not just the monotone ones the search shares with
        # iter_monotone_tables; product() yields them lexicographically
        p = find_monotone_postprocessor(f, g)
        m, k = len(g.cod.elements), len(f.cod.elements)
        tables = (FnTable(g.cod, f.cod, images)
                  for images in itertools.product(range(k), repeat=m))
        brute = [t for t in tables
                 if t.is_monotone and g.then(t).images == f.images]
        assert p == (brute[0] if brute else None)

    @given(st.data(), posets(max_size=4), redeclared_posets(max_size=5),
           redeclared_posets(max_size=4), st.booleans())
    def test_matches_pairwise_oracle_when_index_order_is_not_the_order(
            self, data, a, mid, cod, composed):
        # g fixes the images of the points it hits; f is p after g for a
        # drawn table p, or any table
        tables = lambda dom, k: st.tuples(
            *[st.integers(0, k - 1)] * len(dom.elements))
        g = FnTable(a, mid, data.draw(tables(a, len(mid.elements))))
        if composed:
            p = data.draw(tables(mid, len(cod.elements)))
            f = FnTable(a, cod, tuple(p[v] for v in g.images))
        else:
            f = FnTable(a, cod, data.draw(tables(a, len(cod.elements))))
        brute = [t for t in monotone_tables_pairwise(mid, cod)
                 if g.then(t).images == f.images]
        assert find_monotone_postprocessor(f, g) == \
            (brute[0] if brute else None)

    def test_bound_enforced(self):
        f = get_example("parity", n=4).functions["f1"]
        with pytest.raises(CapExceededError):
            find_monotone_postprocessor(f, f, bound=1)

    @pytest.mark.parametrize("search", [
        find_postprocessor, find_monotone_postprocessor,
        lambda f, g: find_monotone_postprocessor(f, g, bound=1),
    ], ids=["unordered", "monotone", "monotone-over-bound"])
    def test_tables_must_share_a_domain(self, search):
        # the domain mismatch is reported even when the candidate space,
        # 2**3 here, is also over the bound
        with pytest.raises(ValidationError,
                           match="^tables must share a domain$"):
            search(identity_fn(CHAIN2), identity_fn(CHAIN3))


class TestDeeperThanRecursionLimit:
    """The searches keep their state on explicit stacks, so a carrier
    with more points than the interpreter's recursion limit works."""

    BIG = discrete(tuple(f"b{i}" for i in range(sys.getrecursionlimit() + 100)))
    UNIT = discrete(("u",))

    def test_first_equivalence(self):
        assert next(iter_equivalences(self.BIG)) == all_rel(self.BIG)

    def test_first_monotone_table(self):
        table = next(iter_monotone_tables(self.BIG, self.UNIT))
        assert table.images == (0,) * len(self.BIG)

    def test_postprocessor_in_a_space_of_one(self):
        f = constant_fn(self.BIG, self.UNIT, "u")
        p = find_monotone_postprocessor(f, identity_fn(self.BIG))
        assert p == f


def _seeded_poset(rng: random.Random, n: int) -> Poset:
    names = tuple(f"e{i}" for i in range(n))
    covers = [(names[i], names[j]) for j in range(n) for i in range(j)
              if rng.random() < 2 / n]
    return build_poset(names, covers)


@settings(max_examples=25)
@given(st.integers(10, 40), st.integers(10, 40), st.integers(0, 2 ** 32))
def test_image_closure_and_transpose_match_pair_sets(n, m, seed):
    """Both pushforwards, Poset.cols and invert against pair sets, on
    carriers far larger than the drawn posets above."""
    rng = random.Random(seed)
    dom, cod = _seeded_poset(rng, n), _seeded_poset(rng, m)
    f = FnTable(dom, cod, tuple(rng.randrange(m) for _ in range(n)))
    blocks = [rng.randrange(n // 3) for _ in range(n)]
    p = rel_of_pairs(dom, [(i, j) for i in range(n) for j in range(n)
                           if blocks[i] == blocks[j]])
    extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 4)]
    q = close(union(order_rel(dom), rel_of_pairs(dom, extra)), "refl_trans")

    def image(r):
        return {(f.images[i], f.images[j]) for i, j in idx_pairs(r)}

    assert idx_pairs(pushforward(f, p)) == \
        oracle_close(image(p), m, symmetric=True)
    assert idx_pairs(loci_pushforward(f, q)) == \
        oracle_close(image(q) | idx_pairs(order_rel(cod)), m)
    order = idx_pairs(order_rel(dom))
    assert {(i, j) for j, col in enumerate(dom.cols) for i in range(n)
            if (col >> i) & 1} == order
    assert idx_pairs(invert(q)) == {(b, a) for a, b in idx_pairs(q)}
