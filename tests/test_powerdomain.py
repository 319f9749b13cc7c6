"""Convex powerdomains: Egli-Milner extension, monad laws, TI lifting."""

import pytest
from hypothesis import given, settings, strategies as st

from infolat import (CapExceededError, FnTable, PdElement, Rel,
                     ValidationError, all_rel, check_monotone, identity_fn,
                     discrete, enumerate_loci,
                     compatible_extension, convex_closure,
                     flow_check, get_example, is_complete_preorder,
                     kleisli_compose, kleisli_extend, order_rel, pd_element,
                     pd_lift_relation, pd_union, pd_unit, plotkin, subset_name,
                     ti_flow_check)
from infolat.powerdomain import _all_subset_masks, _convex_mask, _em_rows
from helpers import (BOOLBOT, CHAIN2, CHAIN3, DIAMOND, DISC2, FAMILY, VEE,
                     complete_preorders, em_extension, monotone_fns,
                     preorders, random_poset, random_rows, seeded,
                     subset_masks_sorted)


@pytest.fixture(scope="module")
def nd():
    return get_example("nd-bool")


def fns_into_pd(dom, base):
    """Monotone tables from dom into plotkin(base).  Like the bundle in
    ``nd``, the powerdomain is built when a test runs, not at import, so
    a fault in it fails those tests and the rest of the file still runs."""
    return st.deferred(lambda: monotone_fns(dom, plotkin(base)))


def oracle_convex(members: set[str], base) -> set[str]:
    out = set(members)
    for b in base.elements:
        if any(base.leq(a, b) for a in members) and \
           any(base.leq(b, c) for c in members):
            out.add(b)
    return out


def oracle_em(r, xs: set[str], ys: set[str]) -> bool:
    fwd = all(any(r.holds(x, y) for y in ys) for x in xs)
    bwd = all(any(r.holds(x, y) for x in xs) for y in ys)
    return fwd and bwd


def members_of(base, mask: int) -> set[str]:
    return {x for i, x in enumerate(base.elements) if (mask >> i) & 1}


def subsets_of(base):
    names = base.elements
    for mask in range(1, 1 << len(names)):
        yield {names[i] for i in range(len(names)) if (mask >> i) & 1}


class TestConvexClosure:
    @pytest.mark.parametrize("base", (CHAIN3, VEE, DIAMOND, BOOLBOT),
                             ids=lambda p: "-".join(p.elements[:2]))
    def test_matches_oracle(self, base):
        for xs in subsets_of(base):
            assert set(convex_closure(xs, base)) == oracle_convex(xs, base)

    def test_idempotent_and_extensive(self):
        for xs in subsets_of(DIAMOND):
            cv = convex_closure(xs, DIAMOND)
            assert xs <= set(cv)
            assert convex_closure(cv, DIAMOND) == cv

    def test_closure_fills_diamond(self):
        assert set(convex_closure({"0", "1"}, DIAMOND)) == {"0", "a", "b", "1"}


class TestPlotkinCarrier:
    def test_bool_bot_has_seven_points(self):
        p = plotkin(BOOLBOT)
        assert len(p.elements) == 7

    def test_diamond_has_twelve_points(self):
        # 15 subsets minus the three spanning {0,1} without a or b
        assert len(plotkin(DIAMOND).elements) == 12

    def test_exactly_the_convex_subsets(self):
        p = plotkin(VEE)
        got = {frozenset(subset_name(VEE, m).split("+")) for m in p.masks}
        want = {frozenset(xs) for xs in subsets_of(VEE)
                if oracle_convex(xs, VEE) == xs}
        assert got == want

    @pytest.mark.parametrize("base", (CHAIN2, DISC2, BOOLBOT, VEE),
                             ids=lambda p: "-".join(p.elements[:2]))
    def test_order_matches_em_oracle(self, base):
        p = plotkin(base)
        r = order_rel(base)
        for i, mi in enumerate(p.masks):
            xs = set(subset_name(base, mi).split("+"))
            for j, mj in enumerate(p.masks):
                ys = set(subset_name(base, mj).split("+"))
                assert p.leq_idx(i, j) == oracle_em(r, xs, ys)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_masks_built_in_sorted_order(self, n):
        base = discrete(tuple(f"e{i}" for i in range(n)))
        assert _all_subset_masks(base) == subset_masks_sorted(n)

    def test_colliding_subset_names_get_suffixes(self):
        # the subsets {a b} and {a+b} both join to "a+b"
        base = discrete(("a", "b", "a+b"))
        p = plotkin(base, cap=4)
        assert p.elements == ("a+b", "b", "b+a+b", "a", "a+a+b", "a+b#2",
                              "a+b+a+b")
        ab = pd_element(base, ["a", "b"])
        assert p.elements[p.mask_index[ab.mask]] == "a+b#2"
        assert ab.name == subset_name(base, ab.mask) == "a+b"
        assert [subset_name(base, m) for m in p.masks].count("a+b") == 2

    def test_cap(self):
        with pytest.raises(CapExceededError):
            plotkin(discrete(tuple("abcdef")))

    def test_em_rows_read_a_poset_as_its_order(self):
        # plotkin passes the base itself, read through rows
        for base in FAMILY:
            masks = _all_subset_masks(base)
            assert _em_rows(base, masks) == _em_rows(order_rel(base), masks)

    def test_em_extension_matches_oracle(self):
        r = order_rel(VEE)
        em = em_extension(r)
        names = em.carrier.elements
        masks = _all_subset_masks(VEE)
        for i, mi in enumerate(masks):
            xs = set(names[i].split("+"))
            for j, mj in enumerate(masks):
                ys = set(names[j].split("+"))
                assert bool((em.rows[i] >> j) & 1) == oracle_em(r, xs, ys)


class TestElementsAndUnion:
    def test_pd_element_requires_convex_nonempty(self):
        with pytest.raises(ValidationError):
            pd_element(DIAMOND, [])
        with pytest.raises(ValidationError):
            pd_element(DIAMOND, ["0", "1"])
        assert pd_element(DIAMOND, ["0", "a", "b", "1"]).name == "0+a+b+1"

    def test_mask_must_lie_in_base(self):
        with pytest.raises(ValidationError,
                           match="^membership mask outside the base carrier$"):
            PdElement(CHAIN2, 0b100)

    def test_union_needs_one_base(self):
        with pytest.raises(ValidationError,
                           match="^elements live over different bases$"):
            pd_union(pd_element(CHAIN2, ["0"]), pd_element(DISC2, ["p"]))

    def test_union_is_choice(self):
        x = pd_element(BOOLBOT, ["T"])
        y = pd_element(BOOLBOT, ["F"])
        assert pd_union(x, y).members == ("T", "F")
        bot = pd_element(BOOLBOT, ["⊥"])
        assert set(pd_union(bot, x).members) == {"⊥", "T"}

    def test_union_closes_convexly(self):
        lo = pd_element(DIAMOND, ["0"])
        hi = pd_element(DIAMOND, ["1"])
        assert set(pd_union(lo, hi).members) == {"0", "a", "b", "1"}

    def test_union_laws(self):
        elems = [pd_element(VEE, subset_name(VEE, m).split("+"))
                 for m in plotkin(VEE).masks]
        for x in elems:
            assert pd_union(x, x) == x
            for y in elems:
                assert pd_union(x, y) == pd_union(y, x)


class TestKleisli:
    def test_unit_embeds_singletons(self):
        u = pd_unit(BOOLBOT)
        assert u("T") == "T"
        assert u.is_monotone

    @given(fns_into_pd(DISC2, BOOLBOT))
    def test_left_unit(self, f):
        assert kleisli_compose(pd_unit(DISC2), f).images == f.images

    @given(fns_into_pd(DISC2, BOOLBOT))
    def test_right_unit(self, f):
        assert kleisli_compose(f, pd_unit(BOOLBOT)).images == f.images

    @given(fns_into_pd(DISC2, CHAIN2),
           fns_into_pd(CHAIN2, BOOLBOT),
           fns_into_pd(BOOLBOT, CHAIN3))
    def test_associativity(self, f, g, h):
        lhs = kleisli_compose(kleisli_compose(f, g), h)
        rhs = kleisli_compose(f, kleisli_compose(g, h))
        assert lhs.images == rhs.images

    @pytest.mark.parametrize("f, g", [
        (lambda: pd_unit(DISC2), lambda: pd_unit(CHAIN2)),
        (lambda: identity_fn(CHAIN2), lambda: pd_unit(CHAIN2)),
    ], ids=["other-base", "not-set-valued"])
    def test_compose_needs_matching_carriers(self, f, g):
        with pytest.raises(ValidationError, match="^left codomain must be "
                           "the powerdomain of the right domain$"):
            kleisli_compose(f(), g())

    @given(fns_into_pd(CHAIN2, BOOLBOT))
    def test_extension_is_monotone(self, f):
        ext = kleisli_extend(f)
        assert ext.is_monotone
        # extension agrees with f on singletons
        u = pd_unit(CHAIN2)
        assert u.then(ext).images == f.images

    def test_extend_needs_powerdomain_codomain(self):
        with pytest.raises(ValidationError):
            kleisli_extend(get_example("V").functions["f1"])


class TestLiftedRelations:
    @pytest.mark.parametrize("base", (CHAIN2, DISC2, BOOLBOT),
                             ids=lambda p: "-".join(p.elements[:2]))
    def test_lift_preserves_completeness(self, base):
        for q in enumerate_loci(base):
            assert is_complete_preorder(pd_lift_relation(q))

    def test_lift_requires_complete(self):
        from infolat import identity_rel
        with pytest.raises(ValidationError):
            pd_lift_relation(identity_rel(BOOLBOT))

    @pytest.mark.parametrize("base", (CHAIN2, DISC2, BOOLBOT, VEE),
                             ids=lambda p: "-".join(p.elements[:2]))
    def test_twiddle_commutes_with_em(self, base):
        # on the full subset space: ~EM(R) = EM(~R) for preorders R
        for q in enumerate_loci(base):
            lhs = compatible_extension(em_extension(q))
            rhs = em_extension(compatible_extension(q))
            assert lhs == rhs

    @pytest.mark.parametrize("base", (CHAIN2, DISC2, BOOLBOT, VEE),
                             ids=lambda p: "-".join(p.elements[:2]))
    def test_twiddle_restricts_to_convex_sets(self, base):
        # ~P(Q) equals EM(~Q) read off at convex positions
        for q in enumerate_loci(base):
            carrier = plotkin(base)
            lifted = compatible_extension(pd_lift_relation(q))
            full = _em_rows(compatible_extension(q), list(carrier.masks))
            assert lifted.rows == full

    def test_convex_closure_respects_twiddle(self):
        # Cv(X) ~P(Q) Cv(Y) iff X ~EM(Q) Y, over every subset pair
        base = BOOLBOT
        q = order_rel(base)
        carrier = plotkin(base)
        lifted = compatible_extension(pd_lift_relation(q))
        twiddled = em_extension(compatible_extension(q))
        masks = _all_subset_masks(base)
        for i, mi in enumerate(masks):
            ci = carrier.mask_index[_convex_mask(base, mi)]
            for j, mj in enumerate(masks):
                cj = carrier.mask_index[_convex_mask(base, mj)]
                assert ((lifted.rows[ci] >> cj) & 1
                        == (twiddled.rows[i] >> j) & 1)


class TestNondeterministicBool:
    def test_choice_program_is_ti_secure(self, nd):
        c = nd.functions["C"]
        bool_ = nd.posets["Bool"]
        assert ti_flow_check(c, all_rel(bool_), order_rel(c.cod)) is None

    def test_but_not_sensitively_secure(self, nd):
        c = nd.functions["C"]
        bool_ = nd.posets["Bool"]
        assert flow_check(c, all_rel(bool_), order_rel(c.cod)) is not None

    def test_pure_leak_rejected_even_ti(self, nd):
        bool_ = nd.posets["Bool"]
        pbool = nd.posets["PBool"]
        leak = check_monotone(bool_, pbool, {"True": "T", "False": "F"})
        assert ti_flow_check(leak, all_rel(bool_),
                             order_rel(pbool)) is not None

    def test_lower_diamond_is_compatible(self, nd):
        pbool = nd.posets["PBool"]
        ext = compatible_extension(order_rel(pbool))
        assert ext.holds("⊥+T", "⊥+F")
        assert not ext.holds("T", "F")


class TestRowUnionsAgainstPairSets:
    """The set images behind the hull, the Egli-Milner rows and the
    Kleisli extension, against the name-set oracles above."""

    @given(seeded(), st.integers(1, 6))
    def test_convex_mask_on_every_mask(self, rng, n):
        base = random_poset(rng, n)
        for mask in range(1 << n):
            assert members_of(base, _convex_mask(base, mask)) == \
                oracle_convex(members_of(base, mask), base)

    @settings(max_examples=40)
    @given(seeded(), st.integers(1, 5))
    def test_em_rows_on_raw_relations(self, rng, n):
        # arbitrary rows: neither reflexive nor transitive in general
        base = random_poset(rng, n)
        r = Rel(base, random_rows(rng, n))
        masks = range(1, 1 << n)
        rows = _em_rows(r, masks)
        for i, xm in enumerate(masks):
            xs = members_of(base, xm)
            for j, ym in enumerate(masks):
                assert bool((rows[i] >> j) & 1) == \
                    oracle_em(r, xs, members_of(base, ym))

    @given(seeded(), st.integers(1, 3), st.integers(1, 3))
    def test_kleisli_extend_is_hull_of_union_of_images(self, rng, m, n):
        dom, base = random_poset(rng, m), random_poset(rng, n)
        target = plotkin(base)
        images = tuple(rng.randrange(len(target.elements)) for _ in range(m))
        ext = kleisli_extend(FnTable(dom, target, images))
        for xm, t in zip(ext.dom.masks, ext.images):
            union = set()
            for i in range(m):
                if (xm >> i) & 1:
                    union |= members_of(base, target.masks[images[i]])
            assert members_of(base, target.masks[t]) == \
                oracle_convex(union, base)
