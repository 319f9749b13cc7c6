"""The public surface: a change to it shows up here as a deliberate diff."""

from dataclasses import fields

import infolat
import infolat.catalog
import infolat.cli
import infolat.loci
import infolat.relation

PUBLIC = [
    "CapExceededError", "FnTable", "InfolatError", "NotMonotoneError",
    "ObserverSearch", "OrderCycleError", "OrderedPartition",
    "ParseError", "PdElement", "PlotkinPoset", "Poset",
    "RealisabilityResult", "Rel", "ValidationError", "Violation",
    "Workspace", "all_rel", "block_label", "build_poset", "chain",
    "check_monotone", "close", "compatible_extension", "compose",
    "constant_fn", "convex_closure", "cp", "discrete", "enumerate_loci",
    "enumerate_loi", "er", "find_monotone_postprocessor",
    "find_postprocessor", "flat_termination_observer", "flow_check",
    "format_relation", "from_ordered_partition", "get_example",
    "identity_fn", "identity_rel", "intersect", "invert",
    "is_complete_preorder", "is_realisable", "iter_equivalences",
    "iter_monotone_tables", "kernel", "kleisli_compose",
    "kleisli_extend", "knowledge_set", "lift", "list_examples",
    "loci_join", "loci_leq", "loci_meet", "loci_pullback",
    "loci_pushforward", "loi_join", "loi_leq", "loi_meet",
    "observer_impossibility_search", "order_rel", "ordered_kernel",
    "ordered_knowledge_set", "pd_element", "pd_lift_relation",
    "pd_union", "pd_unit", "phi_realisability", "plotkin", "product",
    "pullback", "pushforward", "quotient_map", "rel_from_pairs",
    "restrict_rel", "subset_name", "ti_flow_check", "ti_via_observer",
    "to_ordered_partition", "union",
]

# bit_tuple and is_transitive stay although no library code calls them:
# benchmarks/tracing.py wraps both
REL_MEMBERS = [
    "bit_tuple", "carrier", "cols", "holds", "is_equivalence",
    "is_preorder", "is_reflexive", "is_transitive", "pairs", "rows",
    "subset_of",
]
ORDERED_PARTITION_MEMBERS = [
    "block_rows", "blocks", "carrier", "labels", "order",
]


def test_all_is_pinned_sorted_and_unique():
    assert PUBLIC == sorted(set(PUBLIC))
    assert infolat.__all__ == PUBLIC


def public_members(cls) -> list[str]:
    """Fields, methods and properties without a leading underscore."""
    names = {f.name for f in fields(cls)} | set(dir(cls))
    return sorted(name for name in names if not name.startswith("_"))


def test_class_members_are_pinned():
    assert REL_MEMBERS == sorted(set(REL_MEMBERS))
    assert ORDERED_PARTITION_MEMBERS == sorted(set(ORDERED_PARTITION_MEMBERS))
    assert public_members(infolat.Rel) == REL_MEMBERS
    assert public_members(infolat.OrderedPartition) == \
        ORDERED_PARTITION_MEMBERS


def test_every_public_name_resolves():
    for name in infolat.__all__:
        assert getattr(infolat, name) is not None, name


def test_moved_names_keep_their_old_homes():
    assert infolat.cli.Workspace is infolat.catalog.Workspace
    assert infolat.loci.is_complete_preorder is \
        infolat.relation.is_complete_preorder
