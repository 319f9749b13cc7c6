"""Finite information lattices over posets.

Carriers are finite posets; uncertainty about a value is an equivalence
relation (flat view) or a complete preorder (order-aware view) on the
carrier.  The package computes kernels and knowledge sets of monotone
tables, checks flow properties and their termination-insensitive
variant, decides realisability, enumerates whole lattices at desk
scale, and builds finite convex powerdomains.
"""

from .catalog import Workspace, get_example, list_examples
from .errors import (CapExceededError, InfolatError, NotMonotoneError,
                     OrderCycleError, ParseError, ValidationError)
from .loci import (RealisabilityResult, cp, enumerate_loci, enumerate_loi,
                   er, find_monotone_postprocessor, is_complete_preorder,
                   is_realisable, iter_equivalences, loci_join, loci_leq,
                   loci_meet, loci_pullback, loci_pushforward, ordered_kernel,
                   ordered_knowledge_set, phi_realisability, quotient_map)
from .loi import (Violation, find_postprocessor, flow_check, kernel,
                  knowledge_set, loi_join, loi_leq, loi_meet, pullback,
                  pushforward)
from .poset import (FnTable, Poset, build_poset, chain, check_monotone,
                    constant_fn, discrete, identity_fn, iter_monotone_tables,
                    lift, product)
from .powerdomain import (PdElement, PlotkinPoset, convex_closure,
                          kleisli_compose, kleisli_extend, pd_element,
                          pd_lift_relation, pd_union, pd_unit, plotkin,
                          subset_name)
from .relation import (OrderedPartition, Rel, all_rel, block_label, close,
                       compose, format_relation, from_ordered_partition,
                       identity_rel, intersect, invert, order_rel,
                       rel_from_pairs, restrict_rel, to_ordered_partition,
                       union)
from .tini import (ObserverSearch, compatible_extension,
                   flat_termination_observer, observer_impossibility_search,
                   ti_flow_check, ti_via_observer)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "FnTable", "InfolatError", "NotMonotoneError",
    "ObserverSearch", "OrderCycleError", "OrderedPartition", "ParseError",
    "PdElement", "PlotkinPoset", "Poset", "RealisabilityResult", "Rel",
    "ValidationError", "Violation", "Workspace", "all_rel", "block_label",
    "build_poset", "chain", "check_monotone", "close",
    "compatible_extension", "compose", "constant_fn", "convex_closure",
    "cp", "discrete", "enumerate_loci", "enumerate_loi", "er",
    "find_monotone_postprocessor", "find_postprocessor",
    "flat_termination_observer", "flow_check", "format_relation",
    "from_ordered_partition", "get_example", "identity_fn", "identity_rel",
    "intersect", "invert", "is_complete_preorder", "is_realisable",
    "iter_equivalences", "iter_monotone_tables", "kernel",
    "kleisli_compose", "kleisli_extend", "knowledge_set", "lift",
    "list_examples", "loci_join", "loci_leq", "loci_meet", "loci_pullback",
    "loci_pushforward", "loi_join", "loi_leq", "loi_meet",
    "observer_impossibility_search", "order_rel", "ordered_kernel",
    "ordered_knowledge_set", "pd_element", "pd_lift_relation", "pd_union",
    "pd_unit", "phi_realisability", "plotkin", "product", "pullback",
    "pushforward", "quotient_map", "rel_from_pairs", "restrict_rel",
    "subset_name", "ti_flow_check", "ti_via_observer",
    "to_ordered_partition", "union",
]
