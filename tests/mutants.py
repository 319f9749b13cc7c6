"""Hand-made mutants of the library, each killed by the tests named with
it when it was first run; ``tests/run_mutants.py`` runs them again.

Plain data, not collected by pytest.  Each entry is ``(file, old, new,
tests)``: ``file`` is relative to the repository root, ``old`` occurs
exactly once in it (``tests/test_mutants.py`` checks that), ``new``
replaces it, and ``tests`` are pytest node ids of which at least one
must fail on the mutated copy.
"""

MONOTONE_TABLES = ["tests/test_poset.py::TestEnumeration",
                   "tests/test_loci.py::TestMonotonePostprocessor"]

MUTANTS = [
    # _monotone_tables: an earlier image below the position is a lower
    # bound (its up-set), one above it an upper bound (its down-set)
    ("src/infolat/poset.py",
     "            mask &= cod.rows[images[q]]\n"
     "        for q in bits(dom.rows[pos] & earlier):\n"
     "            mask &= cod.cols[images[q]]\n",
     "            mask &= cod.cols[images[q]]\n"
     "        for q in bits(dom.rows[pos] & earlier):\n"
     "            mask &= cod.rows[images[q]]\n",
     MONOTONE_TABLES),
    # _monotone_tables: the position fixed last left out of ``earlier``
    ("src/infolat/poset.py",
     "        earlier = (1 << pos) - 1\n",
     "        earlier = (1 << pos - 1) - 1\n",
     MONOTONE_TABLES),
    # _monotone_tables: earlier positions above the current one unchecked,
    # which no domain declared in an order extending its order can show
    ("src/infolat/poset.py",
     "        for q in bits(dom.rows[pos] & earlier):\n"
     "            mask &= cod.cols[images[q]]\n",
     "",
     ["tests/test_poset.py::TestEnumeration::"
      "test_matches_pairwise_oracle_when_index_order_is_not_the_order",
      "tests/test_loci.py::TestMonotonePostprocessor::"
      "test_matches_pairwise_oracle_when_index_order_is_not_the_order"]),
    # image_rows: a later member of a fibre overwrites the earlier ones
    ("src/infolat/poset.py",
     "        out[v] |= row\n",
     "        out[v] = row\n",
     ["tests/test_kernels.py::test_image_rows_matches_pair_sets",
      "tests/test_acceptance.py"]),
    # pull_rows: no value counts as hit, so every row is emptied
    ("src/infolat/poset.py",
     "        hit |= 1 << v\n",
     "        hit |= 0\n",
     ["tests/test_kernels.py::test_pull_rows_matches_pair_sets"]),
    # row_covers: the strict order, not its covers
    ("src/infolat/poset.py",
     "for j in bits(up & ~skip)]",
     "for j in bits(up)]",
     ["tests/test_kernels.py::test_covers_match_pairwise",
      "tests/test_poset.py::TestConstruction"]),
    # _quotient: classes in row_runs order, not by least member
    ("src/infolat/relation.py",
     "    runs = sorted(row_runs(q.rows))\n",
     "    runs = row_runs(q.rows)\n",
     ["tests/test_kernels.py::test_ordered_partition_block_rows",
      "tests/test_relation.py::TestOrderedPartition"]),
    # compatible_extension: composed with the up-sets, not the down-sets
    ("src/infolat/tini.py",
     "compose_nested_rows([up & tops for up in q.rows], q.cols))",
     "compose_nested_rows([up & tops for up in q.rows], q.rows))",
     ["tests/test_tini.py::TestCompatibleExtension",
      "tests/test_tini.py::TestTiFlow"]),
    # the observer search: image rows of the codomain values reversed
    ("src/infolat/tini.py",
     "g.images, len(cod))\n",
     "g.images, len(cod))[::-1]\n",
     ["tests/test_tini.py::TestObserverSearch"]),
]
