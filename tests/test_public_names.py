"""Every public name of the package stays importable from ``staircase``.

Functions move between modules as the package is reorganised; the
package namespace re-exports them, so ``from staircase import name``
keeps working for every name below.  Submodules are left out.
"""

import types

import staircase

PUBLIC = [
    "BalanceMatrix", "Binomial", "BinomialIdeal", "ColourSeparation", "DomainError",
    "HilbertData", "IntPolynomial", "InvalidIdentityError", "LayeredGraph",
    "MalformedPermutationError", "MonomialIdeal", "Partition", "PartitionIdentity",
    "Report", "ResourceLimitError", "SimpleGraph", "StaircaseError", "WeightChain",
    "WordGraph", "audit_quadric_chain_ideal", "audit_separation_ideal",
    "balance_bound_check", "balance_matrix_report", "build_layered_graph",
    "build_word_graph", "chromatic_number", "chromatic_polynomial",
    "class_sizes_closed_form", "closed_form_report", "colour_separation",
    "colour_separation_identity", "consecutive_quadric_ideal", "count_four_cycles",
    "distinct_odd_parts", "family_series_report", "graver_basis", "groebner_basis",
    "hilbert", "identity_binomial", "initial_ideal", "is_isomorphic", "is_primitive",
    "is_staircase", "layered_closed_form", "missing_edge_polynomial",
    "parity_pair_report", "parity_split", "primitive_subidentities",
    "primitive_subidentity_count", "separation_ideal", "shared_balance_check",
    "staircase", "staircase_permutation", "standard_monomial_counts",
    "structure_report", "subidentity_report", "triangular_gf_report",
    "vertex_parity_report", "weight_chain_diagram", "word_to_str",
]


def test_the_public_names_hold():
    names = sorted(
        name for name, value in vars(staircase).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
