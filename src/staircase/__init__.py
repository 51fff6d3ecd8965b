"""Staircase permutation words, layered graphs, and toric ideal audits."""

from .binomial import Binomial
from .chroma import (
    ColourSeparation,
    balance_bound_check,
    chromatic_number,
    chromatic_polynomial,
    class_sizes_closed_form,
    closed_form_report,
    colour_separation,
    layered_closed_form,
    shared_balance_check,
)
from .errors import (
    DomainError,
    InvalidIdentityError,
    MalformedPermutationError,
    ResourceLimitError,
    StaircaseError,
)
from .graphs import SimpleGraph, WeightChain, weight_chain_diagram
from .identities import (
    PartitionIdentity,
    colour_separation_identity,
    graver_basis,
    is_primitive,
    parity_split,
    primitive_subidentities,
    primitive_subidentity_count,
    subidentity_report,
)
from .layered import (
    BalanceMatrix,
    LayeredGraph,
    balance_matrix_report,
    build_layered_graph,
    family_series_report,
    is_isomorphic,
    missing_edge_polynomial,
    parity_pair_report,
    vertex_parity_report,
)
from .partition import (
    Partition,
    distinct_odd_parts,
    is_staircase,
    staircase,
    triangular_gf_report,
)
from .perm import staircase_permutation, word_to_str
from .poly import IntPolynomial
from .report import Report
from .rwgraph import (
    WordGraph,
    build_word_graph,
    count_four_cycles,
    structure_report,
)
from .toric import (
    BinomialIdeal,
    HilbertData,
    MonomialIdeal,
    audit_quadric_chain_ideal,
    audit_separation_ideal,
    consecutive_quadric_ideal,
    groebner_basis,
    hilbert,
    identity_binomial,
    initial_ideal,
    separation_ideal,
    standard_monomial_counts,
)

__version__ = "0.1.0"
