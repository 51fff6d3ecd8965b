"""Staircase permutation words, layered graphs, and toric ideal audits."""

from .audits import (
    audit_quadric_chain_ideal,
    audit_separation_ideal,
    balance_bound_check,
    balance_matrix_report,
    closed_form_report,
    family_series_report,
    parity_pair_report,
    structure_report,
    subidentity_report,
    triangular_gf_report,
    vertex_parity_report,
)
from .binomial import Binomial
from .chroma import (
    ColourSeparation,
    chromatic_number,
    chromatic_polynomial,
    class_sizes_closed_form,
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
)
from .layered import (
    BalanceMatrix,
    LayeredGraph,
    build_layered_graph,
    is_isomorphic,
    missing_edge_polynomial,
)
from .partition import (
    Partition,
    distinct_odd_parts,
    is_staircase,
    staircase,
)
from .perm import staircase_permutation, word_to_str
from .poly import IntPolynomial
from .report import Report
from .rwgraph import (
    WordGraph,
    build_word_graph,
    count_four_cycles,
)
from .toric import (
    BinomialIdeal,
    HilbertData,
    MonomialIdeal,
    consecutive_quadric_ideal,
    groebner_basis,
    hilbert,
    identity_binomial,
    initial_ideal,
    separation_ideal,
    standard_monomial_counts,
)

__version__ = "0.1.0"
