"""Layered graphs on the diagonals of a staircase Ferrers diagram.

The cells of the staircase (l, l-1, ..., 1) sit on anti-diagonals
a + b = d; layer i (1-based) collects the diagonal with l + 1 - i
cells, so layer 1 is the long hypotenuse and layer l the corner cell.
Two cells are adjacent exactly when they share a side, which moves
between consecutive diagonals, making the graph layered with no edges
inside a layer.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError
from .graphs import SimpleGraph
from .partition import Partition, distinct_odd_parts, is_staircase, staircase
from .poly import IntPolynomial
from .report import INVARIANT, Report, check

MAX_ISO_NODES = 200_000  # vertex placements of one isomorphism search
MAX_SERIES_ROWS = 10_000


@dataclass(frozen=True)
class LayeredGraph(SimpleGraph):
    """Cells numbered layer by layer from layer 1, each layer by the
    coordinate b ascending: index j of layer i, labelled (i, j) in dot
    and json, is the cell (l - i - j, j).  Every edge joins a layer to
    the next one."""

    layer_sizes: tuple[int, ...]

    def _labelled_edges(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """The edges between (layer, index) labels, the later layer first, sorted."""
        labels = [(i, j) for i, size in enumerate(self.layer_sizes, 1) for j in range(size)]
        return sorted((labels[b], labels[a]) for a, b in self.edges)

    def to_json(self) -> dict:
        return {
            "layers": [
                [[i, j] for j in range(size)]
                for i, size in enumerate(self.layer_sizes, 1)
            ],
            "edges": [[list(a), list(b)] for a, b in self._labelled_edges()],
        }

    def to_dot(self) -> str:
        lines = ["graph layered {"]
        for i, size in enumerate(self.layer_sizes, 1):
            ids = " ".join(f'"{i}.{j}"' for j in range(size))
            lines.append(f"  {{ rank=same {ids} }}")
        for (i, j), (i2, j2) in self._labelled_edges():
            lines.append(f'  "{i}.{j}" -- "{i2}.{j2}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_layered_graph(p: Partition) -> LayeredGraph:
    """The side-sharing graph on Ferrers cells, layered by diagonal.

    >>> g = build_layered_graph(staircase(3))
    >>> g.layer_sizes, g.edge_count
    ((3, 2, 1), 6)
    """
    if not is_staircase(p):
        raise DomainError(f"{p.parts} is not a staircase")
    sizes = []
    edges = []
    first = 0  # the number of the first cell of the layer
    for d in range(p.length - 1, -1, -1):  # layer l - d, the diagonal a + b = d
        layer = [(d - b, b) for b in range(d + 1)]
        following = first + len(layer)
        for v, (a, b) in enumerate(layer, first):
            # side-sharing neighbours one diagonal down, (a - 1, b) and
            # (a, b - 1), are the cells b and b - 1 of the next layer;
            # the other two directions are the same pairs seen from the
            # far end
            if a > 0:
                edges.append((v, following + b))
            if b > 0:
                edges.append((v, following + b - 1))
        sizes.append(len(layer))
        first = following
    return LayeredGraph(first, tuple(sorted(edges)), tuple(sizes))


def is_isomorphic(g1: SimpleGraph, g2: SimpleGraph, cap: int | None = None) -> bool:
    """Isomorphism test: invariant checks, then a search along edges.

    Vertex and edge counts, degree sequences and neighbour-degree
    signatures settle most pairs.  A pair that agrees on all of them is
    matched component by component: each component of ``g1`` goes to
    the first unmatched component of ``g2`` of its size that it maps
    onto.  Isomorphism of components is an equivalence relation, so
    this greedy matching is exact, and it costs one search per pair of
    components.  The searches share one count, capped at
    ``MAX_ISO_NODES`` placements; ``cap``, if given, caps the vertices.
    A search places the vertices of a component in breadth-first order
    from its rarest signature, so every vertex after the first has an
    already placed neighbour, its anchor.  Such a vertex tries only the
    unused neighbours of its anchor's image that share its signature,
    and each try costs O(degree): the placed neighbours on either side
    must correspond.  The backtracking keeps a stack of candidate
    iterators, one per depth, so its depth is not bounded by the
    interpreter's recursion limit.

    Two triangles and a hexagon agree on every signature but not on
    component sizes.  K_{3,3} and the triangular prism are both
    connected and 3-regular, so only the search tells them apart:

    >>> hexagon = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    >>> zigzag = SimpleGraph.from_edges(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    >>> triangles = SimpleGraph.from_edges(6, [(i, (i + 2) % 6) for i in range(6)])
    >>> k33 = SimpleGraph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    >>> prism = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    >>> is_isomorphic(hexagon, zigzag), is_isomorphic(hexagon, triangles)
    (True, False)
    >>> is_isomorphic(k33, prism)
    False
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    deg_a, deg_b = g1.degrees(), g2.degrees()
    if sorted(deg_a) != sorted(deg_b):
        return False
    adj_a, adj_b = g1.adjacency(), g2.adjacency()
    # a signature, the sorted neighbour degrees, also carries the degree
    sig_a = [tuple(sorted(deg_a[w] for w in adj_a[v])) for v in range(g1.n)]
    sig_b = [tuple(sorted(deg_b[w] for w in adj_b[v])) for v in range(g2.n)]
    if sorted(sig_a) != sorted(sig_b):
        return False
    if cap is not None and g1.n > cap:
        raise ResourceLimitError(g1.n, cap, "isomorphism search vertices")
    rarity = Counter(sig_b)
    parts, anchor = _breadth_first(adj_a, [rarity[s] for s in sig_a])
    comps_b = _breadth_first(adj_b, [0] * g2.n)[0]
    image, inverse, placed = [-1] * g1.n, [-1] * g2.n, 0

    def fitting(v: int) -> Iterator[int]:
        # Filtering lazily is sound: whenever the search asks for the next
        # candidate, the placed vertices are those before v in the order,
        # as when this generator was made.
        s, nbrs_v = sig_a[v], adj_a[v]
        for u in adj_b[image[anchor[v]]]:
            if inverse[u] < 0 and sig_b[u] == s and _fits(nbrs_v, adj_b[u], image, inverse):
                yield u

    def embed(part: list[int], comp: list[int]) -> bool:
        """Map the component ``part`` of g1, in breadth-first order, onto
        the component ``comp`` of g2; a failed search leaves nothing placed."""
        nonlocal placed
        size, s = len(part), sig_a[part[0]]
        # the root has no placed neighbour, so any free vertex of comp
        # with its signature fits
        stack = [iter([u for u in comp if sig_b[u] == s])]
        while stack:
            v = part[len(stack) - 1]
            if image[v] >= 0:  # undo this depth's previous choice
                inverse[image[v]] = -1
            u = next(stack[-1], -1)
            image[v] = u  # -1 when v's candidates are spent
            if u < 0:
                stack.pop()
                continue
            inverse[u] = v
            placed += 1
            if placed > MAX_ISO_NODES:
                raise ResourceLimitError(placed, MAX_ISO_NODES, "isomorphism search placements")
            if len(stack) == size:
                return True
            stack.append(fitting(part[len(stack)]))
        return False

    for part in parts:
        for c, comp in enumerate(comps_b):
            if len(comp) == len(part) and embed(part, comp):
                comps_b[c] = []  # matched; no component is empty
                break
        else:
            return False
    return True


def _fits(
    nbrs_v: set[int], nbrs_u: set[int], image: list[int], inverse: list[int]
) -> bool:
    """Whether v may go to u: the placed neighbours of v land next to u,
    and the placed neighbours of u come from next to v."""
    for w in nbrs_v:
        x = image[w]
        if x >= 0 and x not in nbrs_u:
            return False
    for x in nbrs_u:
        w = inverse[x]
        if w >= 0 and w not in nbrs_v:
            return False
    return True


def _breadth_first(
    adj: list[set[int]], rarity: list[int]
) -> tuple[list[list[int]], list[int]]:
    """The components, each in breadth-first order, and each vertex's anchor.

    Each component starts at its vertex of least ``rarity`` (then least
    index) and that root's anchor is -1; every other vertex is anchored
    at the neighbour it was reached from.
    """
    anchor = [-2] * len(adj)
    components: list[list[int]] = []
    for root in sorted(range(len(adj)), key=rarity.__getitem__):
        if anchor[root] != -2:
            continue
        anchor[root] = -1
        component = [root]
        for v in component:  # the list grows as the loop reads it
            for w in adj[v]:
                if anchor[w] == -2:
                    anchor[w] = v
                    component.append(w)
        components.append(component)
    return components, anchor


def missing_edge_polynomial(ell: int) -> IntPolynomial:
    """Sum over layers of (layer size) * e^(layer index - 1).

    Layer k contributes l+1-k vertices at exponent l-k, so the
    coefficients read 1, 2, ..., l from the constant term up.

    >>> missing_edge_polynomial(6).format("e")
    '6e^5 + 5e^4 + 4e^3 + 3e^2 + 2e + 1'
    """
    if ell < 1:
        raise DomainError(f"need a positive length, got {ell}")
    return IntPolynomial(range(1, ell + 1))


def family_series_report(n: int) -> Report:
    """Truncations of z/((1-e)(1-ez)^2) against the per-length polynomials.

    Both sides are truncated at z^n and e^n.  The closed form's
    e-expansion is an infinite tail at every z-degree, so
    coefficient-wise agreement with sum_{l>=2} P_l(e) z^l cannot hold
    beyond the main diagonal; this report tabulates both sides and marks
    each coefficient, asserting nothing.  Its n(n+1) rows are capped at
    MAX_SERIES_ROWS.
    """
    if n < 1:
        raise DomainError(f"need a positive truncation order, got {n}")
    if n * (n + 1) > MAX_SERIES_ROWS:
        raise ResourceLimitError(n * (n + 1), MAX_SERIES_ROWS, "series rows")
    rep = Report(f"family generating function truncated at z^{n}, e^{n}")
    for m in range(1, n + 1):
        family = missing_edge_polynomial(m) if m >= 2 else IntPolynomial()
        for q in range(n + 1):
            # closed form: z * (sum_q e^q) * (sum_j (j+1) e^j z^j)
            rep.add(check(f"coefficient of z^{m} e^{q}", m if q >= m - 1 else 0, family[q]))
    rep.note(
        "closed form carries coefficient m for every e-degree >= m-1, the "
        "polynomial side starts at z^2 and stops at e-degree m-1; only the "
        "diagonal from z^2 on can agree"
    )
    return rep


def parity_pair_report(ell: int) -> Report:
    """Three equivalent parity predicates for the staircases of lengths
    ell and ell + 1, ell >= 1.

    (i) the two sizes share parity, (ii) ell is odd, (iii) the
    distinct-odd-parts partitions share length.  The claimed
    equivalence is that all three agree.
    """
    p1, p2 = staircase(ell), staircase(ell + 1)
    same_parity = p1.size % 2 == p2.size % 2
    first_odd = ell % 2 == 1
    equal_dop = len(distinct_odd_parts(p1).parts) == len(distinct_odd_parts(p2).parts)
    rep = Report(f"parity pair at lengths {ell}, {ell + 1}")
    rep.add(check("sizes share parity", same_parity, first_odd,
                  kind=INVARIANT, note="claimed equivalent to first length odd"))
    rep.add(check("distinct-odd-parts lengths equal", equal_dop, first_odd,
                  kind=INVARIANT, note="claimed equivalent to first length odd"))
    rep.add(check("all three predicates agree",
                  same_parity == first_odd == equal_dop, True, kind=INVARIANT))
    return rep


def vertex_parity_report(ell: int) -> Report:
    """Audit the claimed size parity of the pair starting at odd ell.

    The claim under audit: both sizes even when ell = 1 mod 4, both odd
    when ell = 3 mod 4.  Observed parity is reported next to it.
    """
    if ell % 2 == 0:
        raise DomainError(f"the parity classes are claimed for odd lengths, got {ell}")
    size1, size2 = staircase(ell).size, staircase(ell + 1).size
    observed = "even-vertices" if size1 % 2 == 0 else "odd-vertices"
    claimed = "even-vertices" if ell % 4 == 1 else "odd-vertices"
    rep = Report(f"vertex-count parity class at ell = {ell}")
    rep.add(check("sizes share parity", size1 % 2 == size2 % 2, True, kind=INVARIANT))
    rep.add(check("parity class", observed, claimed,
                  note=f"sizes {size1}, {size2}"))
    return rep


@dataclass(frozen=True)
class BalanceMatrix:
    """The 2x2 matrix [[k^2, k^2+k], [k^2-k, k^2]] attached to balance k."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"balance parameter must be positive, got {self.k}")

    @property
    def entries(self) -> tuple[tuple[int, int], tuple[int, int]]:
        k = self.k
        return ((k * k, k * k + k), (k * k - k, k * k))

    @property
    def determinant(self) -> int:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def column_sums(self) -> tuple[int, int]:
        (a, b), (c, d) = self.entries
        return (a + c, b + d)


def balance_matrix_report(k: int) -> Report:
    m = BalanceMatrix(k)
    rep = Report(f"balance matrix at k = {k}")
    rep.add(check("determinant", m.determinant, k * k, kind=INVARIANT))
    rep.add(
        check(
            "column sums",
            m.column_sums(),
            (staircase(2 * k - 1).size, staircase(2 * k).size),
            kind=INVARIANT,
            note="sizes of the shared-balance staircase pair",
        )
    )
    return rep
