"""Layered graphs on the diagonals of a staircase Ferrers diagram.

The cells of the staircase (l, l-1, ..., 1) sit on anti-diagonals
a + b = d; layer i (1-based) collects the diagonal with l + 1 - i
cells, so layer 1 is the long hypotenuse and layer l the corner cell.
Two cells are adjacent exactly when they share a side, which moves
between consecutive diagonals, making the graph layered with no edges
inside a layer.

The layered graph at length l is the move graph on the reduced words of
``staircase_permutation(l + 1)``, and ``family_image`` is an explicit
isomorphism: it reads each word's cell from where the letters l and
l - 1 first occur and from its last letter.  The audits check that map
edge by edge.  ``is_isomorphic`` is the general backtracking search for
any two graphs, a library function that no report runs.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator

from .errors import DomainError, ResourceLimitError
from .graphs import SimpleGraph
from .partition import Partition, is_staircase, staircase  # staircase: the doctests
from .poly import IntPolynomial

MAX_ISO_NODES = 200_000  # vertex placements of one isomorphism search


class LayeredGraph(namedtuple("LayeredGraph", "n edges layer_sizes"), SimpleGraph):
    """Cells numbered layer by layer from layer 1, each layer by the
    coordinate b ascending: index j of layer i, labelled (i, j) in dot
    and json, is the cell (l - i - j, j).  Every edge joins a layer to
    the next one."""

    __slots__ = ()

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
    edges = []
    first = 0  # the number of the first cell of the layer
    for d in range(p.length - 1, -1, -1):  # layer l - d, the diagonal a + b = d
        for v in range(first, first + d + 1):
            # v is the cell (a, b) = (d - b, b), b = v - first; its
            # side-sharing neighbours one diagonal down, (a, b - 1) and
            # (a - 1, b), are the cells b - 1 and b of the next layer,
            # v + d and v + d + 1, so the edges come in order; the other
            # two directions are the same pairs seen from the far end
            if v > first:
                edges.append((v, v + d))
            if v < first + d:
                edges.append((v, v + d + 1))
        first += d + 1
    return LayeredGraph(first, tuple(edges), tuple(range(p.length, 0, -1)))


def family_image(ell: int, words: Iterable[tuple[int, ...]]) -> list[int]:
    """The vertex of ``build_layered_graph(staircase(ell))`` that each
    reduced word of ``staircase_permutation(ell + 1)`` goes to.

    Word w goes to the cell (a, b): b is the index of the first letter
    ell, and a is 0 if w ends with ell - 2, else ell minus the index of
    the first ell - 1.

    Proof sketch.  The permutation's ell + 2 inversions are entry 1
    against every other entry, and entry ell + 1 against ell - 1 and
    ell.  So each letter of a reduced word moves entry 1 right, through
    the letters 1, 2, ..., ell in turn, or entry ell + 1 left, through
    ell, ell - 1, ell - 2; the letter where the two cross does both.
    Entry ell + 1 meets entry 1 at its first, second or third step:

    - first: the one word 1 2 ... ell (ell - 1) (ell - 2), the cell
      (0, ell - 1);
    - second: its step ell falls into one of the ell - 1 gaps of
      1 ... ell - 2, b letters after the start; the crossing ell - 1
      follows, then ell - 2 and ell in either order, a = 0 or 1;
    - third: its steps ell and ell - 1 fall into the gaps of
      1 ... ell - 3 at indices b < c, followed by ell - 2, ell - 1, ell:
      a = ell - c runs over 2 .. ell - 1 - b.

    That is every cell once.  A commutation slides a step of entry
    ell + 1 past one of entry 1, or swaps the last two letters of the
    second kind: b or a moves by one.  A braid turns ell (ell - 1) ell
    into (ell - 1) ell (ell - 1), taking (0, ell - 2) to (0, ell - 1),
    or (ell - 2) (ell - 1) (ell - 2) into (ell - 1) (ell - 2) (ell - 1),
    taking (1, b) to (2, b).  So every move joins side-sharing cells,
    and as both graphs have ell(ell - 1) edges, the map is an
    isomorphism.

    >>> family_image(3, [(1, 2, 3, 2, 1), (1, 3, 2, 1, 3), (1, 3, 2, 3, 1),
    ...                  (3, 1, 2, 1, 3), (3, 1, 2, 3, 1), (3, 2, 1, 2, 3)])
    [2, 1, 4, 3, 5, 0]
    """
    if ell < 3:
        raise DomainError(f"the family map starts at ell = 3, got {ell}")
    cells = ((0 if w[-1] == ell - 2 else ell - w.index(ell - 1), w.index(ell)) for w in words)
    # as build_layered_graph numbers them: the diagonals longer than that
    # of (a, b) hold a + b + 2, ..., ell cells, and then b comes
    return [sum(range(a + b + 2, ell + 1)) + b for a, b in cells]


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
    adj_a, adj_b = g1.adjacency(), g2.adjacency()
    deg_a, deg_b = list(map(len, adj_a)), list(map(len, adj_b))
    if sorted(deg_a) != sorted(deg_b):
        return False
    # a signature, the sorted neighbour degrees, also carries the degree
    sig_a = [tuple(sorted(map(deg_a.__getitem__, nbrs))) for nbrs in adj_a]
    sig_b = [tuple(sorted(map(deg_b.__getitem__, nbrs))) for nbrs in adj_b]
    rarity = Counter(sig_b)
    if Counter(sig_a) != rarity:
        return False
    if cap is not None and g1.n > cap:
        raise ResourceLimitError(g1.n, cap, "isomorphism search vertices")
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


class BalanceMatrix(namedtuple("BalanceMatrix", "k")):
    """The 2x2 matrix [[k^2, k^2+k], [k^2-k, k^2]] attached to balance k."""

    __slots__ = ()

    def __new__(cls, k: int) -> BalanceMatrix:
        if k < 1:
            raise DomainError(f"balance parameter must be positive, got {k}")
        return tuple.__new__(cls, (k,))

    @classmethod
    def _make(cls, fields) -> BalanceMatrix:
        return cls(*fields)

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
