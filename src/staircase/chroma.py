"""Chromatic polynomials and two-colour separations of layered graphs.

Everything is exact integer arithmetic.  Chromatic polynomials come from
a frontier transfer-matrix sweep (Salas & Sokal, J. Stat. Phys. 104
(2001); Biggs, Algebraic Graph Theory, ch. 12): the vertices are added
one at a time, and a state is a partition of the frontier, the processed
vertices that still have unprocessed neighbours, into equal-colour
classes, each class a vertex bitmask.  Each state's weight, a
polynomial in k, is one packed int (``poly.pack``), so the work is
about n x (peak states) x w int sums, where w is the widest frontier
and the peak state count is at most Bell(w + 1); strip-like graphs such
as the layered staircase graphs stay cheap however many cycles they
have.  A cap on the number of live states bounds the work directly.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import DomainError, ResourceLimitError
from .graphs import SimpleGraph
from .partition import staircase
from .poly import IntPolynomial, field_bits, pack, unpack

MAX_FRONTIER_STATES = 10_000

# k(k-1)^3, the factor of the claimed closed form that does not grow with ell
_FIXED_FACTOR = IntPolynomial((0, -1, 3, -3, 1))
# chromatic polynomial of a 4-cycle divided by k(k-1)
_SQUARE_FACTOR = IntPolynomial((3, -3, 1))


def chromatic_polynomial(g: SimpleGraph) -> IntPolynomial:
    """Chromatic polynomial by a frontier transfer-matrix sweep.

    A state is the partition of the frontier into colour classes, as a
    tuple of vertex bitmasks, one per class; its weight is the
    polynomial, in k, that counts the proper colourings of the
    processed vertices that induce it.  A new vertex joins a class that
    holds none of its neighbours, or takes one of the k - (#classes)
    colours unused on the frontier.  Joins and fresh colours turn
    distinct states into distinct states, so only a step where vertices
    leave the frontier merges states: it cuts each class to the
    frontier and sorts the tuple.

    Weights are packed at k = 2^B: a sum of weights is one int sum, and
    a fresh colour turns w into (w << B) - classes*w.  B grows with the
    sweep.  A weight counts the colourings of the processed graph with
    its frontier classes merged and joined pairwise, so it is that
    graph's chromatic polynomial, and by Whitney's expansion
    P(G; k) = sum over edge sets A of (-1)^|A| k^c(A) its absolute
    coefficients sum to at most 2^(processed edges + C(frontier, 2)).
    Before a vertex whose step needs fields wider than B for that
    bound, every state is re-encoded at the larger of that width and
    2B, so a sweep re-encodes O(log) times.

    The work is about n x (peak states) x w int sums, with w the widest
    frontier and peak states at most Bell(w + 1), plus about n^2
    operations on n-bit masks to choose the vertex order; more than
    ``MAX_FRONTIER_STATES`` live states raises ResourceLimitError.

    >>> square = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    >>> chromatic_polynomial(square).format()
    'k^4 - 4k^3 + 6k^2 - 3k'
    """
    nbrs = [0] * g.n
    for e in g.edges:
        nbrs[e[0]] |= 1 << e[1]
        nbrs[e[1]] |= 1 << e[0]
    todo = (1 << g.n) - 1  # the unprocessed vertices
    front = single = 0  # the frontier, and its vertices with one unprocessed neighbour
    states: dict[tuple[int, ...], int] = {(): 1}
    bits, edges = 64, 0  # wide enough that small graphs never re-encode
    for _ in range(g.n):
        v = _next_vertex(nbrs, todo, front, single)
        bit = 1 << v
        # every processed neighbour of v is on the frontier
        near = nbrs[v] & front
        edges += near.bit_count()
        # the bit length of the Whitney bound 2^(edges + C(frontier, 2))
        need = field_bits(edges + comb(front.bit_count() + 1, 2) + 1)
        if need > bits:
            wider = max(need, 2 * bits)
            states = {masks: pack(unpack(w, bits), wider) for masks, w in states.items()}
            bits = wider
        grown: dict[tuple[int, ...], int] = {}
        for masks, weight in states.items():
            for i, mask in enumerate(masks):
                if not mask & near:
                    _accumulate(grown, masks[:i] + (mask | bit,) + masks[i + 1 :], weight)
            # a fresh colour: one of the k - classes unused on the frontier
            _accumulate(grown, masks + (bit,), (weight << bits) - len(masks) * weight)
        todo ^= bit
        front |= bit
        # only v and its processed neighbours lost unprocessed neighbours
        left, touched = 0, near | bit
        while touched:
            low = touched & -touched
            touched ^= low
            rest = nbrs[low.bit_length() - 1] & todo
            if not rest:
                left |= low
            elif not rest & rest - 1:
                single |= low
        if not left:
            states = grown
            continue
        front ^= left
        single &= front
        states = {}
        for masks, weight in grown.items():
            cut = sorted(filter(None, [mask & front for mask in masks]))
            _accumulate(states, tuple(cut), weight)
    (weight,) = states.values()
    return IntPolynomial(unpack(weight, bits))


def _next_vertex(nbrs: list[int], todo: int, front: int, single: int) -> int:
    """The next vertex of the greedy order that keeps the frontier narrow.

    It is the vertex that leaves the fewest vertices on the frontier,
    then the one with the most processed neighbours, then the lowest
    index.  ``single`` holds the frontier vertices with one unprocessed
    neighbour, those that leave with it.  Choosing it scans the
    unprocessed vertices, so a sweep that stops at the state cap has
    ordered only the vertices it added.
    """
    best_key, best = None, -1
    for v, near in enumerate(nbrs):
        if todo >> v & 1:
            closed = (near & single).bit_count()
            key = ((1 if near & todo else 0) - closed, -(near & front).bit_count())
            if best_key is None or key < best_key:
                best_key, best = key, v
    return best


def _accumulate(states: dict[tuple[int, ...], int], masks: tuple[int, ...], weight: int) -> None:
    acc = states.get(masks)
    if acc is None:
        if len(states) >= MAX_FRONTIER_STATES:
            raise ResourceLimitError(len(states) + 1, MAX_FRONTIER_STATES, "frontier states")
        states[masks] = weight
    else:
        states[masks] = acc + weight


def layered_closed_form(ell: int) -> IntPolynomial:
    """The claimed closed form k(k-1)^3 (k^2-3k+3)^m with m = C(ell-1, 2).

    Its degree is 4 + 2m, which equals the vertex count C(ell+1, 2) only
    for ell = 3 and 4; ``audits.closed_form_report`` audits it.  The
    expansion stops at ``poly.MAX_PRODUCT_BITS`` with
    ResourceLimitError, from ell = 42 on, before the power is taken.
    """
    if ell < 3:
        raise DomainError(f"closed form starts at length 3, got {ell}")
    m = comb(ell - 1, 2)
    return _FIXED_FACTOR * _SQUARE_FACTOR**m


def chromatic_number(g: SimpleGraph) -> int:
    """Least positive t with a proper t-colouring.

    Bipartite graphs are answered from a two-colouring; only the others
    need the chromatic polynomial.

    >>> chromatic_number(SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    3
    """
    if g.n == 0:
        raise DomainError("chromatic number of the empty graph is undefined here")
    if g.two_colouring() is not None:
        return 2 if g.edges else 1
    chi = chromatic_polynomial(g)
    t = 3
    while chi(t) <= 0:
        t += 1
    return t


class ColourSeparation(namedtuple("ColourSeparation", "mu kappa")):
    """Vertex counts of the two colour classes of a layered graph."""

    __slots__ = ()

    @property
    def balance(self) -> int:
        return self.mu - self.kappa


def colour_separation(ell: int) -> ColourSeparation:
    """Colour-class sizes by alternating layers at length ell >= 1; mu
    takes layer 1.

    Layer i of the staircase of length ell has ell+1-i vertices, the
    part i of staircase(ell), and the proper 2-colouring is constant on
    layers, so mu sums the odd-indexed layer sizes and kappa the
    even-indexed ones.

    >>> colour_separation(5)
    ColourSeparation(mu=9, kappa=6)
    """
    sizes = staircase(ell).parts
    return ColourSeparation(sum(sizes[0::2]), sum(sizes[1::2]))


def class_sizes_closed_form(ell: int) -> tuple[int, int]:
    """(mu, kappa) at length ell in closed form, with h = ell // 2.

    >>> class_sizes_closed_form(5), class_sizes_closed_form(6)
    ((9, 6), (12, 9))
    """
    if ell < 1:
        raise DomainError(f"need a positive length, got {ell}")
    h = ell // 2
    return ((h + 1) ** 2, h * (h + 1)) if ell % 2 else (h * (h + 1), h * h)


def shared_balance_check(k: int) -> bool:
    """Both members of the length pair (2k-1, 2k) have balance k.

    >>> shared_balance_check(3)
    True
    """
    if k < 1:
        raise DomainError(f"balance parameter must be positive, got {k}")
    odd = colour_separation(2 * k - 1).balance
    even = colour_separation(2 * k).balance
    return odd == even == k
