"""Binomial ideals, a Buchberger engine for them, and Hilbert data.

The two family ideals, the separation ideal and the consecutive
quadrics, are built here; ``audits`` holds the reports on them.

Two engines compute every dimension and degree the audits report.
Both run on packed exponent words (``binomial.Words``), one int per
monomial, and build tuples only at entry and exit.

Buchberger never leaves pure differences: S-pairs of binomials are
binomials and reduction is monomial rewriting, so coefficients stay
+1/-1 throughout.  Pairs go smallest lcm first, and two criteria skip
pairs that need no reduction: coprime leads, and Buchberger's chain
criterion, which tests each element already popped with both sides of
the pair before any reduction.  A pair that passes costs two rewrites.

The Hilbert numerator of the initial ideal comes from the
pivot-variable recursion N(I) = (1 - t^e)*N(J) + t^e*N(I : x^e), J the
generators x does not divide and e the least positive exponent of x
among the others.  It splits an ideal whose generators fall into
groups on disjoint variables into one factor per group, and closes a
node of at most five generators by Taylor's sum over their subsets.
Numerators are packed ints (``poly.pack``), so a node combines its
children in one int shift, sum or product.  Each node does O(gens^2)
word operations besides that arithmetic, a leaf at most 2^5 lcms; the
number of nodes can grow exponentially with the generator count.
MAX_HILBERT_ENTRIES bounds the exponent entries of the nodes of three
or more generators a call starts, MAX_HILBERT_DEPTH their nesting.
``standard_monomial_counts`` counts the same series directly on
exponent tuples, in at most MAX_COUNT_MASKS live masks and about
nvars * masks * (top+1) * (upto+1) additions, top a variable's largest
generator exponent capped at upto; it shares no code with the recursion.

Dimension always means the affine Krull dimension of the quotient.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from itertools import accumulate
from math import comb
from operator import add, or_

from .binomial import Binomial, Expo, Pair, Words, reduce_monomial
from .errors import DomainError, ResourceLimitError
from .identities import PartitionIdentity, colour_separation_identity, parity_split
from .poly import IntPolynomial, field_bits, unpack

MAX_BASIS = 256
MAX_HILBERT_ENTRIES = 20_000_000  # exponent entries of the nodes one call starts
MAX_HILBERT_DEPTH = 500  # nested nodes of three or more generators, leaves included
MAX_COUNT_MASKS = 10_000  # live generator masks of one direct monomial count
_TAYLOR_GENS = 5  # a Hilbert node of at most this many generators is a Taylor leaf


class BinomialIdeal(namedtuple("BinomialIdeal", "nvars generators weights")):
    """A list of binomial generators with one weight per variable."""

    __slots__ = ()

    def __new__(cls, nvars: int, generators: tuple[Binomial, ...],
                weights: tuple[int, ...]) -> BinomialIdeal:
        for g in generators:
            if g.nvars != nvars:
                raise DomainError(
                    f"generator on {g.nvars} variables in a {nvars}-variable ideal"
                )
        if len(weights) != nvars:
            raise DomainError(f"{len(weights)} weights for {nvars} variables")
        return tuple.__new__(cls, (nvars, generators, weights))

    @classmethod
    def _make(cls, fields) -> BinomialIdeal:
        return cls(*fields)


class MonomialIdeal(namedtuple("MonomialIdeal", "nvars gens")):
    """Minimal monomial generators, kept as an antichain under division.

    >>> MonomialIdeal(2, ((1, 2), (1, 1), (0, 3))).gens
    ((1, 1), (0, 3))
    """

    __slots__ = ()

    def __new__(cls, nvars: int, gens) -> MonomialIdeal:
        for g in gens:
            if len(g) != nvars:
                raise DomainError(
                    f"monomial on {len(g)} variables in a {nvars}-variable ideal"
                )
        return tuple.__new__(cls, (nvars, _minimalize(nvars, gens)))

    @classmethod
    def _make(cls, fields) -> MonomialIdeal:
        return cls(*fields)


def _minimalize(nvars: int, gens) -> tuple[Expo, ...]:
    uniq = set(map(tuple, gens))
    words = Words.holding(nvars, max((max(g, default=0) for g in uniq), default=0))
    return tuple(_antichain(words, [(sum(g), words.pack(g), g) for g in uniq]))


def _antichain(words: Words, items: list) -> list:
    """The payloads of the sorted (degree, word, payload) items whose
    word no earlier item's word divides: the minimal words, in (degree,
    exponent tuple) order."""
    kept: list[tuple[int, object]] = []
    for _, w, x in sorted(items):
        if not any(words.divides(h, w) for h, _ in kept):
            kept.append((w, x))
    return [x for _, x in kept]


def groebner_basis(gens) -> tuple[Binomial, ...]:
    """Reduced grevlex Groebner basis of a binomial list, canonically sorted.

    Each element x^u - x^v has its grevlex lead x^u first.

    Pairs are popped smallest lcm first.  Two criteria skip a pair
    (i, j) without reducing its S-binomial:

    * coprime leads: the S-binomial reduces to zero (Buchberger's first
      criterion);
    * chain: some other element k has a lead dividing lcm(i, j), and
      both (i, k) and (j, k) were popped already (Buchberger's second
      criterion, in the form of Becker and Weispfenning).  Each element
      keeps the set of elements it was popped with, and the check
      tests the intersection of the pair's two sets.

    Elements are lead and trail words with their degrees; words compare
    as ints in the order of their exponent tuples, so neither the queue
    nor the result depends on the field width.  Fields start just wide
    enough for the largest input exponent, and an S-pair side or rewrite
    that outgrows them restarts the computation one byte per field
    wider.  The result is auto-reduced (minimal leads, each tail reduced
    once: normal forms modulo a Groebner basis are unique), so it does
    not depend on the input order.  A basis past MAX_BASIS elements
    raises ResourceLimitError.
    """
    gen_list = list(gens)
    if not gen_list:
        raise DomainError("need at least one generator")
    nvars = gen_list[0].nvars
    if any(g.nvars != nvars for g in gen_list):
        raise DomainError("generators on different variable counts")
    words = Words.holding(nvars, max(max(g.u + g.v) for g in gen_list))
    while True:
        try:
            return _buchberger(gen_list, words)
        except OverflowError:
            words = Words(nvars, words.width + 8)


def _buchberger(gen_list: list[Binomial], words: Words) -> tuple[Binomial, ...]:
    G, degree, lcm, support = words.guards, words.degree, words.lcm, words.support
    basis: list[Pair] = []
    for g in gen_list:
        h = words.pack_binomial(g)
        if h not in basis:
            basis.append(h)

    queue = [
        (degree(m := lcm(basis[i][0], basis[j][0])), m, i, j)
        for j in range(len(basis)) for i in range(j)
    ]
    heapq.heapify(queue)

    # popped[i]: bit k is set once the pair (i, k) has left the queue
    popped = [0] * len(basis)
    supports = [support(h[0]) for h in basis]
    while queue:
        dm, m, i, j = heapq.heappop(queue)
        popped[i] |= 1 << j
        popped[j] |= 1 << i
        if not supports[i] & supports[j]:
            continue  # coprime leads: S-pair reduces to zero
        # chain: a k popped with both i and j whose lead divides m, so that
        # (i, k) and (k, j) cover this pair; the scan drops each other k
        chain = popped[i] & popped[j]
        while chain and not words.divides(basis[(k := chain.bit_length() - 1)][0], m):
            chain ^= 1 << k
        if chain:
            continue
        ui, vi, dui, dvi = basis[i]
        uj, vj, duj, dvj = basis[j]
        p, q = m - ui + vi, m - uj + vj
        if (p | q) & G:
            raise OverflowError("an S-pair side outgrows its fields")
        if p == q:
            continue  # the S-binomial cancels
        p, dp = reduce_monomial(p, dm - dui + dvi, basis, words)
        q, dq = reduce_monomial(q, dm - duj + dvj, basis, words)
        if p == q:
            continue
        h = words.oriented(p, dp, q, dq)
        basis.append(h)
        supports.append(support(h[0]))
        popped.append(0)
        if len(basis) > MAX_BASIS:
            raise ResourceLimitError(len(basis), MAX_BASIS, "basis elements")
        k = len(basis) - 1
        for i2 in range(k):
            m = lcm(basis[i2][0], h[0])
            heapq.heappush(queue, (degree(m), m, i2, k))

    minimal: list[Pair] = _antichain(words, [(h[2], h[0], h) for h in basis])
    # h's own lead divides no monomial below it, so h may stay in the list
    reduced = [(du, u, reduce_monomial(v, dv, minimal, words)[0]) for u, v, du, dv in minimal]
    return tuple(Binomial(words.unpack(u), words.unpack(v)) for _, u, v in sorted(reduced))


def initial_ideal(gb, nvars: int) -> MonomialIdeal:
    """Leading terms of a Groebner basis with leads first, as
    ``groebner_basis`` returns it, minimalized."""
    return MonomialIdeal(nvars, tuple(g.u for g in gb))


class HilbertData(namedtuple("HilbertData", "numerator dimension degree")):
    """Series numerator over (1-t)^nvars, with dimension and degree."""

    __slots__ = ()


def hilbert(mi: MonomialIdeal) -> HilbertData:
    """Hilbert data of the quotient by a monomial ideal.

    The series is N(t)/(1-t)^nvars.  The numerator N comes from the
    recursion N(I) = N(I + (x^e)) + t^e*N(I : x^e) on the variable x
    that divides the most generators, e its least positive exponent
    among them, with two splitting steps (Bigatti, J. Pure Appl.
    Algebra 119, 1997):

    * generators that fall into groups on disjoint variables give the
      product of the groups' numerators;
    * I + (x^e) is no node: x^e divides every generator x divides, and
      x divides none of the others, J, so N(I + (x^e)) =
      (1 - t^e)*N(J).  I : x^e is the generators x divides, lowered by
      x^e, plus those of J that no lowered one divides.  Both J and
      I : x^e are minimal as built, so no node minimalizes.

    A node of at most five generators is a leaf, whose N is Taylor's sum
    of (-1)^|S| t^deg(lcm(S)) over the subsets S of its generators.

    Nodes hold their generators as words whose fields hold the largest
    exponent and the generator count, as the pivot sums support words
    to count the generators each variable divides.  No node raises an
    exponent, so no lcm a leaf builds passes the degree D of the lcm of
    all generators, and the fields also keep D below 2^width - 1: a
    word's degree, the sum of its base-2^width digits, is then the word
    mod 2^width - 1 (casting out).  A cache, fresh for each call, holds
    every node, keyed on the generator tuple in the order a node builds
    it, so one sub-ideal reached in two orders is computed twice.  A
    node of three or more generators missing from it adds its exponent
    entries to a running count and checks that and its depth before it
    computes.

    Each node returns its N at t = 2^B as one int, so a leaf's sum is a
    sum of shifts, the pivot step is a + ((b - a) << e*B) and the
    split an int product; node values need no bound, since evaluation
    at 2^B is a ring map.  Only the one decode at the end needs every
    coefficient of N inside +-2^(B-1), and B comes from
    l1(N) <= sum of C(gens, i) over i <= min(nvars, gens): N is the
    alternating sum of the graded Betti numbers of a minimal free
    resolution of the quotient, which is a summand of Taylor's
    resolution (C(gens, i) free modules in step i) and, by Hilbert's
    syzygy theorem, has length at most nvars.

    Dimension is nvars less the times 1 - t divides N, and degree the
    quotient at t = 1, both by prefix sums.  The zero ring gets
    dimension -1.

    >>> hd = hilbert(MonomialIdeal(4, ((1, 0, 1, 0), (0, 1, 0, 1))))
    >>> hd.dimension, hd.degree
    (2, 4)
    """
    n, gens = mi.nvars, mi.gens
    lcm = [max(c) for c in zip(*gens)]  # of all generators
    words = Words.holding(n, max([len(gens), *lcm, (sum(lcm) + 1) // 2]))
    taylor = sum(comb(len(gens), i) for i in range(min(n, len(gens)) + 1))
    bits = field_bits(taylor.bit_length())
    num = IntPolynomial(unpack(_numerator(tuple(map(words.pack, gens)), words, bits, {}, [0], 1), bits))
    if num.is_zero():
        return HilbertData(num, -1, 0)
    sums = list(accumulate(num.coeffs))
    multiplicity = 0
    while not sums[-1]:  # N(1) = 0: the other prefix sums are N/(1 - t)
        sums = list(accumulate(sums[:-1]))
        multiplicity += 1
    return HilbertData(num, n - multiplicity, sums[-1])


def _numerator(
    gens: tuple[int, ...], words: Words, bits: int, cache: dict, entries: list[int], depth: int
) -> int:
    """The numerator of a minimal generator tuple at t = 2^bits, as
    ``hilbert`` describes it; no node value needs a coefficient bound."""
    got = cache.get(gens)
    if got is not None:
        return got
    if len(gens) > 2:
        entries[0] += len(gens) * words.nvars
        if entries[0] > MAX_HILBERT_ENTRIES:
            raise ResourceLimitError(entries[0], MAX_HILBERT_ENTRIES, "Hilbert exponent entries")
        if depth > MAX_HILBERT_DEPTH:
            raise ResourceLimitError(depth, MAX_HILBERT_DEPTH, "nested Hilbert nodes")
    if len(gens) <= _TAYLOR_GENS:
        G, guard, cast = words.guards, words.width - 1, (1 << words.width) - 1
        terms = [(0, 1)]  # (lcm of a subset, (-1)^its size)
        for g in gens:
            g |= G  # each new lcm as in Words.lcm, with g's guards set once
            for m, sign in terms[:]:
                keep = (g - m) & G
                pick = keep - (keep >> guard)
                terms.append((g & pick | m & ~pick, -sign))
        out = 0
        for m, sign in terms:
            out += sign << m % cast * bits
        cache[gens] = out
        return out
    G, ones, low = words.guards, words.ones, words.width - 1
    supports = [(((g | G) - ones) & G) >> low for g in gens]  # words.support, inlined
    comps: list[tuple[int, list[int]]] = []
    for g, mask in zip(gens, supports):
        joined = [g]
        rest = []
        for m, members in comps:
            if m & mask:
                mask |= m
                joined += members
            else:
                rest.append((m, members))
        rest.append((mask, joined))
        comps = rest
    if len(comps) > 1:
        out = 1
        for _, c in comps:
            out *= _numerator(tuple(c), words, bits, cache, entries, depth + 1)
    else:
        # x divides at least two of these connected generators, and x^e,
        # e its least positive exponent, divides each of them, so x^e is
        # not one of them and no lowered generator is 1
        counts = words.unpack(sum(supports))
        x = counts.index(max(counts))
        shift = words.width * (words.nvars - 1 - x)
        field = ((1 << words.width - 1) - 1) << shift
        hit = [g for g in gens if g & field]
        free = tuple([g for g in gens if not g & field])
        e = min(map(field.__and__, hit))
        lowered = [g - e for g in hit]
        # only a lowered generator without x can divide one without x
        kept = free
        for h in lowered:
            if not h & field:
                kept = [g for g in kept if ((g | G) - h) & G != G]  # h does not divide g
        lowered += kept
        a = _numerator(free, words, bits, cache, entries, depth + 1)
        b = _numerator(tuple(lowered), words, bits, cache, entries, depth + 1)
        # N(I) = (1 - t^e)*N(J) + t^e*N(I : x^e): x divides no free generator
        out = a + ((b - a) << (e >> shift) * bits)
    cache[gens] = out
    return out


def standard_monomial_counts(mi: MonomialIdeal, upto: int) -> tuple[int, ...]:
    """Direct count of monomials outside the ideal, degree by degree.

    Chooses exponents one variable at a time.  A state is the bitmask
    of generators that still divide the exponents chosen so far, with a
    count per degree 0..upto.  A state whose mask holds a generator with
    no exponent past the current variable is in the ideal whatever
    follows, so it is dropped at once; what is left at the end is
    standard.  Every exponent from top, the variable's largest generator
    exponent (at most upto), on leaves the same mask, so those add as
    one prefix sum.  Masks differ only in the generators that straddle
    the current variable, so work is about nvars * 2^(straddling
    generators) * (top+1) * (upto+1), and more than MAX_COUNT_MASKS
    live masks raise ResourceLimitError.  It never touches the numerator
    recursion, so it is that recursion's oracle.

    >>> standard_monomial_counts(MonomialIdeal(2, ((1, 1),)), 3)
    (1, 2, 2, 2)
    """
    if upto < 0:
        return ()
    states = {(1 << len(mi.gens)) - 1: [1] + [0] * upto}
    for i in range(mi.nvars):
        # keep[e]: the generators whose x_i exponent is at most e; from
        # top on it keeps all it ever keeps
        top = min(max((g[i] for g in mi.gens), default=0), upto)
        keep, ends = [0] * (top + 1), 0
        for k, g in enumerate(mi.gens):
            if g[i] <= top:
                keep[g[i]] |= 1 << k
            if not any(g[i + 1 :]):
                ends |= 1 << k
        keep = list(accumulate(keep, or_))
        nxt: dict[int, list[int]] = {}
        for mask, counts in states.items():
            for e in range(top + 1):
                m = mask & keep[e]
                if m & ends:
                    break  # keep[e] only grows with e
                acc = nxt.get(m)
                if acc is None:
                    if len(nxt) >= MAX_COUNT_MASKS:
                        raise ResourceLimitError(len(nxt) + 1, MAX_COUNT_MASKS, "monomial-count masks")
                    acc = nxt[m] = [0] * (upto + 1)
                # counts * t^e, or at top counts * t^top / (1 - t)
                acc[e:] = map(add, acc[e:], counts if e < top else accumulate(counts))
        states = nxt
    return tuple(states.get(0, [0] * (upto + 1)))


def identity_binomial(ident: PartitionIdentity, weights) -> Binomial:
    """The relation x-multiset = y-multiset as a binomial over weights."""
    ws = tuple(weights)
    if len(set(ws)) != len(ws):
        raise DomainError("weights must be distinct")
    for part in ident.lhs + ident.rhs:
        if part not in ws:
            raise DomainError(f"part {part} is not a weight")
    return Binomial(tuple(map(ident.lhs.count, ws)), tuple(map(ident.rhs.count, ws)))


def separation_weights(ell: int) -> tuple[int, ...]:
    """The weights (1..ell, mu, kappa) of the separation ideal, for ell >= 5."""
    return tuple(range(1, ell + 1)) + colour_separation_identity(ell).rhs


def separation_ideal(ell: int) -> BinomialIdeal:
    """The two parity-split relations over ``separation_weights(ell)``."""
    weights = separation_weights(ell)
    gens = tuple(identity_binomial(s, weights) for s in parity_split(ell))
    return BinomialIdeal(len(weights), gens, weights)


def weight_names(weights) -> list[str]:
    """The variable of weight w is named xw, as the audits print it."""
    return [f"x{w}" for w in weights]


def consecutive_quadric_ideal(ell: int) -> BinomialIdeal:
    """x_(j-1) x_(j+1) - x_j^2 for j = 1..l-1, weights 0..l.

    >>> [g.format() for g in consecutive_quadric_ideal(3).generators]
    ['x0*x2 - x1^2', 'x1*x3 - x2^2']
    """
    if ell < 2:
        raise DomainError(f"need length >= 2, got {ell}")
    n = ell + 1
    gens = []
    for j in range(1, ell):
        u = [0] * n
        v = [0] * n
        u[j - 1] += 1
        u[j + 1] += 1
        v[j] = 2
        gens.append(Binomial(tuple(u), tuple(v)))
    return BinomialIdeal(n, tuple(gens), tuple(range(n)))
