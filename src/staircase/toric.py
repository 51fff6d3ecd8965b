"""Binomial ideals, a Buchberger engine for them, and Hilbert data.

Two engines carry every dimension and degree row.

Buchberger never leaves pure differences: S-pairs of binomials are
binomials and reduction is monomial rewriting, so coefficients stay
+1/-1 throughout.  Pairs go smallest lcm first, and two criteria skip
pairs that need no reduction: coprime leads, and Buchberger's chain
criterion.  For a pair without coprime leads, the chain check tests
each element already popped with both sides of the pair, O(|basis| *
nvars) at most, before any reduction.  A pair that passes costs two
rewrites of exponent tuples; only a new element becomes a Binomial.

The Hilbert numerator of the initial ideal comes from the
pivot-variable recursion N(I) = (1 - t^e)*N(J) + t^e*N(I : x^e), J the
generators x does not divide and e the least positive exponent of x
among the others.  It splits an ideal whose generators fall into
groups on disjoint variables into one factor per group, and stops at
two generators, whose numerator is a closed form.  A pivot
node has two children.  Each node does O(gens^2 * nvars) work on
exponents besides its coefficient arithmetic; the number of nodes can
grow exponentially with the generator count.  MAX_HILBERT_ENTRIES bounds
the exponent entries of the nodes a call starts, MAX_HILBERT_DEPTH their
nesting.  ``standard_monomial_counts`` counts the same series directly,
in at most MAX_COUNT_MASKS live masks, and shares no code with the
recursion.  With a variable of weight 1, one reduction per variable
tells whether a binomial ideal is its whole weight kernel.

Dimension always means the affine Krull dimension of the quotient.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add, sub

from .binomial import Binomial, Expo, divides, expo_lcm, reduce_monomial
from .chroma import colour_separation
from .errors import DomainError, ResourceLimitError
from .identities import PartitionIdentity, parity_split
from .partition import Partition, is_staircase, staircase
from .poly import IntPolynomial
from .report import INVARIANT, CheckRow, Report, check

MAX_BASIS = 256
MAX_HILBERT_ENTRIES = 20_000_000  # exponent entries of the nodes one call starts
MAX_HILBERT_DEPTH = 500  # nested nodes of three or more generators
MAX_COUNT_MASKS = 10_000  # live generator masks of one direct monomial count


@dataclass(frozen=True)
class BinomialIdeal:
    """A list of binomial generators with one weight per variable."""

    nvars: int
    generators: tuple[Binomial, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.nvars != self.nvars:
                raise DomainError(
                    f"generator on {g.nvars} variables in a {self.nvars}-variable ideal"
                )
        if len(self.weights) != self.nvars:
            raise DomainError(
                f"{len(self.weights)} weights for {self.nvars} variables"
            )


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators, kept as an antichain under division.

    >>> MonomialIdeal(2, ((1, 2), (1, 1), (0, 3))).gens
    ((1, 1), (0, 3))
    """

    nvars: int
    gens: tuple[Expo, ...]

    def __post_init__(self) -> None:
        for g in self.gens:
            if len(g) != self.nvars:
                raise DomainError(
                    f"monomial on {len(g)} variables in a {self.nvars}-variable ideal"
                )
        object.__setattr__(self, "gens", _minimalize(self.gens))


def _minimalize(gens) -> tuple[Expo, ...]:
    # h divides g only if h's support mask lies inside g's: one int test
    uniq = sorted(set(tuple(g) for g in gens), key=lambda g: (sum(g), g))
    out: list[tuple[int, Expo]] = []
    for g in uniq:
        m = sum(1 << i for i, e in enumerate(g) if e)
        if not any(not hm & ~m and divides(h, g) for hm, h in out):
            out.append((m, g))
    return tuple(g for _, g in out)


def groebner_basis(gens) -> tuple[Binomial, ...]:
    """Reduced grevlex Groebner basis of a binomial list, canonically sorted.

    Pairs are popped smallest lcm first.  Two criteria skip a pair
    (i, j) without reducing its S-binomial:

    * coprime leads: the S-binomial reduces to zero (Buchberger's first
      criterion);
    * chain: some other element k has a lead dividing lcm(i, j), and
      both (i, k) and (j, k) were popped already (Buchberger's second
      criterion, in the form of Becker and Weispfenning).  Each element
      keeps the set of elements it was popped with, and the check
      tests the intersection of the pair's two sets.

    S-pair sides lcm - u + v are reduced as exponent tuples; only an
    element that joins the basis becomes a ``Binomial``.  The result is
    auto-reduced (minimal leads, each tail reduced once: normal forms
    modulo a Groebner basis are unique) so it is unique, independent of
    input order.  A basis past MAX_BASIS elements raises ResourceLimitError.
    """
    gen_list = list(gens)
    if not gen_list:
        raise DomainError("need at least one generator")
    nvars = gen_list[0].nvars
    basis: list[Binomial] = []
    for g in gen_list:
        if g.nvars != nvars:
            raise DomainError("generators on different variable counts")
        og = g.oriented()
        if all(not og.same_up_to_sign(h) for h in basis):
            basis.append(og)

    queue: list[tuple[int, Expo, int, int]] = []
    for i, j in ((i, j) for j in range(len(basis)) for i in range(j)):
        lcm = expo_lcm(basis[i].u, basis[j].u)
        heapq.heappush(queue, (sum(lcm), lcm, i, j))

    # popped[i]: the elements k whose pair with i has left the queue
    popped: list[set[int]] = [set() for _ in basis]
    while queue:
        _, lcm, i, j = heapq.heappop(queue)
        popped[i].add(j)
        popped[j].add(i)
        f, g = basis[i], basis[j]
        if not any(map(min, f.u, g.u)):
            continue  # coprime leads: S-pair reduces to zero
        if any(divides(basis[k].u, lcm) for k in popped[i] & popped[j]):
            continue  # chain: (i, k) and (k, j) cover this pair
        p = tuple(map(add, map(sub, lcm, f.u), f.v))
        q = tuple(map(add, map(sub, lcm, g.u), g.v))
        if p == q:
            continue  # the S-binomial cancels
        p, q = reduce_monomial(p, basis), reduce_monomial(q, basis)
        if p == q:
            continue
        h = Binomial(p, q).oriented()
        basis.append(h)
        popped.append(set())
        if len(basis) > MAX_BASIS:
            raise ResourceLimitError(len(basis), MAX_BASIS, "basis elements")
        k = len(basis) - 1
        for i2 in range(k):
            lcm2 = expo_lcm(basis[i2].u, h.u)
            heapq.heappush(queue, (sum(lcm2), lcm2, i2, k))

    minimal: list[Binomial] = []
    for g in sorted(basis, key=lambda g: (sum(g.u), g.u, g.v)):
        if not any(divides(h.u, g.u) for h in minimal):
            minimal.append(g)
    # g's own lead divides no monomial below it, so g may stay in the list
    reduced = [Binomial(g.u, reduce_monomial(g.v, minimal)) for g in minimal]
    return tuple(sorted(reduced, key=lambda g: (sum(g.u), g.u, g.v)))


def initial_ideal(gb, nvars: int) -> MonomialIdeal:
    """Leading terms of a Groebner basis, minimalized."""
    return MonomialIdeal(nvars, tuple(g.oriented().u for g in gb))


@dataclass(frozen=True)
class HilbertData:
    """Series numerator over (1-t)^nvars, with dimension and degree."""

    numerator: IntPolynomial
    dimension: int
    degree: int


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

    The recursion stops at two generators.  No generator gives 1, one
    generator m gives 1 - t^deg(m), and two generators g and h, neither
    dividing the other, give 1 - t^deg(g) - t^deg(h) + t^deg(lcm(g, h)).

    A cache, fresh for each call, holds the nodes of three or more
    generators.  It keys on the generator tuple in the order a node
    builds it, so one sub-ideal reached in two orders is computed
    twice.  A node missing from it adds its exponent entries to a
    running count and checks that and its depth before it recurses.
    Dimension is the pole order of N/(1-t)^nvars at t = 1 and degree
    the reduced numerator there.  The zero ring gets dimension -1.

    >>> hd = hilbert(MonomialIdeal(4, ((1, 0, 1, 0), (0, 1, 0, 1))))
    >>> hd.dimension, hd.degree
    (2, 4)
    """
    num = IntPolynomial(_numerator(mi.gens, {}, [0], 1))
    if num.is_zero():
        return HilbertData(num, -1, 0)
    reduced = num
    multiplicity = 0
    while reduced(1) == 0:
        reduced = reduced.divide_by_one_minus_x()
        multiplicity += 1
    return HilbertData(num, mi.nvars - multiplicity, reduced(1))


def _numerator(
    gens: tuple[Expo, ...], cache: dict, entries: list[int], depth: int
) -> list[int]:
    """Numerator coefficients of a minimal generator tuple, constant first.

    The list may come from the cache, so callers must not mutate it.
    """
    if not gens:
        return [1]
    if len(gens) == 1:
        d = sum(gens[0])
        return [1] + [0] * (d - 1) + [-1] if d else []
    if len(gens) == 2:
        # 1 - t^|g| - t^|h| + t^|lcm|: neither divides the other, so the
        # lcm is of larger degree than both, and the two may be equal
        g, h = gens
        out = [0] * (sum(map(max, g, h)) + 1)
        out[0] = out[-1] = 1
        out[sum(g)] -= 1
        out[sum(h)] -= 1
        return out
    got = cache.get(gens)
    if got is not None:
        return got
    nvars = len(gens[0])
    entries[0] += len(gens) * nvars
    if entries[0] > MAX_HILBERT_ENTRIES:
        raise ResourceLimitError(entries[0], MAX_HILBERT_ENTRIES, "Hilbert exponent entries")
    if depth > MAX_HILBERT_DEPTH:
        raise ResourceLimitError(depth, MAX_HILBERT_DEPTH, "nested Hilbert nodes")
    counts = [0] * nvars
    comps: list[tuple[int, list[Expo]]] = []
    for g in gens:
        mask = 0
        for i, e in enumerate(g):
            if e:
                mask |= 1 << i
                counts[i] += 1
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
        out = [1]
        for _, members in comps:
            out = _mul(out, _numerator(tuple(members), cache, entries, depth + 1))
    else:
        # x divides at least two of these connected generators, and x^e,
        # e its least positive exponent, divides each of them, so x^e is
        # not one of them and no lowered generator is 1
        x = counts.index(max(counts))
        e = min(g[x] for g in gens if g[x])
        free = tuple(g for g in gens if not g[x])
        lowered = tuple(
            g[:x] + (g[x] - e,) + g[x + 1 :] for g in gens if g[x]
        )
        # only a lowered generator without x can divide one without x
        bare = [h for h in lowered if not h[x]]
        colon = lowered + tuple(
            g for g in free if not any(divides(h, g) for h in bare)
        )
        a = _numerator(free, cache, entries, depth + 1)
        b = _numerator(colon, cache, entries, depth + 1)
        # N(I + (x^e)) = (1 - t^e)*N(J): x divides no free generator
        out = _mul(a, [1] + [0] * (e - 1) + [-1])
        out += [0] * (len(b) + e - len(out))
        for i, c in enumerate(b):
            out[i + e] += c
    cache[gens] = out
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def standard_monomial_counts(mi: MonomialIdeal, upto: int) -> tuple[int, ...]:
    """Direct count of monomials outside the ideal, degree by degree.

    Chooses exponents one variable at a time.  A state is the bitmask
    of generators that still divide the exponents chosen so far, with a
    count per degree 0..upto.  A state whose mask holds a generator with
    no exponent past the current variable is in the ideal whatever
    follows, so it is dropped at once; what is left at the end is
    standard.  Masks then differ only in the generators that straddle
    the current variable, so work is about nvars * 2^(straddling
    generators) * (upto+1)^2, and more than MAX_COUNT_MASKS live masks
    raise ResourceLimitError.  It never touches the numerator recursion,
    so it is that recursion's oracle.

    >>> standard_monomial_counts(MonomialIdeal(2, ((1, 1),)), 3)
    (1, 2, 2, 2)
    """
    if upto < 0:
        return ()
    states = {(1 << len(mi.gens)) - 1: [1] + [0] * upto}
    for i in range(mi.nvars):
        # keep[e]: the generators whose x_i exponent is at most e, up to
        # the largest such exponent (or upto); a larger e keeps them all
        top = min(max((g[i] for g in mi.gens), default=0), upto)
        keep = [
            sum(1 << k for k, g in enumerate(mi.gens) if g[i] <= e)
            for e in range(top + 1)
        ]
        ends = sum(1 << k for k, g in enumerate(mi.gens) if not any(g[i + 1 :]))
        nxt: dict[int, list[int]] = {}
        for mask, counts in states.items():
            for e in range(upto + 1):
                m = mask & keep[min(e, top)]
                if m & ends:
                    break  # keep[e] only grows with e
                acc = nxt.get(m)
                if acc is None:
                    if len(nxt) >= MAX_COUNT_MASKS:
                        raise ResourceLimitError(len(nxt) + 1, MAX_COUNT_MASKS, "monomial-count masks")
                    acc = nxt[m] = [0] * (upto + 1)
                for d in range(upto + 1 - e):
                    acc[d + e] += counts[d]
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


def separation_ideal(p: Partition) -> BinomialIdeal:
    """The two parity-split relations over weights (1..l, mu, kappa)."""
    sep = colour_separation(p)
    weights = tuple(range(1, p.length + 1)) + (sep.mu, sep.kappa)
    gens = tuple(identity_binomial(s, weights) for s in parity_split(p))
    return BinomialIdeal(len(weights), gens, weights)


def weight_names(weights) -> list[str]:
    """The variable of weight w is named xw, as the audits print it."""
    return [f"x{w}" for w in weights]


def _hilbert_rows(rep: Report, gb, nvars: int, dimension: int, degree: int) -> None:
    """Dimension and degree of the quotient by gb against the claimed ones,
    and its series against the direct monomial count."""
    mi = initial_ideal(gb, nvars)
    hd = hilbert(mi)
    rep.add(check("dimension", hd.dimension, dimension))
    rep.add(check("degree", hd.degree, degree))
    rep.add(
        check(
            "series prefix equals direct monomial count through degree 8",
            hd.numerator.series_prefix(nvars, 8),
            standard_monomial_counts(mi, 8),
            kind=INVARIANT,
        )
    )


def weight_kernel_row(ideal: BinomialIdeal, gb) -> CheckRow:
    """Whether the ideal, with Groebner basis gb, is the weight kernel.

    With x of weight 1, the kernel of x_i -> t^(weights[i]) is generated
    by x_w - x^w for the other variables x_w, as the quotient by those
    is k[x] = k[t]; the note counts those that do not reduce to zero
    modulo gb and names the first two.
    """
    if 1 not in ideal.weights:
        raise DomainError(f"no variable of weight 1 among {ideal.weights}")
    one, n = ideal.weights.index(1), ideal.nvars
    outside = []
    for i, w in enumerate(ideal.weights):  # x - x^1 is 0 and reduces to it
        u = tuple(int(j == i) for j in range(n))
        v = tuple(w * (j == one) for j in range(n))
        if reduce_monomial(u, gb) != reduce_monomial(v, gb):
            outside.append(Binomial(u, v).oriented().format(weight_names(ideal.weights)))
    note = f"{len(outside)} of {n - 1} kernel generators lie outside"
    if outside:
        note += "; first " + ", ".join(outside[:2])
    return check("the two relations generate the weight kernel", not outside, True, note=note)


def audit_separation_ideal(ell: int) -> Report:
    """Audit of the two-generator separation ideal at one length.

    Computes the Groebner basis, Hilbert dimension and degree of the
    ideal the two parity-split generators generate, compares with the
    claimed dimension l and degree ceil(l/2)*floor(l/2), and checks
    whether that ideal is the whole kernel of the weight map.
    """
    ideal = separation_ideal(staircase(ell))
    names = weight_names(ideal.weights)
    rep = Report(f"separation ideal audit at length {ell}")
    rep.note(
        "dimension and degree are affine: Krull dimension of the full "
        "quotient ring and reduced Hilbert numerator at 1"
    )
    rep.note("two readings: the ideal of the two relations (dimension and "
             "degree rows) and the whole weight kernel (kernel row)")
    for g in ideal.generators:
        rep.add(check(f"generator {g.format(names)} vanishes under the weight map",
                      g.in_kernel(ideal.weights), True, kind=INVARIANT))
    gb = groebner_basis(ideal.generators)
    rep.add(
        check(
            "basis elements stay in the weight kernel",
            all(g.in_kernel(ideal.weights) for g in gb),
            True,
            kind=INVARIANT,
            note=f"basis size {len(gb)}",
        )
    )
    _hilbert_rows(rep, gb, ideal.nvars, ell, (ell + 1) // 2 * (ell // 2))
    rep.add(weight_kernel_row(ideal, gb))
    return rep


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


def audit_quadric_chain_ideal(ell: int) -> Report:
    """Audit of the consecutive-quadric ideal at one length."""
    ideal = consecutive_quadric_ideal(ell)
    rep = Report(f"consecutive-quadric ideal audit at length {ell}")
    rep.note(
        "dimension is the affine Krull dimension of the quotient; the "
        "projective dimension is one less"
    )
    rep.add(check("generator count", len(ideal.generators), ell - 1,
                  kind=INVARIANT))
    rep.add(
        check(
            "generators vanish under x_i -> t^i",
            all(g.in_kernel(ideal.weights) for g in ideal.generators),
            True,
            kind=INVARIANT,
        )
    )
    gb = groebner_basis(ideal.generators)
    _hilbert_rows(rep, gb, ideal.nvars, 2, 2 ** (ell - 1))
    return rep


@dataclass(frozen=True)
class WeightChain:
    """Two-row weighted node chain: top row l..1, bottom row l-1..0.

    Each bottom node points up to the top node of its column and the
    top row is a directed path left to right; the weight-0 node keeps
    the last column stable.
    """

    ell: int

    @property
    def top_weights(self) -> tuple[int, ...]:
        return tuple(range(self.ell, 0, -1))

    @property
    def bottom_weights(self) -> tuple[int, ...]:
        return tuple(range(self.ell - 1, -1, -1))

    def edges(self) -> tuple[tuple[str, str], ...]:
        out = []
        for c in range(self.ell):
            out.append((f"b{c}", f"t{c}"))
        for c in range(self.ell - 1):
            out.append((f"t{c}", f"t{c + 1}"))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "top": list(self.top_weights),
            "bottom": list(self.bottom_weights),
            "edges": [list(e) for e in self.edges()],
        }

    def to_dot(self) -> str:
        lines = ["digraph weight_chain {", "  rankdir=LR;"]
        tops = " ".join(f"t{c}" for c in range(self.ell))
        bottoms = " ".join(f"b{c}" for c in range(self.ell))
        lines.append(f"  {{ rank=same {tops} }}")
        lines.append(f"  {{ rank=same {bottoms} }}")
        for c, w in enumerate(self.top_weights):
            lines.append(f'  t{c} [label="{w}"];')
        for c, w in enumerate(self.bottom_weights):
            lines.append(f'  b{c} [label="{w}"];')
        for a, b in self.edges():
            lines.append(f"  {a} -> {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def weight_chain_diagram(p: Partition) -> WeightChain:
    """The weighted chain whose node weights index the quadric ideal."""
    if not is_staircase(p):
        raise DomainError(f"{p.parts} is not a staircase")
    if p.length < 2:
        raise DomainError(f"need length >= 2, got {p.length}")
    return WeightChain(p.length)
