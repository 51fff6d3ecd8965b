"""The four benchmark workloads as lists of operations.

An operation is one CLI invocation (run in process through
``staircase.cli.main`` with stdout captured) or one library call on one
input.  ``call`` gets the results of the operations before it in the
same pass; ``check`` gets the operation's result and all results of the
pass and returns a reason when the result is wrong.  Checks call only
``reference``, never the package under test.

Every call looks its function up on the package module at call time, so
the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import reference as ref
from staircase import binomial, chroma, cli, graphs, layered, partition, perm, rwgraph, toric


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], "str | None"]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _lengths(lo: int, hi: int) -> range:
    return range(lo, hi + 1)


def cli_op(argv: list[str], *extra: Callable[[str], "str | None"]) -> Op:
    """A CLI invocation checked for exit 0, invariants and ``extra`` checks."""

    def check(res: CliResult, _results: dict) -> str | None:
        reason = ref.check_cli_text(res.code, res.stdout)
        for fn in extra:
            reason = reason or fn(res.stdout)
        return reason

    return Op(" ".join(argv), lambda _results: run_cli(argv), check)


# ----------------------------------------------------------------------
# verify-ladder: the whole battery as users run it


def verify_ladder(_seed: int, tiny: bool) -> list[Op]:
    lo, hi = (3, 4) if tiny else (3, 6)
    ells = _lengths(lo, hi)
    return [
        cli_op(
            ["verify-all", "--ell", f"{lo}..{hi}"],
            lambda text: ref.check_census(text, ells),
            lambda text: ref.check_chromatic_numbers(text, ells),
        )
    ]


# ----------------------------------------------------------------------
# census-scale: move-graph construction and isomorphism up the ladder


def census_scale(_seed: int, tiny: bool) -> list[Op]:
    hi = 6 if tiny else 11
    ops = [
        cli_op(
            ["graph", "--ell", f"3..{hi}"],
            lambda text: ref.check_census(text, _lengths(3, hi)),
        )
    ]
    for ell in (6, 8) if tiny else (15, 20, 25, 30):
        ops += _census_ops(ell)
    return ops


def _census_ops(ell: int) -> list[Op]:
    build_name = f"build_word_graph ell={ell}"

    def build(_results: dict):
        return rwgraph.build_word_graph(
            perm.staircase_permutation(ell + 1), max_degree=ell + 1
        )

    def check_build(g, _results: dict) -> str | None:
        words = ref.reduced_words(ref.staircase_permutation(ell + 1))
        if tuple(g.words) != words:
            return f"{len(g.words)} words, reference has {len(words)}"
        if set(g.edges) != ref.move_edges(words):
            return "edge set differs from the reference moves"
        return None

    def iso(results: dict):
        return layered.is_isomorphic(
            results[build_name],
            layered.build_layered_graph(partition.staircase(ell)),
            cap=comb(ell + 1, 2),
        )

    def check_iso(answer, _results: dict) -> str | None:
        # the family theorem: the move graph is the layered staircase graph
        return None if answer is True else f"isomorphism answer {answer!r}"

    return [
        Op(build_name, build, check_build),
        Op(f"is_isomorphic ell={ell}", iso, check_iso),
    ]


# ----------------------------------------------------------------------
# toric-audits: toric and identities layers as the audits use them


def toric_audits(_seed: int, tiny: bool) -> list[Op]:
    c_hi, i_hi, bound = (6, 5, 2) if tiny else (10, 9, 3)
    return [
        cli_op(["conjectures", "--ell", f"5..{c_hi}"]),
        cli_op(
            ["identities", "--ell", f"5..{i_hi}", "--degree-bound", str(bound)],
            lambda text: ref.check_graver_notes(text, _lengths(5, i_hi), bound),
        ),
    ]


# ----------------------------------------------------------------------
# random-engines: the general-purpose engines on seeded random inputs
#
# Sizes are fixed; the seed only draws the inputs, and no input is
# dropped for how an engine answers on it.

# Many small inputs rather than a few large ones: the pass time then
# varies little from seed to seed, which the regression bound needs.
CHROMA_GRAPHS, CHROMA_N, CHROMA_M = 192, 10, 16
CHROMA_KS = (0, 1, 2, 3)
ISO_PAIRS, ISO_BIG_N, ISO_SMALL_N = 128, 12, 10
GB_IDEALS, GB_VARS, GB_GENS, GB_MAX_EXP = 512, 5, 3, 1
HILBERT_IDEALS, HILBERT_VARS, HILBERT_GENS, HILBERT_UPTO = 192, 12, 12, 4


def random_engines(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    scale = 32 if tiny else 1
    ops: list[Op] = []
    for i in range(CHROMA_GRAPHS // scale):
        ops.append(_chroma_op(i, _random_graph(rng, CHROMA_N, CHROMA_M)))
    for i in range(ISO_PAIRS // scale):
        g = _random_cubic(rng, ISO_BIG_N)
        ops.append(_iso_op(f"is_isomorphic relabelled {i}", g, _relabel(rng, g), True))
        g = _random_cubic(rng, ISO_SMALL_N)
        ops.append(_iso_op(f"is_isomorphic perturbed {i}", g, _swap_edges(rng, g), None))
    for i in range(GB_IDEALS // scale):
        gens = [_random_binomial(rng) for _ in range(GB_GENS)]
        shuffled = rng.sample(gens, len(gens))
        ops += _groebner_ops(i, gens, shuffled)
    for i in range(HILBERT_IDEALS // scale):
        ops.append(_hilbert_op(i, _random_monomials(rng)))
    return ops


def _random_graph(rng: random.Random, n: int, m: int) -> tuple[int, tuple]:
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return n, tuple(sorted(rng.sample(pairs, m)))


def _random_cubic(rng: random.Random, n: int) -> tuple[int, tuple]:
    """A uniform 3-regular simple graph by the pairing model with restarts."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)}
        if len(edges) == len(points) // 2 and all(a != b for a, b in edges):
            return n, tuple(sorted(edges))


def _relabel(rng: random.Random, g: tuple[int, tuple]) -> tuple[int, tuple]:
    n, edges = g
    p = rng.sample(range(n), n)
    return n, tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))


def _swap_edges(rng: random.Random, g: tuple[int, tuple]) -> tuple[int, tuple]:
    """One degree-preserving double edge swap ab, cd -> ad, cb."""
    n, edges = g
    present = set(edges)
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        new1, new2 = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if len({a, b, c, d}) == 4 and new1 not in present and new2 not in present:
            out = (present - {(a, b) if a < b else (b, a), (c, d) if c < d else (d, c)})
            return n, tuple(sorted(out | {new1, new2}))


def _simple(g: tuple[int, tuple]):
    return graphs.SimpleGraph.from_edges(*g)


def _chroma_op(i: int, g: tuple[int, tuple]) -> Op:
    n, edges = g

    def check(poly, _results: dict) -> str | None:
        return ref.check_chromatic(poly.to_json(), n, edges, CHROMA_KS)

    return Op(f"chromatic_polynomial {i}", lambda _r: chroma.chromatic_polynomial(_simple(g)), check)


def _iso_op(name: str, g1, g2, known: "bool | None") -> Op:
    def check(answer, _results: dict) -> str | None:
        want = known if known is not None else ref.brute_isomorphic(g1[0], g1[1], g2[1])
        return None if answer is want else f"answer {answer!r}, expected {want!r}"

    return Op(name, lambda _r: layered.is_isomorphic(_simple(g1), _simple(g2)), check)


def _random_binomial(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    while True:
        u, v = (
            tuple(rng.randint(1, GB_MAX_EXP) if rng.random() < 0.5 else 0 for _ in range(GB_VARS))
            for _ in range(2)
        )
        if u != v:
            return u, v


def _groebner_ops(i: int, gens, shuffled) -> list[Op]:
    first = f"groebner_basis {i}"

    def call(order):
        return lambda _r: toric.groebner_basis([binomial.Binomial(u, v) for u, v in order])

    def check(basis, _results: dict) -> str | None:
        return ref.check_groebner([(b.u, b.v) for b in basis], gens)

    def check_shuffled(basis, results: dict) -> str | None:
        return None if basis == results[first] else "basis depends on generator order"

    return [Op(first, call(gens), check), Op(f"{first} shuffled", call(shuffled), check_shuffled)]


def _random_monomials(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    gens = []
    for _ in range(HILBERT_GENS):
        e = [0] * HILBERT_VARS
        for v in rng.sample(range(HILBERT_VARS), 3):
            e[v] = rng.randint(1, 2)
        gens.append(tuple(e))
    return tuple(gens)


def _hilbert_op(i: int, gens) -> Op:
    def call(_results: dict):
        return toric.hilbert(toric.MonomialIdeal(HILBERT_VARS, gens))

    def check(hd, _results: dict) -> str | None:
        return ref.check_hilbert(
            hd.numerator.to_json(), hd.dimension, hd.degree, gens, HILBERT_VARS, HILBERT_UPTO
        )

    return Op(f"hilbert {i}", call, check)


WORKLOADS: dict[str, Callable[[int, bool], list[Op]]] = {
    "verify-ladder": verify_ladder,
    "census-scale": census_scale,
    "toric-audits": toric_audits,
    "random-engines": random_engines,
}
