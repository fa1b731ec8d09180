"""The benchmark's three workloads: inputs built from a seed, one timed
pass per item, and the frozen checks every item must pass.

The seed renames vertices by a bijection and shuffles the item order.
Every frozen value below is invariant under both: verdicts and Betti
numbers do not depend on vertex names, trees are keyed by a canonical
form, and the path ideals list their generators by position along the
path, never by name.

dgres is reached through its module objects (``mods.morse.morse_reduce``)
at call time, so the traced run sees every call once its wrappers are
installed on those modules.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass, field
from math import comb
from types import SimpleNamespace
from typing import Callable

from meter import Meter

# Verdict rule (criterion 8): a tree is dg iff its diameter is at most 4, a
# cycle C_n iff n <= 5.  Betti vectors are frozen from the classifier; None
# marks a not-dg verdict whose certificate carries no Betti vector.  Trees
# are keyed by their AHU canonical form (see `tree_key`).
TREE_BETTI = {
    "(())": [1, 1],
    "(()())": [1, 2, 1],
    "((())())": [1, 3, 2],
    "(()()())": [1, 3, 3, 1],
    "((())(()))": [1, 4, 4, 1],
    "((()())())": [1, 4, 4, 1],
    "(()()()())": [1, 4, 6, 4, 1],
    "(((()))(()))": None,
    "((()())(()))": [1, 5, 7, 4, 1],
    "((()())()())": [1, 5, 6, 2],
    "((())(())())": [1, 5, 6, 2],
    "((()()())())": [1, 5, 7, 4, 1],
    "(()()()()())": [1, 5, 10, 10, 5, 1],
    "(((()))((())))": None,
    "(((()()))(()))": None,
    "(((())())(()))": None,
    "((()()())(()))": [1, 6, 11, 10, 5, 1],
    "((()())(()()))": [1, 6, 11, 10, 5, 1],
    "((()())(())())": [1, 6, 9, 5, 1],
    "((()()())()())": [1, 6, 9, 5, 1],
    "((())(())(()))": [1, 6, 9, 5, 1],
    "((())(())()())": [1, 6, 9, 5, 1],
    "((()()()())())": [1, 6, 11, 10, 5, 1],
    "(()()()()()())": [1, 6, 15, 20, 15, 6, 1],
}
CYCLE_BETTI = {
    3: [1, 3, 2],
    4: [1, 4, 4, 1],
    5: [1, 5, 5, 1],
    6: [1, 6, 9, 6, 2],
    7: None,
    8: None,
}

# Edge ideals of the paths P10 and P11 (10 and 11 edges), generators
# x_i*x_{i+1} with odd i first, then even i.
PATH_EDGES = (10, 11)
LYUBEZNIK_RANKS = {
    10: (1, 10, 41, 91, 120, 96, 45, 11, 1),
    11: (1, 11, 50, 124, 185, 171, 96, 30, 4),
}
MATCHED_PAIRS = {10: 304, 11: 688}
PATH_BETTI = {
    10: (1, 10, 37, 69, 72, 43, 13, 1),
    11: (1, 11, 46, 99, 123, 91, 38, 8, 1),
}
# Ranks of the Morse reduction pruned by the first end vertex of the path.
PRUNED_RANKS = {
    10: (1, 9, 33, 65, 75, 51, 19, 3),
    11: (1, 10, 41, 91, 120, 96, 45, 11, 1),
}
# Betti vector of the 5-edge path every long path prunes to; the not-dg
# certificate of P10 and P11 records it.
FIVE_PATH_BETTI = [1, 5, 7, 4, 1]
CERTIFY_REPEATS = 100


def dgres_modules() -> SimpleNamespace:
    """The dgres submodules the workloads call into.

    `importlib` is needed for `classify`: the package re-exports the
    function `classify` under the submodule's name.
    """
    names = ("classify", "combin", "complexes", "morse", "poly", "prune", "taylor")
    return SimpleNamespace(
        **{n: importlib.import_module(f"dgres.{n}") for n in names}
    )


@dataclass
class Item:
    """One unit of work.  `run` returns the failed checks (empty when the
    item is correct); `prepare` runs before each pass, outside the timing."""

    name: str
    run: Callable[[Meter], list[str]]
    prepare: Callable[[], None] = field(default=lambda: None)


def classify_and_verify(mods, graph, meter: Meter):
    """`dgres classify` then `dgres verify-certificate` on its JSON."""
    cert = meter.call("classify", mods.classify.classify, graph)
    doc = json.loads(json.dumps(cert.to_json()))
    report = meter.call("verify", mods.classify.verify_certificate, doc)
    return cert, report


def expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def renamer(rng: random.Random, count: int) -> list[str]:
    """`count` distinct vertex names drawn by the seed."""
    return [f"v{k}" for k in rng.sample(range(1000), count)]


# ---------------------------------------------------------------------------
# certify-small


def tree_key(T) -> str:
    """AHU canonical form of a networkx tree: the smallest encoding over
    its centers, so isomorphic trees get the same key."""
    import networkx as nx

    def enc(v, parent) -> str:
        return "(" + "".join(sorted(enc(c, v) for c in T[v] if c != parent)) + ")"

    return min(enc(c, None) for c in nx.center(T))


def certify_item(mods, name, graph, dg_expected: bool, betti) -> Item:
    def run(meter: Meter) -> list[str]:
        cert, report = classify_and_verify(mods, graph, meter)
        errors: list[str] = []
        expect(errors, "verdict", cert.verdict, "dg" if dg_expected else "not_dg")
        expect(errors, "betti", cert.betti, betti)
        expect(errors, "verify_certificate ok", report["ok"], True)
        if cert.verdict == "dg":
            check = cert.evidence.get("dg_check", {})
            expect(errors, "dg_check ok", check.get("ok"), True)
            expect(errors, "triples_checked", check.get("triples_checked"), True)
        return errors

    return Item(name, run)


def build_certify_small(seed: int) -> list[Item]:
    """All 24 nonisomorphic trees on 2..7 vertices and C3..C8: classify,
    serialise, verify the certificate."""
    import networkx as nx

    mods = dgres_modules()
    rng = random.Random(seed)
    items = []
    for n in range(2, 8):
        for T in nx.nonisomorphic_trees(n):
            nodes = sorted(T.nodes())
            name = dict(zip(nodes, renamer(rng, n)))
            graph = mods.combin.Graph.build(
                [name[v] for v in nodes], [(name[a], name[b]) for a, b in T.edges()]
            )
            key = tree_key(T)
            items.append(
                certify_item(mods, f"tree{key}", graph, nx.diameter(T) <= 4, TREE_BETTI[key])
            )
    for n in range(3, 9):
        # vertices stay listed around the cycle; only their names change
        names = renamer(rng, n)
        graph = mods.combin.Graph.build(
            names, [(names[i], names[(i + 1) % n]) for i in range(n)]
        )
        items.append(certify_item(mods, f"C{n}", graph, n <= 5, CYCLE_BETTI[n]))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# paths, shared by resolve-paths and check-strands


@dataclass
class PathInput:
    edges: int
    graph: object
    ideal: object
    first_end: str


def build_path(mods, rng: random.Random, edges: int) -> PathInput:
    names = renamer(rng, edges + 1)
    graph = mods.combin.Graph.build(
        names, [(names[i], names[i + 1]) for i in range(edges)]
    )
    ring = mods.poly.VariableSet(tuple(names))
    order = [i for i in range(edges) if i % 2] + [i for i in range(edges) if not i % 2]
    gens = tuple(ring.variable(names[i]) * ring.variable(names[i + 1]) for i in order)
    return PathInput(edges, graph, mods.poly.MonomialIdeal(ring, gens), names[0])


def check_path_certificate(mods, path: PathInput, meter: Meter, errors: list[str]):
    """The not-dg certificate of the path, CERTIFY_REPEATS times: one
    round trip takes a few milliseconds, too short to time steadily.
    Each round trip builds the Taylor complex of the 5-edge sub-path and
    prunes to it, so taylor, classify and prune run here on every path
    workload.  Items run it first."""
    for _ in range(CERTIFY_REPEATS):
        cert, report = classify_and_verify(mods, path.graph, meter)
        expect(errors, "verdict", cert.verdict, "not_dg")
        expect(errors, "evidence", cert.evidence.get("kind"), "prunes-to-non-dg-path")
        expect(errors, "5-path betti", cert.evidence.get("path_betti"), FIVE_PATH_BETTI)
        expect(errors, "verify_certificate ok", report["ok"], True)


def build_paths(mods, seed: int) -> list[PathInput]:
    rng = random.Random(seed)
    paths = [build_path(mods, rng, e) for e in PATH_EDGES]
    rng.shuffle(paths)
    return paths


# ---------------------------------------------------------------------------
# resolve-paths


def resolve_item(mods, path: PathInput) -> Item:
    e = path.edges

    def run(meter: Meter) -> list[str]:
        errors: list[str] = []
        check_path_certificate(mods, path, meter, errors)
        T = mods.taylor.taylor_resolution(path.ideal)
        L = mods.morse.lyubeznik_resolution(path.ideal)
        matching = mods.morse.lyubeznik_matching(path.ideal)
        R = mods.morse.morse_reduce(T, matching)
        expect(errors, "taylor ranks", T.ranks(), tuple(comb(e, i) for i in range(e + 1)))
        expect(errors, "lyubeznik ranks", L.ranks(), LYUBEZNIK_RANKS[e])
        expect(errors, "matched pairs", len(matching), MATCHED_PAIRS[e])
        expect(errors, "morse ranks", R.ranks(), LYUBEZNIK_RANKS[e])
        expect(errors, "morse betti", mods.complexes.total_betti(R), PATH_BETTI[e])
        expect(errors, "lyubeznik betti", mods.complexes.total_betti(L), PATH_BETTI[e])
        pruned = mods.prune.prune_complex(R, [path.first_end])
        expect(errors, "pruned ranks", pruned.pruned.ranks(), PRUNED_RANKS[e])
        expect(errors, "prune report ok", pruned.report.ok, True)
        return errors

    return Item(f"P{e}", run)


def build_resolve_paths(seed: int) -> list[Item]:
    """Taylor -> Lyubeznik -> matching -> Morse -> Betti -> prune on P10
    and P11, plus their not-dg certificates."""
    mods = dgres_modules()
    return [resolve_item(mods, p) for p in build_paths(mods, seed)]


# ---------------------------------------------------------------------------
# check-strands


def strands_item(mods, path: PathInput, built) -> Item:
    state = {}

    def prepare() -> None:
        # a fresh complex each pass: the strand homology cache lives on
        # the complex, and a warm one would skip the sweep being measured
        state["cx"] = mods.complexes.LabeledFreeComplex(
            built.ring, built.basis, built.diff, name=built.name
        )

    def run(meter: Meter) -> list[str]:
        errors: list[str] = []
        check_path_certificate(mods, path, meter, errors)
        ok, report = state.pop("cx").is_resolution_of(path.ideal)
        expect(errors, "is_resolution_of", ok, True)
        expect(errors, "strand failures", report.get("strand_failures"), [])
        return errors

    return Item(f"P{path.edges}", run, prepare)


def build_check_strands(seed: int) -> list[Item]:
    """The strand sweep of `is_resolution_of` on the Lyubeznik resolutions
    of P10 and P11, which set-up builds, plus their not-dg certificates."""
    mods = dgres_modules()
    return [
        strands_item(mods, p, mods.morse.lyubeznik_resolution(p.ideal))
        for p in build_paths(mods, seed)
    ]


WORKLOADS = {
    "certify-small": build_certify_small,
    "resolve-paths": build_resolve_paths,
    "check-strands": build_check_strands,
}
