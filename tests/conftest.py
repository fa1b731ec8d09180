"""Shared fixtures: a deterministic corpus of squarefree monomial ideals
and the standard named examples used across the suite."""

from __future__ import annotations

import random

import pytest

from dgres import (
    Graph,
    MonomialIdeal,
    VariableSet,
    build_family,
    edge_ideal,
    minimalize,
)
from dgres.combin import graph_diameter

VARS6 = ("x", "y", "z", "u", "v", "w")


def ideal_from_subsets(subsets, names=VARS6) -> MonomialIdeal:
    """Squarefree ideal with one generator per variable-index subset."""
    n = max((max(s) for s in subsets if s), default=-1) + 1
    ring = VariableSet(tuple(names[:n]))
    gens = []
    for s in subsets:
        m = ring.one()
        for i in sorted(s):
            m = m * ring.variable(names[i])
        gens.append(m)
    return MonomialIdeal(ring, tuple(gens))


def matching_targets(matching) -> set[tuple[int, ...]]:
    """The target subsets of a matching's arcs (source, target)."""
    return {tuple(t) for _, t in matching}


def trees_of_diameter_3_and_4(max_vertices: int = 9):
    """Every tree of diameter 3 or 4 on 3 to `max_vertices` vertices, in
    the order networkx enumerates them."""
    import networkx as nx

    for n in range(3, max_vertices + 1):
        for T in nx.nonisomorphic_trees(n):
            g = Graph.build([f"v{i}" for i in sorted(T.nodes())], [(f"v{a}", f"v{b}") for a, b in T.edges()])
            if graph_diameter(g) in (3, 4):
                yield g


def _random_squarefree(rng: random.Random) -> MonomialIdeal | None:
    nvars = rng.randint(3, 6)
    ngens = rng.randint(2, 4)
    subsets = set()
    for _ in range(ngens):
        size = rng.randint(1, min(4, nvars))
        subsets.add(tuple(sorted(rng.sample(range(nvars), size))))
    ideal = minimalize(ideal_from_subsets(sorted(subsets), VARS6[:nvars]))
    if not ideal.generators:
        return None
    return ideal


def squarefree_corpus() -> list[MonomialIdeal]:
    """>= 50 minimal squarefree ideals, <= 5 generators, <= 6 variables.

    Fixed content: the named examples used throughout the tests, edge
    ideals of small graphs, and seeded pseudo-random fills.  Deterministic
    across runs.
    """
    out: list[MonomialIdeal] = []
    seen: set[tuple] = set()

    def add(ideal: MonomialIdeal):
        key = (ideal.ring.names, tuple(str(g) for g in ideal.generators))
        if key in seen:
            return
        if len(ideal.generators) > 5 or len(ideal.ring.names) > 6:
            return
        if not ideal.generators or not ideal.is_minimal_system():
            return
        seen.add(key)
        out.append(ideal)

    # named fixtures
    ring4 = VariableSet(("x", "y", "z", "w"))
    add(MonomialIdeal.from_strings(ring4, ["x*w", "y*z", "x*z", "x*y"]))
    ring5 = VariableSet(("x", "y", "x1", "y1", "z1"))
    add(MonomialIdeal.from_strings(ring5, ["x*y", "y*z1", "x*z1", "x*x1", "y*y1"]))
    for fam in ["P1", "P2", "P3", "P4", "P5", "C3", "C4", "C5",
                "T4(2;1,1)", "T4(1;3)", "T4(3)", "T4(2;2,0)",
                "L(1,1,0)", "L(2,1,0)", "L(0,0,1)", "L(1,0,1)", "L(1,1,1)",
                "L(0,0,2)", "L(2,2,0)", "L(3,0,0)"]:
        add(edge_ideal(build_family(fam)))
    # koszul-like and mixed-size generators
    add(ideal_from_subsets([(0,), (1,), (2,)]))
    add(ideal_from_subsets([(0,), (1,), (2,), (3,), (4,)]))
    add(ideal_from_subsets([(0, 1, 2), (2, 3, 4), (0, 4)]))
    add(ideal_from_subsets([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]))
    add(ideal_from_subsets([(0, 1, 2, 3), (3, 4, 5), (0, 5)]))
    add(ideal_from_subsets([(0, 1), (2, 3), (4, 5)]))
    add(ideal_from_subsets([(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]))
    rng = random.Random(20260814)
    while len(out) < 58:
        ideal = _random_squarefree(rng)
        if ideal is not None:
            add(ideal)
    return out


@pytest.fixture(scope="session")
def corpus():
    c = squarefree_corpus()
    assert len(c) >= 50
    return c


@pytest.fixture(scope="session")
def taylor_fixture_ideal():
    ring = VariableSet(("x", "y", "z", "w"))
    return MonomialIdeal.from_strings(ring, ["x*w", "y*z", "x*z", "x*y"])


@pytest.fixture(scope="session")
def two_triangles_ideal():
    """(xy, yz1, xz1, xx1, yy1) over k[x,y,x1,y1,z1] in that order."""
    ring = VariableSet(("x", "y", "x1", "y1", "z1"))
    return MonomialIdeal.from_strings(
        ring, ["x*y", "y*z1", "x*z1", "x*x1", "y*y1"]
    )


@pytest.fixture(scope="session")
def c5_ideal():
    """Edge ideal of the 5-cycle with consecutive order xy<yz<zu<uv<xv."""
    ring = VariableSet(("x", "y", "z", "u", "v"))
    return MonomialIdeal.from_strings(
        ring, ["x*y", "y*z", "z*u", "u*v", "x*v"]
    )


def t4_cases(max_spokes: int = 3, max_leaves: int = 4):
    """All trees of the center/spoke/leaf shape with n <= max_spokes spokes
    and leaf total <= max_leaves (leaf multisets sorted descending)."""
    cases = []
    for n in range(1, max_spokes + 1):
        def rec(prefix, remaining, cap):
            if len(prefix) == n:
                cases.append((n, tuple(prefix)))
                return
            for a in range(min(remaining, cap), -1, -1):
                rec(prefix + [a], remaining - a, a)
        rec([], max_leaves, max_leaves)
    return cases
