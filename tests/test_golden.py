"""Golden certificates: the classification of every small tree and cycle is
pinned byte for byte.

The 30 graphs are those of `scripts/classify_small_graphs.py`, in its
order: the nonisomorphic trees on 2..7 vertices (vertices v0.., in the
order networkx 3.6 enumerates them, which the hash depends on) and then the
cycles C3..C8.  Each certificate is serialised
as `json.dumps(cert.to_json(), indent=2)`, and the sha256 of the plain
concatenation of the 30 texts is fixed.  A refactor of any layer a
certificate rests on (Taylor, Lyubeznik/Morse, dg checks, cones, pruning,
strands) must leave it unchanged.

Thirteen command-line outputs are pinned the same way, as the sha256 of
stdout plus the exit code, run in-process through `cli.main`: `reduce` along
the Lyubeznik matching and along a matching file, `dgcheck --structure
quotient`, `prune --dg` and `lyubeznik` gate the Morse and quotient
eliminations; `dgcheck --structure quotient` on a matching whose span is
closed under d but is not a dg ideal pins its closure failures; `taylor`,
`betti`, `prune` without `--dg` (every stage matrix) and `cone4` print
differential entries as the entry strings of `complexes.entry_str`, which
gates how complexes store and print them; `dgcheck --structure taylor`,
`dgcheck --structure cone4` and `cone4 --check` complete the paths into
`dg_check`.

The public names, `dgres.__all__`, are pinned as a sorted list, and no
module of the package but `__init__.py` imports a name it never reads.
"""

import ast
import hashlib
import json
from pathlib import Path

import networkx as nx
import pytest

import dgres
from dgres import cycle_graph
from dgres.classify import classify
from dgres.cli import main
from dgres.combin import Graph

GOLDEN_SHA256 = "5e2929514b907fd71c8d97d01b756b8789313d7e5faabebb5aaa84672ce2f69e"


def small_graphs() -> list[Graph]:
    out = []
    for n in range(2, 8):
        for T in nx.nonisomorphic_trees(n):
            verts = tuple(f"v{i}" for i in sorted(T.nodes()))
            edges = tuple((f"v{a}", f"v{b}") for a, b in T.edges())
            out.append(Graph.build(verts, edges))
    out.extend(cycle_graph(n) for n in range(3, 9))
    return out


def test_certificates_of_small_trees_and_cycles():
    graphs = small_graphs()
    assert len(graphs) == 30
    text = "".join(json.dumps(classify(g).to_json(), indent=2) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


# ---------------------------------------------------------------------------
# command-line outputs: sha256 of stdout and the exit code, run in-process

C5 = ["--family", "C5", "--order", "0,2,3,4,1"]
WHISKER = ["--vars", "x,y,x1,y1,z1", "--gens", "x*y,y*z1,x*z1,x*x1,y*y1"]
# the minimizing C5 matching of tests/test_cli.py, for the order above
C5_MATCHING = [
    [[0, 1, 2, 4], [0, 2, 4]], [[0, 1, 2], [0, 2]], [[0, 1, 3, 4], [0, 1, 3]],
    [[0, 1, 4], [1, 4]], [[0, 1, 2, 3, 4], [0, 1, 2, 3]], [[2, 3, 4], [2, 4]],
    [[0, 3, 4], [0, 3]], [[0, 2, 3, 4], [0, 2, 3]], [[1, 2, 3], [1, 3]],
    [[1, 2, 3, 4], [1, 2, 4]],
]
# one arc of C4's Taylor graph: a valid matching whose span is closed under d
# but is not a dg ideal
C4_ARC = [[[0, 2, 3], [0, 3]]]

CLI_GOLDEN = {
    # Morse reduction along the Lyubeznik matching (not minimal here, so the
    # elimination has fill-in) and along a minimizing C5 matching
    "reduce-lyubeznik": (
        ["reduce"] + C5,
        0, "a9683f9e0a0245631ef81bba442eca550b085db2457af7b75eaf5fc86b2fe8dc",
    ),
    "reduce-matching-file": (
        ["reduce"] + C5 + ["--matching-file", "{matching}"],
        0, "1d01f874055f60346e87c4665d45d7b9c4ce4d01a3903c2a12c2a493861dd363",
    ),
    "dgcheck-quotient": (
        ["dgcheck", "--structure", "quotient"] + C5 + ["--matching-file", "{matching}"],
        0, "ef6e8b4519de53a3aae2feaa139589adac27b4c70763c9db01b20b960e0ec2d9",
    ),
    "dgcheck-not-dg-ideal": (
        ["dgcheck", "--structure", "quotient", "--family", "C4", "--matching-file", "{c4_arc}"],
        1, "d3acbae4d5752658aadbb9e4ac7827a6e8e3227bd3ab4ccb63df15e17ed17689",
    ),
    "prune-dg": (
        ["prune", "--kill", "y1", "--dg"] + WHISKER,
        0, "5bc12c25e7f71b263465a11ccecb84987d9271ff44245ecd86eb478822c39fe9",
    ),
    "lyubeznik": (
        ["lyubeznik"] + C5,
        0, "e15000400d79c8a8e13376c69a6414f9e347cd2113a363722f44ffb532781f82",
    ),
    "taylor": (
        ["taylor"] + WHISKER,
        0, "ba7de40032188a8639665fba4c011189bab0d18ce134f5762db6756e85d88a11",
    ),
    "betti": (
        ["betti"] + WHISKER,
        0, "8f5a05e5f6c347da1170d6c98d5ef4434f732a8c1ae4f5b04264b3f60dfe6027",
    ),
    "prune-stages": (
        ["prune", "--kill", "y1"] + WHISKER,
        0, "30ccc9983be46991165109bc097a2aa300caaab6e8e5f6a9ca6476e703a4ddc7",
    ),
    "cone4": (
        ["cone4", "--family", "T4(2;1,2)"],
        0, "3b9a2ce65be92eba41fccb43858588bf9edf10d5298773dd0585a0a55933df8c",
    ),
    # every other path into dg_check: the Taylor structure, the cone
    # structure, and the cone with its lemma checks
    "dgcheck-taylor": (
        ["dgcheck", "--structure", "taylor"] + WHISKER,
        0, "ffd7df9944a5aaa846ec5948ab2ba1b49271652c97395beb89c467c1fe0349cc",
    ),
    "dgcheck-cone4": (
        ["dgcheck", "--structure", "cone4", "--family", "T4(2;1,2)"],
        0, "93f2d2c64ebbc02548ebd3bc5c761028edb391ef411fd04a0c8cdc84c12a8c50",
    ),
    "cone4-check": (
        ["cone4", "--check", "--family", "T4(2;1,2)"],
        0, "86172ff9ff1fe8988010f7b8b85f40a7cc3c1a6bf13c64364b497a2430b874cc",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_GOLDEN))
def test_cli_output_pinned(case, tmp_path, capsys):
    argv, code, digest = CLI_GOLDEN[case]
    matching = tmp_path / "matching.json"
    matching.write_text(json.dumps(C5_MATCHING))
    c4_arc = tmp_path / "c4_arc.json"
    c4_arc.write_text(json.dumps(C4_ARC))
    argv = [a.replace("{matching}", str(matching)).replace("{c4_arc}", str(c4_arc)) for a in argv]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the public surface

PUBLIC_NAMES = [
    "BasisLabel", "CITED_FACTS", "Certificate", "ChainMap", "ComplexError", "ConeResolution",
    "DGError", "DGIdealError", "DGStructure", "Element", "Graph", "GraphError",
    "LabeledFreeComplex", "Monomial", "MonomialIdeal", "MorseError", "PolyError", "PruneResult",
    "PrunedDG", "QuotientDG", "SpanGenerator", "StarDecomposition", "SubmoduleSpan",
    "TaylorGraph", "UnsupportedGraphError", "VERSION", "VariableSet", "build_cone_resolution",
    "build_family", "classify", "combin", "complexes", "complexes_equal", "cycle_graph",
    "desuspend_truncation", "dg", "dg_check", "dg_ideal_closure", "diam4", "diam4_betti",
    "edge_ideal", "graded_betti", "graph_diameter", "kruskal_katona_is_fvector", "lcm_of",
    "linalg", "lyubeznik_betti", "lyubeznik_graph", "lyubeznik_matching",
    "lyubeznik_resolution", "mapping_cone", "matching_quotient", "minimalize", "morse",
    "morse_reduce", "multiplication_map", "parse_monomial", "path_graph", "poly", "prune",
    "prune_complex", "prune_dg", "prune_ideal", "quotient_dg", "span_from_matching_sources",
    "star_decompose", "strands", "submodule_membership", "t4_tree",
    "taylor", "taylor_dg_structure", "taylor_graph", "taylor_resolution", "total_betti",
    "validate_matching", "verify_certificate",
]


def test_public_names_pinned():
    """`dgres.__all__`, the names `from dgres import *` gives, is frozen.  A
    change that adds or removes a public name updates this list and names
    the change in the README and in CHANGES.md."""
    assert sorted(dgres.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 76


def test_no_unused_imports():
    """Every name a module of `src/dgres` or `tests/` imports is read in it,
    by an AST scan of the names each module loads.  The package's
    `__init__.py` is exempt: its imports are the public names."""
    unused = []
    modules = sorted(Path(dgres.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in modules:
        if path == Path(dgres.__file__):
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [
                    f"{path.name}:{node.lineno} {name}"
                    for alias in node.names
                    if (name := (alias.asname or alias.name).split(".")[0]) not in read
                ]
    assert unused == []
