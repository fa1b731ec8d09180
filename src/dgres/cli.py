"""Command-line interface.

All subcommands write deterministic JSON (sorted keys) to stdout unless
``--format table`` or ``--dot`` asks for a human-readable rendering.  Exit
codes: 2 bad input, else 1 exactly when a check the command prints fails
(an "ok" or "matches_boocher" that is false; the README lists them per
command), else 0; betti's f_vector_test and classify's verdict are
results, not checks, and --dot prints no check.

Ideal input (taylor / lyubeznik / morse-graph / reduce / betti / dgcheck /
prune), by its minimal generating set, or the command exits 2:

  --family NAME           edge ideal of a named graph family
                          (L(a,b,c), P<d>, C<n>, T4(n;a1,..,an))
  --vars x,y,z --gens x*y,y*z
  --file ideal.json       {"variables": [...], "generators": [...]}
  --order g1,g2,...       reorder generators (names or 0-based indices)

Graph input (classify / cone4): --family NAME, --graph-file graph.json
({"vertices": [...], "edges": [[a,b], ...]}), or --edges a-b,b-c.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .classify import (
    VERSION,
    classify,
    kruskal_katona_is_fvector,
    verify_certificate,
)
from .combin import Graph, GraphError, build_family, edge_ideal
from .complexes import ComplexError, ComplexReport, LabeledFreeComplex, betti_totals, graded_betti
from .dg import DGError, DGIdealError, dg_check
from .diam4 import (
    build_cone_resolution,
    check_boundary_action,
    check_phi_z_multiplicative,
    check_sigma_zification,
)
from .morse import (
    MorseError,
    lyubeznik_matching,
    lyubeznik_resolution,
    matching_quotient,
    morse_reduce,
    taylor_graph,
    validate_matching,
)
from .poly import MonomialIdeal, PolyError, VariableSet
from .prune import prune_complex, prune_dg
from .taylor import taylor_dg_structure, taylor_resolution


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _emit(args, command: str, input_json, result: dict) -> None:
    if getattr(args, "format", "json") == "table":
        _print_table(command, result)
        return
    payload = {
        "version": VERSION,
        "command": command,
        "input_sha256": _sha256(input_json),
        "result": result,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _print_table(command: str, result: dict) -> None:
    def walk(d, indent=0):
        pad = "  " * indent
        if isinstance(d, dict):
            for k in sorted(d):
                v = d[k]
                if isinstance(v, (dict, list)) and v and not _short(v):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {_fmt(v)}")
        elif isinstance(d, list):
            for v in d:
                if isinstance(v, (dict, list)) and v and not _short(v):
                    print(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}- {_fmt(v)}")

    def _short(v) -> bool:
        return isinstance(v, list) and all(
            not isinstance(x, (dict, list)) for x in v
        )

    def _fmt(v) -> str:
        if isinstance(v, list):
            return "[" + ", ".join(str(x) for x in v) + "]"
        return str(v)

    print(f"# {command}")
    walk(result)


# ---------------------------------------------------------------------------
# input loading


def _add_ideal_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--family", help="named graph family; uses its edge ideal")
    sp.add_argument("--vars", help="comma-separated variable names")
    sp.add_argument("--gens", help="comma-separated monomial generators")
    sp.add_argument("--file", help="ideal JSON file")
    sp.add_argument("--order", help="generator order: names or 0-based indices")


def _add_graph_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--family", help="named graph family (L/P/C/T4)")
    sp.add_argument("--graph-file", help="graph JSON file")
    sp.add_argument("--edges", help="comma-separated edges a-b,b-c")
    sp.add_argument("--vertices", help="vertex list (default: union of edges)")


def _add_output_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=["json", "table"], default="json")
    sp.add_argument("--out", help="write JSON to this file instead of stdout")


def load_ideal(args) -> MonomialIdeal:
    chosen = [x for x in (args.family, args.gens, args.file) if x]
    if len(chosen) != 1:
        raise PolyError("specify exactly one of --family, --gens, --file")
    if args.family:
        ideal = edge_ideal(build_family(args.family))
    elif args.file:
        with open(args.file, encoding="utf-8") as fh:
            ideal = MonomialIdeal.from_json(json.load(fh))
    else:
        if not args.vars:
            raise PolyError("--gens requires --vars")
        ring = VariableSet(tuple(v.strip() for v in args.vars.split(",")))
        ideal = MonomialIdeal.from_strings(
            ring, [g.strip() for g in args.gens.split(",")]
        )
    if args.order:
        parts = [p.strip() for p in args.order.split(",")]
        if all(p.lstrip("-").isdigit() for p in parts):
            ideal = ideal.reorder([int(p) for p in parts])
        else:
            ideal = ideal.reorder(parts)
    return ideal


def load_graph(args) -> Graph:
    chosen = [x for x in (args.family, args.graph_file, args.edges) if x]
    if len(chosen) != 1:
        raise GraphError(
            "specify exactly one of --family, --graph-file, --edges"
        )
    if args.family:
        return build_family(args.family)
    if args.graph_file:
        with open(args.graph_file, encoding="utf-8") as fh:
            return Graph.from_json(json.load(fh))
    edges = []
    for e in args.edges.split(","):
        a, _, b = e.strip().partition("-")
        if not a or not b:
            raise GraphError(f"bad edge {e!r}; expected a-b")
        edges.append((a.strip(), b.strip()))
    if args.vertices:
        vertices = [v.strip() for v in args.vertices.split(",")]
    else:
        seen: list[str] = []
        for a, b in edges:
            for v in (a, b):
                if v not in seen:
                    seen.append(v)
        vertices = seen
    return Graph.build(vertices, edges)


def _load_matching(args, ideal: MonomialIdeal):
    if getattr(args, "matching_file", None):
        with open(args.matching_file, encoding="utf-8") as fh:
            data = json.load(fh)
        pairs = isinstance(data, list) and all(isinstance(a, list) and len(a) == 2 for a in data)
        if not pairs or not all(isinstance(v, list) and all(type(i) is int for i in v) for a in data for v in a):
            raise MorseError("a matching is a JSON list of [source, target] index lists")
        return [(tuple(s), tuple(t)) for s, t in data]
    return list(lyubeznik_matching(ideal))


def _refused_span(exc: DGIdealError) -> dict:
    """What a command prints when `quotient_dg` refuses a span that is not a
    dg ideal: whether the span is closed under d, and the generators whose
    boundary leaves it or else the products e_u * g outside it."""
    return {"ideal_closed": False, "closure": {"boundary_closed": exc.boundary_closed, "failures": exc.witness, "ok": False}}


def _complex_result(cx: LabeledFreeComplex, ideal: MonomialIdeal) -> tuple[dict, bool]:
    """The report on cx, and whether it resolves Q/I.  `is_resolution_of`
    verifies cx first and carries the `verify` report only when it fails."""
    resolves, res = cx.is_resolution_of(ideal)
    out = {
        "complex": cx.to_json(),
        "ranks": list(cx.ranks()),
        "verify": res.get("verify", ComplexReport(ok=True).to_json()),
        "is_minimal": cx.is_minimal(),
        "is_resolution": {"ok": resolves, **({} if resolves else {"detail": res})},
    }
    return out, resolves


# ---------------------------------------------------------------------------
# subcommands


def cmd_resolution(args) -> int:
    ideal = load_ideal(args)
    result, ok = _complex_result(args.build(ideal), ideal)
    _emit(args, args.command, ideal.to_json(), result)
    return 0 if ok else 1


def cmd_morse_graph(args) -> int:
    ideal = load_ideal(args)
    tg = taylor_graph(ideal)
    matching = None
    if args.lyubeznik or args.matching_file:
        matching = tuple(_load_matching(args, ideal))
    if args.dot:
        text = tg.to_dot(matching)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    result = {
        "generators": [str(g) for g in ideal.generators],
        "arcs": [[list(s), list(t)] for s, t in tg.arcs],
    }
    if matching is not None:
        result["matching"] = [[list(s), list(t)] for s, t in matching]
        result["matching_valid"] = validate_matching(tg, matching)
    _emit(args, "morse-graph", ideal.to_json(), result)
    return 0 if matching is None or result["matching_valid"]["ok"] else 1


def cmd_reduce(args) -> int:
    ideal = load_ideal(args)
    tg = taylor_graph(ideal)
    matching = _load_matching(args, ideal)
    val = validate_matching(tg, matching)
    if not val["ok"]:
        _emit(args, "reduce", ideal.to_json(), {"matching_valid": val})
        return 1
    T = taylor_resolution(ideal)
    reduced = morse_reduce(T, matching)
    result, ok = _complex_result(reduced, ideal)
    result["matching_valid"] = val
    result["matching"] = [[list(s), list(t)] for s, t in matching]
    _emit(args, "reduce", ideal.to_json(), result)
    return 0 if ok else 1


def cmd_betti(args) -> int:
    ideal = load_ideal(args)
    cx = taylor_resolution(ideal)
    gb = graded_betti(cx)
    total = list(betti_totals(gb))
    result = {
        "total": total,
        "graded": {
            f"{i}:{m}": dim for (i, m), dim in sorted(
                gb.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
            )
        },
        "f_vector_test": kruskal_katona_is_fvector(total),
    }
    _emit(args, "betti", ideal.to_json(), result)
    return 0


def cmd_cone4(args) -> int:
    graph = load_graph(args)
    res = build_cone_resolution(graph)
    result, ok = _complex_result(res.cone, res.decomposition.ideal_total)
    if args.check:
        rep = dg_check(res.dg, triples=not args.skip_triples)
        result["dg_check"] = rep.to_json()
        result["lemma_checks"] = {
            "phi_z_multiplicative": check_phi_z_multiplicative(res.decomposition),
            "sigma_zification": check_sigma_zification(res.decomposition),
            "boundary_action": check_boundary_action(res),
        }
        ok = ok and rep.ok and all(v["ok"] for v in result["lemma_checks"].values())
    _emit(args, "cone4", graph.to_json(), result)
    return 0 if ok else 1


def cmd_dgcheck(args) -> int:
    if args.structure == "cone4":
        graph = load_graph(args)
        res = build_cone_resolution(graph)
        dg = res.dg
        input_json = graph.to_json()
    else:
        ideal = load_ideal(args)
        input_json = ideal.to_json()
        if args.structure == "taylor":
            dg = taylor_dg_structure(ideal)
        else:  # quotient
            try:
                dg = matching_quotient(ideal, _load_matching(args, ideal))[1].structure
            except MorseError as exc:
                if exc.witness is None:
                    raise
                _emit(args, "dgcheck", input_json, {"matching_valid": exc.witness})
                return 1
            except DGIdealError as exc:
                _emit(args, "dgcheck", input_json, {"structure": args.structure, **_refused_span(exc)})
                return 1
    rep = dg_check(dg, triples=not args.skip_triples)
    result = {
        "structure": args.structure,
        "name": dg.name,
        "ranks": list(dg.complex.ranks()),
        "dg_check": rep.to_json(),
    }
    _emit(args, "dgcheck", input_json, result)
    return 0 if rep.ok else 1


def cmd_prune(args) -> int:
    ideal = load_ideal(args)
    kill = [v.strip() for v in args.kill.split(",") if v.strip()]
    input_json = {"ideal": ideal.to_json(), "kill": kill}
    if args.dg:
        try:
            pd = prune_dg(ideal, kill)
        except DGIdealError as exc:
            _emit(args, "prune", input_json, _refused_span(exc))
            return 1
        result = {
            "pruned_ideal": pd.pruned_ideal.to_json(),
            "stages": [s.to_json() for s in pd.boocher.stages],
            "pruned": pd.boocher.pruned.to_json(),
            "pruned_ranks": list(pd.boocher.pruned.ranks()),
            "verify": pd.boocher.report.to_json(),
            "quotient_ranks": list(pd.descended.complex.ranks()),
            "matches_boocher": pd.matches_boocher,
            "dg_check": dg_check(pd.descended, triples=not args.skip_triples).to_json(),
        }
        ok = (
            result["verify"]["ok"]
            and result["matches_boocher"]
            and result["dg_check"]["ok"]
        )
    else:
        F = lyubeznik_resolution(ideal)
        pr = prune_complex(F, kill)
        result = pr.to_json()
        ok = result["report"]["ok"]
    _emit(args, "prune", input_json, result)
    return 0 if ok else 1


def cmd_classify(args) -> int:
    graph = load_graph(args)
    cert = classify(graph)
    _emit(args, "classify", graph.to_json(), cert.to_json())
    return 0


def cmd_verify_certificate(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        cert = json.load(fh)
    if isinstance(cert, dict) and "verdict" not in cert and "result" in cert:
        # accept a whole `classify` output payload, not just the certificate
        cert = cert["result"]
    result = verify_certificate(cert)
    _emit(args, "verify-certificate", cert, result)
    return 0 if result["ok"] else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dgres",
        description="Exact dg-algebra structures on monomial resolutions.",
    )
    p.add_argument("--version", action="version", version=VERSION)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("taylor", help="Taylor resolution of an ideal")
    _add_ideal_args(sp)
    _add_output_args(sp)
    sp.set_defaults(fn=cmd_resolution, build=taylor_resolution)

    sp = sub.add_parser("lyubeznik", help="Lyubeznik resolution for the given order")
    _add_ideal_args(sp)
    _add_output_args(sp)
    sp.set_defaults(fn=cmd_resolution, build=lyubeznik_resolution)

    sp = sub.add_parser("morse-graph", help="Taylor digraph (JSON or DOT)")
    _add_ideal_args(sp)
    _add_output_args(sp)
    sp.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    sp.add_argument("--lyubeznik", action="store_true", help="include the A(<) matching")
    sp.add_argument("--matching-file", help="JSON [[source,target],...] matching")
    sp.set_defaults(fn=cmd_morse_graph)

    sp = sub.add_parser("reduce", help="Morse reduction along a matching")
    _add_ideal_args(sp)
    _add_output_args(sp)
    sp.add_argument("--matching-file",
                    help="JSON [[source,target],...] matching (default: the A(<) matching)")
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("betti", help="graded and total Betti numbers")
    _add_ideal_args(sp)
    _add_output_args(sp)
    sp.set_defaults(fn=cmd_betti)

    sp = sub.add_parser("cone4", help="mapping-cone resolution of a diameter-<=4 tree")
    _add_graph_args(sp)
    _add_output_args(sp)
    sp.add_argument("--check", action="store_true", help="run all dg axioms and lemmas")
    sp.add_argument("--skip-triples", action="store_true")
    sp.set_defaults(fn=cmd_cone4)

    sp = sub.add_parser("dgcheck", help="machine-check dg axioms")
    _add_ideal_args(sp)
    _add_graph_args_compat(sp)
    _add_output_args(sp)
    sp.add_argument("--structure", choices=["taylor", "quotient", "cone4"],
                    default="taylor")
    sp.add_argument("--matching-file", help="matching for --structure quotient")
    sp.add_argument("--skip-triples", action="store_true")
    sp.set_defaults(fn=cmd_dgcheck)

    sp = sub.add_parser("prune", help="prune a resolution by a variable set")
    _add_ideal_args(sp)
    _add_output_args(sp)
    sp.add_argument("--kill", required=True, help="comma-separated variables")
    sp.add_argument("--dg", action="store_true",
                    help="carry the dg structure through the pruning")
    sp.add_argument("--skip-triples", action="store_true")
    sp.set_defaults(fn=cmd_prune)

    sp = sub.add_parser("classify", help="dg/not-dg certificate for a tree or cycle")
    _add_graph_args(sp)
    _add_output_args(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("verify-certificate", help="recompute and compare a certificate")
    sp.add_argument("--file", required=True)
    _add_output_args(sp)
    sp.set_defaults(fn=cmd_verify_certificate)

    return p


def _add_graph_args_compat(sp: argparse.ArgumentParser) -> None:
    # dgcheck shares --family with the ideal group; add only the extras
    sp.add_argument("--graph-file", help="graph JSON file (--structure cone4)")
    sp.add_argument("--edges", help="comma-separated edges a-b,b-c")
    sp.add_argument("--vertices", help="vertex list for --edges")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PolyError, GraphError, MorseError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ComplexError, DGError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
