#!/usr/bin/env python3
"""Time the scale cases and check their results.

For the edge ideals of the paths P12, P14 and P16 this builds, in order, the
Taylor resolution, the Lyubeznik resolution, the Lyubeznik matching and
the Morse reduction of the Taylor resolution along that matching.  The
ranks of the three complexes and the number of matched pairs are checked
against frozen values; the Morse complex must have the Lyubeznik ranks.
On P14 each of the three complexes, which their writers build without the
constructor's per-entry checks, must also equal its rebuild through the
public `LabeledFreeComplex` constructor: the same tags, order,
multidegrees, entries and entry types, and for every label the same
`degree_of(label)` and `find_label(label.tag)`.
Then it classifies the diameter-4 trees T4(3;2,2,2) and T4(3;3,3,3), whose
certificates rest on the cone product, checked by `dg_check` on all 134^2
pairs and 134^3 triples and on all 1030^2 pairs and 1030^3 triples, and the
diameter-3 trees L(4,4,0), L(6,6,0) and L(7,7,0), whose certificates rest
on the Lyubeznik quotients of their 512-, 8192- and 32768-label Taylor
algebras.  Their matching sources are closed under supersets, so
`quotient_dg` decides each span a dg ideal by the superset-closure lemma
and counts its 26715, 3265815 and 33732597 nonzero products e_u * g from
masks; `dg_check` then checks the 62-, 254- and 510-label quotients on
every pair and triple.  A product of two survivors is formed from the one
Taylor product of the pair (`DGStructure.product`), so the quotient rows
read no whole Taylor row.  Each certificate
checks its resolution on the lcm lattice, whatever the number of active
variables.  The verdict, ranks and check counts must match frozen values.
Then it makes 100 `classify` + `verify_certificate` round trips on P10,
whose not-dg certificate prunes the path to its first 5-edge window: every
certificate must equal the first and verify, with the frozen verdict, kind
and 5-path Betti vector.
Then it runs the strand check of `is_resolution_of` on the Lyubeznik
resolutions of P13 and P16, on 14 and 17 active variables, which walks
the lcm lattice of each, 1,897 and 10,252 strands: each must report a
resolution with no strand failure.
Last, the "L(6,6,0) descent" row runs `prune_dg` on L(6,6,0), its
generators in central-edge-first order as its certificate takes them, by
x1: F, the Lyubeznik quotient of the 8192-label Taylor algebra, descends
to P(F, {x1}), F restricted to its 190 labels without x1.  F and P must be
minimal, P must equal Boocher's pruning of the Lyubeznik resolution, and
`dg_check` on P must pass on all 190^2 pairs and 190^3 triples; the ranks
and check counts must match frozen values.
Each stage is timed in the reference-kernel units (`ref`) of
`perfbench/meter.py`, which correct for the host's drifting speed, and in
seconds.

Prints one JSON line and exits nonzero when a check fails.  Run from a
dgres checkout:

    PYTHONPATH=src python3 scripts/scale_cases.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from meter import Meter  # noqa: E402

from dgres import (  # noqa: E402
    LabeledFreeComplex,
    build_family,
    classify,
    dg_check,
    edge_ideal,
    lyubeznik_matching,
    lyubeznik_resolution,
    morse_reduce,
    prune_dg,
    taylor_resolution,
    verify_certificate,
)
from dgres.classify import _d3_order  # noqa: E402
from dgres.combin import graph_shape  # noqa: E402

# ranks of the Taylor and Lyubeznik (= Morse) complexes, and matched pairs
FROZEN = {
    "P12": {
        "taylor": [1, 12, 66, 220, 495, 792, 924, 792, 495, 220, 66, 12, 1],
        "lyubeznik": [1, 12, 65, 210, 450, 672, 714, 540, 285, 100, 21, 2],
        "pairs": 512,
    },
    "P14": {
        "taylor": [1, 14, 91, 364, 1001, 2002, 3003, 3432, 3003, 2002, 1001, 364, 91, 14, 1],
        "lyubeznik": [1, 14, 90, 352, 935, 1782, 2508, 2640, 2079, 1210, 506, 144, 25, 2],
        "pairs": 2048,
    },
    "P16": {
        "taylor": [1, 16, 120, 560, 1820, 4368, 8008, 11440, 12870, 11440, 8008, 4368, 1820, 560, 120, 16, 1],
        "lyubeznik": [1, 16, 119, 546, 1729, 4004, 7007, 9438, 9867, 8008, 5005, 2366, 819, 196, 29, 2],
        "pairs": 8192,
    },
}

CLASSIFY = {
    "T4(3;2,2,2)": {
        "verdict": "dg",
        "kind": "cone-product",
        "ranks": [1, 9, 24, 36, 35, 21, 7, 1],
        "checked_pairs": 17956,
        "checked_triples": 2406104,
        "triples_checked": True,
        "resolution_checked": True,
    },
    "T4(3;3,3,3)": {
        "verdict": "dg",
        "kind": "cone-product",
        "ranks": [1, 12, 48, 121, 210, 252, 210, 120, 45, 10, 1],
        "checked_pairs": 1060900,
        "checked_triples": 1092727000,
        "triples_checked": True,
        "resolution_checked": True,
    },
    "L(4,4,0)": {
        "verdict": "dg",
        "kind": "lyubeznik-quotient",
        "ranks": [1, 9, 20, 20, 10, 2],
        "quotient_ranks": [1, 9, 20, 20, 10, 2],
        "closure_products_checked": 26715,
        "checked_pairs": 3844,
        "checked_triples": 238328,
        "triples_checked": True,
        "resolution_checked": True,
    },
    "L(6,6,0)": {
        "verdict": "dg",
        "kind": "lyubeznik-quotient",
        "ranks": [1, 13, 42, 70, 70, 42, 14, 2],
        "quotient_ranks": [1, 13, 42, 70, 70, 42, 14, 2],
        "closure_products_checked": 3265815,
        "checked_pairs": 64516,
        "checked_triples": 16387064,
        "triples_checked": True,
        "resolution_checked": True,
    },
    "L(7,7,0)": {
        "verdict": "dg",
        "kind": "lyubeznik-quotient",
        "ranks": [1, 15, 56, 112, 140, 112, 56, 16, 2],
        "quotient_ranks": [1, 15, 56, 112, 140, 112, 56, 16, 2],
        "closure_products_checked": 33732597,
        "checked_pairs": 260100,
        "checked_triples": 132651000,
        "triples_checked": True,
        "resolution_checked": True,
    },
}

# repeated classify + verify_certificate round trips on a not-dg path
ROUND_TRIPS = {
    "P10": {
        "round_trips": 100,
        "verdict": "not_dg",
        "kind": "prunes-to-non-dg-path",
        "path_betti": [1, 5, 7, 4, 1],
        "identical": 100,
        "verified": 100,
    },
}


# the strand check on Lyubeznik resolutions, by number of active variables
SWEEPS = {
    "P13": {"variables": 14, "ok": True, "strand_failures": []},
    "P16": {"variables": 17, "ok": True, "strand_failures": []},
}


# prune_dg on a diameter-3 tree in central-edge-first order, by one variable
DESCENTS = {
    "L(6,6,0)": {
        "by": "x1",
        "ranks": [1, 12, 36, 55, 50, 27, 8, 1],
        "F_minimal": True,
        "P_minimal": True,
        "matches_boocher": True,
        "dg_check_ok": True,
        "checked_pairs": 36100,
        "checked_triples": 6859000,
    },
}


def timed(meter: Meter) -> dict:
    keys = [k for k in meter.ref if k != "pass"]
    return {
        "ref": {k: round(meter.ref[k], 1) for k in keys},
        "seconds": {k: round(meter.seconds[k], 3) for k in keys},
    }


def checked(got: dict, want: dict) -> dict:
    return {"ok": got == want, **({} if got == want else {"got": got, "want": want})}


def classify_case(name: str) -> dict:
    graph = build_family(name)
    with Meter() as meter:
        cert = meter.call("classify", classify, graph)
    ev = cert.evidence
    got = {
        "verdict": cert.verdict,
        "kind": ev["kind"],
        "ranks": ev["ranks"],
        "checked_pairs": ev["dg_check"]["checked_pairs"],
        "checked_triples": ev["dg_check"]["checked_triples"],
        "triples_checked": ev["dg_check"]["triples_checked"],
        "resolution_checked": ev["resolution"]["checked"],
    }
    # the Lyubeznik quotient's own counts
    got.update({k: ev[k] for k in ("quotient_ranks", "closure_products_checked") if k in ev})
    return {**checked(got, CLASSIFY[name]), **timed(meter)}


def round_trip_case(name: str) -> dict:
    graph = build_family(name)
    want = ROUND_TRIPS[name]
    certs, verified = [], 0
    with Meter() as meter:
        for _ in range(want["round_trips"]):
            cert = meter.call("classify", classify, graph).to_json()
            verified += meter.call("verify_certificate", verify_certificate, cert)["ok"]
            certs.append(cert)
    first = certs[0]
    got = {
        "round_trips": len(certs),
        "verdict": first["verdict"],
        "kind": first["evidence"]["kind"],
        "path_betti": first["evidence"]["path_betti"],
        "identical": sum(cert == first for cert in certs),
        "verified": verified,
    }
    return {**checked(got, want), **timed(meter)}


def sweep_case(name: str) -> dict:
    ideal = edge_ideal(build_family(name))
    L = lyubeznik_resolution(ideal)
    with Meter() as meter:
        ok, report = meter.call("is_resolution_of", L.is_resolution_of, ideal)
    got = {"variables": len(ideal.ring.active_names()), "ok": ok, "strand_failures": report.get("strand_failures")}
    return {**checked(got, SWEEPS[name]), **timed(meter)}


def descent_case(name: str) -> dict:
    graph = build_family(name)
    ideal = edge_ideal(graph)
    ordered = ideal.reorder(_d3_order(graph_shape(graph).walk, ideal))
    want = DESCENTS[name]
    with Meter() as meter:
        pd = meter.call("prune_dg", prune_dg, ordered, [want["by"]])
        report = meter.call("dg_check", dg_check, pd.descended)
    got = {
        "by": want["by"],
        "ranks": list(pd.descended.complex.ranks()),
        "F_minimal": pd.resolution_quotient.structure.complex.is_minimal(),
        "P_minimal": pd.descended.complex.is_minimal(),
        "matches_boocher": pd.matches_boocher,
        "dg_check_ok": report.ok,
        "checked_pairs": report.checked_pairs,
        "checked_triples": report.checked_triples,
    }
    return {**checked(got, want), **timed(meter)}


def stored_form(cx: LabeledFreeComplex) -> tuple:
    """The ring, name, bases and columns of cx in order, each entry with its
    type (1 == Fraction(1), but a stored entry is an int when integral)."""
    return (
        cx.ring,
        cx.name,
        [[(l.tag, l.multidegree) for l in cx.labels(i)] for i in cx.degrees()],
        [
            (i, [(c.tag, c.multidegree, [(r.tag, r.multidegree, v, type(v)) for r, v in col.items()])
                 for c, col in cols.items()])
            for i, cols in cx.diff.items()
        ],
    )


def index_form(cx: LabeledFreeComplex, labels: list) -> list:
    """What the label index of cx answers for each label: its degree and
    the label its tag names."""
    return [(cx.degree_of(l), cx.find_label(l.tag)) for l in labels]


def as_validated(cx: LabeledFreeComplex) -> dict:
    """Whether cx equals the complex the validating constructor builds from
    its own columns, in stored form and in its label index."""
    rebuilt = LabeledFreeComplex(cx.ring, cx.basis, cx.diff, name=cx.name)
    labels = [l for i in cx.degrees() for l in cx.labels(i)]
    return {
        "stored": stored_form(cx) == stored_form(rebuilt),
        "index": index_form(cx, labels) == index_form(rebuilt, labels),
    }


def run_case(name: str) -> dict:
    ideal = edge_ideal(build_family(name))
    with Meter() as meter:
        T = meter.call("taylor_resolution", taylor_resolution, ideal)
        L = meter.call("lyubeznik_resolution", lyubeznik_resolution, ideal)
        matching = meter.call("lyubeznik_matching", lyubeznik_matching, ideal)
        M = meter.call("morse_reduce", morse_reduce, T, matching)
    frozen = FROZEN[name]
    got = {
        "taylor": list(T.ranks()),
        "lyubeznik": list(L.ranks()),
        "morse": list(M.ranks()),
        "pairs": len(matching),
    }
    want = {**frozen, "morse": frozen["lyubeznik"]}
    if name == "P14":  # also rebuilt through the public constructor
        got["as_validated"] = {"taylor": as_validated(T), "lyubeznik": as_validated(L), "morse": as_validated(M)}
        want["as_validated"] = {k: {"stored": True, "index": True} for k in ("taylor", "lyubeznik", "morse")}
    return {**checked(got, want), **timed(meter)}


def main() -> int:
    cases = {name: run_case(name) for name in FROZEN}
    cases.update({name: classify_case(name) for name in CLASSIFY})
    cases.update({f"{name} round trips": round_trip_case(name) for name in ROUND_TRIPS})
    cases.update({f"{name} strand sweep": sweep_case(name) for name in SWEEPS})
    cases.update({f"{name} descent": descent_case(name) for name in DESCENTS})
    ok = all(case["ok"] for case in cases.values())
    print(json.dumps({"ok": ok, "cases": cases}, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
