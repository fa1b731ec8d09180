"""End-to-end tests of the `dgres` command line: every subcommand, the
documented exit codes (0 success, 1 failed check, 2 bad input), byte-level
determinism of the JSON output, and the file formats it reads and writes."""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dgres.cli import main

WHISKER_ARGS = [
    "--vars",
    "x,y,x1,y1,z",
    "--gens",
    "x*y,x*z,y*z,x*x1,y*y1",
]

# acyclic matching on the Taylor complex of the 5-cycle (consecutive
# generator order), reducing it to the minimal resolution
C5_MATCHING_JSON = [
    [[0, 1, 2, 4], [0, 2, 4]],
    [[0, 1, 2], [0, 2]],
    [[0, 1, 3, 4], [0, 1, 3]],
    [[0, 1, 4], [1, 4]],
    [[0, 1, 2, 3, 4], [0, 1, 2, 3]],
    [[2, 3, 4], [2, 4]],
    [[0, 3, 4], [0, 3]],
    [[0, 2, 3, 4], [0, 2, 3]],
    [[1, 2, 3], [1, 3]],
    [[1, 2, 3, 4], [1, 2, 4]],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert out, err
    return code, json.loads(out)


class TestTaylorCommand:
    def test_payload_shape(self):
        code, payload = run_json(["taylor", "--vars", "x,y,z", "--gens", "x*y,y*z"])
        assert code == 0
        assert set(payload) == {"version", "command", "input_sha256", "result"}
        assert payload["command"] == "taylor"
        r = payload["result"]
        assert r["ranks"] == [1, 2, 1]
        assert r["is_minimal"] is True
        assert r["verify"]["ok"] is True
        assert r["is_resolution"]["ok"] is True

    def test_input_hash_matches_ideal_json(self):
        from dgres import MonomialIdeal, VariableSet

        ring = VariableSet(("x", "y", "z"))
        ideal = MonomialIdeal.from_strings(ring, ["x*y", "y*z"])
        expected = hashlib.sha256(
            json.dumps(ideal.to_json(), sort_keys=True).encode("utf-8")
        ).hexdigest()
        _, payload = run_json(["taylor", "--vars", "x,y,z", "--gens", "x*y,y*z"])
        assert payload["input_sha256"] == expected

    def test_deterministic_output(self):
        argv = ["taylor"] + WHISKER_ARGS
        assert run(argv) == run(argv)

    def test_out_file(self, tmp_path):
        target = tmp_path / "taylor.json"
        code, out, _ = run(
            ["taylor", "--vars", "x,y", "--gens", "x*y", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["result"]["ranks"] == [1, 1]

    def test_table_format(self):
        code, out, _ = run(
            ["taylor", "--vars", "x,y,z", "--gens", "x*y,y*z", "--format", "table"]
        )
        assert code == 0
        assert out.startswith("# taylor")
        assert "ranks: [1, 2, 1]" in out

    @pytest.mark.parametrize("nvars", [14, 15])
    def test_strand_sweep_cap(self, nvars):
        # the check once stopped at 14 active variables
        names = [f"x{k}" for k in range(nvars)]
        gens = ["*".join(names[k::4]) for k in range(4)]
        _, payload = run_json(["taylor", "--vars", ",".join(names), "--gens", ",".join(gens)])
        assert payload["result"]["is_resolution"] == {"ok": True}

    def test_order_flag(self):
        _, payload = run_json(
            ["taylor", "--vars", "x,y,z", "--gens", "x*y,y*z", "--order", "1,0"]
        )
        labels = payload["result"]["complex"]["basis"]["1"]
        assert [l["multidegree"] for l in labels] == ["y*z", "x*y"]


class TestLyubeznikCommand:
    def test_default_order_p3(self):
        code, payload = run_json(["lyubeznik", "--family", "P3"])
        assert code == 0
        assert payload["result"]["ranks"] == [1, 3, 3, 1]
        assert payload["result"]["is_minimal"] is False
        assert payload["result"]["is_resolution"]["ok"] is True

    def test_file_input(self, tmp_path):
        f = tmp_path / "ideal.json"
        f.write_text(
            json.dumps({"variables": ["a", "b", "c"], "generators": ["a*b", "b*c"]})
        )
        code, payload = run_json(["lyubeznik", "--file", str(f)])
        assert code == 0
        assert payload["result"]["ranks"] == [1, 2, 1]


class TestMorseGraphCommand:
    def test_arcs_json(self):
        code, payload = run_json(["morse-graph"] + WHISKER_ARGS)
        assert code == 0
        assert len(payload["result"]["arcs"]) == 21
        assert "matching" not in payload["result"]

    def test_with_lyubeznik_matching(self):
        code, payload = run_json(["morse-graph", "--lyubeznik"] + WHISKER_ARGS)
        assert code == 0
        r = payload["result"]
        assert len(r["matching"]) == 9
        assert r["matching_valid"]["ok"] is True

    def test_dot_output(self, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run(
            ["morse-graph", "--dot", "--lyubeznik", "--out", str(target)]
            + WHISKER_ARGS
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("digraph")
        assert "style=dashed, color=red" in text

    def test_dot_to_stdout(self):
        code, out, _ = run(["morse-graph", "--dot"] + WHISKER_ARGS)
        assert code == 0
        assert out.startswith("digraph")

    def test_invalid_matching_exits_1_in_json_and_0_with_dot(self, tmp_path):
        # the two arcs of C4's Taylor graph out of {0, 1, 2, 3} share a source
        f = tmp_path / "bad.json"
        f.write_text(json.dumps([[[0, 1, 2, 3], [0, 1, 2]], [[0, 1, 2, 3], [0, 1, 3]]]))
        code, payload = run_json(["morse-graph", "--family", "C4", "--matching-file", str(f)])
        assert code == 1
        assert payload["result"]["matching_valid"]["ok"] is False
        code, out, _ = run(["morse-graph", "--family", "C4", "--matching-file", str(f), "--dot"])
        assert code == 0
        assert out.startswith("digraph")


class TestReduceCommand:
    def test_default_matching_c5(self):
        code, payload = run_json(
            ["reduce", "--family", "C5", "--order", "0,2,3,4,1"]
        )
        assert code == 0
        # the order-derived matching is valid but not minimizing here
        assert payload["result"]["ranks"] == [1, 5, 9, 7, 2]
        assert payload["result"]["is_minimal"] is False

    def test_matching_file_gives_minimal_c5(self, tmp_path):
        f = tmp_path / "matching.json"
        f.write_text(json.dumps(C5_MATCHING_JSON))
        code, payload = run_json(
            [
                "reduce",
                "--family",
                "C5",
                "--order",
                "0,2,3,4,1",
                "--matching-file",
                str(f),
            ]
        )
        assert code == 0
        r = payload["result"]
        assert r["ranks"] == [1, 5, 5, 1]
        assert r["is_minimal"] is True
        assert r["is_resolution"]["ok"] is True

    def test_invalid_matching_exits_1(self, tmp_path):
        f = tmp_path / "bad.json"
        # two arcs sharing the target (1,2)
        f.write_text(json.dumps([[[0, 1, 2], [1, 2]], [[1, 2, 3], [1, 2]]]))
        code, payload = run_json(
            ["reduce", "--family", "C5", "--matching-file", str(f)]
        )
        assert code == 1
        assert payload["result"]["matching_valid"]["ok"] is False
        assert "ranks" not in payload["result"]


class TestBettiCommand:
    def test_c6(self):
        code, payload = run_json(["betti", "--family", "C6"])
        assert code == 0
        r = payload["result"]
        assert r["total"] == [1, 6, 9, 6, 2]
        assert r["f_vector_test"]["ok"] is False
        assert r["graded"]["0:1"] == 1
        assert r["graded"]["1:v1*v2"] == 1
        assert r["graded"]["4:v1*v2*v3*v4*v5*v6"] == 2

    def test_graded_betti_is_computed_once(self, monkeypatch):
        import dgres.cli
        import dgres.complexes

        calls = []

        def counting(F, _inner=dgres.complexes.graded_betti):
            calls.append(F)
            return _inner(F)

        monkeypatch.setattr(dgres.cli, "graded_betti", counting)
        monkeypatch.setattr(dgres.complexes, "graded_betti", counting)
        code, payload = run_json(["betti", "--family", "C5"])
        assert code == 0
        assert payload["result"]["total"] == [1, 5, 5, 1]
        assert len(calls) == 1

    def test_graded_sums_match_total(self):
        _, payload = run_json(["betti", "--family", "C4"])
        r = payload["result"]
        sums = {}
        for key, dim in r["graded"].items():
            i = int(key.split(":", 1)[0])
            sums[i] = sums.get(i, 0) + dim
        assert [sums[i] for i in sorted(sums)] == r["total"]


class TestCone4Command:
    def test_with_checks(self):
        code, payload = run_json(["cone4", "--family", "T4(2;1,1)", "--check"])
        assert code == 0
        r = payload["result"]
        assert r["ranks"] == [1, 4, 4, 1]
        assert r["is_minimal"] is True
        assert r["dg_check"]["ok"] is True
        assert all(v["ok"] for v in r["lemma_checks"].values())

    def test_plain(self):
        code, payload = run_json(["cone4", "--family", "L(2,1,0)"])
        assert code == 0
        assert payload["result"]["ranks"] == [1, 4, 4, 1]
        assert "dg_check" not in payload["result"]

    def test_rejects_deep_tree(self):
        code, _, err = run(["cone4", "--family", "P5"])
        assert code == 2
        assert "error:" in err


# every command that prints a complex with its is_resolution report
RESOLUTION_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["taylor", "--family", "C4"],
        ["lyubeznik", "--family", "C4"],
        ["reduce", "--family", "C4"],
        ["cone4", "--family", "T4(2;1,1)"],
        ["cone4", "--family", "T4(2;1,1)", "--check"],
    ],
    ids=["taylor", "lyubeznik", "reduce", "cone4", "cone4-check"],
)


@RESOLUTION_COMMANDS
def test_failed_is_resolution_exits_1(monkeypatch, argv):
    # every command that prints is_resolution exits from it
    from dgres.complexes import LabeledFreeComplex

    monkeypatch.setattr(LabeledFreeComplex, "is_resolution_of", lambda self, ideal: (False, {"injected": True}))
    code, payload = run_json(argv)
    assert code == 1
    assert payload["result"]["is_resolution"] == {"ok": False, "detail": {"injected": True}}
    assert payload["result"]["verify"]["ok"] is True


@RESOLUTION_COMMANDS
def test_complex_is_verified_once(monkeypatch, argv):
    # the printed verify block is the one is_resolution_of ran
    from dgres.complexes import LabeledFreeComplex

    verified = []
    verify = LabeledFreeComplex.verify
    monkeypatch.setattr(LabeledFreeComplex, "verify", lambda self: verified.append(self) or verify(self))
    code, payload = run_json(argv)
    assert code == 0
    assert len(verified) == 1
    assert payload["result"]["verify"] == {"ok": True, "d2_failures": [], "homogeneity_failures": [], "degree_zero_ok": True}


def test_failed_verify_is_printed_and_exits_1(monkeypatch):
    from dgres.complexes import ComplexReport, LabeledFreeComplex

    failed = ComplexReport(ok=False, d2_failures=[[2, "injected"]])
    monkeypatch.setattr(LabeledFreeComplex, "verify", lambda self: failed)
    code, payload = run_json(["taylor", "--family", "C4"])
    assert code == 1
    result = payload["result"]
    assert result["verify"] == failed.to_json()
    assert result["is_resolution"] == {"ok": False, "detail": {"complex_ok": False, "verify": failed.to_json()}}


class TestDgcheckCommand:
    def test_taylor_structure(self):
        code, payload = run_json(
            ["dgcheck", "--structure", "taylor", "--vars", "x,y,z", "--gens", "x*y,y*z,x*z"]
        )
        assert code == 0
        assert payload["result"]["dg_check"]["ok"] is True
        assert payload["result"]["ranks"] == [1, 3, 3, 1]

    def test_quotient_invalid_matching_emits_payload(self, tmp_path):
        # validation failure must go through the standard payload path,
        # including --out, not a bare JSON fragment on stdout
        f = tmp_path / "m.json"
        f.write_text(json.dumps(C5_MATCHING_JSON))
        out_file = tmp_path / "payload.json"
        code, out, _ = run(
            [
                "dgcheck",
                "--structure",
                "quotient",
                "--family",
                "C5",  # default generator order: these arcs are not in the graph
                "--matching-file",
                str(f),
                "--out",
                str(out_file),
            ]
        )
        assert code == 1
        assert out == ""
        payload = json.loads(out_file.read_text())
        assert payload["command"] == "dgcheck"
        assert set(payload) == {"version", "command", "input_sha256", "result"}
        assert payload["result"]["matching_valid"]["ok"] is False
        assert payload["result"]["matching_valid"]["not_in_graph"]

    def test_quotient_span_not_a_dg_ideal(self, tmp_path):
        # one arc of C4's Taylor graph: a valid matching whose span is closed
        # under d, but e_1 times e_{0,2,3} leaves it
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[[0, 2, 3], [0, 3]]]))
        code, payload = run_json(
            ["dgcheck", "--structure", "quotient", "--family", "C4", "--matching-file", str(f)]
        )
        assert code == 1
        result = payload["result"]
        assert result["structure"] == "quotient" and result["ideal_closed"] is False
        closure = result["closure"]
        assert closure["boundary_closed"] is True and closure["ok"] is False
        assert len(closure["failures"]) == 5
        assert closure["failures"][0] == {
            "factor": ["e", 1],
            "gen": ["e", 0, 2, 3],
            "product": "(-v1*v4)*(e,0,1,2,3)[v1*v2*v3*v4]",
        }

    def test_quotient_structure(self, tmp_path):
        f = tmp_path / "matching.json"
        f.write_text(json.dumps(C5_MATCHING_JSON))
        code, payload = run_json(
            [
                "dgcheck",
                "--structure",
                "quotient",
                "--family",
                "C5",
                "--order",
                "0,2,3,4,1",
                "--matching-file",
                str(f),
            ]
        )
        assert code == 0
        assert payload["result"]["ranks"] == [1, 5, 5, 1]
        assert payload["result"]["dg_check"]["ok"] is True

    def test_cone4_structure(self):
        code, payload = run_json(
            ["dgcheck", "--structure", "cone4", "--family", "T4(2;1,1)"]
        )
        assert code == 0
        assert payload["result"]["dg_check"]["ok"] is True


class TestPruneCommand:
    IDEAL = ["--vars", "x,y,x1,y1,z1", "--gens", "x*y,y*z1,x*z1,x*x1,y*y1"]

    def test_plain_prune(self):
        code, payload = run_json(["prune", "--kill", "y1"] + self.IDEAL)
        assert code == 0
        r = payload["result"]
        assert [s["degree"] for s in r["stages"]] == [1, 2, 3]
        assert r["report"]["ok"] is True

    def test_dg_prune(self):
        code, payload = run_json(["prune", "--kill", "y1", "--dg"] + self.IDEAL)
        assert code == 0
        r = payload["result"]
        assert r["pruned_ranks"] == [1, 4, 4, 1]
        assert r["quotient_ranks"] == [1, 4, 4, 1]
        assert r["matches_boocher"] is True
        assert r["dg_check"]["ok"] is True
        assert r["pruned_ideal"]["generators"] == ["x*y", "y*z1", "x*z1", "x*x1"]

    def test_dg_prune_refuses_a_span_that_is_not_a_dg_ideal(self):
        # the Lyubeznik span of this ideal is not a dg ideal: prune --dg
        # prints the closure failures dgcheck prints for it, and exits 1
        ideal = ["--vars", "a,b,c,d,e", "--gens", "b*c,a*b,d*e,a*e,a*c*d"]
        code, out, err = run(["prune", "--kill", "a", "--dg"] + ideal)
        assert code == 1 and err == ""
        result = json.loads(out)["result"]
        _, dgcheck = run_json(["dgcheck", "--structure", "quotient"] + ideal)
        assert result == {
            "ideal_closed": False,
            "closure": {"boundary_closed": True, "failures": dgcheck["result"]["closure"]["failures"], "ok": False},
        }
        failures = result["closure"]["failures"]
        assert [(f["factor"], f["gen"]) for f in failures] == [
            (["e", 1], ["e", 2, 3, 4]),
            *((factor, ["de", 2, 3, 4]) for factor in (["e", 1], ["e", 0, 1], ["e", 1, 2], ["e", 1, 3], ["e", 1, 4])),
        ]
        assert failures[0]["product"] == "(a)*(e,1,2,3,4)[a*b*c*d*e]"


class TestClassifyCommand:
    def test_dg_tree_from_edges(self):
        code, payload = run_json(["classify", "--edges", "a-b,b-c"])
        assert code == 0
        assert payload["result"]["verdict"] == "dg"
        assert payload["result"]["diameter"] == 2

    def test_not_dg_still_exits_0(self):
        code, payload = run_json(["classify", "--family", "C6"])
        assert code == 0
        assert payload["result"]["verdict"] == "not_dg"

    def test_graph_file(self, tmp_path):
        f = tmp_path / "graph.json"
        f.write_text(
            json.dumps(
                {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"]]}
            )
        )
        code, payload = run_json(["classify", "--graph-file", str(f)])
        assert code == 0
        assert payload["result"]["diameter"] == 3

    def test_cycle_edges_in_any_order(self):
        # a C5 whose vertices, read in order of first appearance, are not
        # in cycle order
        code, payload = run_json(["classify", "--edges", "a-b,d-e,b-c,c-d,e-a"])
        assert code == 0
        assert payload["result"]["verdict"] == "dg"
        assert payload["result"]["betti"] == [1, 5, 5, 1]

    def test_unsupported_graph_exits_2(self):
        code, _, err = run(["classify", "--family", "L(1,1,1)"])
        assert code == 2
        assert "error:" in err


class TestVerifyCertificateCommand:
    def test_roundtrip(self, tmp_path):
        _, payload = run_json(["classify", "--family", "C5"])
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(payload["result"]))
        code, verified = run_json(["verify-certificate", "--file", str(cert_file)])
        assert code == 0
        assert verified["result"] == {"ok": True, "mismatches": []}

    def test_accepts_whole_classify_payload(self, tmp_path):
        # `classify --out f && verify-certificate --file f` should work
        # without extracting the `result` field by hand.
        _, payload = run_json(["classify", "--family", "C5"])
        cert_file = tmp_path / "payload.json"
        cert_file.write_text(json.dumps(payload))
        code, verified = run_json(["verify-certificate", "--file", str(cert_file)])
        assert code == 0
        assert verified["result"] == {"ok": True, "mismatches": []}

    def test_tampered_certificate_exits_1(self, tmp_path):
        _, payload = run_json(["classify", "--family", "C5"])
        cert = payload["result"]
        cert["verdict"] = "not_dg"
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        code, verified = run_json(["verify-certificate", "--file", str(cert_file)])
        assert code == 1
        assert verified["result"]["ok"] is False

    @pytest.mark.parametrize(
        "malform",
        [
            lambda cert: {k: v for k, v in cert.items() if k != "graph"},
            lambda cert: [cert],
            lambda cert: {**cert, "evidence": ["morse-quotient"]},
            lambda cert: {**cert, "graph": {"vertices": ["a", "b"]}},
        ],
        ids=["no-graph", "json-array", "evidence-not-an-object", "graph-without-edges"],
    )
    def test_malformed_certificate_exits_2(self, tmp_path, malform):
        _, payload = run_json(["classify", "--family", "C5"])
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(malform(payload["result"])))
        code, out, err = run(["verify-certificate", "--file", str(cert_file)])
        assert code == 2
        assert err.startswith("error: ") and not out


class TestErrors:
    def test_unknown_family(self):
        code, _, err = run(["taylor", "--family", "Q7"])
        assert code == 2
        assert "error:" in err

    def test_gens_without_vars(self):
        code, _, err = run(["taylor", "--gens", "x*y"])
        assert code == 2

    def test_conflicting_inputs(self):
        code, _, err = run(
            ["taylor", "--family", "C4", "--vars", "x,y", "--gens", "x*y"]
        )
        assert code == 2

    def test_missing_file(self, tmp_path):
        code, _, err = run(["lyubeznik", "--file", str(tmp_path / "nope.json")])
        assert code == 2

    def test_bad_monomial_grammar(self):
        # concatenated names are a single unknown variable, not a product
        code, _, err = run(["taylor", "--vars", "x,y", "--gens", "xy"])
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        [
            [1, 2],
            {"variables": ["x"]},
            {"variables": "xy", "generators": ["x"]},
            {"variables": ["x", "y"], "generators": [["x"]]},
            {"variables": ["x", "y"], "generators": ["x*y"], "inactive": 1},
        ],
        ids=["json-array", "no-generators", "variables-not-a-list", "generator-not-a-string", "inactive-not-a-list"],
    )
    def test_malformed_ideal_file_exits_2(self, tmp_path, content):
        f = tmp_path / "ideal.json"
        f.write_text(json.dumps(content))
        code, out, err = run(["taylor", "--file", str(f)])
        assert code == 2
        assert err.startswith("error: ") and not out

    @pytest.mark.parametrize(
        "command",
        [["reduce"], ["dgcheck", "--structure", "quotient"]],
        ids=["reduce", "dgcheck-quotient"],
    )
    @pytest.mark.parametrize(
        "content",
        [[[1, 2]], {"a": 1}, [[[0, 1, 2]]], [[[0, 1, 2], [0, "1"]]], 3],
        ids=["arc-of-ints", "json-object", "arc-of-one-cell", "index-not-an-int", "json-number"],
    )
    def test_malformed_matching_file_exits_2(self, tmp_path, command, content):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(content))
        code, out, err = run([*command, "--family", "C4", "--matching-file", str(f)])
        assert code == 2
        assert err.startswith("error: ") and not out

    @pytest.mark.parametrize(
        "command",
        [
            ["taylor"],
            ["betti"],
            ["dgcheck"],
            ["lyubeznik"],
            ["morse-graph"],
            ["morse-graph", "--lyubeznik"],
            ["prune", "--kill", "y"],
            ["reduce"],
            ["dgcheck", "--structure", "quotient"],
            ["prune", "--kill", "y", "--dg"],
        ],
        ids=lambda c: "-".join(a.lstrip("-") for a in c),
    )
    def test_non_minimal_ideal_exits_2(self, command):
        # x divides x*y: every Taylor-based command refuses the ideal alike
        code, out, err = run([*command, "--vars", "x,y,z", "--gens", "x,x*y,y*z"])
        assert code == 2
        assert err.startswith("error: generators are not a minimal system") and not out

    @pytest.mark.parametrize(
        "graph",
        [
            {"vertices": [1, 2], "edges": [[1, 2]]},
            {"vertices": ["a", "b"], "edges": [[["a"], "b"]]},
            {"vertices": "ab", "edges": [["a", "b"]]},
            {"vertices": ["a", "b"], "edges": [["a", "b", "a"]]},
            {"vertices": ["a", "b"], "edges": "ab"},
        ],
        ids=["vertex-not-a-string", "edge-end-not-a-string", "vertices-not-a-list", "edge-of-three", "edges-not-a-list"],
    )
    @pytest.mark.parametrize("command", ["classify", "verify-certificate"])
    def test_malformed_graph_exits_2(self, tmp_path, command, graph):
        f = tmp_path / "graph.json"
        if command == "classify":
            f.write_text(json.dumps(graph))
            argv = ["classify", "--graph-file", str(f)]
        else:
            _, payload = run_json(["classify", "--family", "C5"])
            f.write_text(json.dumps({**payload["result"], "graph": graph}))
            argv = ["verify-certificate", "--file", str(f)]
        code, out, err = run(argv)
        assert code == 2
        assert err.startswith("error: ") and not out

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["dgres", "betti", "--family", "C4"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["result"]["total"] == [1, 4, 4, 1]

    def test_module_invocation_matches_script(self):
        args = ["betti", "--family", "C4"]
        a = subprocess.run(
            ["dgres"] + args, capture_output=True, text=True, timeout=120
        )
        b = subprocess.run(
            [sys.executable, "-m", "dgres.cli"] + args,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert a.stdout == b.stdout
