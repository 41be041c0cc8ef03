"""End-to-end command-line behaviour: parsing, exit codes, files."""

import json
import time

import pytest

from circshell import checkers
from circshell.cli import main
from circshell.graphs import MAX_VERTICES


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# --- graph ------------------------------------------------------------------


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "C5(1)")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5 and [0, 1] in obj["edges"]


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "C5(1)", "--dot")
    assert code == 0
    assert out.startswith("graph") and "0 -- 1;" in out


def test_graph_accepts_json_input(capsys):
    code, out, _ = run(capsys, "graph", '{"n": 2, "edges": [[0, 1]]}')
    assert code == 0
    assert json.loads(out) == {"n": 2, "edges": [[0, 1]]}


def test_graph_rejects_bad_desc(capsys):
    code, _, err = run(capsys, "graph", "K5")
    assert code == 2 and "shorthand" in err


def test_graph_rejects_complex_json(capsys):
    code, _, err = run(capsys, "graph", '{"n": 2, "facets": [[0]]}')
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("graph", '{"n": 3000000, "edges": []}'),
    ("check", "pure", '{"n": 3000000, "edges": []}'),
    ("check", "pure", '{"n": 3000000, "facets": [[0]]}'),
    ("graph", json.dumps({"n": MAX_VERTICES + 1, "edges": []})),
    ("graph", "C4097(1)"),
    ("family", "4", "1025"),
])
def test_a_vertex_count_past_the_bound_is_refused_before_allocating(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"0..{MAX_VERTICES}" in err


def test_a_vertex_count_at_the_bound_is_accepted(capsys):
    code, out, _ = run(capsys, "graph", json.dumps({"n": MAX_VERTICES, "edges": []}))
    assert code == 0 and json.loads(out) == {"n": MAX_VERTICES, "edges": []}


# --- check ------------------------------------------------------------------


def test_check_pure_yes(capsys):
    code, out, _ = run(capsys, "check", "pure", "C5(1)")
    assert code == 0 and "pure: yes" in out


def test_check_pure_no(capsys):
    code, out, _ = run(capsys, "check", "pure", "C10(1,2)")
    assert code == 1 and "pure: no" in out


@pytest.mark.parametrize("desc", [
    '{"n": 3, "facets": [[1.5]]}',
    '{"n": 3, "facets": [[true]]}',
    '{"n": 3, "facets": [0, 1]}',
    '{"n": 3, "facets": "01"}',
    '{"n": -2, "facets": []}',
    '{"n": true, "facets": []}',
    '{"n": 3, "edges": [[0, "x"]]}',
    '{"n": 3, "edges": [[0, true]]}',
    '{"n": 3, "edges": [0]}',
    '{"n": 3, "edges": {}}',
    '{"n": 2.0, "edges": []}',
])
def test_check_rejects_malformed_json_as_unusable_input(capsys, desc):
    code, out, err = run(capsys, "check", "pure", desc)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_alpha(capsys):
    code, out, _ = run(capsys, "check", "alpha", "C16(1,4,8)")
    assert code == 0 and "alpha = 4" in out


def test_check_alpha_rejects_complex(capsys):
    code, _, err = run(capsys, "check", "alpha", '{"n": 3, "facets": [[0, 1]]}')
    assert code == 2 and "graphs" in err


def test_check_homology_profile(capsys):
    code, out, _ = run(capsys, "check", "homology", "C5(1)")
    assert code == 0
    assert json.loads(out) == {"betti": {"-1": 0, "0": 0, "1": 1}, "torsion": {}}


def test_check_homology_honours_the_timeout(capsys):
    # unbudgeted, the homology of C28(1,7,14) takes about 35 s
    started = time.monotonic()
    code, out, _ = run(capsys, "check", "homology", "C28(1,7,14)",
                       "--timeout", "0.01")
    assert time.monotonic() - started < 5.0
    assert code == 2 and "homology: unknown" in out
    assert "reason: homology computation ran out of budget" in out


def test_check_alpha_honours_the_timeout(capsys):
    # no vertex of C16(1,4,8) has degree <= 1, so the search branches at once
    code, out, _ = run(capsys, "check", "alpha", "C16(1,4,8)", "--timeout", "0")
    assert code == 2 and "alpha: unknown" in out
    assert "reason: independence number search ran out of budget" in out
    code, out, _ = run(capsys, "check", "alpha", "C16(1,4,8)", "--timeout", "60")
    assert code == 0 and out == "alpha = 4\n"


def test_check_homology_past_the_face_cap_is_unknown_with_reason(capsys):
    code, out, _ = run(capsys, "check", "homology", "C16(1,4,8)",
                       "--face-cap", "10")
    assert code == 2 and "homology: unknown" in out
    assert "reason: complex has more than 10 faces" in out


def test_check_shellable_with_certificate(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "check", "shellable", "C16(1,4,8)",
                       "--certificate", str(cert))
    assert code == 0 and "shellable: yes" in out
    order = json.loads(cert.read_text())["order"]
    assert sorted(order) == list(range(80))

    code, out, _ = run(capsys, "check", "shellable", "C16(1,4,8)",
                       "--verify-only", str(cert))
    assert code == 0 and "accepted" in out


def test_check_verify_only_rejects_bad_cert(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"order": list(range(80))}))  # not a shelling
    code, out, _ = run(capsys, "check", "shellable", "C16(1,4,8)",
                       "--verify-only", str(cert))
    assert code == 1 and "rejected" in out


def test_check_vd_yes_certificate_roundtrip(capsys, tmp_path):
    cert = tmp_path / "tree.json"
    code, out, _ = run(capsys, "check", "vd", "C5(1)",
                       "--certificate", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "check", "vd", "C5(1)",
                       "--verify-only", str(cert))
    assert code == 0 and "accepted" in out


@pytest.mark.parametrize("kind, cert_obj", [
    ("shellable", {"order": [0, 1]}), ("vd", {"leaf": "simplex"})])
def test_check_verify_only_on_a_non_pure_complex_is_error(
        capsys, tmp_path, kind, cert_obj):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(cert_obj))
    desc = json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]})
    code, out, err = run(capsys, "check", kind, desc, "--verify-only", str(cert))
    assert code == 2 and out == ""
    assert "not pure" in err


@pytest.mark.parametrize("kind, cert_obj, message", [
    ("shellable", {"leaf": "simplex"}, "certificate is not a shelling order"),
    ("vd", {"order": [0, 1, 2, 3, 4]}, "certificate is not a shed tree")])
def test_check_verify_only_rejects_the_other_kind_of_certificate(
        capsys, tmp_path, kind, cert_obj, message):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(cert_obj))
    code, out, err = run(capsys, "check", kind, "C5(1)", "--verify-only", str(cert))
    assert code == 2 and out == ""
    assert message in err


# shed tree nodes that lack a key
_NODES_MISSING_KEYS = [{"shed": 0}, {}]


@pytest.mark.parametrize("kind, desc, cert_obj", [
    ("shellable", "C4(1)", [1, 2]),
    ("vd", "C4(1)", [1, 2]),
    ("shellable", "C4(1)", 5),
    ("vd", "C4(1)", 5),
    ("shellable", "C4(1)", {"order": None}),
    ("vd", "C4(1)", {"order": None}),
    ("shellable", "C5(1)", {"order": [0.9, "1", 2, 3, 4]}),
    ("vd", "C4(1)", {"shed": True, "del": {"leaf": "void"},
                     "link": {"leaf": "void"}}),
    ("vd", "C4(1)", {"shed": 10000000000000, "del": {"leaf": "void"},
                     "link": {"leaf": "void"}}),
    *[("vd", "C5(1)", obj) for obj in _NODES_MISSING_KEYS],
])
def test_check_verify_only_refuses_a_malformed_certificate(
        capsys, tmp_path, kind, desc, cert_obj):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(cert_obj))
    code, out, err = run(capsys, "check", kind, desc, "--verify-only", str(cert))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    if cert_obj in _NODES_MISSING_KEYS:
        assert "needs the keys 'shed', 'del' and 'link'" in err


def test_check_verify_only_refuses_a_shed_tree_nested_past_the_recursion_limit(
        capsys, tmp_path):
    depth = 5000
    cert = tmp_path / "cert.json"
    cert.write_text('{"shed": 0, "link": {"leaf": "void"}, "del": ' * depth
                    + '{"leaf": "void"}' + "}" * depth)
    code, out, err = run(capsys, "check", "vd", "C4(1)", "--verify-only", str(cert))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("kind, verifier", [
    ("shellable", "verify_shelling"), ("vd", "verify_shed_tree")])
def test_check_yes_needs_its_certificate_verified(
        capsys, tmp_path, monkeypatch, kind, verifier):
    monkeypatch.setattr(checkers, verifier, lambda d, cert: False)
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "check", kind, "C5(1)",
                       "--certificate", str(cert))
    assert code == 2
    assert f"{kind}: certificate rejected" in out
    assert not cert.exists()


def test_check_vd_yes_on_a_shed_tree_past_the_recursion_limit(capsys):
    # 1,200 isolated points: a shed tree 1,200 levels deep, searched and
    # verified without recursion
    desc = json.dumps({"n": 1200, "facets": [[v] for v in range(1200)]})
    code, out, _ = run(capsys, "check", "vd", desc)
    assert code == 0 and "vd: yes" in out


def test_check_pure_on_a_graph_with_more_independent_vertices_than_the_recursion_limit(
        capsys):
    # Ind of the edgeless graph on 1,200 vertices: one facet of 1,200
    code, out, _ = run(capsys, "check", "pure", '{"n": 1200, "edges": []}')
    assert code == 0 and "pure: yes" in out


def test_check_vd_on_a_simplex_past_the_recursion_limit(capsys):
    # its flag test enumerates one clique of 1,200 vertices
    desc = json.dumps({"n": 1200, "facets": [list(range(1200))]})
    code, out, _ = run(capsys, "check", "vd", desc)
    assert code == 0 and "vd: yes" in out


def test_check_vd_no(capsys):
    code, out, _ = run(capsys, "check", "vd", "C16(1,4,8)")
    assert code == 1 and "vd: no" in out


def test_check_cm(capsys):
    code, out, _ = run(capsys, "check", "cm", "C5(1)")
    assert code == 0 and "cm: yes" in out
    # the only link examined is the pentagon itself: connected, 1-dimensional
    assert "links: 1" in out and "connectivity: 1" in out and "ranked: 0" in out


def test_check_cm_past_the_face_cap_is_unknown_with_reason(capsys):
    code, out, _ = run(capsys, "check", "cm", "C16(1,4,8)", "--face-cap", "10")
    assert code == 2 and "cm: unknown" in out
    assert "reason: complex has more than 10 faces" in out


def test_check_complex_json_input(capsys):
    desc = json.dumps({"n": 4, "facets": [[0, 2], [1, 3]]})
    code, out, _ = run(capsys, "check", "shellable", desc)
    assert code == 1 and "shellable: no" in out


def test_check_not_pure_is_error(capsys):
    desc = json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]})
    code, _, err = run(capsys, "check", "shellable", desc)
    assert code == 2
    assert "not pure" in err


def test_check_timeout_unknown(capsys):
    code, out, _ = run(capsys, "check", "vd", "C20(1,5,10)", "--timeout", "0.01")
    assert code == 2 and "unknown" in out


def test_check_json_output(capsys):
    code, out, _ = run(capsys, "check", "pure", "C5(1)", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "yes" and obj["kind"] == "pure"


@pytest.mark.parametrize("kind", ["pure", "cm", "alpha", "homology"])
def test_check_certificate_on_a_kind_without_one_writes_nothing(
        capsys, tmp_path, kind):
    plain = run(capsys, "check", kind, "C5(1)")
    cert = tmp_path / "cert.json"
    assert run(capsys, "check", kind, "C5(1)", "--certificate", str(cert)) == plain
    assert plain[0] == 0 and not cert.exists()


def test_check_json_shapes(capsys):
    # pure has no stats; cm gives its reason beside its counts, while a
    # search keeps its reason among its stats
    code, out, _ = run(capsys, "check", "pure", "C5(1)", "--json")
    assert code == 0 and "stats" not in json.loads(out)
    code, out, _ = run(capsys, "check", "cm", "C16(1,4,8)", "--face-cap", "10", "--json")
    obj = json.loads(out)
    assert code == 2 and obj["verdict"] == "unknown"
    assert "more than 10 faces" in obj["reason"] and "reason" not in obj["stats"]
    code, out, _ = run(capsys, "check", "vd", "C20(1,5,10)", "--timeout", "0.01", "--json")
    obj = json.loads(out)
    assert code == 2 and obj["verdict"] == "unknown"
    assert "reason" in obj["stats"] and "reason" not in obj


# --- suite ------------------------------------------------------------------


def test_suite_unknown_name(capsys):
    code, _, err = run(capsys, "suite", "bogus")
    assert code == 2 and "unknown suite" in err


def test_suite_runs_and_writes_report(capsys, tmp_path):
    code, out, _ = run(capsys, "suite", "main-a", "--out", str(tmp_path))
    assert code == 0
    assert "suite main-a: PASS" in out
    report = json.loads((tmp_path / "main-a-report.json").read_text())
    assert report["passed"] is True
    assert report["counts"] == {"failures": 0, "unknowns": 0, "skipped": 0}


def test_suite_json_output(capsys):
    code, out, _ = run(capsys, "suite", "main-a", "--json")
    assert code == 0
    assert json.loads(out)["suite"] == "main-a"


def test_suite_milestones_skips_deep_by_default(capsys):
    code, out, _ = run(capsys, "suite", "paper-milestones")
    assert code == 0
    assert "SKIPPED" in out and "--deep" in out


# --- family -----------------------------------------------------------------


def test_family_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "family", "4", "4",
                       "--timeout", "120", "--out", str(tmp_path))
    assert code == 0
    assert "budgeted" in out
    report = json.loads((tmp_path / "family-report.json").read_text())
    assert report["records"][0]["instance"] == "C16(1,4,8)"


@pytest.mark.parametrize("argv", [
    ("check", "vd", "C16(1,4,8)", "--symmetry"),
    ("check", "vd", "C16(1,4,8)", "--threads", "2"),
    ("suite", "main-a", "--symmetry"),
    ("suite", "main-a", "--threads", "2"),
    ("family", "4", "4", "--seed", "1"),
])
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_family_rejects_s_below_4(capsys):
    code, _, err = run(capsys, "family", "2", "3")
    assert code == 2 and "s=4" in err
