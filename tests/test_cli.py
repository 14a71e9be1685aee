import argparse
import json
import os
import random
import subprocess
import sys

import pytest

import posetcoh
from posetcoh import cech, cli, complexes, diagrams
from posetcoh.cech import random_presheaf
from posetcoh.cli import build_parser, main
from posetcoh.complexes import order_complex_homology
from posetcoh.diagrams import cohomology_support
from posetcoh.documents import load_presheaf, render_group, render_presheaf
from posetcoh.groups import CanonicalGroup
from posetcoh.poset import IntersectionPoset, chains, core, parse_poset, random_poset, serialize_poset

import builders
from oracles import main_by_full_parse, posets_up_to_isomorphism


@pytest.fixture
def write(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_shape(write, capsys):
    path = write("square.json", builders.SQUARE_DOC)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert out.strip() == "4 elements, 4 cover relations, longest chain 2"
    code, out, _ = run(capsys, "validate", path, "--json")
    assert json.loads(out) == {
        "elements": 4,
        "cover_relations": 4,
        "longest_chain": 2,
    }


def test_validate_rejects_cycles_and_missing_files(write, capsys):
    bad = write(
        "cycle.json",
        {"elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]},
    )
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "antisymmetry" in err
    code, _, err = run(capsys, "validate", str(bad) + ".nope")
    assert code == 2
    assert "error:" in err


def test_cuts_listing(write, capsys):
    path = write("square.json", builders.SQUARE_DOC)
    code, out, _ = run(capsys, "cuts", path, "--json")
    assert code == 0
    cuts = json.loads(out)["cuts"]
    assert len(cuts) == 5
    assert {"lower": ["p2", "p3"], "upper": ["p0", "p1"], "witness": ["p0", "p1"]} in cuts
    code, out, _ = run(capsys, "cuts", path)
    assert out.splitlines()[0] == "5 cuts with nonempty lower half"
    assert "cut <{p2,p3}, {p0,p1}>" in out


def test_criterion_verdicts_and_exit_codes(write, capsys):
    good = write("zigzag.json", builders.ZIGZAG_DOC)
    code, out, _ = run(capsys, "criterion", good)
    assert code == 0
    assert out.startswith("PASS")
    assert "shortcut: semilattice" in out
    code, out, _ = run(capsys, "criterion", good, "--no-shortcut")
    assert code == 0
    assert "shortcut: none" in out
    bad = write("cells9.json", builders.CELLS9_DOC)
    code, out, _ = run(capsys, "criterion", bad)
    assert code == 1
    assert "H_0 = Z^2" in out
    code, out, _ = run(capsys, "criterion", bad, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "FAIL"
    uppers = [fail["upper"] for fail in payload["failures"]]
    assert ["0", "1"] in uppers
    for fail in payload["failures"]:
        if fail["upper"] == ["0", "1"]:
            assert fail["degree"] == 0
            assert fail["group"] == {"rank": 2, "torsion": []}


def test_skeleton_emission(write, capsys, tmp_path):
    path = write("square.json", builders.SQUARE_DOC)
    out_path = tmp_path / "skeleton.json"
    code, out, _ = run(capsys, "skeleton", path, "--out", str(out_path))
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert len(doc["groups"]) == 5
    assert len(doc["maps"]) == 4
    assert doc["mode"] == "presheaf"


def test_cech_command(write, capsys):
    poset = write("square.json", builders.SQUARE_DOC)
    sheaf = write("constant.json", builders.CONSTANT_SQUARE_DOC)
    code, out, _ = run(capsys, "cech", poset, sheaf)
    assert code == 0
    assert out.splitlines() == ["H^0 = Z", "H^1 = 0"]
    code, out, _ = run(capsys, "cech", poset, sheaf, "--json", "--degrees", "0..2")
    groups = json.loads(out)["groups"]
    assert groups == [
        {"degree": 0, "group": {"rank": 1, "torsion": []}},
        {"degree": 1, "group": {"rank": 0, "torsion": []}},
        {"degree": 2, "group": {"rank": 0, "torsion": []}},
    ]
    code, _, _ = run(capsys, "cech", poset, sheaf, "--oracle", "--order", "p3,p1,p0,p2")
    assert code == 0
    code, _, err = run(capsys, "cech", poset, sheaf, "--order", "p9", "--oracle")
    assert code == 2
    assert "unknown element" in err


def test_order_needs_the_oracle(write, capsys):
    # only the oracle's ordered route reads --order, so without --oracle even
    # a list that is not a total order would go unread
    poset = write("square.json", builders.SQUARE_DOC)
    sheaf = write("constant.json", builders.CONSTANT_SQUARE_DOC)
    for command in ("cech", "compare"):
        for order in ("p3,p1,p0,p2", "p0,p1,p0"):
            result = run(capsys, command, poset, sheaf, "--order", order)
            assert result == (2, "", "error: --order needs --oracle\n"), (command, order)


def test_topos_command(write, capsys):
    poset = write("sphere.json", builders.SPHERE_DOC)
    sheaf = write("constant.json", builders.CONSTANT_SPHERE_DIAGRAM_DOC)
    code, out, _ = run(capsys, "topos", poset, sheaf, "--degrees", "2..2", "--oracle")
    assert code == 0
    assert out.strip() == "H^2 = Z"


class _WrongRoute:
    def homology_group(self, n):
        return CanonicalGroup(0, (2,))


def test_oracle_mismatch_names_the_route_and_degree(write, capsys, monkeypatch):
    poset = write("square.json", builders.SQUARE_DOC)
    sheaf = write("constant.json", builders.CONSTANT_SQUARE_DOC)
    monkeypatch.setattr(cli, "full_complex_truncated", lambda diagram, cap: _WrongRoute())
    code, _, err = run(capsys, "topos", poset, sheaf, "--oracle")
    assert code == 2
    assert err == "oracle mismatch: unreduced route disagrees at degree 0: Z vs Z/2\n"
    code, _, err = run(capsys, "compare", poset, sheaf, "--oracle")
    assert code == 2
    assert err == "oracle mismatch: unreduced route disagrees at degree 0: Z vs Z/2\n"
    monkeypatch.setattr(cli, "cech_ordered_complex", lambda ps, order: _WrongRoute())
    for command in ("cech", "compare"):
        code, _, err = run(capsys, command, poset, sheaf, "--oracle")
        assert code == 2
        assert err == "oracle mismatch: ordered route disagrees at degree 0: Z vs Z/2\n"


def test_compare_oracle_checks_the_printed_groups(write, capsys, monkeypatch):
    # the oracle reads the groups compare prints and checks each against the
    # derived limit recomputed from the reduced complex
    poset = write("square.json", builders.SQUARE_DOC)
    sheaf = write("constant.json", builders.CONSTANT_SQUARE_DOC)
    report = cli.compare_report
    for field in ("cech", "topos"):

        def wrong_row(ps, degrees, field=field):
            made = report(ps, degrees)
            setattr(made.rows[0], field, CanonicalGroup(0, (2,)))
            return made

        monkeypatch.setattr(cli, "compare_report", wrong_row)
        code, out, err = run(capsys, "compare", poset, sheaf, "--oracle")
        assert (code, out) == (2, ""), field
        assert err == "oracle mismatch: reduced route disagrees at degree 0: Z/2 vs Z\n"
    # `topos` prints derived limits of the pulled diagram, which its unreduced route checks
    monkeypatch.setattr(cli, "topos_cohomology", lambda ps, n: CanonicalGroup(0, (2,)))
    code, out, err = run(capsys, "topos", poset, sheaf, "--oracle")
    assert (code, out) == (2, "")
    assert err == "oracle mismatch: unreduced route disagrees at degree 0: Z/2 vs Z\n"


def test_oracle_recomputes_no_derived_limit_that_printed_a_row(write, capsys, monkeypatch):
    # `cech` and `topos` print derived limits, so recomputing them would check
    # nothing; `compare` prints its own homology, which the derived limits of
    # both sides check, once per row each
    calls = []
    limit = cli.derived_limit
    monkeypatch.setattr(cli, "derived_limit", lambda diagram, n: calls.append(n) or limit(diagram, n))
    P = random_poset(5, 0.5, 6)
    cases = [
        (builders.SQUARE_DOC, builders.CONSTANT_SQUARE_DOC, ["Z", "0"], ["Z", "Z"]),
        (
            serialize_poset(P),
            render_presheaf(random_presheaf(IntersectionPoset(P), 0)),
            ["0", "Z", "0"],
            ["0", "Z", "Z"],
        ),
    ]
    for poset_doc, sheaf_doc, cech_groups, topos_groups in cases:
        poset, sheaf = write("p.json", poset_doc), write("f.json", sheaf_doc)
        for command, groups in (("cech", cech_groups), ("topos", topos_groups)):
            calls.clear()
            result = run(capsys, command, poset, sheaf, "--oracle")
            lines = "".join("H^%d = %s\n" % row for row in enumerate(groups))
            assert result == (0, lines, "") and calls == [], command
        calls.clear()
        code, out, err = run(capsys, "compare", poset, sheaf, "--oracle")
        rows = len(cech_groups)
        assert (code, err, len(out.splitlines())) == (1, "", rows + 1)
        assert sorted(calls) == sorted(2 * list(range(rows)))


def test_oracle_routes_catch_a_wrong_vanishing_certificate(write, capsys, monkeypatch):
    # a support without degree 0, where the constant square has Z on both
    # sides: the printed group and the reduced route read 0, and the routes
    # that never consult the certificate read Z
    poset = write("square.json", builders.SQUARE_DOC)
    sheaf = write("constant.json", builders.CONSTANT_SQUARE_DOC)
    support = diagrams.cohomology_support
    space = tuple(builders.SQUARE_DOC["elements"])

    def drop_degree_zero(on_space_only):
        def wrong(base, values):
            found = support(base, values)
            return found if on_space_only and base.elements != space else found - {0}

        for module in (diagrams, cech):
            monkeypatch.setattr(module, "cohomology_support", wrong)

    drop_degree_zero(on_space_only=False)
    for command, route in (("cech", "ordered"), ("topos", "unreduced"), ("compare", "ordered")):
        code, out, err = run(capsys, command, poset, sheaf, "--oracle")
        assert (code, out) == (2, ""), command
        assert err == "oracle mismatch: %s route disagrees at degree 0: 0 vs Z\n" % route
    # compare's groups outside a reduced complex's support are read off the
    # certificate, so a wrong one on the pulled diagram alone shows up in
    # the topos rows, where only the unreduced route never reads it
    drop_degree_zero(on_space_only=True)
    code, out, err = run(capsys, "compare", poset, sheaf, "--oracle")
    assert (code, out) == (2, "")
    assert err == "oracle mismatch: unreduced route disagrees at degree 0: 0 vs Z\n"


def test_unreduced_oracle_route_is_built_only_to_the_height(write, capsys, monkeypatch):
    P = random_poset(6, 0.5, 4)
    assert len(P) == 6 and P.height() == 3
    poset = write("p.json", serialize_poset(P))
    sheaf = write("f.json", render_presheaf(random_presheaf(IntersectionPoset(P), 0)))
    caps = []
    build = cli.full_complex_truncated

    def recording(diagram, cap):
        caps.append(cap)
        return build(diagram, cap)

    monkeypatch.setattr(cli, "full_complex_truncated", recording)
    code, out, err = run(capsys, "topos", poset, sheaf, "--oracle", "--degrees", "0..7")
    assert (code, err, caps) == (0, "", [3])
    lines = out.splitlines()
    assert lines[0] == "H^0 = Z"
    assert lines[4:] == ["H^%d = 0" % n for n in range(4, 8)]


def test_oracle_verifies_the_complex_the_groups_come_from(write, capsys, monkeypatch):
    # `cech` and `topos` print derived limits of one diagram each, and
    # --oracle verifies that diagram's reduced complex, where λ is a
    # bijection as where some node is not principal
    verified, loaded = [], []
    load = cli._load_presheaf
    monkeypatch.setattr(cli, "_load_presheaf", lambda args: loaded.append(load(args)) or loaded[-1])
    monkeypatch.setattr(complexes.Complex, "verify", lambda cx: verified.append(cx))
    diamond = IntersectionPoset(parse_poset(builders.DIAMOND_DOC))
    assert len(diamond) == 4
    cases = [
        (builders.SQUARE_DOC, builders.CONSTANT_SQUARE_DOC),
        (builders.DIAMOND_DOC, render_presheaf(random_presheaf(diamond, 0))),
    ]
    for poset_doc, sheaf_doc in cases:
        poset, sheaf = write("p.json", poset_doc), write("f.json", sheaf_doc)
        for command in ("cech", "topos"):
            verified.clear()
            loaded.clear()
            code, _, err = run(capsys, command, poset, sheaf, "--oracle")
            _, ps = loaded[0]
            diagram = ps.diagram if command == "cech" else ps.pulled_diagram()
            assert (code, err) == (0, "") and verified == [diagram.reduced_complex()], command


def test_compare_oracle_verifies_the_complexes_rho_holds(write, capsys, monkeypatch):
    # `compare` prints the homology of ρ's source and target, and --oracle
    # verifies those two complexes and ρ itself, on the square, whose meets
    # are not principal, as on the diamond, whose λ is a bijection
    verified, loaded = [], []
    load = cli._load_presheaf
    monkeypatch.setattr(cli, "_load_presheaf", lambda args: loaded.append(load(args)) or loaded[-1])
    monkeypatch.setattr(complexes.Complex, "verify", lambda cx: verified.append(cx))
    monkeypatch.setattr(complexes.ChainMap, "verify", lambda f: verified.append(f))
    diamond = IntersectionPoset(parse_poset(builders.DIAMOND_DOC))
    cases = [
        (builders.SQUARE_DOC, builders.CONSTANT_SQUARE_DOC),
        (builders.DIAMOND_DOC, render_presheaf(random_presheaf(diamond, 0))),
    ]
    for poset_doc, sheaf_doc in cases:
        poset, sheaf = write("p.json", poset_doc), write("f.json", sheaf_doc)
        verified.clear()
        loaded.clear()
        code, _, err = run(capsys, "compare", poset, sheaf, "--oracle")
        _, ps = loaded[0]
        rho = ps.comparison_chain_map()
        assert code in (0, 1) and err == ""
        assert list(map(id, verified)) == list(map(id, (rho.source, rho.target, rho)))


def test_compare_command_negative(write, capsys):
    poset = write("square.json", builders.SQUARE_DOC)
    sky = write("sky.json", builders.SKYSCRAPER_DOC)
    code, out, _ = run(capsys, "compare", poset, sky)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "degree 0: cech Z | topos Z^2 | NOT isomorphic"
    assert lines[-1] == "comparison fails at degrees 0"
    code, out, _ = run(capsys, "compare", poset, sky, "--json", "--oracle")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_isomorphic"] is False
    first = payload["degrees"][0]
    assert first["cech"] == {"rank": 1, "torsion": []}
    assert first["topos"] == {"rank": 2, "torsion": []}
    assert [[abs(v) for v in row] for row in first["map"]] == [[1], [1]]


def test_compare_command_positive(write, capsys, tmp_path):
    poset = write("zigzag.json", builders.ZIGZAG_DOC)
    ps = random_presheaf(IntersectionPoset(builders.zigzag()), seed=5)
    sheaf = write("random.json", render_presheaf(ps))
    code, out, _ = run(capsys, "compare", poset, sheaf, "--oracle")
    assert code == 0
    assert out.splitlines()[-1] == (
        "comparison map is an isomorphism in every listed degree"
    )


def test_sphere_compare_disagrees_at_two(write, capsys):
    poset = write("sphere.json", builders.SPHERE_DOC)
    sheaf = write("constant.json", builders.CONSTANT_SPHERE_DIAGRAM_DOC)
    code, out, _ = run(capsys, "compare", poset, sheaf)
    assert code == 1
    assert "degree 2: cech 0 | topos Z | NOT isomorphic" in out


def test_compare_above_the_top_degree_maps_the_empty_products(write, capsys):
    # above the Čech complex's top degree its product is empty, so the
    # induced map is the zero map between zero groups
    intersection = IntersectionPoset(builders.sphere())
    constant = diagrams.constant_diagram(intersection.poset)
    rho = cech.Presheaf(intersection, constant).comparison_chain_map()
    assert (builders.sphere().height(), rho.source.top_degree()) == (2, 4)
    for n in (5, 6):
        h = complexes.induced_on_homology(rho, n)
        assert (h.source.generators, h.target.generators, h.matrix.entries) == (0, 0, ())
    poset = write("sphere.json", builders.SPHERE_DOC)
    sheaf = write("constant.json", builders.CONSTANT_SPHERE_DIAGRAM_DOC)
    code, out, err = run(capsys, "compare", poset, sheaf, "--degrees", "5..6", "--json")
    assert (code, err) == (0, "")
    zero = {"rank": 0, "torsion": []}
    assert [(d["degree"], d["cech"], d["topos"], d["map"]) for d in json.loads(out)["degrees"]] == [
        (5, zero, zero, []),
        (6, zero, zero, []),
    ]


def test_tetrahedron_cech_cohomology_above_the_base_height(write, capsys):
    poset = write("tetrahedron.json", builders.TETRAHEDRON_DOC)
    sheaf = write("constant.json", builders.CONSTANT_TETRAHEDRON_DOC)
    code, out, err = run(capsys, "compare", poset, sheaf)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "degree 0: cech Z | topos Z | isomorphic",
        "degree 1: cech 0 | topos Z^5 | NOT isomorphic",
        "degree 2: cech Z | topos 0 | NOT isomorphic",
        "comparison fails at degrees 1,2",
    ]
    for extra in ([], ["--oracle"]):
        code, out, err = run(capsys, "cech", poset, sheaf, *extra)
        assert (code, out, err) == (0, "H^0 = Z\nH^1 = 0\nH^2 = Z\n", ""), extra
    code, out, _ = run(capsys, "compare", poset, sheaf, "--degrees", "0..1", "--json")
    payload = json.loads(out)
    assert (code, payload["cap"]) == (1, 1)
    assert [row["degree"] for row in payload["degrees"]] == [0, 1]
    # above the Cech complex's top degree 2 both groups and the map are zero
    code, out, _ = run(capsys, "compare", poset, sheaf, "--degrees", "3..4")
    assert (code, out.splitlines()) == (0, [
        "degree 3: cech 0 | topos 0 | isomorphic",
        "degree 4: cech 0 | topos 0 | isomorphic",
        "comparison map is an isomorphism in every listed degree",
    ])


def test_degree_window_validation(write, capsys):
    poset = write("square.json", builders.SQUARE_DOC)
    sheaf = write("constant.json", builders.CONSTANT_SQUARE_DOC)
    # int() alone takes the last four: an underscore, a space, a plus sign
    # and full-width digits
    for window in ("2..1", "x..y", "1..2..9", "3..", "..3", "0..1_0", " 1", "+0..1", "\uff10..1"):
        code, out, err = run(capsys, "cech", poset, sheaf, "--degrees", window)
        assert (code, out) == (2, ""), window
        assert err.startswith("error: --degrees"), window
    # a minus sign is out of range even on zero
    for window in ("-0", "-0..1", "-1..2", "0..-0"):
        code, out, err = run(capsys, "cech", poset, sheaf, "--degrees=" + window)
        assert (code, out, err) == (
            2, "", "error: --degrees window must satisfy 0 <= A <= B\n"
        ), window
    # written after a space, a window with a minus sign gets the same message
    sphere = write("sphere.json", builders.SPHERE_DOC)
    for argv in (["homology", sphere], ["cech", poset, sheaf], ["topos", poset, sheaf], ["compare", poset, sheaf]):
        # argparse also takes a prefix of the option name
        for option, window in (
            ("--degrees", "-1..2"),
            ("--degrees", "-0..1"),
            ("--degrees", "-0"),
            ("--deg", "-1..2"),
            ("--d", "-0..1"),
        ):
            code, out, err = run(capsys, *argv, option, window)
            assert (code, out, err) == (
                2, "", "error: --degrees window must satisfy 0 <= A <= B\n"
            ), (argv[0], option, window)
    code, out, err = run(capsys, "homology", sphere, "--degrees", "1..2..9")
    assert (code, out) == (2, "")
    assert "--degrees" in err


def test_homology_command(write, capsys):
    poset = write("sphere.json", builders.SPHERE_DOC)
    code, out, _ = run(capsys, "homology", poset)
    assert code == 0
    assert out.splitlines() == ["H_0 = Z", "H_1 = 0", "H_2 = Z"]
    poset = write("dunce.json", builders.DUNCE_HAT_DOC)
    code, out, _ = run(capsys, "homology", poset)
    assert code == 0
    assert out.splitlines() == ["H_0 = Z", "H_1 = 0", "H_2 = 0"]


def test_homology_command_matches_the_whole_order_complex(write, capsys):
    # the command reads the core's sweep; every degree it prints, in text,
    # in JSON and in a window past the height, is that of the order complex
    # of the whole poset, every chain of it reduced
    rng = random.Random(32)
    antichain = parse_poset({"elements": ["a", "b", "c"], "relations": []})
    posets = [P for n in range(1, 6) for P in posets_up_to_isomorphism(n)]
    posets += [random_poset(rng.randint(1, 12), rng.random(), seed=3200 + k) for k in range(300)]
    posets += [
        builders.point(), builders.vee(), builders.square(), builders.sphere(), builders.zigzag(),
        builders.crown3(), builders.pass8(), builders.pass7(), builders.capped_square(),
        builders.cells9(), builders.tetrahedron(), builders.projective_plane(), builders.dunce_hat(),
        antichain,
    ]
    for P in posets:
        path = write("p.json", serialize_poset(P))
        height = P.height()
        expected = list(order_complex_homology(lambda k: chains(P, k), height))
        code, out, _ = run(capsys, "homology", path)
        assert (code, out) == (0, "".join("H_%d = %s\n" % (n, g.render()) for n, g in expected)), P
        code, out, _ = run(capsys, "homology", path, "--json")
        groups = [{"degree": n, "group": render_group(g)} for n, g in expected]
        assert (code, json.loads(out)) == (0, {"groups": groups}), P
        code, out, _ = run(capsys, "homology", path, "--degrees", "%d..%d" % (height, height + 2))
        rows = [expected[-1][1].render(), "0", "0"]
        assert (code, out) == (0, "".join("H_%d = %s\n" % (height + k, g) for k, g in enumerate(rows))), P
    code, out, _ = run(capsys, "homology", write("rp2.json", serialize_poset(builders.projective_plane())))
    assert out.splitlines() == ["H_0 = Z", "H_1 = Z/2", "H_2 = 0"]
    code, out, _ = run(capsys, "homology", write("antichain.json", serialize_poset(antichain)))
    assert out.splitlines() == ["H_0 = Z^3"]


def test_random_poset_command(write, capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code, _, _ = run(capsys, "random-poset", "6", "--seed", "11", "--out", str(a))
    assert code == 0
    code, _, _ = run(capsys, "random-poset", "6", "--seed", "11", "--out", str(b))
    assert a.read_text() == b.read_text()
    doc = json.loads(a.read_text())
    assert len(doc["elements"]) == 6
    code, out, _ = run(capsys, "validate", str(a))
    assert code == 0
    code, _, err = run(capsys, "random-poset", "3", "--seed", "1", "--density", "2.0")
    assert code == 2
    assert "density" in err
    code, out, err = run(capsys, "random-poset", "0", "--seed", "1")
    assert (code, out, err) == (2, "", "error: element count must be positive\n")


def test_fuzz_command(write, capsys):
    argv = ["fuzz", "--count", "6", "--seed", "13", "--max-elements", "5",
            "--presheaves", "2", "--json"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["violations"] == 0
    assert payload["posets"] == 6
    assert payload["comparisons"] == 2 * payload["criterion_passes"]
    # two of these draws fail the criterion and are skipped
    code, out, _ = run(capsys, "fuzz", "--count", "20", "--seed", "2", "--max-elements", "8",
                       "--presheaves", "2", "--json")
    assert (code, out) == (0, '{"comparisons":36,"criterion_passes":18,"posets":20,"violations":0}\n')
    code, out, _ = run(capsys, "fuzz", "--count", "3", "--seed", "2",
                       "--max-elements", "4", "--presheaves", "1")
    assert code == 0
    assert out.strip().endswith("0 violations")
    # the smallest counts each flag accepts
    code, out, _ = run(capsys, "fuzz", "--count", "1", "--seed", "1", "--max-elements", "1",
                       "--presheaves", "0")
    assert (code, out) == (0, "1 posets, 1 criterion passes, 0 comparisons, 0 violations\n")
    code, out, _ = run(capsys, "fuzz", "--count", "0", "--seed", "1")
    assert (code, out) == (0, "0 posets, 0 criterion passes, 0 comparisons, 0 violations\n")


@pytest.mark.parametrize(
    "flag, value", [("--count", "-1"), ("--max-elements", "0"), ("--presheaves", "-3")]
)
def test_fuzz_rejects_out_of_range_counts(capsys, flag, value):
    code, out, err = run(capsys, "fuzz", "--seed", "1", "--count", "2", flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s must be at least " % flag)


def test_fuzz_violation_writes_a_reloadable_bundle(capsys, monkeypatch, tmp_path):
    class Row:
        degree, iso = 1, False

    class Report:
        all_iso, rows = False, [Row]

    calls = []

    def failing(ps, degrees):
        calls.append(ps)
        return Report

    monkeypatch.setattr(cli, "compare_report", failing)
    path = tmp_path / "bundle.json"
    # principal draws are certified without a comparison; these reach two
    # posets with a non-principal intersection, and the run stops at the
    # first violation instead of comparing the second as well
    code, out, err = run(capsys, "fuzz", "--count", "25", "--seed", "3", "--max-elements", "9",
                         "--presheaves", "1", "--out", str(path))
    assert (code, out, len(calls)) == (1, "", 1)
    assert err == (
        "violation: criterion PASS but comparison failed; bundle written to %s\n" % path
    )
    bundle = json.loads(path.read_text())
    assert bundle["failing_degrees"] == [1]
    ps = load_presheaf(bundle["presheaf"], space=parse_poset(bundle["poset"]))
    rebuilt = random_presheaf(IntersectionPoset(ps.space), bundle["presheaf_seed"])
    assert render_presheaf(rebuilt) == bundle["presheaf"]


def test_fuzz_compares_only_draws_with_a_non_principal_intersection(capsys, monkeypatch):
    calls, passed = [], []
    real = cli.compare_report

    def counting(ps, degrees):
        calls.append(len(ps.intersection.nodes) > len(ps.space))
        support = cohomology_support(ps.intersection.poset, ps.diagram.values)
        support |= cohomology_support(ps.space, ps.pulled_diagram().values)
        passed.append((degrees, sorted(support)))
        return real(ps, degrees)

    monkeypatch.setattr(cli, "compare_report", counting)
    code, out, _ = run(capsys, "fuzz", "--count", "25", "--seed", "3", "--max-elements", "9",
                       "--json")
    assert (code, out) == (
        0, '{"comparisons":125,"criterion_passes":25,"posets":25,"violations":0}\n'
    )
    # two of the 25 PASS posets have a non-principal intersection
    assert calls == [True] * 10
    # every degree of either support is compared, and no other
    assert all(degrees == support for degrees, support in passed)


def test_parser_is_built_once_and_shared_by_later_calls(write, capsys):
    assert build_parser() is build_parser()
    path = write("zigzag.json", builders.ZIGZAG_DOC)
    calls = [
        ("validate", path),
        ("criterion", path, "--no-shortcut", "--json"),
        ("criterion", path, "--json"),
        ("validate", path, "--json"),
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0]
    # a flag given to one call must not leak into the next
    assert json.loads(shared[1][1])["shortcut"] == "none"
    assert json.loads(shared[2][1])["shortcut"] != "none"


# {p} a poset, {s} a presheaf on it, {h} a poset with homology in degree 2
PARSE_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "fuzz"],
    ["nosuch"],
    [""],
    ["FUZZ", "--seed", "1"],
    ["Validate", "{p}"],
    ["--json", "validate", "{p}"],
    ["fuzz"],
    ["fuzz", "-h"],
    ["fuzz", "--seed", "1", "--help"],
    ["fuzz", "--seed", "1", "--bogus"],
    ["fuzz", "--count", "x", "--seed", "1"],
    ["fuzz", "--count", "x", "--bogus"],
    ["fuzz", "--seed", "1", "--count", "2", "--max-elements", "4", "--json"],
    ["fuzz", "--co", "2", "--seed", "1"],
    ["fuzz", "--seed=1", "--count=0"],
    ["fuzz", "--seed", "-1", "--count", "0"],
    ["fuzz", "--seed", "1", "--count", "0", "--", "x"],
    ["fuzz", "--seed", "1", "--count", "1", "--presheaves", "-3"],
    ["validate", "{p}"],
    ["validate", "--", "{p}"],
    ["validate"],
    ["validate", "-x"],
    ["validate", "{p}", "extra"],
    ["validate", "{p}", "--json", "--json"],
    ["validate", "{p}", "--json", "--out"],
    ["validate", "{p}.missing"],
    ["cuts", "{p}", "--json"],
    ["criterion", "{p}", "--no-s"],
    ["criterion", "{p}", "--n", "--json"],
    ["criterion", "--", "{p}", "--json"],
    ["skeleton", "{p}", "-h"],
    ["homology", "{h}", "--deg", "0..1"],
    ["homology", "{h}", "--degrees", "-1..2"],
    ["homology", "{h}", "--deg", "-1..2"],
    ["homology", "{h}", "--degrees=0..1"],
    ["homology", "{h}", "--degrees"],
    ["cech", "{p}", "{s}", "--degrees", "0..1", "--json"],
    ["cech", "{p}", "{s}", "--o"],
    ["topos", "{p}", "{s}", "--order", "p0"],
    ["compare", "{p}", "{s}", "--co"],
    ["compare", "{p}", "{s}", "--deg", "0..1"],
    ["compare", "{p}"],
    ["random-poset", "3", "--seed", "2"],
    ["random-poset", "--seed", "2"],
    ["random-poset", "3", "--seed", "2", "--density", "abc"],
    # the edges of the exact reader in `cli._parse`
    ["fuzz", "--seed", "1", "--seed", "2", "--count", "0"],
    ["random-poset", "--seed", "2", "--density", "0.5", "3"],
    ["compare", "--json", "{p}", "{s}"],
    ["validate", "{p}", "--out="],
    ["validate", "{p}", "--json=1"],
    ["fuzz", "--seed=-1", "--count", "0"],
    ["fuzz", "--count", "1.5", "--seed", "1"],
    ["fuzz", "--count", " 7", "--max-elements", "2", "--seed", "1"],
    ["validate", "-"],
    ["validate", ""],
    ["random-poset", "3", "--seed", "2", "--density=1e-1"],
]


def outcome(capsys, entry, argv):
    """((returned or exited, code), stdout, stderr) of one command line."""
    try:
        end = ("returned", entry(list(argv)))
    except SystemExit as exc:
        end = ("exited", exc.code)
    captured = capsys.readouterr()
    return end, captured.out, captured.err


@pytest.fixture
def corpus(write):
    paths = {
        "p": write("square.json", builders.SQUARE_DOC),
        "s": write("constant.json", builders.CONSTANT_SQUARE_DOC),
        "h": write("sphere.json", builders.SPHERE_DOC),
    }
    return [[token.format(**paths) for token in argv] for argv in PARSE_CORPUS]


def test_main_matches_the_full_parse_on_every_line(corpus, capsys):
    # exit codes, usage lines, help and error text are argparse's own, so
    # both sides run in this interpreter
    for argv in corpus:
        assert outcome(capsys, main, argv) == outcome(capsys, main_by_full_parse, argv), argv


def command_parsers(parser):
    """Each command's own parser, by name, off argparse's subparsers action."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_every_command_declares_only_what_the_exact_reader_reads():
    for name, command in command_parsers(build_parser()).items():
        help_action, *actions = command._actions
        assert isinstance(help_action, argparse._HelpAction), name
        assert len({a.dest for a in actions}) == len(actions), name
        for a in actions:
            if a.nargs == 0:
                assert type(a) is argparse._StoreTrueAction and a.option_strings, (name, a.dest)
            else:
                assert type(a) is argparse._StoreAction and a.nargs is None, (name, a.dest)
                assert a.choices is None and not isinstance(a.default, str), (name, a.dest)


def test_parsed_namespaces_match_the_full_parse(corpus, capsys):
    accepted = exact = 0
    for argv in corpus:
        try:
            full = build_parser().parse_args(cli._attached_windows(argv))
        except SystemExit:
            continue
        accepted += 1
        exact += cli._read_exact(build_parser().tables[argv[0]], argv) is not None
        assert vars(cli._parse(argv)) == vars(full), argv
    capsys.readouterr()
    # the other eleven abbreviate, use `--` or pass a value starting with "-"
    assert (accepted, exact) == (28, 17)


def test_the_benchmark_line_shapes_never_reach_argparse(write, capsys, monkeypatch):
    square = write("square.json", builders.SQUARE_DOC)
    cells9 = write("cells9.json", builders.CELLS9_DOC)
    constant = write("constant.json", builders.CONSTANT_SQUARE_DOC)
    sky = write("sky.json", builders.SKYSCRAPER_DOC)
    # `perfbench` calls `main` with these shapes, so argparse costs them nothing
    shapes = [
        ["fuzz", "--count", "1", "--max-elements", "5", "--presheaves", "5", "--seed", "7", "--json"],
        ["criterion", square, "--no-shortcut", "--json"],
        ["criterion", cells9, "--no-shortcut", "--json"],
        ["compare", square, constant, "--json"],
        ["compare", square, sky, "--json"],
    ]
    expected = [outcome(capsys, main_by_full_parse, argv) for argv in shapes]
    assert sorted({end for end, _, _ in expected}) == [("returned", 0), ("returned", 1)]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse ran")

    build_parser.cache_clear()
    try:
        parser = build_parser()
        for each in [parser, *command_parsers(parser).values()]:
            monkeypatch.setattr(each, "parse_known_args", refuse)
        monkeypatch.setattr(parser, "parse_args", refuse)
        assert [outcome(capsys, main, argv) for argv in shapes] == expected
        # an abbreviation is argparse's to read
        with pytest.raises(AssertionError, match="argparse ran"):
            main(["criterion", square, "--no-s", "--json"])
    finally:
        build_parser.cache_clear()


def test_a_line_the_exact_reader_refuses_runs_the_full_parse_once(write, capsys, monkeypatch):
    square = write("square.json", builders.SQUARE_DOC)
    sphere = write("sphere.json", builders.SPHERE_DOC)
    lines = [
        (["validate", square], 0),
        (["validate", "--", square], 0),
        (["cuts", square, "--json"], 0),
        (["criterion", square, "--no-s", "--json"], 1),
        (["homology", sphere, "--degrees=0..1"], 0),
        # a valid line whose window the command rejects
        (["homology", sphere, "--deg", "-1..2"], 2),
        (["fuzz", "--co", "2", "--seed", "1"], 0),
        (["random-poset", "3", "--seed", "2"], 0),
        # a token the command does not take
        (["fuzz", "--seed", "1", "--bogus"], 2),
    ]
    build_parser.cache_clear()
    try:
        parser = build_parser()
        full_parse, calls = parser.parse_args, []

        def counted(*args, **kwargs):
            calls.append(args)
            return full_parse(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_args", counted)
        refused = 0
        for argv, code in lines:
            calls.clear()
            exact = cli._read_exact(parser.tables[argv[0]], argv) is not None
            end, _, _ = outcome(capsys, main, argv)
            assert end[1] == code, argv
            # one full parse exactly where the exact reader refuses the line
            assert len(calls) == (0 if exact else 1), argv
            refused += not exact
        assert refused == 5
    finally:
        build_parser.cache_clear()


def test_module_entry_point(write, tmp_path):
    path = write("p.json", builders.POINT_DOC)
    # The child runs in tmp_path and imports the same posetcoh as this session,
    # whether that comes from src/ or from an installed copy.
    package_root = os.path.dirname(os.path.dirname(posetcoh.__file__))
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "posetcoh.cli", "validate", path],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 elements, 0 cover relations, longest chain 1"


def _with_group(node, literal):
    groups = dict(builders.SKYSCRAPER_DOC["groups"], **{node: literal})
    return dict(builders.SKYSCRAPER_DOC, groups=groups)


def _with_map(key, rows):
    maps = dict(builders.SKYSCRAPER_DOC["maps"], **{key: rows})
    return dict(builders.SKYSCRAPER_DOC, maps=maps)


# name: (poset document, presheaf document or None, text the error must name)
MALFORMED = {
    "relations-int": ({"elements": ["a"], "relations": 5}, None, "relations"),
    "relation-unhashable": ({"elements": ["a"], "relations": [[["a"], "a"]]}, None, "relation"),
    "relators-int": (
        builders.SQUARE_DOC, _with_group("{p2}", {"generators": 1, "relators": 5}), "relators"
    ),
    "relator-int": (
        builders.SQUARE_DOC, _with_group("{p2}", {"generators": 1, "relators": [2]}), "relator"
    ),
    "relator-bool": (
        builders.SQUARE_DOC, _with_group("{p2}", {"generators": 1, "relators": [[True]]}), "relator"
    ),
    "torsion-int": (builders.SQUARE_DOC, _with_group("{p2}", {"rank": 0, "torsion": 3}), "torsion"),
    "rank-bool": (builders.SQUARE_DOC, _with_group("{p2}", {"rank": True}), "rank"),
    "generators-bool": (builders.SQUARE_DOC, _with_group("{p2}", {"generators": True}), "generator"),
    "maps-list": (builders.SQUARE_DOC, dict(builders.SKYSCRAPER_DOC, maps=[1]), "maps"),
    "map-int": (builders.SQUARE_DOC, _with_map("{p0,p2,p3}->{p2,p3}", 7), "{p0,p2,p3}->{p2,p3}"),
    "map-row-int": (builders.SQUARE_DOC, _with_map("{p0,p2,p3}->{p2,p3}", [1]), "{p0,p2,p3}->{p2,p3}"),
    "map-bool": (builders.SQUARE_DOC, _with_map("{p0,p2,p3}->{p2,p3}", [[True]]), "{p0,p2,p3}->{p2,p3}"),
    "groups-list": (
        builders.SQUARE_DOC, dict(builders.SKYSCRAPER_DOC, groups=["{p2}", "{p3}"]), "groups"
    ),
    "presheaf-int": (builders.SQUARE_DOC, 5, "presheaf document"),
    "poset-list": ([], None, "error: poset document must be an object\n"),
    "element-int": ({"elements": ["a", 3]}, None, "element names must be strings"),
    # node names join members with "," and map keys join nodes with "->"
    "element-comma": (
        {"elements": ["a", "b", "c", "d", "a,b"],
         "relations": [["a", "c"], ["b", "c"], ["a", "d"], ["b", "d"]]},
        None,
        "element name 'a,b' contains ','",
    ),
    "element-arrow": (
        {"elements": ["x->y", "z"], "relations": [["z", "x->y"]]}, None,
        "element name 'x->y' contains '->'",
    ),
    "relation-single": ({"elements": ["a", "b"], "relations": [["a"]]}, None, "relation entries"),
    "groups-empty-list": (builders.SQUARE_DOC, dict(builders.SKYSCRAPER_DOC, groups=[]), "groups"),
    "maps-false": (
        builders.POINT_DOC,
        {"base": builders.POINT_DOC, "mode": "presheaf", "groups": {"{a}": {"rank": 1}},
         "maps": False},
        "maps",
    ),
    "map-breaks-relator": (
        builders.SQUARE_DOC,
        _with_group("{p0,p2,p3}", {"rank": 0, "torsion": [2]}),
        "map {p0,p2,p3}->{p2,p3} does not respect relations",
    ),
    "map-routes-differ": (
        builders.DIAMOND_DOC,
        {"base": builders.DIAMOND_DOC, "mode": "diagram",
         "groups": dict.fromkeys(builders.DIAMOND_DOC["elements"], {"rank": 1}),
         "maps": {"top->left": [[1]], "top->right": [[1]], "left->bot": [[1]], "right->bot": [[2]]}},
        "functoriality fails from top to bot: routes via left and right differ",
    ),
    "map-not-cover": (
        builders.SQUARE_DOC, _with_map("{p0,p2,p3}->{p2}", []), "{p0,p2,p3}->{p2} is not a cover"
    ),
    "map-row-count": (
        builders.SQUARE_DOC, _with_map("{p0,p2,p3}->{p2,p3}", [[1], [1]]), "needs 1 rows, got 2"
    ),
    "map-key-unknown": (
        builders.SQUARE_DOC, _with_map("{p9}->{p2}", []), "'{p9}->{p2}' names an unknown node"
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_exit_2_naming_the_field(write, capsys, name):
    # Exit 1 means a negative verdict, so malformed input must never reach it.
    poset, presheaf, field = MALFORMED[name]
    argv = ["validate", write("poset.json", poset)]
    if presheaf is not None:
        argv = ["compare", argv[1], write("presheaf.json", presheaf)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


MALFORMED_FILES = {
    "not-utf8": b"\xff{}",
    "too-many-digits": b"[" + b"1" * 5000 + b"]",
    "nested-too-deep": b"[" * 200_000 + b"]" * 200_000,
    "truncated": b'{"elements": [',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_unreadable_files_exit_2_naming_the_path(tmp_path, capsys, name):
    path = tmp_path / (name + ".json")
    path.write_bytes(MALFORMED_FILES[name])
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_document_commands_print_one_canonical_line_with_json(write, capsys):
    path = write("square.json", builders.SQUARE_DOC)
    for argv in (("skeleton", path), ("random-poset", "5", "--seed", "3")):
        code, text, _ = run(capsys, *argv)
        assert code == 0 and text.startswith("{\n  ")
        code, line, _ = run(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(text)
        assert line == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_homology_reduces_each_boundary_once(write, capsys, monkeypatch):
    calls = []
    original = complexes.rank_and_torsion

    def counted(columns):
        calls.append(len(columns))
        return original(columns)

    monkeypatch.setattr(complexes, "rank_and_torsion", counted)
    # the core of this poset is one point, read off without a boundary
    P = random_poset(12, 0.5, 7)
    assert len(core(P)) == 1
    code, out, _ = run(capsys, "homology", write("p.json", serialize_poset(P)))
    assert code == 0 and len(out.splitlines()) == P.height() + 1
    assert calls == []
    # the core of these is the whole poset: one boundary into each degree below the top
    for P in (builders.dunce_hat(), builders.projective_plane()):
        assert core(P) == list(range(len(P)))
        calls.clear()
        code, out, _ = run(capsys, "homology", write("p.json", serialize_poset(P)))
        assert code == 0 and len(out.splitlines()) == P.height() + 1
        assert 0 < len(calls) <= P.height()
