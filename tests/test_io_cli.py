import hashlib
import json
import os
import subprocess
import sys

import pytest

import finhtop
from finhtop import DiagramError, chain, constant_map, identity, new_poset
from finhtop import io as fio
from finhtop.cli import main
from finhtop.diagram import constant_diagram, cylinder_diagram, hocolim, new_diagram
from finhtop.reduction import DEFAULT_BUDGET
from finhtop.simplicial import identity_simplicial, new_complex_diagram
from finhtop.verify import THEOREMS
from finhtop.verify.randgen import random_complex, random_diagram, random_poset
from finhtop.verify.suite import barycentric_instance, circle_complex, suspension_diagram

# sha256 of `finhtop --format json check all --seed 0`, the reference report bytes.
CHECK_ALL_SHA256 = "611ca7ca517d2a84b9897ba3fbeee636f1e355eb354176d6bdab7a66ffa16b87"


class TestRoundTrips:
    @pytest.mark.parametrize("seed", range(4))
    def test_poset(self, seed):
        p = random_poset(7, 0.4, 2000 + seed)
        assert fio.poset_from_obj(json.loads(fio.dumps(fio.poset_to_obj(p)))) == p

    def test_poset_with_namespaced_elements(self, sphere_diagram):
        # hocolim output uses "::" in names; reloading must work
        h = hocolim(sphere_diagram)
        again = fio.poset_from_obj(json.loads(fio.dumps(fio.poset_to_obj(h))))
        assert again == h

    @pytest.mark.parametrize("seed", range(4))
    def test_complex(self, seed):
        k = random_complex(5, 2100 + seed)
        assert fio.complex_from_obj(json.loads(fio.dumps(fio.complex_to_obj(k)))) == k

    @pytest.mark.parametrize("seed", range(4))
    def test_diagram(self, seed):
        d = random_diagram(3, 3, 2200 + seed)
        again = fio.diagram_from_obj(json.loads(fio.dumps(fio.diagram_to_obj(d))))
        assert again == d

    def test_map(self, s1, pt):
        m = constant_map(s1, pt, "pt")
        again = fio.map_from_obj(json.loads(fio.dumps(fio.map_to_obj(m))))
        assert again == m

    def test_complex_diagram(self):
        two = new_poset(["0", "1"], [("0", "1")])
        k = circle_complex()
        c = new_complex_diagram(
            two, {p: k for p in two.elements}, {("0", "1"): identity_simplicial(k)}
        )
        obj = json.loads(fio.dumps(fio.diagram_to_obj(c)))
        again = fio.diagram_from_obj(obj)
        assert again.fibers == c.fibers
        assert again.transitions == c.transitions

    def test_diagram_with_arrows_in_index_names(self, s1, pt):
        # Cover keys are "p->q"; the split must be the one naming a cover pair.
        index = new_poset(["a->b", "c"], [("a->b", "c")])
        d = new_diagram(index, {"a->b": s1, "c": pt}, {("a->b", "c"): constant_map(s1, pt, "pt")})
        obj = json.loads(fio.dumps(fio.diagram_to_obj(d)))
        assert list(obj["transitions"]) == ["a->b->c"]
        assert fio.diagram_from_obj(obj) == d

    def test_ambiguous_cover_key_rejected(self, pt):
        # Both covers serialize to "a->b->c"; loading must not guess.
        index = new_poset(["a", "a->b", "b->c", "c"], [("a", "b->c"), ("a->b", "c")])
        obj = json.loads(fio.dumps(fio.diagram_to_obj(constant_diagram(index, pt))))
        with pytest.raises(DiagramError, match="more than one cover pair"):
            fio.diagram_from_obj(obj)

    def test_unknown_cover_key_rejected(self, sphere_diagram):
        obj = fio.diagram_to_obj(sphere_diagram)
        obj["transitions"]["1->2"] = obj["transitions"].pop("0->2")
        with pytest.raises(DiagramError, match="no cover pair"):
            fio.diagram_from_obj(obj)

    def test_mixed_fiber_kinds_rejected(self, sphere_diagram):
        obj = fio.diagram_to_obj(sphere_diagram)
        obj["fibers"]["1"] = fio.complex_to_obj(circle_complex())
        with pytest.raises(DiagramError, match="mix posets and complexes"):
            fio.diagram_from_obj(obj)

    def test_identical_values_identical_bytes(self):
        d1 = random_diagram(3, 3, 2300)
        d2 = random_diagram(3, 3, 2300)
        assert fio.dumps(fio.diagram_to_obj(d1)) == fio.dumps(fio.diagram_to_obj(d2))


class TestDot:
    def test_hasse_structure(self, s1):
        dot = fio.to_dot(s1)
        assert dot.startswith("digraph hasse {")
        assert '"a" -> "c";' in dot
        # ranked by height: two rank groups
        assert dot.count("rank=same") == 2
        # covers only: no transitive edge in a 2-level poset anyway
        assert dot.count("->") == 4


@pytest.fixture
def files(tmp_path, s1, pt):
    paths = {}
    paths["chain"] = tmp_path / "chain3.json"
    paths["chain"].write_text(fio.dumps(fio.poset_to_obj(chain(3))))
    paths["s1"] = tmp_path / "s1.json"
    paths["s1"].write_text(fio.dumps(fio.poset_to_obj(s1)))
    paths["sphere"] = tmp_path / "sphere.json"
    paths["sphere"].write_text(fio.dumps(fio.diagram_to_obj(suspension_diagram(s1))))
    paths["cyl"] = tmp_path / "cyl_s1_pt.json"
    paths["cyl"].write_text(
        fio.dumps(fio.diagram_to_obj(cylinder_diagram(constant_map(s1, pt, "pt"))))
    )
    paths["map"] = tmp_path / "map.json"
    paths["map"].write_text(fio.dumps(fio.map_to_obj(constant_map(s1, pt, "pt"))))
    paths["tri"] = tmp_path / "tri.json"
    paths["tri"].write_text(fio.dumps(fio.complex_to_obj(circle_complex())))
    paths["complex_diagram"] = tmp_path / "complex_diagram.json"
    paths["complex_diagram"].write_text(fio.dumps(fio.diagram_to_obj(barycentric_instance(0, 0))))
    return paths


class TestCli:
    def test_contractible_true(self, files, capsys):
        assert main(["poset", "contractible", str(files["chain"])]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_contractible_false(self, files, capsys):
        assert main(["poset", "contractible", str(files["s1"])]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_homology_text(self, files, capsys):
        assert main(["poset", "homology", str(files["s1"])]) == 0
        out = capsys.readouterr().out
        assert "H_0 = Z" in out and "H_1 = Z" in out

    def test_homology_json_round_trip(self, files, capsys):
        assert main(["--format", "json", "poset", "homology", str(files["s1"])]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["betti"] == [1, 1]

    def test_core_json(self, files, capsys):
        assert main(["--format", "json", "poset", "core", str(files["chain"])]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["core"]["elements"]) == 1
        assert len(obj["sequence"]) == 2

    def test_ordercomplex(self, files, capsys):
        assert main(["--format", "json", "poset", "ordercomplex", str(files["s1"])]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["vertices"]) == 4
        assert len(obj["facets"]) == 4

    def test_ordercomplex_of_long_chain(self, tmp_path, capsys):
        # Deeper than the interpreter's recursion limit: chains are walked
        # with an explicit stack.
        path = tmp_path / "chain1200.json"
        path.write_text(fio.dumps(fio.poset_to_obj(chain(1200))))
        assert main(["--format", "json", "poset", "ordercomplex", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["facets"]) == 1
        assert len(obj["facets"][0]) == 1200

    def test_export_dot(self, files, capsys):
        assert main(["poset", "export-dot", str(files["s1"])]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_hocolim_json_reloads(self, files, capsys):
        assert main(["--format", "json", "diagram", "hocolim", str(files["sphere"])]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(fio.poset_from_obj(obj)) == 6

    def test_cylinder(self, files, capsys):
        assert main(["diagram", "cylinder", str(files["map"])]) == 0
        assert "5 elements" in capsys.readouterr().out

    def test_restrict(self, files, capsys):
        assert main(
            ["--format", "json", "diagram", "restrict", str(files["sphere"]), "--keep", "0,1"]
        ) == 0
        obj = json.loads(capsys.readouterr().out)
        assert sorted(obj["fibers"]) == ["0", "1"]

    def test_complex_commands(self, files, capsys):
        assert main(["complex", "faceposet", str(files["tri"])]) == 0
        assert "6 elements" in capsys.readouterr().out
        assert main(["complex", "sd", str(files["tri"])]) == 0
        assert "6 vertices" in capsys.readouterr().out
        assert main(["complex", "homology", str(files["tri"])]) == 0
        assert "H_1 = Z" in capsys.readouterr().out

    def test_check_with_input(self, files, capsys):
        assert main(["check", "maximum", "--input", str(files["cyl"])]) == 0
        assert "Verified" in capsys.readouterr().out

    def test_hocolim_with_arrows_in_index_names(self, tmp_path, s1, pt, capsys):
        index = new_poset(["a->b", "c"], [("a->b", "c")])
        d = new_diagram(index, {"a->b": s1, "c": pt}, {("a->b", "c"): constant_map(s1, pt, "pt")})
        path = tmp_path / "arrows.json"
        path.write_text(fio.dumps(fio.diagram_to_obj(d)))
        assert main(["--format", "json", "diagram", "hocolim", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["elements"]) == 5

    def test_hocolim_of_complex_diagram_exits_two(self, files, capsys):
        assert main(["diagram", "hocolim", str(files["complex_diagram"])]) == 2
        assert "expected a diagram of poset fibers" in capsys.readouterr().err

    def test_restrict_complex_diagram(self, files, capsys):
        assert main(["--format", "json", "diagram", "restrict", str(files["complex_diagram"]),
                     "--keep", "p0"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert list(obj["fibers"]) == ["p0"] and "vertices" in obj["fibers"]["p0"]

    @pytest.mark.parametrize(
        "theorem, file, kind",
        [("maximum", "complex_diagram", "poset"), ("barycentric", "sphere", "complex")],
    )
    def test_check_input_of_wrong_kind_exits_two(self, files, capsys, theorem, file, kind):
        assert main(["check", theorem, "--input", str(files[file])]) == 2
        assert f"expected a diagram of {kind} fibers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "theorem, given, missing",
        [("ubp", [], "--point"), ("dbp", ["--point", "1"], "--dominator"),
         ("dbpgen", [], "--point and --dominator")],
    )
    def test_check_input_missing_option_exits_two(self, files, capsys, theorem, given, missing):
        assert main(["check", theorem, "--input", str(files["sphere"]), *given]) == 2
        assert f"check {theorem} --input needs {missing}" in capsys.readouterr().err

    def test_check_all_reference_bytes(self, capsys):
        assert main(["--format", "json", "check", "all", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_SHA256

    def test_check_random(self, capsys):
        assert main(["check", "thomason", "--random", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("Verified") == 3

    def test_check_json_determinism(self, capsys):
        assert main(["--format", "json", "check", "ubp", "--random", "3", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["--format", "json", "check", "ubp", "--random", "3", "--seed", "1"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_missing_file_exits_two(self, capsys):
        assert main(["poset", "homology", "/no/such/file.json"]) == 2

    def test_invalid_poset_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"elements": ["a"], "relations": [["a", "b"]]}')
        assert main(["poset", "core", str(bad)]) == 2

    def test_cycle_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "cycle.json"
        bad.write_text('{"elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]}')
        assert main(["poset", "core", str(bad)]) == 2

    def test_budget_env_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("FINHTOP_BUDGET", "123")
        assert main(["check", "maximum", "--input", str(files["cyl"])]) == 0

    def test_subprocess_entry_point(self, files):
        # the installed console script behaves like main()
        proc = subprocess.run(
            [sys.executable, "-m", "finhtop.cli", "poset", "contractible", str(files["chain"])],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "true"

    def test_internal_error_exits_three(self, files):
        # A broken invariant is a library bug: neither "Refuted" (1) nor bad input (2).
        code = (
            "import sys\n"
            "import finhtop.homology as h\n"
            "from finhtop import cli\n"
            "assert False, 'asserts are on'\n"
            "real = h.euler_characteristic\n"
            "h.euler_characteristic = lambda k: real(k) + 1\n"
            "sys.exit(cli.main(['complex', 'homology', sys.argv[1]]))\n"
        )
        src = os.path.dirname(os.path.dirname(finhtop.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, str(files["tri"])],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("internal error:")
        assert "Traceback" in proc.stderr
        assert "invariant broken: Betti numbers disagree" in proc.stderr


def _instance_input(theorem: str, instance):
    """The --input JSON and the options that reproduce a seeded instance."""
    t = THEOREMS[theorem]
    if t.flags:
        instance, *values = instance
        options = [x for f, v in zip(t.flags, values) for x in (f"--{f}", v)]
    else:
        options = []
    if theorem == "homotopy":
        return fio.morphism_to_obj(instance), options
    if theorem == "cofinality":
        phi, d = instance
        return {"map": fio.map_to_obj(phi), "diagram": fio.diagram_to_obj(d)}, options
    return fio.diagram_to_obj(instance), options


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_check_input_matches_in_process_report(theorem, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FINHTOP_BUDGET", raising=False)
    t = THEOREMS[theorem]
    instance = t.instance(0, 0)
    obj, options = _instance_input(theorem, instance)
    path = tmp_path / f"{theorem}.json"
    path.write_text(fio.dumps(obj))
    code = main(["--format", "json", "check", theorem, "--input", str(path), *options])
    expected = fio.dumps([t.check(instance, DEFAULT_BUDGET).to_obj()])
    assert capsys.readouterr().out == expected
    assert code == 0
