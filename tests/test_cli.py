"""CLI behaviour: outputs, formats, exit codes, determinism."""

import json

import pytest

from comaximal.cli import main

from conftest import run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRing:
    def test_z12_summary(self, capsys):
        code, out, _ = run_cli(capsys, "ring", "Z/12")
        assert code == 0
        lines = out.splitlines()
        assert "spec=Z/12" in lines
        assert "size=12" in lines
        assert "characteristic=12" in lines
        assert "units=4" in lines
        assert "jacobson=[0, 6]" in lines
        assert "max_ideal_sizes=[6, 4]" in lines
        assert "residue_field_sizes=[2, 3]" in lines
        assert "idempotent_elements=[0, 1, 4, 9]" in lines
        assert "clean=true" in lines

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "ring", "Z/banana")
        assert code == 2
        assert "position" in err

    def test_json_boolean_one_exit_2(self, capsys, tmp_path):
        table = {"size": 2, "one": True, "add": [0, 1, 1, 0], "mul": [0, 0, 0, 1]}
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "ring", f"table:{path}")
        assert (code, out, err) == (2, "", "error: one must be an element index\n")

    def test_one_at_zero_exit_2(self, capsys, tmp_path):
        table = {"size": 2, "one": 0, "add": [0, 1, 1, 0], "mul": [0, 0, 0, 1]}
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "ring", f"table:{path}")
        assert (code, out) == (2, "")
        assert err == "error: one must not be element 0, the additive identity\n"

    def test_cap_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "ring", "Z/9999")
        assert code == 3
        assert "cap" in err

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr("comaximal.rings.maximal_ideals_bruteforce", lambda ring: ())
        code, out, err = run_cli(capsys, "ring", "Z/12")
        assert code == 4
        assert err.startswith("error: ") and "brute force" in err

    def test_cap_flag_override(self, capsys):
        code, out, _ = run_cli(capsys, "ring", "Z/9999", "--max-ring-size", "10000")
        assert code == 0
        assert "size=9999" in out

    def test_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("COMAXIMAL_MAX_RING_SIZE", "10000")
        code, out, _ = run_cli(capsys, "ring", "Z/9999")
        assert code == 0

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COMAXIMAL_MAX_RING_SIZE", "10000")
        code, _, _ = run_cli(capsys, "ring", "Z/9999", "--max-ring-size", "4096")
        assert code == 3

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("COMAXIMAL_MAX_RING_SIZE", "many")
        code, _, err = run_cli(capsys, "ring", "Z/6")
        assert code == 2
        assert "COMAXIMAL_MAX_RING_SIZE" in err

    def test_nonpositive_env_value_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("COMAXIMAL_MAX_RING_SIZE", "0")
        code, _, err = run_cli(capsys, "ring", "Z/4")
        assert code == 2
        assert err == "error: COMAXIMAL_MAX_RING_SIZE must be positive, got 0\n"

    def test_nonpositive_flag_names_the_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("COMAXIMAL_MAX_RING_SIZE", "0")  # the flag wins over the variable
        code, _, err = run_cli(capsys, "ring", "Z/4", "--max-ring-size", "-3")
        assert code == 2
        assert err == "error: --max-ring-size must be positive, got -3\n"


class TestGraph:
    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "Z/4", "--format", "dot")
        assert code == 0
        assert out.startswith("graph comaximal {\n")
        assert '  v0 [label="0"];' in out
        assert "  v0 -- v1;" in out
        assert out.rstrip().endswith("}")

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "Z/4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        assert payload["labels"] == ["0", "1", "2", "3"]
        assert payload["edges"] == [[0, 1], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_dot_json_consistency(self, capsys):
        _, dot, _ = run_cli(capsys, "graph", "Z/2 x Z/3", "--select", "core")
        _, js, _ = run_cli(capsys, "graph", "Z/2 x Z/3", "--select", "core", "--format", "json")
        payload = json.loads(js)
        for i, label in enumerate(payload["labels"]):
            assert f'v{i} [label="{label}"];' in dot
        for u, v in payload["edges"]:
            assert f"v{u} -- v{v};" in dot
        assert dot.count(" -- ") == len(payload["edges"])

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, out, _ = run_cli(
            capsys, "graph", "Z/6", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n"] == 6

    def test_core_selector(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "GF(4)", "--select", "core", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"edges": [], "labels": [], "n": 0}


class TestInvariants:
    def test_z30_core_first_line(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "Z/30", "--select", "core")
        assert code == 0
        assert out.splitlines()[0] == "connected=true diameter=3 clique=3 chromatic=3"

    def test_z12_full(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "Z/12")
        assert code == 0
        assert out.splitlines()[0] == "connected=true diameter=2 clique=6 chromatic=6"

    def test_bipartite_parts(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "Z/12", "--select", "core")
        lines = out.splitlines()
        assert lines[0] == "connected=true diameter=2 clique=2 chromatic=2"
        assert "bipartite=true" in lines
        assert "complete_multipartite=true" in lines
        assert "parts=[4, 2]" in lines

    def test_empty_core(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "GF(4)", "--select", "core")
        assert code == 0
        assert "diameter=empty" in out.splitlines()[0]

    def test_solver_cap_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "Z/12", "--max-exact-vertices", "4")
        assert code == 3
        assert "cap" in err


class TestIso:
    def test_isomorphic_pair_full_graph(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "Z/8", "Z/2[x]/(x^3)", "--graph", "full")
        assert code == 0
        assert out.splitlines()[0] == "isomorphic"

    def test_non_isomorphic_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "Z/9", "Z/3 x Z/3")
        assert code == 1
        assert out.splitlines()[0] == "not isomorphic"

    def test_rings_flag(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "Z/6", "Z/2 x Z/3", "--rings")
        assert code == 0
        assert out.splitlines() == ["isomorphic", "rings: isomorphic"]

    def test_rings_above_default_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "iso", "GF(256)", "Z/2[x]/(x^8+x^7+x^2+x+1)",
            "--rings", "--max-ringiso-size", "256",
        )
        assert code == 0
        assert out.splitlines() == ["isomorphic", "rings: isomorphic"]

    def test_rings_differ(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "Z/2 x Z/8", "Z/4 x Z/4", "--rings")
        assert code == 1
        assert out.splitlines() == ["isomorphic", "rings: not isomorphic"]

    def test_ring_iso_cap_undecided_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "iso", "Z/64", "Z/64", "--rings", "--max-ringiso-size", "32"
        )
        assert code == 3
        assert "rings: undecided" in out

    def test_witness_file(self, capsys, tmp_path):
        target = tmp_path / "wit.json"
        code, _, _ = run_cli(
            capsys, "iso", "Z/4", "Z/2[x]/(x^2)", "--witness", str(target)
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["mapping"] == [0, 1, 2, 3]
        assert payload["rings"] == ["Z/4", "Z/2[x]/(x^2)"]

    def test_witness_file_keeps_the_product_pair_mapping(self, capsys, tmp_path):
        target = tmp_path / "wit.json"
        code, _, _ = run_cli(capsys, "iso", "Z/2 x Z/8", "Z/4 x Z/4", "--witness", str(target))
        assert code == 0
        mapping = json.loads(target.read_text())["mapping"]
        assert mapping == [0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15]

    def test_core_selector(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "Z/2 x Z/8", "Z/4 x Z/4", "--graph", "core")
        assert code == 0
        assert out.splitlines()[0] == "isomorphic"


class TestVerify:
    def test_single_claim(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "Z/2 x Z/2", "--claims", "L3.2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ring: Z/2 x Z/2"
        assert lines[1].startswith("L3.2")
        assert "pass" in lines[1]
        assert lines[-1] == "summary: pass=1 fail=0 skip=0"

    def test_all_claims_default(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "Z/12")
        assert code == 0
        assert "summary: pass=16 fail=0 skip=1" in out

    def test_unknown_claim_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "Z/6", "--claims", "BOGUS")
        assert code == 2
        assert "unknown" in err

    def test_json_out(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "Z/30", "--claims", "T3.1,E3.4", "--out", str(target)
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["summary"] == {"pass": 2, "fail": 0, "skip": 0}
        assert [e["claim"] for e in payload["entries"]] == ["T3.1", "E3.4"]


class TestVerifyPair:
    def test_product_pair_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify-pair", "Z/2 x Z/8", "Z/4 x Z/4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rings: Z/2 x Z/8 | Z/4 x Z/4"
        assert any(line.startswith("T4.4") and "pass" in line for line in lines)
        assert any(line.startswith("C4.6") and "skip" in line for line in lines)

    def test_claims_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-pair", "Z/30", "Z/2 x Z/3 x Z/5", "--claims", "C4.6"
        )
        assert code == 0
        assert "summary: pass=1 fail=0 skip=0" in out


class TestSweep:
    def test_zn_sweep_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--family", "zn", "--max", "30",
            "--claims", "E3.4,T3.1", "--out", str(target),
        )
        assert code == 0
        assert "fail=0" in out
        payload = json.loads(target.read_text())
        assert payload["summary"]["fail"] == 0
        assert len(payload["entries"]) == 2 * 29

    def test_missing_family_args_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--family", "zn")
        assert code == 2
        assert "--max" in err
        code, _, err = run_cli(capsys, "sweep", "--family", "products")
        assert code == 2
        code, _, err = run_cli(capsys, "sweep", "--family", "corpus")
        assert code == 2

    def test_products_family(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--family", "products", "--specs", "Z/2;Z/3",
            "--max-factors", "2", "--max-size", "9",
            "--claims", "L2.1a", "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        rings = sorted({tuple(e["rings"]) for e in payload["entries"]})
        assert rings == [("Z/2",), ("Z/2 x Z/2",), ("Z/2 x Z/3",), ("Z/3",), ("Z/3 x Z/3",)]

    def test_corpus_family(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("Z/6\nZ/10\n")
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--family", "corpus", "--corpus", str(corpus),
            "--claims", "T2.2", "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert len(payload["entries"]) == 2

    def test_stdout_json_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "zn", "--max", "6", "--claims", "L2.1a")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["pass"] == 5

    def test_byte_identical_reports(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            run_cli(
                capsys,
                "sweep", "--family", "zn", "--max", "40",
                "--claims", "E3.4,L2.1b,JOIN", "--out", str(target),
            )
        assert a.read_bytes() == b.read_bytes()


class TestHugeLiterals:
    """Terms far over the size cap fail by size, without factoring or printing a huge number."""

    CASES = {
        "GF(2305843009213693951)": (3, f"ring of size {2**61 - 1} exceeds"),
        "SQZ(2305843009213693951,1)": (3, f"ring of size {(2**61 - 1) ** 2} exceeds"),
        "GF(2^100)": (3, f"ring of size {2**100} exceeds"),
        "GF(3^30)": (3, f"ring of size {3**30} exceeds"),
        "SQZ(2,100000000)": (3, "ring of size 2^100000001 exceeds"),
        "Z/2[x]/(x^100000)": (3, "ring of size 2^100000 exceeds"),
        # a prime factor within the cap: the parse error stays as it was
        "GF(1000000)": (2, "field size must be a prime power (at position 3)"),
        "Z/10000[x]/(x)": (2, "polynomial quotient base must be prime (at position 2)"),
    }

    @pytest.mark.parametrize("text", list(CASES))
    def test_ring_exit_code(self, text):
        code, err = self.CASES[text]
        result = run_python("-m", "comaximal.cli", "ring", text, timeout=10)
        assert result.returncode == code
        prefix = "capability" if code == 3 else "error"
        suffix = " the size cap (4096)" if code == 3 else f" in {text!r}"
        assert result.stderr == f"{prefix}: {err}{suffix}\n"
        assert result.stdout == ""

    def test_overlong_literal_is_a_parse_error(self):
        """Past Python's 4,300-digit limit on int(), a literal is a parse error, not a traceback."""
        text = "Z/" + "1" * 5000
        result = run_python("-m", "comaximal.cli", "ring", text, timeout=10)
        assert result.returncode == 2
        assert result.stderr == f"error: modulus has too many digits (at position 2) in {text!r}\n"


class TestEntryPoint:
    def test_console_script(self):
        result = run_python("-m", "comaximal.cli", "invariants", "Z/30", "--select", "core")
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "connected=true diameter=3 clique=3 chromatic=3"

    def test_usage_error_exit_2(self):
        result = run_python("-m", "comaximal.cli", "graph", "Z/4", "--format", "yaml")
        assert result.returncode == 2

    def test_version_flag(self):
        result = run_python("-m", "comaximal.cli", "--version")
        assert result.returncode == 0
        assert result.stdout.startswith("comaximal ")
