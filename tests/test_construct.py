"""Expression language and table file tests."""

import json
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from comaximal import (
    CapacityError,
    ParseError,
    PolyQuotExpr,
    ProductExpr,
    RingAxiomError,
    SqzExpr,
    TableFormatError,
    ZnExpr,
    build_comaximal_graph,
    build_ring,
    expression_size,
    format_expression,
    load_table_ring,
    minimal_irreducible,
    parse_expression,
    ring_from_text,
    ring_isomorphic,
    save_table_ring,
    validate_ring_axioms,
)


class TestParser:
    def test_zn(self):
        assert parse_expression("Z/12") == ZnExpr(12)

    def test_polyquot(self):
        assert parse_expression("Z/2[x]/(x^3)") == PolyQuotExpr(2, (0, 0, 0, 1))

    def test_polyquot_mixed_terms(self):
        assert parse_expression("Z/3[x]/(x^2+2x+1)") == PolyQuotExpr(3, (1, 2, 1))

    def test_poly_coefficients_reduce_mod_p(self):
        assert parse_expression("Z/2[x]/(x^2+3x+5)") == PolyQuotExpr(2, (1, 1, 1))

    def test_product(self):
        assert parse_expression("Z/2 x Z/8") == ProductExpr((ZnExpr(2), ZnExpr(8)))

    def test_product_three_factors(self):
        expr = parse_expression("Z/2 x Z/3 x Z/5")
        assert expr == ProductExpr((ZnExpr(2), ZnExpr(3), ZnExpr(5)))

    def test_sqz(self):
        assert parse_expression("SQZ(2,2)") == SqzExpr(2, 2)

    def test_gf_prime_is_zn(self):
        assert parse_expression("GF(5)") == ZnExpr(5)
        assert parse_expression("GF(5^1)") == ZnExpr(5)

    def test_gf_prime_power(self):
        expr = parse_expression("GF(2^2)")
        assert expr == PolyQuotExpr(2, minimal_irreducible(2, 2))

    def test_gf_shorthand(self):
        assert parse_expression("GF(4)") == parse_expression("GF(2^2)")
        assert parse_expression("GF(27)") == parse_expression("GF(3^3)")

    def test_table_path(self):
        expr = parse_expression("table:rings/my_ring.json")
        assert expr.path == "rings/my_ring.json"

    def test_whitespace_insensitive(self):
        assert parse_expression("  Z/2   x  Z/8 ") == parse_expression("Z/2 x Z/8")
        assert parse_expression("Z/2[x]/( x^2 + x + 1 )") == parse_expression(
            "Z/2[x]/(x^2+x+1)"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "Z/0",
            "Z/1",
            "Z/4[x]/(x^2)",
            "Z/2[x]/(x^2",
            "Z/2[x]/(2x^2+1)",
            "Z/2[x]/(1)",
            "GF(6)",
            "GF(4^2)",
            "SQZ(4,1)",
            "SQZ(2,0)",
            "Z/2 x",
            "x Z/2",
            "Z/2 Z/3",
            "",
            "table:",
            pytest.param("Z/" + "1" * 5000, id="overlong-literal"),
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_expression(text)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("Z/2 x Z/one")
        assert err.value.position == 8

    def test_format_round_trip(self):
        for text in (
            "Z/12",
            "Z/2[x]/(x^3)",
            "Z/3[x]/(x^2+2x+2)",
            "SQZ(2,2)",
            "Z/2 x Z/8",
            "Z/2 x Z/3 x GF(4)",
            "table:foo.json",
        ):
            expr = parse_expression(text)
            assert parse_expression(format_expression(expr)) == expr


class TestIrreducibles:
    def test_gf4_polynomial(self):
        assert minimal_irreducible(2, 2) == (1, 1, 1)

    def test_deterministic(self):
        assert minimal_irreducible(3, 3) == minimal_irreducible(3, 3)

    @pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (2, 5)])
    def test_builds_a_field(self, p, k):
        ring = build_ring(PolyQuotExpr(p, minimal_irreducible(p, k)))
        assert ring.size == p**k
        assert ring.unit_count == p**k - 1


class TestBuilders:
    def test_zn_units(self):
        assert sorted(ring_from_text("Z/4").units) == [1, 3]

    def test_polyquot_field(self):
        gf4 = ring_from_text("Z/2[x]/(x^2+x+1)")
        assert gf4.unit_count == 3
        assert gf4.labels[:2] == ("0", "1")
        assert set(gf4.labels) == {"0", "1", "x", "x+1"}

    @pytest.mark.parametrize(
        "text, labels",
        [
            ("GF(4)", ("0", "1", "x", "x+1")),
            ("SQZ(2,2)", ("0", "y", "x", "x+y", "1", "1+y", "1+x", "1+x+y")),
            ("Z/3[x]/(x^2)", ("0", "1", "2", "x", "x+1", "x+2", "2x", "2x+1", "2x+2")),
        ],
    )
    def test_digit_ring_labels_made_when_read(self, text, labels):
        ring = ring_from_text(text)
        assert "labels" not in vars(ring)
        assert ring.labels == labels

    def test_digit_ring_labels_above_table_limit(self):
        labels = ring_from_text("GF(2^9)").labels
        assert len(set(labels)) == len(labels) == 512
        assert labels[:4] == ("0", "1", "x", "x+1")
        assert labels[300] == "x^8+x^5+x^3+x^2"
        assert labels[511] == "x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1"

    def test_digit_ring_graph_pickles_with_labels(self):
        g = build_comaximal_graph(ring_from_text("GF(4)"), "full")
        copy = pickle.loads(pickle.dumps(g))
        assert copy.labels == g.labels == ("0", "1", "x", "x+1")

    def test_polyquot_nonfield(self):
        r = ring_from_text("Z/2[x]/(x^2)")
        assert r.size == 4
        assert r.characteristic == 2
        assert r.unit_count == 2

    def test_sqz_shape(self):
        r = ring_from_text("SQZ(2,2)")
        assert r.size == 8
        assert r.maximal_ideal_count == 1
        assert len(r.jacobson_radical) == 4
        assert r.unit_count == 4

    def test_sqz_square_zero_relations(self):
        r = ring_from_text("SQZ(2,2)")
        by_label = {lab: i for i, lab in enumerate(r.labels)}
        x, y = by_label["x"], by_label["y"]
        assert r.mul(x, x) == 0
        assert r.mul(y, y) == 0
        assert r.mul(x, y) == 0

    def test_expression_size(self):
        for text, size in (
            ("Z/12", 12),
            ("Z/2[x]/(x^3)", 8),
            ("SQZ(2,2)", 8),
            ("Z/2 x Z/8", 16),
            ("GF(27)", 27),
        ):
            assert expression_size(parse_expression(text)) == size

    def test_every_grammar_ring_is_axiom_valid(self):
        for text in (
            "Z/2",
            "Z/9",
            "GF(4)",
            "GF(25)",
            "Z/5[x]/(x^2+2)",
            "SQZ(3,2)",
            "Z/4 x SQZ(2,1)",
        ):
            validate_ring_axioms(ring_from_text(text))

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            ring_from_text("Z/5000")
        ring_from_text("Z/5000", max_size=5000)

    def test_size_errors_keep_reading_order(self):
        # a field over the cap skips its polynomial search, not its turn among the errors
        with pytest.raises(CapacityError, match="size 5000 "):
            ring_from_text("Z/5000 x GF(2^13)")
        with pytest.raises(CapacityError, match="size 8192 "):
            ring_from_text("GF(2^13) x Z/5000")
        with pytest.raises(ParseError):
            ring_from_text("GF(2^13) x Z/1")
        assert ring_from_text("GF(2^13)", max_size=8192).size == 8192
        with pytest.raises(CapacityError, match="size 5000 "):
            ring_from_text("Z/5000 x Z/2[x]/(x^13)")
        with pytest.raises(ParseError):
            ring_from_text("Z/2[x]/(x^3000000) x Z/1")

    def test_huge_exponent_builds_no_coefficient_tuple(self):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CapacityError, match=r"ring of size 2\^1000000000 exceeds"):
                ring_from_text("Z/2[x]/(x^1000000000)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert peak < 1 << 20


def z3_table() -> dict:
    """Z/3 as the JSON object of a table file."""
    idx = np.arange(3)
    return {
        "size": 3,
        "one": 1,
        "add": ((idx[:, None] + idx) % 3).ravel().tolist(),
        "mul": ((idx[:, None] * idx) % 3).ravel().tolist(),
    }


class TestTableFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "z6.json")
        save_table_ring(ring_from_text("Z/6"), path)
        loaded = load_table_ring(path)
        assert loaded.size == 6
        iso = ring_isomorphic(loaded, ring_from_text("Z/6"))
        assert iso is not None and iso.mapping == tuple(range(6))

    def test_loads_through_expression(self, tmp_path):
        path = str(tmp_path / "ring.json")
        save_table_ring(ring_from_text("Z/2 x Z/2"), path)
        r = ring_from_text(f"table:{path}")
        assert r.size == 4
        assert r.unit_count == 1

    def test_labels_preserved(self, tmp_path):
        path = str(tmp_path / "gf4.json")
        save_table_ring(ring_from_text("GF(4)"), path)
        assert load_table_ring(path).labels == ("0", "1", "x", "x+1")

    def test_hand_written_matches_sqz(self, tmp_path):
        src = ring_from_text("SQZ(2,1)")
        path = str(tmp_path / "sqz.json")
        save_table_ring(src, path)
        assert ring_isomorphic(load_table_ring(path), src) is not None

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"size": 2, "add": [0, 1, 1, 0], "mul": [0, 0, 0, 1]}))
        with pytest.raises(TableFormatError):
            load_table_ring(str(path))

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"size": 2, "one": 1, "add": [0, 1, 1], "mul": [0, 0, 0, 1]})
        )
        with pytest.raises(TableFormatError):
            load_table_ring(str(path))

    def test_one_at_zero_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"size": 2, "one": 0, "add": [0, 1, 1, 0], "mul": [0, 0, 0, 1]}))
        with pytest.raises(TableFormatError, match="one must not be element 0"):
            load_table_ring(str(path))

    def test_out_of_range_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        # each first offender sits after valid entries
        for add, mul, offender in (
            ([0, 1, 1, 9], [0, 0, 0, 1], "add table entry 9 "),
            ([0, 1, -1, 0], [0, 0, 0, 1], "add table entry -1 "),
            ([0, 1, 1, 0], [0, 0, 0, 1.0], "mul table entry 1.0 "),
            ([0, 1, 1, 0], [0, 0, 2**70, 1], f"mul table entry {2**70} "),
        ):
            path.write_text(json.dumps({"size": 2, "one": 1, "add": add, "mul": mul}))
            with pytest.raises(TableFormatError, match=offender + "out of range"):
                load_table_ring(str(path))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("size", "size must be an integer >= 2"),
            ("one", "one must be an element index"),
            ("add", "add table entry False out of range"),
            ("mul", "mul table entry False out of range"),
        ],
    )
    def test_json_booleans_rejected(self, tmp_path, field, message):
        """JSON true and false load as Python bools, which are ints too."""
        path = tmp_path / "z3.json"
        data = z3_table()
        if field in ("add", "mul"):
            data[field] = [bool(v) if v < 2 else v for v in data[field]]
        else:
            data[field] = True
        path.write_text(json.dumps(data))
        with pytest.raises(TableFormatError, match=message):
            load_table_ring(str(path))

    @pytest.mark.parametrize("size", [True, False])
    def test_json_boolean_size_has_no_expression_size(self, tmp_path, size):
        path = tmp_path / "z3.json"
        path.write_text(json.dumps({**z3_table(), "size": size}))
        with pytest.raises(TableFormatError, match="size must be an integer"):
            expression_size(parse_expression(f"table:{path}"))

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(TableFormatError):
            load_table_ring(str(path))

    @pytest.mark.parametrize("symmetric", [False, True], ids=["one-sided", "symmetric"])
    @pytest.mark.parametrize("n", [300, 1024])
    def test_one_corrupted_mul_entry_rejected(self, tmp_path, n, symmetric):
        idx = np.arange(n)
        add = (idx[:, None] + idx) % n
        mul = (idx[:, None] * idx) % n
        a, b = 7, 11
        mul[a, b] = (mul[a, b] + 1) % n
        if symmetric:
            mul[b, a] = mul[a, b]
        path = tmp_path / "corrupted.json"
        path.write_text(
            json.dumps({"size": n, "one": 1, "add": add.ravel().tolist(), "mul": mul.ravel().tolist()})
        )
        with pytest.raises(RingAxiomError) as err:
            load_table_ring(str(path))
        assert all(0 <= w < n for w in err.value.witness)

    def test_axiom_violation_rejected_with_witness(self, tmp_path):
        ring = ring_from_text("Z/4")
        mul = []
        for a in range(4):
            mul.extend(int(v) for v in ring.mul_row(a))
        add = []
        for a in range(4):
            add.extend(int(v) for v in ring.add_row(a))
        mul[2 * 4 + 3] = 1
        mul[3 * 4 + 2] = 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"size": 4, "one": 1, "add": add, "mul": mul}))
        with pytest.raises(RingAxiomError) as err:
            load_table_ring(str(path))
        assert len(err.value.witness) >= 2


class TestBaseFactorMemo:
    """The base factors of a product are built once per process and cap; each ring is fresh."""

    @pytest.mark.parametrize("text", ["GF(4)", "Z/2 x GF(4)", "Z/2 x Z/2"])
    def test_each_call_gives_a_fresh_ring(self, text):
        first, second = ring_from_text(text), ring_from_text(text)
        assert first is not second
        before = set(vars(second))
        first.unit_flags, first.labels, first.negatives
        assert {"unit_flags", "maximal_ideals", "labels", "negatives"} <= set(vars(first))
        assert set(vars(second)) == before
        assert second.unit_count == first.unit_count and second.labels == first.labels

    def test_table_factor_read_again_after_its_file_changes(self, tmp_path):
        path = tmp_path / "ring.json"
        text = f"table:{path} x Z/2"
        save_table_ring(ring_from_text("Z/3"), str(path))
        assert ring_from_text(text).size == 6
        save_table_ring(ring_from_text("GF(4)"), str(path))
        r = ring_from_text(text)
        assert r.size == 8 and r.unit_count == 3
        data = json.loads(path.read_text())
        data["mul"][2 * 4 + 3] = data["mul"][3 * 4 + 2] = 2  # x * (x + 1) = x breaks distributivity
        path.write_text(json.dumps(data))
        with pytest.raises(RingAxiomError):
            ring_from_text(text)

    @pytest.mark.parametrize("factor", ["Z/64", "SQZ(2,5)", "Z/2[x]/(x^6)"])
    def test_factor_over_a_smaller_cap_raises_after_a_larger_one(self, factor):
        assert ring_from_text(f"{factor} x Z/2", max_size=128).size == 128
        with pytest.raises(CapacityError, match=r"ring of size 64 exceeds the size cap \(32\)"):
            ring_from_text(f"{factor} x Z/2", max_size=32)
