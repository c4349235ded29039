"""Ring kernel tests against hand-derived and brute-force values."""

import json
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from comaximal import (
    CapacityError,
    IdealSet,
    InternalConsistencyError,
    RingAxiomError,
    SqzExpr,
    direct_product,
    expression_size,
    load_table_ring,
    maximal_ideals_bruteforce,
    parse_expression,
    ring_from_text,
    ring_isomorphic,
    validate_ring_axioms,
    verify_ring,
)
from comaximal.limits import TABLE_LIMIT
from comaximal.rings import RingTable, _additive_generators

from oracles import (
    additive_generators_bfs,
    brute_ring_isomorphic,
    is_ring_isomorphism,
    polyquot_product,
    primitive_idempotents_by_definition,
    relabelled,
    sqz_product,
    structure_by_definition,
    structure_of,
    zn_comaximal,
    zn_unit,
)
from conftest import run_python
from test_acceptance import corpus_specs


def zn(n: int) -> RingTable:
    return ring_from_text(f"Z/{n}")


def corpus_up_to(size: int) -> list[str]:
    return [s for s in corpus_specs() if expression_size(parse_expression(s)) <= size]


def _z6_with_wrong_sum() -> RingTable:
    """Z/6 with 2 + 3 recorded as 0.

    A map from Z/6 onto it walks x -> x + 1 only, so the search completes and
    leaves the wrong entry for the final verification.
    """
    add = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    add[2][3] = 0
    return RingTable(6, 1, add, [[a * b % 6 for b in range(6)] for a in range(6)])


# GF(4) = {0, 1, x, x + 1}: its multiplication table, and its addition with x + (x + 1) recorded as
# 0 instead of 1.
GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
GF4_WRONG_ADD = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 0, 0]]


class TestArithmetic:
    def test_power_ladder(self):
        # Square-and-multiply from the exponent's lowest set bit: bit_length - 1 squarings and
        # popcount - 1 products, so no product with ones; exponent 0 gives ones.
        r = zn(100)
        real, calls = r.mul_op, 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        r.mul_op = counted
        base = np.arange(100)
        for e in range(20):
            calls = 0
            assert r._power(base, e).tolist() == [pow(int(x), e, 100) for x in base], e
            assert calls == max(0, e.bit_length() + e.bit_count() - 2), e

    def test_z12_samples(self):
        r = zn(12)
        assert r.add(7, 8) == 3
        assert r.mul(4, 9) == 0
        assert r.neg(5) == 7
        assert r.sub(3, 7) == 8

    def test_index_bounds(self):
        r = zn(6)
        with pytest.raises(ValueError):
            r.add(0, 6)
        with pytest.raises(ValueError):
            r.mul(-1, 2)

    def test_rows_match_scalars(self):
        r = zn(9)
        for a in range(9):
            assert list(r.add_row(a)) == [r.add(a, b) for b in range(9)]
            assert list(r.mul_row(a)) == [r.mul(a, b) for b in range(9)]

    def test_constructor_rejects_degenerate(self):
        with pytest.raises(ValueError):
            RingTable(1, 0, [0], [0])
        with pytest.raises(ValueError):
            RingTable(2, 0, [0, 1, 1, 0], [0, 0, 0, 1])

    @pytest.mark.parametrize("entry", [0.5, 1.25, float("nan"), float("inf")])
    def test_constructor_rejects_non_integral_entries(self, entry):
        with pytest.raises(ValueError, match="add table entries must be integers"):
            RingTable(2, 1, [0, 1, 1, entry], [0, 0, 0, 1])
        with pytest.raises(ValueError, match="mul table entries must be integers"):
            RingTable(2, 1, [0, 1, 1, 0], np.array([[0, 0], [0, entry]]))
        # Integral values of a float table are accepted, as before.
        assert RingTable(2, 1, [0.0, 1.0, 1.0, 0.0], [0, 0, 0, 1]).add(1, 1) == 0

    def test_constructor_range_checks_wide_integers_uncast(self):
        # 2**32 once wrapped to 0 in an int32 cast and passed the range check.
        with pytest.raises(ValueError, match="add table entry out of range"):
            RingTable(2, 1, np.array([0, 1, 1, 2**32], dtype=np.int64), [0, 0, 0, 1])


class TestUnits:
    def test_z12(self):
        assert sorted(zn(12).units) == [1, 5, 7, 11]

    def test_every_zn_matches_gcd(self):
        for n in range(2, 40):
            r = zn(n)
            for a in range(n):
                assert r.is_unit(a) == zn_unit(n, a)

    def test_field_units(self):
        gf4 = ring_from_text("GF(4)")
        assert gf4.unit_count == 3

    def test_product_units(self):
        r = ring_from_text("Z/2 x Z/8")
        assert sorted(r.units) == [9, 11, 13, 15]


class TestIdeals:
    def test_closure_z12(self):
        r = zn(12)
        assert sorted(r.ideal_closure([4]).members()) == [0, 4, 8]
        assert len(r.ideal_closure([4, 3])) == 12

    def test_closure_zero(self):
        r = zn(10)
        assert r.ideal_closure([0]).members() == (0,)

    def test_closure_empty_rejected(self):
        with pytest.raises(ValueError):
            zn(6).ideal_closure([])

    def test_principal_ideal(self):
        r = zn(12)
        assert sorted(r.principal_ideal(3).members()) == [0, 3, 6, 9]

    def test_is_ideal(self):
        r = zn(12)
        good = IdealSet(12, sum(1 << x for x in (0, 6)))
        bad = IdealSet(12, sum(1 << x for x in (0, 5)))
        assert r.is_ideal(good)
        assert not r.is_ideal(bad)

    def test_member_flags_unpacked_once_and_read_only(self):
        ideal = zn(12).principal_ideal(3)
        flags = ideal.member_flags()
        assert ideal.member_flags() is flags
        assert np.flatnonzero(flags).tolist() == [0, 3, 6, 9]
        with pytest.raises(ValueError):
            flags[1] = True

    def test_cached_flags_leave_equality_and_hash_alone(self):
        mask = sum(1 << x for x in (0, 3, 6, 9))
        read, fresh = IdealSet(12, mask), IdealSet(12, mask)
        read.member_flags()
        assert read == fresh and hash(read) == hash(fresh)
        assert len({read, fresh}) == 1
        assert read != IdealSet(12, mask | 1 << 1)


class TestComaximality:
    def test_z12_samples(self):
        r = zn(12)
        assert r.is_comaximal(4, 3)
        assert not r.is_comaximal(2, 4)
        assert r.is_comaximal(5, 2)

    def test_diagonal_is_unit_test(self):
        r = zn(12)
        for a in range(12):
            assert r.is_comaximal(a, a) == r.is_unit(a)

    def test_signature_path_equals_closure_oracle(self):
        for text in ("Z/24", "Z/30", "Z/2 x Z/9", "SQZ(2,2)", "GF(8)"):
            r = ring_from_text(text)
            for a in range(r.size):
                for b in range(r.size):
                    assert r.is_comaximal(a, b) == r.is_comaximal_via_closure(a, b)

    def test_zn_gcd_oracle(self):
        for n in (12, 30, 36):
            r = zn(n)
            for a in range(n):
                for b in range(n):
                    assert r.is_comaximal(a, b) == zn_comaximal(n, a, b)


class TestJacobsonRadical:
    def test_known_values(self):
        assert sorted(zn(12).jacobson_radical.members()) == [0, 6]
        assert sorted(zn(4).jacobson_radical.members()) == [0, 2]
        assert sorted(ring_from_text("Z/2 x Z/8").jacobson_radical.members()) == [0, 2, 4, 6]

    def test_equals_intersection_of_maximals(self):
        for text in ("Z/12", "Z/30", "Z/16", "Z/2 x Z/4", "SQZ(3,1)"):
            r = ring_from_text(text)
            meet = (1 << r.size) - 1
            for m in r.maximal_ideals:
                meet &= m.mask
            assert r.jacobson_radical.mask == meet

    def test_reduced_iff_trivial_radical(self):
        assert zn(30).is_reduced
        assert len(zn(30).jacobson_radical) == 1
        assert not zn(12).is_reduced


class TestIdempotentsAndNilpotents:
    def test_known_values(self):
        assert zn(12).idempotent_elements == (0, 1, 4, 9)
        assert zn(4).idempotent_elements == (0, 1)
        assert zn(6).idempotent_elements == (0, 1, 3, 4)

    def test_nilpotents(self):
        assert zn(12).nilpotent_elements == (0, 6)
        assert zn(8).nilpotent_elements == (0, 2, 4, 6)
        assert zn(30).nilpotent_elements == (0,)


class TestMaximalIdeals:
    def test_z12(self):
        r = zn(12)
        members = sorted(sorted(m.members()) for m in r.maximal_ideals)
        assert members == [[0, 2, 4, 6, 8, 10], [0, 3, 6, 9]]

    def test_field_single_zero_ideal(self):
        gf4 = ring_from_text("GF(4)")
        assert [m.members() for m in gf4.maximal_ideals] == [(0,)]

    def test_z30_count(self):
        assert zn(30).maximal_ideal_count == 3

    def test_agrees_with_bruteforce(self):
        for text in ("Z/12", "Z/30", "Z/27", "Z/2 x Z/2 x Z/3", "SQZ(2,2)", "GF(9)"):
            r = ring_from_text(text)
            fast = sorted(m.mask for m in r.maximal_ideals)
            slow = sorted(m.mask for m in maximal_ideals_bruteforce(r))
            assert fast == slow

    def test_product_structure(self):
        r = ring_from_text("Z/2 x Z/3")
        sizes = sorted(len(m) for m in r.maximal_ideals)
        assert sizes == [2, 3]


class TestSignatures:
    def test_unit_iff_empty(self):
        r = zn(12)
        for a in range(12):
            assert (r.signature(a) == 0) == r.is_unit(a)

    def test_radical_iff_full(self):
        r = zn(12)
        full = (1 << r.maximal_ideal_count) - 1
        for a in range(12):
            assert (r.signature(a) == full) == (a in r.jacobson_radical)

    def test_bits_match_membership(self):
        r = zn(30)
        for a in range(30):
            for i, m in enumerate(r.maximal_ideals):
                assert bool(r.signature(a) >> i & 1) == (a in m)


class TestResidueFields:
    def test_known_values(self):
        assert zn(12).residue_field_sizes == (2, 3)
        assert zn(30).residue_field_sizes == (2, 3, 5)
        assert ring_from_text("Z/2 x Z/8").residue_field_sizes == (2, 2)


class TestQuotient:
    def test_z12_mod_radical(self):
        r = zn(12)
        q, proj = r.quotient(r.jacobson_radical)
        assert q.size == 6
        assert ring_isomorphic(q, zn(6)) is not None
        assert proj.verify()

    def test_z4_residue_field(self):
        r = zn(4)
        q, _ = r.quotient(r.jacobson_radical)
        assert q.size == 2

    def test_projection_verifies_on_whole_tables(self):
        r = ring_from_text("Z/2 x Z/1024")
        q, proj = r.quotient(r.jacobson_radical)
        start = time.perf_counter()
        assert proj.verify()
        assert time.perf_counter() - start < 2
        assert not replace(proj, mapping=proj.mapping[:-1] + (q.size,)).verify()

    def test_mod_zero_is_identity(self):
        r = zn(9)
        q, proj = r.quotient(IdealSet(9, 1))
        assert q is r
        assert proj.mapping == tuple(range(9))

    def test_improper_ideal_rejected(self):
        r = zn(6)
        with pytest.raises(ValueError):
            r.quotient(IdealSet(6, (1 << 6) - 1))

    def test_size_law(self):
        for n in (8, 12, 16, 36):
            r = zn(n)
            j = r.jacobson_radical
            q, _ = r.quotient(j)
            assert q.size * len(j) == r.size


class TestDirectProduct:
    def test_crt(self):
        r = direct_product(zn(2), zn(3))
        assert ring_isomorphic(r, zn(6)) is not None

    def test_z2xz2(self):
        r = ring_from_text("Z/2 x Z/2")
        assert r.unit_count == 1
        assert r.maximal_ideal_count == 2

    def test_example_dimensions(self):
        r = ring_from_text("Z/4 x Z/4")
        assert r.size == 16
        assert r.unit_count == 4
        assert len(r.jacobson_radical) == 4

    def test_labels(self):
        r = ring_from_text("Z/2 x Z/3")
        assert r.labels[5] == "(1,2)"

    def test_axioms_hold(self):
        validate_ring_axioms(ring_from_text("Z/4 x GF(4) x Z/3"))

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            direct_product(zn(100), zn(100), max_size=4096)

    def test_whole_product_over_cap(self):
        # Each partial product is within the cap until the last factor.
        with pytest.raises(CapacityError, match=r"exceed the size cap \(4096\)"):
            direct_product(zn(64), zn(64), zn(2), max_size=4096)

    def test_four_factors_componentwise(self):
        factors = [zn(2), zn(3), zn(4), ring_from_text("GF(4)")]
        r = direct_product(*factors)
        assert r.size == 96

        def parts(a: int) -> list[int]:
            digits = []
            for f in reversed(factors):
                a, d = divmod(a, f.size)
                digits.insert(0, d)
            return digits

        def index(digits: list[int]) -> int:
            a = 0
            for f, d in zip(factors, digits):
                a = a * f.size + d
            return a

        assert parts(r.one) == [f.one for f in factors]
        for a in range(r.size):
            pa = parts(a)
            assert r.labels[a] == "(" + ",".join(f.labels[d] for f, d in zip(factors, pa)) + ")"
            for b in range(r.size):
                pb = parts(b)
                assert r.add(a, b) == index([f.add(x, y) for f, x, y in zip(factors, pa, pb)])
                assert r.mul(a, b) == index([f.mul(x, y) for f, x, y in zip(factors, pa, pb)])

    def test_tables_use_smallest_index_type(self):
        # Z/n keeps its modular ops; a product of TABLE_LIMIT elements keeps uint8 tables.
        r = ring_from_text("Z/16 x Z/16")
        idx = np.arange(TABLE_LIMIT)
        assert r.size == TABLE_LIMIT
        assert r.mul_op(idx[:, None], idx).dtype == np.uint8
        assert zn(16).add_op(3, 15) == 2

    @pytest.mark.parametrize("text", [" x ".join(["Z/2"] * 12), "Z/2 x Z/2048", "Z/256 x Z/2"])
    def test_mixed_radix_laws_use_the_products_index_type(self, text):
        # Above TABLE_LIMIT the groups' parts accumulate in the product's index type, uint16 up
        # to 65,536 elements, whether a part is a uint8 group lookup or a factor's intp law.
        r = ring_from_text(text)
        rows = r._idx[:4, None]
        assert r.size > TABLE_LIMIT
        assert r.add_op(rows, r._idx).dtype == r.mul_op(rows, r._idx).dtype == np.uint16

    @pytest.mark.parametrize("text", ["Z/8 x Z/25", "Z/16 x Z/16", "Z/255", "Z/256", "Z/257"])
    def test_ops_index_in_intp_whatever_the_input_type(self, text):
        # A flat index a * n computed in uint8 wraps at n = 200 and raises OverflowError at
        # n = 256 (NumPy 2); a * b in uint8 wraps for Z/n.  Every op must work in intp.
        r = ring_from_text(text)
        n = r.size
        if " x " in text:
            add, mul = r.add, r.mul
        else:
            add, mul = (lambda a, b: (a + b) % n), (lambda a, b: a * b % n)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        expected_add = np.array([add(a, b) for a, b in pairs]).reshape(n, n)
        expected_mul = np.array([mul(a, b) for a, b in pairs]).reshape(n, n)
        for dtype in (np.uint8, np.uint16, np.int64):
            top = min(n, int(np.iinfo(dtype).max) + 1)  # the elements this type holds
            a, b = np.arange(top, dtype=dtype).repeat(top), np.tile(np.arange(top, dtype=dtype), top)
            for op, expected in ((r.add_op, expected_add), (r.mul_op, expected_mul)):
                assert np.array_equal(op(a, b), expected[:top, :top].ravel()), dtype
                rows = np.arange(top - 4, top, dtype=dtype)[:, None]  # (k, 1) x (n,)
                assert np.array_equal(op(rows, b[:top]), expected[top - 4 : top, :top]), dtype
        for a, b in ((n - 1, n - 1), (n - 1, 0), (n // 2, n - 3)):
            assert int(r.add_op(a, b)) == add(a, b) and int(r.mul_op(a, b)) == mul(a, b)

    def test_zn_builds_no_table(self):
        # Evaluating both laws into n x n tables would peak above 1 MB.
        tracemalloc.start()
        try:
            ring_from_text("Z/256")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_table_factors_above_table_limit(self):
        # 512 elements from two uint8-table factors (digit rings; Z/n keeps no table): the
        # mixed-radix index x * 32 + y overflows uint8 unless each digit is widened first.
        idx = np.arange(512)
        x, y = idx // 32, idx % 32
        a, b = idx[:, None], idx
        for text in ("Z/2[x]/(x^4) x GF(32)", "Z/16 x Z/32"):
            r = ring_from_text(text)
            assert r.size == 512 > TABLE_LIMIT
            f, g = (ring_from_text(t) for t in text.split(" x "))
            for op, law in ((r.add_op, "add"), (r.mul_op, "mul")):
                ft = np.array([[getattr(f, law)(i, j) for j in range(16)] for i in range(16)])
                gt = np.array([[getattr(g, law)(i, j) for j in range(32)] for i in range(32)])
                assert np.array_equal(op(a, b), ft[x[a], x[b]] * 32 + gt[y[a], y[b]]), text

    # Factor groups split across TABLE_LIMIT ((Z/16)^2 | Z/16, GF(8) x Z/9 | Z/7 x Z/5,
    # (Z/2)^8 | (Z/2)^4), or a factor above it keeps its own law.  A group of exactly
    # TABLE_LIMIT elements holding one factor (Z/256 | Z/2, GF(256) | Z/3) or two
    # (Z/2 x Z/128) is composed in uint8, where scaling by 256 would overflow; in Z/2 x Z/2
    # both positions get the same built factor.
    @pytest.mark.parametrize(
        "text",
        ["Z/16 x Z/16 x Z/16", "GF(8) x Z/9 x Z/7 x Z/5", " x ".join(["Z/2"] * 12),
         "Z/2048 x Z/2", "Z/2 x Z/2048", "Z/256 x Z/2", "GF(256) x Z/3", "Z/2 x Z/128",
         "Z/2 x Z/2"],
    )
    def test_grouped_laws_match_factors(self, text):
        factors = [ring_from_text(t) for t in text.split(" x ")]
        sizes = [f.size for f in factors]
        r = ring_from_text(text)
        n = r.size
        rng = np.random.default_rng(3)
        ends = [0, r.one, n - 1]
        # Sampled rows against sampled columns, broadcast as the whole-ring scans call the ops.
        a = np.concatenate([ends, rng.integers(0, n, 61)])[:, None]
        b = np.concatenate([ends, rng.integers(0, n, 61)])
        da = np.unravel_index(np.broadcast_to(a, (64, 64)), sizes)
        db = np.unravel_index(np.broadcast_to(b, (64, 64)), sizes)
        for law in ("add_op", "mul_op"):
            parts = [getattr(f, law)(x, y) for f, x, y in zip(factors, da, db)]
            assert np.array_equal(getattr(r, law)(a, b), np.ravel_multi_index(parts, sizes)), law
        for x, y in zip(ends, reversed(ends)):
            px, py = ([int(d) for d in np.unravel_index(v, sizes)] for v in (x, y))
            parts = [(f.add(i, j), f.mul(i, j)) for f, i, j in zip(factors, px, py)]
            assert r.add(x, y) == np.ravel_multi_index([p[0] for p in parts], sizes)
            assert r.mul(x, y) == np.ravel_multi_index([p[1] for p in parts], sizes)

    def test_factor_above_table_limit_builds_no_table(self):
        # A table of Z/2048's law holds 4 M entries, one of the product 16 M; even a uint16
        # table of TABLE_LIMIT + 1 elements (132 KB) would push the peak past the bound.
        tracemalloc.start()
        try:
            ring_from_text("Z/2048 x Z/2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_product_tables_composed_in_their_index_type(self):
        # Composed through intp, the 256 x 256 tables of Z/4 x Z/8 x Z/8 peak at about 1.2 MB;
        # in uint8, at about 0.26 MB.
        tracemalloc.start()
        try:
            ring_from_text("Z/4 x Z/8 x Z/8")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * 1024


class TestClean:
    def test_z6_witness(self):
        cd = zn(6).clean_decomposition()
        assert cd.clean
        e, u = cd.witnesses[2]
        r = zn(6)
        assert e in r.idempotent_elements
        assert r.is_unit(u)
        assert r.add(e, u) == 2

    def test_every_small_ring_is_clean(self):
        for text in ("Z/12", "Z/30", "GF(8)", "SQZ(2,2)", "Z/4 x Z/9"):
            assert ring_from_text(text).clean_decomposition().clean


class TestCharacteristic:
    def test_values(self):
        assert zn(12).characteristic == 12
        assert ring_from_text("Z/2[x]/(x^3)").characteristic == 2
        assert ring_from_text("Z/2 x Z/3").characteristic == 6


class TestAxiomValidation:
    def test_passes_on_real_rings(self):
        for text in ("Z/7", "GF(4)", "SQZ(2,2)", "Z/6 x Z/5"):
            validate_ring_axioms(ring_from_text(text))

    def test_broken_distributivity_caught(self):
        n = 4
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        mul = [[(a * b) % n for b in range(n)] for a in range(n)]
        mul[3][2] = 1
        mul[2][3] = 1
        flat_add = [v for row in add for v in row]
        flat_mul = [v for row in mul for v in row]
        ring = RingTable(n, 1, flat_add, flat_mul)
        with pytest.raises(RingAxiomError):
            validate_ring_axioms(ring)

    def test_witness_is_concrete(self):
        n = 4
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        add[2][3] = 0
        add[3][2] = 0
        flat_add = [v for row in add for v in row]
        flat_mul = [(a * b) % n for a in range(n) for b in range(n)]
        ring = RingTable(n, 1, flat_add, flat_mul)
        with pytest.raises(RingAxiomError) as err:
            validate_ring_axioms(ring)
        law, witness = err.value.law, err.value.witness
        assert law
        assert all(0 <= w < n for w in witness)

    def test_large_ring_sampled(self):
        r = zn(1024)
        validate_ring_axioms(r)

    def test_commutative_nonassociative_addition_rejected_in_bounded_memory(self, tmp_path):
        # Identity, inverses (x + (n-1) = 0) and commutativity hold, but a + a = a + 1 and
        # a + b = max(a, b) otherwise: each translate of the additive walk repeats one new
        # element for every spanned one, so a walk that kept the repeats would hold 2^(n-1).
        n = 24

        def add(a: int, b: int) -> int:
            if not a or not b:
                return a or b
            if n - 1 in (a, b):
                return 0
            return a + 1 if a == b else max(a, b)

        def mul(a: int, b: int) -> int:
            return b if a == 1 else a if b == 1 else 0

        path = tmp_path / "nonassociative.json"
        path.write_text(json.dumps({
            "size": n,
            "one": 1,
            "add": [add(a, b) for a in range(n) for b in range(n)],
            "mul": [mul(a, b) for a in range(n) for b in range(n)],
        }))
        tracemalloc.start()
        try:
            with pytest.raises(RingAxiomError) as err:
                load_table_ring(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.law == "associativity(add)"
        assert peak < 256 * 1024


class TestRingIsomorphism:
    def test_crt_positive(self):
        iso = ring_isomorphic(zn(6), ring_from_text("Z/2 x Z/3"))
        assert iso is not None
        assert iso.verify()

    def test_characteristic_screen(self):
        assert ring_isomorphic(zn(4), ring_from_text("Z/2[x]/(x^2)")) is None

    def test_products_same_graph_different_rings(self):
        assert ring_isomorphic(ring_from_text("Z/2 x Z/8"), ring_from_text("Z/4 x Z/4")) is None

    def test_size_mismatch_is_definite(self):
        assert ring_isomorphic(zn(4), zn(6)) is None

    def test_cap_is_capability_error(self):
        with pytest.raises(CapacityError):
            ring_isomorphic(zn(64), zn(64), cap=32)

    def test_field_presentations_agree(self):
        iso = ring_isomorphic(ring_from_text("GF(4)"), ring_from_text("Z/2[x]/(x^2+x+1)"))
        assert iso is not None

    def test_self_isomorphic(self):
        for text in ("Z/9", "SQZ(2,1)", "Z/2 x Z/4"):
            r = ring_from_text(text)
            iso = ring_isomorphic(r, r)
            assert iso is not None and iso.verify()

    def test_profiles_are_kept_per_ring(self):
        r, s = ring_from_text("Z/2 x Z/3"), zn(6)
        assert ring_isomorphic(r, s) is not None
        kept = r.__dict__["_element_profiles"], s.__dict__["_element_profiles"]
        assert ring_isomorphic(s, r) is not None
        assert r._element_profiles is kept[0] and s._element_profiles is kept[1]

    def test_same_size_nonisomorphic_rings(self):
        assert ring_isomorphic(zn(9), ring_from_text("Z/3 x Z/3")) is None
        assert ring_isomorphic(zn(8), ring_from_text("Z/2[x]/(x^3)")) is None

    def test_agrees_with_brute_force_oracle(self):
        specs = [*corpus_up_to(8), "Z/2[x]/(x^2+x+1)", "Z/2[x]/(x^3)"]
        rings = {s: ring_from_text(s) for s in specs}
        pairs = [
            (a, b)
            for a, b in combinations_with_replacement(specs, 2)
            if rings[a].size == rings[b].size
        ]
        for named in [("Z/4", "Z/2[x]/(x^2)"), ("GF(4)", "Z/2[x]/(x^2+x+1)"),
                      ("SQZ(2,2)", "Z/2[x]/(x^3)")]:
            assert named in pairs
        for a, b in pairs:
            iso = ring_isomorphic(rings[a], rings[b])
            assert (iso is None) == (brute_ring_isomorphic(rings[a], rings[b]) is None), (a, b)
            assert iso is None or is_ring_isomorphism(rings[a], rings[b], iso.mapping), (a, b)

    # Presentations where a wrong image of x forces an image of x^2 that is already taken.
    RELABELLED_EXTRAS = ("Z/2[x]/(x^4+1)", "Z/2[x]/(x^5+x)")

    def test_relabelled_corpus(self):
        start = time.monotonic()
        rings = [ring_from_text(s) for s in (*corpus_up_to(32), *self.RELABELLED_EXTRAS)]
        copies = [[relabelled(r, np.random.default_rng(seed)) for seed in (1, 4)] for r in rings]
        for r, pair in zip(rings, copies):
            for copy in pair:
                iso = ring_isomorphic(r, copy)
                assert iso is not None and iso.verify(), r.name
        for i, j in combinations(range(len(rings)), 2):
            if rings[i].size == rings[j].size:
                plain = ring_isomorphic(rings[i], rings[j]) is None
                assert (ring_isomorphic(rings[i], copies[j][0]) is None) == plain, (i, j)
        assert time.monotonic() - start < 3.0


class TestIdempotentComponents:
    def test_z12_split(self):
        r = zn(12)
        sizes = sorted(r.idempotent_component(e).size for e in (4, 9))
        assert sizes == [3, 4]
        assert r.idempotent_component(4).maximal_ideal_count == 1

    def test_component_is_valid_ring(self):
        r = zn(12)
        validate_ring_axioms(r.idempotent_component(4))


class TestCosetRepresentatives:
    def test_minimal_reps(self):
        r = zn(12)
        reps, rep_of = r.coset_representatives(r.jacobson_radical)
        assert [int(x) for x in reps] == [0, 1, 2, 3, 4, 5]
        assert int(rep_of[7]) == 1
        assert int(rep_of[6]) == 0

    def test_partition(self):
        r = ring_from_text("Z/2 x Z/4")
        j = r.jacobson_radical
        reps, rep_of = r.coset_representatives(j)
        assert len(reps) * len(j) == r.size
        assert len(np.unique(rep_of)) == len(reps)


def _quotient_by_radical(text: str) -> RingTable:
    r = ring_from_text(text)
    return r.quotient(r.jacobson_radical)[0]


def _component(text: str, e: int) -> RingTable:
    return ring_from_text(text).idempotent_component(e)


# One ring of each construction on each side of TABLE_LIMIT: the small
# composite ones read their laws from a materialised table, the large ones
# call the construction's elementwise functions directly.  Z/n computes with
# its modular ops at every size, so Z/12 and Z/300 read no table.
DERIVED_CASES = {
    "Z/12": (lambda: zn(12), 12),
    "Z/300": (lambda: zn(300), 300),
    "GF(16)": (lambda: ring_from_text("GF(16)"), 16),
    "GF(2^9)": (lambda: ring_from_text("GF(2^9)"), 512),
    "SQZ(2,3)": (lambda: ring_from_text("SQZ(2,3)"), 16),
    "SQZ(2,8)": (lambda: ring_from_text("SQZ(2,8)"), 512),
    "Z/2[x]/(x^4)": (lambda: ring_from_text("Z/2[x]/(x^4)"), 16),
    "Z/3[x]/(x^6)": (lambda: ring_from_text("Z/3[x]/(x^6)"), 729),
    "Z/3 x Z/4": (lambda: ring_from_text("Z/3 x Z/4"), 12),
    "Z/3 x Z/100": (lambda: ring_from_text("Z/3 x Z/100"), 300),
    "(Z/4 x Z/9)/J": (lambda: _quotient_by_radical("Z/4 x Z/9"), 6),
    "(Z/4 x Z/257)/J": (lambda: _quotient_by_radical("Z/4 x Z/257"), 514),
    "Z/12*e4": (lambda: _component("Z/12", 4), 3),
    "(Z/2 x Z/300)*e1": (lambda: _component("Z/2 x Z/300", 1), 300),
}


@pytest.fixture(params=list(DERIVED_CASES), scope="module")
def derived_ring(request):
    build, size = DERIVED_CASES[request.param]
    ring = build()
    assert ring.size == size
    return ring


class TestDerivedForms:
    """Rows, negation and whole-ring scans agree with scalar operations."""

    def test_both_sides_of_table_limit(self):
        sizes = [size for _, size in DERIVED_CASES.values()]
        assert sum(s <= TABLE_LIMIT for s in sizes) == sum(s > TABLE_LIMIT for s in sizes)

    @pytest.mark.parametrize(
        "case", ["GF(16)", "GF(2^9)", "SQZ(2,3)", "SQZ(2,8)", "Z/2[x]/(x^4)", "Z/3[x]/(x^6)"]
    )
    def test_products_match_digit_oracle(self, case):
        r = DERIVED_CASES[case][0]()
        expr = parse_expression(r.name)
        if isinstance(expr, SqzExpr):
            oracle = partial(sqz_product, expr.p, expr.k)
        else:
            oracle = partial(polyquot_product, expr.p, expr.coeffs)
        n = r.size
        rows = range(n) if n <= TABLE_LIMIT else sorted({0, 1, r.one, n - 1, *range(0, n, n // 8)})
        for a in rows:
            assert r.mul_row(a).tolist() == [oracle(a, b) for b in range(n)]
        # elementwise: every element times itself and times its mirror image
        idx = np.arange(n)
        assert r.mul_op(idx, idx).tolist() == [oracle(a, a) for a in range(n)]
        assert r.mul_op(idx, idx[::-1]).tolist() == [oracle(a, n - 1 - a) for a in range(n)]

    @pytest.mark.parametrize("text", ["Z/5[x]/(x^8)", "GF(5^8)"])
    def test_products_at_the_digit_type_bound(self, text):
        # 8 * (5-1)**2 = 128, one past int8: all-4 digits reach it in a digit of a product
        n = 5**8
        r = ring_from_text(text, max_size=n)
        oracle = partial(polyquot_product, 5, parse_expression(r.name).coeffs)
        top = [n - 1 - 5**i for i in range(8)] + [n - 1]
        assert r.mul(n - 1, n - 1) == oracle(n - 1, n - 1)
        block = r.mul_op(np.array(top)[:, None], np.array(top))
        assert block.tolist() == [[oracle(a, b) for b in top] for a in top]
        assert r.mul_row(n - 1)[-625:].tolist() == [oracle(n - 1, b) for b in range(n - 625, n)]

    @pytest.mark.parametrize(
        "text", ["Z/7[x]/(x+3)", "Z/3[x]/(x^4+2x+1)", "GF(5^3)", "Z/5[x]/(x^5)", "Z/2[x]/(x^12)"]
    )
    def test_times_table_matches_digit_oracle(self, text):
        # Degrees 1 to 12: the a * x^j table is filled one digit position at a time.
        r = ring_from_text(text)
        expr = parse_expression(r.name)
        oracle = partial(polyquot_product, expr.p, expr.coeffs)
        step = max(1, r.size // 40)
        rows, columns = np.arange(0, r.size, step), np.arange(r.size - 1, -1, -step)
        block = r.mul_op(rows[:, None], columns)
        assert block.tolist() == [[oracle(a, b) for b in columns.tolist()] for a in rows.tolist()]

    def test_rows_match_scalars(self, derived_ring):
        r = derived_ring
        n = r.size
        for a in sorted({0, 1, r.one, n - 1, *range(0, n, max(1, n // 8))}):
            assert r.add_row(a).tolist() == [r.add(a, b) for b in range(n)]
            assert r.mul_row(a).tolist() == [r.mul(a, b) for b in range(n)]

    def test_negation(self, derived_ring):
        r = derived_ring
        assert all(r.add(a, r.neg(a)) == 0 for a in range(r.size))

    def test_idempotents(self, derived_ring):
        r = derived_ring
        assert r.idempotent_elements == tuple(a for a in range(r.size) if r.mul(a, a) == a)

    def test_nilpotents(self, derived_ring):
        # a^k R strictly shrinks until it reaches 0, and each step at least
        # halves it, so a nilpotent a has a^k == 0 for k = n.bit_length().
        r = derived_ring
        naive = []
        for a in range(r.size):
            x = a
            for _ in range(r.size.bit_length()):
                x = r.mul(x, a)
            if x == 0:
                naive.append(a)
        assert r.nilpotent_elements == tuple(naive)

    def test_characteristic(self, derived_ring):
        r = derived_ring
        k, x = 1, r.one
        while x != 0:
            x = r.add(x, r.one)
            k += 1
        assert r.characteristic == k

    def test_clean_witnesses(self, derived_ring):
        r = derived_ring
        cd = r.clean_decomposition()
        assert cd.clean
        assert len(cd.witnesses) == r.size
        for x, (e, u) in enumerate(cd.witnesses):
            assert r.mul(e, e) == e
            assert r.add(e, u) == x
            assert (r.mul_row(u) == r.one).any()


class TestLocalFactors:
    def test_t25_factor_sizes_match_components(self, derived_ring):
        """T2.5 reads |e*R| off e's row; building each e*R as a ring gives the same sizes."""
        r = derived_ring
        (report,) = verify_ring(r, ["T2.5"])
        assert report.outcome == "pass"
        components = [r.idempotent_component(e) for e in r.primitive_idempotents]
        assert all(c.maximal_ideal_count == 1 for c in components)
        assert report.witness["local_factor_sizes"] == sorted(c.size for c in components)


class TestPrimitiveIdempotents:
    """The refinement, stopped at m atoms once there are 2**m idempotents, gives the primitive
    idempotents of the definition."""

    def test_matches_definition_on_derived_rings(self, derived_ring):
        expected = primitive_idempotents_by_definition(derived_ring)
        assert derived_ring.primitive_idempotents == tuple(expected)

    def test_matches_definition_on_small_corpus_and_relabelled_copies(self):
        specs = corpus_up_to(64)
        assert len(specs) > 100
        for text in specs:
            ring = ring_from_text(text)
            for r in (ring, relabelled(ring, np.random.default_rng(len(text)))):
                assert r.primitive_idempotents == tuple(primitive_idempotents_by_definition(r)), text


class TestStructureReferences:
    """Units, radical, nilpotents, maximal ideals in order and signatures from the definitions."""

    def test_matches_definitions(self, derived_ring):
        r = derived_ring
        reference = structure_by_definition(r)
        assert structure_of(r) == reference
        radical = tuple(x for x, member in enumerate(reference["radical"]) if member)
        assert r.nilpotent_elements == radical


# Rings of 2,187 and 4,096 elements with large radicals and cyclic to elementary abelian
# additive groups: a radical check or span that scans pairs costs a whole table here.
LARGE_LOCAL = ["Z/2[x]/(x^12)", "SQZ(2,11)", "Z/3[x]/(x^7)", "Z/64 x Z/64"]


class TestAdditiveGenerators:
    """The doubling walk gives the breadth-first oracle's generator list."""

    def test_matches_bfs_on_derived_rings(self, derived_ring):
        assert _additive_generators(derived_ring) == additive_generators_bfs(derived_ring)

    def test_matches_bfs_on_corpus(self):
        for text in corpus_specs():
            ring = ring_from_text(text)
            assert _additive_generators(ring) == additive_generators_bfs(ring), text

    @pytest.mark.parametrize("text", LARGE_LOCAL)
    def test_matches_bfs_on_large_rings(self, text):
        ring = ring_from_text(text)
        assert _additive_generators(ring) == additive_generators_bfs(ring)

    def test_within_stops_outside_a_subgroup(self):
        r = zn(12)
        flags = np.isin(np.arange(12), [0, 4, 8, 6])
        assert _additive_generators(r, flags) is None
        assert _additive_generators(r, np.isin(np.arange(12), [0, 3, 6, 9])) == [3]
        assert _additive_generators(r, np.arange(12) == 0) == []

    def test_ends_on_a_table_without_a_zero_identity(self):
        r = RingTable(3, 1, [[1, 2, 0], [1, 2, 0], [1, 2, 0]], [[0, 0, 0], [0, 1, 2], [0, 2, 1]])
        assert _additive_generators(r) == [1]
        assert not r.is_ideal(IdealSet(3, 0b101))


class TestStructureWork:
    """The ring structure costs O(n log n + m n) ring operations, not a whole-table scan."""

    @pytest.mark.parametrize("text", ["Z/1000", "Z/4095", "GF(2^12)", *LARGE_LOCAL])
    def test_evaluates_under_a_quarter_of_the_table(self, text):
        r = ring_from_text(text)
        evaluated = 0

        def counting(op):
            def counted(a, b):
                nonlocal evaluated
                evaluated += np.broadcast(a, b).size
                return op(a, b)

            return counted

        r.add_op, r.mul_op = counting(r.add_op), counting(r.mul_op)
        r.signature_array
        r.jacobson_radical
        assert 0 < evaluated < r.size**2 / 4


def _dropping_first(real):
    """A cached tuple property (`primitive_idempotents`, `idempotent_elements`) without its first
    entry."""
    return property(lambda self: real.func(self)[1:])


def _corrupting_power(real):
    """`_power` with 2**N replaced by 1, N the exponent of `_nth_powers`: in Z/100, 2 then lies
    in no maximal ideal."""

    def corrupt(self, base, exponent):
        out = real(self, base, exponent)
        if exponent == self.size.bit_length():
            out = out.copy()
            out[2] = self.one
        return out

    return corrupt


def _merging_first_two(real):
    """`primitive_idempotents` with the first two replaced by their sum, a non-local e*R."""

    def merged(self):
        first, second, *rest = real.func(self)
        return (self.add(first, second), *rest)

    return property(merged)


def _unit_three_nilpotent(real):
    """`_nth_powers` with 3**size replaced by 0: the unit 3 joins the claimed radical."""

    def planted(self):
        out = real.func(self).copy()
        out[3] = 0
        return out

    return property(planted)


def _constants_nilpotent(real):
    """`_nth_powers` zero exactly at 0 and 1: in Z/2[x]/(x^12) the claimed radical is then
    the constants, an additive group that is not closed under multiplication by x."""

    def planted(self):
        out = np.full(self.size, self.one)
        out[[0, self.one]] = 0
        return out

    return property(planted)


# Certificate faults planted in Z/100: the RingTable attribute replaced, the
# wrapper that breaks it, the property that must raise and its message.
# Z/100 is above CROSSCHECK_LIMIT, so the brute-force comparison cannot catch
# these faults first.
CERTIFICATE_FAULTS = {
    "dropped_idempotent": ("primitive_idempotents", _dropping_first, "maximal_ideals", "sum to 1"),
    # Three idempotents, not a power of 2: the refinement ends at two atoms.
    "dropped_idempotent_element": (
        "idempotent_elements", _dropping_first, "primitive_idempotents", "idempotent refinement"
    ),
    "corrupted_power": ("_power", _corrupting_power, "unit_flags", "claimed unit"),
}


RING_PLANT = "import comaximal.rings as rings\nfrom comaximal import ring_from_text\n"


class TestSelfChecks:
    """Internal cross-checks and certificates raise InternalConsistencyError, also under -O."""

    def test_crosscheck_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr("comaximal.rings.maximal_ideals_bruteforce", lambda ring: ())
        with pytest.raises(InternalConsistencyError, match="brute force"):
            zn(12).maximal_ideals

    def test_crosscheck_survives_python_O(self, python_O):
        plant = RING_PLANT + "rings.maximal_ideals_bruteforce = lambda ring: ()\n"
        out = python_O(plant, "ring_from_text('Z/12').maximal_ideals")
        assert out.startswith("raised 1 "), out
        assert "brute force" in out

    @pytest.mark.parametrize("fault", list(CERTIFICATE_FAULTS))
    def test_certificate_raises(self, fault, monkeypatch):
        name, wrapper, attribute, message = CERTIFICATE_FAULTS[fault]
        monkeypatch.setattr(RingTable, name, wrapper(RingTable.__dict__[name]))
        with pytest.raises(InternalConsistencyError, match=message):
            getattr(zn(100), attribute)

    # Two primitive idempotents merged into one, so that its e*R is not local.  In Z/6 the
    # brute-force comparison catches it; in Z/2 x Z/50, above CROSSCHECK_LIMIT, the unit
    # certificate does, since e*R's idempotents give claimed units that are zero divisors.
    MERGED_IDEMPOTENTS = {"Z/6": "brute force", "Z/2 x Z/50": "claimed unit"}
    MERGED_TARGETS = ["ring.unit_flags", "verify_ring(ring, ['T2.5'])"]

    @pytest.mark.parametrize("target", MERGED_TARGETS)
    @pytest.mark.parametrize("text", list(MERGED_IDEMPOTENTS))
    def test_merged_idempotents_raise(self, text, target, monkeypatch):
        real = RingTable.__dict__["primitive_idempotents"]
        monkeypatch.setattr(RingTable, "primitive_idempotents", _merging_first_two(real))
        ring = ring_from_text(text)
        with pytest.raises(InternalConsistencyError, match=self.MERGED_IDEMPOTENTS[text]):
            eval(target, {"ring": ring, "verify_ring": verify_ring})

    @pytest.mark.parametrize("target", MERGED_TARGETS)
    @pytest.mark.parametrize("text", list(MERGED_IDEMPOTENTS))
    def test_merged_idempotents_survive_python_O(self, text, target, python_O):
        plant = RING_PLANT + (
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import test_rings\n"
            "from comaximal import verify_ring\n"
            "table = rings.RingTable\n"
            "table.primitive_idempotents = test_rings._merging_first_two(\n"
            "    table.__dict__['primitive_idempotents'])\n"
            f"ring = ring_from_text({text!r})\n"
        )
        out = python_O(plant, target)
        assert out.startswith("raised 1 "), out
        assert self.MERGED_IDEMPOTENTS[text] in out

    # The claimed radical is checked to be an ideal: a planted unit leaves the additive walk,
    # and the constants of Z/2[x]/(x^12) fail the multiplication check.
    RADICAL_FAULTS = [
        ("Z/100", _unit_three_nilpotent),
        ("Z/2[x]/(x^12)", _unit_three_nilpotent),
        ("Z/2[x]/(x^12)", _constants_nilpotent),
    ]

    @pytest.mark.parametrize("text,wrapper", RADICAL_FAULTS)
    def test_radical_fault_raises(self, text, wrapper, monkeypatch):
        monkeypatch.setattr(RingTable, "_nth_powers", wrapper(RingTable.__dict__["_nth_powers"]))
        with pytest.raises(InternalConsistencyError, match="radical is not an ideal"):
            ring_from_text(text).jacobson_radical

    @pytest.mark.parametrize("text,wrapper", RADICAL_FAULTS)
    def test_radical_fault_survives_python_O(self, text, wrapper, python_O):
        plant = RING_PLANT + (
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import test_rings\n"
            "table = rings.RingTable\n"
            f"table._nth_powers = test_rings.{wrapper.__name__}(table.__dict__['_nth_powers'])\n"
        )
        out = python_O(plant, f"ring_from_text({text!r}).jacobson_radical")
        assert out.startswith("raised 1 "), out
        assert "radical is not an ideal" in out

    def test_walk_revisit_rejects_an_inconsistent_sum(self):
        # Every element of the wrong table is still its own negative, so its profiles and
        # structure match GF(4)'s.  Both images h of x extend 1 -> 1 + h and meet x + (x + 1) only
        # when the walk revisits 1: were that not checked, the search would hand a map to the
        # final verification, which raises.
        wrong = RingTable(4, 1, GF4_WRONG_ADD, GF4_MUL)
        assert ring_isomorphic(ring_from_text("GF(4)"), wrong) is None

    @pytest.mark.parametrize(
        "a, total, expression",
        [
            (2, 3, "ring_isomorphic(ring_from_text('GF(4)'), table)"),  # x + x = x + 1
            (1, 1, "table.characteristic"),  # 1 + 1 = 1
        ],
    )
    def test_multiples_that_miss_zero_raise(self, a, total, expression):
        # GF(4)'s tables with one wrong sum a + a: the multiples of a then cycle without reaching
        # 0.  A fresh interpreter with a timeout runs it, so that a walk that never ends fails.
        add = [[x ^ y for y in range(4)] for x in range(4)]
        add[a][a] = total
        script = (
            "from comaximal import RingAxiomError, ring_from_text, ring_isomorphic\n"
            "from comaximal.rings import RingTable\n"
            f"table = RingTable(4, 1, {add}, {GF4_MUL})\n"
            "try:\n"
            f"    {expression}\n"
            "except RingAxiomError as exc:\n"
            "    print(exc.law, exc.witness)\n"
        )
        result = run_python("-c", script, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"additive order ({a},)\n"

    def test_unverified_ring_isomorphism_raises(self):
        with pytest.raises(InternalConsistencyError) as err:
            ring_isomorphic(zn(6), _z6_with_wrong_sum())
        assert str(err.value) == "search produced a mapping that fails verification"

    def test_unverified_ring_isomorphism_survives_python_O(self, python_O):
        plant = RING_PLANT + (
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import test_rings\n"
        )
        out = python_O(plant, "rings.ring_isomorphic(test_rings.zn(6), test_rings._z6_with_wrong_sum())")
        assert out == "raised 1 search produced a mapping that fails verification\n"

    @pytest.mark.parametrize("fault", list(CERTIFICATE_FAULTS))
    def test_certificates_survive_python_O(self, fault, python_O):
        name, wrapper, attribute, message = CERTIFICATE_FAULTS[fault]
        plant = RING_PLANT + (
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import test_rings\n"
            "table = rings.RingTable\n"
            f"table.{name} = test_rings.{wrapper.__name__}(table.__dict__[{name!r}])\n"
        )
        out = python_O(plant, f"ring_from_text('Z/100').{attribute}")
        assert out.startswith("raised 1 "), out
        assert message in out
