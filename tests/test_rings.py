"""Ring kernel tests against hand-derived and brute-force values."""

import time
from dataclasses import replace
from functools import partial
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
    polyquot_product,
    sqz_product,
    structure_by_definition,
    structure_of,
    zn_comaximal,
    zn_unit,
)
from test_acceptance import corpus_specs


def zn(n: int) -> RingTable:
    return ring_from_text(f"Z/{n}")


class TestArithmetic:
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
        idx = np.arange(TABLE_LIMIT)
        assert zn(TABLE_LIMIT).mul_op(idx[:, None], idx).dtype == np.uint8
        assert zn(16).add_op(3, 15) == 2

    def test_table_factors_above_table_limit(self):
        # 512 elements from two uint8-table factors: the mixed-radix index
        # x * 32 + y overflows uint8 unless each digit is widened first.
        r = ring_from_text("Z/16 x Z/32")
        assert r.size == 512 > TABLE_LIMIT
        idx = np.arange(512)
        x, y = idx // 32, idx % 32
        a, b = idx[:, None], idx
        expected_add = (x[a] + x[b]) % 16 * 32 + (y[a] + y[b]) % 32
        expected_mul = (x[a] * x[b]) % 16 * 32 + (y[a] * y[b]) % 32
        assert np.array_equal(r.add_op(a, b), expected_add)
        assert np.array_equal(r.mul_op(a, b), expected_mul)


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

    def test_same_size_nonisomorphic_rings(self):
        assert ring_isomorphic(zn(9), ring_from_text("Z/3 x Z/3")) is None
        assert ring_isomorphic(zn(8), ring_from_text("Z/2[x]/(x^3)")) is None


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


# One ring of each construction on each side of TABLE_LIMIT: the small ones
# read their laws from a materialised table, the large ones call the
# construction's elementwise functions directly.
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
    """`primitive_idempotents` without its first idempotent."""
    return property(lambda self: real.func(self)[1:])


def _corrupting_power(real):
    """`_power` with 2**size replaced by 1: in Z/100, 2 then lies in no maximal ideal."""

    def corrupt(self, base, exponent):
        out = real(self, base, exponent)
        if exponent == self.size:
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
