"""Finite commutative ring kernel.

Elements of a ring of size n are the dense indices 0..n-1 with index 0
always the additive identity.  Each ring law is one elementwise operation
over index arrays: a Cayley-table lookup for rings up to `TABLE_LIMIT`
elements, the construction's own broadcasting function above it.
Scalars, rows and whole-ring scans (in row blocks, so memory stays
linear in n) are all read from that one operation.

The ring structure is read from one array, a**n for every a (n the size).
A finite ring is Artinian, so J is the nilradical {a : a**n == 0}; it is
the product of local rings eR over its primitive idempotents e, so its
maximal ideals are M_e = {a : e * a**n == 0}, ordered by min(e + J), and
its units are the elements in no M_e.

A mask is a Python int whose bit j marks index j.  `_pack` lays masks out
as the rows of a uint8 matrix, bit j of mask i at bit j % 8 of byte j // 8
of row i: the one packed form numpy code reads.  `_unpack` reads it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InternalConsistencyError, RingAxiomError
from .limits import (
    CROSSCHECK_LIMIT,
    DEFAULT_MAX_RING_SIZE,
    DEFAULT_RING_ISO_CAP,
    TABLE_LIMIT,
)


def _mask_from_bool(flags: np.ndarray) -> int:
    packed = np.packbits(flags.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _pack(masks: Sequence[int], n: int) -> np.ndarray:
    """Masks over n indices as a read-only len(masks) x ceil(n/8) uint8 matrix."""
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each row of a packed matrix, as a bool matrix."""
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _distinct(values: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct entries of an array of indices below n.

    Used instead of plain `np.unique`, whose first call imports `numpy.ma`.
    """
    return np.flatnonzero(np.bincount(values, minlength=n))


def _iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask.

    Read from `_iter_bits` rather than called by it, so that the per-bit
    loop, which isomorphism search runs far more often, makes no extra call.
    """
    return next(_iter_bits(mask))


# An elementwise ring law: integer index arrays in, broadcast like a numpy operator.
Op = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Whole-ring scans evaluate a law on blocks of rows with about this many entries.
_BLOCK = 1 << 16


def _blocks(count: int, width: int, multiple: int = 1) -> Iterator[slice]:
    """Consecutive slices of `count` rows of `width` entries, about _BLOCK entries each.

    Each slice spans a multiple of `multiple` rows; the last one is not
    clipped to `count`.
    """
    step = multiple * max(1, _BLOCK // (multiple * max(width, 1)))
    for lo in range(0, count, step):
        yield slice(lo, lo + step)



@dataclass(frozen=True)
class IdealSet:
    """An ideal stored as a membership bitmask over element indices."""

    ring_size: int
    mask: int

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.ring_size and bool(self.mask >> index & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.mask))

    def member_flags(self) -> np.ndarray:
        """Read-only membership flags, one per element, unpacked once per ideal."""
        return self._flags

    @cached_property
    def _flags(self) -> np.ndarray:
        # Kept in a bytes buffer, which is read-only: a kept numpy array of its own
        # raised zn_core's peak RSS by 1.3 MB through heap fragmentation.
        flags = _unpack(_pack([self.mask], self.ring_size), self.ring_size)[0]
        return np.frombuffer(flags.tobytes(), dtype=bool)


@dataclass(frozen=True)
class ElementMap:
    """An element-wise map between two rings (projection or isomorphism)."""

    source: "RingTable"
    target: "RingTable"
    mapping: tuple[int, ...]
    isomorphism: bool = False

    def __call__(self, index: int) -> int:
        return self.mapping[index]

    def verify(self) -> bool:
        """Re-check the homomorphism laws on every pair, in row blocks."""
        src, dst = self.source, self.target
        if len(self.mapping) != src.size:
            return False
        phi = np.asarray(self.mapping, dtype=np.int64)
        if phi.min() < 0 or phi.max() >= dst.size or phi[src.one] != dst.one or phi[0] != 0:
            return False
        for a in src._row_blocks(src._idx):
            for src_op, dst_op in ((src.add_op, dst.add_op), (src.mul_op, dst.mul_op)):
                if not (phi[src_op(a, src._idx)] == dst_op(phi[a], phi)).all():
                    return False
        return not self.isomorphism or len(set(self.mapping)) == src.size


@dataclass(frozen=True)
class CleanDecomposition:
    """Outcome of writing every element as idempotent + unit."""

    clean: bool
    witnesses: tuple[tuple[int, int], ...] | None
    counterexample: int | None


class RingTable:
    """A finite commutative ring with unital multiplication.

    Each law, `add` and `mul`, is given in exactly one form: a table (flat
    row-major of length size*size, or size x size), or an elementwise
    function f(A, B) over integer index arrays that broadcasts like a
    numpy operator.  Up to TABLE_LIMIT elements a function is evaluated
    once, as f(idx[:, None], idx), into a table.  Either way the law ends
    up as one elementwise operation, `add_op` / `mul_op`, and scalars
    (int(f(a, b))), rows (f(a, idx)) and whole-ring scans all read it.
    """

    def __init__(
        self,
        size: int,
        one: int,
        add,
        mul,
        *,
        labels: Sequence[str] | None = None,
        name: str | None = None,
    ):
        if size < 2:
            raise ValueError("ring must have at least two elements")
        if not 0 <= one < size:
            raise ValueError("multiplicative identity index out of range")
        if one == 0:
            raise ValueError("identity cannot coincide with zero (index 0)")
        self.size = size
        self.zero = 0
        self.one = one
        self.name = name or f"ring[{size}]"

        if labels is None:
            self.labels: tuple[str, ...] = tuple(str(i) for i in range(size))
        else:
            if len(labels) != size:
                raise ValueError("label count does not match ring size")
            self.labels = tuple(str(x) for x in labels)

        self._idx = np.arange(size)
        self.add_op: Op = self._elementwise(add, "add")
        self.mul_op: Op = self._elementwise(mul, "mul")

    def _elementwise(self, law, which: str) -> Op:
        if callable(law):
            if self.size > TABLE_LIMIT:
                return law
            law = law(self._idx[:, None], self._idx)
        arr = np.asarray(law, dtype=np.int32)
        if arr.shape == (self.size * self.size,):
            arr = arr.reshape(self.size, self.size)
        elif arr.shape != (self.size, self.size):
            raise ValueError(f"{which} table must hold size*size entries")
        if arr.min() < 0 or arr.max() >= self.size:
            raise ValueError(f"{which} table entry out of range")
        table = np.ascontiguousarray(arr, dtype=np.min_scalar_type(self.size - 1))
        table.setflags(write=False)
        return lambda a, b: table[a, b]

    def __repr__(self) -> str:
        return f"RingTable({self.name!r}, size={self.size})"

    def _row_blocks(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        """`rows` in consecutive slices, each a column to broadcast against all elements."""
        for block in _blocks(len(rows), self.size):
            yield rows[block, None]

    def _check_index(self, a: int) -> None:
        if not 0 <= a < self.size:
            raise ValueError(f"element index {a} out of range for ring of size {self.size}")

    # -- scalar operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return int(self.add_op(a, b))

    def mul(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return int(self.mul_op(a, b))

    def neg(self, a: int) -> int:
        self._check_index(a)
        return int(self.negatives[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    # -- vectorised rows ---------------------------------------------------

    def add_row(self, a: int) -> np.ndarray:
        """Row vector r with r[b] = a + b."""
        self._check_index(a)
        return self.add_op(a, self._idx)

    def mul_row(self, a: int) -> np.ndarray:
        """Row vector r with r[b] = a * b."""
        self._check_index(a)
        return self.mul_op(a, self._idx)

    # -- cached structure --------------------------------------------------

    @cached_property
    def negatives(self) -> np.ndarray:
        """negatives[a] = -a, read off as (-1) * a."""
        minus_one = int((self.add_row(self.one) == 0).argmax())
        arr = self.mul_row(minus_one)
        arr.setflags(write=False)
        return arr

    @cached_property
    def unit_flags(self) -> np.ndarray:
        """Invertible elements: those in no M_e.  u**|U| == 1 certifies each one.

        A non-unit a is certified by e * a**size == 0 for some e != 0.
        """
        flags = np.ones(self.size, dtype=bool)
        for ideal in self.maximal_ideals:
            flags &= ~ideal.member_flags()
        units = np.flatnonzero(flags)
        if not (self._power(units, len(units)) == self.one).all():
            raise InternalConsistencyError("a claimed unit u has u**|U| != 1")
        flags.setflags(write=False)
        return flags

    @cached_property
    def units(self) -> frozenset[int]:
        return frozenset(int(i) for i in np.flatnonzero(self.unit_flags))

    @property
    def unit_count(self) -> int:
        return int(self.unit_flags.sum())

    def is_unit(self, a: int) -> bool:
        self._check_index(a)
        return bool(self.unit_flags[a])

    @cached_property
    def jacobson_radical(self) -> IdealSet:
        """J(R), which in a finite (so Artinian) ring is the nilradical {a : a**size == 0}."""
        ideal = IdealSet(self.size, _mask_from_bool(self._nth_powers == 0))
        if not self.is_ideal(ideal):
            raise InternalConsistencyError("radical is not an ideal; operations are inconsistent")
        return ideal

    @cached_property
    def idempotent_elements(self) -> tuple[int, ...]:
        idx = self._idx
        return tuple(np.flatnonzero(self.mul_op(idx, idx) == idx).tolist())

    def _power(self, base: np.ndarray, exponent: int) -> np.ndarray:
        """base**exponent elementwise, by square-and-multiply through `mul_op`."""
        power = np.full(len(base), self.one)
        while exponent:
            if exponent & 1:
                power = self.mul_op(power, base)
            exponent >>= 1
            if exponent:
                base = self.mul_op(base, base)
        return power

    @cached_property
    def _nth_powers(self) -> np.ndarray:
        """a**size for every a: each local component of a is a unit, whose powers
        stay units, or nilpotent, whose powers are distinct until they reach 0.
        """
        powers = self._power(self._idx, self.size)
        powers.setflags(write=False)
        return powers

    @cached_property
    def nilpotent_elements(self) -> tuple[int, ...]:
        """Elements with a**size == 0, the members of the Jacobson radical."""
        return tuple(np.flatnonzero(self._nth_powers == 0).tolist())

    @property
    def is_reduced(self) -> bool:
        return len(self.nilpotent_elements) == 1

    @cached_property
    def characteristic(self) -> int:
        succ = self.add_row(self.one).tolist()
        k, x = 1, self.one
        while x != 0:
            x = succ[x]
            k += 1
        return k

    # -- ideals ------------------------------------------------------------

    def is_ideal(self, ideal: IdealSet) -> bool:
        """0 is a member, the additive-generator walk over the members stays inside, and
        h * r is a member for each generator h and every r: r * (sum c_k h_k) = sum c_k (r * h_k)
        by the distributive law, which `validate_ring_axioms` proves for table files.
        """
        if ideal.ring_size != self.size or 0 not in ideal:
            return False
        flags = ideal.member_flags()
        gens = _additive_generators(self, flags)
        return gens is not None and all(flags[self.mul_row(h)].all() for h in gens)

    def is_proper_ideal(self, ideal: IdealSet) -> bool:
        return self.one not in ideal and self.is_ideal(ideal)

    def ideal_closure(self, generators: Iterable[int]) -> IdealSet:
        """Smallest ideal containing the generators (fixpoint closure)."""
        gens = list(generators)
        if not gens:
            raise ValueError("ideal_closure needs at least one generator")
        for g in gens:
            self._check_index(g)
        n = self.size
        member = np.zeros(n, dtype=bool)
        member[0] = True
        member[gens] = True
        while True:
            current = np.flatnonzero(member)
            grown = member.copy()
            for a in self._row_blocks(current):
                grown[self.mul_op(a, self._idx)] = True
                grown[self.add_op(a, current)] = True
            if (grown == member).all():
                break
            member = grown
        return IdealSet(n, _mask_from_bool(member))

    def principal_ideal(self, a: int) -> IdealSet:
        self._check_index(a)
        member = np.zeros(self.size, dtype=bool)
        member[self.mul_row(a)] = True
        return IdealSet(self.size, _mask_from_bool(member))

    @cached_property
    def primitive_idempotents(self) -> tuple[int, ...]:
        """Nonzero idempotents e with no other nonzero idempotent f = e*f below them.

        Refines the atoms {1}: an atom a split by an idempotent f (a*f not in
        {0, a}) becomes a*f and a - a*f.  There are 2**m idempotents for m atoms.
        """
        idems = np.array(self.idempotent_elements)
        atoms = np.array([self.one])
        while len(atoms) < len(idems):
            products = self.mul_op(atoms[:, None], idems)
            split = (products != 0) & (products != atoms[:, None])
            rows = split.any(axis=1)
            if not rows.any():
                return tuple(sorted(atoms.tolist()))
            part = products[rows, split[rows].argmax(axis=1)]
            rest = self.add_op(atoms[rows], self.negatives[part])
            atoms = np.concatenate([atoms[~rows], part, rest])
        raise InternalConsistencyError("idempotent refinement produced more atoms than idempotents")

    @cached_property
    def maximal_ideals(self) -> tuple[IdealSet, ...]:
        """M_e = {a : e * a**size == 0} per primitive idempotent e, ordered by min(e + J).

        That is the order of R/J's primitive idempotents.  The idempotents are
        certified orthogonal with sum 1; up to CROSSCHECK_LIMIT elements the
        brute-force oracle must agree.
        """
        n = self.size
        primitive = self.primitive_idempotents
        idems = np.array(primitive, dtype=np.int64)
        products = self.mul_op(idems[:, None], idems)
        if reduce(self.add, primitive, 0) != self.one or (products != np.diag(idems)).any():
            raise InternalConsistencyError(
                "primitive idempotents are not orthogonal idempotents that sum to 1"
            )
        radical = np.flatnonzero(self.jacobson_radical.member_flags())
        ordered = sorted(primitive, key=lambda e: int(self.add_op(e, radical).min()))
        ideals = tuple(
            IdealSet(n, _mask_from_bool(self.mul_op(e, self._nth_powers) == 0)) for e in ordered
        )
        meet = ideals[0].mask
        for ideal in ideals[1:]:
            meet &= ideal.mask
        if meet != self.jacobson_radical.mask:
            raise InternalConsistencyError("maximal ideals do not intersect in the radical")
        if any(self.one in ideal for ideal in ideals):
            raise InternalConsistencyError("maximal ideal contains the identity")
        if n <= CROSSCHECK_LIMIT:
            independent = {i.mask for i in maximal_ideals_bruteforce(self)}
            if {i.mask for i in ideals} != independent:
                raise InternalConsistencyError(
                    "idempotent-based maximal ideals disagree with brute force"
                )
        return ideals

    @property
    def maximal_ideal_count(self) -> int:
        return len(self.maximal_ideals)

    @cached_property
    def residue_field_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(self.size // len(m) for m in self.maximal_ideals))

    # -- signatures and comaximality ----------------------------------------

    @cached_property
    def signature_array(self) -> np.ndarray:
        """signature[a] has bit i set when a lies in maximal ideal i."""
        sig = np.zeros(self.size, dtype=np.int64)
        for i, ideal in enumerate(self.maximal_ideals):
            sig |= ideal.member_flags().astype(np.int64) << i
        if not ((sig == 0) == self.unit_flags).all():
            raise InternalConsistencyError(
                "elements outside every maximal ideal must be exactly the units"
            )
        sig.setflags(write=False)
        return sig

    @cached_property
    def signatures(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.signature_array)

    def signature(self, a: int) -> int:
        self._check_index(a)
        return self.signatures[a]

    def is_comaximal(self, a: int, b: int) -> bool:
        """True when Ra + Rb is the whole ring.

        Note is_comaximal(a, a) is true exactly when a is a unit.
        """
        return self.signature(a) & self.signature(b) == 0

    def is_comaximal_via_closure(self, a: int, b: int) -> bool:
        """Definition-level oracle: does the ideal generated by {a, b} hit 1?"""
        return self.one in self.ideal_closure((a, b))

    # -- quotients and cosets ------------------------------------------------

    def coset_representatives(self, ideal: IdealSet) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-index representative of each coset of `ideal`.

        Returns (reps, rep_of): the sorted distinct representatives and,
        for every element x, the representative of x + ideal.
        """
        if ideal.ring_size != self.size:
            raise ValueError("ideal belongs to a ring of different size")
        blocks = self._row_blocks(np.flatnonzero(ideal.member_flags()))
        rep_of = reduce(np.minimum, (self.add_op(j, self._idx).min(axis=0) for j in blocks))
        return np.flatnonzero(rep_of == self._idx), rep_of

    def quotient(self, ideal: IdealSet) -> tuple["RingTable", ElementMap]:
        """Quotient ring R/I together with the projection map."""
        if not self.is_ideal(ideal):
            raise ValueError("quotient requires an ideal of this ring")
        if self.one in ideal:
            raise ValueError("cannot quotient by the whole ring")
        n = self.size
        if len(ideal) == 1:
            identity = ElementMap(self, self, tuple(range(n)), isomorphism=True)
            return self, identity
        reps, rep_of = self.coset_representatives(ideal)
        if len(reps) * len(ideal) != n:
            raise InternalConsistencyError("cosets do not partition the ring evenly")
        elem_to_q = np.searchsorted(reps, rep_of)
        ring = self._image(reps, elem_to_q, f"{self.name}/I{len(ideal)}")
        proj = ElementMap(self, ring, tuple(int(x) for x in elem_to_q))
        return ring, proj

    def idempotent_component(self, e: int) -> "RingTable":
        """The ring e*R with identity e, for an idempotent e != 0."""
        self._check_index(e)
        if self.mul(e, e) != e or e == 0:
            raise ValueError("component requires a nonzero idempotent")
        times_e = self.mul_row(e)
        members = _distinct(times_e, self.size)
        if members[0] != 0:
            raise ValueError("component of a non-idempotent")
        return self._image(members, np.searchsorted(members, times_e), f"{self.name}*e{e}")

    def _image(self, members: np.ndarray, position: np.ndarray, name: str) -> "RingTable":
        """The image of a ring homomorphism from this ring, on the elements `members`.

        `position` is the homomorphism, as an index into `members` for every
        element of this ring: the projection onto R/I or onto e*R.
        """
        return RingTable(
            len(members),
            int(position[self.one]),
            lambda i, j: position[self.add_op(members[i], members[j])],
            lambda i, j: position[self.mul_op(members[i], members[j])],
            labels=[self.labels[x] for x in members.tolist()],
            name=name,
        )

    # -- element-wise structure ----------------------------------------------

    def clean_decomposition(self) -> CleanDecomposition:
        """Try to write every element as idempotent + unit (first idempotent that works)."""
        n = self.size
        units = self.unit_flags
        idem_of = np.full(n, -1)
        unit_of = np.full(n, -1)
        for e in self.idempotent_elements:
            u = self.add_row(self.neg(e))
            fresh = (idem_of < 0) & units[u]
            idem_of[fresh] = e
            unit_of[fresh] = u[fresh]
        missing = np.flatnonzero(idem_of < 0)
        if len(missing):
            return CleanDecomposition(False, None, int(missing[0]))
        return CleanDecomposition(True, tuple(zip(idem_of.tolist(), unit_of.tolist())), None)


# -- constructions ----------------------------------------------------------


def direct_product(*rings: RingTable, max_size: int = DEFAULT_MAX_RING_SIZE) -> RingTable:
    """Componentwise product ring; index = mixed-radix over factor indices."""
    if len(rings) < 2:
        raise ValueError("direct product needs at least two factors")
    sizes = [r.size for r in rings]
    total = math.prod(sizes)
    if total > max_size:
        raise CapacityError(f"product ring would exceed the size cap ({max_size})")
    # digits[i][a] is factor i's component of element a.
    digits = np.unravel_index(np.arange(total), sizes)

    def mixed_radix(ops: list[Op]) -> Op:
        def op(a, b):
            out = 0
            for s, f, d in zip(sizes, ops, digits):
                # Widen first: a factor's table may hold uint8.
                out = out * s + f(d[a], d[b]).astype(np.int64)
            return out

        return op

    labels = [
        "(" + ",".join(r.labels[d] for r, d in zip(rings, parts)) + ")"
        for parts in zip(*(d.tolist() for d in digits))
    ]
    return RingTable(
        total,
        int(np.ravel_multi_index([r.one for r in rings], sizes)),
        mixed_radix([r.add_op for r in rings]),
        mixed_radix([r.mul_op for r in rings]),
        labels=labels,
        name=" x ".join(r.name for r in rings),
    )


# -- oracles and validation ---------------------------------------------------


def maximal_ideals_bruteforce(ring: RingTable) -> tuple[IdealSet, ...]:
    """Maximal ideals by greedy growth of principal ideals.

    Independent of the idempotent route, units included, which it reads
    off the multiplication table: every proper ideal extends to a maximal
    one, and each nonunit generator not yet covered starts a new growth,
    so all maximal ideals are found.
    """
    n = ring.size
    idx = np.arange(n)
    blocks = ring._row_blocks(idx)
    units = np.concatenate([(ring.mul_op(a, idx) == ring.one).any(axis=1) for a in blocks])
    found: list[int] = []
    for a in range(n):
        if units[a]:
            continue
        if any(mask >> a & 1 for mask in found):
            continue
        current = ring.ideal_closure((a,))
        if ring.one in current:
            raise InternalConsistencyError("a nonunit generates the whole ring")
        members = list(current.members())
        mask = current.mask
        for x in range(n):
            if mask >> x & 1 or units[x]:
                continue
            candidate = ring.ideal_closure(members + [x])
            if ring.one not in candidate:
                mask = candidate.mask
                members = list(candidate.members())
        found.append(mask)
    return tuple(IdealSet(n, m) for m in sorted(found))


def validate_ring_axioms(ring: RingTable) -> None:
    """Check the commutative-ring axioms exactly, raising RingAxiomError on failure.

    Identities, additive inverses and both commutative laws are checked on
    every pair.  The rest is checked against a greedy additive generating
    set G (|G| <= log2 n), for O(n^2 |G|) work in all:

    - associativity of addition by Light's test, (x+g)+y == x+(g+y) for
      all x, y and every g in G;
    - distributivity as a(b+g) == ab+ag for all a, b and every g in G,
      which makes multiplication additive in each argument;
    - so associativity of multiplication, additive in all three
      arguments, only on triples from G.

    Every failure carries a concrete witness tuple of element indices.
    """
    n, one = ring.size, ring.one
    idx = np.arange(n)
    add, mul = ring.add_op, ring.mul_op
    for law, e, row in (("zero identity", 0, ring.add_row(0)), ("one identity", one, ring.mul_row(one))):
        if not np.array_equal(row, idx):
            raise RingAxiomError(law, (e, int((row != idx).argmax())))

    def check(law: str, lhs: Op, rhs: Op, witness: Callable[[int, int], tuple[int, ...]]) -> None:
        """lhs(x, y) == rhs(x, y) for every pair, scanned in row blocks."""
        for x in ring._row_blocks(idx):
            i, y = np.nonzero(lhs(x, idx) != rhs(x, idx))
            if len(i):
                raise RingAxiomError(law, witness(int(x[i[0], 0]), int(y[0])))

    for x in ring._row_blocks(idx):
        lacking = np.flatnonzero(~(add(x, idx) == 0).any(axis=1))
        if len(lacking):
            raise RingAxiomError("additive inverse", (int(x[lacking[0], 0]),))
    check("commutativity(add)", add, lambda x, y: add(y, x), lambda x, y: (x, y))
    check("commutativity(mul)", mul, lambda x, y: mul(y, x), lambda x, y: (x, y))
    gens = _additive_generators(ring)
    for g in gens:
        check(
            "associativity(add)",
            lambda x, y: add(add(x, g), y),
            lambda x, y: add(x, add(g, y)),
            lambda x, y: (x, g, y),
        )
    for g in gens:
        check(
            "distributivity",
            lambda a, b: mul(a, add(b, g)),
            lambda a, b: add(mul(a, b), mul(a, g)),
            lambda a, b: (a, b, g),
        )
    g = np.array(gens)
    a, b, c = g[:, None, None], g[None, :, None], g[None, None, :]
    bad = np.argwhere(mul(mul(a, b), c) != mul(a, mul(b, c)))
    if len(bad):
        raise RingAxiomError("associativity(mul)", tuple(int(g[k]) for k in bad[0]))


# -- ring isomorphism ---------------------------------------------------------


def _element_profiles(ring: RingTable) -> list[tuple[int, ...]]:
    n = ring.size
    idx = np.arange(n)
    order = np.ones(n, dtype=np.int64)
    multiple = idx
    while (active := multiple != 0).any():
        order += active
        multiple = np.where(active, ring.add_op(multiple, idx), 0)
    ann = np.concatenate([(ring.mul_op(a, idx) == 0).sum(axis=1) for a in ring._row_blocks(idx)])
    flags = np.zeros((3, n), dtype=np.int64)
    flags[0] = ring.unit_flags
    flags[1, list(ring.idempotent_elements)] = 1
    flags[2, list(ring.nilpotent_elements)] = 1
    return list(zip(order.tolist(), *flags.tolist(), ann.tolist()))


def _additive_generators(ring: RingTable, within: np.ndarray | None = None) -> list[int] | None:
    """Greedy additive generating set: the identity, then the lowest element not yet spanned.

    Each generator g grows the span S to S + <g> by doubling: S u (S + g), then that
    u (that + 2g), ..., until the next translate 2^j g is spanned.  The cosets S + kg,
    k < 2^j, are distinct until ord(g mod S) of them are spanned, and 2^j g lies among
    them exactly then, so the walk stops at S + <g>: O(n log n) operations in all.
    With `within` (membership flags), generators are its lowest unspanned members, and None
    is returned once a step leaves it, which happens exactly when it is not an additive group.
    """
    span = np.zeros(ring.size, dtype=bool)
    span[0] = True
    draw = ~span if within is None else within
    gens: list[int] = []
    while len(rest := np.flatnonzero(draw & ~span)):
        step = int(rest[0]) if gens or within is not None else ring.one
        gens.append(step)
        while not span[step]:
            moved = ring.add_op(np.flatnonzero(span), step)
            if within is not None and not within[moved].all():
                return None
            span[moved] = True
            span[step] = True  # already set when 0 + step == step; a malformed table cannot loop
            step = int(ring.add_op(step, step))
    return gens


def ring_isomorphic(
    r1: RingTable,
    r2: RingTable,
    *,
    cap: int = DEFAULT_RING_ISO_CAP,
) -> ElementMap | None:
    """Search for a ring isomorphism r1 -> r2.

    Returns a verified ElementMap, or None when the rings are provably
    non-isomorphic.  Raises CapacityError for same-size rings above the
    cap; a size mismatch is always a definite negative.
    """
    if r1.size != r2.size:
        return None
    n = r1.size
    if n > cap:
        raise CapacityError(
            f"ring isomorphism undecided: size {n} exceeds the cap ({cap})"
        )
    if r1.residue_field_sizes != r2.residue_field_sizes:
        return None
    # Equal profile multisets imply equal characteristic, unit, idempotent and nilpotent counts.
    prof1 = _element_profiles(r1)
    prof2 = _element_profiles(r2)
    if sorted(prof1) != sorted(prof2):
        return None
    by_profile: dict[tuple[int, ...], list[int]] = {}
    for b, p in enumerate(prof2):
        by_profile.setdefault(p, []).append(b)

    gens = _additive_generators(r1)

    def propagate(fwd: np.ndarray, rev: np.ndarray, x: int, y: int) -> bool:
        """Force phi(x)=y and close under both operations.

        The closure does not depend on the order pairs leave the queue, so
        each newly fixed pair is combined with the whole defined domain at once.
        """
        queue = [(x, y)]
        while queue:
            u, v = queue.pop()
            if fwd[u] != -1:
                if fwd[u] != v:
                    return False
                continue
            if rev[v] != -1:
                return False
            if prof1[u] != prof2[v]:
                return False
            fwd[u] = v
            rev[v] = u
            dom = np.flatnonzero(fwd != -1)
            img = fwd[dom]
            queue.extend(zip(r1.add_op(u, dom).tolist(), r2.add_op(v, img).tolist()))
            queue.extend(zip(r1.mul_op(u, dom).tolist(), r2.mul_op(v, img).tolist()))
        return True

    def search(fwd: np.ndarray, rev: np.ndarray, gi: int) -> np.ndarray | None:
        if gi == len(gens):
            if (fwd == -1).any():
                return None
            return fwd
        g = gens[gi]
        if fwd[g] != -1:
            candidates = [fwd[g]]
        elif g == r1.one:
            candidates = [r2.one]
        else:
            candidates = [b for b in by_profile.get(prof1[g], ()) if rev[b] == -1]
        for c in candidates:
            nfwd, nrev = fwd.copy(), rev.copy()
            if fwd[g] != -1 or propagate(nfwd, nrev, g, c):
                result = search(nfwd, nrev, gi + 1)
                if result is not None:
                    return result
        return None

    fwd = np.full(n, -1, dtype=np.int64)
    rev = np.full(n, -1, dtype=np.int64)
    fwd[0] = 0
    rev[0] = 0
    mapping = search(fwd, rev, 0)
    if mapping is None:
        return None
    iso = ElementMap(r1, r2, tuple(mapping.tolist()), isomorphism=True)
    if not iso.verify():
        raise InternalConsistencyError("search produced a mapping that fails verification")
    return iso
