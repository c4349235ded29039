"""Finite commutative ring kernel.

Elements of a ring of size n are the dense indices 0..n-1 with index 0
always the additive identity.  Each ring law is one elementwise operation
over index arrays.  Z/n computes with its own modular arithmetic at every
size: on arrays of length n that costs what a lookup costs, and it needs no
n x n table.  Composite laws (digit rings, products, quotients, components)
are a flat Cayley-table lookup up to `TABLE_LIMIT` elements, where a lookup
beats evaluating the law, and the construction's own broadcasting function
above it; a table given as such is always kept.  A product is its factors'
tables: consecutive factors are grouped up to `TABLE_LIMIT` elements, each
group's table is composed by broadcasting from its factors' s x s grids,
last factor first, and a larger product looks each pair up once per group (a
factor above the limit keeps its own law).  A factor ring makes its grids
once and keeps them, read-only.  Tables and mixed-radix results are kept in
the ring's own index type, the smallest that holds n - 1.  Scalars, rows and
whole-ring scans (in row blocks, so memory stays linear in n) are all read
from that one operation.

The ring structure is read from one array, a**N for every a, with N the
bit length of the size (`_nth_powers` proves N enough).  A finite ring is
Artinian, so J is the nilradical {a : a**N == 0}; it is the product of
local rings eR over its primitive idempotents e, so its maximal ideals are
M_e = {a : e * a**N == 0}, ordered by min(e + J).  That m x n membership
matrix is evaluated once: the ideals' masks, the units (the elements in no
M_e) and the signatures are all read from it.  The primitive idempotents
refine the start atoms, a product's factor identities or else 1, until there
are m atoms for 2**m idempotents: atoms certified orthogonal with sum 1 have
2**m distinct subset sums, which are then every idempotent, so none splits
an atom.

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


def _pack(masks: Sequence[int], n: int) -> np.ndarray:
    """Masks over n indices as a read-only len(masks) x ceil(n/8) uint8 matrix."""
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each row of a packed matrix, as a bool matrix."""
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _masks(packed: np.ndarray) -> list[int]:
    """The rows of a packed matrix as masks: the inverse of `_pack`."""
    raw, width = packed.tobytes(), packed.shape[1]
    if not width:
        return [0] * len(packed)
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _distinct(values: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct entries of an array of indices below n.

    Used instead of plain `np.unique`, whose first call imports `numpy.ma`.
    """
    return np.bincount(values, minlength=n).nonzero()[0]


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


def _lookup(table, n: int, which: str) -> Op:
    """A law on n elements given as a table (flat row-major or n x n), checked and kept flat
    in its smallest index type, as one gather at the intp index a * n + b."""
    arr = np.asarray(table)
    if arr.dtype.kind not in "biu":
        if not all(float(x).is_integer() for x in arr.flat):  # NaN and infinities fail too
            raise ValueError(f"{which} table entries must be integers")
        arr = arr.astype(np.int64)
    if arr.shape not in ((n * n,), (n, n)):
        raise ValueError(f"{which} table must hold size*size entries")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"{which} table entry out of range")
    flat = arr.astype(np.min_scalar_type(n - 1)).ravel()
    flat.setflags(write=False)
    # The flat index in intp: a * n in the inputs' own type may wrap or overflow.
    return lambda a, b: flat.take(np.multiply(a, n, dtype=np.intp) + b)


@dataclass(frozen=True)
class IdealSet:
    """An ideal stored as a membership bitmask over element indices."""

    ring_size: int
    mask: int

    @classmethod
    def from_flags(cls, flags: np.ndarray) -> "IdealSet":
        """The ideal whose members a bool array flags; the flags are kept as `member_flags`."""
        packed = np.packbits(flags, bitorder="little").tobytes()
        ideal = cls(len(flags), int.from_bytes(packed, "little"))
        vars(ideal)["_flags"] = np.frombuffer(flags.tobytes(), dtype=bool)  # as `_flags` keeps them
        return ideal

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
    once, as f(idx[:, None], idx), into a table, unless the private
    `_ops` flag keeps it as given (Z/n's modular ops).  A table is kept
    flat in its smallest index type and read by one gather at the intp
    index a * size + b.  Either way the law ends up as one elementwise
    operation, `add_op` / `mul_op`, and scalars (int(f(a, b))), rows
    (f(a, idx)) and whole-ring scans all read it.
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
        _ops: bool = False,
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

        if labels is not None:
            if len(labels) != size:
                raise ValueError("label count does not match ring size")
            self.labels = tuple(str(x) for x in labels)

        self._idx = np.arange(size)
        tabulate = not _ops and size <= TABLE_LIMIT
        self.add_op: Op = self._elementwise(add, "add", tabulate)
        self.mul_op: Op = self._elementwise(mul, "mul", tabulate)

    def _elementwise(self, law, which: str, tabulate: bool) -> Op:
        if callable(law):
            if not tabulate:
                return law
            law = law(self._idx[:, None], self._idx)
        return _lookup(law, self.size, which)

    # Makes the labels when none were given: set by `direct_product`, `_image` and the digit rings.
    _make_labels: Callable[[], Iterable[str]] | None = None

    # Orthogonal idempotents with sum 1 that `primitive_idempotents` refines, else {1}: set by
    # `direct_product` to its factors' identities.
    _start_atoms: tuple[int, ...] | None = None

    @cached_property
    def _grids(self) -> dict[str, np.ndarray]:
        """Each law on the whole s x s grid, read-only and in this ring's own index type: what
        `direct_product` composes a factor group's tables from, made once per factor ring."""
        dtype = np.min_scalar_type(self.size - 1)
        grids = {}
        for law in ("add_op", "mul_op"):
            grid = getattr(self, law)(self._idx[:, None], self._idx).astype(dtype, copy=False)
            grid.setflags(write=False)
            grids[law] = grid
        return grids

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """One label per element: those given, or else made when first read, from the digits,
        the factors' or the parent ring's labels, or else the indices."""
        make = self._make_labels
        return tuple(make()) if make is not None else tuple(map(str, range(self.size)))

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
    def _minus_one(self) -> int:
        """The element -1, the one that 1 + x sends to 0."""
        return int((self.add_row(self.one) == 0).argmax())

    @cached_property
    def negatives(self) -> np.ndarray:
        """negatives[a] = -a, read off as (-1) * a."""
        arr = self.mul_row(self._minus_one)
        arr.setflags(write=False)
        return arr

    @cached_property
    def unit_flags(self) -> np.ndarray:
        """Invertible elements: those in no M_e.  u**|U| == 1 certifies each one.

        A non-unit a is certified by e * a**N == 0 for some e != 0.
        """
        flags = ~self._membership.any(axis=0)
        units = flags.nonzero()[0]
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
        """J(R), which in a finite (so Artinian) ring is the nilradical {a : a**N == 0}."""
        ideal = IdealSet.from_flags(self._nth_powers == 0)
        if not self.is_ideal(ideal):
            raise InternalConsistencyError("radical is not an ideal; operations are inconsistent")
        return ideal

    @cached_property
    def idempotent_elements(self) -> tuple[int, ...]:
        idx = self._idx
        return tuple((self.mul_op(idx, idx) == idx).nonzero()[0].tolist())

    def _power(self, base: np.ndarray, exponent: int) -> np.ndarray:
        """base**exponent elementwise, by square-and-multiply through `mul_op`, starting from
        base**(lowest set bit of the exponent) rather than from ones."""
        if not exponent:
            return np.full(len(base), self.one)
        power = None
        while True:
            if exponent & 1:
                power = base if power is None else self.mul_op(power, base)
            exponent >>= 1
            if not exponent:
                return power
            base = self.mul_op(base, base)

    @cached_property
    def _nth_powers(self) -> np.ndarray:
        """a**N for every a, N = size.bit_length(): each local component of a is a unit, whose
        powers stay units, or nilpotent, and then a**N is 0 there.

        For nilpotent a the ideals R > aR > a^2 R > ... shrink strictly until they reach 0 (were
        a^k R = a^(k+1) R != 0, a^k = a^(k+1) r would give a^k = a^(k+j) r^j = 0), and each is an
        additive subgroup of the one before, so at least halves it: a^k R = 0 once 2^k > |R|.  So
        a's index is at most log2 |R| < N, and the same bound holds in each e*R.
        """
        powers = self._power(self._idx, self.size.bit_length())
        powers.setflags(write=False)
        return powers

    @cached_property
    def nilpotent_elements(self) -> tuple[int, ...]:
        """Elements with a**N == 0, the members of the Jacobson radical."""
        return tuple((self._nth_powers == 0).nonzero()[0].tolist())

    @property
    def is_reduced(self) -> bool:
        return len(self.nilpotent_elements) == 1

    @cached_property
    def characteristic(self) -> int:
        succ = self.add_row(self.one).tolist()
        x = self.one
        for k in range(1, self.size + 1):  # k * 1 is 0 by k = n in a group of order n
            if x == 0:
                return k
            x = succ[x]
        raise RingAxiomError("additive order", (self.one,))

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
            current = member.nonzero()[0]
            grown = member.copy()
            for a in self._row_blocks(current):
                grown[self.mul_op(a, self._idx)] = True
                grown[self.add_op(a, current)] = True
            if (grown == member).all():
                break
            member = grown
        return IdealSet.from_flags(member)

    def principal_ideal(self, a: int) -> IdealSet:
        self._check_index(a)
        member = np.zeros(self.size, dtype=bool)
        member[self.mul_row(a)] = True
        return IdealSet.from_flags(member)

    @cached_property
    def primitive_idempotents(self) -> tuple[int, ...]:
        """Nonzero idempotents e with no other nonzero idempotent f = e*f below them.

        Refines the start atoms, a product's factor identities or else {1}: each
        atom a split by an idempotent f (a*f not in {0, a}) becomes a*f and
        a + (-1)*(a*f).  It stops at m atoms once the ring has 2**m idempotents.
        The atoms are orthogonal with sum 1, which `maximal_ideals` certifies, so
        their 2**m subset sums are distinct idempotents, and then they are all of
        them: an idempotent f = a*f below an atom a is a subset sum that a fixes,
        so 0 or a itself.  That saves the round that would only confirm that no
        atom splits, so a local ring, and a product of local factors, runs none;
        a non-local factor such as Z/6 is split by the rounds.  A refinement that
        stalls before 2**m idempotents or passes them raises
        InternalConsistencyError.
        """
        idems = np.array(self.idempotent_elements)
        atoms = np.array(self._start_atoms or (self.one,))
        while 1 << len(atoms) < len(idems):
            products = self.mul_op(atoms[:, None], idems)
            split = (products != 0) & (products != atoms[:, None])
            rows = split.any(axis=1)
            if not rows.any():
                break
            part = products[rows, split[rows].argmax(axis=1)]
            rest = self.add_op(atoms[rows], self.mul_op(self._minus_one, part))
            atoms = np.concatenate([atoms[~rows], part, rest])
        if 1 << len(atoms) != len(idems):
            raise InternalConsistencyError(
                f"idempotent refinement ends at {len(atoms)} atoms, but there are "
                f"{len(idems)} idempotents"
            )
        return tuple(sorted(atoms.tolist()))

    @cached_property
    def maximal_ideals(self) -> tuple[IdealSet, ...]:
        """M_e = {a : e * a**N == 0} per primitive idempotent e, ordered by min(e + J).

        That is the order of R/J's primitive idempotents.  The idempotents are
        certified orthogonal with sum 1, the M_e must meet in J and miss 1, and
        up to CROSSCHECK_LIMIT elements the brute-force oracle must agree.  The
        membership matrix is kept for `unit_flags` and `signature_array`.
        """
        n = self.size
        idems = np.array(self.primitive_idempotents, dtype=np.int64)
        products = self.mul_op(idems[:, None], idems)
        if reduce(self.add_op, idems) != self.one or (products != np.diag(idems)).any():
            raise InternalConsistencyError(
                "primitive idempotents are not orthogonal idempotents that sum to 1"
            )
        radical = self.jacobson_radical.member_flags()
        least = self.add_op(idems[:, None], radical.nonzero()[0]).min(axis=1)  # min(e + J)
        ordered = idems[np.argsort(least, kind="stable")]
        member = self.mul_op(ordered[:, None], self._nth_powers) == 0
        ideals = tuple(IdealSet(n, m) for m in _masks(np.packbits(member, axis=1, bitorder="little")))
        if (member.all(axis=0) != radical).any():
            raise InternalConsistencyError("maximal ideals do not intersect in the radical")
        if member[:, self.one].any():
            raise InternalConsistencyError("maximal ideal contains the identity")
        if n <= CROSSCHECK_LIMIT:
            independent = {i.mask for i in maximal_ideals_bruteforce(self)}
            if {i.mask for i in ideals} != independent:
                raise InternalConsistencyError(
                    "idempotent-based maximal ideals disagree with brute force"
                )
        # Kept in a bytes buffer, as `IdealSet._flags` is, so that it fragments no heap.
        self._member_rows = np.frombuffer(member.tobytes(), bool).reshape(member.shape)
        return ideals

    @property
    def _membership(self) -> np.ndarray:
        """Row i flags the members of M_i: the matrix `maximal_ideals` evaluates and checks."""
        self.maximal_ideals
        return self._member_rows

    @property
    def maximal_ideal_count(self) -> int:
        return len(self.maximal_ideals)

    @cached_property
    def residue_field_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(self.size // len(m) for m in self.maximal_ideals))

    # -- signatures and comaximality ----------------------------------------

    @cached_property
    def signature_array(self) -> np.ndarray:
        """signature[a] has bit i set when a lies in maximal ideal i: row i of the membership
        matrix weighted by 2**i.  So exactly the units, the elements in no M_e, have signature 0."""
        self.unit_flags  # certified first: the graphs read signature 0 as a unit
        member = self._membership
        sig = (np.int64(1) << np.arange(len(member))) @ member
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
        """Minimum-index representative of each coset of `ideal`, which must be an additive
        subgroup of this ring (an ideal is one).

        Returns (reps, rep_of), both read-only: the sorted distinct
        representatives and, for every element x, the representative of
        x + ideal.  Each ideal's cosets are scanned once per ring and kept, so
        the radical's serve P4.7a-c and `quotient` alike.  A member set that is
        not an additive subgroup raises InternalConsistencyError.
        """
        if ideal.ring_size != self.size:
            raise ValueError("ideal belongs to a ring of different size")
        if ideal.mask not in self._cosets:
            self._cosets[ideal.mask] = self._scan_cosets(ideal)
        return self._cosets[ideal.mask]

    @cached_property
    def _cosets(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """`coset_representatives` of each ideal scanned so far, by mask."""
        return {}

    def _scan_cosets(self, ideal: IdealSet) -> tuple[np.ndarray, np.ndarray]:
        """The scan behind `coset_representatives`.

        With |I|**2 <= n, the least of j + x over the members j: |I| row calls.  Else one
        ascending sweep: the cosets partition the ring, so the lowest unlabelled x is the least
        of x + I, and all of x + I is labelled x by one call, n / |I| calls in all.  The sweep
        checks that each coset lands on unlabelled elements only and that none is left over.
        Then the additive walk of `is_ideal` checks that the members are a subgroup (on the radical,
        `jacobson_radical` has).
        """
        members = ideal.member_flags().nonzero()[0]
        if len(members) ** 2 <= self.size:
            blocks = self._row_blocks(members)
            rep_of = reduce(np.minimum, (self.add_op(j, self._idx).min(axis=0) for j in blocks))
        else:
            labels = np.full(self.size, -1)
            x = 0
            while x < self.size:
                coset = self.add_op(x, members)
                if (labels[coset] >= 0).any():
                    raise InternalConsistencyError("cosets overlap: the members are not a subgroup")
                labels[coset] = x
                x += int((labels[x:] < 0).argmax()) or self.size - x  # argmax is 0 once none is left
            if (labels < 0).any():
                raise InternalConsistencyError("cosets miss an element: the members are not a subgroup")
            rep_of = labels.astype(coset.dtype)
        walk = vars(self).get("jacobson_radical") != ideal  # `jacobson_radical` walked the radical
        if walk and (0 not in ideal or _additive_generators(self, ideal.member_flags()) is None):
            raise InternalConsistencyError("the members are not an additive subgroup")
        reps = (rep_of == self._idx).nonzero()[0]
        for kept in (reps, rep_of):
            kept.setflags(write=False)
        return reps, rep_of

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
        ring = RingTable(
            len(members),
            int(position[self.one]),
            lambda i, j: position[self.add_op(members[i], members[j])],
            lambda i, j: position[self.mul_op(members[i], members[j])],
            name=name,
        )
        ring._make_labels = lambda: (self.labels[x] for x in members.tolist())
        return ring

    # -- element-wise structure ----------------------------------------------

    @cached_property
    def _element_profiles(self) -> tuple[tuple[int, ...], ...]:
        """Per element: additive order, unit, idempotent and nilpotent flags, annihilator size.

        `ring_isomorphic` compares these; kept, as each ring meets many partners.
        """
        n = self.size
        idx = self._idx
        order = np.ones(n, dtype=np.int64)
        multiple = idx
        for _ in range(n):  # a walk that reaches 0 does so within n steps; past that it cycles
            if not (active := multiple != 0).any():
                break
            order += active
            multiple = np.where(active, self.add_op(multiple, idx), 0)
        if multiple.any():
            raise RingAxiomError("additive order", (int(np.flatnonzero(multiple)[0]),))
        ann = np.concatenate([(self.mul_op(a, idx) == 0).sum(axis=1) for a in self._row_blocks(idx)])
        flags = np.zeros((3, n), dtype=np.int64)
        flags[0] = self.unit_flags
        flags[1, list(self.idempotent_elements)] = 1
        flags[2, list(self.nilpotent_elements)] = 1
        return tuple(zip(order.tolist(), *flags.tolist(), ann.tolist()))

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
    """Componentwise product ring; index = mixed-radix over factor indices.

    Consecutive factors are grouped while a group has at most TABLE_LIMIT
    elements.  A group's table is composed mixed-radix from its factors' s x s
    law grids by broadcasting, in the group's own index type; each factor ring
    evaluates its grids once and keeps them (`_grids`), so a kept base factor
    serves every product it is in.  A product of at most TABLE_LIMIT elements
    is one group, whose tables the ring takes; a larger one looks each pair up
    once per group and accumulates the parts in the product's index type.
    A factor above TABLE_LIMIT is a group of its own and keeps its own law, so
    no table above TABLE_LIMIT elements is made.  The product's start atoms,
    which `primitive_idempotents` refines, are its factors' identities (a
    nested product's own start atoms) at their digits: orthogonal idempotents
    with sum 1.
    """
    if len(rings) < 2:
        raise ValueError("direct product needs at least two factors")
    sizes = [r.size for r in rings]
    total = math.prod(sizes)
    if total > max_size:
        raise CapacityError(f"product ring would exceed the size cap ({max_size})")
    groups: list[list[RingTable]] = []
    group_sizes: list[int] = []
    for r in rings:
        if groups and group_sizes[-1] * r.size <= TABLE_LIMIT:
            groups[-1].append(r)
            group_sizes[-1] *= r.size
        else:
            groups.append([r])
            group_sizes.append(r.size)

    def table(group: list[RingTable], size: int, law: str) -> np.ndarray:
        """The group's law as a table in its own index type: t[a, b] * w + out[c, d] at row
        a * w + c, column b * w + d, for a factor's grid t and the table out of the w elements
        of the factors after it.  Composed from the last factor to the first, so that the
        broadcast's inner axes are the accumulated table; t * w is below the group's size, so
        it fits that type."""
        dtype = np.min_scalar_type(size - 1)
        out = None
        for r in reversed(group):
            t = r._grids[law].astype(dtype, copy=False)
            if out is not None:
                w = len(out)
                t = (t[:, None, :, None] * w + out[None, :, None, :]).reshape(r.size * w, -1)
            out = t
        return out

    def mixed_radix(law: str, digits: tuple[np.ndarray, ...]) -> Op:
        """The law on group digits: digits[i][a] is group i's component of element a."""
        dtype = np.min_scalar_type(total - 1)
        ops = [
            getattr(g[0], law) if size > TABLE_LIMIT else _lookup(table(g, size, law), size, law)
            for g, size in zip(groups, group_sizes)
        ]

        def op(a, b):
            out = None
            for s, f, d in zip(group_sizes, ops, digits):
                part = f(d[a], d[b])
                if out is None:
                    out = part.astype(dtype)  # a copy of its own, scaled in place below
                else:  # in place: each whole-block temporary costs fresh pages
                    out *= s
                    out += part.astype(dtype, copy=False)  # a factor's own law (Z/n) gives intp
            return out

        return op

    if len(groups) == 1:
        add, mul = table(rings, total, "add_op"), table(rings, total, "mul_op")
    else:
        digits = np.unravel_index(np.arange(total), group_sizes)
        add, mul = mixed_radix("add_op", digits), mixed_radix("mul_op", digits)
    # Factor i's digit weighs the product of the sizes after it.
    weights = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
    ring = RingTable(
        total,
        sum(r.one * w for r, w in zip(rings, weights)),
        add,
        mul,
        name=" x ".join(r.name for r in rings),
    )
    # Each factor's start atoms (its identity, or a nested product's own) at its digit.
    ring._start_atoms = tuple(a * w for r, w in zip(rings, weights) for a in r._start_atoms or (r.one,))
    ring._make_labels = lambda: (
        "(" + ",".join(r.labels[d] for r, d in zip(rings, parts)) + ")"
        for parts in zip(*(d.tolist() for d in np.unravel_index(np.arange(total), sizes)))
    )
    return ring


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


def _additive_generators(ring: RingTable, within: np.ndarray | None = None) -> list[int] | None:
    """Greedy additive generating set: the identity, then the lowest element not yet spanned.

    Each generator g grows the span S to S + <g> by doubling: S u (S + g), then that
    u (that + 2g), ..., until the next translate 2^j g is spanned.  The cosets S + kg,
    k < 2^j, are distinct until ord(g mod S) of them are spanned, and 2^j g lies among
    them exactly then, so the walk stops at S + <g>: O(n log n) operations in all.
    Each translate is read off the span's flags, so it has at most n entries, also on a
    table that is not a group (the axiom check calls this walk before it checks
    associativity), where a translate may repeat a member.
    With `within` (membership flags), generators are its lowest unspanned members, and None
    is returned once a step leaves it, which happens exactly when it is not an additive group.
    """
    span = np.zeros(ring.size, dtype=bool)
    span[0] = True
    draw = ~span if within is None else within
    gens: list[int] = []
    while len(rest := (draw & ~span).nonzero()[0]):
        step = int(rest[0]) if gens or within is not None else ring.one
        gens.append(step)
        while not span[step]:
            moved = ring.add_op(span.nonzero()[0], step)
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

    An isomorphism is additive, so the images of r1's additive generators fix it.
    The search maps them in order, so its domain is the span of those mapped.
    A generator g goes to phi(a) * phi(b) alone when g = a * b for mapped a and b,
    and else to any unused element of r2 with g's profile; r1's one goes to r2's,
    the only idempotent unit.  Each image h extends phi by phi(x + g) = phi(x) + h
    along the walk x -> x + g from the domain, and is dropped when the walk
    revisits an element with another image, two images collide, or phi(a) * phi(b)
    != phi(ab) for mapped a, b and ab.  The search is complete: a true isomorphism
    passes every check, and its image of g is always among the candidates.
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
    prof1 = r1._element_profiles
    prof2 = r2._element_profiles
    if sorted(prof1) != sorted(prof2):
        return None
    gens = _additive_generators(r1)

    def candidates(phi: np.ndarray, g: int) -> list[int]:
        dom = np.flatnonzero(phi >= 0)
        for a in r1._row_blocks(dom):
            i, j = np.nonzero(r1.mul_op(a, dom) == g)
            if len(i):
                return [int(r2.mul_op(phi[a[i[0], 0]], phi[dom[j[0]]]))]
        unused = np.flatnonzero(np.bincount(phi[dom], minlength=n) == 0).tolist()
        return [h for h in unused if prof2[h] == prof1[g]]

    def extend(phi: np.ndarray, g: int, h: int) -> np.ndarray | None:
        """phi and phi(x + g) = phi(x) + h along the walk x -> x + g, or None at a conflict.

        Both laws commute, so products are checked on the pairs with a new element.
        """
        grown = phi.copy()
        frontier = np.flatnonzero(phi >= 0)
        while len(frontier):
            step, image = r1.add_op(frontier, g), r2.add_op(grown[frontier], h)
            seen = grown[step] >= 0
            if (grown[step[seen]] != image[seen]).any():
                return None
            frontier = step[~seen]
            grown[frontier] = image[~seen]
        dom = np.flatnonzero(grown >= 0)
        if len(_distinct(grown[dom], n)) < len(dom):
            return None
        for a in r1._row_blocks(np.flatnonzero(grown != phi)):
            ab = grown[r1.mul_op(a, dom)]
            if ((ab != r2.mul_op(grown[a], grown[dom])) & (ab >= 0)).any():
                return None
        return grown

    def search(phi: np.ndarray, level: int) -> np.ndarray | None:
        if level == len(gens):
            return phi
        for h in candidates(phi, gens[level]):
            grown = extend(phi, gens[level], h)
            found = None if grown is None else search(grown, level + 1)
            if found is not None:
                return found
        return None

    mapping = search(np.array([0] + [-1] * (n - 1)), 0)
    if mapping is None:
        return None
    iso = ElementMap(r1, r2, tuple(mapping.tolist()), isomorphism=True)
    if not iso.verify():
        raise InternalConsistencyError("search produced a mapping that fails verification")
    return iso
