"""Simulated memory subsystem.

Every program array and scalar lives here as raw 64-bit words; the
interpreter's loads and stores all pass through :class:`Memory`, which
gives fault injectors a single choke point and gives each element a
stable *address* (used by the rotated second checksum of Section 6.1).

Words store bit patterns (Python ints in ``[0, 2^64)``); values are
encoded/decoded according to the element type (IEEE-754 double or
two's-complement int64).  A bit flip is therefore exactly a bit flip in
the value's machine representation, as in the paper's fault-coverage
experiments.
"""

from __future__ import annotations

import struct
from typing import Iterable, Mapping

MASK64 = (1 << 64) - 1
WORD_BYTES = 8

_np = None


def lazy_numpy():
    """Module-level lazy numpy import (one attribute check per call).

    The bulk helpers (:meth:`Memory.initialize`, :meth:`Memory.to_array`)
    run on every campaign trial; a function-local ``import numpy`` per
    call costs a sys.modules lookup each time and keeps numpy a hard
    dependency of module import if hoisted naively — this helper does
    neither.
    """
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np


class MemoryError64(RuntimeError):
    """Out-of-bounds or undeclared access."""


def encode_value(value: float | int, elem_type: str) -> int:
    """Encode a Python value as a 64-bit pattern."""
    if elem_type == "f64":
        return struct.unpack("<Q", struct.pack("<d", float(value)))[0]
    if elem_type == "i64":
        return int(value) & MASK64
    raise ValueError(f"unknown element type {elem_type!r}")


def decode_value(bits: int, elem_type: str) -> float | int:
    """Decode a 64-bit pattern into a Python value."""
    bits &= MASK64
    if elem_type == "f64":
        return struct.unpack("<d", struct.pack("<Q", bits))[0]
    if elem_type == "i64":
        return bits - (1 << 64) if bits >= (1 << 63) else bits
    raise ValueError(f"unknown element type {elem_type!r}")


class _Region:
    """One array (or scalar, shape ()) in memory."""

    __slots__ = (
        "name", "shape", "elem_type", "base", "words", "is_shadow", "version"
    )

    def __init__(
        self,
        name: str,
        shape: tuple[int, ...],
        elem_type: str,
        base: int,
        is_shadow: bool,
    ) -> None:
        self.name = name
        self.shape = shape
        self.elem_type = elem_type
        self.base = base
        size = 1
        for extent in shape:
            size *= extent
        self.words = [0] * size
        self.is_shadow = is_shadow
        # Monotonic write-generation counter: bumped on every mutation a
        # *program* can perform (stores, pokes, initialization, restore).
        # Injected corruption (`flip_bits`, injector hooks) deliberately
        # does NOT bump it — a transient flip is invisible to software,
        # so checkpoint copy-on-write must not treat it as a dirty write.
        self.version = 0

    def offset(self, indices: tuple[int, ...]) -> int:
        shape = self.shape
        rank = len(shape)
        if len(indices) != rank:
            raise MemoryError64(
                f"{self.name}: rank {rank} indexed with {indices}"
            )
        # Unrolled rank-1/rank-2 fast paths: this sits on the hot path
        # of every simulated load and store.
        if rank == 1:
            index = indices[0]
            if 0 <= index < shape[0]:
                return index
        elif rank == 2:
            i, j = indices
            if 0 <= i < shape[0] and 0 <= j < shape[1]:
                return i * shape[1] + j
        elif rank == 0:
            return 0
        else:
            offset = 0
            for index, extent in zip(indices, shape):
                if not 0 <= index < extent:
                    break
                offset = offset * extent + index
            else:
                return offset
        raise MemoryError64(
            f"{self.name}{list(indices)}: index out of bounds "
            f"for shape {self.shape}"
        )


def _wild_word(name: str, indices: tuple[int, ...]) -> int:
    """Deterministic garbage for an out-of-range access."""
    import hashlib

    digest = hashlib.blake2b(
        f"{name}:{indices}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class Memory:
    """Word-addressed memory with per-access fault hooks.

    The optional ``injector`` (see :mod:`repro.runtime.faults`) is
    consulted on every load and store with the element's address; it
    may mutate the stored word (modelling corruption at rest) — the
    interpreter only ever sees what :meth:`load` returns.

    Injectors with :attr:`~repro.runtime.faults.FaultInjector.redirects`
    set are additionally offered the chance to *redirect* each access
    (address-generation faults): the access then reads or writes a
    different cell of the same region — or, out of bounds, takes the
    wild-access path.  Two invariants keep both backends bit-identical
    under redirection:

    * the redirect hook runs after the access counter advanced and only
      for accesses whose intended indices are themselves in bounds (a
      program's own wild access is never an injection site);
    * the *address* the fused ``*_addr`` methods return — the one the
      rotated checksums consume — is always that of the **intended**
      indices: under the paper's fault model address arithmetic lives
      in resilient registers, so the checksum machinery sees the
      architectural address while the memory honours the corrupted one.
    """

    def __init__(self, injector=None, wild_reads: bool = False) -> None:
        self._regions: dict[str, _Region] = {}
        self._next_base = 0x1000
        self.injector = injector
        self.load_count = 0
        self.store_count = 0
        self.wild_reads = wild_reads
        """With ``wild_reads=True`` an out-of-bounds access behaves like
        hardware with a corrupted address (paper Section 2.2: "an error
        in the addressing logic ... might result in an incorrect
        address"): the load returns a deterministic garbage word and a
        store is silently dropped, instead of aborting the simulation.
        Fault campaigns enable this; normal runs keep the strict checks
        so harness bugs surface."""
        self.wild_accesses = 0

    # -- declaration ----------------------------------------------------
    def declare(
        self,
        name: str,
        shape: Iterable[int] = (),
        elem_type: str = "f64",
        is_shadow: bool = False,
    ) -> None:
        if name in self._regions:
            raise MemoryError64(f"region {name!r} already declared")
        shape_t = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape_t):
            raise MemoryError64(f"negative extent in {name!r}: {shape_t}")
        region = _Region(name, shape_t, elem_type, self._next_base, is_shadow)
        self._regions[name] = region
        self._next_base += max(1, len(region.words)) * WORD_BYTES
        # Pad between regions so addresses stay distinctive.
        self._next_base += 64

    def has(self, name: str) -> bool:
        return name in self._regions

    def region_names(self, include_shadow: bool = False) -> list[str]:
        return [
            r.name
            for r in self._regions.values()
            if include_shadow or not r.is_shadow
        ]

    def shape(self, name: str) -> tuple[int, ...]:
        return self._region(name).shape

    def elem_type(self, name: str) -> str:
        return self._region(name).elem_type

    def address_of(self, name: str, indices: tuple[int, ...] = ()) -> int:
        region = self._region(name)
        try:
            return region.base + region.offset(indices) * WORD_BYTES
        except MemoryError64:
            if not self.wild_reads:
                raise
            return (_wild_word(name, indices) & 0xFFFF_FFF8) | 0x8000_0000

    # -- raw access -----------------------------------------------------
    def load_bits(self, name: str, indices: tuple[int, ...] = ()) -> int:
        region = self._region(name)
        try:
            offset = region.offset(indices)
        except MemoryError64:
            if not self.wild_reads:
                raise
            self.load_count += 1
            self.wild_accesses += 1
            return _wild_word(name, indices)
        self.load_count += 1
        injector = self.injector
        if injector is not None:
            if getattr(injector, "redirects", False):
                redirected = injector.redirect_load(self, name, indices)
                if redirected is not None:
                    try:
                        offset = region.offset(redirected)
                    except MemoryError64:
                        if not self.wild_reads:
                            raise
                        self.wild_accesses += 1
                        return _wild_word(name, redirected)
            mutated = injector.before_load(
                self, name, indices, region.words[offset]
            )
            if mutated is not None:
                region.words[offset] = mutated & MASK64
        return region.words[offset]

    def store_bits(self, name: str, indices: tuple[int, ...], bits: int) -> None:
        region = self._region(name)
        try:
            offset = region.offset(indices)
        except MemoryError64:
            if not self.wild_reads:
                raise
            self.store_count += 1
            self.wild_accesses += 1
            return
        self.store_count += 1
        injector = self.injector
        if injector is not None and getattr(injector, "redirects", False):
            redirected = injector.redirect_store(self, name, indices)
            if redirected is not None:
                try:
                    offset = region.offset(redirected)
                except MemoryError64:
                    if not self.wild_reads:
                        raise
                    self.wild_accesses += 1
                    return  # store dropped at a wild address
        region.words[offset] = bits & MASK64
        region.version += 1
        if injector is not None:
            mutated = injector.after_store(
                self, name, indices, region.words[offset]
            )
            if mutated is not None:
                region.words[offset] = mutated & MASK64

    def load_bits_addr(
        self, name: str, indices: tuple[int, ...] = ()
    ) -> tuple[int, int]:
        """Fused :meth:`load_bits` + :meth:`address_of` (one region walk).

        Counter, injector-hook and wild-read semantics are identical to
        calling the two methods in sequence; the compiled backend uses
        this on its hot path to avoid the double region lookup.
        """
        region = self._region(name)
        try:
            offset = region.offset(indices)
        except MemoryError64:
            if not self.wild_reads:
                raise
            self.load_count += 1
            self.wild_accesses += 1
            word = _wild_word(name, indices)
            return word, (word & 0xFFFF_FFF8) | 0x8000_0000
        self.load_count += 1
        address = region.base + offset * WORD_BYTES
        injector = self.injector
        if injector is not None:
            if getattr(injector, "redirects", False):
                redirected = injector.redirect_load(self, name, indices)
                if redirected is not None:
                    try:
                        offset = region.offset(redirected)
                    except MemoryError64:
                        if not self.wild_reads:
                            raise
                        self.wild_accesses += 1
                        # The architectural (intended) address is what
                        # the checksums rotate by.
                        return _wild_word(name, redirected), address
            mutated = injector.before_load(
                self, name, indices, region.words[offset]
            )
            if mutated is not None:
                region.words[offset] = mutated & MASK64
        return region.words[offset], address

    def store_bits_addr(
        self, name: str, indices: tuple[int, ...], bits: int
    ) -> int:
        """Fused :meth:`store_bits` + :meth:`address_of`; returns the
        stored element's address (same semantics as the sequence)."""
        region = self._region(name)
        try:
            offset = region.offset(indices)
        except MemoryError64:
            if not self.wild_reads:
                raise
            self.store_count += 1
            self.wild_accesses += 1
            return (_wild_word(name, indices) & 0xFFFF_FFF8) | 0x8000_0000
        self.store_count += 1
        address = region.base + offset * WORD_BYTES
        injector = self.injector
        if injector is not None and getattr(injector, "redirects", False):
            redirected = injector.redirect_store(self, name, indices)
            if redirected is not None:
                try:
                    offset = region.offset(redirected)
                except MemoryError64:
                    if not self.wild_reads:
                        raise
                    self.wild_accesses += 1
                    return address  # store dropped at a wild address
        region.words[offset] = bits & MASK64
        region.version += 1
        if injector is not None:
            mutated = injector.after_store(
                self, name, indices, region.words[offset]
            )
            if mutated is not None:
                region.words[offset] = mutated & MASK64
        return address

    def peek_bits(self, name: str, indices: tuple[int, ...] = ()) -> int:
        """Read without triggering fault hooks or counters (for tests)."""
        region = self._region(name)
        return region.words[region.offset(indices)]

    def poke_bits(self, name: str, indices: tuple[int, ...], bits: int) -> None:
        """Write without hooks (initialization, direct corruption)."""
        region = self._region(name)
        region.words[region.offset(indices)] = bits & MASK64
        region.version += 1

    # -- typed access ---------------------------------------------------
    def load(self, name: str, indices: tuple[int, ...] = ()) -> float | int:
        region = self._region(name)
        return decode_value(self.load_bits(name, indices), region.elem_type)

    def store(self, name: str, indices: tuple[int, ...], value: float | int) -> None:
        region = self._region(name)
        self.store_bits(name, indices, encode_value(value, region.elem_type))

    def peek(self, name: str, indices: tuple[int, ...] = ()) -> float | int:
        region = self._region(name)
        return decode_value(self.peek_bits(name, indices), region.elem_type)

    def poke(self, name: str, indices: tuple[int, ...], value: float | int) -> None:
        region = self._region(name)
        self.poke_bits(name, indices, encode_value(value, region.elem_type))

    # -- bulk helpers -----------------------------------------------------
    def initialize(self, name: str, values) -> None:
        """Fill a region from a nested sequence / numpy array / scalar.

        Bit-exact with per-element :func:`encode_value`: the fast path
        reinterprets a float64/int64 array as uint64 words (the same
        IEEE-754 / two's-complement patterns ``struct`` produces); inputs
        numpy cannot represent losslessly (object arrays, out-of-range
        Python ints) take the element loop.
        """
        np = lazy_numpy()
        region = self._region(name)
        flat = np.asarray(values).reshape(-1)
        if flat.size != len(region.words):
            raise MemoryError64(
                f"initializer for {name!r} has {flat.size} values, "
                f"region holds {len(region.words)}"
            )
        kind = flat.dtype.kind
        if region.elem_type == "f64" and kind in "iuf":
            bits = (
                np.ascontiguousarray(flat.astype(np.float64))
                .view(np.uint64)
                .tolist()
            )
        elif region.elem_type == "i64" and kind in "iu":
            # int64 <- smaller ints widen exactly; uint64 wraps like
            # ``int(v) & MASK64`` does.
            bits = (
                np.ascontiguousarray(flat.astype(np.int64))
                .view(np.uint64)
                .tolist()
            )
        else:
            bits = [
                encode_value(value, region.elem_type)
                for value in flat.tolist()
            ]
        region.words[:] = bits
        region.version += 1

    def to_array(self, name: str):
        """The region's current contents as a numpy array (no hooks)."""
        np = lazy_numpy()
        region = self._region(name)
        words = np.array(region.words, dtype=np.uint64)
        arr = (
            words.view(np.float64)
            if region.elem_type == "f64"
            else words.view(np.int64)
        )
        return arr.reshape(region.shape) if region.shape else arr.reshape(())

    def snapshot(self) -> dict[str, list[int]]:
        """Raw words of every region (for corruption diffing in tests)."""
        return {name: list(r.words) for name, r in self._regions.items()}

    # -- checkpoint support ----------------------------------------------
    def region_version(self, name: str) -> int:
        """Write-generation counter of a region (checkpoint dirtiness)."""
        return self._region(name).version

    def copy_region_words(self, name: str) -> tuple[int, ...]:
        """Immutable snapshot of a region's raw words (no hooks)."""
        return tuple(self._region(name).words)

    def restore_region_words(self, name: str, words) -> None:
        """Overwrite a region's raw words from a snapshot (no hooks).

        Counts as a program-visible write: the region's version is
        bumped so a later checkpoint re-copies the restored contents.
        """
        region = self._region(name)
        if len(words) != len(region.words):
            raise MemoryError64(
                f"snapshot for {name!r} has {len(words)} words, "
                f"region holds {len(region.words)}"
            )
        region.words[:] = words
        region.version += 1

    def flip_bits(
        self, name: str, indices: tuple[int, ...], bit_positions: Iterable[int]
    ) -> None:
        """Directly corrupt a cell (test/experiment helper)."""
        region = self._region(name)
        offset = region.offset(indices)
        word = region.words[offset]
        for bit in bit_positions:
            if not 0 <= bit < 64:
                raise ValueError(f"bit position {bit} out of range")
            word ^= 1 << bit
        region.words[offset] = word

    # -- internal -----------------------------------------------------
    def _region(self, name: str) -> _Region:
        region = self._regions.get(name)
        if region is None:
            raise MemoryError64(f"no region {name!r} declared")
        return region


def build_memory_for_program(
    program, params: Mapping[str, int], injector=None, wild_reads: bool = False
) -> Memory:
    """Declare all of a program's arrays and scalars.

    Array extents are affine in the parameters and are evaluated here.
    """
    from repro.ir.analysis import to_affine

    memory = Memory(injector=injector, wild_reads=wild_reads)
    for decl in program.arrays:
        shape = []
        for dim in decl.dims:
            affine = to_affine(dim, set(program.params))
            if affine is None:
                raise MemoryError64(
                    f"array {decl.name!r} extent {dim} is not affine in params"
                )
            shape.append(int(affine.evaluate(params)))
        memory.declare(
            decl.name, shape, elem_type=decl.elem_type, is_shadow=decl.is_shadow
        )
    for decl in program.scalars:
        memory.declare(
            decl.name, (), elem_type=decl.elem_type, is_shadow=decl.is_shadow
        )
    return memory
