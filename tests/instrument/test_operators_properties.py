"""Property-based tests for the checksum operator algebra.

The def/use scheme is sound only because of algebraic facts the unit
tests so far spot-checked: modulo addition is commutative and
associative (contributions may interleave in any order), the rotation
hardening is a bijection per word (it cannot *create* collisions), and
on a fault-free run the def and use checksums of any affine program
balance.  These are exactly the properties hypothesis can attack.
The same fuzzed programs also check that instrumenting one program
under several configs off its shared polyhedral analysis builds what a
cold analysis builds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument.operators import (
    MASK64,
    ModularAddChecksum,
    RotatedModularAddChecksum,
    XorChecksum,
    _rotate_left,
)

words = st.integers(min_value=0, max_value=MASK64)
word_lists = st.lists(words, min_size=0, max_size=40)
rotations = st.integers(min_value=0, max_value=63)
addresses = st.integers(min_value=0, max_value=2**32).map(lambda a: a & ~0x7)

modadd = ModularAddChecksum()
rotadd = RotatedModularAddChecksum()
xor = XorChecksum()


class TestModularAddAlgebra:
    @given(word_lists, st.randoms(use_true_random=False))
    def test_commutative_under_permutation(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert modadd.compute(shuffled) == modadd.compute(values)

    @given(word_lists, word_lists)
    def test_associative_composition(self, left, right):
        """Checksum of a concatenation = modular sum of the parts'
        checksums — the property that lets contributions accumulate in
        registers in any grouping."""
        combined = (modadd.compute(left) + modadd.compute(right)) & MASK64
        assert modadd.compute(left + right) == combined

    @given(word_lists, st.integers(min_value=0, max_value=39), words)
    def test_incremental_update_equals_recompute(self, values, index, new):
        """A single-word change moves the checksum by (new - old): the
        incremental update Table 1 relies on."""
        if not values:
            return
        index %= len(values)
        old = values[index]
        changed = list(values)
        changed[index] = new
        delta = (new - old) & MASK64
        assert modadd.compute(changed) == (
            (modadd.compute(values) + delta) & MASK64
        )

    @given(word_lists)
    def test_xor_is_self_inverse(self, values):
        doubled = values + values
        assert xor.compute(doubled) == 0


class TestRotationBijection:
    @given(words, rotations)
    def test_rotate_inverse(self, word, amount):
        """rotl(·, r) composed with rotl(·, 64-r) is the identity —
        rotation is a bijection on 64-bit words, so the hardened
        checksum never merges two distinct words."""
        back = _rotate_left(_rotate_left(word, amount), (64 - amount) % 64)
        assert back == word

    @given(words, rotations)
    def test_rotate_preserves_popcount(self, word, amount):
        assert bin(_rotate_left(word, amount)).count("1") == bin(word).count(
            "1"
        )

    @given(words, words, rotations)
    def test_rotate_injective(self, a, b, amount):
        if a != b:
            assert _rotate_left(a, amount) != _rotate_left(b, amount)

    @given(word_lists, word_lists, addresses)
    def test_rotadd_composition_with_addresses(self, left, right, base):
        """The rotated checksum composes like the plain one when the
        second block's base address accounts for the first block."""
        combined = (
            rotadd.compute(left, base)
            + rotadd.compute(right, base + 8 * len(left))
        ) & MASK64
        assert rotadd.compute(left + right, base) == combined


class TestFaultFreeBalance:
    """Def/use checksums balance on fault-free runs of random affine
    programs — the soundness half of the paper's scheme, fuzzed."""

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_generated_program_balances(self, seed):
        from repro.instrument.pipeline import (
            InstrumentationOptions,
            instrument_program,
        )
        from repro.ir.generate import MIN_PARAM, random_affine_program
        from repro.runtime.interpreter import run_program

        program = random_affine_program(seed)
        instrumented, _ = instrument_program(
            program, InstrumentationOptions(index_set_splitting=seed % 2 == 0)
        )
        rng = np.random.default_rng(seed)
        values = {
            decl.name: rng.uniform(-1.0, 1.0, size=(MIN_PARAM + 2,) * len(decl.dims))
            for decl in program.arrays
        }
        result = run_program(
            instrumented, {"n": MIN_PARAM + 2}, initial_values=values
        )
        assert not result.mismatches

    def test_seeded_loop_balances_with_two_channels(self):
        """The rotated second channel must balance too (seeded loop
        rather than hypothesis: each case is an interpreter run)."""
        from repro.instrument.pipeline import (
            InstrumentationOptions,
            instrument_program,
        )
        from repro.ir.generate import MIN_PARAM, random_affine_program
        from repro.runtime.interpreter import run_program

        for seed in (1, 2, 3):
            program = random_affine_program(seed)
            instrumented, _ = instrument_program(
                program, InstrumentationOptions()
            )
            rng = np.random.default_rng(seed + 100)
            values = {
                decl.name: rng.uniform(
                    -1.0, 1.0, size=(MIN_PARAM + 2,) * len(decl.dims)
                )
                for decl in program.arrays
            }
            result = run_program(
                instrumented,
                {"n": MIN_PARAM + 2},
                initial_values=values,
                channels=2,
            )
            assert not result.mismatches


class TestSharedAnalysis:
    """Back-to-back configs of one generated program read a single
    polyhedral analysis; each must build what it builds from a cleared
    store (the benchmark version is tests/poly/test_analysis.py)."""

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_back_to_back_configs_match_cold_builds(self, seed):
        from repro.ir.generate import random_affine_program
        from repro.service.store import clear_store, store_stats

        from tests.poly.test_analysis import CONFIGS, instrumented_fingerprint

        program = random_affine_program(seed)
        clear_store()
        shared = [
            instrumented_fingerprint(program, options) for options in CONFIGS
        ]
        assert store_stats()["poly"]["misses"] == 1
        for options, expected in zip(CONFIGS, shared):
            clear_store()
            assert instrumented_fingerprint(program, options) == expected
