"""Table 1 — percentage of undetected errors with modulo-add checksums.

Protocol (paper Section 6.1): an array of 64-bit integers is
initialized (all bits 0, all bits 1, or random); a 64-bit checksum is
computed; 2–6 bits chosen uniformly at random *over all bits of the
array* are flipped; the checksum is recomputed.  An error escapes
detection when the two checksums agree.  The two-checksum scheme adds
a second sum in which each word is left-rotated by bits 3–7 of its
element address before being added.

Implementation note: flipping k bits touches at most k words, so each
trial updates the checksum *incrementally* from the flipped words
(mathematically identical to recomputation, and what makes the 10^6
configuration affordable).  The paper runs 100 000 trials per cell;
the default here is scaled down and configurable
(``python -m repro.experiments.table1 --trials 100000`` reproduces the
paper's protocol exactly).

Each table cell is one :class:`~repro.campaign.ChecksumCampaignSpec`
run through the campaign engine (``repro.campaign``): trials are
seeded per-index, so ``--workers 4`` fans the cell out over processes
and produces *bit-identical* counts to the serial run.
:func:`run_cell` remains as the self-contained serial reference kernel
(one shared RNG) used by older tests and benchmarks.

Analytically expected rates (64-bit words, k=2): the flips cancel in
one checksum iff they hit the same bit position in different words
with opposite bit values — probability ``1/64 * 1/2 ≈ 0.78%`` for
random data, and ``(1/64)^2 ≈ 0.024%`` for all-0/all-1 data (only the
sign bit wraps).  The measured values in the paper — 0.79% and 0.025%
— are exactly these; this harness reproduces both.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, replace

MASK64 = (1 << 64) - 1
WORD_BITS = 64

PAPER_ROWS = {
    # (bits, N): (one-cs all0, one-cs all1, one-cs random,
    #             two-cs all0, two-cs all1, two-cs random)  [percent]
    (2, 10**2): (0.025, 0.025, 0.790, 0.011, 0.011, 0.024),
    (2, 10**4): (0.014, 0.014, 0.755, 0.0, 0.0, 0.017),
    (2, 10**6): (0.014, 0.014, 0.763, 0.0, 0.0, 0.022),
    (3, 10**2): (0.002, 0.002, 0.020, 0.0, 0.0, 0.0),
    (3, 10**4): (0.002, 0.002, 0.030, 0.0, 0.0, 0.0),
    (3, 10**6): (0.002, 0.002, 0.020, 0.0, 0.0, 0.0),
    (4, 10**2): (0.0, 0.0, 0.015, 0.0, 0.0, 0.0),
    (4, 10**4): (0.0, 0.0, 0.020, 0.0, 0.0, 0.0),
    (4, 10**6): (0.0, 0.0, 0.014, 0.0, 0.0, 0.0),
    (5, 10**2): (0.0, 0.0, 0.001, 0.0, 0.0, 0.0),
    (5, 10**4): (0.0, 0.0, 0.002, 0.0, 0.0, 0.0),
    (5, 10**6): (0.0, 0.0, 0.003, 0.0, 0.0, 0.0),
    (6, 10**2): (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (6, 10**4): (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (6, 10**6): (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}

PATTERNS = ("all0", "all1", "random")


@dataclass
class Table1Config:
    sizes: tuple[int, ...] = (10**2, 10**4, 10**6)
    bit_counts: tuple[int, ...] = (2, 3, 4, 5, 6)
    patterns: tuple[str, ...] = PATTERNS
    trials: int = 20_000
    seed: int = 12345
    base_address: int = 0x1000
    workers: int = 1
    """Worker processes per cell campaign (1 = in-process serial);
    results are bit-identical for any value."""


@dataclass
class Table1Row:
    bits: int
    size: int
    pattern: str
    undetected_one: float
    """Percent of trials the single checksum missed."""
    undetected_two: float
    """Percent of trials both checksums missed."""
    trials: int


def _rotl(value: int, amount: int) -> int:
    amount %= 64
    value &= MASK64
    if amount == 0:
        return value
    return ((value << amount) | (value >> (64 - amount))) & MASK64


def _rotation_for(index: int, base_address: int) -> int:
    address = base_address + index * 8
    return (address >> 3) & 0x1F


class _DataModel:
    """Word values without materializing huge all-0/all-1 arrays."""

    def __init__(self, pattern: str, size: int, rng: random.Random) -> None:
        self.pattern = pattern
        self.size = size
        if pattern == "random":
            self.words = [rng.getrandbits(64) for _ in range(size)]
        else:
            self.words = None

    def word(self, index: int) -> int:
        if self.words is not None:
            return self.words[index]
        return 0 if self.pattern == "all0" else MASK64


def run_cell(
    size: int,
    bits: int,
    pattern: str,
    trials: int,
    rng: random.Random,
    base_address: int = 0x1000,
) -> tuple[float, float]:
    """One table cell: % undetected for (one checksum, two checksums).

    Each trial draws ``bits`` distinct positions over the array's
    ``size * 64`` bits, groups them into per-word XOR masks, and checks
    whether the modular sum (and the rotated sum) change.
    """
    data = _DataModel(pattern, size, rng)
    total_bits = size * WORD_BITS
    missed_one = 0
    missed_two = 0
    for _ in range(trials):
        positions = rng.sample(range(total_bits), bits)
        masks: dict[int, int] = {}
        for position in positions:
            index, bit = divmod(position, WORD_BITS)
            masks[index] = masks.get(index, 0) ^ (1 << bit)
        delta_plain = 0
        delta_rot = 0
        for index, mask in masks.items():
            old = data.word(index)
            new = old ^ mask
            delta_plain = (delta_plain + new - old) & MASK64
            rotation = _rotation_for(index, base_address)
            delta_rot = (
                delta_rot + _rotl(new, rotation) - _rotl(old, rotation)
            ) & MASK64
        if delta_plain == 0:
            missed_one += 1
            if delta_rot == 0:
                missed_two += 1
    return (100.0 * missed_one / trials, 100.0 * missed_two / trials)


def cell_spec(
    config: Table1Config, bits: int, size: int, pattern: str
):
    """The campaign spec of one table cell.

    The cell's campaign seed is derived from the table seed and the
    cell coordinates, so cells are independent streams and any one cell
    (or any one trial within it) can be reproduced in isolation.
    """
    from repro.campaign import ChecksumCampaignSpec, derive_seed

    return ChecksumCampaignSpec(
        size=size,
        bits=bits,
        pattern=pattern,
        trials=config.trials,
        seed=derive_seed(config.seed, "table1", bits, size, pattern),
        base_address=config.base_address,
    )


def run_cell_campaign(
    config: Table1Config, bits: int, size: int, pattern: str
) -> Table1Row:
    """One table cell via the campaign engine (parallel, resumable)."""
    from repro.campaign import run_campaign

    result = run_campaign(
        cell_spec(config, bits, size, pattern),
        workers=config.workers,
        keep_records=False,
    )
    summary = result.summary()
    return Table1Row(
        bits=bits,
        size=size,
        pattern=pattern,
        undetected_one=100.0 * summary.missed_one / config.trials,
        undetected_two=100.0 * summary.missed_two / config.trials,
        trials=config.trials,
    )


def run_table1(
    config: Table1Config | None = None, workers: int | None = None
) -> list[Table1Row]:
    config = config or Table1Config()
    if workers is not None:
        config = replace(config, workers=workers)
    rows: list[Table1Row] = []
    for bits in config.bit_counts:
        for size in config.sizes:
            for pattern in config.patterns:
                rows.append(run_cell_campaign(config, bits, size, pattern))
    return rows


def format_table(rows: list[Table1Row], show_paper: bool = True) -> str:
    """Render measured (and paper) undetected percentages like Table 1."""
    lines = [
        "Table 1: Percentage of undetected errors "
        "(integer modulo addition checksums)",
        "",
        f"{'#bits':>5} {'N':>9} | {'1cs all0':>9} {'1cs all1':>9} "
        f"{'1cs rand':>9} | {'2cs all0':>9} {'2cs all1':>9} {'2cs rand':>9}",
        "-" * 84,
    ]
    by_key: dict[tuple[int, int], dict[str, Table1Row]] = {}
    for row in rows:
        by_key.setdefault((row.bits, row.size), {})[row.pattern] = row
    for (bits, size), cells in sorted(by_key.items()):
        one = [cells[p].undetected_one if p in cells else float("nan") for p in PATTERNS]
        two = [cells[p].undetected_two if p in cells else float("nan") for p in PATTERNS]
        lines.append(
            f"{bits:>5} {size:>9} | "
            + " ".join(f"{v:>8.3f}%" for v in one)
            + " | "
            + " ".join(f"{v:>8.3f}%" for v in two)
        )
        if show_paper and (bits, size) in PAPER_ROWS:
            p = PAPER_ROWS[(bits, size)]
            lines.append(
                f"{'paper':>5} {'':>9} | "
                + " ".join(f"{v:>8.3f}%" for v in p[:3])
                + " | "
                + " ".join(f"{v:>8.3f}%" for v in p[3:])
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[10**2, 10**4, 10**6],
    )
    parser.add_argument("--bits", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per cell (same-seed runs are "
        "bit-identical for any worker count)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    config = Table1Config(
        sizes=tuple(args.sizes),
        bit_counts=tuple(args.bits),
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    rows = run_table1(config)
    print(format_table(rows))


if __name__ == "__main__":
    main()
