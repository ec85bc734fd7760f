"""Table 1 — fault coverage of the modulo-addition checksums.

Benchmarks the campaign kernel and regenerates the table's rows at a
reduced trial count (the full 100 000-trial protocol is
``python -m repro.experiments.table1 --trials 100000``).  Assertions
pin the paper-reproducing rates: 2-bit random-data misses near 0.78%,
all-0/all-1 misses near 0.024%, two-checksum misses an order of
magnitude rarer, and ≥3-bit errors essentially always caught.

The campaign-engine path (``repro.campaign``) is benchmarked alongside
the legacy serial kernel, including the parallel-speedup contract: on a
machine with ≥4 cores, a ≥500-trial cell campaign on 4 workers must
beat serial by ≥2.5× while producing bit-identical counts.
"""

import os
import random
import time

import pytest

from repro.campaign import ChecksumCampaignSpec, run_campaign
from repro.experiments.table1 import (
    Table1Config,
    run_cell,
    run_cell_campaign,
    run_table1,
)

TRIALS = 8_000


@pytest.mark.parametrize("pattern", ["all0", "all1", "random"])
@pytest.mark.parametrize("size", [100, 10_000])
def test_two_bit_coverage(benchmark, pattern, size):
    rng = random.Random(1234)

    def campaign():
        return run_cell(size, 2, pattern, TRIALS, rng)

    one, two = benchmark.pedantic(campaign, rounds=1, iterations=1)
    if pattern == "random":
        assert 0.4 <= one <= 1.2, f"paper: ~0.76-0.79%, got {one}%"
    else:
        assert one <= 0.15, f"paper: ~0.014-0.025%, got {one}%"
    assert two <= one


@pytest.mark.parametrize("bits", [3, 4, 5, 6])
def test_multi_bit_coverage(benchmark, bits):
    rng = random.Random(99)

    def campaign():
        return run_cell(100, bits, "random", TRIALS, rng)

    one, two = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert one <= 0.25, f"{bits}-bit misses should be rare, got {one}%"
    assert two == 0.0, f"paper: two checksums catch all {bits}-bit errors"


def test_full_table_rows(benchmark):
    """All 30 cells of the (reduced-trials) table in one sweep."""
    config = Table1Config(
        sizes=(100, 10_000),
        bit_counts=(2, 3, 4),
        trials=2_000,
    )
    rows = benchmark.pedantic(run_table1, args=(config,), rounds=1, iterations=1)
    assert len(rows) == 2 * 3 * 3
    worst = max(r.undetected_one for r in rows)
    assert worst <= 1.5  # >99% detection in every cell (paper Section 6.1)


@pytest.mark.parametrize("pattern", ["all0", "random"])
def test_engine_cell_campaign(benchmark, pattern):
    """The campaign-engine path of one table cell (serial)."""
    config = Table1Config(trials=TRIALS, seed=77)

    def campaign():
        return run_cell_campaign(config, 2, 100, pattern)

    row = benchmark.pedantic(campaign, rounds=1, iterations=1)
    if pattern == "random":
        assert 0.4 <= row.undetected_one <= 1.2
    else:
        assert row.undetected_one <= 0.15
    assert row.undetected_two <= row.undetected_one


def test_engine_matches_itself_across_worker_counts(benchmark):
    """Counts are bit-identical for any worker count (cheap guard; the
    full per-record differential lives in tests/campaign/)."""
    spec = ChecksumCampaignSpec(
        size=100, bits=2, pattern="random", trials=4_000, seed=13
    )

    def both():
        serial = run_campaign(spec, workers=1, keep_records=False)
        parallel = run_campaign(spec, workers=2, keep_records=False)
        return serial, parallel

    serial, parallel = benchmark.pedantic(both, rounds=1, iterations=1)
    assert serial.counts == parallel.counts


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >= 4 cores",
)
def test_four_worker_speedup():
    """ISSUE 1 acceptance: a >=500-trial Table 1 campaign on 4 workers
    runs >=2.5x faster than serial (trial count sized so worker startup
    is amortized, as in any real campaign)."""
    spec = ChecksumCampaignSpec(
        size=100, bits=2, pattern="random", trials=60_000, seed=99
    )
    start = time.perf_counter()
    serial = run_campaign(spec, workers=1, keep_records=False)
    serial_time = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_campaign(spec, workers=4, keep_records=False)
    parallel_time = time.perf_counter() - start
    assert serial.counts == parallel.counts
    speedup = serial_time / parallel_time
    assert speedup >= 2.5, (
        f"4-worker speedup {speedup:.2f}x "
        f"({serial_time:.2f}s serial vs {parallel_time:.2f}s parallel)"
    )
