"""Predicted fault-coverage aggregates per benchmark.

Where :mod:`repro.analysis.oracle` answers "what happens to trial
*i*?", this module integrates the classifier over the *whole* injection
distribution of each fault model — every (cell × strike time) for value
flips, every (start offset × strike time) for bursts, every (arm point
× cell) for stuck bits, every trigger for address-generation faults —
and reports exact class fractions per benchmark and per array:
``detected`` / ``masked`` / ``vulnerable`` / ``unknown`` /
``no_injection``.  These are closed-form expectations of what an
infinite campaign would measure (up to the ``unknown`` mass, which a
measured campaign splits empirically), computed without running a
single trial.

The polyhedral side (``poly`` section) reports the symbolic
ingredients the same prediction rests on: per-statement instance
cardinalities counted with :func:`repro.isl.counting.count_points` and
per-array live-in read-count polynomials over cell coordinates from
:func:`repro.poly.usecount.compute_live_in_counts` over the program's
shared model and dependences
(:func:`repro.poly.analysis.program_analysis`) — the piecewise
use-count machinery the instrumentation itself is built from.

On data-dependent programs (``cg``, ``moldyn``) a corrupted read can
change the event stream, so no class is ``detected`` or ``vulnerable``:
what is not provably ``masked`` is ``unknown``.  A spec the oracle
declines gets a ``conservative`` basis: every injected class is
``unknown``.

`analyze_all` produces the ``ANALYSIS_coverage.json`` artifact.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.classify import MASKED, UNKNOWN
from repro.analysis.oracle import CLASS_NO_INJECTION, StaticOracle
from repro.runtime.faults.base import cell_at, linear_offset
from repro.runtime.faults.spec import FAULT_MODELS

#: Burst / addrgen enumeration budget (cells x windows examined per
#: array); past it the entry degrades to all-``unknown`` with a note.
WORK_CAP = 2_000_000


def _size(shape: tuple[int, ...]) -> int:
    size = 1
    for extent in shape:
        size *= extent
    return size


def _merge(total: dict[str, float], part: dict[str, float], weight: float):
    for cls, fraction in part.items():
        total[cls] += fraction * weight


def _rounded(fractions: dict[str, float]) -> dict[str, float]:
    return {
        cls: round(fraction, 9)
        for cls, fraction in sorted(fractions.items())
        if fraction > 0
    }


class CoverageAnalyzer:
    """Exact class fractions over each model's injection distribution."""

    def __init__(self, oracle: StaticOracle, bits: int, burst_cells: int):
        self.oracle = oracle
        self.timeline = oracle.timeline
        self.classifier = oracle.classifier
        self.bits = bits
        self.burst_cells = burst_cells
        self.cells_by_array: dict[str, list[tuple[int, ...]]] = defaultdict(list)
        for name, cell in self.timeline.cells:
            self.cells_by_array[name].append(cell)

    # -- shared per-cell machinery --------------------------------------
    def _cell_fractions(self, array: str, cell) -> dict[str, float]:
        """Class fractions for a uniform strike time t in 1..total_loads
        landing on this cell."""
        total_loads = self.timeline.total_loads
        floors, windows = self.classifier.segments(array, cell)
        out: dict[str, float] = defaultdict(float)
        previous = 0
        for floor, window in zip(floors, windows):
            weight = max(0, min(floor, total_loads) - previous)
            previous = max(previous, min(floor, total_loads))
            if weight:
                _merge(
                    out,
                    self.classifier.window_fractions(window, self.bits),
                    weight / total_loads,
                )
        tail = total_loads - previous
        if tail > 0:
            out[MASKED] += tail / total_loads
        return out

    def _mean_over_injectable(self, per_array: dict[str, dict]) -> dict:
        injectable = self.oracle.injectable
        out: dict[str, float] = defaultdict(float)
        for name in injectable:
            _merge(out, per_array.get(name, {}), 1.0 / len(injectable))
        return out

    # -- models ----------------------------------------------------------
    def random_cell(self) -> tuple[dict, dict]:
        if self.bits == 0 or not self.oracle.injectable:
            return {CLASS_NO_INJECTION: 1.0}, {}
        per_array: dict[str, dict] = {}
        for name in self.oracle.injectable:
            size = _size(self.timeline.shapes[name])
            fractions: dict[str, float] = defaultdict(float)
            accessed = self.cells_by_array.get(name, [])
            for cell in accessed:
                _merge(fractions, self._cell_fractions(name, cell), 1.0 / size)
            untouched = size - len(accessed)
            if untouched:
                fractions[MASKED] += untouched / size
            per_array[name] = dict(fractions)
        return self._mean_over_injectable(per_array), per_array

    def burst(self) -> tuple[dict, dict]:
        if self.bits == 0 or self.burst_cells == 0 or not self.oracle.injectable:
            return {CLASS_NO_INJECTION: 1.0}, {}
        total_loads = self.timeline.total_loads
        per_array: dict[str, dict] = {}
        for name in self.oracle.injectable:
            shape = self.timeline.shapes[name]
            size = _size(shape)
            if size * self.burst_cells > WORK_CAP:
                per_array[name] = {UNKNOWN: 1.0, "note": "size cap"}
                continue
            mass: dict[str, float] = defaultdict(float)
            for start in range(size):
                covered = [
                    cell_at(offset, shape)
                    for offset in range(
                        start, min(start + self.burst_cells, size)
                    )
                ]
                boundaries = sorted(
                    {
                        floor
                        for cell in covered
                        for floor in self.classifier.segments(name, cell)[0]
                        if 0 < floor <= total_loads
                    }
                    | {total_loads}
                )
                previous = 0
                for boundary in boundaries:
                    weight = boundary - previous
                    previous = boundary
                    if weight <= 0:
                        continue
                    # All strike times in (previous, boundary] see the
                    # same window for every covered cell.
                    exposed = [
                        window
                        for window in (
                            self.classifier.window_at(name, cell, boundary)
                            for cell in covered
                        )
                        if not window.masked
                    ]
                    if not exposed:
                        mass[MASKED] += weight
                    elif len(exposed) == 1:
                        _merge(
                            mass,
                            self.classifier.window_fractions(
                                exposed[0], self.bits
                            ),
                            weight,
                        )
                    else:
                        mass[UNKNOWN] += weight
            per_array[name] = {
                cls: value / (size * total_loads)
                for cls, value in mass.items()
            }
        aggregate = self._mean_over_injectable(
            {
                name: {c: f for c, f in fractions.items() if c != "note"}
                for name, fractions in per_array.items()
            }
        )
        return aggregate, per_array

    def stuck_bit(self) -> tuple[dict, dict]:
        if not self.oracle.injectable:
            return {CLASS_NO_INJECTION: 1.0}, {}
        total_loads = self.timeline.total_loads
        per_array: dict[str, dict] = {}
        for name in self.oracle.injectable:
            size = _size(self.timeline.shapes[name])
            # A cell is provably benign for arm points past its last
            # load; everything else depends on the forced value.
            live = sum(
                self.timeline.last_load_ordinal(name, cell)
                for cell in self.cells_by_array.get(name, [])
            )
            masked = 1.0 - live / (size * total_loads)
            fractions = {MASKED: masked}
            if masked < 1.0:
                fractions[UNKNOWN] = 1.0 - masked
            per_array[name] = fractions
        return self._mean_over_injectable(per_array), per_array

    def addrgen_load(self) -> tuple[dict, dict]:
        total_loads = self.timeline.total_loads
        last = 0
        for name in self.oracle.targets:
            shape = self.timeline.shapes[name]
            if not shape or any(extent <= 0 for extent in shape):
                continue
            ordinals = self.timeline.loads_by_array.get(name)
            if ordinals:
                last = max(last, ordinals[-1])
        if last == 0:
            return {CLASS_NO_INJECTION: 1.0}, {}
        fractions: dict[str, float] = {}
        no_injection = (total_loads - last) / total_loads
        if no_injection > 0:
            fractions[CLASS_NO_INJECTION] = no_injection
        # A fired redirect reads a pristine word from the wrong cell —
        # structurally invisible to the def/use checksums; whether it
        # propagates to output is value-dependent (and on a
        # data-dependent program the wrong word may steer the stream).
        fractions[self.classifier.undecided] = 1.0 - no_injection
        return fractions, {}

    def addrgen_store(self) -> tuple[dict, dict]:
        timeline = self.timeline
        total_stores = timeline.total_stores
        qualifying = []
        for name in self.oracle.targets:
            shape = timeline.shapes[name]
            if not shape or any(extent <= 0 for extent in shape):
                continue
            for event in timeline.stores_by_array.get(name, []):
                qualifying.append((event.ordinal, name, event))
        qualifying.sort(key=lambda item: item[0])
        if not qualifying:
            return {CLASS_NO_INJECTION: 1.0}, {}
        if len(qualifying) * 20 > WORK_CAP:
            last = qualifying[-1][0]
            tail = (total_stores - last) / total_stores
            fractions = {UNKNOWN: 1.0 - tail}
            if tail > 0:
                fractions[CLASS_NO_INJECTION] = tail
            return fractions, {}
        mass: dict[str, float] = defaultdict(float)
        per_array_mass: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        previous = 0
        for ordinal, name, event in qualifying:
            weight = ordinal - previous
            previous = ordinal
            if weight <= 0:
                continue
            shape = timeline.shapes[name]
            size = _size(shape)
            effectful = any(count != 0 for _, count in event.contribs)
            offset = linear_offset(event.indices, shape)
            intended_dies = timeline.store_kills(name, event.indices, event)
            bit_count = size.bit_length()
            benign_bits = 0
            if intended_dies and not effectful:
                for bit in range(bit_count):
                    actual = cell_at(offset ^ (1 << bit), shape)
                    in_bounds = actual[0] < shape[0]
                    if not in_bounds or timeline.store_kills(
                        name, actual, event
                    ):
                        benign_bits += 1
            benign = benign_bits / bit_count
            # The non-benign remainder: a no-contribution redirected
            # store is the checksum-blind class (vulnerable); a store
            # that feeds checksums may or may not unbalance them.
            rest_class = UNKNOWN if effectful else self.classifier.undecided
            store_fractions = {MASKED: benign, rest_class: 1.0 - benign}
            _merge(mass, store_fractions, weight)
            _merge(per_array_mass[name], store_fractions, weight)
        tail = total_stores - previous
        if tail > 0:
            mass[CLASS_NO_INJECTION] += tail
        aggregate = {
            cls: value / total_stores for cls, value in mass.items()
        }
        per_array = {
            name: {
                cls: value / total_stores for cls, value in fractions.items()
            }
            for name, fractions in per_array_mass.items()
        }
        return aggregate, per_array

    def model_fractions(self, model: str) -> tuple[dict, dict]:
        handler = {
            "random_cell": self.random_cell,
            "burst": self.burst,
            "stuck_bit": self.stuck_bit,
            "addrgen_load": self.addrgen_load,
            "addrgen_store": self.addrgen_store,
        }[model]
        aggregate, per_array = handler()
        return (
            _rounded(aggregate),
            {
                name: (
                    dict(
                        _rounded(
                            {c: f for c, f in fractions.items() if c != "note"}
                        ),
                        **(
                            {"note": fractions["note"]}
                            if "note" in fractions
                            else {}
                        ),
                    )
                )
                for name, fractions in per_array.items()
            },
        )


def _poly_section(program, params: dict[str, int]) -> dict:
    """Symbolic cardinalities: statement domains + live-in read counts."""
    from repro.isl.counting import CountingError, count_points
    from repro.poly.analysis import program_analysis
    from repro.poly.usecount import compute_live_in_counts

    analysis = program_analysis(program)
    try:
        statements = {}
        total = 0
        for info in analysis.model.statements:
            counted = count_points(info.domain)
            instances = int(counted.evaluate(params))
            total += instances
            statements[info.label] = {
                "cardinality": str(counted),
                "instances": instances,
            }
        live_in = {
            name: str(poly)
            for name, poly in compute_live_in_counts(
                analysis.model, analysis.dependences
            ).items()
        }
    except CountingError as exc:
        return {"available": False, "reason": str(exc)}
    return {
        "available": True,
        "statement_instances": statements,
        "total_instances": total,
        "live_in_reads": live_in,
        "flow_dependences": len(analysis.dependences),
    }


def analyze_benchmark(
    benchmark: str,
    scale: str = "small",
    bits: int = 2,
    channels: int = 1,
    burst_cells: int = 4,
    stuck_window: int = 0,
    models=FAULT_MODELS,
    seed: int = 0,
) -> dict:
    """Full static-coverage entry for one benchmark."""
    from repro.campaign.spec import ProgramCampaignSpec

    spec = ProgramCampaignSpec(
        trials=1,
        seed=seed,
        benchmark=benchmark,
        scale=scale,
        bits=bits,
        channels=channels,
        burst_cells=burst_cells,
        stuck_window=stuck_window,
    )
    prepared = spec.prepare()
    oracle = StaticOracle(spec, prepared)
    raw_program, params, _ = spec._resolve()
    entry: dict = {
        "benchmark": benchmark,
        "scale": scale,
        "params": dict(params),
        "bits": bits,
        "channels": channels,
        "poly": _poly_section(raw_program, params),
    }
    if not oracle.enabled:
        entry["basis"] = "conservative"
        entry["reason"] = oracle.reason
        entry["models"] = {
            model: {"classes": {UNKNOWN: 1.0}, "per_array": {}}
            for model in models
        }
        return entry
    analyzer = CoverageAnalyzer(oracle, bits=bits, burst_cells=burst_cells)
    entry["basis"] = "timeline"
    entry["totals"] = {
        "loads": oracle.timeline.total_loads,
        "stores": oracle.timeline.total_stores,
    }
    entry["detection"] = {
        "allowed": oracle.classifier.detection_allowed,
        "valid_pairs": [list(pair) for pair in oracle.classifier.valid_pairs],
        "divide_hazard": oracle.timeline.divide_hazard,
    }
    entry["models"] = {}
    for model in models:
        aggregate, per_array = analyzer.model_fractions(model)
        entry["models"][model] = {
            "classes": aggregate,
            "per_array": per_array,
        }
    return entry


def analyze_all(
    benchmarks=None,
    scale: str = "small",
    bits: int = 2,
    channels: int = 1,
    burst_cells: int = 4,
    models=FAULT_MODELS,
) -> dict:
    """The ``ANALYSIS_coverage.json`` artifact."""
    from repro.programs import ALL_BENCHMARKS

    names = list(benchmarks) if benchmarks else sorted(ALL_BENCHMARKS)
    return {
        "version": 1,
        "scale": scale,
        "bits": bits,
        "channels": channels,
        "models": list(models),
        "benchmarks": {
            name: analyze_benchmark(
                name,
                scale=scale,
                bits=bits,
                channels=channels,
                burst_cells=burst_cells,
                models=models,
            )
            for name in names
        },
    }
