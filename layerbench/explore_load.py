"""The exploration workloads: ``explore-dedup`` and ``explore-sleep``.

One *pass* explores every config of the workload once, in an order the
seed picks.  The seed never changes what is explored: every pass's
counters must equal the pins in ``pins.json``.

* ``explore-dedup`` runs the sequential dedup engine (transposition
  cache), so state fingerprinting dominates; no sleep sets and no
  checkpoints, so the independence oracle and checkpoint I/O do no work.
* ``explore-sleep`` runs the incremental engine with sleep sets (the
  crash-aware relation) and periodic checkpoints.  There is no
  transposition cache, so nothing is fingerprinted.  In each pass one
  config, chosen in rotation, is cancelled at a seeded node count and
  finished with ``resume_from``.

An *operation* is one config explored to its verdict, a cancelled one
together with its resume.  ``urb-n2``, the config with by far the
largest search in both workloads, is the large class; the other two
configs are the small class.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import time

import repro.runtime.explorer as explorer
from repro.server.descriptor import JobDescriptor

from common import (
    BENCH_DIR,
    WORK,
    ExploreCounters,
    ProbeSchedule,
    Tally,
    explore_layer_values,
    log,
    per_layer,
    proc_status_mb,
    verdict_metrics,
)
from tracing import EXPLORE_LAYERS, Tracer, layer_totals

#: Node expansions between periodic checkpoints on ``explore-sleep``.
CHECKPOINT_EVERY = 50
#: Counters a resumed run re-pays: a resume replays frontier prefixes.
RESUME_EXEMPT = frozenset({"events_executed"})
SETUP_PROBES = 5
#: The large-class config of each workload.
LARGE = frozenset({"urb-n2"})
#: Traced passes per traced run, each after an untraced one; spans are
#: held in memory (about 70k a pass on explore-sleep).
TRACED_PASSES = 3


_S2A_N3 = {"algorithm": "send-to-all", "n": 3,
           "scripts": {"0": ["a"], "1": ["b"]}}
_URB_N2 = {"algorithm": "uniform-reliable", "n": 2,
           "scripts": {"0": ["a"], "1": ["b"]}}
_SLEEP = {"engine": "incremental", "sleep_sets": True}

#: Each workload's configs, as the service's job descriptors.
CONFIGS = {
    "explore-dedup": {
        "s2a-n3-depth8": {**_S2A_N3, "engine": "dedup"},
        "s2a-n3-depth8-rename": {**_S2A_N3, "engine": "dedup",
                                 "symmetry": "rename"},
        "urb-n2": {**_URB_N2, "engine": "dedup"},
    },
    "explore-sleep": {
        "s2a-crash-n3-depth8": {**_S2A_N3, **_SLEEP, "max_depth": 8,
                                "crash_at_step": {"2": 4}},
        "s2a-totalorder-n2": {"algorithm": "send-to-all", "n": 2,
                              "scripts": {"0": ["x"], "1": ["y"]},
                              "spec": "total-order", **_SLEEP},
        "urb-n2": {**_URB_N2, **_SLEEP},
    },
}


def build_inputs(workload: str) -> list[tuple[str, tuple]]:
    """``(name, JobDescriptor.build())`` for every config of a workload."""
    return [
        (name, JobDescriptor.from_json(descriptor).build())
        for name, descriptor in CONFIGS[workload].items()
    ]


def observe(result) -> dict:
    """The pinned view of one exploration result.

    The problem digest is computed here, over the sorted distinct
    problem sets, so a change to the library's digest schema does not
    move the pin.
    """
    problems = sorted({v.problems for v in result.violations})
    return {
        "schedules_explored": result.schedules_explored,
        "terminal_schedules": result.terminal_schedules,
        "states_seen": result.states_seen,
        "states_deduped": result.states_deduped,
        "states_pruned_sleep": result.states_pruned_sleep,
        "events_executed": result.events_executed,
        "problems_digest": hashlib.sha256(
            json.dumps(problems).encode()
        ).hexdigest()[:32],
    }


def load_pins(workload: str) -> dict:
    with open(os.path.join(BENCH_DIR, "pins.json")) as handle:
        return json.load(handle)[workload]


class _CancelAfter:
    """A cooperative cancel token that fires at node entry ``nodes + 1``."""

    def __init__(self, nodes: int) -> None:
        self._left = nodes

    def is_set(self) -> bool:
        self._left -= 1
        return self._left < 0


class ExploreWorkload:
    def __init__(self, workload: str, seed: int, tally: Tally) -> None:
        self.workload = workload
        self.tally = tally
        self.rng = random.Random(seed)
        self.inputs = build_inputs(workload)
        self.rng.shuffle(self.inputs)
        self.pins = load_pins(workload)
        self.checkpoints = workload == "explore-sleep"
        self.workdir = os.path.join(WORK, workload)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.passes = 0

    def _cancel_plan(self) -> tuple[str, int] | None:
        """The config this pass cancels, and after how many nodes."""
        if not self.checkpoints:
            return None
        name = self.inputs[self.passes % len(self.inputs)][0]
        nodes = self.pins[name]["schedules_explored"]
        return name, self.rng.randrange(1, nodes)

    def _explore(self, built: tuple, tracer, **extra):
        simulator, scripts, prop, crash, kwargs = built
        if tracer is not None:
            prop = tracer.wrap_property(prop)
        return explorer.explore_schedules(
            simulator, scripts, prop, crash_schedule=crash, **kwargs, **extra
        )

    def _run_config(self, name, built, cancel_at, tracer, counters) -> None:
        extra: dict = {}
        if self.checkpoints:
            extra = {
                "checkpoint_to": os.path.join(
                    self.workdir, f"{name}.ckpt"
                ),
                "checkpoint_every": CHECKPOINT_EVERY,
            }
        exempt: frozenset = frozenset()
        if cancel_at is not None:
            partial = self._explore(
                built, tracer, cancel=_CancelAfter(cancel_at), **extra
            )
            if not self.tally.check(
                partial.interrupted,
                f"{name}: cancel after {cancel_at} nodes did not "
                f"interrupt the search",
            ):
                return
            extra["resume_from"] = extra["checkpoint_to"]
            exempt = RESUME_EXEMPT
        result = self._explore(built, tracer, **extra)
        got = observe(result)
        pins = self.pins[name]
        wrong = {
            key: (got[key], pins[key])
            for key in pins
            if key not in exempt and got[key] != pins[key]
        }
        if self.tally.check(
            result.exhausted and not result.interrupted and not wrong,
            f"{name} (resumed: {cancel_at is not None}): "
            f"exhausted={result.exhausted} mismatches (got, pinned)={wrong}",
        ):
            counters.add(result)

    def run_pass(self, tracer: Tracer | None = None,
                 counters: ExploreCounters | None = None) -> dict[str, float]:
        """Explore every config once; returns each config's seconds.

        ``counters``, when given, accumulates the results' counters.
        """
        plan = self._cancel_plan()
        counters = counters if counters is not None else ExploreCounters()
        times: dict[str, float] = {}
        if tracer is not None:
            tracer.install(EXPLORE_LAYERS)
        try:
            for name, built in self.inputs:
                cancel_at = plan[1] if plan and plan[0] == name else None
                started = time.perf_counter()
                try:
                    self._run_config(name, built, cancel_at, tracer, counters)
                except Exception as exc:  # counted, and the run goes on
                    self.tally.check(False, f"{name}: {exc!r}")
                times[name] = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.passes += 1
        return times


def run(workload: str, seed: int, seconds: float, trace: bool):
    tally = Tally()
    bench = ExploreWorkload(workload, seed, tally)
    if trace:
        bench.run_pass()  # warm-up, so neither side of the ratio pays it
        return tally, _traced(bench)
    probes = ProbeSchedule(workload, SETUP_PROBES, seconds, tally)
    small: list[float] = []
    large: list[float] = []
    wall = 0.0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or wall == 0.0:
        for name, elapsed in bench.run_pass().items():
            (large if name in LARGE else small).append(elapsed)
            wall += elapsed
        probes.maybe_fire(time.perf_counter() - started)
    probes.finish()
    log(f"{workload}: {bench.passes} passes")
    metrics = {
        "setup_s": (probes.median(), "s"),
        # VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so
        # it would report the launching process's peak when that is
        # larger
        "peak_rss_mb": (proc_status_mb(os.getpid(), "VmHWM"), "MB"),
        **verdict_metrics(small, large, wall, tally),
    }
    return tally, metrics


def _traced(bench: ExploreWorkload) -> dict:
    """Alternate untraced and traced passes; report per-layer metrics.

    Per-layer times, calls and counters are per traced pass.
    """
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    totals = ExploreCounters()
    for _ in range(TRACED_PASSES):
        plain.append(sum(bench.run_pass().values()))
        traced.append(sum(bench.run_pass(tracer, totals).values()))
    passes = len(traced)
    os.makedirs(WORK, exist_ok=True)
    dump = os.path.join(WORK, f"trace-{bench.workload}.jsonl")
    tracer.dump(dump)
    log(f"{bench.workload}: {len(tracer.spans)} spans over {passes} traced "
        f"passes written to {dump}")
    layers = layer_totals(tracer.spans)
    values = explore_layer_values(layers, totals, passes)
    values["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain)
    )
    # The layer each workload was chosen to bypass must see no calls.
    bypassed = {
        "explore-dedup": ("independence.classify_calls",
                          "checkpoint.write_calls"),
        "explore-sleep": ("fingerprint.state_calls",),
    }[bench.workload]
    for name in bypassed:
        bench.tally.check(
            values[name] == 0, f"{bench.workload}: {name} = {values[name]}"
        )
    return per_layer(values)
