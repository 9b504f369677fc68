"""Helpers shared by the workloads: paths, set-up probes, tallies, output."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

#: The benchmark runs from the root of a checkout.
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for checkpoints and span dumps (ignored by git).
WORK = os.path.join(ROOT, ".layerbench")

#: Every per-layer metric with its unit.  Each workload reports all of
#: them: a layer a workload bypasses reads 0, which is the "predicted no
#: change" half of the layer -> metric -> workload map in README.md.
PER_LAYER = {
    "fingerprint.state_s": "s",
    "fingerprint.state_calls": "count",
    "fingerprint.orbit_s": "s",
    "fingerprint.orbit_calls": "count",
    "simulator.advance_s": "s",
    "simulator.advance_calls": "count",
    "simulator.fork_s": "s",
    "simulator.fork_calls": "count",
    "simulator.choices_s": "s",
    "simulator.choices_calls": "count",
    "simulator.result_s": "s",
    "explorer.self_s": "s",
    "explorer.events": "count",
    "explorer.cache_hit_ratio": "ratio",
    "explorer.sleep_pruned": "count",
    "independence.classify_s": "s",
    "independence.classify_calls": "count",
    "independence.memo_hit_ratio": "ratio",
    "checkpoint.write_s": "s",
    "checkpoint.write_calls": "count",
    "checkpoint.write_bytes": "bytes",
    "checkpoint.read_s": "s",
    "property.observe_s": "s",
    "property.terminal_s": "s",
    "protocol.encode_s": "s",
    "protocol.reply_bytes": "bytes",
    "descriptor.build_s": "s",
    "descriptor.digest_s": "s",
    "memo.get_s": "s",
    "memo.get_calls": "count",
    "memo.put_s": "s",
    "memo.evictions": "count",
    "memo.hit_ratio": "ratio",
    "jobs.submit_s": "s",
    "service.dispatch_s": "s",
    "jobs.per_batch": "jobs/batch",
    "jobs.explore_s": "s",
    "jobs.overhead_ms": "ms",
    "jobs.records": "count",
    "server.rss_end_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict[str, str]:
    """The environment for child interpreters: the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed; a failure is logged, not raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok


def setup_probe(workload: str, tally: Tally) -> float | None:
    """Seconds from spawning a fresh interpreter until it reports ready.

    The probe (``probe.py``) imports the workload's modules and builds
    its inputs; on the service workloads it also starts a server and
    waits until it listens.  It stops everything it started before exiting.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if tally.check(
        line.strip() == "ready" and code == 0,
        f"set-up probe for {workload} exited {code} after {line!r}",
    ):
        return elapsed
    return None


class ProbeSchedule:
    """``count`` set-up probes spread over a run of ``seconds``.

    Probes fired in one burst drift together with whatever else the
    machine is doing at that moment; spread over the run, their median
    sees the same conditions as the timed work.
    """

    def __init__(self, workload: str, count: int, seconds: float,
                 tally: Tally) -> None:
        self._workload = workload
        self._count = count
        self._seconds = seconds
        self._tally = tally
        self.samples: list[float] = []
        self._fired = 0

    def maybe_fire(self, elapsed: float) -> None:
        """Fire one probe if the run has reached the next probe's slot."""
        if self._fired < self._count and (
            elapsed >= self._fired * self._seconds / self._count
        ):
            self.fire()

    def fire(self) -> None:
        self._fired += 1
        sample = setup_probe(self._workload, self._tally)
        if sample is not None:
            self.samples.append(sample)

    def finish(self) -> None:
        """Fire the probes the run has not reached yet."""
        while self._fired < self._count:
            self.fire()

    def median(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0


def verdict_metrics(small: list[float], large: list[float], wall: float,
                    tally: Tally) -> dict[str, tuple[float, str]]:
    """``small_ms``, ``large_ms`` and ``ops_per_s`` of a run.

    ``small`` and ``large`` hold the seconds of each small- and
    large-class operation; ``wall`` is the time the timed operations
    took together.  Each class is averaged on its own, so neither
    class's cost hides in the other's; a mean, not a percentile, because
    the machine's speed changes within a run (README.md, Steadiness).
    """
    metrics: dict[str, tuple[float, str]] = {}
    for size, seconds in (("small", small), ("large", large)):
        if not seconds:
            tally.check(False, f"no successful {size} operations")
            seconds = [0.0]
        metrics[f"{size}_ms"] = (statistics.fmean(seconds) * 1000, "ms")
        log(f"{len(seconds)} {size} operations, "
            f"mean {metrics[f'{size}_ms'][0]:.3f} ms")
    metrics["ops_per_s"] = (
        (len(small) + len(large)) / wall if wall > 0 else 0.0, "1/s"
    )
    return metrics


def proc_status_mb(pid: int, field: str) -> float:
    """A ``VmRSS``/``VmHWM``-style field of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def emit(tally: Tally, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result line (always the last line of standard output)."""
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and tally.attempted > 0,
                "attempted": max(1, tally.attempted),
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


class ExploreCounters:
    """Engine counters summed over exploration results."""

    def __init__(self) -> None:
        self.events = 0
        self.seen = 0
        self.deduped = 0
        self.pruned = 0
        self.memo_queries = 0
        self.memo_hits = 0

    def add(self, result) -> None:
        """Add one result: an ``ExplorationResult`` or an object with
        the attributes of its ``to_json`` form."""
        self.events += result.events_executed
        self.seen += result.states_seen
        self.deduped += result.states_deduped
        self.pruned += result.states_pruned_sleep
        self.memo_queries += result.independence_stats.get("memo_queries", 0)
        self.memo_hits += result.independence_stats.get("memo_hits", 0)


def explore_layer_values(layers: dict, counters: ExploreCounters,
                         per: int = 1) -> dict[str, float]:
    """The exploration layers' metrics, divided by ``per`` (passes).

    ``layers`` is ``tracing.layer_totals`` over the exploration spans.
    """

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0) / per

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0) / per

    return {
        "fingerprint.state_s": self_s("fingerprint.state"),
        "fingerprint.state_calls": calls("fingerprint.state"),
        "fingerprint.orbit_s": self_s("fingerprint.orbit"),
        "fingerprint.orbit_calls": calls("fingerprint.orbit"),
        "simulator.advance_s": self_s("simulator.advance"),
        "simulator.advance_calls": calls("simulator.advance"),
        "simulator.fork_s": self_s("simulator.fork"),
        "simulator.fork_calls": calls("simulator.fork"),
        "simulator.choices_s": self_s("simulator.choices"),
        "simulator.choices_calls": calls("simulator.choices"),
        "simulator.result_s": self_s("simulator.result"),
        "explorer.self_s": self_s("explorer.explore"),
        "explorer.events": counters.events / per,
        "explorer.cache_hit_ratio": (
            counters.deduped / (counters.seen + counters.deduped)
            if counters.seen + counters.deduped
            else 0.0
        ),
        "explorer.sleep_pruned": counters.pruned / per,
        "independence.classify_s": self_s("independence.classify"),
        "independence.classify_calls": calls("independence.classify"),
        "independence.memo_hit_ratio": (
            counters.memo_hits / counters.memo_queries
            if counters.memo_queries
            else 0.0
        ),
        "checkpoint.write_s": self_s("checkpoint.write"),
        "checkpoint.write_calls": calls("checkpoint.write"),
        "checkpoint.write_bytes": (
            layers.get("checkpoint.write", {}).get("value", 0) / per
        ),
        "checkpoint.read_s": self_s("checkpoint.read"),
        "property.observe_s": self_s("property.observe"),
        "property.terminal_s": self_s("property.terminal"),
    }


def per_layer(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, 0 where this workload has no value."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: (values.get(name, 0), unit) for name, unit in PER_LAYER.items()
    }
