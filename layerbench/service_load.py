"""The service workloads: ``service-cold`` and ``service-hit``.

``python -m repro.server serve`` runs as its own process with one
worker (``--max-workers 1``) and digest-keyed checkpoints
(``--checkpoint-dir``).  This process is the load generator: one
asyncio client on one TCP connection, closed loop (the next request
goes out when the previous reply is in), so no two requests are ever in
flight together.

* ``service-cold`` — one server, ``--max-entries`` below the number of
  distinct keys, so writes evict.  Distinct descriptors from a fixed
  base pool, each with a unique ``max_schedules`` above its terminal
  count, so every key misses while the work per base descriptor stays
  the same.  The requests run in blocks, with a set-up probe between
  blocks.
* ``service-hit`` — blocks, each against a fresh server: prime the hit
  pool cold (untimed), then resubmit it closed loop (timed).  A server
  keeps every memo-hit record it served (README.md, service defects),
  so its heap, and with it the hit latency, grows with every hit; a
  fresh server per block keeps each block's heap, and the run's
  memory, the same from run to run.  A set-up probe runs before each
  block, so no cold job is ever in flight while a hit is timed.

The request sequence is a fixed multiset whose size depends only on
``--seconds``; the seed shuffles the order within each round.  Both
workloads hold large results (123-316 KB replies) beside small ones,
and report the mean latency of each class.  A percentile over the
mixture would fall on one class's modes or on the boundary between the
classes, and jump between them from run to run.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

from repro.server.client import ServiceClient

from common import (
    BENCH_DIR,
    ROOT,
    WORK,
    ExploreCounters,
    ProbeSchedule,
    Tally,
    child_env,
    explore_layer_values,
    log,
    per_layer,
    proc_status_mb,
    verdict_metrics,
)
from serve_traced import worker_spans_path
from tracing import layer_totals, load_spans

#: Small-result base descriptors (replies of 0.8-6 KB); each request
#: adds a ``max_schedules`` budget.
SMALL = {
    "urb-n2-1": {"algorithm": "uniform-reliable", "n": 2,
                 "scripts": {"0": ["a"]}},
    "causal-n2-1": {"algorithm": "causal", "n": 2, "scripts": {"0": ["a"]}},
    "s2a-n3-1": {"algorithm": "send-to-all", "n": 3, "scripts": {"0": ["a"]}},
    "s2a-n2": {"algorithm": "send-to-all", "n": 2,
               "scripts": {"0": ["a"], "1": ["b"]}},
    "s2a-n2-sleep": {"algorithm": "send-to-all", "n": 2,
                     "scripts": {"0": ["a"], "1": ["b"]}, "sleep_sets": True},
    "s2a-n2-crash": {"algorithm": "send-to-all", "n": 2,
                     "scripts": {"0": ["a"], "1": ["b"]},
                     "crash_at_step": {"1": 2}, "sleep_sets": True},
    "s2a-n2-to": {"algorithm": "send-to-all", "n": 2,
                  "scripts": {"0": ["x"], "1": ["y"]}, "spec": "total-order"},
}
#: Large-result base descriptors: send-to-all n=3 depth-8 checked against
#: specs it violates, 123-316 KB replies (265 KB under total order).
LARGE = {
    f"s2a-n3-{spec}": {"algorithm": "send-to-all", "n": 3,
                       "scripts": {"0": ["a"], "1": ["b"]}, "spec": spec}
    for spec in ("mutual", "pair", "first-k", "total-order", "kbo",
                 "k-stepped", "scd")
}
BASE = {**SMALL, **LARGE}

#: Large-result requests in each round, beside one of each small base:
#: two in nine requests have a large result.
LARGE_PER_ROUND = 2
#: ``service-hit``'s resident pool: one key of each small base and of
#: two large bases, the 265 KB total-order one among them.
HIT_POOL = tuple((base, 50_000) for base in SMALL) + (
    ("s2a-n3-total-order", 50_000), ("s2a-n3-mutual", 50_000),
)
#: ``service-hit``: rounds of the hit pool per block, and blocks per
#: second of ``--seconds`` (each block takes about six seconds).
HIT_ROUNDS_PER_BLOCK = 80
HIT_BLOCKS_PER_SECOND = 0.16
#: ``service-cold``: rounds per second of ``--seconds`` (a round takes
#: about 1.1 s), split into ``COLD_BLOCKS`` blocks.
COLD_ROUNDS_PER_SECOND = 0.7
COLD_BLOCKS = 5
COLD_BUDGET_BASE = 100_000
#: ``service-cold``'s memo bound, below its distinct keys, so writes evict.
COLD_MAX_ENTRIES = 16
SETUP_PROBES = 5
#: Seconds a reply may take before the session is abandoned, so a hung
#: server ends the run with failures instead of stalling it.
REQUEST_TIMEOUT = 30


def build_requests(workload: str, seed: int, seconds: float) -> dict:
    """The request plan: ``blocks`` of ``(base, budget)``, and for
    ``service-hit`` the pool each block's server is primed with."""
    rng = random.Random(seed)

    def rounds(count, pool):
        """``count`` rounds, round ``r`` being ``pool(r)`` shuffled."""
        sequence = []
        for index in range(max(1, count)):
            block = list(pool(index))
            rng.shuffle(block)
            sequence.extend(block)
        return sequence

    if workload == "service-hit":
        blocks = max(1, round(HIT_BLOCKS_PER_SECOND * seconds))
        return {
            "prime": list(HIT_POOL),
            "blocks": [
                rounds(HIT_ROUNDS_PER_BLOCK, lambda _: HIT_POOL)
                for _ in range(blocks)
            ],
        }
    large = list(LARGE)

    def cold_round(index):
        first = index * LARGE_PER_ROUND
        return list(SMALL) + [
            large[(first + k) % len(large)] for k in range(LARGE_PER_ROUND)
        ]

    count = max(1, round(COLD_ROUNDS_PER_SECOND * seconds))
    cold = [
        (base, COLD_BUDGET_BASE + index)
        for index, base in enumerate(rounds(count, cold_round))
    ]
    size = len(SMALL) + LARGE_PER_ROUND
    cuts = [size * (count * i // COLD_BLOCKS) for i in range(COLD_BLOCKS + 1)]
    return {
        "prime": [],
        "blocks": [cold[cuts[i]:cuts[i + 1]] for i in range(COLD_BLOCKS)
                   if cuts[i] < cuts[i + 1]],
    }


def load_pins() -> dict:
    with open(os.path.join(BENCH_DIR, "pins.json")) as handle:
        return json.load(handle)["service"]


class Server:
    """A ``repro.server serve`` process for a workload, stopped (SIGTERM)
    on exit."""

    def __init__(self, workload: str, *, traced: bool, tag: str) -> None:
        self.workdir = os.path.join(WORK, f"{workload}-{tag}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.spans_path = os.path.join(self.workdir, "spans.jsonl")
        launcher = (
            [os.path.join(BENCH_DIR, "serve_traced.py"),
             "--spans-out", self.spans_path]
            if traced
            else ["-m", "repro.server"]
        )
        bound = (
            ["--max-entries", str(COLD_MAX_ENTRIES)]
            if workload == "service-cold"
            else []
        )
        self.argv = [
            sys.executable, *launcher, "serve", "--port", "0",
            "--max-workers", "1",
            "--checkpoint-dir", os.path.join(self.workdir, "checkpoints"),
            *bound,
        ]
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def __enter__(self) -> "Server":
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.host, port = line.split()[-1].rsplit(":", 1)
            self.port = int(port)
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self.proc = None

    def status_mb(self, field: str) -> float:
        return proc_status_mb(self.proc.pid, field)


class Session:
    """One client connection driving the phases against one server."""

    def __init__(self, server: Server, tally: Tally, pins: dict,
                 counters: ExploreCounters | None = None) -> None:
        self.tally = tally
        self.pins = pins
        self.client = ServiceClient(server.host, server.port)
        #: phase -> list of (base, latency seconds, reply cost seconds)
        self.samples: dict[str, list[tuple[str, float, float]]] = {}
        #: When given, sums the engine counters of the cold replies.
        self.counters = counters
        #: phase -> [(block start, block end)]
        self.windows: dict[str, list[tuple[float, float]]] = {}
        self.final_stats: dict = {}
        self.aborted = False

    def wall(self, phase: str) -> float:
        return sum(end - start for start, end in self.windows.get(phase, []))

    async def submit(self, phase: str, base: str, budget: int) -> None:
        descriptor = dict(BASE[base], max_schedules=budget)
        expect_hit = phase == "hit"
        started = time.perf_counter()
        try:
            reply = await asyncio.wait_for(
                self.client.submit(descriptor, wait=True), REQUEST_TIMEOUT
            )
        except Exception as exc:  # counted, and the run goes on
            self.tally.check(False, f"{phase} {base}@{budget}: {exc!r}")
            self.aborted = isinstance(exc, asyncio.TimeoutError)
            return
        latency = time.perf_counter() - started
        pin = self.pins[base]
        result = reply.get("result") or {}
        if self.tally.check(
            reply.get("state") == "done"
            and reply.get("memo_hit") is expect_hit
            and reply.get("violations_digest") == pin["violations_digest"]
            and result.get("terminal_schedules") == pin["terminal_schedules"],
            f"{phase} {base}@{budget}: state={reply.get('state')} "
            f"memo_hit={reply.get('memo_hit')} (expected {expect_hit}) "
            f"digest={reply.get('violations_digest')} "
            f"terminals={result.get('terminal_schedules')}",
        ):
            self.samples.setdefault(phase, []).append(
                (base, latency, float(reply["cost_seconds"]))
            )
            if self.counters is not None and phase == "cold":
                self.counters.add(SimpleNamespace(**result))

    async def run_block(self, phase: str, requests: list) -> None:
        started = time.perf_counter()
        for base, budget in requests:
            if self.aborted:
                break
            await self.submit(phase, base, budget)
        self.windows.setdefault(phase, []).append(
            (started, time.perf_counter())
        )


#: The timed phase of each workload.
PHASE = {"service-cold": "cold", "service-hit": "hit"}


async def _session(server, prime, blocks, phase, tally, pins, probe=None,
                   counters=None):
    """Prime (untimed), then ``blocks`` of ``phase`` requests, over one
    connection.

    ``probe()`` runs between blocks; ``counters`` sums the cold
    replies' engine counters.
    """
    session = Session(server, tally, pins, counters)
    await session.client.connect()
    try:
        if prime:
            await session.run_block("prime", prime)
        for index, requests in enumerate(blocks):
            if index and probe is not None:
                probe()
            await session.run_block(phase, requests)
        if not session.aborted:
            session.final_stats = await session.client.stats()
    finally:
        await session.client.aclose()
    return session


def run(workload: str, seed: int, seconds: float, trace: bool):
    tally = Tally()
    pins = load_pins()
    if trace:
        return tally, _traced(workload, seed, seconds, tally, pins)
    phase = PHASE[workload]
    plan = build_requests(workload, seed, seconds)
    probes = ProbeSchedule(workload, SETUP_PROBES, seconds, tally)
    sessions = []
    peaks = []
    if workload == "service-cold":
        probes.fire()
        with Server(workload, traced=False, tag="main") as server:
            sessions.append(asyncio.run(_session(
                server, [], plan["blocks"], phase, tally, pins, probes.fire
            )))
            peaks.append(server.status_mb("VmHWM"))
    else:
        for requests in plan["blocks"]:
            probes.fire()
            with Server(workload, traced=False, tag="main") as server:
                sessions.append(asyncio.run(_session(
                    server, plan["prime"], [requests], phase, tally, pins
                )))
                peaks.append(server.status_mb("VmHWM"))
    probes.finish()
    samples = [sample for session in sessions
               for sample in session.samples.get(phase, [])]
    log(f"{workload}: {len(samples)} timed requests over "
        f"{len(sessions)} server(s)")
    metrics = {
        "setup_s": (probes.median(), "s"),
        # The server's VmHWM; on service-hit the median over its blocks'
        # servers, which all serve the same sequence.
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        **verdict_metrics(
            [lat for base, lat, _ in samples if base in SMALL],
            [lat for base, lat, _ in samples if base in LARGE],
            sum(session.wall(phase) for session in sessions),
            tally,
        ),
    }
    return tally, metrics


def _traced(workload: str, seed: int, seconds: float, tally: Tally,
            pins: dict) -> dict:
    """Per-layer metrics from a traced server.

    The same requests run first against an untraced server and then
    against one started through ``serve_traced.py``: the half-length
    sequence on ``service-cold``, one block on ``service-hit``.  The
    ratio of their timed walls is the tracing overhead.  Layer times are
    totals over the timed blocks; the exploration layers run in the
    server's forked workers, whose spans are read back from their files.
    """
    phase = PHASE[workload]
    plan = build_requests(workload, seed, seconds / 2)
    blocks = plan["blocks"][:1] if phase == "hit" else plan["blocks"]
    with Server(workload, traced=False, tag="plain") as server:
        plain = asyncio.run(
            _session(server, plan["prime"], blocks, phase, tally, pins)
        )
    counters = ExploreCounters()
    with Server(workload, traced=True, tag="traced") as server:
        traced = asyncio.run(_session(
            server, plan["prime"], blocks, phase, tally, pins,
            counters=counters,
        ))
        rss_end = server.status_mb("VmRSS")
        spans_path = server.spans_path
    spans = load_spans([spans_path])
    worker_paths = sorted(glob.glob(worker_spans_path(spans_path, "*")))
    worker_spans = load_spans(worker_paths)
    log(f"{workload}: {len(spans)} server spans in {spans_path}, "
        f"{len(worker_spans)} spans from {len(worker_paths)} workers")
    windows = traced.windows.get(phase, [])
    layers = layer_totals(spans, windows)

    def total(name, key="self_s"):
        return layers.get(name, {}).get(key, 0)

    stats = traced.final_stats
    memo = stats.get("memo", {})
    cold_samples = traced.samples.get("cold", [])
    encoded = total("protocol.encode", "calls")
    values = explore_layer_values(
        layer_totals(worker_spans, windows), counters
    )
    values.update({
        "protocol.encode_s": total("protocol.encode"),
        "protocol.reply_bytes": (
            total("protocol.encode", "value") / encoded if encoded else 0
        ),
        "descriptor.build_s": total("descriptor.build"),
        "descriptor.digest_s": total("descriptor.digest"),
        "memo.get_s": total("memo.get"),
        "memo.get_calls": total("memo.get", "calls"),
        "jobs.submit_s": total("jobs.submit"),
        "service.dispatch_s": total("service.dispatch"),
        "memo.put_s": total("memo.put"),
        "memo.evictions": memo.get("evictions", 0),
        "memo.hit_ratio": (
            memo.get("hits", 0)
            / max(1, memo.get("hits", 0) + memo.get("misses", 0))
        ),
        "jobs.per_batch": (
            stats.get("explorations_run", 0)
            / max(1, stats.get("batches_dispatched", 0))
        ),
        "jobs.explore_s": sum(cost for _, _, cost in cold_samples),
        "jobs.overhead_ms": (
            statistics.median([lat - cost for _, lat, cost in cold_samples])
            * 1000
            if cold_samples
            else 0.0
        ),
        "jobs.records": sum(stats.get("jobs_by_state", {}).values()),
        "server.rss_end_mb": rss_end,
        "trace.overhead_ratio": (
            traced.wall(phase) / plain.wall(phase)
            if plain.wall(phase)
            else 0.0
        ),
    })
    # A hit must be answered from the memo, without exploring.
    if phase == "hit":
        for name in ("simulator.advance_calls", "memo.put_s"):
            tally.check(
                values[name] == 0, f"{workload}: {name} = {values[name]}"
            )
    return per_layer(values)
