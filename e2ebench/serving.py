"""Serving half of a workload: a forked ``ServingServer`` and a keep-alive
HTTP load generator in the benchmark process.

The server runs in its own process so the generator's threads never share
its interpreter lock.  Each generator thread holds one persistent
HTTP/1.1 connection, which is how a production caller talks to it.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import Pipe
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

import hostspeed
from benchstats import due_time_latency, due_times
from tracing import Tracer

MODEL_NAME = "bench"


def read_vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _child_main(conn, model, graph, tracer: Tracer) -> None:
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import ServingApp, ServingConfig, ServingServer

    tracer.reset()
    registry = ModelRegistry()
    registry.register(MODEL_NAME, model)
    server = ServingServer(ServingApp(registry, graph, ServingConfig(default_model=MODEL_NAME)))
    server.start_background()
    conn.send(server.port)
    try:
        while True:
            command = conn.recv()
            if command == "stop":
                break
            if command == "dump":
                conn.send((tracer.spans, dict(tracer.counters)))
                tracer.reset()
            if command == "probe":  # host speed where the server runs
                conn.send(hostspeed.probe())
    except EOFError:
        pass  # the benchmark process is gone; shut down with it
    finally:
        server.shutdown()


class ServerProcess:
    """A ``ServingServer`` for ``model`` on ``graph`` in a forked child.

    Forking (not spawning) hands the child the very model object the
    benchmark checks against, and the tracer's wrappers when installed;
    ``command("dump")`` returns and clears the child's spans and counters.
    """

    def __init__(self, model, graph, tracer: Tracer) -> None:
        parent_end, child_end = Pipe()
        pid = os.fork()
        if pid == 0:  # child
            code = 0
            try:
                parent_end.close()
                _child_main(child_end, model, graph, tracer)
            except BaseException:  # noqa: BLE001 - report, then leave the fork
                import traceback

                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        child_end.close()
        self.pid = pid
        self._conn = parent_end
        if not self._conn.poll(60):
            self.kill()
            raise RuntimeError("server child did not come up")
        self.port = self._conn.recv()

    def command(self, name: str):
        self._conn.send(name)
        if not self._conn.poll(60):
            raise RuntimeError(f"server child did not answer {name!r}")
        return self._conn.recv()

    def peak_rss_mb(self) -> float:
        return read_vm_hwm_mb(self.pid)

    def stop(self) -> None:
        try:
            self._conn.send("stop")
        except OSError:
            pass  # child already gone; the wait below reaps it
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            done, _status = os.waitpid(self.pid, os.WNOHANG)
            if done:
                self._conn.close()
                return
            time.sleep(0.02)
        self.kill()

    def kill(self) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(self.pid, 0)
        self._conn.close()


# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One HTTP request as the generator saw it."""

    body: dict
    due: float
    sent: float
    done: float
    status: int
    response: dict


class Client:
    """One persistent keep-alive connection."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def get(self, path: str) -> Outcome:
        return self._send("GET", path, None)

    def post(self, path: str, body: dict, due: Optional[float] = None) -> Outcome:
        return self._send("POST", path, body, due)

    def _send(self, method: str, path: str, body: Optional[dict], due: Optional[float] = None) -> Outcome:
        encoded = None if body is None else json.dumps(body)
        sent = time.perf_counter()
        self._conn.request(method, path, encoded, {"Content-Type": "application/json"})
        response = self._conn.getresponse()
        raw = response.read()
        done = time.perf_counter()
        return Outcome(
            body or {}, sent if due is None else due, sent, done, response.status,
            json.loads(raw) if raw else {},
        )

    def close(self) -> None:
        self._conn.close()


@contextmanager
def connections(port: int, count: int):
    """``count`` fresh keep-alive connections, closed on exit."""
    clients = [Client(port) for _ in range(count)]
    try:
        yield clients
    finally:
        for client in clients:
            client.close()


class TrafficMix:
    """``/score`` and ``/topk`` request bodies.

    The bodies themselves are the same in every run, so the spread of
    latency across runs is not the spread of which triples were drawn;
    the run seed only orders each measured phase (:meth:`phase`).
    ``/score`` bodies draw a quarter of the time from a hot set of 16
    repeated triples (score-cache hits after the warm-up) and otherwise
    make fresh corruptions never sent before (misses).  Hits are much
    faster than misses; at an even mix the median would flip between the
    two.  ``/topk`` queries are fresh (head, relation) pairs.
    Every body carries a request id, which the server ignores and the
    tracer uses to join the server's spans to the generator's.
    """

    HOT_SHARE = 0.25
    HOT_SIZE = 16

    def __init__(self, graph, targets: Sequence[Tuple[int, int, int]], seed: int) -> None:
        self.graph = graph
        self.targets = list(targets)
        self.rid = 0
        self._rng = np.random.default_rng(91)
        self._order = np.random.default_rng((seed, 91))
        order = self._rng.permutation(len(self.targets))
        self.hot = [tuple(int(x) for x in self.targets[i]) for i in order[: self.HOT_SIZE]]
        self._used = set(self.hot)
        pairs = sorted({(int(h), int(r)) for h, r, _t in self.targets})
        self._queries = [pairs[i] for i in self._rng.permutation(len(pairs))]
        self._lock = threading.Lock()

    def next_rid(self) -> int:
        with self._lock:
            self.rid += 1
            return self.rid

    def score_body(self) -> dict:
        if self._rng.random() < self.HOT_SHARE:
            triple = self.hot[int(self._rng.integers(len(self.hot)))]
        else:
            while True:
                head, relation, tail = self.targets[int(self._rng.integers(len(self.targets)))]
                corrupt = int(self._rng.integers(self.graph.num_entities))
                triple = (
                    (corrupt, int(relation), int(tail))
                    if self._rng.random() < 0.5
                    else (int(head), int(relation), corrupt)
                )
                if triple not in self._used:
                    self._used.add(triple)
                    break
        return {"triples": [list(triple)], "rid": self.next_rid()}

    def topk_body(self, k: int = 10) -> dict:
        if not self._queries:
            raise RuntimeError("no fresh (head, relation) pair left for /topk")
        head, relation = self._queries.pop()
        return {"head": head, "relation": relation, "k": k, "rid": self.next_rid()}

    def phase(self, make: Callable[[], dict], count: int) -> List[dict]:
        """The next ``count`` bodies from ``make``, in the run seed's order."""
        bodies = [make() for _ in range(count)]
        return [bodies[i] for i in self._order.permutation(count)]


def open_loop(clients: List[Client], bodies: List[dict], rate: float) -> List[Outcome]:
    """Send ``bodies`` on a fixed schedule of ``rate`` requests per second.

    Request ``i`` is due ``i / rate`` after the start and goes out on
    connection ``i % len(clients)`` as soon as both the schedule and that
    connection allow; latency is later taken from the due time.
    """
    start = time.perf_counter() + 0.02
    due = due_times(start, rate, len(bodies))
    results: List[Optional[Outcome]] = [None] * len(bodies)

    def drive(k: int) -> None:
        for i in range(k, len(bodies), len(clients)):
            wait = due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            results[i] = clients[k].post("/score", bodies[i], due=due[i])

    _run_threads(drive, len(clients))
    return [outcome for outcome in results if outcome is not None]


def closed_loop(clients: List[Client], mix: TrafficMix, seconds: float) -> Tuple[List[Outcome], float]:
    """Each connection sends its next ``/score`` as soon as the last one
    returns, for ``seconds``; returns the outcomes and the elapsed time."""
    lock = threading.Lock()
    per_thread: List[List[Outcome]] = [[] for _ in clients]
    start = time.perf_counter()
    stop_at = start + seconds

    def drive(k: int) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                body = mix.score_body()
            per_thread[k].append(clients[k].post("/score", body))

    _run_threads(drive, len(clients))
    outcomes = [outcome for chunk in per_thread for outcome in chunk]
    return outcomes, max(o.done for o in outcomes) - start


def _run_threads(target, count: int) -> None:
    errors: List[BaseException] = []

    def guarded(k: int) -> None:
        try:
            target(k)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(k,), daemon=True) for k in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]


def latencies_from_due(outcomes: Sequence[Outcome]) -> Tuple[List[float], List[float]]:
    return due_time_latency(
        [o.due for o in outcomes], [o.sent for o in outcomes], [o.done for o in outcomes]
    )


# ----------------------------------------------------------------------
def check_scores(model, graph, outcomes: Sequence[Outcome], sample_every: int = 4) -> int:
    """Served ``/score`` values against in-process ``score_triples_fused``
    on every ``sample_every``-th successful request; returns mismatches."""
    sample = [o for o in outcomes if o.status == 200][::sample_every]
    if not sample:
        return 0
    triples = [tuple(o.body["triples"][0]) for o in sample]
    expected = model.score_triples_fused(graph, triples)
    served = np.asarray([o.response["scores"][0] for o in sample])
    return int(np.sum(~np.isclose(served, expected, rtol=1e-4, atol=1e-4)))


def check_topk(model, graph, outcomes: Sequence[Outcome], limit: int = 4) -> int:
    """Served ``/topk`` entities against in-process
    ``InferenceSession.top_k_tails``; returns mismatching queries.

    Batch composition differs between the two paths, so scores may differ
    in round-off; an order swap between near-equal scores is not a
    mismatch.
    """
    from repro.serve.registry import ModelRegistry
    from repro.serve.session import InferenceSession

    registry = ModelRegistry()
    registry.register(MODEL_NAME, model)
    session = InferenceSession(registry, graph, default_model=MODEL_NAME)
    mismatches = 0
    for outcome in [o for o in outcomes if o.status == 200][:limit]:
        body = outcome.body
        expected = session.top_k_tails(body["head"], body["relation"], k=body["k"])
        served = [(p["entity"], p["score"]) for p in outcome.response["predictions"]]
        if [e for e, _ in served] == [e for e, _ in expected]:
            continue
        same_scores = len(served) == len(expected) and np.allclose(
            [s for _, s in served], [s for _, s in expected], rtol=1e-4, atol=1e-4
        )
        mismatches += 0 if same_scores else 1
    return mismatches
