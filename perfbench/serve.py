"""``serve_http`` phase: an open-loop mix over real HTTP.

The server (``server.py``) runs in its own process with default
``ServeOptions``.  One client process drives it through ``CONNECTIONS``
keep-alive connections, one sender thread each, so load never exceeds
what a 2-core host can generate without starving the server.

Traffic: single 64-step ``/predict`` requests and ``/predict_stream``
chunks of 1-256 steps, cut in order from seeded drift streams, over
``SLOTS`` sessions with at most one chunk in flight per session.  The
request shapes are the ROADMAP's serving workload; the endpoint mix,
the chunk-size law and the session count are not given anywhere in
the repository and are assumptions, each stated with its reason where
it is defined below.  Requests are due at evenly spaced instants at
each rung of a fixed rate ladder; the lowest rung runs in windows the
benchmark spreads over the run, the rungs above it at the end.  Latency runs
from the due instant, so a stall also counts against the requests
queued behind it.  A sender stops taking requests when its rung ends;
requests due but never sent are counted as shed, which marks the rung
as over capacity (a failure is a sent request that did not get a 200).

The server and the client's sender threads share one CPU (``SERVE_CPU``)
while serving; the rest of the benchmark keeps the default CPU mask.

Client requests go out as one write on a ``TCP_NODELAY`` socket.  The
same client is calibrated against a stub server that answers in one
write, and the run checks that its round trip is far below the
``/predict`` median, so the measured floor belongs to the service.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import socket
import socketserver
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    HostSpeed, build_model, drift_signal, median, rng, series_pool, stratified, tail,
)

HERE = Path(__file__).resolve().parent
MODEL = "bench"

#: Client connections (= sender threads): at most ``nproc`` (2 on the
#: host this was built on), so the client never starves the server.
CONNECTIONS = 2
#: Assumption -- stream sessions ("a few").  Twice the connections: two
#: chunks in flight then belong to different sessions three times in
#: four, so the stream dispatcher has rows to coalesce into one fleet
#: step, while each session still receives a long ordered history for
#: the bit-equality check.
SLOTS = 4
#: Assumption -- share of requests that are ``/predict_stream`` chunks.
#: No document gives a mix.  An even split weighs neither dispatcher
#: over the other and gives both endpoints the same sample count at
#: each rung (50 at the lowest), so both tails are the same percentile.
STREAM_SHARE = 0.5
#: Assumption -- chunk sizes follow a log-uniform law over 1-256 steps
#: (``CHUNK_STEPS``; the range is the ROADMAP's).  The repository's
#: streaming bench times chunk sizes 1, 16, 64 and 256 with equal
#: weight, i.e. spread on a log scale; a uniform law would send half
#: its chunks above 128 steps and only 1.6 % of 1-4 steps, the sizes a
#: sensor sending sample by sample produces.
CHUNK_STEPS = (1, 256)
#: While serving, the server and the client's sender threads share
#: this CPU.  On a VM, waking a thread on the other vCPU goes through
#: the hypervisor, whose latency follows the host's load: measured A/B
#: on a 2-vCPU guest, sharing one vCPU took /predict p50 from 5.7-7.0
#: ms to 5.4-5.7 ms.
SERVE_CPU = min(os.sched_getaffinity(0))
#: Rate ladder (requests/s).  The lowest rung sits well below the
#: measured ceiling of the default service (2 connections / ~44 ms,
#: about 45 req/s): at 20 req/s each connection idles ~90 ms between
#: requests, long enough that the ~40 ms delayed-ACK stall of a busy
#: connection does not set in.  The others sit well above the ceiling,
#: the top one 100x.
RUNGS = (20.0, 150.0, 600.0, 4800.0)
#: The lowest rung runs in ``LOW_WINDOWS`` windows of ``LOW_S`` seconds:
#: 50 requests per endpoint per window, so a window's tail (ten samples
#: beyond) is always the 80th percentile.  The latency metrics are the
#: median over the windows of each window's p50 and tail.  Measured on
#: the 2-vCPU host, one window per run left a run-to-run spread of
#: 0.2-0.25 on the tails; repeating one window with the same seed
#: spread about as much, so the noise is the service's, not the
#: inputs'.  Pooling more samples instead would move the tail to a
#: higher percentile (80, 110 per endpoint: p87.5, p90.9), where the
#: spread grew.  Each rung above runs ``HIGH_RUNG_S`` seconds.
LOW_S = 5.0
LOW_WINDOWS = 4
HIGH_RUNG_S = 1.0
#: Seconds the phase sends requests for.
PHASE_S = LOW_WINDOWS * LOW_S + (len(RUNGS) - 1) * HIGH_RUNG_S
LATENCY_LIMIT_MS = 100.0
#: At the lowest rung the client's main thread, on ``SERVE_CPU``, takes
#: a host-speed sample this far (as a share of the interval) after each
#: due instant, when no request is in flight: at 20 req/s that is 30 ms
#: after one due instant and 20 ms before the next, when a request sent
#: on time has long been answered.  A latency is scaled by the median
#: of the samples within ``SPEED_HALO_S`` of it -- the one before and the
#: one after -- because the host's speed flips within a fraction of a
#: second (``common.HostSpeed``).
SPEED_AT = 0.6
SPEED_HALO_S = 0.06
#: Calibration: the client's stub round trip must stay below this
#: share of the measured /predict median.
CALIBRATION_SHARE = 0.25
SOCKET_TIMEOUT_S = 30.0
#: The plan tolerance of docs/SERVING.md ("Determinism"): companions in
#: a batch move float64 logits by ~1e-12 at most.
LOGIT_ATOL = 1e-12
LOGIT_RTOL = 1e-12


# -- HTTP client --------------------------------------------------------


class ConnError(Exception):
    """The connection failed before a complete response arrived."""


class HttpConn:
    """A keep-alive HTTP/1.1 client that sends each request in one write."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.rfile = None

    def _connect(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=SOCKET_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.rfile = sock, sock.makefile("rb")

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        try:
            if self.sock is None:
                self._connect()
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.sock.sendall(head + body)
            status_line = self.rfile.readline()
            parts = status_line.split()
            if len(parts) < 2:
                raise ConnError(f"bad status line {status_line!r}")
            length, close = 0, False
            while True:
                line = self.rfile.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.partition(b":")
                key = key.strip().lower()
                if key == b"content-length":
                    length = int(value)
                elif key == b"connection" and value.strip().lower() == b"close":
                    close = True
            data = self.rfile.read(length)
            if len(data) != length:
                raise ConnError("short body")
            if close:
                self.close()
            return int(parts[1]), data
        except (OSError, ValueError) as exc:
            self.close()
            raise ConnError(f"{type(exc).__name__}: {exc}") from None

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None


# -- the server process ---------------------------------------------------


class ServerProcess:
    def __init__(self, seed: int, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--seed", str(seed),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {SERVE_CPU}),
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server exited with {self.proc.returncode} before listening")
        self.port = json.loads(line)["port"]

    def stop(self) -> Dict:
        """Close stdin, wait for the summary line and the exit."""
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not shut down") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


class ServeSetup:
    """A listening server that has answered its first ``/predict``."""

    def __init__(self, seed: int, trace: bool) -> None:
        self.pool = series_pool(seed)
        self.seed = seed
        self.server = ServerProcess(seed, trace)
        try:
            conn = HttpConn(self.server.port)
            status, _ = conn.request(
                "POST", "/predict", _body({"model": MODEL, "series": self.pool[0].tolist()})
            )
            conn.close()
            if status != 200:
                raise RuntimeError(f"first /predict answered {status}")
        except BaseException:
            self.server.kill()
            raise

    def close(self) -> None:
        self.server.kill()


# -- calibration stub -----------------------------------------------------


class _StubHandler(socketserver.StreamRequestHandler):
    reply = b""

    def handle(self) -> None:
        while True:
            line = self.rfile.readline()
            if not line:
                return
            length = 0
            while True:
                header = self.rfile.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                key, _, value = header.partition(b":")
                if key.strip().lower() == b"content-length":
                    length = int(value)
            self.rfile.read(length)
            self.wfile.write(self.reply)


class _StubServer(socketserver.ThreadingTCPServer):
    daemon_threads = True


def calibrate(body: bytes, reply_body: bytes, n: int = 200) -> float:
    """Median client round trip (ms) against a one-write stub server."""
    handler = type("Stub", (_StubHandler,), {
        "reply": (
            f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(reply_body)}\r\n\r\n"
        ).encode("ascii") + reply_body
    })
    with _StubServer(("127.0.0.1", 0), handler) as stub:
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        conn = HttpConn(stub.server_address[1])
        rtts = []
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                conn.request("POST", "/predict", body)
                rtts.append((time.perf_counter() - t0) * 1e3)
        finally:
            conn.close()
            stub.shutdown()
            thread.join(timeout=5)
    return median(rtts)


# -- load generation ------------------------------------------------------


class Slot:
    """One client stream: a seeded drift stream cut into chunks, sent in
    order through one server session, one chunk in flight at a time."""

    def __init__(self, seed: int, index: int) -> None:
        self.signal = drift_signal(rng(seed, 20, index))
        self.cond = threading.Condition()
        self.issued = 0
        self.turn = 0
        self.pos = 0
        self.session: Optional[str] = None
        #: Per server session, the (chunk, logits) pairs that returned 200.
        self.history: Dict[str, List[Tuple[np.ndarray, list]]] = defaultdict(list)
        self.broken: set = set()

    def next_chunk(self, size: int) -> np.ndarray:
        if self.pos + size > self.signal.size:
            # Stream exhausted: the next chunk opens a fresh session.
            self.pos, self.session = 0, None
        chunk = self.signal[self.pos:self.pos + size]
        self.pos += size
        return chunk


class Rung:
    """Requests at one rate."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.seconds = 0.0
        self.due = 0
        self.sent = 0
        self.records: List[dict] = []
        self.status: Dict[str, Counter] = {"predict": Counter(), "stream": Counter()}
        self.idle_late_ms: List[float] = []
        #: ``(first due, last response)``.
        self.window: Tuple[float, float] = (0.0, 0.0)
        self.lock = threading.Lock()

    @property
    def shed(self) -> int:
        return self.due - self.sent

    @property
    def failed(self) -> int:
        return sum(sum(c.values()) - c["200"] for c in self.status.values())


def _plan(seed: int, rung_i: int, n: int, pool_size: int):
    """Per request of a rung: is it a stream chunk, its chunk size, its
    slot and its /predict series.  The stream share and the set of chunk
    sizes are fixed per rung (stratified); the seed decides their order."""
    gen = rng(seed, 10, rung_i)
    n_stream = int(round(n * STREAM_SHARE))
    stream = gen.permutation(np.arange(n) < n_stream)
    sizes = np.zeros(n, dtype=int)
    sizes[stream] = stratified(*CHUNK_STEPS, n_stream, gen, log=True)
    series = gen.integers(pool_size, size=n)
    slots = gen.integers(SLOTS, size=n)
    return stream, sizes, slots, series


def run_rung(setup: ServeSetup, conns: List[HttpConn], slots: List[Slot],
             rung: Rung, plan, speed: Optional[HostSpeed] = None) -> None:
    """Send the planned requests, due at evenly spaced instants; with
    ``speed``, sample the host's speed between them."""
    stream, sizes, slot_of, series = plan
    n = len(stream)
    seconds = n / rung.rate
    lock = threading.Lock()
    cursor = [0]
    in_flight = [0]
    t0 = time.perf_counter() + 0.05
    end = t0 + seconds

    def take():
        with lock:
            i = cursor[0]
            if i >= n or time.perf_counter() > end:
                return None
            cursor[0] += 1
            ticket = None
            if stream[i]:
                slot = slots[slot_of[i]]
                ticket = slot.issued
                slot.issued += 1
            return i, ticket

    def sender(conn: HttpConn) -> None:
        while True:
            taken = take()
            if taken is None:
                return
            i, ticket = taken
            due = t0 + i / rung.rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
                rung.idle_late_ms.append((time.perf_counter() - due) * 1e3)
            with lock:
                in_flight[0] += 1
            try:
                if ticket is None:
                    _send_predict(conn, setup.pool[series[i]], due, rung)
                else:
                    _send_chunk(conn, slots[slot_of[i]], ticket, sizes[i], due, rung)
            finally:
                with lock:
                    in_flight[0] -= 1

    # A collection of the client's own heap would stall requests in
    # flight; the client pauses its collector while it sends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        threads = [threading.Thread(target=sender, args=(c,)) for c in conns]
        for th in threads:
            th.start()
        k = 0
        while speed is not None and any(th.is_alive() for th in threads):
            at = t0 + (k + SPEED_AT) / rung.rate
            k += 1
            if at >= end:
                break
            delay = at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
                if in_flight[0] == 0:
                    speed.sample()
        for th in threads:
            th.join()
    finally:
        if collecting:
            gc.enable()
    rung.seconds = seconds
    rung.due = n
    rung.sent = cursor[0]
    rung.window = (t0, max((r["done"] for r in rung.records), default=end))


def _outcome(conn, path, payload, rung, kind):
    sent = time.perf_counter()
    try:
        status, data = conn.request("POST", path, _body(payload))
    except ConnError:
        status = "conn_error"
    done = time.perf_counter()
    with rung.lock:
        rung.status[kind][str(status)] += 1
    if status == "conn_error":
        return None, sent, done
    return (json.loads(data) if status == 200 else None), sent, done


def _send_predict(conn, series, due, rung) -> None:
    reply, sent, done = _outcome(
        conn, "/predict", {"model": MODEL, "series": series.tolist()}, rung, "predict"
    )
    rung.records.append({"kind": "predict", "due": due, "sent": sent, "done": done,
                         "reply": reply, "series": series})


def _send_chunk(conn, slot: Slot, ticket: int, size: int, due, rung) -> None:
    with slot.cond:
        slot.cond.wait_for(lambda: slot.turn == ticket)
    try:
        chunk = slot.next_chunk(int(size))
        payload = {"model": MODEL, "series": chunk.tolist()}
        if slot.session is not None:
            payload["session"] = slot.session
        reply, sent, done = _outcome(conn, "/predict_stream", payload, rung, "stream")
        if reply is not None:
            slot.session = reply["session"]
            slot.history[slot.session].append((chunk, reply["logits"]))
        elif slot.session is not None:
            # The server's state for this session is now unknown.
            slot.broken.add(slot.session)
        rung.records.append({"kind": "stream", "due": due, "sent": sent, "done": done,
                             "reply": reply})
    finally:
        with slot.cond:
            slot.turn += 1
            slot.cond.notify_all()


# -- the phase --------------------------------------------------------------


def _stats(conn: HttpConn) -> dict:
    status, data = conn.request("GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return json.loads(data)


def _latencies(rung: Rung, kind: str, speed: Optional[HostSpeed] = None) -> List[float]:
    """From-due latencies (ms), at reference speed when ``speed`` is
    given; a failed request counts as missing the limit, at the socket
    timeout."""
    def scale(r):
        return 1.0 if speed is None else speed.at(r["due"], r["done"], SPEED_HALO_S)

    return [
        ((r["done"] - r["due"]) * 1e3 * scale(r) if r["reply"] is not None
         else SOCKET_TIMEOUT_S * 1e3)
        for r in rung.records if r["kind"] == kind
    ]


@contextlib.contextmanager
def _on_serve_cpu():
    """Run the calling thread, and the threads it starts (they inherit
    its mask), on the server's CPU."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {SERVE_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


class ServePhase:
    """``pieces`` send the ladder and calibrate the client; ``finish``
    stops the server and checks the responses."""

    def __init__(self, setup: ServeSetup, traced: bool) -> None:
        self.setup = setup
        self.traced = traced
        self.slots = [Slot(setup.seed, k) for k in range(SLOTS)]
        self.conns = [HttpConn(setup.server.port) for _ in range(CONNECTIONS)]
        self.rungs = ([Rung(RUNGS[0]) for _ in range(LOW_WINDOWS)]
                      + [Rung(rate) for rate in RUNGS[1:]])
        #: Samples taken on ``SERVE_CPU`` during the lowest rung.
        self.speed = HostSpeed()
        self.before = _stats(self.conns[0])

    def pieces(self) -> List[Callable[[], None]]:
        """The lowest rung's windows, then the rungs above it with the
        closing ``/stats`` and the client calibration, in order."""
        return [functools.partial(self._window, i) for i in range(LOW_WINDOWS)] + [self._last]

    def _rung(self, i: int) -> None:
        rung = self.rungs[i]
        n = int(rung.rate * (LOW_S if i < LOW_WINDOWS else HIGH_RUNG_S))
        run_rung(self.setup, self.conns, self.slots, rung,
                 _plan(self.setup.seed, i, n, len(self.setup.pool)),
                 self.speed if i < LOW_WINDOWS else None)

    def _window(self, i: int) -> None:
        with _on_serve_cpu():
            self._rung(i)

    def _last(self) -> None:
        try:
            with _on_serve_cpu():
                for i in range(LOW_WINDOWS, len(self.rungs)):
                    self._rung(i)
                self.after = _stats(self.conns[0])
                self.rtt = calibrate(
                    _body({"model": MODEL, "series": self.setup.pool[0].tolist()}),
                    _body({"model": MODEL, "prediction": 0, "logits": [0.1, 0.2, 0.3]}))
        finally:
            for c in self.conns:
                c.close()

    def finish(self) -> Dict:
        setup, rungs, rtt = self.setup, self.rungs, self.rtt
        summary = setup.server.stop()

        metrics: Dict[str, float] = {}
        layers: Dict[str, float] = {}
        notes: List[str] = []
        low = rungs[:LOW_WINDOWS]
        raw_p50 = {}
        for kind, stem in (("predict", "predict"), ("stream", "stream_chunk")):
            per_window = [(median(lat), *tail(lat))
                          for lat in (_latencies(rung, kind, self.speed) for rung in low)]
            metrics[f"{stem}_p50_ms"] = median([w[0] for w in per_window])
            metrics[f"{stem}_tail_ms"] = median([w[1] for w in per_window])
            raw = [(median(lat), tail(lat)[0]) for lat in (_latencies(r, kind) for r in low)]
            raw_p50[kind] = median([w[0] for w in raw])
            notes.append(
                f"{stem} at {RUNGS[0]:g} req/s, median of {LOW_WINDOWS} windows at reference "
                f"speed (as timed): p50 {metrics[stem + '_p50_ms']:.2f} ms ({raw_p50[kind]:.2f}),"
                f" tail {metrics[stem + '_tail_ms']:.2f} ms ({median([w[1] for w in raw]):.2f})"
                " | per window p50/tail: " + ", ".join(
                    f"{p50:.2f}/{value:.2f} (p{pct:.1f} of {n})"
                    for p50, value, pct, n in per_window))
        notes.append(f"serve: {len(self.speed.speeds)} host-speed samples, median "
                     f"{median(self.speed.speeds):.3f}")
        meets = {}
        for rung in rungs:
            tails = [tail(_latencies(rung, k))[0] for k in ("predict", "stream")]
            last_late = max(((r["sent"] - r["due"]) * 1e3 for r in rung.records), default=0.0)
            ok = (rung.failed == 0 and rung.shed == 0 and last_late <= LATENCY_LIMIT_MS
                  and all(t <= LATENCY_LIMIT_MS for t in tails))
            meets[rung.rate] = meets.get(rung.rate, True) and ok
            notes.append(
                f"rung {rung.rate:g} req/s x {rung.seconds:.1f} s: due {rung.due} "
                f"sent {rung.sent} shed {rung.shed} | predict {dict(rung.status['predict'])}"
                f" | stream {dict(rung.status['stream'])} | tails {tails[0]:.1f}/"
                f"{tails[1]:.1f} ms | {'meets' if ok else 'misses'} the "
                f"{LATENCY_LIMIT_MS:g} ms limit"
            )
        metrics["max_rate_rps"] = max((rate for rate, ok in meets.items() if ok), default=0.0)
        sent = sum(r.sent for r in rungs)
        failed = sum(r.failed for r in rungs)
        metrics["ok_frac"] = (sent - failed) / sent

        checks = _checks(setup, rungs, self.slots)
        checks.append(("serve.client_calibration",
                       rtt <= CALIBRATION_SHARE * raw_p50["predict"],
                       f"stub round trip {rtt:.3f} ms vs /predict p50 "
                       f"{raw_p50['predict']:.2f} ms"))
        late, _, _ = tail([x for r in rungs for x in r.idle_late_ms])
        notes.append(f"client: stub round trip {rtt:.3f} ms; "
                     f"generator lateness tail {late:.3f} ms")
        if self.traced:
            _layer_metrics(rungs, summary["spans"], self.before, self.after, layers)
        layers["bench.client_rtt_ms"] = rtt
        layers["bench.generator_late_ms"] = late
        layers["serve.failed_frac"] = failed / sent
        return {
            "metrics": metrics, "layers": layers, "checks": checks, "notes": notes,
            "attempted": sent, "failed": failed, "peak_rss_mb": summary["peak_rss_mb"],
        }


def _checks(setup: ServeSetup, rungs: List[Rung], slots: List[Slot]):
    from repro.compile import compile_plan
    from repro.core import StreamingSession

    plan = compile_plan(build_model(setup.seed))
    worst, n_predict = 0.0, 0
    ok_predict = True
    for rung in rungs:
        for r in rung.records:
            if r["kind"] != "predict" or r["reply"] is None:
                continue
            served = np.asarray(r["reply"]["logits"])
            oracle = plan.forward(r["series"][None])[0]
            worst = max(worst, float(np.max(np.abs(served - oracle))))
            ok_predict &= bool(np.allclose(served, oracle, rtol=LOGIT_RTOL, atol=LOGIT_ATOL))
            n_predict += 1
    checks = [("serve.predict_matches_plan", ok_predict and n_predict > 0,
               f"{n_predict} /predict logits vs in-process plan, max |delta| {worst:.2e}")]
    n_chunks, ok_stream = 0, True
    for slot in slots:
        for session, history in slot.history.items():
            if session in slot.broken:
                continue
            lone = StreamingSession(plan)
            for chunk, logits in history:
                expect = lone.process(chunk)[-1]
                ok_stream &= bool(np.array_equal(np.asarray(logits), expect))
                n_chunks += 1
    checks.append(("serve.stream_bit_equal", ok_stream and n_chunks > 0,
                   f"{n_chunks} /predict_stream chunks bit-equal to lone sessions"))
    return checks


def _transport_ms(records: List[dict]) -> float:
    """Median client round trip minus the time spent in the service."""
    return median([(r["done"] - r["sent"]) * 1e3 - r["reply"]["bench_service_ms"]
                   for r in records])


def _layer_metrics(rungs: List[Rung], spans: List[dict], before: dict, after: dict,
                   out: Dict) -> None:
    low, high = rungs[:LOW_WINDOWS], rungs[LOW_WINDOWS:]
    # Server spans of the lowest rung (both processes read the same
    # monotonic clock; nothing else is sent while a rung runs).
    inside = [s for s in spans
              if any(r.window[0] <= s["start"] <= r.window[1] for r in low)]
    for kind, compute in (("predict", "plan.forward"), ("stream", "fleet.process_many")):
        ok = [r for rung in low for r in rung.records
              if r["kind"] == kind and r["reply"] is not None]
        service = [r["reply"]["bench_service_ms"] for r in ok]
        out[f"serve.http.transport_ms.{kind}"] = _transport_ms(ok)
        # Above the lowest rung each connection carries requests back
        # to back.
        out[f"serve.http.transport_loaded_ms.{kind}"] = _transport_ms(
            [r for rung in high for r in rung.records
             if r["kind"] == kind and r["reply"] is not None])
        work = [s for s in inside if s["name"] == compute]
        per_request = sum(s["rows"] * s["ms"] for s in work) / max(1, sum(s["rows"] for s in work))
        out[f"serve.batching.wait_ms.{kind}"] = sum(service) / len(service) - per_request
    forward = [s for s in inside if s["name"] == "plan.forward"]
    fleet = [s for s in inside if s["name"] == "fleet.process_many"]
    out["compile.plan.forward_ms"] = median([s["ms"] for s in forward])
    out["core.streaming.process_many_ms"] = median([s["ms"] for s in fleet])
    out["core.streaming.steps_per_call"] = sum(s["steps"] for s in fleet) / len(fleet)

    def batched(snap):
        return snap["mean_batch_size"] * snap["batches"]

    batches = after["batches"] - before["batches"]
    out["serve.batching.batch_size_mean"] = (batched(after) - batched(before)) / batches
    sb = after["stream"]["batches"] - before["stream"]["batches"]
    out["serve.batching.stream_rows_mean"] = (
        after["stream"]["rows_stepped"] - before["stream"]["rows_stepped"]) / sb
    out["serve.batching.queue_full"] = float(
        after["by_status"].get("queue_full", 0) - before["by_status"].get("queue_full", 0))
