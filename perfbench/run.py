#!/usr/bin/env python3
"""gqkg benchmark: build, load generator, checks and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gqkg checkout.  Builds `gqkg` and the benchmark
harness with dune, generates the workload's inputs from the seed (in a
separate harness process), runs the workload for S seconds, checks its
outputs, and prints one JSON object as the last line of stdout:
`{"correct", "attempted", "failed", "metrics"}`.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and metrics.

The served workloads (hot-reads, cold-reads, write-mix) start the real
`gqkg serve GRAPH --port 0` as its own process; this process is the
single-threaded closed-loop load generator.  join-batch runs in-process
in the harness.  Every process runs on one CPU (`pin_to_one_cpu`);
every workload's timed phase is measured in blocks and reported through
the same rule, `scaled`.
"""

import argparse
import gc
import json
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
RUNS = os.path.join(BENCH, "runs")
BUILD = os.path.join(ROOT, "_build", "default")
GQKG = os.path.join(BUILD, "bin", "gqkg.exe")
HARNESS = os.path.join(BUILD, "perfbench", "harness.exe")

WORKLOADS = ("hot-reads", "cold-reads", "write-mix", "join-batch")
SETUP_SPAWNS = 9  # setup_s is the median over this many set-ups
BLOCK_SECONDS = 1  # the timed phase is measured in blocks this long; see scaled
PROBE_SECONDS = 6  # the write probe's phase, in blocks like the timed phase
WRITE_EVERY = 20  # write-mix: one mutate per cycle of this many ops
CALIB_REF_MS = 25.0  # the calib kernel's time on the reference host; see scaled
FINAL_LIMIT = 10000  # write-mix final reads: the daemon's answer_limit, whole answers
DAEMON_TIMEOUT_S = 60.0

END_TO_END = ("setup_s", "ops_per_s", "p50_ms", "p90_ms", "write_p50_ms", "cpu_ms_per_op",
              "peak_rss_mb")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
         "write_p50_ms": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def build():
    for need in ("dune-project", "lib", os.path.join("bin", "gqkg.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a gqkg checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT, "./bin/gqkg.exe",
                        "./perfbench/harness.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("build failed")


def pin_to_one_cpu():
    """Run this process and every process it starts on one CPU, the
    highest-numbered one it may use (the lowest takes most interrupts).

    On the reference host, a virtual machine, waking a process on another
    CPU costs an interrupt the hypervisor handles, and how long that takes
    depends on its other guests: hot-reads ran at about 1250 ops/s with
    the generator and the daemon on two CPUs and 1600 on one.  On one CPU
    the hand-off is a context switch, and the calib kernel times the very
    CPU the program runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def harness(*args, timeout=170):
    r = subprocess.run([HARNESS] + [str(a) for a in args], cwd=ROOT, capture_output=True,
                       timeout=timeout)
    if r.returncode != 0:
        raise BenchError("harness %s failed: %s" % (args[0], r.stderr.decode(errors="replace")))
    lines = r.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def read_lines(path):
    with open(path, "rb") as f:
        return [line.rstrip(b"\n") for line in f if line.strip()]


# ---- the daemon -------------------------------------------------------------

class Daemon:
    """`gqkg serve GRAPH --port 0` in its own process."""

    def __init__(self, graph, workdir):
        t0 = time.perf_counter()
        self.err = open(os.path.join(workdir, "daemon.err"), "ab")
        self.proc = subprocess.Popen([GQKG, "serve", graph, "--port", "0"], cwd=ROOT,
                                     stdout=subprocess.PIPE, stderr=self.err)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], DAEMON_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            m = re.search(rb"127\.0\.0\.1:(\d+)", line)
            if not m:
                raise BenchError("daemon did not start: %r" % line)
            self.port = int(m.group(1))
            conn = Conn(self.port)
            pong = json.loads(conn.request(b'{"op":"ping"}'))
            conn.close()
            if pong.get("op") != "pong":
                raise BenchError("bad ping answer %r" % pong)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def stat(self):
        """(user+sys CPU seconds, VmHWM in MB) of the daemon process."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        with open("/proc/%d/status" % self.proc.pid) as f:
            hwm = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
        return cpu, hwm / 1024.0

    def drained_clean(self):
        rc, final = self.stop()
        return rc == 0 and final.get("pinned") == 0

    def catches_sigterm(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            caught = next(int(l.split()[1], 16) for l in f if l.startswith("SigCgt:"))
        return caught >> (signal.SIGTERM - 1) & 1 == 1

    def stop(self):
        """SIGTERM drain; returns (exit code, final metrics object).

        `gqkg serve` answers requests before it installs its SIGTERM
        handler, and a SIGTERM in between kills it undrained, so this
        first waits until the kernel lists the handler."""
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while not self.catches_sigterm() and time.monotonic() < deadline:
            time.sleep(0.001)
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=DAEMON_TIMEOUT_S)
        finally:
            self.kill()
        lines = out.decode(errors="replace").strip().splitlines()
        final = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        return self.proc.returncode, final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.err.close()


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=DAEMON_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, line):
        self.sock.sendall(line + b"\n")

    def poll_line(self):
        """Read once; return a complete response line if one has arrived."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise BenchError("daemon closed the connection")
        self.buf += data
        if b"\n" not in data:
            return None
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def request(self, line):
        self.send(line)
        while True:
            resp = self.poll_line()
            if resp is not None:
                return resp

    def close(self):
        self.sock.close()


class Calib:
    """`harness calib` in its own process: times the fixed kernel of
    calib.ml, which uses no gqkg code, to gauge the host's speed."""

    def __init__(self):
        self.proc = subprocess.Popen([HARNESS, "calib"], cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.samples = []

    def sample(self):
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("calib process ended")
        self.samples.append(float(line))
        return self.samples[-1]

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError):
            pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ---- the closed loop ---------------------------------------------------------

def closed_loop(conns, stream, first, seconds, whole_cycles, on_response):
    """Send stream[first], stream[first + 1], ... in order, one request in
    flight per connection, for `seconds` (with whole_cycles, on to the end
    of the write-mix cycle), then wait for the requests in flight.  The
    clock runs from before a request's first byte is written until its
    newline arrives; on_response(i, ms, line) runs after it has stopped.
    Returns the next unsent index and the wall time."""
    nxt = first
    inflight = {}
    start = time.perf_counter()
    deadline = start + seconds

    def more(now):
        if nxt >= len(stream):
            return False
        return now < deadline or (whole_cycles and nxt % WRITE_EVERY != 0)

    def send(c):
        nonlocal nxt
        inflight[c.sock] = (c, nxt, time.perf_counter())
        c.send(stream[nxt])
        nxt += 1

    for c in conns:
        if more(start):
            send(c)
    last = start
    while inflight:
        ready, _, _ = select.select(list(inflight), [], [], DAEMON_TIMEOUT_S)
        if not ready:
            raise BenchError("no response within %.0f s" % DAEMON_TIMEOUT_S)
        for sock in ready:
            c, i, t0 = inflight[sock]
            line = c.poll_line()
            if line is None:
                continue
            last = time.perf_counter()
            del inflight[sock]
            on_response(i, (last - t0) * 1e3, line)
            if more(last):
                send(c)
    return nxt, last - start


def summary_of(line):
    """A response's fields other than its pairs, without parsing the pairs:
    the generator's own CPU use would otherwise rival the daemon's."""
    k, end = line.find(b',"pairs":['), line.rfind(b"]")
    if k >= 0:
        try:
            return json.loads(line[:k] + line[end + 1:])
        except ValueError:
            pass
    return json.loads(line)


def write_ok(req, resp):
    """A mutate is done only when every line of its script applied."""
    return bool(resp.get("ok")) and resp.get("applied") == len(req["ops"])


def op_record(i, latency_ms, req, line):
    resp = summary_of(line)
    code = resp.get("code", "")
    ok = write_ok(req, resp) if req["op"] == "mutate" else (
        bool(resp.get("ok")) and resp.get("complete") is True)
    ok = ok and not str(code).startswith("GQ06")
    return {"i": i, "op": req["op"], "q": req.get("q"), "ms": latency_ms, "ok": ok,
            "total": resp.get("total"), "elapsed_ms": resp.get("elapsed_ms")}


def stats(blocks):
    """Metrics pooled over blocks, as measured.  A block is a dict of its
    op latencies `lat`, its mutate latencies `writes`, its wall `seconds`,
    the CPU seconds `cpu_s` of the process running the program and the
    calib kernel's time `calib_ms` around it."""
    lat = [ms for b in blocks for ms in b["lat"]]
    writes = [ms for b in blocks for ms in b["writes"]]
    return {"ops": len(lat), "ops_per_s": len(lat) / sum(b["seconds"] for b in blocks),
            "p50_ms": statistics.median(lat), "p90_ms": quantile(lat, 0.9),
            "cpu_ms_per_op": sum(b["cpu_s"] for b in blocks) * 1e3 / len(lat),
            "writes": len(writes), "write_p50_ms": statistics.median(writes) if writes else None}


def scaled(blocks, metrics):
    """Each metric as the median over the blocks of the block's own value
    at the reference host's speed: times divided by, rates multiplied by,
    the block's calib_ms over CALIB_REF_MS.

    The reference host is a virtual machine whose CPUs other machines
    share.  For stretches of seconds to minutes a CPU runs all code up to
    1.5 times slower, and the hypervisor's steal counter does not show
    it; whole runs fall into a slow stretch.  The calib kernel, timed on
    the same CPU between the blocks, slows down with the program, so the
    ratio of the two stays put.  See README.md, "Host speed"."""
    per_block = []
    for b in blocks:
        s, k = stats([b]), b["calib_ms"] / CALIB_REF_MS
        per_block.append({m: s[m] * k if m == "ops_per_s" else s[m] / k
                          for m in metrics if s[m] is not None})
    return {m: statistics.median(v[m] for v in per_block if m in v) for m in metrics}


def metrics_reply(conn):
    m = json.loads(conn.request(b'{"op":"metrics"}'))
    return m, m["cache"]["hits"], m["cache"]["lookups"]


def sample_wanted(workload, rec, seen):
    """Which timed responses the checker verifies in full."""
    i = rec["i"]
    if workload == "hot-reads":
        first = rec["q"] not in seen
        seen.add(rec["q"])
        return first or i % 250 == 0
    if workload == "cold-reads":
        return i % 4 == 0
    return rec["op"] == "mutate" or i % 7 == 0


def measure(daemon, calib, conns, stream, seconds, whole_cycles, on_response):
    """Run `stream` through the closed loop for `seconds`, in blocks of
    BLOCK_SECONDS.  Each block reads the daemon's CPU at its edges.
    Before the first block and after each, with nothing in flight, the
    calib kernel is timed once; a block's calib_ms is the mean of the two
    around it.  Returns the op records (from on_response) and the
    blocks."""
    n_blocks = max(1, seconds // BLOCK_SECONDS)
    records, blocks = [], []
    nxt = 0
    gc.disable()  # no collector pauses in the generator while timing
    try:
        before = calib.sample()
        while len(blocks) < n_blocks and nxt < len(stream):
            rs = []
            cpu0 = daemon.stat()[0]
            nxt, wall = closed_loop(conns, stream, nxt, BLOCK_SECONDS, whole_cycles,
                                    lambda i, ms, line: rs.append(on_response(i, ms, line)))
            cpu = daemon.stat()[0] - cpu0
            after = calib.sample()
            blocks.append({"lat": [r["ms"] for r in rs],
                           "writes": [r["ms"] for r in rs if r["op"] == "mutate"],
                           "seconds": wall, "cpu_s": cpu, "calib_ms": (before + after) / 2})
            records += rs
            before = after
    finally:
        gc.enable()
    if len(blocks) < n_blocks:
        log("warning: request stream ran out before the time was up")
    records.sort(key=lambda r: r["i"])
    return records, blocks


def timed_phase(daemon, calib, conns, stream, seconds, workload, on_response):
    """The measured phase, with the daemon's cache counters around it."""
    _, hits0, lookups0 = metrics_reply(conns[0])
    records, blocks = measure(daemon, calib, conns, stream, seconds, workload == "write-mix",
                              on_response)
    m1, hits1, lookups1 = metrics_reply(conns[0])
    return {"records": records, "blocks": blocks,
            "hits": hits1 - hits0, "lookups": lookups1 - lookups0, "metrics": m1}


def write_probe(daemon, calib, conn, probe, warm_seconds=0):
    """write_p50_ms of a workload without writes: PROBE_SECONDS of the
    probe's mutates on one connection, measured in blocks like a timed
    phase.  A fresh daemon first runs `warm_seconds` of the probe untimed:
    its commit rate falls by a third over its first seconds of writes as
    its heap grows, while a daemon that has served a timed phase is past
    that.  Returns the blocks and whether every script applied in full."""
    reqs = [json.loads(l) for l in probe]
    done, ok = 0, True
    for seconds in [s for s in (warm_seconds, PROBE_SECONDS) if s]:
        records, blocks = measure(
            daemon, calib, [conn], probe[done:], seconds, False,
            lambda i, ms, line, d=done: op_record(i, ms, reqs[d + i], line))
        ok = ok and all(r["ok"] for r in records)
        done += len(records)
    return blocks, ok


def served(workload, seed, seconds, trace, workdir):
    # twice the time asked for: the stream must not run dry
    harness("gen", workload, "--seed", seed, "--seconds", 2 * seconds, "--dir", workdir)
    params = json.load(open(os.path.join(workdir, "params.json")))
    graph = os.path.join(workdir, "graph.pg")
    warm = read_lines(os.path.join(workdir, "warm.jsonl"))
    timed = read_lines(os.path.join(workdir, "timed.jsonl"))
    probe = read_lines(os.path.join(workdir, "probe.jsonl"))
    reqs = [json.loads(l) for l in timed]
    checks = {}
    samples, seen = [], set()

    def on_response(i, ms, line):
        rec = op_record(i, ms, reqs[i], line)
        if sample_wanted(workload, rec, seen):
            samples.append({"i": i, "phase": "timed", "req": reqs[i], "resp": json.loads(line)})
        return rec

    setups, setup_calib, drains, writes = [], [], [], None
    daemon = None
    calib = Calib()
    try:
        before = calib.sample()
        for k in range(SETUP_SPAWNS):
            daemon = Daemon(graph, workdir)
            setups.append(daemon.setup_s)
            after = calib.sample()
            setup_calib.append((before + after) / 2)
            before = after
            if k < SETUP_SPAWNS - 1:
                drains.append(daemon.drained_clean())
        conns = [Conn(daemon.port) for _ in range(params["connections"])]
        # warm-up writes are committed too: the checker replays them
        for j, line in enumerate(warm):
            req = json.loads(line)
            resp = json.loads(conns[0].request(line))
            if not resp.get("ok"):
                raise BenchError("warm-up request failed: %r" % line)
            if req["op"] == "mutate":
                samples.append({"i": j - len(warm), "phase": "warm", "req": req, "resp": resp})
        phase = timed_phase(daemon, calib, conns, timed, seconds, workload, on_response)
        records = phase["records"]
        samples.sort(key=lambda s: s["i"])
        if workload == "write-mix":
            keys = sorted({r["q"] for r in records if r["q"]})
            for n, q in enumerate(keys):
                req = {"op": "query", "id": -1 - n, "q": q, "limit": FINAL_LIMIT}
                resp = json.loads(conns[0].request(json.dumps(req).encode()))
                samples.append({"i": len(timed) + n, "phase": "final", "req": req, "resp": resp})
        else:
            writes, checks["probe_writes_ok"] = write_probe(daemon, calib, conns[0], probe)
        _, rss = daemon.stat()
        for c in conns:
            c.close()
        drains.append(daemon.drained_clean())
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
        calib.close()

    with open(os.path.join(workdir, "samples.jsonl"), "w") as f:
        for s in samples:
            f.write(json.dumps(s) + "\n")
    verdict = harness("check", workload, "--seed", seed, "--dir", workdir)

    failed = {r["i"] for r in records if not r["ok"]} | set(verdict["mismatched"])
    totals = verdict["totals"]
    if workload != "write-mix":
        failed |= {r["i"] for r in records if r["q"] in totals and r["total"] != totals[r["q"]]}
    expected_ratio = {"hot-reads": 1.0, "cold-reads": 0.0,
                      "write-mix": (WRITE_EVERY - 1 - 4) / (WRITE_EVERY - 1)}[workload]
    ratio = phase["hits"] / phase["lookups"]
    checks.update({
        "oracle_samples": verdict["checked"],
        "naive_agrees": verdict["naive_agrees"],
        "scratch_agrees": verdict["scratch_agrees"],
        "drained_clean": all(drains),
        "hit_ratio": ratio,
        "hit_ratio_expected": abs(ratio - expected_ratio) < 1e-9,
        "shed": phase["metrics"].get("shed", -1),
    })
    correct = (not failed and checks["naive_agrees"] and checks["scratch_agrees"]
               and checks["drained_clean"] and checks["hit_ratio_expected"]
               and checks["shed"] == 0 and checks.get("probe_writes_ok", True))

    e2e, record = summarise([r["ms"] for r in records], phase["blocks"], setups, setup_calib,
                            rss, writes, calib.samples)
    record.update(params=params, checks=checks,
                  cache={"hits": phase["hits"], "lookups": phase["lookups"]})
    layers = None
    if trace:
        rep = harness("replay", workload, "--dir", workdir, "--ops", len(records))
        elapsed = [r["elapsed_ms"] for r in records if r["elapsed_ms"] is not None]
        outside = [r["ms"] - r["elapsed_ms"] for r in records if r["elapsed_ms"] is not None]
        layers = {k: v for k, v in rep.items()
                  if k not in ("ops", "op_span_ms_p50", "self_ms") and v is not None}
        layers.update({
            "server.outside_eval_ms": statistics.median(outside),
            "admission.queue_peak": phase["metrics"].get("queue_peak", 0),
            "admission.shed": phase["metrics"].get("shed", 0),
            "semcache.result_hit_ratio": ratio,
            "semcache.result_lookups": phase["lookups"],
            "trace.coverage": rep["op_span_ms_p50"] / statistics.median(elapsed),
        })
        record["self_ms"] = rep["self_ms"]
    return correct, len(records), len(failed), e2e, layers, record


def summarise(lat, blocks, setups, setup_calib, rss, probe, calib_ms):
    """End-to-end metrics and the run record's common part.  The timed
    metrics are medians over the blocks at the reference host's speed
    (`scaled`); write_p50_ms comes from write-mix's own mutates (`probe`
    None) or from the write probe's blocks.  setup_s is the median of the
    set-ups, each scaled by the calib kernel's time around it.  The
    record keeps the values as measured, pooled over the whole phase."""
    e2e = scaled(blocks, ("ops_per_s", "p50_ms", "p90_ms", "cpu_ms_per_op"))
    e2e.update(scaled(blocks if probe is None else probe, ("write_p50_ms",)))
    e2e.update(setup_s=statistics.median(s * CALIB_REF_MS / c
                                         for s, c in zip(setups, setup_calib)),
               peak_rss_mb=rss)
    run_scale = statistics.median(calib_ms) / CALIB_REF_MS
    whole, writes = stats(blocks), stats(blocks if probe is None else probe)
    return e2e, {
        "as_measured": {"ops_per_s": whole["ops_per_s"], "p50_ms": whole["p50_ms"],
                        "p90_ms": whole["p90_ms"], "cpu_ms_per_op": whole["cpu_ms_per_op"],
                        "write_p50_ms": writes["write_p50_ms"],
                        "setup_s": statistics.median(setups)},
        "run_scale": run_scale,
        "calib_ms": calib_ms,
        # ops beyond each percentile of the whole phase; the gated ones are per block
        "samples": {"ops": len(lat), "blocks": len(blocks), "beyond_p50": len(lat) // 2,
                    "beyond_p90": len(lat) // 10, "beyond_p99": len(lat) // 100,
                    "writes": writes["writes"], "setups": len(setups)},
        "p99_ms": quantile(lat, 0.99),
        "blocks": [dict(stats([b]), calib_ms=b["calib_ms"]) for b in blocks],
        "write_probe_blocks": None if probe is None else [
            dict(stats([b]), calib_ms=b["calib_ms"]) for b in probe],
        "setup_s_all": setups,
        "setup_calib_ms": setup_calib,
    }


def join_batch(seed, seconds, trace, workdir):
    # Another process writes the inputs, so the measuring process's RSS
    # and CPU are its own.
    harness("gen", "join-batch", "--seed", seed, "--seconds", seconds, "--dir", workdir)
    params = json.load(open(os.path.join(workdir, "params.json")))
    r = harness("join", "--dir", workdir, "--setups", SETUP_SPAWNS,
                "--blocks", max(1, seconds // BLOCK_SECONDS), "--block-seconds", BLOCK_SECONDS,
                "--replay", 1 if trace else 0)
    blocks = [{"lat": b["ms"], "writes": [], "seconds": b["wall_s"], "cpu_s": b["cpu_s"],
               "calib_ms": b["calib_ms"]} for b in r["blocks"]]
    lat = [ms for b in r["blocks"] for ms in b["ms"]]
    # The daemon has no join op and join-batch no writes; its write_p50_ms
    # is the same daemon write probe as hot-reads and cold-reads run.
    daemon = Daemon(os.path.join(workdir, "graph.pg"), workdir)
    calib = Calib()
    try:
        conn = Conn(daemon.port)
        writes, probe_ok = write_probe(daemon, calib, conn,
                                       read_lines(os.path.join(workdir, "probe.jsonl")),
                                       warm_seconds=PROBE_SECONDS)
        conn.close()
        drained = daemon.drained_clean()
    finally:
        daemon.kill()
        calib.close()
    e2e, record = summarise(lat, blocks, r["setup_s_all"], r["setup_calib_ms"],
                            r["peak_rss_mb"], writes, r["calib_ms_all"] + calib.samples)
    checks = dict(r["checks"], probe_writes_ok=probe_ok, drained_clean=drained)
    record.update(params=params, checks=checks)
    if trace:
        record["self_ms"] = r["self_ms"]
    return (r["failed"] == 0 and all(checks.values()), len(lat), r["failed"], e2e,
            r.get("layers"), record)


# ---- the run record ---------------------------------------------------------

def host_facts():
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=10,
                                  text=True).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"
    return {"nproc": os.cpu_count(), "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
            "commit": out(["git", "rev-parse", "HEAD"]) if os.path.isdir(
                os.path.join(ROOT, ".git")) else "unknown"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        cpu = pin_to_one_cpu()
        workdir = os.path.join(WORK, "%s-%d" % (a.workload, a.seed))
        os.makedirs(workdir, exist_ok=True)
        for f in os.listdir(workdir):
            os.remove(os.path.join(workdir, f))
        run = join_batch if a.workload == "join-batch" else (
            lambda *x: served(a.workload, *x))
        correct, attempted, failed, e2e, layers, record = run(a.seed, a.seconds, a.trace,
                                                              workdir)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    if layers is not None:
        record["absent"] = {k: absent_why(k, a.workload) for k in LAYER_UNITS if k not in layers}
    record.update({"schema": "gqkg-bench-run/1", "workload": a.workload, "tier": "standard",
                   "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
                   "host": dict(host_facts(), cpu=cpu), "end_to_end": e2e, "per_layer": layers,
                   "correct": correct, "attempted": attempted, "failed": failed})
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, "%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace)),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record))
    if a.trace:
        metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def absent_why(metric, workload):
    """Why a per-layer metric has no value on this workload (reported as 0)."""
    if workload == "join-batch":
        return ("join-batch runs in-process CRPQ and SPARQL rounds: no wire, no RPQ planner "
                "or result cache, no writes among the rounds")
    if metric.split(".")[0] in ("snapshot_io", "ntriples", "crpq_parser", "crpq", "sparql"):
        return "served workloads load a .pg graph and run only regular path queries"
    if metric == "governor.eval_pairs_ms":
        return "every timed read hit the result cache"
    return "no mutate request among the timed ops"


LAYER_UNITS = {
    "server.outside_eval_ms": "ms",
    "admission.queue_peak": "count",
    "admission.shed": "count",
    "jsonx.decode_us": "us",
    "jsonx.encode_us": "us",
    "regex_parser.parse_us": "us",
    "planner.semantic_key_us": "us",
    "planner.schema_for_ms": "ms",
    "semcache.lookup_us": "us",
    "semcache.result_hit_ratio": "ratio",
    "semcache.result_lookups": "count",
    "governor.eval_pairs_ms": "ms",
    "product.states_per_op": "count",
    "frontier.top_down_levels_per_op": "count",
    "frontier.bottom_up_levels_per_op": "count",
    "journal.parse_us": "us",
    "overlay.apply_us": "us",
    "overlay.columns_reused_ratio": "ratio",
    "governor.commit_ms": "ms",
    "graph_io.load_s": "s",
    "overlay.base_of_property_s": "s",
    "snapshot_io.load_s": "s",
    "ntriples.load_s": "s",
    "crpq_parser.parse_us": "us",
    "crpq.iter_answers_ms": "ms",
    "crpq.tuples_per_round": "count",
    "sparql.run_ms": "ms",
    "sparql.rows_per_round": "count",
    "gc.minor_mwords_per_op": "Mwords",
    "gc.major_collections_per_op": "count",
    "trace.coverage": "ratio",
}

if __name__ == "__main__":
    sys.exit(main())
