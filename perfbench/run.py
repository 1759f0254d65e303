#!/usr/bin/env python3
"""tmg benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tmg checkout. The first run builds tmg and the
tmgbench helper from source into $CARGO_TARGET_DIR (default .bench_build);
inputs go to .bench_work/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end set (tracing off); with --trace 1 they are the per-layer set
from the traced run. See perfbench/README.md for what each number means.
"""

import argparse
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import selectors
import shutil
import signal
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("loop-b4", "dag-whole", "deep-struct", "serve-mixed")

# Noise hygiene (README.md): every parallelism setting is explicit and at
# most 2, load comes from one process, no metric is one sample.
JOBS = 2
SERVE_WORKERS = 2
CONNECTIONS = 2
SETUP_REPS = 5
MIN_PASSES = 3
SERVE_PASS_REQUESTS = 400
SERVE_PASS_MISSES = 80  # ~20 %: 10 blocks of the 8 paper examples
SERVE_METRICS_EVERY = 200
SERVE_CACHE_MB = 1024
MIN_HITS = 1000
MIN_MISSES = 100


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------------ build

def build():
    """Builds tmg and tmgbench from the checkout; returns their paths."""
    for rel in ("CMakeLists.txt", "src/driver/main.cpp", "tests/fuzz_gen.cpp",
                "examples/b1.mc"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail("not a tmg checkout (missing %s)" % rel)
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    with open(log, "ab") as out:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            if subprocess.call(["cmake", "-S", HERE, "-B", bdir,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=out, stderr=out) != 0:
                fail("cmake configure failed, see " + log)
        if subprocess.call(["cmake", "--build", bdir, "--target", "tmg",
                            "tmgbench", "-j", "4"], stdout=out, stderr=out) != 0:
            fail("build failed, see " + log)
    return os.path.join(bdir, "tmg", "tmg"), os.path.join(bdir, "tmgbench")


# -------------------------------------------------------------- processes

def spawn_wait(argv, stdout_path, on_stderr_line=None):
    """Runs argv to completion with stdout to a file. Returns
    (wall_s, cpu_s, max_rss_mb, exit_code, stderr_text); `on_stderr_line`
    sees each stderr line as it arrives."""
    rfd, wfd = os.pipe()
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, wfd, 2),
            (os.POSIX_SPAWN_CLOSE, rfd)])
        os.close(wfd)
        err = []
        try:
            with os.fdopen(rfd, "rb") as r:
                for line in r:
                    if on_stderr_line is not None:
                        on_stderr_line(line, time.perf_counter() - t0)
                    err.append(line)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
            os.waitstatus_to_exitcode(status), b"".join(err).decode(errors="replace"))


def tool(bench, *args):
    if subprocess.call([bench] + list(args)) != 0:
        fail("tmgbench %s failed" % args[0])


# ----------------------------------------------------------------- checks

def seg_rows_cli(report):
    """fn -> [(feasible, infeasible, unknown, bcet, wcet)] from a CLI JSON
    report."""
    return {f["name"]: [(s["feasible"], s["infeasible"], s["unknown"],
                         s["bcet"], s["wcet"]) for s in f["segments"]]
            for f in report["functions"]}


def seg_rows_wire(report):
    """The same from a serve (shard wire) report: segment arrays hold
    feasible/infeasible/unknown at 7..9 and bcet/wcet at 12..13."""
    return {f["name"]: [(s[7], s[8], s[9], s[12], s[13]) for s in f["segments"]]
            for f in report["functions"]}


def agrees(rows, ref):
    """Checks reported segments against the brute-force reference. With no
    unknown verdicts the model must be exact; an unknown path may hide
    either verdict, so the counts and bounds must then only be consistent
    (never claim a traversed path infeasible or an untraversed one
    feasible, and keep BCET/WCET conservative)."""
    if set(rows) != set(ref):
        return False
    for fn, segs in rows.items():
        exp = ref[fn]
        if len(segs) != len(exp):
            return False
        for (f, i, u, b, w), (ef, ei, eb, ew) in zip(segs, exp):
            if u == 0:
                if (f, i, b, w) != (ef, ei, eb, ew):
                    return False
            elif f > ef or i > ei or f + i + u != ef + ei or b > eb or w < ew:
                return False
    return True


def decided(rows):
    dec = tot = 0
    for segs in rows.values():
        for f, i, u, _, _ in segs:
            dec += f + i
            tot += f + i + u
    return dec, tot


def count_report(report, rows, exp, tally):
    """Checks one analysed file against its reference entry (closed-form
    counts or brute-force segments; unchecked entries count in neither
    side) and adds its verdicts to the decided tally."""
    d, t = decided(rows)
    tally["decided"] += d
    tally["paths"] += t
    if "closed_form" in exp:
        got = {f["name"]: [int(f["paths"]), len(f["segments"])]
               for f in report["functions"]}
        ok = got == exp["closed_form"]
    elif "functions" in exp:
        ok = agrees(rows, exp["functions"])
    else:
        return
    tally["checked"] += 1
    tally["agree"] += ok


def check_cli_output(path, manifest, ref, tally):
    """Checks one batch report file; updates tally in place."""
    try:
        with open(path) as fh:
            out = json.load(fh)
        entries = {os.path.basename(e["path"]): e for e in out["files"]}
    except (OSError, ValueError, KeyError, TypeError):
        entries = {}
    for name in manifest["files"]:
        tally["attempted"] += 1
        e = entries.get(name)
        if e is None or "report" not in e:
            tally["failed"] += 1
            continue
        count_report(e["report"], seg_rows_cli(e["report"]),
                     ref["files"][name], tally)


def new_tally():
    return {"attempted": 0, "failed": 0, "checked": 0, "agree": 0,
            "decided": 0, "paths": 0}


def pct(values, q):
    """q-th percentile (1..99), interpolated between samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------- batch workloads

def tmg_argv(tmg, manifest, files):
    o = manifest["options"]
    argv = [tmg, "--format=json", "--jobs=%d" % JOBS, "--bound=%d" % o["bound"],
            "--max-paths=%d" % o["max_paths"]]
    if o["opt"]:
        argv.append("--opt")
    if not o["bmc"]:
        argv.append("--no-bmc")
    return argv + files


def setup_batch(bench, tmg, workload, seed, work):
    """One set-up: generate the inputs, then one structural (--no-bmc)
    warm-up tmg run that loads the binary and the inputs into the page
    cache: over the whole corpus, or only its first file where the
    workload is structural already (deep-struct)."""
    t0 = time.perf_counter()
    tool(bench, "gen", "--workload", workload, "--seed", str(seed),
         "--repo", ROOT, "--out", work)
    manifest = load_json(os.path.join(work, "manifest.json"))
    n = len(manifest["files"]) if manifest["options"]["bmc"] else 1
    files = [os.path.join(work, "files", f) for f in manifest["files"][:n]]
    res = spawn_wait(tmg_argv(tmg, manifest, files) + ["--no-bmc"],
                     os.path.join(work, "warmup.json"))
    if res[3] != 0:
        fail("warm-up run failed: " + res[4][-500:])
    return time.perf_counter() - t0


def measure_batch(tmg, work, manifest, ref, seconds):
    """Passes of one tmg batch process over the whole corpus until
    `seconds` have elapsed (at least MIN_PASSES)."""
    files = [os.path.join(work, "files", f) for f in manifest["files"]]
    argv = tmg_argv(tmg, manifest, files) + ["--progress"]
    tally = new_tally()
    walls, cpus, rss, rates, done_ms = [], [], [], [], []
    t_end = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < t_end:
        marks = []

        def on_line(line, t, marks=marks):
            if line.startswith(b"tmg: progress:"):
                marks.append(t * 1000.0)
        out = os.path.join(work, "pass.json")
        wall, cpu, mrss, code, err = spawn_wait(argv, out, on_line)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(mrss)
        rates.append(len(files) / wall)
        done_ms.extend(marks)
        if code != 0:
            print("perfbench: tmg exited %d: %s" % (code, err[-500:]),
                  file=sys.stderr)
        check_cli_output(out, manifest, ref, tally)
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "req_per_s": statistics.median(rates),
        "p50_ms": pct(done_ms, 50),
        "p90_ms": pct(done_ms, 90),
    }, tally, {"pass_walls": [round(w, 4) for w in walls],
               "latency_samples": len(done_ms)}


# ------------------------------------------------------------ serve-mixed

def wire(sock_path, payload, timeout=60.0):
    """One EOF-framed request over the unix socket; returns the reply."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(sock_path)
        s.sendall(payload)
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            b = s.recv(1 << 16)
            if not b:
                break
            chunks.append(b)
        return b"".join(chunks)
    finally:
        s.close()


class Daemon:
    """A `tmg serve` process on a unix socket inside the work dir, over
    the cache directory `cache`."""

    def __init__(self, tmg, work, cache, tag):
        self.sock = os.path.join(work, "s%s.sock" % tag)
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.log = open(os.path.join(work, "serve%s.log" % tag), "wb")
        self.proc = subprocess.Popen(
            [tmg, "serve", "--socket=" + self.sock, "--cache-dir=" + cache,
             "--serve-workers=%d" % SERVE_WORKERS, "--jobs=1",
             "--cache-max-mb=%d" % SERVE_CACHE_MB],
            stdout=self.log, stderr=self.log)
        deadline = time.time() + 30
        while True:
            try:
                wire(self.sock, b'{"v":2,"cmd":"metrics"}', 5)
                return
            except OSError:
                if self.proc.poll() is not None or time.time() > deadline:
                    self.stop()
                    fail("tmg serve did not start")
                time.sleep(0.01)

    def cpu_s(self):
        """CPU time of the daemon's threads, from their schedstat run
        times (ns; /proc/<pid>/stat counts in 10 ms ticks). The daemon's
        threads live as long as it does."""
        total = 0
        task = "/proc/%d/task" % self.proc.pid
        for tid in os.listdir(task):
            try:
                with open("%s/%s/schedstat" % (task, tid)) as fh:
                    total += int(fh.read().split()[0])
            except OSError:
                pass
        return total / 1e9

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def metrics(self):
        return json.loads(wire(self.sock, b'{"v":2,"cmd":"metrics"}'))["metrics"]

    def stop(self):
        if self.proc.poll() is None:
            try:
                wire(self.sock, b'{"v":2,"cmd":"shutdown"}', 10)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def read_lines(path):
    with open(path, "rb") as fh:
        return [line.rstrip(b"\n") for line in fh if line.strip()]


def warm(daemon, payloads):
    for payload in payloads:
        reply = json.loads(wire(daemon.sock, payload))
        if not reply.get("ok"):
            daemon.stop()
            fail("warm-up request failed: %s" % reply.get("error"))


def setup_serve(bench, tmg, seed, work):
    """One set-up: generate the inputs, start the daemon on an empty cache,
    warm the cache with every hit file through the daemon and stop it.
    The warm cache directory is the starting state of every pass."""
    t0 = time.perf_counter()
    tool(bench, "gen", "--workload", "serve-mixed", "--seed", str(seed),
         "--repo", ROOT, "--out", work)
    d = Daemon(tmg, work, os.path.join(work, "cache-warm"), "")
    try:
        warm(d, read_lines(os.path.join(work, "hits.jsonl")))
    finally:
        d.stop()
    return time.perf_counter() - t0


def serve_schedule(manifest, seed):
    """The requests of one pass, the same in every pass of a run:
    (kind, key, index into hits/misses). A metrics request every
    SERVE_METRICS_EVERY, SERVE_PASS_MISSES misses at seeded places (the
    edits in order: whole blocks of one edit per paper example), and a
    hit on a seeded warm file everywhere else."""
    if SERVE_PASS_MISSES > len(manifest["misses"]):
        fail("serve-mixed needs %d miss edits per pass" % SERVE_PASS_MISSES)
    rng = random.Random(seed)
    slots = [n for n in range(SERVE_PASS_REQUESTS)
             if n % SERVE_METRICS_EVERY != SERVE_METRICS_EVERY - 1]
    miss_at = sorted(rng.sample(slots, SERVE_PASS_MISSES))
    out = []
    for n in range(SERVE_PASS_REQUESTS):
        if n % SERVE_METRICS_EVERY == SERVE_METRICS_EVERY - 1:
            out.append(("metrics", None, None))
        elif miss_at and miss_at[0] == n:
            k = SERVE_PASS_MISSES - len(miss_at)
            miss_at.pop(0)
            out.append(("miss", manifest["misses"][k][0], k))
        else:
            k = rng.randrange(len(manifest["files"]))
            out.append(("hit", manifest["files"][k], k))
    return out


def closed_loop(sock_path, schedule, payload):
    """Sends `schedule` over CONNECTIONS closed-loop connections,
    multiplexed by this one thread: each connection sends its next request
    when the previous reply has arrived. One thread keeps the client's own
    scheduling (and Python's GIL hand-offs) out of the latencies. Returns
    (kind, key, latency_s, reply) per request."""
    records = []
    todo = iter(schedule)
    sel = selectors.DefaultSelector()

    def send(req):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        t0 = time.perf_counter()
        try:
            s.connect(sock_path)
            s.sendall(payload(req))
            s.shutdown(socket.SHUT_WR)
        except OSError as e:
            s.close()
            records.append(req[:2] + (time.perf_counter() - t0, json.dumps(
                {"ok": False, "error": str(e)}).encode()))
            return False
        s.setblocking(False)
        sel.register(s, selectors.EVENT_READ, [req, t0, []])
        return True

    def refill(in_flight):
        for req in todo:
            if send(req):
                in_flight += 1
                if in_flight == CONNECTIONS:
                    break
        return in_flight

    in_flight = refill(0)
    while in_flight:
        for key, _ in sel.select():
            s, (req, t0, chunks) = key.fileobj, key.data
            try:
                b = s.recv(1 << 16)
            except BlockingIOError:
                continue
            except OSError:
                b = b""
                chunks[:] = [json.dumps({"ok": False, "error": "recv"}).encode()]
            if b:
                chunks.append(b)
                continue
            records.append(req[:2] + (time.perf_counter() - t0, b"".join(chunks)))
            sel.unregister(s)
            s.close()
            in_flight = refill(in_flight - 1)
    sel.close()
    return records


def measure_serve(tmg, work, manifest, ref, seed, seconds):
    """Passes until `seconds` have elapsed (at least MIN_PASSES, MIN_HITS
    hits and MIN_MISSES misses). Every pass starts a daemon on a copy of
    the warm cache, sends each hit file once more (untimed; the stat fast
    path is per daemon), then times the same SERVE_PASS_REQUESTS requests.
    A pass therefore never sees an earlier pass's stores: every pass has
    the same misses, hits and cache size, however many passes the host's
    speed allows."""
    hits = read_lines(os.path.join(work, "hits.jsonl"))
    misses = read_lines(os.path.join(work, "misses.jsonl"))
    metrics_req = b'{"v":2,"cmd":"metrics"}'
    schedule = serve_schedule(manifest, seed)

    def payload(req):
        kind, _, k = req
        return metrics_req if kind == "metrics" else (hits if kind == "hit" else misses)[k]

    records, passes = [], []  # passes: (wall, cpu, peak_rss)
    t_end = time.perf_counter() + seconds
    while (len(passes) < MIN_PASSES or time.perf_counter() < t_end or
           sum(r[0] == "hit" for r in records) < MIN_HITS or
           sum(r[0] == "miss" for r in records) < MIN_MISSES):
        cache = os.path.join(work, "cache%d" % len(passes))
        shutil.copytree(os.path.join(work, "cache-warm"), cache)
        d = Daemon(tmg, work, cache, "")
        try:
            warm(d, hits)
            cpu0 = d.cpu_s()
            t0 = time.perf_counter()
            got = closed_loop(d.sock, schedule, payload)
            wall = time.perf_counter() - t0
            passes.append((wall, d.cpu_s() - cpu0, d.peak_rss_mb()))
            try:
                daemon_metrics = d.metrics()
            except (OSError, ValueError, KeyError):
                daemon_metrics = None  # a failed daemon shows in `failed`
        finally:
            d.stop()
        records.extend(got)
        if sum(not r[3].startswith(b'{"ok":true') for r in got) > len(got) // 2:
            break  # the daemon is failing; stop and report

    tally = new_tally()
    lat = {"hit": [], "miss": []}
    for kind, key, dt, reply in records:
        tally["attempted"] += 1
        try:
            r = json.loads(reply)
        except ValueError:
            r = {"ok": False}
        if not r.get("ok"):
            tally["failed"] += 1
            continue
        if kind == "metrics":
            continue
        lat[kind].append(dt * 1000.0)
        report = r["files"][0]["report"]
        count_report(report, seg_rows_wire(report),
                     ref["files" if kind == "hit" else "misses"][key], tally)
    return {
        "wall_s": statistics.median(p[0] for p in passes),
        "cpu_s": statistics.median(p[1] for p in passes),
        "peak_rss_mb": statistics.median(p[2] for p in passes),
        "req_per_s": statistics.median(SERVE_PASS_REQUESTS / p[0] for p in passes),
        "p50_ms": pct(lat["hit"], 50),
        "p90_ms": pct(lat["hit"], 90),
        "miss_p50_ms": pct(lat["miss"], 50),
    }, tally, {"pass_walls": [round(p[0], 4) for p in passes],
               "hits": len(lat["hit"]), "misses": len(lat["miss"]),
               "daemon_metrics": daemon_metrics}


# ------------------------------------------------------------ traced run

PROBE_REQUESTS = 300


def traced(tmg, bench, work, workload, seed, seconds):
    """Per-layer metrics: tmgbench's traced module run, then a live-daemon
    probe for the wire/transport share of a cache hit."""
    tool(bench, "gen", "--workload", workload, "--seed", str(seed),
         "--repo", ROOT, "--out", work)
    tool(bench, "ref", "--dir", work)
    ref = load_json(os.path.join(work, "reference.json"))
    proc = subprocess.run([bench, "trace", "--dir", work, "--seconds",
                           str(seconds)], capture_output=True, text=True)
    if proc.returncode != 0:
        fail("traced run failed: " + proc.stderr[-500:])
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])

    probe = read_lines(os.path.join(work, "probe.jsonl"))
    names = [json.loads(p)["files"][0]["name"] for p in probe]
    tally = new_tally()
    lat = []
    daemon = Daemon(tmg, work, os.path.join(work, "cache-probe"), "t")
    try:
        for payload in probe:  # warm: each probe file analysed once
            wire(daemon.sock, payload)
        m0 = daemon.metrics()["registry"]["histograms"]["serve.request_us"]
        for k in range(PROBE_REQUESTS):
            t0 = time.perf_counter()
            reply = wire(daemon.sock, probe[k % len(probe)])
            lat.append((time.perf_counter() - t0) * 1000.0)
            tally["attempted"] += 1
            try:
                report = json.loads(reply)["files"][0]["report"]
            except (ValueError, KeyError, IndexError, TypeError):
                tally["failed"] += 1
                continue
            count_report(report, seg_rows_wire(report),
                         ref["files"][names[k % len(probe)]], tally)
        m1 = daemon.metrics()["registry"]["histograms"]["serve.request_us"]
    finally:
        daemon.stop()
    daemon_ms = (m1["sum"] - m0["sum"]) / max(m1["count"] - m0["count"], 1) / 1000.0
    client_p50 = pct(lat, 50)
    metrics["serve.client_hit_p50_ms"] = {"value": client_p50, "unit": "ms"}
    metrics["serve.daemon_hit_ms"] = {"value": daemon_ms, "unit": "ms"}
    metrics["serve.transport_ms"] = {"value": client_p50 - daemon_ms, "unit": "ms"}
    metrics["serve.hit_inprocess_share"] = {
        "value": metrics["serve.handle_hit_ms"]["value"] / client_p50
        if client_p50 > 0 else 0.0, "unit": "share"}
    correct = (tally["failed"] == 0 and tally["checked"] > 0
               and tally["agree"] == tally["checked"])
    return {"correct": correct, "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


# -------------------------------------------------------------------- main

def load_json(path):
    with open(path) as fh:
        return json.load(fh)


UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "correct_share": "share", "ok_share": "share", "req_per_s": "1/s",
         "p50_ms": "ms", "p90_ms": "ms"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # A SIGTERM unwinds like an error, so every started tmg is stopped and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    tmg, bench = build()
    # Paths below are relative to the checkout root, which keeps the
    # daemon's unix socket path short wherever the checkout lives.
    os.chdir(ROOT)
    base = os.path.join(".bench_work", args.workload)
    # Earlier runs' files are removed here, outside every timed phase, and
    # the disk is synced: deleting thousands of files on a discard-mounted
    # disk took up to 1.5 s, and its write-back slowed the set-ups after
    # it, so set-up time depended on what the last run left.
    shutil.rmtree(base, ignore_errors=True)
    os.sync()

    if args.trace:
        print(json.dumps(traced(tmg, bench, os.path.join(base, "trace"),
                                args.workload, args.seed, args.seconds)))
        return

    setups = []
    for rep in range(SETUP_REPS):
        # Each set-up writes a fresh directory; the last one is used.
        work = os.path.join(base, "setup%d" % rep)
        if args.workload == "serve-mixed":
            setups.append(setup_serve(bench, tmg, args.seed, work))
        else:
            setups.append(setup_batch(bench, tmg, args.workload, args.seed,
                                      work))
        # Write-back of one set-up's files is not charged to the next.
        os.sync()
    # The brute-force reference runs outside every metric.
    tool(bench, "ref", "--dir", work)
    manifest = load_json(os.path.join(work, "manifest.json"))
    ref = load_json(os.path.join(work, "reference.json"))
    if args.workload == "serve-mixed":
        metrics, tally, info = measure_serve(tmg, work, manifest, ref,
                                             args.seed, args.seconds)
    else:
        metrics, tally, info = measure_batch(tmg, work, manifest, ref,
                                             args.seconds)

    metrics["setup_s"] = statistics.median(setups)
    info["setups"] = [round(t, 4) for t in setups]
    metrics["correct_share"] = tally["agree"] / max(tally["checked"], 1)
    metrics["ok_share"] = 1.0 - tally["failed"] / max(tally["attempted"], 1)
    info.update(tally)
    info["decided_share"] = tally["decided"] / max(tally["paths"], 1)
    info["miss_p50_ms"] = metrics.pop("miss_p50_ms", None)
    print("perfbench: %s seed %d: %s" % (args.workload, args.seed,
                                         json.dumps(info, sort_keys=True)),
          file=sys.stderr)
    correct = (tally["checked"] > 0 and tally["agree"] == tally["checked"]
               and tally["failed"] == 0)
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS},
    }))


if __name__ == "__main__":
    main()
