#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of rtgen.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds `bin/rtgen.exe` and the per-layer probe with dune, simulates
the workload's inputs from the seed, measures for S seconds, checks
every output against an independent reference, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (rtgen timed from outside,
as a user runs it); `--trace 1` reports the per-layer metrics from a
separate run that times calls into the layers (perfbench/probe) next
to one real program run. Workloads, metrics and the reasons for them
are described in perfbench/NOTES.md.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RTGEN = os.path.join(ROOT, "_build", "default", "bin", "rtgen.exe")
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe", "probe.exe")
WORK = os.path.join(HERE, ".work")
OCAMLC = shutil.which("ocamlc.opt") or "ocamlc.opt"
CACHE = os.path.join(HERE, ".cache")

# Shapes. `tasks` 0 is the GM case study; every other design is fixed by
# `design_seed`, so the benchmark seed moves jitter and timing but not
# the amount of work. `every` is the checkpoint cadence (0: none).
WORKLOADS = {
    "learn-b150": dict(kind="learn", tasks=0, design_seed=0, streams=1,
                       periods=27, bound=150, every=0),
    "learn-long-b1": dict(kind="learn", tasks=4, design_seed=3, streams=1,
                          periods=200000, bound=1, every=0),
    "serve-drain": dict(kind="drain", tasks=12, design_seed=11, streams=4,
                        periods=800, bound=1, every=4),
    "serve-trickle": dict(kind="trickle", tasks=12, design_seed=11, streams=4,
                          rate=170.0, bound=1, every=4),
}

SETUP_REPEATS = 31
RUN_LIMIT_S = 170  # a run, after the build, must end within this
GC_STATS = {"OCAMLRUNPARAM": "v=0x400"}  # runtime prints GC totals at exit


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    pass


# --- processes -------------------------------------------------------------

CHILDREN = []
DEADLINE = [float("inf")]  # monotonic time by which the run must end


def remaining():
    left = DEADLINE[0] - time.monotonic()
    if left <= 0:
        raise Failure(f"run exceeded {RUN_LIMIT_S} s")
    return left


def on_alarm(signum, frame):
    raise Failure(f"run exceeded {RUN_LIMIT_S} s")


def spawn(cmd, cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    p = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=stderr,
                         env=dict(os.environ, **GC_STATS))
    CHILDREN.append(p)
    return p


def reap(p):
    """Wait for p, at most until the run's deadline; return (exit code,
    rusage)."""
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(max(1, int(remaining())))
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        signal.alarm(0)
    p.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(p)
    return p.returncode, ru


def stop_children():
    for p in list(CHILDREN):
        if p.poll() is None:
            p.kill()
        p.wait()
        CHILDREN.remove(p)


def run_timed(cmd, cwd):
    """Run cmd to completion. Returns a dict with its spawn time, wall
    seconds, exit code, rusage, stdout bytes, stderr text and the runtime's
    allocated bytes."""
    with open(os.path.join(cwd, "rtgen.stdout"), "w+b") as fo, \
            open(os.path.join(cwd, "rtgen.stderr"), "w+b") as fe:
        t0 = time.perf_counter()
        p = spawn(cmd, cwd, stdout=fo, stderr=fe)
        code, ru = reap(p)
        wall = time.perf_counter() - t0
        fo.seek(0)
        fe.seek(0)
        out, err = fo.read(), fe.read().decode(errors="replace")
    return dict(t0=t0, wall=wall, code=code, ru=ru, out=out, err=err,
                alloc=gc_alloc_bytes(err))


def gc_alloc_bytes(err):
    for line in err.splitlines():
        if line.startswith("allocated_words:"):
            return int(line.split()[1]) * 8
    return None


def cpu_s(ru):
    return ru.ru_utime + ru.ru_stime


# --- files -----------------------------------------------------------------

def tree_bytes(path):
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


def new_dir(parent, prefix):
    """A new directory under parent. Nothing under the work directory is
    deleted while a run measures: on ext4 mounted with `discard`, deleting
    the thousands of small files a store holds makes the next file
    allocations cost several times more system time for tens of seconds,
    which showed up as a 3x drift in the daemon's CPU time."""
    for n in itertools.count():
        path = os.path.join(parent, f"{prefix}{n}")
        try:
            os.makedirs(path)
            return path
        except FileExistsError:
            pass


def latest_address(store, ref):
    """Blob address of a store ref's latest generation (its .ref ledger's
    last `gen` line), or None."""
    path = os.path.join(store, "refs", ref + ".ref")
    try:
        with open(path) as f:
            gens = [l.split() for l in f if l.startswith("gen ")]
    except OSError:
        return None
    return gens[-1][2] if gens else None


def setup_trace(trace, dest):
    """Header plus the first period of trace with its bus frames removed:
    the smallest input that takes the same CLI path (load, one period,
    store commit) with no learning work, used to time set-up."""
    lines, periods = [], 0
    with open(trace) as f:
        for line in f:
            if line.startswith("period "):
                periods += 1
                if periods == 2:
                    break
            if " rise " not in line and " fall " not in line:
                lines.append(line)
    with open(dest, "w") as f:
        f.writelines(lines)
    return dest


def count_periods(path):
    with open(path, "rb") as f:
        return sum(1 for l in f if l.startswith(b"period "))


# --- statistics -------------------------------------------------------------

def pct(values, q):
    """Nearest-rank percentile."""
    v = sorted(values)
    k = max(0, min(len(v) - 1, int(-(-q * len(v) // 1)) - 1))
    return v[k]


def repeat(rep, seconds, workdir):
    """Closed loop: run rep(i) back to back until `seconds` have passed,
    starting another only if most of it fits, with a calibration before the
    first and after each one. Each result gets `cal`: the mean of the two
    calibrations around it; and `late`: how long after it was due (window
    start, or the end of the previous calibration) its process was spawned
    -- the generator's own lateness."""
    reps = []
    cal = [calibrate(workdir)]
    due = time.perf_counter()
    deadline = due + seconds
    while True:
        r = rep(len(reps))
        cal.append(calibrate(workdir))
        r["cal"] = (cal[-2] + cal[-1]) / 2
        log(f"repetition {len(reps)}: wall {r['wall']:.4f} s, user {r['ru'].ru_utime:.4f} s, "
            f"sys {r['ru'].ru_stime:.4f} s, calibration {cal[-1]:.4f} s")
        r["late"] = r["t0"] - due
        due = time.perf_counter()
        reps.append(r)
        if deadline - time.perf_counter() < 0.5 * statistics.median(x["wall"] for x in reps):
            return reps


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- calibration -----------------------------------------------------------

# The host's speed moves by up to 2x over minutes, and CPU time moves with
# it. The closed-loop workloads (learn, drain) therefore time a fixed
# reference job next to each repetition and express rtgen's CPU time in
# reference seconds: CPU time x CAL_REF_S / the reference job's CPU time.
# The reference job is the toolchain's bytecode compiler on a fixed
# generated source, a large allocation-heavy OCaml program like rtgen
# itself; small loops (a hash table, a pointer chase) did not track rtgen's
# drift (see NOTES.md).
CAL_DEFS = 700
CAL_RUNS = 2  # compiles per calibration; host speed moves within seconds
CAL_REF_S = 0.5


def calibration_source():
    lines = []
    for i in range(CAL_DEFS):
        lines.append(f"type r{i} = {{ a{i} : int; b{i} : string list; c{i} : float array }}")
        lines.append(
            f"let rec f{i} (x : r{i}) y = match x.b{i} with [] -> x.a{i} + y | s :: _ -> "
            f"String.length s + Array.length x.c{i} + "
            f"(if y > {i} then f{i} {{ x with a{i} = y - 1 }} (y - 1) else 0)")
    return "\n".join(lines) + "\n"


def calibrate(workdir):
    """Mean CPU seconds of CAL_RUNS compiles of the calibration source."""
    src = os.path.join(workdir, "calib.ml")
    if not os.path.exists(src):
        with open(src, "w") as f:
            f.write(calibration_source())
    times = []
    for _ in range(CAL_RUNS):
        r = run_timed([OCAMLC, "-c", "-o", os.path.join(workdir, "calib.cmo"), src], workdir)
        if r["code"] != 0:
            raise Failure(f"calibration compile exited {r['code']}: {r['err'][-300:]}")
        times.append(cpu_s(r["ru"]))
    return statistics.mean(times)


def rates(reps, periods, units):
    """Each closed-loop repetition's rate, periods per reference CPU-second,
    and its service lag: reference CPU time per unit of input, where a
    repetition holds `units` units."""
    for r in reps:
        cpu = cpu_s(r["ru"]) * CAL_REF_S / r["cal"]
        r["rate"] = periods / cpu
        r["lags"] = [cpu / units]
    log("median rate in unscaled CPU time: %.6g 1/s"
        % statistics.median(periods / cpu_s(r["ru"]) for r in reps))


# --- inputs -----------------------------------------------------------------

def make_inputs(w, seed, workdir, periods=None):
    """Simulate the workload's traces; returns their paths. Stream i of a
    fleet is `vehicleNN.trace`, simulated with seed (seed*1000 + i)."""
    indir = new_dir(workdir, "in")
    paths = []
    n = periods or w["periods"]
    for i in range(w["streams"]):
        name = f"vehicle{i:02d}.trace" if w["streams"] > 1 else "input.trace"
        path = os.path.join(indir, name)
        cmd = [PROBE, "simulate", "--tasks", str(w["tasks"]),
               "--design-seed", str(w["design_seed"] + i),
               "--seed", str(seed * 1000 + i), "--periods", str(n), path]
        if subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=remaining()).returncode != 0:
            raise Failure("simulation failed")
        paths.append(path)
    os.sync()  # write the inputs back before anything is timed
    return paths


# --- metrics ---------------------------------------------------------------------

def summarize(setup_times, reps):
    """End-to-end metrics of a run. Each figure is taken per repetition and
    the median across repetitions is reported; set-up is the median of all
    its samples."""
    ok = [r for r in reps if r["code"] == 0] or reps

    def med(f):
        return statistics.median(f(r) for r in ok)

    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "periods_per_s": metric(med(lambda r: r["rate"]), "1/s"),
        "peak_rss_mb": metric(med(lambda r: r["ru"].ru_maxrss / 1024), "MB"),
        "alloc_mb": metric(med(lambda r: (r["alloc"] or 0) / 1e6), "MB"),
        "store_mb": metric(med(lambda r: r.get("store_bytes", 0) / 1e6), "MB"),
        "lag_p50_ms": metric(1e3 * med(lambda r: pct(r["lags"] or [0.0], 0.5)), "ms"),
        "lag_p90_ms": metric(1e3 * med(lambda r: pct(r["lags"] or [0.0], 0.9)), "ms"),
    }


def tally(reps, checks=()):
    """(attempted, failed) over every repetition's checks plus run-level
    checks; failures are logged."""
    all_checks = [c for r in reps for c in r["checks"]] + list(checks)
    for name, ok in all_checks:
        if not ok:
            log(f"check failed: {name}")
    return len(all_checks), sum(not ok for _, ok in all_checks)


def setup_split(measure, run_window, workdir):
    """Time set-up before and after the measured window, half each, so the
    median spans the run's host conditions. measure(n) returns n set-ups'
    CPU seconds; each half is put in reference seconds by a calibration
    next to it."""
    scale = CAL_REF_S / calibrate(workdir)
    before = [t * scale for t in measure(SETUP_REPEATS // 2)]
    result = run_window()
    after = measure(SETUP_REPEATS - SETUP_REPEATS // 2)
    scale = CAL_REF_S / calibrate(workdir)
    after = [t * scale for t in after]
    log(f"set-up median {1e3 * statistics.median(before):.3f} ms before the window, "
        f"{1e3 * statistics.median(after):.3f} ms after (reference CPU)")
    return before + after, result


# --- learn workloads ---------------------------------------------------------

def learn_cmd(w, store, trace):
    return [RTGEN, "learn", "-b", str(w["bound"]), "-j", "1", "--store", store, trace]


def learn_setup(w, trace, workdir, n):
    """CPU seconds of `rtgen learn` starting and committing a model with no
    learning work (see setup_trace)."""
    prefix = setup_trace(trace, os.path.join(workdir, "setup.trace"))
    times = []
    for _ in range(n):
        d = new_dir(workdir, "setup")
        r = run_timed(learn_cmd(w, os.path.join(d, "store"), prefix), d)
        if r["code"] != 0:
            raise Failure(f"set-up learn exited {r['code']}: {r['err'][-300:]}")
        times.append(cpu_s(r["ru"]))
    return times


def learn_rep(w, trace, periods, workdir):
    """One `rtgen learn` from trace file to committed model. The whole
    trace is the unit, due at the start, so its lag is its service time,
    taken as rtgen's CPU time (see NOTES.md)."""
    d = new_dir(workdir, "rep")
    store = os.path.join(d, "store")
    r = run_timed(learn_cmd(w, store, trace), d)
    r["store"] = store
    r["store_bytes"] = tree_bytes(store)
    return r


def oracle(args, trace):
    """Stdout of `probe ARGS TRACE`, cached per trace digest: the reference
    computations cost more than the run they check."""
    with open(trace, "rb") as f:
        digest = hashlib.md5(f.read()).hexdigest()
    key = os.path.join(CACHE, "-".join(args) + "-" + digest)
    if os.path.exists(key):
        with open(key) as f:
            return f.read()
    out = subprocess.run([PROBE, *args, trace], capture_output=True, text=True,
                         timeout=remaining())
    if out.returncode != 0:
        raise Failure(f"probe {' '.join(args)} failed: {out.stderr[-300:]}")
    os.makedirs(CACHE, exist_ok=True)
    with open(key, "w") as f:
        f.write(out.stdout)
    return out.stdout


def check_learn(w, trace, first):
    """The committed answer set (bound > 1) or model (bound 1) against
    independent computations of it: Rt_learn.Reference, and the bound-1
    model from each trace reader's parse."""
    store = first["store"]
    if w["bound"] > 1:
        want = oracle(["answers", str(w["bound"])], trace).split()[0]
        return [("answer set = Reference", latest_address(store, "model/answers") == want)]
    model = latest_address(store, "model")
    addrs = dict(l.split() for l in oracle(["models"], trace).splitlines() if l.strip())
    return [(f"model = {reader} model", addrs.get(reader) == model)
            for reader in ("mmap", "boxed", "stream", "reference")]


def run_learn(w, seed, seconds, workdir):
    (trace,) = make_inputs(w, seed, workdir)
    periods = count_periods(trace)
    setup, reps = setup_split(
        lambda n: learn_setup(w, trace, workdir, n),
        lambda: repeat(lambda i: learn_rep(w, trace, periods, workdir), seconds, workdir),
        workdir)
    rates(reps, periods, 1)
    for i, r in enumerate(reps):
        r["checks"] = [(f"learn repetition {i} exit 0, output as the first",
                        r["code"] == 0 and r["alloc"] is not None
                        and r["out"] == reps[0]["out"])]
    attempted, failed = tally(reps, check_learn(w, trace, reps[0]))
    return summarize(setup, reps), attempted, failed, dict(
        reps=reps, traces=[trace], late=[r["late"] for r in reps])


# --- serve workloads ----------------------------------------------------------

def serve_cmd(w, spool, store, extra=()):
    return [RTGEN, "serve", "--spool", spool, "--store", store, "--out", "out",
            "-b", str(w["bound"]), "--checkpoint-every", str(w["every"]),
            "--jobs", "1", *extra]


def control(sock_path, request, timeout=2.0):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(sock_path)
        s.sendall(request.encode() + b"\n")
        chunks = []
        while True:
            c = s.recv(65536)
            if not c:
                break
            chunks.append(c)
        return b"".join(chunks).decode()
    finally:
        s.close()


def serve_setup(w, workdir, n):
    """CPU seconds of `rtgen serve` over an empty spool, from its start to
    its exit: it answers its first control-socket `status`, and is then
    drained."""
    times = []
    for _ in range(n):
        d = new_dir(workdir, "setup")
        os.makedirs(os.path.join(d, "spool"))
        p = spawn(serve_cmd(w, "spool", "store", ["--control", "ctl.sock"]), d)
        sock = os.path.join(d, "ctl.sock")
        while True:
            if p.poll() is not None:
                raise Failure("serve exited during set-up")
            remaining()
            try:
                if control(sock, "status").startswith("rtgend status"):
                    break
            except OSError:
                time.sleep(0.0005)
        control(sock, "drain")
        code, ru = reap(p)
        if code != 0:
            raise Failure(f"serve exited {code} after drain")
        times.append(cpu_s(ru))
    return times


def flight_periods(path):
    """(stream, periods fed, ts seconds) for every engine.period event."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("dropped"):
        raise Failure("flight ring wrapped; raise --flight-capacity")
    out = []
    for e in doc["events"]:
        if e["kind"] == "engine.period":
            n = int(e["detail"].split()[0].split("=")[1])
            out.append((e["stream"], n, e["ts_ns"] / 1e9))
    return out


def reference_models(w, traces, workdir):
    """model/<id> addresses from `learn --stream --mode recover` of each
    stream's file: what every serve model must equal."""
    store = os.path.join(workdir, "ref-store")
    want = {}
    for t in traces:
        sid = os.path.splitext(os.path.basename(t))[0]
        r = run_timed([RTGEN, "learn", "--stream", "--mode", "recover", "-b",
                       str(w["bound"]), "-j", "1", "--store", store, "--ref",
                       "model/" + sid, t], workdir)
        if r["code"] != 0:
            raise Failure(f"reference learn --stream failed: {r['err'][-300:]}")
        want[sid] = latest_address(store, "model/" + sid)
    return want


def finish_serve(r, d, want, total):
    """Checks and store size of a finished daemon run in directory d:
    per-stream model equality, and no period lost."""
    r["checks"] = [("serve exit 0", r["code"] == 0)]
    if r["code"] != 0:
        log(r["err"][-300:])
        return
    store = os.path.join(d, "store")
    r["store_bytes"] = tree_bytes(store)
    with open(os.path.join(d, "metrics.json")) as f:
        counters = json.load(f)["counters"]
    r["checkpoints"] = counters.get("daemon.checkpoints")
    for sid, addr in sorted(want.items()):
        r["checks"].append((f"{sid} model = learn --stream model",
                            latest_address(store, "model/" + sid) == addr))
    r["checks"].append(("no period lost", counters.get("daemon.periods") == total
                        and counters.get("daemon.streams_finalized") == len(want)))


def serve_flags(total, streams):
    return ["--metrics", "metrics.json", "--drain-after-total", str(total - streams)]


def drain_rep(w, spool, total, want, workdir):
    """One `rtgen serve` drain of the pre-written spool. A backlog period is
    due as soon as the daemon finished the one before, so its lag is its
    service time, taken as CPU time per period (see NOTES.md)."""
    d = new_dir(workdir, "rep")
    r = run_timed(serve_cmd(w, spool, "store", serve_flags(total, len(want))), d)
    finish_serve(r, d, want, total)
    return r


def run_drain(w, seed, seconds, workdir):
    traces = make_inputs(w, seed, workdir)
    spool = os.path.dirname(traces[0])
    total = sum(count_periods(t) for t in traces)
    want = reference_models(w, traces, workdir)
    setup, reps = setup_split(
        lambda n: serve_setup(w, workdir, n),
        lambda: repeat(lambda i: drain_rep(w, spool, total, want, workdir), seconds, workdir),
        workdir)
    rates(reps, total, total)
    attempted, failed = tally(reps)
    return summarize(setup, reps), attempted, failed, dict(
        reps=reps, traces=traces, late=[r["late"] for r in reps])


def period_chunks(path):
    """A trace split into [header + period 0, period 1, ...] text chunks:
    writing chunk k closes period k-1."""
    chunks, cur = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("period ") and any(l.startswith("period ") for l in cur):
                chunks.append("".join(cur))
                cur = []
            cur.append(line)
    chunks.append("".join(cur))
    return chunks


def trickle(w, traces, workdir):
    """Append one period at a time, round-robin over the streams, at
    w['rate'] periods/s while one `rtgen serve` follows the spool. Returns
    the daemon run, the generator's lateness per write, and the due time
    of every period's closing line."""
    chunks = [period_chunks(t) for t in traces]
    d = new_dir(workdir, "live")
    spool = new_dir(d, "spool")
    total = sum(len(c) for c in chunks)
    want = reference_models(w, traces, workdir)
    order = [(k, i) for k in range(max(len(c) for c in chunks))
             for i in range(len(chunks)) if k < len(chunks[i])]
    due, late = {}, []
    files = [open(os.path.join(spool, os.path.basename(t)), "w") for t in traces]
    with open(os.path.join(d, "stderr"), "w+") as err:
        try:
            flags = serve_flags(total, len(traces)) + [
                "--flight", "flight.json", "--flight-capacity", str(4 * total + 1024)]
            p = spawn(serve_cmd(w, os.path.basename(spool), "store", flags), d, stderr=err)
            t_start, wall0 = time.perf_counter(), time.time()
            for n, (k, i) in enumerate(order):
                t_due = t_start + n / w["rate"]
                while (dt := t_due - time.perf_counter()) > 0:
                    time.sleep(dt)
                files[i].write(chunks[i][k])
                files[i].flush()
                late.append(time.perf_counter() - t_due)
                if k > 0:
                    # Chunk k closes period k-1 of stream i, which the
                    # engine reports as periods=k.
                    due[(f"vehicle{i:02d}", k)] = wall0 + (t_due - t_start)
        finally:
            for f in files:
                f.close()
        code, ru = reap(p)
        err.seek(0)
        text = err.read()
    r = dict(t0=t_start, wall=time.perf_counter() - t_start, code=code, ru=ru,
             err=text, alloc=gc_alloc_bytes(text))
    finish_serve(r, d, want, total)
    events = flight_periods(os.path.join(d, "flight.json")) if code == 0 else []
    handled = {(sid, k): ts for sid, k, ts in events if (sid, k) in due}
    r["checks"].append(("every closed period handled", len(handled) == len(due)))
    return r, late, due, handled


def run_trickle(w, seed, seconds, workdir):
    """Open loop for `seconds`. Lag runs from when a period's closing line
    was due to the daemon's engine.period event for it; the whole run is
    one repetition, with about 3400 lag samples."""
    per_stream = int(w["rate"] * seconds / w["streams"]) + 2
    traces = make_inputs(w, seed, workdir, periods=per_stream)
    setup, (r, late, due, handled) = setup_split(
        lambda n: serve_setup(w, workdir, n),
        lambda: trickle(w, traces, workdir), workdir)
    r["lags"] = [t - due[key] for key, t in handled.items()]
    r["rate"] = len(handled) / (max(handled.values()) - min(due.values())) if handled else 0.0
    attempted, failed = tally([r])
    return summarize(setup, [r]), attempted, failed, dict(
        reps=[r], traces=traces, late=late)


RUNNERS = {"learn": run_learn, "drain": run_drain, "trickle": run_trickle}


# --- traced run ---------------------------------------------------------------

def probe_layers(w, traces, seconds, workdir):
    store = new_dir(workdir, "probe-store")
    cmd = [PROBE, "layers", "--bound", str(w["bound"]), "--every", str(w["every"]),
           "--seconds", str(seconds), "--store", store, *traces]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining())
    if out.returncode != 0:
        raise Failure("probe layers failed: " + out.stderr[-300:])
    return json.loads(out.stdout.strip().splitlines()[-1])


# Units of the per-layer figures the probe reports, by name.
PROBE_UNITS = {
    "trace.mmap_load_s": "s", "trace.boxed_load_s": "s", "trace.stream_parse_s": "s",
    "trace.mmap_alloc_mb": "MB", "trace.boxed_alloc_mb": "MB", "trace.stream_alloc_mb": "MB",
    "trace.events": "count", "trace.candidates_s": "s", "trace.candidate_pairs": "count",
    "engine.feed_p50_ms": "ms", "engine.feed_p99_ms": "ms", "engine.alloc_mb_per_period": "MB",
    "heuristic.branches": "count", "heuristic.created": "count",
    "heuristic.dedup_hits": "count", "heuristic.merges": "count",
    "heuristic.evictions": "count", "heuristic.weakenings": "count",
    "heuristic.end_dedup": "count", "heuristic.nonminimal": "count",
    "codec.checkpoint_bytes": "bytes", "store.commit_p50_ms": "ms",
    "store.commit_p99_ms": "ms", "store.ref_bytes_max": "bytes", "store.blobs": "count",
    "daemon.stream.pump_s": "s", "daemon.stream.checkpoint_s": "s",
}


def traced(w, seed, seconds, workdir):
    """Per-layer figures: half the window runs the real program as the
    untraced run does, half times the layers in-process (perfbench/probe)
    on the same inputs. Layer shares set the probe's layer times against
    the real program's median wall time."""
    _, attempted, failed, prog = RUNNERS[w["kind"]](w, seed, seconds / 2, workdir)
    lay = probe_layers(w, prog["traces"], seconds / 2, workdir)
    reps = [r for r in prog["reps"] if r["code"] == 0] or prog["reps"]
    wall = statistics.median(r["wall"] for r in reps)
    cpu = statistics.median(cpu_s(r["ru"]) for r in reps)
    if w["kind"] == "learn":
        # `learn` parses with the mmap reader, then feeds the engine, then
        # commits to the store.
        parse = lay["trace.mmap_load_s"]
        learn = lay["engine.feed_s"]
        ckpt_store = lay["codec.encode_s"] + lay["store.commit_s"]
    else:
        # The daemon: recover parse + engine inside Stream.pump, checkpoint
        # and store commit inside Stream.write_checkpoint.
        parse = lay["trace.stream_parse_s"]
        learn = lay["daemon.stream.pump_s"] - parse
        ckpt_store = lay["daemon.stream.checkpoint_s"]
        attempted += 1
        if any(r["checkpoints"] != lay["daemon.stream.checkpoints"] for r in reps):
            failed += 1
            log("serve --metrics checkpoints differ from the probe's stream pass")
    idle = max(0.0, wall - cpu)
    m = {k: metric(lay[k], u) for k, u in PROBE_UNITS.items()}
    m["heuristic.survivor_ratio"] = metric(
        lay["heuristic.survivors"] / lay["heuristic.created"], "ratio")
    m["daemon.checkpoints"] = metric(lay["daemon.stream.checkpoints"], "count")
    m["daemon.periods"] = metric(lay["daemon.stream.periods"], "count")
    m["daemon.busy_frac"] = metric(cpu / wall, "ratio")
    m["gen.late_ms_p99"] = metric(1e3 * pct(prog["late"], 0.99), "ms")
    m["share.parse"] = metric(parse / wall, "ratio")
    m["share.learn"] = metric(learn / wall, "ratio")
    m["share.checkpoint_store"] = metric(ckpt_store / wall, "ratio")
    m["share.idle"] = metric(idle / wall, "ratio")
    m["share.accounted"] = metric((parse + learn + ckpt_store + idle) / wall, "ratio")
    return m, attempted, failed


# --- main ------------------------------------------------------------------------

def build():
    r = subprocess.run(["dune", "build", "--root", ROOT, "./bin/rtgen.exe",
                        "./perfbench/probe/probe.exe"],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stdout[-2000:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    try:
        build()
        DEADLINE[0] = time.monotonic() + RUN_LIMIT_S
        workdir = new_dir(WORK, f"{args.workload}-")
        try:
            if args.trace:
                metrics, attempted, failed = traced(w, args.seed, args.seconds, workdir)
            else:
                metrics, attempted, failed, _ = RUNNERS[w["kind"]](w, args.seed,
                                                                   args.seconds, workdir)
        finally:
            stop_children()
            # Only the simulated traces go (they are large and few); the
            # run's small files stay, see new_dir.
            for d in os.listdir(workdir):
                if d.startswith("in"):
                    shutil.rmtree(os.path.join(workdir, d), ignore_errors=True)
    except (Failure, OSError, subprocess.SubprocessError) as e:
        stop_children()
        log(f"error: {e}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
