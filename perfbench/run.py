"""sparx benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload infer-ss2d --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads (see ``workloads.py``):
* ``infer-ss2d``: ``tiny``@224, ss2d mixer, sparx topology, float32, one image per op.
* ``infer-attn-modes``: ``tiny``@224, window attention, ops round-robin over the
  topology modes sparx/dgc/dsn/plain, one model per mode.
* ``train-reduced``: one SGD step of ``tiny-reduced`` in float64 per op, batch 4.

A run sets up (build, inputs, warm-up forward) at least ``SETUPS`` times and
for at least ``SETUP_MIN_S`` and reports the median as ``setup_s``, computes
the references the checks use (untimed), then times whole rounds of ops until
``--seconds`` of op time and at least ``MIN_OPS`` ops have passed, checking
every op's output. A separate untimed pass under ``tracemalloc`` gives
``peak_bytes``.

Times are scaled to a nominal host speed. A shared host can run the same code
up to ~1.7x slower for tens of seconds at a time, so a fixed probe
(``calibrate.py``, which never calls the program) is timed around every op
and every set-up of a ``--trace 0`` run, and each one's wall time is divided by
the mean of the host factors just before and after it. ``latency_ms_*``,
``images_per_s`` and ``setup_s`` are these scaled figures; the unscaled wall
figures and the host factors are printed beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
and traced rounds, reports per-layer metrics from the traced ones and the
traced/untraced time ratio as tracing overhead, and writes every span to
``.perfbench-out/``. The last line of standard output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 on a finished run (failed checks show in ``failed``), 2 when the
arguments are wrong or the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUPS = 3            # at least this many set-ups per run ...
SETUP_MIN_S = 2.0     # ... and more until they add up to this, so a 0.2 s set-up gets a steady median
MIN_OPS = 22          # ten samples beyond the tail percentile, which then sits above the median
BLAS_THREADS = 1      # at most nproc; one thread was no slower than two on a 2-core box
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("infer-ss2d", "infer-attn-modes", "train-reduced")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_threads() -> int:
    """Pin BLAS threads before numpy loads; returns the thread count."""
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def tail(samples):
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    k = max(0, n - 11)
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def measure_peak(wl, op) -> int:
    wl.prepare(op)
    gc.collect()
    tracemalloc.start()
    try:
        wl.run(op)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Run:
    def __init__(self, wl, seed, seconds, tracer, probe):
        self.wl, self.seed, self.seconds, self.tracer = wl, seed, seconds, tracer
        self.probe = probe                 # () -> host factor now, see calibrate.py
        self.wall = []                     # wall seconds of each untraced op that completed
        self.lat = []                      # the same, scaled to nominal host speed (--trace 0)
        self.factors = []                  # host factor after each op (--trace 0)
        self.round_s = {False: [], True: []}
        self.attempted = self.failed = 0
        self.first_error = None
        self.traced_ops = []               # (op, span lo, span hi)

    def setup(self):
        """Returns (scaled set-up seconds, wall set-up seconds, traced build seconds)."""
        scaled, times, builds = [], [], []
        while len(times) < SETUPS or sum(times) < SETUP_MIN_S:
            self.wl.discard()
            gc.collect()
            lo = len(self.tracer.spans) if self.tracer else 0
            if self.tracer:
                self.tracer.install()
            before = self.probe()
            t0 = time.perf_counter()
            self.wl.setup(self.seed)
            times.append(time.perf_counter() - t0)
            scaled.append(times[-1] / ((before + self.probe()) / 2))
            if self.tracer:
                self.tracer.uninstall()
                builds.append(sum(s[2] - s[1] for s in self.tracer.spans[lo:]
                                  if s[0] == "backbone.build"))
        return scaled, times, builds

    def op(self, op, traced):
        self.wl.prepare(op)
        lo = len(self.tracer.spans) if traced else 0
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(op)
        except Exception as e:  # a failing op is counted, not fatal
            dt = time.perf_counter() - t0
            self.failed += 1
            self.first_error = self.first_error or f"{op}: {traceback.format_exception_only(e)[-1].strip()}"
            return dt
        dt = time.perf_counter() - t0
        if traced:
            self.traced_ops.append((op, lo, len(self.tracer.spans)))
        else:
            self.wall.append(dt)
        if not self.wl.check(op, out):
            self.failed += 1
            self.first_error = self.first_error or f"{op}: output outside tolerance of its reference"
        return dt

    def scaled_op(self, op, factor):
        """One op of a --trace 0 run, then the host probe; returns (wall s, host factor after)."""
        n = len(self.wall)
        dt = self.op(op, False)
        after = self.probe()
        if len(self.wall) > n:
            self.lat.append(dt / ((factor + after) / 2))
        self.factors.append(after)
        return dt, after

    def loop(self):
        if self.tracer:
            self.tracer.counts.clear()  # count traced rounds only
        gc.collect()
        elapsed, r = 0.0, 0
        factor = None if self.tracer else self.probe()
        # in a traced run, rounds alternate untraced/traced and end on a traced one;
        # it runs no probe, which would evict the program's data between untraced ops only
        while elapsed < self.seconds or self.attempted < MIN_OPS or (self.tracer and (r < 2 or r % 2)):
            traced = bool(self.tracer) and r % 2 == 1
            if traced:
                self.tracer.install()
            round_s = 0.0
            for op in self.wl.ops:
                if self.tracer:
                    dt = self.op(op, traced)
                else:
                    dt, factor = self.scaled_op(op, factor)
                round_s += dt
            if traced:
                self.tracer.uninstall()
            self.round_s[traced].append(round_s)
            elapsed += round_s
            r += 1
        return elapsed


def env_line(threads, seed) -> str:
    import numpy
    import scipy
    return (f"env: blas_threads={threads} nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
            f"seed={seed} processes=1")


def end_to_end(run, setup_scaled, setup_times, elapsed):
    wl, lat = run.wl, run.lat
    if not lat:
        return {}, []
    t_val, t_pct, t_beyond = tail(lat)
    images = len(lat) * wl.images_per_op
    peaks = {mode: measure_peak(wl, op) for mode, op in wl.peak_ops()}
    metrics = {
        "latency_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "latency_ms_tail": (t_val * 1e3, "ms"),
        "images_per_s": (images / sum(lat), "1/s"),
        "peak_bytes": (max(peaks.values()), "B"),
        "error_rate": (run.failed / run.attempted, "ratio"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    lines = [f"{k:16s} {v:14.6g} {u}" for k, (v, u) in metrics.items()]
    lines[1] += f"   (p{t_pct:.1f} of {len(lat)} ops, {t_beyond} beyond)"
    lines[3] += "   (" + ", ".join(f"{m}={p / 2**20:.1f} MiB" for m, p in peaks.items()) + ")"
    lines[5] += "   (" + ", ".join(f"{t:.3f}" for t in setup_scaled) + ")"
    f = sorted(run.factors)
    lines.append(f"unscaled wall: latency p50 {statistics.median(run.wall) * 1e3:.6g} ms, "
                 f"{images / sum(run.wall):.6g} images/s, setup {statistics.median(setup_times):.6g} s; "
                 f"host factor median {statistics.median(f):.3f} (min {f[0]:.3f}, max {f[-1]:.3f})")
    lines.append(f"timed {elapsed:.2f} s over {len(lat)} ops; attempted={run.attempted} failed={run.failed}")
    metrics.pop("error_rate")  # carried by attempted/failed: it is 0 on a correct program
    return metrics, lines


def per_layer(run, builds):
    import spans

    wl, tracer = run.wl, run.tracer
    n = max(1, len(run.traced_ops))
    tot, macs = {}, {c: 0.0 for c in spans.COMPONENTS}
    by_mode: dict = {}
    for op, lo, hi in run.traced_ops:
        s = spans.summarize(tracer.spans, lo, hi)
        for k, v in s.items():
            tot[k] = tot.get(k, 0.0) + v
        mode = wl.mode_of(op)
        agg = by_mode.setdefault(mode, {"ops": 0, "ms": 0.0, "macs": 0.0})
        agg["ops"] += 1
        agg["ms"] += s.get("comp.aggregation", 0.0) * 1e3
        op_macs = wl.macs(op)
        agg["macs"] += op_macs["aggregation"]
        for c in spans.COMPONENTS:
            macs[c] += op_macs[c]
    tot["nd.selective_scan_bytes"] = tracer.counts.get("nd.selective_scan_bytes", 0.0)

    # Per-component peak bytes: one op per model with span peaks on, then the
    # same op untraced for the measured peak per topology mode.
    mem_lo = len(tracer.spans)
    tracer.memory = True
    tracer.install()
    try:
        for _, op in wl.peak_ops():
            measure_peak(wl, op)
    finally:
        tracer.uninstall()
        tracer.memory = False
    mem = spans.summarize(tracer.spans, mem_lo, len(tracer.spans))
    measured = {mode: measure_peak(wl, op) for mode, op in wl.peak_ops()}

    def per(key, scale=1e3):
        return tot.get(key, 0.0) * scale / n

    m: dict = {}
    for key in spans.ND_GROUPS:
        m[key] = (per(key), "ms")
    m["nd.selective_scan_bytes"] = (per("nd.selective_scan_bytes", 1.0), "B")
    m["nd.ops"] = (per("nd.ops", 1.0), "count")
    m["nd.tape_nodes"] = (getattr(wl, "last_tape_nodes", 0), "count")
    m["params.bind_ms"] = (per("params.bind_ms"), "ms")
    m["params.sgd_ms"] = (per("params.sgd_ms"), "ms")
    rows = []
    for c in spans.COMPONENTS:
        ms = per(f"comp.{c}")
        mac = macs[c] / n
        gmac_s = mac / (ms * 1e-3) / 1e9 if ms > 0 else 0.0
        peak = mem.get(f"comp_peak.{c}", 0.0)
        base = spans.COMPONENT_METRIC[c]
        m[f"{base}_ms"] = (ms, "ms")
        m[f"{base}_gmac_s"] = (gmac_s, "GMAC/s")
        m[f"{base}_peak_bytes"] = (peak, "B")
        rows.append(f"  {c:12s} {mac / 1e9:10.4f} {ms:10.2f} {gmac_s:9.2f} {peak / 2**20:10.1f}")
    other = per("comp.other")
    m["backbone.other_ms"] = (other, "ms")
    for i in range(1, 5):
        m[f"backbone.stage{i}_ms"] = (per(f"stage{i}"), "ms")
    m["topology.schedule_ms"] = (per("topology.schedule_ms"), "ms")
    mem_rows = []
    for mode in ("sparx", "dgc", "dsn", "plain"):
        meas = measured.get(mode, 0)
        modeled = wl.modeled_memory(mode) if mode in measured else None
        inf = modeled["peak_inference_bytes"] if modeled else 0
        train = modeled["total_training_bytes"] if modeled else 0
        m[f"topology.{mode}.measured_peak_bytes"] = (meas, "B")
        m[f"topology.{mode}.modeled_peak_bytes"] = (inf, "B")
        m[f"topology.{mode}.modeled_train_bytes"] = (train, "B")
        if modeled:
            mem_rows.append(f"  {mode:6s} {meas / 2**20:14.2f} {inf / 2**20:16.3f} {train / 2**20:16.2f}")
    m["backbone.build_s"] = (statistics.median(builds), "s")
    untraced = sum(run.round_s[False]) / len(run.round_s[False])
    traced = sum(run.round_s[True]) / len(run.round_s[True])
    m["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")

    lines = [f"traced ops: {n}; tracing overhead {m['trace.overhead_pct'][0]:+.1f}% "
             f"(mean round {traced:.3f} s traced vs {untraced:.3f} s untraced)"]
    lines.append("cost per op: count_flops MACs beside measured self time "
                 "(components keyed like count_flops; peak from the traced memory pass)")
    lines.append(f"  {'component':12s} {'GMAC':>10s} {'ms':>10s} {'GMAC/s':>9s} {'peak MiB':>10s}")
    lines += rows
    lines.append(f"  {'other':12s} {'':>10s} {other:10.2f}   (block norms, residual adds, reshapes)")
    lines.append("stages (ms/op): " + ", ".join(f"s{i}={m[f'backbone.stage{i}_ms'][0]:.2f}" for i in range(1, 5)))
    lines.append("kernels (ms/op, outermost nd call inclusive): "
                 + ", ".join(f"{k[3:-3]}={m[k][0]:.2f}" for k in spans.ND_GROUPS))
    lines.append(f"nd.selective_scan_bytes {m['nd.selective_scan_bytes'][0] / 2**20:.1f} MiB/op (computed from "
                 f"array sizes, not measured); nd.ops {m['nd.ops'][0]:.0f}/op; nd.tape_nodes {m['nd.tape_nodes'][0]}")
    if len(by_mode) > 1:
        lines.append("aggregation per mode: " + ", ".join(
            f"{mode}={a['ms'] / a['ops']:.2f} ms/{a['macs'] / a['ops'] / 1e9:.3f} GMAC" for mode, a in by_mode.items()))
    lines.append("memory per topology mode, one op (measured = tracemalloc peak; modeled = memory_report"
                 + (f", batch {wl.images_per_op}, float64" if wl.images_per_op > 1 else ", float32") + ")")
    lines.append(f"  {'mode':6s} {'measured MiB':>14s} {'modeled peak MiB':>16s} {'modeled train MiB':>16s}")
    lines += mem_rows
    if tracer.absent:
        lines.append("absent from the program (metrics read 0): " + ", ".join(sorted(set(tracer.absent))))
    return m, lines


def write_spans(tracer, workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]] for s in tracer.spans]
    with gzip.open(path, "wt") as f:
        json.dump({"names": names, "columns": ["name", "start", "end", "parent", "peak_bytes"],
                   "spans": rows}, f)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "sparx", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, SRC)
    import calibrate
    import spans
    import workloads

    wl = workloads.make(args.workload)
    tracer = spans.Tracer() if args.trace else None
    run = Run(wl, args.seed, args.seconds, tracer, calibrate.factor)
    print(env_line(threads, args.seed))
    print(f"workload: {args.workload}; closed loop, 1 client; {len(wl.ops)} ops per round")
    setup_scaled, setup_times, builds = run.setup()
    t0 = time.perf_counter()
    wl.reference(workloads.load_golden(), args.seed)
    print(f"references: {time.perf_counter() - t0:.2f} s (untimed; tolerances: logits "
          f"{workloads.LOGIT_TOL:g} x max(1, max|ref|), losses {workloads.LOSS_TOL:g} x max(1, |ref|))")
    elapsed = run.loop()
    if args.trace:
        metrics, lines = per_layer(run, builds)
        lines.append(f"spans written to {os.path.relpath(write_spans(tracer, args.workload, args.seed), ROOT)}")
    else:
        metrics, lines = end_to_end(run, setup_scaled, setup_times, elapsed)
    for line in lines:
        print(line)
    if run.first_error:
        print(f"first failure: {run.first_error}")
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
