"""Append benchmark records to BENCH_forward.json: end-to-end runs, per-mode peak holders, training peaks.

    python3 tools/bench_record.py runs --seeds 1 2 3 --seconds 10 \\
        --checkout parent=../sparx-parent --checkout change=.
    python3 tools/bench_record.py holders --workloads WORKLOAD --checkout change=.
    python3 tools/bench_record.py train-peaks --checkout parent=../sparx-parent --checkout change=.
    python3 tools/bench_record.py summary

README ("Benchmark records") says what each command records. ``--workloads``
takes the workloads BENCHMARK.json declares, every one by default, and the
end-to-end metrics and their directions are read from it too. With two
checkouts the runs of one (workload, seed) form a pair whose order alternates
from one seed to the next, so slow drift of a shared host falls on both sides
alike. ``summary`` groups runs by the commit they were recorded at: a
before/after comparison runs both checkouts at one commit, the change as
uncommitted edits on top of it.

Run from the repository root. The benchmark itself (``perfbench/``) is only
run and imported, never changed.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "BENCH_forward.json")
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load(path: str) -> dict:
    if not os.path.exists(path):
        return {"about": __doc__.splitlines()[0], "records": []}
    with open(path) as f:
        return json.load(f)


def save(path: str, doc: dict):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    os.replace(tmp, path)


def identity(checkout: str) -> dict:
    """The commit of a checkout, whether its src/ differs from it, and a digest of src/."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True).stdout.strip()

    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": git("rev-parse", "HEAD") or None, "src_modified": bool(git("status", "--porcelain", "--", "src")),
            "src_sha256": digest.hexdigest()[:16]}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    # the run's other stdout lines repeat its result, so they are not kept (older records hold them as ``text``)
    return {"env": next((ln for ln in lines if ln.startswith("env:")), None), "result": json.loads(lines[-1])}


def cmd_runs(args, doc):
    for i, seed in enumerate(args.seeds):
        order = args.checkout if i % 2 == 0 else args.checkout[::-1]
        for workload in args.workloads:
            for label, checkout in order:
                out = run_once(checkout, workload, seed, args.seconds)
                doc["records"].append({"kind": "run", "label": label, **identity(checkout),
                                       "workload": workload, "seed": seed, "seconds": args.seconds, "trace": 0,
                                       "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                                       **out})
                save(args.out, doc)
                m = out["result"]["metrics"]
                shown = ", ".join(f"{k} {m[k]['value']:.6g}" for k in args.lower_is_better)
                print(f"{workload} seed {seed} {label}: {shown}, correct {out['result']['correct']}", flush=True)


MEASURE_SCRIPT = r"""
import gc, json, os, sys, tracemalloc
checkout, command, seed, name = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
import workloads
from sparx import backbone, config, nd, params, topology

kept = []  # the bytes still allocated after a taped forward


class Watcher:
    # An nd.observer: each op's and vjp's peak since the one before, less ``own``, the bytes traced between
    # two readings around each update. So all it keeps is made there and nothing made there is freed later:
    # ints, strings and bytes in lists and a dict (a tuple could come off a free list, untraced), ``start``
    # replaced and ``i`` deleted. Its op's scope path is kept as a bytes copy: the program's string, kept
    # itself, would outlive the scope.
    def __init__(self):
        self.peaks, self.ops, self.wheres, self.shapes, self.callers, self.own, self.start = [], [], [], [], {}, 0, 0

    def __call__(self, op, out, inputs, node):
        peak = tracemalloc.get_traced_memory()[1]
        shape = None if op == "vjp" else out.shape
        self.start = tracemalloc.get_traced_memory()[0]
        if op == "vjp":  # a backward step, named after the op that recorded it and shown where that ran
            i = self.callers.pop(id(node))
            op, where, shape = "vjp:" + node.op, self.wheres[i], self.shapes[i]
            del i
        else:
            where, shape = nd.scopes[-1].encode() if nd.scopes else b"", str(shape)
            if node is not None:
                self.callers[id(node)] = len(self.ops)
        self.peaks.append(peak - self.own)
        self.ops.append(op)
        self.wheres.append(where)
        self.shapes.append(shape)
        self.own += tracemalloc.get_traced_memory()[0] - self.start
        tracemalloc.reset_peak()


def traced(prepare, run, observer=None):
    kept.clear()
    prepare()
    gc.collect()
    nd.observer = observer
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        nd.observer = None


def measure(prepare, run):
    # BENCH's figures from an unwatched run; from a watched one the top op peak of the five highest scopes
    row = {"peak_bytes": traced(prepare, run), **({"retained_bytes": kept[0]} if kept else {})}
    w = Watcher()
    w.peaks.append(traced(prepare, run, w) - w.own)
    w.ops.append("none")
    w.wheres.append(b"after the last op (backward, updates)")
    seen, row["holders"] = set(), []
    for i in sorted(range(len(w.peaks)), key=lambda i: -w.peaks[i]):
        if w.wheres[i] not in seen and len(seen) < 5:
            seen.add(w.wheres[i])
            shape = [int(n) for n in w.shapes[i][1:-1].split(",") if n] if i < len(w.shapes) else None
            row["holders"].append({"op": w.ops[i], "at": w.wheres[i].decode(), "shape": shape,
                                   "peak_bytes": w.peaks[i]})
    return row


if command == "holders":
    wl = workloads.make(name)
    wl.setup(seed)
    rows = [{"mode": mode, **measure(lambda: wl.prepare(op), lambda: wl.run(op))} for mode, op in wl.peak_ops()]
else:
    rows, img = [], workloads.seeded_image(seed, "seeded", 224)
    for mixer, mode in [("window_attn", m.value) for m in topology.Mode] + [("ss2d", "sparx")]:
        model = backbone.build(config.get_variant(name, mixer=mixer, topology_mode=mode), workloads.MODEL_SEED)
        backbone.forward(model, img)  # what a first call caches (shift masks, scan orders) is no step's memory

        def step():
            tape = nd.Tape()
            logits, _ = backbone.forward_bound(params.bind(model, tape), nd.Tensor(img))
            loss = nd.cross_entropy_logits(logits, 0)
            kept.append(tracemalloc.get_traced_memory()[0])
            nd.backward(tape, loss)

        rows.append({"mixer": mixer, "mode": mode, **measure(lambda: None, step)})
print(json.dumps(rows))
"""


def cmd_measure(args, doc):
    """``holders``: one record per workload; ``train-peaks``: one record of the ``tiny``@224 models."""
    holders = args.command == "holders"
    for label, checkout in args.checkout:
        for name in args.workloads if holders else ["tiny"]:
            argv = [os.path.abspath(checkout), args.command, str(args.seeds[0]), name]
            proc = subprocess.run([sys.executable, "-c", MEASURE_SCRIPT, *argv], capture_output=True, text=True,
                                  env=dict(os.environ, **BLAS_ONE_THREAD))
            if proc.returncode != 0:
                raise SystemExit(f"{args.command} {name} in {checkout} failed: {proc.stderr.strip()[-500:]}")
            rows = json.loads(proc.stdout.strip().splitlines()[-1])
            case = ({"workload": name, "seed": args.seeds[0], "modes": rows} if holders else
                    {"variant": name, "dtype": "float32", "seed": args.seeds[0], "models": rows})
            doc["records"].append({"kind": args.command, "label": label, **identity(checkout), **case})
            save(args.out, doc)
            for r in rows:
                h = r["holders"][0]
                kept = f", retained after forward {r['retained_bytes']} B" if "retained_bytes" in r else ""
                who = " ".join([name, label, *(r[k] for k in ("mixer", "mode") if k in r)])
                print(f"{who}: peak {r['peak_bytes']} B{kept}, held by {h['op']} {tuple(h['shape'] or ())} "
                      f"at {h['at']} ({h['peak_bytes'] / 2**20:.2f} MiB)")


def quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[0], statistics.median(values), q[2]


def cmd_summary(args, doc):
    for commit in dict.fromkeys(r["commit"] for r in doc["records"] if r["kind"] == "run"):
        summarize([r for r in doc["records"] if r["kind"] == "run" and r["commit"] == commit], commit,
                  args.lower_is_better)


def summarize(runs, commit, lower_is_better):
    labels = list(dict.fromkeys(r["label"] for r in runs))  # in order of first appearance in the file
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by = {(r["label"], r["seed"]): r["result"] for r in mine}
        seeds = sorted({s for _, s in by if all((lb, s) in by for lb in labels)})
        print(f"{workload} at {(commit or 'no commit')[:7]}: {len(seeds)} pairs of {' / '.join(labels)}")
        for metric, lower in lower_is_better.items():
            cols = []
            for lb in labels:
                q1, med, q3 = quartiles([by[(lb, s)]["metrics"][metric]["value"] for s in seeds])
                cols.append(f"{lb} {med:.6g} [{q1:.6g}, {q3:.6g}]")
            line = f"  {metric:16s} " + "; ".join(cols)
            if len(labels) == 2 and seeds:
                a = [by[(labels[0], s)]["metrics"][metric]["value"] for s in seeds]
                b = [by[(labels[1], s)]["metrics"][metric]["value"] for s in seeds]
                won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
                change = statistics.median(b) / statistics.median(a) - 1
                line += f"; {labels[1]} better in {won}/{len(seeds)}, median {change * 100:+.1f}%"
            print(line)
        # the ops that failed their correctness check, of those attempted, over the same runs
        failed = [f"{lb} {sum(by[(lb, s)]['failed'] for s in seeds)}/{sum(by[(lb, s)]['attempted'] for s in seeds)}"
                  for lb in labels]
        print(f"  {'failed ops':16s} " + "; ".join(failed))


def checkout_arg(text: str):
    label, _, path = text.partition("=")
    if not label or not path or not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR with DIR/perfbench/run.py, got {text!r}")
    return label, path


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=("runs", "holders", "train-peaks", "summary"))
    names = [w["name"] for w in benchmark["workloads"]]
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--checkout", action="append", type=checkout_arg,
                    help="LABEL=DIR of a checkout to run (repeatable; default change=<this repository>)")
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    args.checkout = args.checkout or [("change", ROOT)]
    args.lower_is_better = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}
    doc = load(args.out)
    {"runs": cmd_runs, "holders": cmd_measure, "train-peaks": cmd_measure,
     "summary": cmd_summary}[args.command](args, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
