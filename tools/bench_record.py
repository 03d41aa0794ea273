"""Append benchmark records to BENCH_forward.json: end-to-end runs, per-mode peak holders, training peaks.

    python3 tools/bench_record.py runs --seeds 1 2 3 --seconds 10 \\
        --checkout parent=../sparx-parent --checkout change=.
    python3 tools/bench_record.py holders --workloads WORKLOAD --checkout change=.
    python3 tools/bench_record.py train-peaks --checkout parent=../sparx-parent --checkout change=.
    python3 tools/bench_record.py summary

``--workloads`` defaults to every workload BENCHMARK.json declares, and the
end-to-end metrics and their directions are read from it too.

``runs`` runs ``perfbench/run.py --trace 0`` in each checkout for every
workload and seed and appends one record per run: the label, the checkout's
commit and a digest of its ``src/``, the env line and the run's last-line
JSON. With two checkouts the runs of one (workload, seed) form a pair, and the
order inside a pair alternates from one seed to the next, so slow drift of a
shared host falls on both sides alike.

``holders`` builds each workload's models as ``perfbench/workloads.py`` does
and runs one op per topology mode under tracemalloc. It records the mode's
peak bytes and the op, with its calling function and output shape (which
shows the stage), that was running when the peak was reached, and the highest
op peaks of the next four calling functions. A recorded op's backward step
is an event of its own, ``vjp:<op>``, with the calling function and output
shape of the op that recorded it.

``train-peaks`` runs one taped float32 ``tiny``@224 forward and backward of
one image per model, window attention in each topology mode and ss2d in
``sparx``, under tracemalloc. It records the bytes still allocated after the
forward (the tape's saved arrays and the live outputs) and the peak over the
forward and backward.

``summary`` prints, per commit the runs were recorded at, workload, label and
metric, the median and quartiles of the recorded runs and the pairs in which
the second label did better. A before/after comparison runs both checkouts at
one commit (the change as uncommitted edits on top of it), so each commit's
runs form one comparison, apart from those of earlier changes in the file.

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
    return {"env": next((ln for ln in lines if ln.startswith("env:")), None), "result": json.loads(lines[-1]),
            "text": lines[1:-1]}


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


HOLDER_SCRIPT = r"""
import gc, json, os, sys, tracemalloc
checkout, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
import workloads
from sparx import nd

events = []
real_apply = nd._apply

def watched_apply(op, out, inputs, vjp):
    frame = sys._getframe(1)
    while frame.f_globals.get("__name__") == "sparx.nd":
        frame = frame.f_back
    where, shape = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}:{frame.f_lineno}", list(out.shape)

    def watched_vjp(g):  # a backward step is an event too, named after the op that recorded it
        grads = vjp(g)
        events.append((tracemalloc.get_traced_memory()[1], "vjp:" + op, where, shape))
        tracemalloc.reset_peak()
        return grads

    result = real_apply(op, out, inputs, watched_vjp)
    events.append((tracemalloc.get_traced_memory()[1], op, where, shape))
    tracemalloc.reset_peak()
    return result

wl = workloads.make(workload)
wl.setup(seed)
rows = []
for mode, op in wl.peak_ops():
    wl.prepare(op)
    gc.collect()
    tracemalloc.start()
    wl.run(op)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    events.clear()
    nd._apply = watched_apply
    wl.prepare(op)
    gc.collect()
    tracemalloc.start()
    try:
        wl.run(op)
        events.append((tracemalloc.get_traced_memory()[1], "none", "after the last op (backward, updates)", None))
    finally:
        tracemalloc.stop()
        nd._apply = real_apply
    seen, holders = set(), []
    for b, o, w, shape in sorted(events, key=lambda e: -e[0]):  # the highest peak of each calling function
        if w.split(":")[0] not in seen:
            seen.add(w.split(":")[0])
            holders.append({"op": o, "at": w, "shape": shape, "peak_bytes": b})
        if len(holders) == 5:
            break
    rows.append({"mode": mode, "peak_bytes": peak, "holders": holders})
print(json.dumps(rows))
"""


def run_script(script: str, checkout: str, *argv) -> list:
    """The last-line JSON of ``script`` run on one BLAS thread with the checkout and ``argv`` as arguments."""
    proc = subprocess.run([sys.executable, "-c", script, os.path.abspath(checkout), *map(str, argv)],
                          capture_output=True, text=True, env=dict(os.environ, **BLAS_ONE_THREAD))
    if proc.returncode != 0:
        raise SystemExit(f"embedded script ({' '.join(map(str, argv))}) in {checkout} failed: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_holders(args, doc):
    for label, checkout in args.checkout:
        for workload in args.workloads:
            rows = run_script(HOLDER_SCRIPT, checkout, workload, args.seeds[0])
            doc["records"].append({"kind": "holders", "label": label, **identity(checkout), "workload": workload,
                                   "seed": args.seeds[0], "modes": rows})
            save(args.out, doc)
            for r in rows:
                h = r["holders"][0]
                print(f"{workload} {label} {r['mode']}: peak {r['peak_bytes']} B, held by {h['op']} "
                      f"{tuple(h['shape'] or ())} at {h['at']} ({h['peak_bytes'] / 2**20:.2f} MiB)")


TRAIN_PEAK_SCRIPT = r"""
import json, os, sys, tracemalloc
checkout, seed = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
import workloads
from sparx import backbone, config, nd, params, topology

img = workloads.seeded_image(seed, "seeded", 224)
rows = []
for mixer, mode in [("window_attn", m.value) for m in topology.Mode] + [("ss2d", "sparx")]:
    model = backbone.build(config.get_variant("tiny", mixer=mixer, topology_mode=mode), workloads.MODEL_SEED)
    tracemalloc.start()
    tape = nd.Tape()
    logits, _ = backbone.forward_bound(params.bind(model, tape), nd.Tensor(img))
    loss = nd.cross_entropy_logits(logits, 0)
    retained = tracemalloc.get_traced_memory()[0]
    nd.backward(tape, loss)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del tape, logits, loss
    rows.append({"mixer": mixer, "mode": mode, "retained_bytes": retained, "peak_bytes": peak})
print(json.dumps(rows))
"""


def cmd_train_peaks(args, doc):
    for label, checkout in args.checkout:
        rows = run_script(TRAIN_PEAK_SCRIPT, checkout, args.seeds[0])
        doc["records"].append({"kind": "train-peaks", "label": label, **identity(checkout), "variant": "tiny",
                               "dtype": "float32", "seed": args.seeds[0], "models": rows})
        save(args.out, doc)
        for r in rows:
            print(f"train-peaks {label} {r['mixer']} {r['mode']}: retained after forward "
                  f"{r['retained_bytes'] / 2**20:.1f} MiB, fwd+bwd peak {r['peak_bytes'] / 2**20:.1f} MiB")


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
        by = {(r["label"], r["seed"]): r["result"]["metrics"] for r in mine}
        seeds = sorted({s for _, s in by if all((lb, s) in by for lb in labels)})
        print(f"{workload} at {(commit or 'no commit')[:7]}: {len(seeds)} pairs of {' / '.join(labels)}")
        for metric, lower in lower_is_better.items():
            cols = []
            for lb in labels:
                q1, med, q3 = quartiles([by[(lb, s)][metric]["value"] for s in seeds])
                cols.append(f"{lb} {med:.6g} [{q1:.6g}, {q3:.6g}]")
            line = f"  {metric:16s} " + "; ".join(cols)
            if len(labels) == 2 and seeds:
                a = [by[(labels[0], s)][metric]["value"] for s in seeds]
                b = [by[(labels[1], s)][metric]["value"] for s in seeds]
                won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
                change = statistics.median(b) / statistics.median(a) - 1
                line += f"; {labels[1]} better in {won}/{len(seeds)}, median {change * 100:+.1f}%"
            print(line)


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
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--checkout", action="append", type=checkout_arg,
                    help="LABEL=DIR of a checkout to run (repeatable; default change=<this repository>)")
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    args.checkout = args.checkout or [("change", ROOT)]
    args.lower_is_better = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}
    doc = load(args.out)
    {"runs": cmd_runs, "holders": cmd_holders, "train-peaks": cmd_train_peaks,
     "summary": cmd_summary}[args.command](args, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
