"""Command-line entry point.

Subcommands: ``plan`` (connectivity plans as JSON + DOT), ``stats``
(parameter/MAC/memory tables), ``verify`` (the invariant suite), ``forward``
and ``capture`` (seeded inference, optionally dumping per-layer features),
``cka`` (similarity matrix over a feature dump), ``erf`` (effective receptive
field maps), and ``train-toy`` (synthetic two-class training run).

``main`` makes the output directory, runs the command, which writes its
artifacts there and returns them with its exit code, and then writes
``manifest.json``: the command, its arguments and each artifact's sha256.
Every command is deterministic given its arguments and seed; artifacts are
re-emitted byte-identically, and the manifest isolates the only
non-deterministic value (wall-clock time) in the ``created_at`` key. Exit
codes: 0 success, 1 runtime or check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, nd
from .analysis import AnalysisError, cka_matrix, cka_matrix_csv, erf
from .backbone import build, count_flops, forward, memory_report, train_toy
from .blocks import MIXERS
from .config import ConfigError, ModelConfig, VARIANT_NAMES, get_variant
from .dmca import DMCA_MODES
from .params import count_arrays
from .tensor_io import TensorFormatError, read_regular, read_tensor, write_tensor
from .topology import (Mode, PlanError, StageTopologyConfig, plan_model, plan_stage,
                       plan_to_json, to_dot)
from .verify import run_checks

CONFIG_ERRORS = (ConfigError, PlanError, TensorFormatError, AnalysisError, nd.ShapeError)


def _write_manifest(out: Path, args, files: list[Path]):
    arg_dict = {k: v for k, v in sorted(vars(args).items()) if k not in ("out", "func")}
    checksums = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(files)}
    manifest = {
        "command": args.command,
        "args": arg_dict,
        "seed": getattr(args, "seed", None),
        "versions": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "sparx": __version__,
        },
        "checksums": checksums,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_config(args) -> ModelConfig:
    flags = {"input_size": "input", "mixer": "mixer", "topology_mode": "topology_mode",
             "dmca_mode": "dmca_mode"}
    overrides = {f: getattr(args, a) for f, a in flags.items() if getattr(args, a, None) is not None}
    if args.config and args.variant:
        raise ConfigError("--variant or --config, not both")
    if args.config:
        try:  # a FIFO or device is refused unread; JSON is UTF-8 text
            text = read_regular(args.config).decode()
        except OSError as e:
            raise ConfigError(f"cannot read config file {args.config}: {e}") from e
        except UnicodeDecodeError as e:
            raise ConfigError(f"config file {args.config} is not UTF-8 text: {e}") from e
        return replace(ModelConfig.from_json(text), **overrides)
    if args.variant:
        return get_variant(args.variant, **overrides)
    raise ConfigError("either --variant or --config is required")


def _seeded_images(seed: int, count: int, size: int, dtype=np.float32):
    if count < 1:
        raise ConfigError(f"--images must be a positive integer, got {count}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(7000,))))
    try:
        return rng.standard_normal((count, 3, size, size)).astype(dtype)
    except ValueError as e:  # numpy's "array is too big": beyond the address space
        raise MemoryError(f"cannot allocate {count} images of 3x{size}x{size}: {e}") from e


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_plan(args, out: Path) -> tuple[int, list[Path]]:
    files = []
    if args.variant:
        for flag, value in (("--layers", args.layers), ("--stride", args.stride),
                            ("--window", args.window), ("--cross-stage", args.cross_stage)):
            if value is not None:
                raise ConfigError(f"--variant or {flag}, not both")
        cfg = get_variant(args.variant, **({"topology_mode": args.mode} if args.mode else {}))
        plans = plan_model(cfg)
        for i, plan in enumerate(plans, start=1):
            pj, pd = out / f"plan_stage{i}.json", out / f"plan_stage{i}.dot"
            pj.write_text(plan_to_json(plan))
            pd.write_text(to_dot(plan))
            files += [pj, pd]
    else:
        if args.layers is None:
            raise ConfigError("plan needs --variant or --layers")
        # defaults are filled in where they apply, so the manifest records what ran
        for name, default in (("stride", 2), ("window", 2), ("cross_stage", False)):
            if getattr(args, name) is None:
                setattr(args, name, default)
        cfg = StageTopologyConfig(args.layers, args.stride, args.window,
                                  Mode(args.mode or "sparx"),
                                  has_cross_stage_input=args.cross_stage)
        plan = plan_stage(cfg)
        pj, pd = out / "plan.json", out / "plan.dot"
        pj.write_text(plan_to_json(plan))
        pd.write_text(to_dot(plan))
        files += [pj, pd]
        print(f"ganglion layers: {list(plan.ganglion_indices)}")
    return 0, files


def cmd_stats(args, out: Path) -> tuple[int, list[Path]]:
    variants = args.variant.split(",")
    modes = (args.modes if args.modes is not None else "sparx").split(",")
    rows = []
    for name in variants:
        for mode in modes:
            cfg = get_variant(name, topology_mode=mode,
                              **({"input_size": args.input} if args.input is not None else {}))
            params = count_arrays(build(cfg, args.seed))
            flops = count_flops(cfg)["total"]
            mem = memory_report(cfg)
            rows.append({
                "variant": name,
                "mode": mode,
                "input": cfg.input_size,
                "params": params,
                "macs": flops,
                "peak_inference_bytes": mem["peak_inference_bytes"],
                "total_training_bytes": mem["total_training_bytes"],
            })
    header = list(rows[0].keys())
    csv_text = ",".join(header) + "\n"
    for r in rows:
        csv_text += ",".join(str(r[h]) for h in header) + "\n"
    csv_path = out / "stats.csv"
    csv_path.write_text(csv_text)
    widths = {h: max(len(h), max(len(str(r[h])) for r in rows)) for h in header}
    print("  ".join(h.ljust(widths[h]) for h in header))
    for r in rows:
        print("  ".join(str(r[h]).ljust(widths[h]) for h in header))
    return 0, [csv_path]


def cmd_verify(args, out: Path) -> tuple[int, list[Path]]:
    results = run_checks()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: measured {r.measured} "
              f"(tolerance {r.tolerance})")
    failed = sum(not r.passed for r in results)
    report = {
        "checks": [vars(r) for r in results],
        "total": len(results),
        "failed": failed,
    }
    rp = out / "verify_report.json"
    rp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return (1 if failed else 0), [rp]


def cmd_forward(args, out: Path) -> tuple[int, list[Path]]:
    cfg = _resolve_config(args)
    model = build(cfg, args.seed)
    img = _seeded_images(args.seed, 1, cfg.input_size)[0]
    logits, _ = forward(model, img)
    lp = out / "logits.spxt"
    write_tensor(lp, logits)
    print("logits:", np.array2string(logits, precision=6))
    return 0, [lp]


def cmd_capture(args, out: Path) -> tuple[int, list[Path]]:
    cfg = _resolve_config(args)
    model = build(cfg, args.seed)
    images = _seeded_images(args.seed, args.images, cfg.input_size)
    stacks: list[list[np.ndarray]] = []
    meta = None
    for img in images:
        _, captured = forward(model, img, capture=True)
        if meta is None:
            meta = [(c.stage, c.layer, c.role) for c in captured]
            stacks = [[] for _ in captured]
        for slot, c in zip(stacks, captured):
            slot.append(c.data)
    files = []
    records = []
    for (stage, layer, role), feats in zip(meta, stacks):
        stacked = np.stack(feats)  # (images, C, h, w)
        fname = f"layer_s{stage}_l{layer:02d}.spxt"
        write_tensor(out / fname, stacked)
        files.append(out / fname)
        records.append({"file": fname, "stage": stage, "layer": layer, "role": role,
                        "shape": list(stacked.shape)})
    cm = out / "capture_manifest.json"
    cm.write_text(json.dumps({"layers": records, "images": args.images}, indent=2, sort_keys=True) + "\n")
    files.append(cm)
    print(f"captured {len(records)} layers x {args.images} images")
    return 0, files


def cmd_cka(args, out: Path) -> tuple[int, list[Path]]:
    dump = Path(args.dump_dir)
    manifest_path = dump / "capture_manifest.json"
    if manifest_path.exists():
        try:
            names = [r["file"] for r in json.loads(read_regular(manifest_path))["layers"]]
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigError(f"malformed {manifest_path}: {type(e).__name__}: {e}") from None
        if not all(isinstance(n, str) and n == Path(n).name and n not in ("", "..") for n in names):
            raise ConfigError(f"malformed {manifest_path}: every layer record needs a 'file' naming a file in {dump}")
    else:
        names = sorted(p.name for p in dump.glob("*.spxt"))
    if not names:
        raise ConfigError(f"no .spxt feature dumps found in {dump}")
    matrix = cka_matrix([read_tensor(dump / name) for name in names])
    labels = [Path(n).stem for n in names]
    cp = out / "cka.csv"
    cp.write_text(cka_matrix_csv(matrix, labels))
    print(f"cka matrix {matrix.shape[0]}x{matrix.shape[0]}; "
          f"mean off-diagonal {float((matrix.sum() - len(labels)) / max(1, len(labels)**2 - len(labels))):.4f}")
    return 0, [cp]


def cmd_erf(args, out: Path) -> tuple[int, list[Path]]:
    if not args.config and not args.variant:
        args.variant = "tiny-reduced"
    cfg = _resolve_config(args)
    model = build(cfg, args.seed, dtype=np.float64)
    images = _seeded_images(args.seed, args.images, cfg.input_size, dtype=np.float64)
    emap = erf(model, args.stage, images)
    ep, pp = out / "erf.spxt", out / "erf.pgm"
    write_tensor(ep, emap.values)
    pp.write_text(emap.to_pgm())
    print(f"erf stage {args.stage}: support {int(emap.support().sum())} cells, argmax {emap.argmax}")
    return 0, [ep, pp]


def cmd_train_toy(args, out: Path) -> tuple[int, list[Path]]:
    cfg = get_variant(args.variant)
    result = train_toy(cfg, steps=args.steps, lr=args.lr, seed=args.seed,
                       batch_size=args.batch, target_acc=args.target_acc)
    losses_csv = "step,loss\n" + "".join(f"{i},{v:.10f}\n" for i, v in enumerate(result.losses))
    lp = out / "losses.csv"
    lp.write_text(losses_csv)
    summary = {"accuracy": result.accuracy, "steps_run": result.steps_run,
               "final_loss": result.losses[-1]}
    rp = out / "result.json"
    rp.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"train-toy: accuracy {result.accuracy:.3f} after {result.steps_run} steps")
    return 0, [lp, rp]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sparx",
                                 description="Sparse cross-layer backbone toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out", help="output directory (default $SPARX_OUT or ./sparx-out)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("plan", help="emit connectivity plans as JSON and DOT")
    p.add_argument("--variant", choices=VARIANT_NAMES)
    p.add_argument("--layers", type=int)
    p.add_argument("--stride", type=int, help="ganglion stride with --layers (default 2)")
    p.add_argument("--window", type=int, help="connection window with --layers (default 2)")
    p.add_argument("--mode", choices=[m.value for m in Mode])
    p.add_argument("--cross-stage", action="store_true", default=None, dest="cross_stage")
    common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("stats", help="parameter, MAC, and memory accounting")
    p.add_argument("--variant", required=True, help="comma-separated variant names")
    p.add_argument("--input", type=int)
    p.add_argument("--modes", help="comma-separated topology modes")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    for name, fn in (("forward", cmd_forward), ("capture", cmd_capture)):
        p = sub.add_parser(name, help=f"{name} a seeded random image through a model")
        p.add_argument("--variant", choices=VARIANT_NAMES)
        p.add_argument("--config", help="model config JSON file")
        p.add_argument("--input", type=int)
        p.add_argument("--mixer", choices=MIXERS)
        p.add_argument("--topology-mode", dest="topology_mode", choices=[m.value for m in Mode])
        p.add_argument("--dmca-mode", dest="dmca_mode", choices=DMCA_MODES)
        if name == "capture":
            p.add_argument("--images", type=int, default=1)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("cka", help="similarity matrix over a feature dump")
    p.add_argument("--dump-dir", required=True, dest="dump_dir")
    common(p)
    p.set_defaults(func=cmd_cka)

    p = sub.add_parser("erf", help="effective receptive field of a stage")
    p.add_argument("--variant", choices=VARIANT_NAMES, help="default tiny-reduced without --config")
    p.add_argument("--config")
    p.add_argument("--stage", type=int, default=4)
    p.add_argument("--images", type=int, default=8)
    p.add_argument("--input", type=int)
    common(p)
    p.set_defaults(func=cmd_erf)

    p = sub.add_parser("train-toy", help="SGD on the synthetic two-class set")
    p.add_argument("--variant", choices=VARIANT_NAMES, default="tiny-reduced")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--target-acc", type=float, default=0.97, dest="target_acc")
    common(p)
    p.set_defaults(func=cmd_train_toy)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    made = []  # the directories this run creates, innermost first
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        out = Path(args.out or os.environ.get("SPARX_OUT") or "sparx-out")
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        # Overflow shows as the op's NumericError, not as numpy RuntimeWarnings.
        with np.errstate(all="ignore"):
            code, files = args.func(args, out)
        _write_manifest(out, args, files)
        return code
    except CONFIG_ERRORS as e:
        for d in made:  # a rejected configuration leaves no empty directory behind
            if any(d.iterdir()):
                break
            d.rmdir()
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (nd.NumericError, nd.TapeError, OSError, MemoryError) as e:
        print(f"runtime error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
