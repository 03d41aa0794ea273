"""Span tracer that wraps the public functions each sparx layer calls.

No file of the program changes: ``install`` replaces every binding of a
target function, in every loaded ``sparx`` module namespace and in the
benchmark's own modules, with a wrapper that records a span (name, start,
end, parent). ``backbone``, ``blocks`` and ``dmca`` bind kernels with
``from .nd import X``, so a kernel is wrapped in each namespace that holds
it, ``sparx.nd`` included; calls between kernels inside ``nd`` are caught
too. A target the program no longer has is listed in ``absent`` and its
metrics read 0.

With ``memory`` set (and ``tracemalloc`` running), each span also records the
peak traced bytes reached while it was open.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (module name, attribute path, span name); an attribute path "Cls.meth" wraps a method.
LAYER_TARGETS = [
    ("sparx.params", "bind", "params.bind"),
    ("sparx.backbone", "build", "backbone.build"),
    ("sparx.backbone", "forward_bound", "backbone.forward_bound"),
    ("sparx.backbone", "_stem_forward", "backbone.stem"),
    ("sparx.backbone", "_bridge_forward", "backbone.bridge"),
    ("sparx.blocks", "dpe_forward", "blocks.dpe"),
    ("sparx.blocks", "vss_block_forward", "blocks.vss_block"),
    ("sparx.blocks", "mixer_forward", "blocks.mixer"),
    ("sparx.blocks", "convffn_forward", "blocks.ffn"),
    ("sparx.blocks", "ln2d", "blocks.ln2d"),
    ("sparx.dmca", "dmca_forward", "dmca.aggregation"),
    ("sparx.topology", "cache_schedule", "topology.cache_schedule"),
    ("sparx.backbone", "FeatureCache.__init__", "topology.cache.init"),
    ("sparx.backbone", "FeatureCache.assert_live", "topology.cache.assert_live"),
    ("sparx.backbone", "FeatureCache.put", "topology.cache.put"),
    ("sparx.backbone", "FeatureCache.get", "topology.cache.get"),
    ("sparx.backbone", "FeatureCache.evict_after", "topology.cache.evict_after"),
    ("workloads", "sgd_update", "params.sgd"),
]

# Kernel names the per-layer metrics read; the rest of nd's public functions
# are wrapped as well, found at install time, so ``nd.ops`` counts every call.
ND_KERNELS = ("selective_scan", "softplus", "dwconv", "dwconv3x3_pad1", "extract_patches", "gelu",
              "matmul", "pointwise_linear", "bmm", "softmax_lastdim", "layernorm_channels",
              "conv2d", "mean_axis", "backward")

ND_GROUPS = {  # metric -> kernels whose outermost-kernel spans it sums (inclusive time)
    "nd.selective_scan_ms": ("nd.selective_scan",),
    "nd.softplus_ms": ("nd.softplus",),
    "nd.dwconv_ms": ("nd.dwconv", "nd.dwconv3x3_pad1"),
    "nd.gelu_ms": ("nd.gelu",),
    "nd.matmul_ms": ("nd.matmul", "nd.pointwise_linear"),
    "nd.bmm_ms": ("nd.bmm",),
    "nd.softmax_ms": ("nd.softmax_lastdim",),
    "nd.layernorm_ms": ("nd.layernorm_channels",),
    "nd.conv2d_ms": ("nd.conv2d",),
    "nd.backward_ms": ("nd.backward",),
}

COMPONENTS = ("stem", "downsample", "bridge", "dpe", "mixer", "ffn", "aggregation", "head")
COMPONENT_SPANS = {"backbone.stem": "stem", "backbone.bridge": "bridge", "blocks.dpe": "dpe",
                   "dmca.aggregation": "aggregation", "blocks.mixer": "mixer", "blocks.ffn": "ffn"}
COMPONENT_METRIC = {"stem": "backbone.stem", "downsample": "backbone.downsample",
                    "bridge": "backbone.bridge", "head": "backbone.head", "dpe": "blocks.dpe",
                    "mixer": "blocks.mixer", "ffn": "blocks.ffn", "aggregation": "dmca.aggregation"}
SCHEDULE_SPANS = ("topology.cache_schedule", "topology.cache.init", "topology.cache.assert_live",
                  "topology.cache.put", "topology.cache.get", "topology.cache.evict_after")


def _scan_bytes(args, kwargs) -> int:
    """Computed bytes of one selective_scan: inputs, output and its three (C,S,T) buffers."""
    x, a = (getattr(v, "data", v) for v in (args[0], args[2]))
    C, T = np.shape(x)
    S = np.shape(a)[1]
    item = np.asarray(x).dtype.itemsize
    return item * (2 * C * T + C * S + 2 * S * T + C + C * T + 3 * C * S * T)


COUNTERS = {"nd.selective_scan": ("nd.selective_scan_bytes", _scan_bytes)}


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent, peak bytes or None)
        self.counts: dict = defaultdict(float)
        self.absent: list[str] = []
        self.memory = False
        self._stack: list[int] = []
        self._peaks: list[int] = [0]
        self._patches: list = []

    def _targets(self):
        nd = sys.modules["sparx.nd"]
        found = [("sparx.nd", name, f"nd.{name}") for name, fn in sorted(vars(nd).items())
                 if callable(fn) and getattr(fn, "__module__", None) == nd.__name__
                 and not name.startswith("_") and not isinstance(fn, type)]
        known = {t[1] for t in found}
        self.absent = [f"nd.{k}" for k in ND_KERNELS if k not in known]
        return found + LAYER_TARGETS

    def install(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "sparx" or n.startswith("sparx.") or n == "workloads")]
        for modname, path, span in self._targets():
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, fn)
            for holder in [owner] if cls_path else namespaces:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, peaks, clock = self.spans, self._stack, self._peaks, time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            if tracer.memory:
                cur, peak = tracemalloc.get_traced_memory()
                peaks[-1] = max(peaks[-1], peak)
                tracemalloc.reset_peak()
                peaks.append(cur)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                own = None
                if tracer.memory:
                    own = max(peaks.pop(), tracemalloc.get_traced_memory()[1])
                    peaks[-1] = max(peaks[-1], own)
                spans[idx] = (name, t0, t1, parent, own)

        return wrapper


def _children(spans, lo, hi):
    kids = defaultdict(list)
    for i in range(lo, hi):
        kids[spans[i][3]].append(i)
    return kids


def summarize(spans, lo: int, hi: int) -> dict:
    """Per-layer totals (seconds, bytes, counts) over spans[lo:hi].

    Components are keyed like ``count_flops``. The walk of each
    ``forward_bound`` span's direct children assigns them: the component
    functions by name; a direct ``conv2d`` starts the next stage's downsample,
    with the ``ln2d`` after it; a direct ``pointwise_linear`` is the
    aggregation's fuse projection; everything from ``mean_axis`` on is the
    head. Inside a block, the mixer and the FFN are its components and its
    norms and residual adds are ``other``.
    """
    tot: dict = defaultdict(float)
    kids = _children(spans, lo, hi)

    def name(i):
        return spans[i][0]

    def dur(i):
        return spans[i][2] - spans[i][1]

    for i in range(lo, hi):
        n, parent = name(i), spans[i][3]
        pname = name(parent) if parent >= lo else ""
        if n.startswith("nd."):
            tot["nd.ops"] += 1
            if not pname.startswith("nd."):
                for metric, members in ND_GROUPS.items():
                    if n in members:
                        tot[metric] += dur(i)
        elif n == "params.bind" or n == "params.sgd":
            tot[n + "_ms"] += dur(i)
        if n in SCHEDULE_SPANS and pname not in SCHEDULE_SPANS:
            tot["topology.schedule_ms"] += dur(i)
        if spans[i][4] is not None:
            key = f"peak.{n}"
            tot[key] = max(tot[key], spans[i][4])
        if n != "backbone.forward_bound":
            continue
        stage, head = 1, False
        for c in kids[i]:
            cn = name(c)
            if cn == "nd.mean_axis":
                head = True
            comp = None
            if cn == "backbone.stem":
                comp = "stem"
            elif head:
                comp = "head"
            elif cn == "nd.conv2d":
                stage += 1
                comp = "downsample"
            elif cn == "blocks.ln2d":
                comp = "downsample"
            elif cn == "nd.pointwise_linear":
                comp = "aggregation"
            elif cn in COMPONENT_SPANS:
                comp = COMPONENT_SPANS[cn]
            if cn == "blocks.vss_block":
                inner = 0.0
                for g in kids[c]:
                    gc = COMPONENT_SPANS.get(name(g))
                    if gc:
                        tot[f"comp.{gc}"] += dur(g)
                        _peak(tot, gc, spans[g][4])
                        inner += dur(g)
                tot["comp.other"] += dur(c) - inner
            elif comp:
                tot[f"comp.{comp}"] += dur(c)
                _peak(tot, comp, spans[c][4])
            else:
                tot["comp.other"] += dur(c)
            if comp not in ("stem", "head"):
                tot[f"stage{stage}"] += dur(c)
    return tot


def _peak(tot, comp, peak):
    if peak is not None:
        tot[f"comp_peak.{comp}"] = max(tot[f"comp_peak.{comp}"], peak)
