"""Span tracing of podfcr from outside the package.

``Tracer.install()`` replaces, at run time, the public functions and block
``__call__`` methods of the podfcr modules with wrappers that record one
span per call: name, start, end, and the span that was open when the call
began. Every tape node an op records gets its backward closure wrapped too,
so the backward time of each node is measured on the real step and charged
to the spans that were open when the node was created. ``uninstall()`` puts
the originals back. Nothing under ``src/`` is edited.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer
figures once the traced pass is over.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

BLOCKS = (
    ("nn", "GatedResidualBlock"),
    ("nn", "DynamicFilterResidualBlock"),
    ("nn", "SCDF"),
    ("nn", "PlainResidualBlock"),
    ("nn", "Downsample"),
    ("nn", "Upsample"),
    ("nn", "ASPP"),
    ("fusion", "MMCF"),
    ("fusion", "SCRU"),
    ("fusion", "MWRU"),
)
# Every public autodiff function that records a tape node; all are wrapped so
# that each node is tagged, and the ones in REPORTED_OPS get metrics.
OPS = ("add", "sub", "mul", "div", "scale", "absolute", "sqrt", "relu", "leaky_relu",
       "sigmoid", "tanh", "tsum", "tmean", "reshape", "transpose", "concat", "pad",
       "broadcast_to", "matmul", "softmax", "conv2d", "conv_transpose2d", "unfold",
       "avg_pool2d", "global_avg_pool", "batch_norm")
REPORTED_OPS = ("conv2d", "conv_transpose2d", "unfold", "batch_norm", "matmul",
                "softmax", "mul", "leaky_relu", "sigmoid")
# (module, function, span name) for module-level functions of other layers.
FUNCTIONS = (
    ("training", "load_dataset", "training.load_dataset"),
    ("training", "make_batch", "training.make_batch"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("tensorfile", "write_tensor", "tensorfile.write"),
    ("tensorfile", "read_tensor", "tensorfile.read"),
    ("evaluation", "predict", "evaluation.predict"),
    ("evaluation", "render_report", "evaluation.render_report"),
    ("metrics", "evaluate_pair", "metrics.evaluate_pair"),
    ("synthetic", "build_dataset", "synthetic.build_dataset"),
    ("losses", "loss_components", "losses.loss"),
    ("losses", "loss_total", "losses.loss"),
)
# (module, class, method, span name) for methods of other layers.
METHODS = (
    ("autodiff", "Tensor", "backward", "autodiff.backward"),
    ("optim", "Adam", "step", "optim.adam_step"),
    ("model", "CloudRemovalNet", "forward", "model.forward"),
    ("model", "CloudRemovalNet", "__call__", "model.forward"),
    ("model", "CloudRemovalNet", "__init__", "model.build"),
)
KIND_PHASE, KIND_LAYER, KIND_BLOCK, KIND_OP = "phase", "layer", "block", "op"
MIB = float(1 << 20)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    Children are clipped to their parent's interval.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((max(starts[i], starts[p]), min(ends[i], ends[p])))
    return [(ends[i] - starts[i]) - union_length(iv for iv in children.get(i, ()) if iv[1] > iv[0])
            for i in range(len(starts))]


class Tracer:
    def __init__(self, package: str = "podfcr"):
        self.package = package
        self.names: list[str] = []
        self.kinds: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self.stack: list[int] = []
        # one entry per tape node: (creating span, output bytes, backward seconds or None)
        self.nodes: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, kind: str, size: int = 1) -> int:
        i = len(self.names)
        self.names.append(name)
        self.kinds.append(kind)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.sizes.append(size)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        popped = self.stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[i]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, kind: str = KIND_PHASE, size: int = 1):
        i = self.open(name, kind, size)
        try:
            yield
        finally:
            self.close(i)

    def _hook_node(self, out, span: int) -> None:
        backward = out._backward
        if backward is None or getattr(backward, "_traced", False):
            return
        record = [span, out.data.nbytes, None]
        self.nodes.append(record)

        def traced_backward(g):
            t0 = time.perf_counter()
            backward(g)
            record[2] = time.perf_counter() - t0

        traced_backward._traced = True
        out._backward = traced_backward

    def _wrap(self, fn, name: str, kind: str, size_of=None, hook=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(name, kind, size_of(args) if size_of else 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if hook:
                tracer._hook_node(out, i)
            return out

        return wrapper

    # -- installing ---------------------------------------------------------

    def _module(self, short: str):
        return sys.modules[f"{self.package}.{short}"]

    def _rebind_everywhere(self, original, wrapper) -> None:
        """Point every podfcr module global that holds ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        ad = self._module("autodiff")
        for op in OPS:
            fn = getattr(ad, op)
            self._rebind_everywhere(fn, self._wrap(fn, f"autodiff.{op}", KIND_OP, hook=True))
        for mod, fname, span_name in FUNCTIONS:
            fn = getattr(self._module(mod), fname)
            size_of = {"evaluation.predict": lambda args: len(args[1]),
                       "tensorfile.write": lambda args: args[1].nbytes}.get(span_name)
            self._rebind_everywhere(fn, self._wrap(fn, span_name, KIND_LAYER, size_of))
        for mod, cls_name, meth, span_name in METHODS:
            cls = getattr(self._module(mod), cls_name)
            original = cls.__dict__[meth]
            size_of = (lambda args: args[1].shape[0]) if span_name == "model.forward" else None
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span_name, KIND_LAYER, size_of))
        for mod, cls_name in BLOCKS:
            cls = getattr(self._module(mod), cls_name)
            original = cls.__dict__["__call__"]
            self._patches.append((cls, "__call__", original))
            setattr(cls, "__call__", self._wrap(original, f"{mod}.{cls_name}", KIND_BLOCK))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def _nearest(self, i: int, kinds) -> int:
        p = self.parents[i]
        while p >= 0 and self.kinds[p] not in kinds:
            p = self.parents[p]
        return p

    def _chain(self, i: int) -> list[int]:
        out = []
        while i >= 0:
            out.append(i)
            i = self.parents[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded so far (see README)."""
        n = len(self.names)
        phase_of = [""] * n       # innermost enclosing phase span (parents come first)
        for i in range(n):
            p = self.parents[i]
            phase_of[i] = self.names[i] if self.kinds[i] == KIND_PHASE else (
                phase_of[p] if p >= 0 else "")
        in_train = [ph == "phase.train" for ph in phase_of]
        in_round = [False] * n
        for i in range(n):
            p = self.parents[i]
            in_round[i] = self.names[i] == "phase.round" or (p >= 0 and in_round[p])
        rounds = max(sum(1 for x in self.names if x == "phase.round"), 1)

        def reparented(kinds):
            """Self times over the tree restricted to spans of ``kinds``."""
            idx = [i for i in range(n) if self.kinds[i] in kinds]
            pos = {i: k for k, i in enumerate(idx)}
            parents = []
            for i in idx:
                p = self._nearest(i, kinds)
                parents.append(pos[p] if p >= 0 else -1)
            st = self_times([self.starts[i] for i in idx], [self.ends[i] for i in idx], parents)
            return {i: st[k] for k, i in enumerate(idx)}

        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        total = defaultdict(float)
        calls = defaultdict(int)
        samples = defaultdict(int)
        train_total = defaultdict(float)
        train_calls = defaultdict(int)
        round_calls = defaultdict(int)
        saved_bytes = 0
        for i in range(n):
            name = self.names[i]
            total[name] += dur[i]
            calls[name] += 1
            samples[name] += self.sizes[i]
            if in_train[i]:
                train_total[name] += dur[i]
                train_calls[name] += 1
            if in_round[i]:
                round_calls[name] += 1
            if name == "tensorfile.write" and self.parents[i] >= 0 and \
                    self.names[self.parents[i]] == "training.save_checkpoint":
                saved_bytes += self.sizes[i]
        block_self = defaultdict(float)
        for i, s in reparented((KIND_BLOCK,)).items():
            block_self[self.names[i]] += s

        steps = max(train_calls["optim.adam_step"], 1)
        forwarded = max(samples["model.forward"], 1)

        # backward time of each tape node, charged to the spans open at its creation
        bwd_incl = defaultdict(float)
        bwd_self = defaultdict(float)
        train_nodes = 0
        train_bytes = 0
        node_seconds = 0.0
        for span, nbytes, seconds in self.nodes:
            if in_train[span]:
                train_nodes += 1
                train_bytes += nbytes
            if seconds is None:
                continue
            node_seconds += seconds
            chain = self._chain(span)
            for name in {self.names[j] for j in chain}:
                bwd_incl[name] += seconds
            block = next((j for j in chain if self.kinds[j] == KIND_BLOCK), -1)
            if block >= 0:
                bwd_self[self.names[block]] += seconds

        m: dict[str, float] = {
            "autodiff.tape_nodes": train_nodes / steps,
            "autodiff.tape_mb": train_bytes / MIB / steps,
            "autodiff.backward_ms": 1e3 * train_total["autodiff.backward"] / steps,
            "autodiff.conv2d.calls": train_calls["autodiff.conv2d"] / steps,
        }
        for op in REPORTED_OPS:
            name = f"autodiff.{op}"
            m[f"{name}.fwd_ms"] = 1e3 * total[name] / forwarded
            m[f"{name}.bwd_ms"] = 1e3 * bwd_incl[name] / steps
        for mod, cls_name in BLOCKS:
            name = f"{mod}.{cls_name}"
            m[f"{name}.fwd_ms"] = 1e3 * total[name] / forwarded
            m[f"{name}.fwd_self_ms"] = 1e3 * block_self[name] / forwarded
            m[f"{name}.bwd_ms"] = 1e3 * bwd_incl[name] / steps
            m[f"{name}.bwd_self_ms"] = 1e3 * bwd_self[name] / steps

        def per_call(name, scale=1e3):
            return scale * total[name] / max(calls[name], 1)

        m["model.forward_ms"] = 1e3 * total["model.forward"] / forwarded
        m["model.build_ms"] = per_call("model.build")
        m["losses.loss_ms"] = 1e3 * train_total["losses.loss"] / steps
        m["optim.adam_step_ms"] = 1e3 * train_total["optim.adam_step"] / steps
        m["training.save_checkpoint_ms"] = per_call("training.save_checkpoint")
        m["training.load_checkpoint_ms"] = per_call("training.load_checkpoint")
        m["training.checkpoint_mb"] = saved_bytes / MIB / max(calls["training.save_checkpoint"], 1)
        m["training.make_batch_ms"] = per_call("training.make_batch")
        m["training.load_dataset_ms"] = per_call("training.load_dataset")
        m["tensorfile.write_calls"] = round_calls["tensorfile.write"] / rounds
        m["tensorfile.read_calls"] = round_calls["tensorfile.read"] / rounds
        m["tensorfile.write_ms"] = per_call("tensorfile.write")
        m["tensorfile.read_ms"] = per_call("tensorfile.read")
        predicted = max(samples["evaluation.predict"], 1)
        m["evaluation.predict_ms"] = 1e3 * total["evaluation.predict"] / predicted
        m["evaluation.render_report_ms"] = 1e3 * total["evaluation.render_report"] / predicted
        m["metrics.evaluate_pair_ms"] = per_call("metrics.evaluate_pair")
        m["synthetic.build_dataset_s"] = per_call("synthetic.build_dataset", 1.0)

        # step coverage: share of train() wall time inside the named layers
        layer_self = reparented((KIND_PHASE, KIND_LAYER))
        train_wall = covered = 0.0
        for i in range(n):
            if self.names[i] == "phase.train":
                train_wall += dur[i]
                covered += dur[i] - layer_self[i]
        m["trace.train_coverage_pct"] = 100.0 * covered / train_wall if train_wall else 0.0
        backward_wall = total["autodiff.backward"]
        m["trace.backward_node_coverage_pct"] = (
            100.0 * node_seconds / backward_wall if backward_wall else 0.0)
        return m
