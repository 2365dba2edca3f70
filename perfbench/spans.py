"""Span tracing for the benchmark's traced run.

The tracer replaces public functions of the ``collabsc`` modules with timing
wrappers for the duration of a ``with Tracer(...)`` block and restores the
originals on exit. A function is replaced under every name it is bound to in
any loaded ``collabsc`` module, because modules import each other's
functions by name (``collabsc.trainer`` holds its own ``subspace_affinity``).
Backward time of every autodiff op is caught by wrapping each new node's
``_backward_fn`` as the op returns it.

Spans nest on a stack. The outermost open span is the *scope*: times are
summed per (scope, span name), so per-``train_batch`` figures are the sums in
scope ``trainer.train_batch`` divided by the number of batches. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# op kind -> function name in collabsc.autodiff
OP_FUNCTIONS = {
    "matmul": "matmul",
    "add": "add",
    "subtract": "subtract",
    "elementwise-multiply": "multiply",
    "relu": "relu",
    "softmax-rows": "softmax_rows",
    "l2-normalize-rows": "l2_normalize_rows",
    "conv2d-strided": "conv2d",
    "conv2d-transpose-strided": "conv2d_transpose",
    "reshape": "reshape",
    "sum": "tensor_sum",
    "frobenius-norm-squared": "frobenius_sq",
    "log": "log",
    "scalar-multiply": "scale",
    "transpose": "transpose",
    "abs": "absolute",
}

# (module, function name, span name)
FUNCTION_SPANS = (
    ("data", "load_dataset_csv", "data.load"),
    ("data", "load_idx", "data.load"),
    ("autodiff", "backward", "autodiff.backward"),
    ("losses", "subspace_loss", "losses.subspace_loss"),
    ("losses", "build_masks", "losses.build_masks"),
    ("losses", "positive_loss", "losses.positive_loss"),
    ("losses", "negative_loss", "losses.negative_loss"),
    ("losses", "subspace_affinity_tensor", "losses.subspace_affinity_tensor"),
    ("affinity", "subspace_affinity", "affinity.subspace_affinity"),
    ("affinity", "class_affinity", "affinity.class_affinity"),
    ("affinity", "kmeans", "affinity.kmeans"),
    ("metrics", "hungarian", "metrics.hungarian"),
    ("metrics", "nmi", "metrics.nmi"),
    ("metrics", "ari", "metrics.ari"),
    ("metrics", "infer_labels", "metrics.infer_labels"),
    ("trainer", "evaluate", "trainer.evaluate"),
    ("trainer", "predict_dataset", "trainer.predict_dataset"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("trainer", "CollaborativeTrainer", "train_batch", "trainer.train_batch"),
    ("trainer", "CollaborativeTrainer", "pretrain", "trainer.pretrain"),
    ("trainer", "CollaborativeTrainer", "warm_start_classifier", "trainer.warm_start"),
    ("network", "Network", "encode", "network.encode"),
    ("network", "Network", "decode", "network.decode"),
    ("network", "Network", "classify", "network.classify"),
)

# ops run by ``Network.classify`` outside any planned layer form the output
# layer: logits matmul, bias add, softmax, row normalization
CLASSIFIER_OUT = "classifier.out"


class Tracer:
    """Collects span times while installed; see the module docstring."""

    def __init__(self):
        # the trainer whose Adam instances name the optimizer groups
        self.trainer = None
        self._stack: list[list] = []  # [name, start, child_time]
        self._tags: list[str | None] = []
        self.self_time = defaultdict(float)   # (scope, name) -> s
        self.total_time = defaultdict(float)  # (scope, name) -> s
        self.calls = defaultdict(int)         # (scope, name) -> count
        self.layer_time = defaultdict(float)  # (scope, layer, "fwd"|"bwd") -> s
        self.graph_nodes = defaultdict(int)   # scope -> nodes walked by backward
        self.batch_children: list[list[tuple[str, float, float]]] = []
        self.batch_spans: list[tuple[float, float, float]] = []  # start, end, self
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name: str) -> None:
        if not self._stack and name == "trainer.train_batch":
            self.batch_children.append([])
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        scope = self._stack[0][0] if self._stack else name
        self.self_time[scope, name] += dur - child
        self.total_time[scope, name] += dur
        self.calls[scope, name] += 1
        if self._stack:
            self._stack[-1][2] += dur
            if len(self._stack) == 1 and scope == "trainer.train_batch":
                self.batch_children[-1].append((name, start, end))
        elif name == "trainer.train_batch":
            self.batch_spans.append((start, end, dur - child))
        return dur

    def _scope(self) -> str:
        return self._stack[0][0] if self._stack else ""

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def _op(self, fn, kind):
        tracer = self
        fwd_name, bwd_name = f"autodiff.{kind}.fwd", f"autodiff.{kind}.bwd"

        def wrapper(*args, **kwargs):
            tag = tracer._tags[-1] if tracer._tags else None
            tracer._enter(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._exit()
            scope = tracer._scope()
            if tag is not None:
                tracer.layer_time[scope, tag, "fwd"] += dur
            inner = out._backward_fn
            if inner is not None:
                def timed_backward(g):
                    tracer._enter(bwd_name)
                    try:
                        return inner(g)
                    finally:
                        d = tracer._exit()
                        if tag is not None:
                            tracer.layer_time[tracer._scope(), tag, "bwd"] += d
                out._backward_fn = timed_backward
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _topological_order(self, fn):
        tracer = self

        def wrapper(root):
            tracer._enter("autodiff.topological_order")
            try:
                order = fn(root)
            finally:
                tracer._exit()
            tracer.graph_nodes[tracer._scope()] += len(order)
            return order

        wrapper.__wrapped__ = fn
        return wrapper

    def _tagged(self, fn, tag_of):
        """Attribute the autodiff ops that ``fn`` runs to layer ``tag_of(*args)``."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._tags.append(tag_of(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._tags.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _adam_step(self, fn):
        tracer = self

        def wrapper(adam):
            trainer = tracer.trainer
            group = "other"
            if trainer is not None:
                if adam is trainer.ae_adam:
                    group = "autoencoder"
                elif adam is trainer.cls_adam:
                    group = "classifier"
                elif any(adam is a for a in trainer.coeff_adams.values()):
                    group = "coeffs"
            tracer._enter(f"optim.adam_step.{group}")
            try:
                return fn(adam)
            finally:
                tracer._exit()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        """Replace ``original`` under every name bound to it in collabsc."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "collabsc" or mod_name.startswith("collabsc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _set_method(self, cls, name, replacement) -> None:
        self._restore.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def __enter__(self) -> "Tracer":
        import collabsc
        from collabsc import autodiff, network, optim
        mods = {name: getattr(collabsc, name) for name in
                ("autodiff", "data", "losses", "affinity", "metrics", "trainer",
                 "checkpoint", "network")}
        try:
            for kind, fname in OP_FUNCTIONS.items():
                fn = getattr(autodiff, fname, None)
                if fn is not None:
                    self._rebind_everywhere(fn, self._op(fn, kind))
            topo = getattr(autodiff, "topological_order", None)
            if topo is not None:
                self._rebind_everywhere(topo, self._topological_order(topo))
            for mod, fname, span in FUNCTION_SPANS:
                fn = getattr(mods[mod], fname, None)
                if fn is not None:
                    self._rebind_everywhere(fn, self._span(fn, span))
            for mod, cls_name, meth, span in METHOD_SPANS:
                cls = getattr(mods[mod], cls_name)
                self._set_method(cls, meth, self._span(cls.__dict__[meth], span))
            # the innermost tag wins: classify marks its own ops as the output
            # layer, _apply marks the ops of each planned layer
            for meth, tag in (("encode", None), ("decode", None), ("classify", CLASSIFIER_OUT)):
                self._set_method(network.Network, meth, self._tagged(
                    network.Network.__dict__[meth], lambda *args, tag=tag: tag))
            self._set_method(network.Network, "_apply", self._tagged(
                network.Network.__dict__["_apply"], lambda net, plan, x: plan.name))
            self._set_method(optim.Adam, "step", self._adam_step(optim.Adam.__dict__["step"]))
        except BaseException:
            self._uninstall()
            raise
        return self

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._uninstall()
