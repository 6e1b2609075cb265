"""Per-layer tracing of tablemt from outside the library.

The tracer replaces public functions of the ``tablemt`` modules with timing
wrappers at every import site (each ``tablemt.*`` module global that holds
the original function), plus ``Tensor.backward``, ``Tensor._accumulate``
and ``Adam.step`` on their classes.  ``Tensor.backward`` is wrapped so that
it first walks the tape and re-wraps each node's backward closure, keyed by
the closure's ``__qualname__``; that splits backward time by op kind.
Nothing under ``src/`` is edited, and ``uninstall`` restores every
original.

Spans nest: ``model.forward`` contains the encoder and detector spans, and
``autograd.backward`` contains every ``autograd.op.*`` span, so times are
inclusive, not self times.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

OP_KINDS = ("getitem", "conv3x3", "mul", "add", "concat", "max", "sum", "range_rowmax", "matmul")

# Closure owner (``__qualname__`` up to ``.<locals>``) -> op kind; every
# other closure (tanh, relu, reshape, pow, ...) counts as "other".
_OWNER_KIND = {
    "Tensor.__getitem__": "getitem",
    "conv3x3": "conv3x3",
    "Tensor.__mul__": "mul",
    "Tensor.__add__": "add",
    "concat": "concat",
    "Tensor.max": "max",
    "Tensor.sum": "sum",
    "range_rowmax": "range_rowmax",
    "Tensor.__matmul__": "matmul",
}

# (module, function, span name): spans installed at every import site.
_SPANS = (
    ("encoder", "embed", "encoder.embed"),
    ("encoder", "build_table", "encoder.build_table"),
    ("encoder", "conv_stack", "encoder.conv_stack"),
    ("detector", "rpn_scores", "detector.rpn_scores"),
    ("detector", "topk_prune", "detector.topk_prune"),
    ("detector", "propose_regions", "detector.propose_regions"),
    ("detector", "roi_represent", "detector.roi_represent"),
    ("detector", "classify_regions", "detector.classify_regions"),
    ("detector", "decode_triplets", "detector.decode_triplets"),
    ("losses", "loss_rpn", "losses.loss_rpn"),
    ("losses", "loss_rpc", "losses.loss_rpc"),
    ("losses", "match_gold", "losses.match_gold"),
    ("losses", "loss_uns", "losses.loss_uns"),
    ("losses", "mmd", "losses.mmd"),
    ("model", "forward", "model.forward"),
    ("model", "predict", "model.predict"),
    ("trainer", "train_step", "trainer.train_step"),
    ("trainer", "compute_losses", "trainer.compute_losses"),
    ("trainer", "ema_update", "trainer.ema_update"),
    ("trainer", "augment", "trainer.augment"),
    ("trainer", "teacher_pseudo_label", "trainer.teacher_pseudo_label"),
    ("trainer", "pretrain_teacher", "trainer.pretrain_teacher"),
    ("trainer", "_f1", "trainer.eval"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
)

# Spans whose every call duration is kept, for percentiles.
_SAMPLED = ("trainer.train_step", "model.predict")

# (module, global, span name): spans installed in one module only, so they
# count the calls made from that module.
_LOCAL_SPANS = (
    ("cli", "fit", "cli.fit"),
    ("cli", "_write_csv", "cli.write_csv"),
)


def op_kind(fn) -> str:
    return _OWNER_KIND.get(fn.__qualname__.split(".<locals>")[0], "other")


def _tape(root) -> list:
    """Nodes reachable from ``root`` that hold a backward closure."""
    seen = {id(root)}
    stack = [root]
    out = []
    while stack:
        node = stack.pop()
        if node._backward is not None:
            out.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return out


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Tracer:
    """Collects span times, call counts and work counts while installed."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._last_forward = None
        self._kinds: dict[object, str] = {}

    # -- installation ---------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap at the import sites in ``tablemt`` and in ``callers``, the
        benchmark's own modules that import tablemt functions by name."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("tablemt.")}
        for mod, attr, span in _LOCAL_SPANS:
            self._set(mods[mod], attr, self._wrap(span, getattr(mods[mod], attr)))
        for mod, attr, span in _SPANS:
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(span, original, getattr(self, "_after_" + attr, None))
            for m in (*mods.values(), *callers):
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapper)
        tensor = mods["autograd"].Tensor
        self._set(tensor, "_accumulate", self._wrap("autograd.accumulate", tensor._accumulate))
        self._set(tensor, "backward", self._traced_backward(tensor.backward))
        adam = mods["trainer"].Adam
        self._set(adam, "step", self._wrap("trainer.adam", adam.step))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, span: str, fn, after=None):
        seconds, calls, stack = self.seconds, self.calls, self._stack
        keep = span in _SAMPLED
        samples = self.samples[span]
        clock = time.perf_counter
        signature = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            stack.append(span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                seconds[span] += dt
                calls[span] += 1
                if keep:
                    samples.append(dt)
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def _traced_backward(self, backward):
        seconds, calls = self.seconds, self.calls
        clock = time.perf_counter

        def traced(root):
            nodes = _tape(root)
            for node in nodes:
                node._backward = self._timed_op(node._backward)
            self.samples["autograd.tape_nodes"].append(len(nodes))
            t0 = clock()
            try:
                backward(root)
            finally:
                seconds["autograd.backward"] += clock() - t0
                calls["autograd.backward"] += 1

        return traced

    def _timed_op(self, fn):
        kind = self._kinds.get(fn.__code__)
        if kind is None:
            kind = self._kinds[fn.__code__] = "autograd.op." + op_kind(fn)
        seconds, calls = self.seconds, self.calls
        clock = time.perf_counter

        def run(g):
            t0 = clock()
            try:
                fn(g)
            finally:
                seconds[kind] += clock() - t0
                calls[kind] += 1

        return run

    # -- work counters, fed from the wrappers' results --------------------

    def _after_forward(self, call, fwd) -> None:
        self._last_forward = fwd
        if self._stack and self._stack[-1] == "trainer.teacher_pseudo_label":
            self.counts["pseudo_scored"] += len(fwd.proposals)

    def _after_teacher_pseudo_label(self, call, kept) -> None:
        self.counts["pseudo_kept"] += len(kept)

    def _after_propose_regions(self, call, proposals) -> None:
        self.counts["proposals"] += len(proposals)

    def _after_decode_triplets(self, call, out) -> None:
        from tablemt.detector import invalid_class

        picks = call["probs"].argmax(axis=1)
        self.counts["decoded"] += len(call["proposals"])
        self.counts["decoded_valid"] += int((picks != invalid_class(call["mode"])).sum())

    def _after_match_gold(self, call, out) -> None:
        # Gold rectangles are known only where compute_losses matches them
        # against the proposals of the forward pass it has just run.
        fwd = self._last_forward
        proposals, gold = call["proposals"], call["gold_regions"]
        if fwd is None or proposals is not fwd.proposals:
            return
        predicted = {p.rect() for p in proposals[: fwd.n_predicted]}
        rects = {g.rect() for g in gold}
        self.counts["gold"] += len(rects)
        self.counts["gold_found"] += len(rects & predicted)

    def _after_save_checkpoint(self, call, out) -> None:
        self.counts["checkpoint_bytes"] += os.path.getsize(call["path"])

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        s, c, k = self.seconds, self.calls, self.counts

        def ms(span):
            return (s[span] * 1e3, "ms")

        def count(x):
            return (float(x), "count")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        out = {
            "autograd.backward.ms": ms("autograd.backward"),
            "autograd.backward.calls": count(c["autograd.backward"]),
            "autograd.tape_nodes": count(_quantile(self.samples["autograd.tape_nodes"], 0.5)),
            "autograd.accumulate.ms": ms("autograd.accumulate"),
            "autograd.accumulate.calls": count(c["autograd.accumulate"]),
        }
        for kind in OP_KINDS + ("other",):
            out[f"autograd.op.{kind}.ms"] = ms(f"autograd.op.{kind}")
            out[f"autograd.op.{kind}.calls"] = count(c[f"autograd.op.{kind}"])
        for span in ("rpn_scores", "topk_prune", "propose_regions", "roi_represent",
                     "classify_regions"):
            out[f"detector.{span}.ms"] = ms(f"detector.{span}")
        out["detector.roi_represent.calls"] = count(c["detector.roi_represent"])
        out["detector.proposals_per_sentence"] = (
            k["proposals"] / c["detector.propose_regions"] if c["detector.propose_regions"]
            else 0.0, "count")
        out["detector.valid_share"] = ratio(k["decoded_valid"], k["decoded"])
        out["detector.gold_recall"] = ratio(k["gold_found"], k["gold"])
        for span in ("embed", "build_table", "conv_stack"):
            out[f"encoder.{span}.ms"] = ms(f"encoder.{span}")
        for span in ("loss_rpn", "loss_rpc", "match_gold", "loss_uns", "mmd"):
            out[f"losses.{span}.ms"] = ms(f"losses.{span}")
        out["losses.mmd.calls"] = count(c["losses.mmd"])
        for span in ("forward", "predict"):
            out[f"model.{span}.ms"] = ms(f"model.{span}")
            out[f"model.{span}.calls"] = count(c[f"model.{span}"])
        predict = self.samples["model.predict"]
        out["model.predict.ms_p50"] = (_quantile(predict, 0.5) * 1e3, "ms")
        out["model.predict.ms_p99"] = (_quantile(predict, 0.99) * 1e3, "ms")
        steps = self.samples["trainer.train_step"]
        out["trainer.train_step.ms_p50"] = (_quantile(steps, 0.5) * 1e3, "ms")
        out["trainer.train_step.ms_p90"] = (_quantile(steps, 0.9) * 1e3, "ms")
        for span in ("compute_losses", "adam", "ema_update", "augment",
                     "teacher_pseudo_label", "eval"):
            out[f"trainer.{span}.ms"] = ms(f"trainer.{span}")
        out["trainer.pseudo_kept_share"] = ratio(k["pseudo_kept"], k["pseudo_scored"])
        out["trainer.pretrain_teacher.s"] = (s["trainer.pretrain_teacher"], "s")
        out["trainer.pretrain_teacher.calls"] = count(c["trainer.pretrain_teacher"])
        out["checkpoint.save.ms"] = ms("checkpoint.save")
        out["checkpoint.load.ms"] = ms("checkpoint.load")
        out["checkpoint.bytes"] = (k["checkpoint_bytes"], "bytes")
        out["cli.fit.calls"] = count(c["cli.fit"])
        out["cli.write_csv.ms"] = ms("cli.write_csv")
        return out
