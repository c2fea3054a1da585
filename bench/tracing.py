"""Per-layer tracing from outside the library.

``Tracer`` swaps blossomrec's public functions for wrappers that record a
span (name, start, end, parent span, root span) around each call, plus a
few counters read off the call's arguments and result. The library code is
untouched: the wrappers replace the names that modules look up, and are
removed again on exit. Spans are kept in memory and written out when the
run ends.

Time metrics (``<layer>.<name>_s``) are the inclusive busy time of all
calls to one function, so nested functions overlap (``model.forward_s``
contains ``fusion.attention_s``). ``model.loss_head_s`` is the self time of
``sequence_loss``: its duration minus its child spans, i.e. the forward
pass taken out. Counting work runs inside ``trace.count`` spans, so it is
not charged to the layer being counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (owner module, attribute, span name, counter) for every traced function.
# An attribute "Class.method" names a method.
_TARGETS = [
    ("data", "load_interactions", "data.load", None),
    ("data", "leave_one_out_split", "data.split", None),
    ("data", "SeqBatch.from_sequences", "data.batch", "_count_batch"),
    ("embedding", "embed", "embedding.embed", None),
    ("embedding", "apply_rope", "embedding.rope", None),
    ("stis", "batch_stis_masks", "stis.mask", "_count_stis"),
    ("ltis", "build_ltis_masks", "ltis.select", "_count_ltis"),
    ("fusion", "encode", "fusion.encode", None),
    ("fusion", "grouped_attention", "fusion.attention", "_count_attention"),
    ("fusion", "gated_fuse", "fusion.gate", None),
    ("tensor", "GradTape.__init__", "tensor.linearize", None),
    ("tensor", "GradTape.replay", "tensor.backward", "_count_tape"),
    ("model", "Model.forward", "model.forward", None),
    ("model", "sequence_loss", "model.sequence_loss", None),
    ("model", "Adam.step", "model.adam", None),
    ("model", "Model.last_hidden", "model.last_hidden", None),
    ("model", "item_scores", "model.item_scores", None),
    ("metrics", "sample_negatives", "metrics.negatives", None),
    ("metrics", "rank_metrics", "metrics.rank", None),
]

# Backward closures are counted by the tensor op that made them; any op
# not listed here (a new fused op, say) is counted under "other".
TAPE_OPS = ("add", "sub", "mul", "div", "power", "exp", "log", "tanh", "sigmoid",
            "reshape", "transpose", "getitem", "concat", "take_rows",
            "take_along_last", "tsum", "matmul", "masked_softmax")

_F64 = 8
_ATTENTION_ARRAYS = 3  # raw logits, scaled logits and softmax weights stay on the tape


def _timed_names() -> list[str]:
    return [span for _, _, span, _ in _TARGETS if span != "model.sequence_loss"]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for span in _timed_names():
        units[f"{span}_s"] = "s"
        units[f"{span}_calls"] = "count"
    units["model.loss_head_s"] = "s"
    units["model.loss_head_calls"] = "count"
    units.update({
        "data.pad_frac": "fraction",
        "stis.mask_mb": "MB", "stis.visible_frac": "fraction",
        "ltis.mask_mb": "MB", "ltis.visible_frac": "fraction",
        "fusion.logits_computed": "count", "fusion.logits_useful_frac": "fraction",
        "fusion.attention_mb": "MB",
        "tensor.tape_ops": "count",
        "model.params_reached_frac": "fraction",
        "mem.forward_peak_mb": "MB", "mem.backward_peak_mb": "MB",
        "trace.overhead_frac": "fraction", "trace.spans": "count",
    })
    for op in TAPE_OPS + ("other",):
        units[f"tensor.tape_ops.{op}"] = "count"
    return units


class Tracer:
    """Spans and counters for one traced pass. Use as a context manager:
    the library's functions are wrapped on entry and restored on exit."""

    enabled = True

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, root index].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        root = self.spans[parent][4] if parent >= 0 else index
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- wrapping -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "blossomrec" or name.startswith("blossomrec.")]
        for mod_name, attr, span, counter in _TARGETS:
            owner = sys.modules[f"blossomrec.{mod_name}"]
            count = getattr(self, counter) if counter else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span, count))
                else:
                    wrapped = self._wrap(raw, span, count)
                self._swap(cls, meth, wrapped)
                continue
            raw = getattr(owner, attr)
            wrapped = self._wrap(raw, span, count)
            # Rebind every module-level name for the function, because
            # callers look it up in their own module after a from-import.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._swap(mod, key, wrapped)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        return False

    def _swap(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                with tracer.span("trace.count"):
                    count(args, kwargs, result)
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def _count_batch(self, args, kwargs, batch) -> None:
        self.counts["data.slots"] += batch.ids.size
        self.counts["data.pad_slots"] += int(batch.ids.size - batch.lengths.sum())

    def _count_mask(self, prefix: str, mask: np.ndarray) -> None:
        self.counts[f"{prefix}.bytes"] += mask.nbytes
        self.counts[f"{prefix}.visible"] += int(np.count_nonzero(mask))
        self.counts[f"{prefix}.entries"] += mask.size

    def _count_stis(self, args, kwargs, mask) -> None:
        self._count_mask("stis", mask)

    def _count_ltis(self, args, kwargs, mask) -> None:
        self._count_mask("ltis", mask)

    def _count_attention(self, args, kwargs, out) -> None:
        q, k, _, cfg = args[:4]
        mask = args[4] if len(args) > 4 else kwargs.get("mask")
        b = q.shape[0] if q.ndim == 4 else 1
        shape = (b, cfg.kv_groups, cfg.heads_per_group, q.shape[-2], k.shape[-2])
        computed = int(np.prod(shape))
        self.counts["fusion.logits_computed"] += computed
        if mask is None:
            self.counts["fusion.logits_useful"] += computed
        else:
            mask = np.asarray(mask, dtype=bool)
            self.counts["fusion.logits_useful"] += int(np.count_nonzero(mask)) * (computed // mask.size)

    def _count_tape(self, args, kwargs, _) -> None:
        tape = args[0]
        self.counts["tensor.tape_ops"] += len(tape.ops)
        for node in tape.ops:
            op = node._backward.__qualname__.split(".")[0]
            self.counts[f"tensor.tape_ops.{op if op in TAPE_OPS else 'other'}"] += 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self, mem: dict, params_reached: float, overhead: float) -> dict:
        """Every per-layer metric, name -> value (units in layer_metric_units)."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        loss_self = sum(end - start - child[i] for i, (name, start, end, _, _)
                        in enumerate(self.spans) if name == "model.sequence_loss")
        c = self.counts
        out: dict[str, float] = {}
        for span in _timed_names():
            out[f"{span}_s"] = busy[span]
            out[f"{span}_calls"] = calls[span]
        out["model.loss_head_s"] = loss_self
        out["model.loss_head_calls"] = calls["model.sequence_loss"]
        out["data.pad_frac"] = c["data.pad_slots"] / max(c["data.slots"], 1)
        for prefix, span in (("stis", "stis.mask"), ("ltis", "ltis.select")):
            out[f"{prefix}.mask_mb"] = c[f"{prefix}.bytes"] / 1e6 / max(calls[span], 1)
            out[f"{prefix}.visible_frac"] = c[f"{prefix}.visible"] / max(c[f"{prefix}.entries"], 1)
        n_att = calls["fusion.attention"]
        out["fusion.logits_computed"] = c["fusion.logits_computed"]
        out["fusion.logits_useful_frac"] = c["fusion.logits_useful"] / max(c["fusion.logits_computed"], 1)
        out["fusion.attention_mb"] = (c["fusion.logits_computed"] * _F64 * _ATTENTION_ARRAYS
                                      / 1e6 / max(n_att, 1))
        out["tensor.tape_ops"] = c["tensor.tape_ops"]
        for op in TAPE_OPS + ("other",):
            out[f"tensor.tape_ops.{op}"] = c[f"tensor.tape_ops.{op}"]
        out["model.params_reached_frac"] = params_reached
        out["mem.forward_peak_mb"] = mem["forward"]
        out["mem.backward_peak_mb"] = mem["backward"]
        out["trace.overhead_frac"] = overhead
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines: id, name, start, end (seconds), parent, root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for index, (name, start, end, parent, root) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent, "root": root}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False
