"""Traced pass: spans around the calls into each layer of docreason.

The wrappers live here, in the benchmark, and are installed at the names the
program calls (module globals and class attributes), then removed again. A
target that no longer exists is skipped with a warning and its metrics are
left out, so a refactor of the program cannot break the untraced pass.

Spans stay in memory as [name, start, end, parent, request, tensors] and are
written out once at the end. `tensors` counts Tensor constructions inside
the span. A span's self time is its duration minus that of its child spans
(calls are sequential, so children never overlap).
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, REQUEST, TENSORS = range(6)


def _edges(graphs) -> int:
    return int(sum((g.adjacency != 0).sum() for g in graphs.values()))


def _grad_entries(args) -> int:
    return sum(p.grad.size for p in args[0].params.values() if p.grad is not None)


# (module, attribute, span name, hooks). Hooks: "request" names the request
# id from the arguments, "kind" suffixes the span name from the arguments,
# "before"/"after" record a count from the arguments / (arguments, result).
TARGETS = [
    ("docreason.pipeline", "build_instance", "pipeline.build_instance",
     {"request": lambda a: a[0].get("doc_id")}),
    ("docreason.pipeline", "ingest_document", "document.ingest", {}),
    ("docreason.pipeline", "transform_multipage", "document.transform", {}),
    ("docreason.pipeline", "tokenize", "document.tokenize",
     {"after": ("document.tokens", lambda a, r: len(r))}),
    ("docreason.pipeline", "build_node_inventory", "elements",
     {"after": ("elements.nodes", lambda a, r: len(r))}),
    ("docreason.pipeline", "build_all_graphs", "graphs",
     {"after": ("graphs.edges", lambda a, r: _edges(r))}),
    ("docreason.pipeline", "build_supervision", "pipeline.supervision", {}),
    ("docreason.model", "Model.forward", "model.forward", {}),
    ("docreason.model", "Model.encode", "model.encode", {}),
    ("docreason.nn", "ToyEmbedder.embed", "nn.embed", {}),
    ("docreason.model", "init_node_representations", "nn.pool", {}),
    ("docreason.nn", "GCN.__call__", "nn.gcn",
     {"kind": lambda a: a[1].kind.name.lower()}),
    ("docreason.model", "classify_nodes", "heads.select",
     {"after": ("heads.selected_nodes", lambda a, r: len(r.selected))}),
    ("docreason.model", "classify_answer_type", "heads.summary", {}),
    ("docreason.model", "classify_scale", "heads.summary", {}),
    ("docreason.model", "mask_and_update_tokens", "heads.mask", {}),
    ("docreason.model", "predict_span", "heads.span", {}),
    ("docreason.model", "tag_tokens", "heads.tag", {}),
    ("docreason.model", "decode_tree", "tree.decode", {}),
    ("docreason.tree", "TreeDecoder.step_log_probs", "tree.score", {}),
    ("docreason.tree", "_apply_token", "tree.expand", {}),
    ("docreason.training", "teacher_forced_log_probs", "tree.teacher", {}),
    ("docreason.training", "train", "training.train", {"request": lambda a: "step-0"}),
    ("docreason.training", "compute_loss", "training.loss", {}),
    ("docreason.autodiff", "Tensor.backward", "training.backward", {}),
    ("docreason.training", "Adam.step", "training.adam",
     {"before": ("training.adam_entries", _grad_entries), "step": True}),
    ("docreason.training", "evaluate", "training.eval", {}),
    ("docreason.training", "predict_instance", "training.predict_instance",
     {"request": lambda a: a[1].qid}),
    ("docreason.training", "score_prediction", "metrics.score", {}),
    ("docreason.nn", "save_checkpoint", "nn.checkpoint_save",
     {"after": ("nn.checkpoint_bytes", lambda a, r: os.path.getsize(a[0]))}),
    ("docreason.nn", "load_checkpoint", "nn.checkpoint_load", {}),
]
COUNTED_CLASS = ("docreason.autodiff", "Tensor")


def _resolve(module_name: str, attribute: str):
    """(owner object, attribute name) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.observed: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.tensors = 0
        self.request = None
        self.steps = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.counting = False

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, self.tensors])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[TENSORS] = self.tensors - span[TENSORS]
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        idx = self._open(f"phase.{name}")
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, hooks: dict):
        tracer = self
        request_of, kind_of = hooks.get("request"), hooks.get("kind")
        before, after, step = hooks.get("before"), hooks.get("after"), hooks.get("step")

        def wrapper(*args, **kwargs):
            outer = tracer.request
            if request_of is not None:
                tracer.request = request_of(args)
            idx = tracer._open(f"{name}.{kind_of(args)}" if kind_of else name)
            if before is not None:
                tracer.observed[before[0]].append((idx, before[1](args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if request_of is not None:
                    tracer.request = outer
            if after is not None:
                tracer.observed[after[0]].append((idx, after[1](args, result)))
            if step:
                tracer.steps += 1
                tracer.request = f"step-{tracer.steps}"
            return result

        return wrapper

    # -- install / remove ----------------------------------------------

    def install(self):
        for module_name, attribute, name, hooks in TARGETS:
            target = _resolve(module_name, attribute)
            if target is None:
                self.missing.append(f"{module_name}.{attribute}")
                print(f"warning: trace target {module_name}.{attribute} not found; "
                      f"its metrics are left out", file=sys.stderr)
                continue
            owner, attr = target
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hooks))
        target = _resolve(COUNTED_CLASS[0], f"{COUNTED_CLASS[1]}.__init__")
        if target is None:
            self.missing.append(".".join(COUNTED_CLASS) + ".__init__")
            return
        owner, attr = target
        init = owner.__init__
        tracer = self
        self.counting = True

        def counted_init(obj, *args, **kwargs):
            tracer.tensors += 1
            init(obj, *args, **kwargs)

        self._installed.append((owner, attr, init))
        owner.__init__ = counted_init

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: str):
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, (name, start, end, parent, request, tensors) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_us": round((start - t0) * 1e6, 1),
                                    "end_us": round((end - t0) * 1e6, 1), "parent": parent,
                                    "request": request, "tensors": tensors}) + "\n")


# -- per-layer metrics ----------------------------------------------------

# metric, span names, filter: "per" sums the spans per parent of that name,
# "under" keeps spans whose parent has that name, "self" uses self time.
TIMED = [
    ("document.ms", ("document.ingest", "document.transform", "document.tokenize"),
     {"per": "pipeline.build_instance"}),
    ("elements.ms", ("elements",), {}),
    ("graphs.ms", ("graphs",), {}),
    ("pipeline.supervision_ms", ("pipeline.supervision",), {}),
    ("nn.embed_ms", ("nn.embed",), {}),
    ("nn.pool_ms", ("nn.pool",), {}),
    ("nn.gcn.quantity_ms", ("nn.gcn.quantity",), {}),
    ("nn.gcn.date_ms", ("nn.gcn.date",), {}),
    ("nn.gcn.text_ms", ("nn.gcn.text",), {}),
    ("nn.gcn.semantic_ms", ("nn.gcn.semantic",), {}),
    ("model.encode_ms", ("model.encode",), {}),
    ("model.encode_self_ms", ("model.encode",), {"self": True}),
    ("heads.select_ms", ("heads.select",), {}),
    ("heads.summary_ms", ("heads.summary",), {}),
    ("heads.mask_ms", ("heads.mask",), {}),
    ("heads.span_ms", ("heads.span",), {}),
    ("heads.tag_ms", ("heads.tag",), {}),
    ("tree.decode_ms", ("tree.decode",), {}),
    ("tree.score_ms", ("tree.score",), {}),
    ("tree.expand_ms", ("tree.expand",), {}),
    ("tree.teacher_ms", ("tree.teacher",), {}),
    ("training.forward_ms", ("model.forward",), {"under": "training.train"}),
    ("training.loss_ms", ("training.loss",), {}),
    ("training.backward_ms", ("training.backward",), {}),
    ("training.adam_ms", ("training.adam",), {}),
    ("training.eval_ms", ("training.eval",), {}),
    ("nn.checkpoint_save_ms", ("nn.checkpoint_save",), {}),
    ("nn.checkpoint_load_ms", ("nn.checkpoint_load",), {}),
    ("metrics.score_ms", ("metrics.score",), {}),
]
COUNTS = {  # observed count -> phase it is read in
    "document.tokens": "ingest", "elements.nodes": "ingest", "graphs.edges": "ingest",
    "heads.selected_nodes": "predict", "training.adam_entries": "train",
    "nn.checkpoint_bytes": "checkpoint",
}


def _share_name(metric: str) -> str:
    base = metric[:-len("_ms")] if metric.endswith("_ms") else metric[:-len(".ms")]
    return f"{base}.share"


class SpanIndex:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.phase: list[str | None] = []
        self.child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if parent < 0:
                self.phase.append(span[NAME][len("phase."):] if span[NAME].startswith("phase.") else None)
            else:
                self.phase.append(self.phase[parent])
                self.child_time[parent] += span[END] - span[START]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span[NAME]].append(i)
        self.phase_s: dict[str, float] = defaultdict(float)
        for i, span in enumerate(spans):
            if span[PARENT] < 0:
                self.phase_s[self.phase[i]] += self.duration(i)

    def duration(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time[i]

    def parent_name(self, i: int) -> str | None:
        parent = self.spans[i][PARENT]
        return self.spans[parent][NAME] if parent >= 0 else None


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans: each `_ms` value is the median per
    call (in ms) with its call count and `.share`, the spans' self time as a
    share of the phases they ran in."""
    idx = SpanIndex(tracer.spans)
    out: dict[str, dict] = {}
    for metric, names, opts in TIMED:
        calls = [i for n in names for i in idx.by_name.get(n, ())]
        if "under" in opts:
            calls = [i for i in calls if idx.parent_name(i) == opts["under"]]
        if not calls:
            continue
        if "per" in opts:
            groups = defaultdict(float)
            for i in calls:
                groups[tracer.spans[i][PARENT]] += idx.duration(i)
            values = list(groups.values())
        else:
            values = [idx.self_time(i) if opts.get("self") else idx.duration(i) for i in calls]
        phases = {idx.phase[i] for i in calls}
        phase_s = sum(idx.phase_s.get(p, 0.0) for p in phases)
        out[metric] = {"value": 1000.0 * statistics.median(values), "unit": "ms",
                       "calls": len(values)}
        if not opts.get("self"):
            out[_share_name(metric)] = {
                "value": sum(idx.self_time(i) for i in calls) / phase_s if phase_s else 0.0,
                "unit": "fraction", "phases": sorted(p for p in phases if p)}
    for name, phase in COUNTS.items():
        values = [v for i, v in tracer.observed.get(name, ()) if idx.phase[i] == phase]
        if values:
            out[name] = {"value": float(statistics.median(values)), "unit": "count",
                         "calls": len(values)}
    _tensor_counts(tracer, idx, out)
    _decode_counts(idx, out)
    return out


def _tensor_counts(tracer: Tracer, idx: SpanIndex, out: dict):
    if not tracer.counting:
        return
    spans = tracer.spans
    steps = len(idx.by_name.get("training.adam", ()))
    trains = idx.by_name.get("training.train", ())
    if steps and trains:
        made = sum(spans[i][TENSORS] for i in trains)
        made -= sum(spans[i][TENSORS] for i in idx.by_name.get("training.eval", ()))
        out["autodiff.tensors_per_step"] = {"value": made / steps, "unit": "count", "calls": steps}
    questions = [i for i in idx.by_name.get("training.predict_instance", ())
                 if idx.phase[i] == "predict"]
    if questions:
        out["autodiff.tensors_per_question"] = {
            "value": sum(spans[i][TENSORS] for i in questions) / len(questions),
            "unit": "count", "calls": len(questions)}


def _decode_counts(idx: SpanIndex, out: dict):
    decodes = [i for i in idx.by_name.get("tree.decode", ()) if idx.phase[i] == "predict"]
    if not decodes:
        return
    score, expand = defaultdict(int), defaultdict(int)
    for name, counter in (("tree.score", score), ("tree.expand", expand)):
        for i in idx.by_name.get(name, ()):
            if idx.parent_name(i) == "tree.decode":
                counter[idx.spans[i][PARENT]] += 1
    s = [score[d] for d in decodes]
    e = [expand[d] for d in decodes]
    out["tree.score_calls"] = {"value": float(statistics.median(s)), "unit": "count", "calls": len(decodes)}
    out["tree.expand_calls"] = {"value": float(statistics.median(e)), "unit": "count", "calls": len(decodes)}
    out["tree.kept_ratio"] = {"value": sum(s) / sum(e) if sum(e) else 0.0, "unit": "fraction",
                              "calls": len(decodes)}


DERIVED = ("autodiff.tensors_per_step", "autodiff.tensors_per_question",
           "tree.score_calls", "tree.expand_calls", "tree.kept_ratio")
METRIC_NAMES = ([m for m, _, _ in TIMED]
                + [_share_name(m) for m, _, opts in TIMED if not opts.get("self")]
                + list(COUNTS) + list(DERIVED))


def omitted(tracer: Tracer, metrics: dict) -> dict:
    """Why each named per-layer metric is absent from `metrics`."""
    reason = ("no traced call on this workload" if not tracer.missing
              else f"no traced call on this workload, or its target is missing: {tracer.missing}")
    return {name: reason for name in METRIC_NAMES if name not in metrics}
