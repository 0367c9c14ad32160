"""The timed pass: ingest -> train -> checkpoint save/load -> predict.

Everything goes through docreason's public functions, looked up on their
modules at call time so that a traced pass sees the wrappers installed by
tracing.py. Every call that raises is counted against its phase and never
retried; the checks on the outputs are collected in `PassResult.checks`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from docreason import nn, pipeline, training, tree
from docreason.errors import DocReasonError
from docreason.model import Model

from workloads import BUNDLED_CORPUS, Workload

PHASES = ("ingest", "train", "checkpoint", "predict")
INGEST_ROUND_S = 0.5  # minimum time of corpus loads per round
CHECKPOINT_REPS = 2  # timed save/load round trips per round after training
BEFORE_TRAINING_SHARE = 0.15  # of the run, for round trips of the untrained model
CHUNK = 8  # records per generated corpus file
ARITHMETIC = "Arithmetic"


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    ops: dict[str, Ops] = field(default_factory=lambda: {p: Ops() for p in PHASES})
    checks: dict[str, bool] = field(default_factory=dict)
    phase_s: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    predicted_types: list[str] = field(default_factory=list)
    predict_pass: list[int] = field(default_factory=list)  # pass of each latency sample
    ingest_records: int = 0
    ingest_s: float = 0.0  # inside load_corpus calls
    train_examples: int = 0
    train_loss: float | None = None
    em: float | None = None
    digests: dict[str, str] = field(default_factory=dict)
    shape: dict[str, dict] = field(default_factory=dict)
    ingest_reps: list[int] = field(default_factory=list)  # corpus loads per round
    first_round_s: float = 0.0  # ingest, train and the first round, as a traced pass redoes
    before_training_s: float = 0.0
    phase: object = None  # trace-span factory, or None when untraced

    @property
    def measured_s(self) -> float:
        return sum(self.phase_s.values())

    @contextlib.contextmanager
    def timed(self, name: str):
        """Add the block's wall time to phase `name` (and trace it as one)."""
        span = self.phase(name) if self.phase else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            try:
                yield
            finally:
                self.phase_s[name] = self.phase_s.get(name, 0.0) + time.perf_counter() - start


def _attempt(result: PassResult, phase: str, fn, *args, **kwargs):
    """Run one operation of `phase`; a raise is counted as a failure."""
    ops = result.ops[phase]
    ops.attempted += 1
    try:
        return True, fn(*args, **kwargs)
    except Exception as exc:  # the benchmark must report failures, not stop on them
        ops.failed += 1
        ops.errors.append("".join(traceback.format_exception_only(type(exc), exc)).strip())
        return False, None


def params_digest(params: dict) -> str:
    h = hashlib.sha256()
    for name, tensor in params.items():
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def corpus_shape(instances) -> dict:
    types = Counter(inst.gold.answer_type.value for inst in instances)
    return {"records": len(instances),
            "mean_nodes": float(np.mean([len(i.nodes) for i in instances])),
            "mean_tokens": float(np.mean([len(i.seq) for i in instances])),
            "gold_types": {t: types[t] / len(instances) for t in sorted(types)}}


def _load(result: PassResult, files: list[list[str]], wl: Workload):
    """Load both corpora once, one `load_corpus` call per file; returns
    [training instances, held-out instances]."""
    corpora = []
    with result.timed("ingest"):
        for paths in files:
            instances = []
            for path in paths:
                start = time.perf_counter()
                ok, loaded = _attempt(result, "ingest", pipeline.load_corpus, path, wl.max_len)
                elapsed = time.perf_counter() - start
                if not ok:
                    return None
                result.ingest_records += len(loaded)
                result.ingest_s += elapsed
                instances.extend(loaded)
            corpora.append(instances)
    return corpora


def _ingest(result: PassResult, files: list[list[str]], wl: Workload, reps: int | None):
    """`reps` loads, or as many as fit in INGEST_ROUND_S (at least one);
    returns the first load's instances."""
    start = time.perf_counter()
    first = _load(result, files, wl)
    if first is None:
        return None
    done = 1
    while done < reps if reps is not None else time.perf_counter() - start < INGEST_ROUND_S:
        if _load(result, files, wl) is None:
            return None
        done += 1
    result.ingest_reps.append(done)
    return first


def _train(result: PassResult, model, instances, wl: Workload) -> bool:
    with result.timed("train"):
        ok, out = _attempt(result, "train", training.train, model, instances, **wl.train)
    if not ok:
        return False
    losses = [row["loss"] for row in out.log.epochs]
    result.checks["train_losses_finite"] = all(math.isfinite(x) for x in losses)
    result.train_loss = losses[-1]
    result.train_examples = len(out.log.epochs) * len(instances)
    params = model.params()
    for name, tensor in params.items():  # keep the best checkpoint, as `docreason train` does
        tensor.data = out.best_params[name]
    result.digests["params_sha256"] = params_digest(params)
    return True


def _save_load(path: str, params: dict, meta: dict, fresh):
    nn.save_checkpoint(path, params, meta)
    arrays, _meta = nn.load_checkpoint(path)
    fresh.load_params(arrays)
    return fresh


def _checkpoint(result: PassResult, model, wl: Workload, path: str, expected: str,
                reps: int = CHECKPOINT_REPS):
    """Save `model` and reload it into a fresh one, as `docreason train` and
    `docreason predict` do, `reps` times; every reload must reproduce the
    digest `expected`. Each save goes to a path that does not
    exist yet, as a new training output directory does; the earlier file is
    removed untimed."""
    loaded = None
    for _ in range(reps):
        fresh = Model(wl.model)
        if os.path.exists(path):
            os.remove(path)
        with result.timed("checkpoint"):
            start = time.perf_counter()
            ok, loaded = _attempt(result, "checkpoint", _save_load, path, model.params(),
                                  model.checkpoint_meta(), fresh)
            elapsed = time.perf_counter() - start
        if not ok:
            return None
        result.samples["checkpoint_s"].append(elapsed)
        exact = params_digest(loaded.params()) == expected
        result.checks["checkpoint_round_trip_exact"] = (
            result.checks.get("checkpoint_round_trip_exact", True) and exact)
    return loaded


def _before_training(result: PassResult, files, wl: Workload, path: str, until: float) -> bool:
    """Checkpoint round trips of an untrained model, each followed by one
    corpus load, until `until` (at least once). Its parameters have the
    shapes and the full-precision values of trained ones, so a round trip
    costs the same; these samples give checkpoint and ingest a window of
    timings before the long training call as well as after it."""
    model = Model(wl.model)
    initial = params_digest(model.params())
    measured = result.measured_s
    while True:
        if _checkpoint(result, model, wl, path, initial, reps=1) is None:
            return False
        if _load(result, files, wl) is None:
            return False
        if time.perf_counter() >= until:
            break
    result.before_training_s = result.measured_s - measured
    return True


def _predict_row(model, inst) -> tuple[dict, float]:
    """One question through `training.predict_corpus`: a single
    `predict_instance` call plus its dump row, which must be strict JSON."""
    start = time.perf_counter()
    (row,) = training.predict_corpus(model, [inst])
    elapsed = time.perf_counter() - start
    json.dumps(row, allow_nan=False)
    return row, elapsed


def _check_arithmetic(rows: list[dict], instances) -> bool:
    """Every Arithmetic prediction re-executes from its expression to the
    dumped value."""
    by_qid = {inst.qid: inst for inst in instances}
    for row in rows:
        if row.get("expression") is None:
            continue
        try:
            value = tree.execute_tree(tree.parse_tree(row["expression"]), by_qid[row["qid"]].nodes)
        except DocReasonError:
            return False
        if value != row["value"]:
            return False
    return True


def _predict(result: PassResult, model, instances) -> list[dict]:
    """One pass over the held-out corpus; returns its dump rows."""
    rows = []
    passes = result.predict_pass[-1] + 1 if result.predict_pass else 0
    with result.timed("predict"):
        for inst in instances:
            ok, out = _attempt(result, "predict", _predict_row, model, inst)
            if ok:
                row, elapsed = out
                rows.append(row)
                result.samples["predict.ms"].append(1000.0 * elapsed)
                result.predicted_types.append(row["answer_type"])
                result.predict_pass.append(passes)
    return rows


def _finish_dump(result: PassResult, dump: list[dict], instances):
    text = "".join(json.dumps(row, sort_keys=True, allow_nan=False) + "\n" for row in dump)
    result.digests["predictions_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    result.checks["arithmetic_reexecutes"] = _check_arithmetic(dump, instances)
    report, _rows = training.score_dump(instances, dump)
    result.em = report.em


def run_pass(wl: Workload, files: list[list[str]], workdir: str, deadline: float,
             plan: list[int] | None = None, phase=None) -> PassResult:
    """Ingest; checkpoint round trips of an untrained model, with corpus
    loads, for the first BEFORE_TRAINING_SHARE of the run; one training
    call; then rounds of (checkpoint save/load, predict pass, ingest) until
    `deadline` (a perf_counter value). `plan` instead redoes an earlier
    pass's first ingest, the training call and one round per further entry,
    each entry the number of corpus loads in that round; it skips the
    untrained round trips.

    A shared machine switches between a fast and a slow state every few
    seconds to a minute. Taking every phase's samples in windows apart from
    each other, instead of in one burst, keeps one slow spell from setting a
    whole metric. `phase(name)` opens a trace span around each phase."""
    result = PassResult(phase=phase)
    start = time.perf_counter()
    loaded = _ingest(result, files, wl, plan[0] if plan else None)
    if loaded is None:
        return result
    train_set, heldout = loaded
    result.shape = {"train": corpus_shape(train_set), "heldout": corpus_shape(heldout)}
    path = os.path.join(workdir, "checkpoint.json")
    if plan is None:
        until = start + BEFORE_TRAINING_SHARE * (deadline - start)
        if not _before_training(result, files, wl, path, until):
            return result
    model = Model(wl.model)
    if not _train(result, model, train_set, wl):
        return result
    dump = None
    while True:
        loaded_model = _checkpoint(result, model, wl, path, result.digests["params_sha256"])
        if loaded_model is None:
            break
        rows = _predict(result, loaded_model, heldout)
        if dump is None:
            dump = rows
            result.first_round_s = result.measured_s - result.before_training_s
        else:
            result.checks["predictions_repeat_exactly"] = (
                result.checks.get("predictions_repeat_exactly", True) and rows == dump)
        rounds = len(result.ingest_reps)
        finished = rounds == len(plan) if plan else time.perf_counter() >= deadline
        if finished:
            break
        if _ingest(result, files, wl, plan[rounds] if plan else None) is None:
            break
    if dump is not None:
        with result.timed("score"):
            _finish_dump(result, dump, heldout)
    return result


def input_files(root: str, workdir: str, train_records, heldout_records) -> list[list[str]]:
    """Write the generated corpora in files of CHUNK records; returns the
    files of [training corpus, held-out corpus]. None stands for the bundled
    corpus."""
    files = []
    for name, records in (("train", train_records), ("heldout", heldout_records)):
        if records is None:
            files.append([os.path.join(root, BUNDLED_CORPUS)])
            continue
        paths = []
        for k in range(0, len(records), CHUNK):
            paths.append(os.path.join(workdir, f"{name}-{k // CHUNK:03d}.json"))
            with open(paths[-1], "w", encoding="utf-8") as f:
                json.dump(records[k:k + CHUNK], f)
        files.append(paths)
    return files


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def pass_percentile(result: PassResult, q: float, keep=lambda answer_type: True):
    """(percentile q of the latencies of each predict pass, averaged over the
    passes, number of latencies), over questions whose predicted type passes
    `keep`; None when there are none. Each pass takes a few seconds, so it
    mostly sees one state of a shared machine; a percentile of all passes
    pooled would jump with the state most of them saw, while the mean over
    passes moves with the share of passes in each."""
    groups = defaultdict(list)
    for ms, answer_type, k in zip(result.samples["predict.ms"], result.predicted_types,
                                  result.predict_pass):
        if keep(answer_type):
            groups[k].append(ms)
    if not groups:
        return None
    return (statistics.fmean(percentile(v, q) for v in groups.values()),
            sum(len(v) for v in groups.values()))


def trimmed_mean(values: list[float]) -> float:
    """Mean without the fastest and the slowest value (when there are five
    or more). Over a handful of second-long samples a median jumps between
    the states of a shared machine, while the mean moves with the share of
    time spent in each; dropping the extremes keeps a single stall out."""
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def end_to_end(result: PassResult, setup_s: list[float]) -> tuple[dict, dict]:
    """(metrics by name, reasons for the ones left out). Each metric carries
    its unit and sample count."""
    metrics, omitted = {}, {}

    def put(name, value, unit, samples):
        metrics[name] = {"value": value, "unit": unit, "samples": samples}

    put("setup_s", statistics.median(setup_s), "s", len(setup_s))
    s = result.samples
    if result.ingest_s:
        put("ingest.records_per_s", result.ingest_records / result.ingest_s, "1/s",
            result.ingest_records)
    if result.train_examples:
        put("train.examples_per_s", result.train_examples / result.phase_s["train"], "1/s",
            result.train_examples)
        put("train.loss", result.train_loss, "nats", 1)
    if s.get("checkpoint_s"):
        put("checkpoint_s", trimmed_mean(s["checkpoint_s"]), "s", len(s["checkpoint_s"]))
    lat = s.get("predict.ms", [])
    if lat:
        put("predict.questions_per_s", len(lat) / result.phase_s["predict"], "1/s", len(lat))
        for q in (50, 90):
            value, n = pass_percentile(result, q)
            put(f"predict.ms.p{q}", value, "ms", n)
        for name, keep, what in (
                ("predict.arith_ms.p50", lambda t: t == ARITHMETIC, "Arithmetic"),
                ("predict.text_ms.p50", lambda t: t != ARITHMETIC, "Span/Spans/Counting")):
            found = pass_percentile(result, 50, keep)
            if found:
                put(name, found[0], "ms", found[1])
            else:
                omitted[name] = f"no question was predicted {what} on this workload"
        put("predict.em", result.em, "fraction", result.shape["heldout"]["records"])
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    attempted = sum(o.attempted for o in result.ops.values())
    failed = sum(o.failed for o in result.ops.values())
    put("failed_ops_frac", failed / max(1, attempted), "fraction", attempted)
    for name in ("ingest.records_per_s", "train.examples_per_s", "checkpoint_s",
                 "predict.questions_per_s"):
        if name not in metrics:
            omitted[name] = "its phase did not complete; see ops"
    return metrics, omitted
