"""Outside-in benchmark of docreason: ingest -> train -> checkpoint -> predict.

    python3 bench/run.py --workload synth-quickstart --seed 1 --seconds 50 --trace 0

One closed-loop process with one caller and BLAS pinned to one thread. It
builds the inputs from --seed, times each phase through docreason's public
functions, checks the outputs, prints a full report and, as the last line of
stdout, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics named in BENCHMARK.json, or with
--trace 1 the per-layer ones. A traced run does the untraced pass, then
redoes its first round under the tracer and must reproduce its digests.
Reports and span files go to .bench_run/ at the root of the checkout.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402  (START must be taken before any import)
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REQUIRED = ("src/docreason/__init__.py", "data/synthetic-50.json", "BENCHMARK.json")
SETUP_REPS = 4  # half before the timed pass and half after it, a minute apart


def _blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS reports, when its library can be found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_path):
        return None
    with open(head_path, encoding="utf-8") as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment(np, seed: int) -> dict:
    blas = {}
    if hasattr(np, "show_config"):
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            pass
    import docreason
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": " ".join(str(blas[k]) for k in ("name", "version") if k in blas) or None,
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "docreason": os.path.relpath(os.path.dirname(docreason.__file__), ROOT),
        "seed": seed,
    }


def contract_metrics(metrics: dict, names: list[dict]) -> dict:
    return {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in names if m["name"] in metrics}


def main(argv: list[str] | None = None, workloads: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a docreason checkout ({', '.join(missing)} missing under {ROOT})",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy as np
    import docreason  # noqa: F401  (imports are part of set-up)
    import phases
    import tracing
    from docreason.model import Model
    from workloads import WORKLOADS

    import_s = time.perf_counter() - START
    workloads = workloads or WORKLOADS
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)

    out_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir)
    try:
        def setup() -> list[list[str]]:
            t = time.perf_counter()
            train_records, heldout_records = wl.make_inputs(args.seed)
            files = phases.input_files(ROOT, workdir, train_records, heldout_records)
            Model(wl.model)
            setup_s.append(import_s + time.perf_counter() - t)
            return files

        setup_s = []
        for _ in range(SETUP_REPS // 2):
            files = setup()
        untraced = phases.run_pass(wl, files, workdir, time.perf_counter() + args.seconds)
        while len(setup_s) < SETUP_REPS:  # rewrites the same files with the same records
            setup()
        metrics, omitted = phases.end_to_end(untraced, setup_s)
        passes = [untraced]
        why = {w["name"]: w["why"] for w in contract["workloads"]}.get(wl.name)
        report = {"workload": wl.name, "why": why, "environment": environment(np, args.seed),
                  "input_shape": untraced.shape, "end_to_end": metrics, "omitted": omitted}

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = phases.run_pass(wl, files, workdir, 0.0, plan=untraced.ingest_reps[:1],
                                         phase=tracer.phase)
            finally:
                tracer.uninstall()
            passes.append(traced)
            traced.checks["traced_digests_match"] = traced.digests == untraced.digests
            layers = tracing.layer_metrics(tracer)
            spans_path = os.path.join(out_dir, f"{wl.name}-seed{args.seed}.spans.jsonl.gz")
            tracer.write(spans_path)
            report["per_layer"] = layers
            report["per_layer_omitted"] = tracing.omitted(tracer, layers)
            report["trace"] = {
                "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT),
                "missing_targets": tracer.missing,
                "work": "ingest, train, and the first round of checkpoint and predict",
                "untraced_s": untraced.first_round_s, "traced_s": traced.measured_s,
                "overhead_s": traced.measured_s - untraced.first_round_s}
            final = contract_metrics(layers, contract["per_layer"])
            wanted = contract["per_layer"]
        else:
            final = contract_metrics(metrics, contract["end_to_end"])
            wanted = contract["end_to_end"]

        checks = {}
        for label, p in zip(("untraced", "traced"), passes):
            checks.update({f"{label}.{k}": v for k, v in p.checks.items()})
        ops = {f"{label}.{phase}": vars(o) for label, p in zip(("untraced", "traced"), passes)
               for phase, o in p.ops.items()}
        attempted = sum(o["attempted"] for o in ops.values())
        failed = sum(o["failed"] for o in ops.values())
        complete = len(final) == len(wanted)
        correct = bool(checks) and all(checks.values())
        report.update({"checks": checks, "ops": ops,
                       "digests": {label: p.digests for label, p in zip(("untraced", "traced"), passes)},
                       "rounds": len(untraced.ingest_reps),
                       "measured_s": untraced.measured_s, "seconds": args.seconds})
        with open(os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(json.dumps(report, indent=2, sort_keys=True))
        if not complete:
            absent = sorted(m["name"] for m in wanted if m["name"] not in final)
            print(f"error: metrics not measured: {absent}", file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                          "metrics": final}))
        return 0 if correct and complete else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
