"""Command-line entrypoint: validate, graphs, train, predict, eval.

Exit codes: 0 success, 2 invalid corpus record or config, 3 training
divergence, 4 checkpoint/corpus mismatch. All output files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from collections import Counter

import numpy as np

from .config import SETTING_TYPES, RunConfig, load_config
from .document import write_atomic
from .elements import NodeKind
from .errors import (CheckpointMismatch, DocReasonError, NonFiniteLoss, SchemaError,
                     ValidationError)
from .graphs import GraphKind
from .heads import AnswerType
from .model import Model
from .nn import FileEmbedder, load_checkpoint, save_checkpoint
from .pipeline import check_corpus, load_corpus, load_records
from .training import predict_corpus, score_dump, train

EXIT_INVALID = 2
EXIT_DIVERGED = 3
EXIT_MISMATCH = 4

# the characters str.splitlines ends a line at, each mapped to its escape
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1]
                              for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})


def _error_line(message) -> str:
    """`error: {message}` as one line of stderr: a line break in the message,
    e.g. from a doc_id, is written as its escape."""
    return f"error: {str(message).translate(_LINE_BREAKS)}\n"


class _OneLineFormatter(logging.Formatter):
    """A log record as one line of stderr, its line breaks escaped as in
    _error_line (a warning names a doc_id)."""

    def format(self, record: logging.LogRecord) -> str:
        return super().format(record).translate(_LINE_BREAKS)


def _build_model(config: RunConfig) -> Model:
    embedder = None if config.embeddings is None else FileEmbedder(config.embeddings, config.dim)
    return Model(config, embedder=embedder)


def _load_into_model(config: RunConfig) -> Model:
    """Restore a model from a checkpoint, adopting the architecture (dim,
    gcn layers) its arrays record so callers don't repeat training flags."""
    arrays, _meta = load_checkpoint(config.checkpoint)
    dim, gcn_layers = Model.architecture(arrays, config.checkpoint)
    model = _build_model(dataclasses.replace(config, dim=dim, gcn_layers=gcn_layers))
    model.load_params(arrays, config.checkpoint)
    return model


def cmd_validate(config: RunConfig) -> int:
    instances, bad = [], 0
    for inst in check_corpus(config.corpus, config.max_len, constants_max=config.constants_max):
        if isinstance(inst, DocReasonError):
            sys.stderr.write(_error_line(inst))
            bad += 1
        else:
            instances.append(inst)
    if bad:
        return EXIT_INVALID
    type_counts = Counter(i.gold.answer_type.value for i in instances if i.gold)
    kind_counts = Counter(node.kind.value for inst in instances for node in inst.nodes)
    print(f"records: {len(instances)}")
    for atype in AnswerType:
        print(f"  {atype.value}: {type_counts.get(atype.value, 0)}")
    print("nodes: " + ", ".join(f"{k.value}={kind_counts[k.value]}" for k in NodeKind))
    return 0


def cmd_graphs(config: RunConfig) -> int:
    os.makedirs(config.out_dir, exist_ok=True)
    instances = load_corpus(config.corpus, config.max_len, with_gold=False)
    for inst in instances:  # doc_ids become file names: check them all before writing
        if any(c in inst.qid for c in ("/", "\\", "\0")):
            raise ValidationError(f"doc_id {inst.qid!r} holds a path separator or NUL; "
                                  "graphs cannot name a file after it")
    for inst in instances:
        for kind in GraphKind:
            payload = {"qid": inst.qid, **inst.graphs[kind].to_dict()}
            path = os.path.join(config.out_dir, f"{inst.qid}.{kind.name.lower()}.json")
            write_atomic(path, (json.dumps(payload, sort_keys=True, indent=2,
                                           allow_nan=False) + "\n").encode())
    print(f"wrote {4 * len(instances)} graph files to {config.out_dir}")
    return 0


def cmd_train(config: RunConfig) -> int:
    os.makedirs(config.out_dir, exist_ok=True)
    instances = load_corpus(config.corpus, config.max_len, constants_max=config.constants_max)
    dev = load_corpus(config.dev_corpus, config.max_len) if config.dev_corpus else None
    model = _build_model(config)
    result = train(model, instances, epochs=config.epochs, batch=config.batch,
                   grad_accum=config.grad_accum, lr=config.lr, warmup_frac=config.warmup,
                   seed=config.seed, dev=dev, eval_every=config.eval_every)
    params = model.params()
    for name, tensor in params.items():
        tensor.data = result.best_params[name]
    ckpt_path = config.checkpoint or os.path.join(config.out_dir, "checkpoint.ckpt")
    save_checkpoint(ckpt_path, params, model.checkpoint_meta())
    write_atomic(os.path.join(config.out_dir, "train_log.csv"), result.log.to_csv().encode())
    print(f"trained {config.epochs} epochs, best dev EM {result.best_em:.4f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_predict(config: RunConfig) -> int:
    os.makedirs(config.out_dir, exist_ok=True)
    instances = load_corpus(config.corpus, config.max_len)
    model = _load_into_model(config)
    dump = predict_corpus(model, instances)
    out_path = os.path.join(config.out_dir, "predictions.jsonl")
    write_atomic(out_path, "".join(json.dumps(row, sort_keys=True, allow_nan=False) + "\n"
                                   for row in dump).encode())
    print(f"wrote {len(dump)} predictions to {out_path}")
    return 0


def cmd_eval(config: RunConfig) -> int:
    instances = load_corpus(config.corpus, config.max_len)
    if config.predictions:
        dump = load_records(config.predictions)
    elif config.checkpoint:
        dump = predict_corpus(_load_into_model(config), instances)
    else:
        raise SchemaError("eval needs --checkpoint or --predictions")
    report, _rows = score_dump(instances, dump)
    os.makedirs(config.out_dir, exist_ok=True)
    write_atomic(os.path.join(config.out_dir, "report.json"), report.to_json().encode())
    write_atomic(os.path.join(config.out_dir, "report.txt"), report.to_text().encode())
    print(report.to_text(), end="")
    return 0


_COMMANDS = {"validate": cmd_validate, "graphs": cmd_graphs, "train": cmd_train,
             "predict": cmd_predict, "eval": cmd_eval}


class _Parser(argparse.ArgumentParser):
    """An invalid command line exits 2 with one `error: ...` line, as any
    other invalid input does; subcommand parsers inherit this class."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, _error_line(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="docreason",
        description="Discrete reasoning over table-text documents: "
                    "graph-based evidence selection plus expression-tree answers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("-c", "--config", help="JSON config file")
        for f in dataclasses.fields(RunConfig):
            p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                           type=SETTING_TYPES[f.name], default=None, help=f.metadata["help"])
    return parser


def main(argv: list[str] | None = None) -> int:
    # warnings go to this call's sys.stderr, through a handler for this call only
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_OneLineFormatter("%(levelname)s %(name)s: %(message)s"))
    package_logger = logging.getLogger("docreason")
    package_logger.addHandler(handler)
    # and to no other handler: a root handler of the calling program would repeat them
    propagate, package_logger.propagate = package_logger.propagate, False
    try:
        args = build_parser().parse_args(argv)
        overrides = {name: getattr(args, name) for name in SETTING_TYPES}
        config = load_config(args.config, overrides)
        if not config.corpus:
            raise SchemaError(f"{args.command} needs --corpus")
        # NonFiniteLoss and NonFiniteResult report non-finite values; numpy's
        # warnings about them would only add lines to stderr
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](config)
    except (SchemaError, ValidationError) as exc:
        sys.stderr.write(_error_line(exc))
        return EXIT_INVALID
    except NonFiniteLoss as exc:
        sys.stderr.write(_error_line(f"training diverged: {exc}"))
        return EXIT_DIVERGED
    except CheckpointMismatch as exc:
        sys.stderr.write(_error_line(f"checkpoint mismatch: {exc}"))
        return EXIT_MISMATCH
    except DocReasonError as exc:
        sys.stderr.write(_error_line(exc))
        return 1
    finally:
        package_logger.removeHandler(handler)
        package_logger.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
