"""Run configuration: JSON config file, flag overrides, env seed override.

Precedence, lowest to highest: dataclass defaults, config file values,
the DOCREASON_SEED environment variable (seed only), explicit flags.
Every field of RunConfig is both a config key and a flag.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import get_args, get_type_hints

from .document import read_json
from .errors import SchemaError
from .model import ModelConfig, setting
from .tree import DEFAULT_CONSTANTS

SEED_ENV_VAR = "DOCREASON_SEED"


@dataclass
class RunConfig(ModelConfig):
    """The model settings (ModelConfig) plus the data, training and output
    settings of a run."""

    corpus: str | None = setting(None, "corpus JSON/JSONL path")
    dev_corpus: str | None = setting(None, "held-out corpus for checkpoint selection")
    checkpoint: str | None = setting(
        None, "checkpoint path to write (train) or read (predict/eval)")
    predictions: str | None = setting(None, "existing prediction dump to score (eval)")
    out_dir: str = setting(".", "output directory")
    max_len: int = setting(256, "token budget per instance")
    lr: float = setting(5e-4, "Adam learning rate")
    warmup: float = setting(0.06, "fraction of steps under linear warmup, in (0, 1]")
    epochs: int = setting(50, "training epochs")
    batch: int = setting(8, "instances per batch")
    grad_accum: int = setting(8, "batches per optimizer step")
    eval_every: int = setting(5, "epochs between dev evaluations")
    embeddings: str | None = setting(
        None, "token embeddings JSON file (null: the built-in toy embedder)")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, want = getattr(self, f.name), SETTING_TYPES[f.name]
            if not (type(value) is want or (want is float and type(value) is int)
                    or (value is None and f.default is None)):
                raise SchemaError(f"config: {f.name} must be {want.__name__}, "
                                  f"not {value!r}")
        for name in ("seed", "epochs", "max_tree_depth"):
            if getattr(self, name) < 0:
                raise SchemaError(f"config: {name} must be >= 0")
        for name in ("max_len", "max_nodes", "beam", "max_span_len", "dim",
                     "gcn_layers", "batch", "grad_accum", "eval_every"):
            if getattr(self, name) < 1:
                raise SchemaError(f"config: {name} must be >= 1")
        if not 1 <= self.constants_max <= len(DEFAULT_CONSTANTS):
            raise SchemaError(f"config: constants_max must be in 1..{len(DEFAULT_CONSTANTS)}")
        if not 0 < self.lr < math.inf:
            raise SchemaError("config: lr must be positive and finite")
        if not 0 < self.warmup <= 1:
            raise SchemaError("config: warmup must be in (0, 1]")
        for name in ("gcn_dropout", "tree_dropout", "ffn_dropout"):
            if not 0 <= getattr(self, name) < 1:
                raise SchemaError(f"config: {name} must be in [0, 1)")


# each setting's value type: its annotation without the `| None`
SETTING_TYPES: dict[str, type] = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(RunConfig).items()}


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    values: dict = {}
    if path is not None:
        loaded = read_json(path)
        if not isinstance(loaded, dict):
            raise SchemaError(f"{path}: config must be a JSON object")
        unknown = sorted(set(loaded) - set(SETTING_TYPES))
        if unknown:
            raise SchemaError(f"{path}: unknown config keys {unknown}")
        values.update(loaded)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise SchemaError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from None
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
