"""Run configuration: JSON config file, flag overrides, env seed override.

Precedence, lowest to highest: dataclass defaults, config file values,
the DOCREASON_SEED environment variable (seed only), explicit flags.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

from .errors import SchemaError
from .model import ModelConfig
from .tree import DEFAULT_CONSTANTS

SEED_ENV_VAR = "DOCREASON_SEED"


@dataclass
class RunConfig(ModelConfig):
    """The model settings (ModelConfig) plus the data, training and output
    settings of a run."""

    corpus: str | None = None
    dev_corpus: str | None = None
    checkpoint: str | None = None
    predictions: str | None = None
    out_dir: str = "."
    max_len: int = 256
    lr: float = 5e-4
    warmup: float = 0.06
    epochs: int = 50
    batch: int = 8
    grad_accum: int = 8
    eval_every: int = 5
    embedder: str = "toy"
    embeddings_path: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise SchemaError("config: seed must be >= 0")
        for name in ("max_len", "max_nodes", "beam", "max_span_len", "dim",
                     "gcn_layers", "batch", "grad_accum", "eval_every"):
            if getattr(self, name) < 1:
                raise SchemaError(f"config: {name} must be >= 1")
        if not 1 <= self.constants_max <= len(DEFAULT_CONSTANTS):
            raise SchemaError(f"config: constants_max must be in 1..{len(DEFAULT_CONSTANTS)}")
        for name in ("lr", "warmup"):
            if not 0 < getattr(self, name) < math.inf:
                raise SchemaError(f"config: {name} must be positive and finite")
        if self.epochs < 0 or self.max_tree_depth < 0:
            raise SchemaError("config: epochs and max_tree_depth must be >= 0")
        if self.embedder not in ("toy", "external-file"):
            raise SchemaError(f"config: unknown embedder {self.embedder!r}")


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            try:
                loaded = json.load(f)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise SchemaError(f"{path}: config must be a JSON object")
        unknown = sorted(set(loaded) - _FIELD_NAMES)
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
