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

SEED_ENV_VAR = "DOCREASON_SEED"


@dataclass
class RunConfig:
    corpus: str | None = None
    dev_corpus: str | None = None
    checkpoint: str | None = None
    predictions: str | None = None
    out_dir: str = "."
    seed: int = 0
    max_len: int = 256
    max_nodes: int = 12
    beam: int = 5
    max_span_len: int = 64
    max_tree_depth: int = 4
    dim: int = 32
    gcn_layers: int = 2
    gcn_dropout: float = 0.6
    tree_dropout: float = 0.5
    ffn_dropout: float = 0.1
    lr: float = 5e-4
    warmup: float = 0.06
    epochs: int = 50
    batch: int = 8
    grad_accum: int = 8
    eval_every: int = 5
    embedder: str = "toy"
    embeddings_path: str | None = None
    constants_max: int = 100

    def __post_init__(self):
        for name in ("seed",):
            if getattr(self, name) < 0:
                raise SchemaError(f"config: {name} must be >= 0")
        for name in ("max_len", "max_nodes", "beam", "max_span_len", "dim",
                     "gcn_layers", "batch", "grad_accum", "eval_every",
                     "constants_max"):
            if getattr(self, name) < 1:
                raise SchemaError(f"config: {name} must be >= 1")
        for name in ("lr", "warmup"):
            if not 0 < getattr(self, name) < math.inf:
                raise SchemaError(f"config: {name} must be positive and finite")
        if self.epochs < 0 or self.max_tree_depth < 0:
            raise SchemaError("config: epochs and max_tree_depth must be >= 0")
        if self.embedder not in ("toy", "external-file"):
            raise SchemaError(f"config: unknown embedder {self.embedder!r}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(dim=self.dim, gcn_layers=self.gcn_layers,
                           gcn_dropout=self.gcn_dropout, tree_dropout=self.tree_dropout,
                           ffn_dropout=self.ffn_dropout, max_nodes=self.max_nodes,
                           max_span_len=self.max_span_len, max_tree_depth=self.max_tree_depth,
                           beam=self.beam, constants_max=self.constants_max, seed=self.seed)


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
