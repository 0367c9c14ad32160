"""Full model: embedder, four graph encoders, five heads, tree decoder.

Forward flow per instance: token embeddings are mean-pooled into node
rows; the text/quantity/date graphs each run their own GCN over their run
of rows, in node order, and the outputs (the three runs partition the
inventory) are concatenated to initialize the semantic-dependency
graph, whose GCN yields the final node representations used by every head.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, concat
from .errors import CheckpointMismatch
from .graphs import GraphKind
from .heads import (ANSWER_TYPES, AnswerType, HeadOutput, NodeSelection,
                    UpdatedTokens, classify_answer_type, classify_nodes,
                    classify_scale, inject_gold_nodes, mask_and_update_tokens,
                    predict_span, tag_tokens)
from .nn import FFN2, GCN, ToyEmbedder, init_node_representations
from .tree import TreeDecoder, TreeNode, decode_tree
from .vocab import VOCAB_SIZE

# the weight of semantic GCN layer {i}: its shape and count record the architecture
_LAYER_W = "gcn.semantic.layer{}.w"


def setting(default, help_text: str):
    """A config field: a setting with its default and the help text of its
    flag. The field's annotation is the type its values must have."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class ModelConfig:
    dim: int = setting(32, "embedding width")
    gcn_layers: int = setting(2, "layers per graph encoder")
    gcn_dropout: float = setting(0.6, "graph encoder dropout, in [0, 1)")
    tree_dropout: float = setting(
        0.5, "tree decoder dropout, in [0, 1); no effect yet: training runs the decoder "
             "without dropout")
    ffn_dropout: float = setting(0.1, "head dropout, in [0, 1)")
    max_nodes: int = setting(12, "node selection cap")
    max_span_len: int = setting(64, "span decode length cap")
    max_tree_depth: int = setting(4, "operator nesting cap")
    beam: int = setting(5, "tree decoder beam width")
    constants_max: int = setting(100, "the decoder's constants are 1..constants_max (<= 100)")
    seed: int = setting(0, "RNG seed")


@dataclass
class ModelOutput:
    sd_reprs: Tensor
    h_sd: Tensor
    sel: NodeSelection
    type_out: HeadOutput
    scale_out: HeadOutput
    updated: UpdatedTokens | None = None
    start_lp: Tensor | None = None
    end_lp: Tensor | None = None
    span: tuple[int, int] | None = None
    token_lp: Tensor | None = None
    labels: np.ndarray | None = None  # heads.BIO_B/BIO_I/BIO_O per token
    tree: TreeNode | None = None


class Model:
    def __init__(self, config: ModelConfig, embedder=None):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.dim
        self.embedder = embedder or ToyEmbedder(rng, d, config.seed)
        self.gcns = {
            kind: GCN(rng, d, f"gcn.{kind.name.lower()}",
                      config.gcn_layers, config.gcn_dropout)
            for kind in GraphKind
        }
        fd = config.ffn_dropout
        self.node_ffn = FFN2(rng, d, 2, "head.node", drop=fd)
        self.type_ffn = FFN2(rng, d, 4, "head.type", drop=fd)
        self.scale_ffn = FFN2(rng, d, 5, "head.scale", drop=fd)
        self.start_ffn = FFN2(rng, 2 * d, 1, "head.start", drop=fd)
        self.end_ffn = FFN2(rng, 2 * d, 1, "head.end", drop=fd)
        self.token_ffn = FFN2(rng, 2 * d, 3, "head.token", drop=fd)
        self.decoder = TreeDecoder(rng, d, drop=config.tree_dropout)
        self.constants = list(range(1, config.constants_max + 1))

    def params(self) -> dict[str, Tensor]:
        parts = (self.embedder, *(self.gcns[kind] for kind in GraphKind), self.node_ffn,
                 self.type_ffn, self.scale_ffn, self.start_ffn, self.end_ffn, self.token_ffn,
                 self.decoder)
        return {name: t for part in parts for name, t in part.params().items()}

    def load_params(self, arrays: dict[str, np.ndarray], source: str = "checkpoint"):
        """Copy `arrays` into the parameters; a missing, extra or misshapen
        array raises CheckpointMismatch naming `source` (e.g. the path)."""
        params = self.params()
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        if missing or extra:  # reprlib names the first few, each cut short
            raise CheckpointMismatch(
                f"{source}: parameter names differ: {len(missing)} missing "
                f"{reprlib.repr(missing)}, {len(extra)} extra {reprlib.repr(extra)}")
        for name, tensor in params.items():
            if arrays[name].shape != tensor.data.shape:
                raise CheckpointMismatch(f"{source}: {name} has shape {arrays[name].shape}, "
                                         f"the model needs {tensor.data.shape}")
            tensor.data = arrays[name].astype(np.float64)

    @staticmethod
    def architecture(arrays: dict[str, np.ndarray], source: str = "checkpoint") -> tuple[int, int]:
        """(dim, gcn_layers) as the arrays record them: dim is the side of the
        square gcn.semantic.layer0.w, and gcn_layers counts the consecutive
        (dim, dim) semantic layer weights, so every semantic layer a model
        built to them has its weight in `arrays`. Anything else raises CheckpointMismatch
        naming `source`, before a model is built."""
        shape = getattr(arrays.get(_LAYER_W.format(0)), "shape", None)
        if shape is None or len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise CheckpointMismatch(f"{source}: {_LAYER_W.format(0)} has shape {shape}, "
                                     "not a non-empty square")
        layers = 1
        while getattr(arrays.get(_LAYER_W.format(layers)), "shape", None) == shape:
            layers += 1
        return shape[0], layers

    def checkpoint_meta(self) -> dict:
        return {"dim": self.config.dim, "vocab_size": VOCAB_SIZE,
                "gcn_layers": self.config.gcn_layers,
                "embedder": getattr(self.embedder, "name", "toy")}

    def encode(self, instance, rng=None) -> tuple[Tensor, Tensor, Tensor]:
        """Token embeddings through the graph stack; returns
        (token_embs, sd_reprs, h_sd). Dropout draws from `rng` when given."""
        token_embs = self.embedder.embed(instance.seq, instance.qid)
        init = init_node_representations(instance.nodes, token_embs)
        # Each GCN takes its graph's run of rows, in node order. An empty graph
        # is skipped: its GCN's zero gradient would give Adam a momentum step.
        outs = []
        for kind in (GraphKind.TEXT, GraphKind.QUANTITY, GraphKind.DATE):
            graph = instance.graphs[kind]
            if graph.num_nodes:
                rows = init.slice_rows(graph.run.start, graph.run.stop)
                outs.append(self.gcns[kind](graph, rows, rng))
        sd_init = concat(outs, axis=0)
        sd_reprs = self.gcns[GraphKind.SEMANTIC](instance.graphs[GraphKind.SEMANTIC],
                                                 sd_init, rng)
        return token_embs, sd_reprs, sd_reprs.mean(axis=0)

    def forward(self, instance, rng=None, train=False,
                gold_nodes: set[int] | None = None,
                heads: set[AnswerType] | None = None) -> ModelOutput:
        """Run selection + summary heads, then whichever task heads are
        requested (default: the head for the predicted answer type). During
        training pass gold_nodes so supervision targets stay selected."""
        rng = rng if train else None  # dropout draws in training only
        token_embs, sd_reprs, h_sd = self.encode(instance, rng)
        sel = classify_nodes(sd_reprs, self.node_ffn, self.config.max_nodes, rng)
        if gold_nodes is not None:
            sel = inject_gold_nodes(sel, gold_nodes, self.config.max_nodes, train)
        type_out = classify_answer_type(h_sd, self.type_ffn, rng)
        scale_out = classify_scale(h_sd, self.scale_ffn, rng)
        out = ModelOutput(sd_reprs=sd_reprs, h_sd=h_sd, sel=sel,
                          type_out=type_out, scale_out=scale_out)
        if heads is None:
            heads = {ANSWER_TYPES[type_out.argmax]}
        if heads & {AnswerType.SPAN, AnswerType.SPANS, AnswerType.COUNTING}:
            out.updated = mask_and_update_tokens(token_embs, sel, instance.nodes,
                                                 sd_reprs, instance.seq)
        if AnswerType.SPAN in heads and out.updated.valid_mask.any():
            out.start_lp, out.end_lp, out.span = predict_span(
                out.updated, self.start_ffn, self.end_ffn,
                self.config.max_span_len, rng)
        if heads & {AnswerType.SPANS, AnswerType.COUNTING}:
            out.token_lp, out.labels = tag_tokens(out.updated, self.token_ffn, rng)
        if AnswerType.ARITHMETIC in heads and not train:
            out.tree, _ = decode_tree(
                h_sd, sd_reprs, sel, instance.nodes, self.decoder,
                self.config.beam, self.config.max_tree_depth, self.constants)
        return out
