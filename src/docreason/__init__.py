"""Trainable discrete-reasoning engine for table-text documents.

Pipeline: ingest block-structured documents, mine Quantity/Date elements,
build comparison/relation/dependency graphs, encode them with per-graph
GCNs, select evidence nodes, and answer via extractive spans, BIO tagging,
or executable expression trees, with scale-aware scoring.
"""

from .autodiff import Tensor, finite_difference
from .document import (BoundingBox, Block, CanonicalDocument, Document, Page,
                       TokenSequence, ingest_document, tokenize, transform_multipage)
from .elements import (DateSpan, ElementNode, NodeKind, NodeSet, QuantitySpan,
                       build_node_inventory, extract_dates, extract_quantities)
from .graphs import (GraphKind, SemanticGraph, build_all_graphs, build_date_graph,
                     build_quantity_graph, build_semantic_graph, build_text_graph)
from .heads import AnswerType, NodeSelection, Scale
from .metrics import EvalReport, evidence_metrics, exact_match, numeracy_f1
from .model import Model, ModelConfig
from .pipeline import Instance, Supervision, build_instance, load_corpus
from .tree import (Answer, TreeNode, decode_tree, execute_tree, parse_tree,
                   serialize_tree)
from .training import Adam, compute_loss, evaluate, predict_corpus, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "Answer", "AnswerType", "Block", "BoundingBox", "CanonicalDocument",
    "DateSpan", "Document", "ElementNode", "EvalReport", "GraphKind", "Instance",
    "Model", "ModelConfig", "NodeKind", "NodeSelection", "NodeSet", "Page",
    "QuantitySpan", "Scale", "SemanticGraph", "Supervision", "Tensor", "TokenSequence",
    "TreeNode", "build_all_graphs", "build_date_graph",
    "build_instance", "build_node_inventory", "build_quantity_graph",
    "build_semantic_graph", "build_text_graph", "compute_loss", "decode_tree",
    "evaluate", "evidence_metrics", "exact_match", "execute_tree",
    "extract_dates", "extract_quantities", "finite_difference",
    "ingest_document", "load_corpus", "numeracy_f1", "parse_tree",
    "predict_corpus", "serialize_tree", "tokenize", "train",
    "transform_multipage",
]
