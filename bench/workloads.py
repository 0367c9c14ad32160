"""Benchmark workloads: the inputs each one generates and the settings it runs.

Every input is made from the workload seed alone; the program under test
only ever sees the generated corpus records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from docreason import synthetic
from docreason.model import ModelConfig
from docreason.pipeline import build_instance

BUNDLED_CORPUS = "data/synthetic-50.json"

# Stream tags keep the corpora of one seed independent of each other.
_HELDOUT, _WIDE_TRAIN, _WIDE_ROWS = 1, 2, 3

_ROW_LABELS = ["segment sales", "operating costs", "net interest", "capital spend",
               "staff costs", "tax charge", "lease payments", "dividends paid"]


def stream_seed(seed: int, stream: int) -> int:
    """A generator seed derived from the workload seed, one per input stream.
    The bundled corpus seed (2024) cannot come out of it by accident, so a
    held-out corpus never repeats the training records."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0]) | (1 << 32)


def add_table_rows(record: dict, rng: np.random.Generator, rows: int = 12,
                   quantities: int = 17) -> dict:
    """Append distractor "table row" blocks after the evidence blocks.

    Each row carries three year headers and `quantities` comma-grouped
    amounts. Rows go on the last page, below the original blocks, so the
    evidence references of the record stay valid.
    """
    blocks = [dict(b) for b in record["blocks"]]
    page = len(record["pages"]) - 1
    first = len(blocks)
    for k in range(rows):
        year = int(rng.integers(2010, 2019))
        amounts = " ".join(f"{int(rng.integers(1, 1000))},{int(rng.integers(0, 1000)):03d}"
                           for _ in range(quantities))
        label = _ROW_LABELS[int(rng.integers(len(_ROW_LABELS)))]
        top = 330 + 52 * k
        blocks.append({"block_id": first + k, "page_index": page, "order": first + k,
                       "text": f"{label} {year} {year + 1} {year + 2}: {amounts}",
                       "box": [40, top, 960, top + 44]})
    return {**record, "blocks": blocks}


def wide_corpus(n: int, seed: int, max_len: int) -> list[dict]:
    """Synthetic records widened with table rows, each validated through
    build_instance; a record that would be truncated at max_len is a
    workload error, not an input."""
    rng = np.random.default_rng(stream_seed(seed, _WIDE_ROWS))
    records = [add_table_rows(r, rng) for r in synthetic.generate_corpus(n, seed)]
    for record in records:
        inst = build_instance(record, max_len=max_len)
        if len(inst.seq) >= max_len:
            raise ValueError(f"{record['doc_id']}: {len(inst.seq)} tokens reach max_len {max_len}")
    return records


@dataclass(frozen=True)
class Workload:
    name: str
    model: ModelConfig
    train: dict = field(default_factory=dict)  # keyword arguments of training.train
    max_len: int = 256
    n_train: int = 0  # 0 trains on the bundled corpus
    n_heldout: int = 100

    def make_inputs(self, seed: int) -> tuple[list[dict] | None, list[dict]]:
        """(training records or None for the bundled corpus, held-out records)."""
        if self.n_train == 0:
            return None, synthetic.generate_corpus(self.n_heldout, stream_seed(seed, _HELDOUT))
        return (wide_corpus(self.n_train, stream_seed(seed, _WIDE_TRAIN), self.max_len),
                wide_corpus(self.n_heldout, stream_seed(seed, _HELDOUT), self.max_len))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="synth-quickstart",
        model=ModelConfig(dim=64, gcn_dropout=0.0, tree_dropout=0.0, ffn_dropout=0.0),
        # 5 epochs predict no Arithmetic; after 10 all four answer types are predicted.
        train=dict(epochs=10, batch=1, grad_accum=1, eval_every=10),
        n_heldout=100,
    ),
    Workload(
        name="wide-defaults",
        model=ModelConfig(),
        # 64 records fill one batch*grad_accum group, so each epoch is one Adam step.
        train=dict(epochs=2),
        max_len=1024,
        n_train=64,
        n_heldout=32,
    ),
)}
