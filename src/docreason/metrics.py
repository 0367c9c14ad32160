"""Scoring: exact match, numeracy-focused F1, and evidence metrics.

Exact match canonicalizes numbers by their scale (Thousand/Million/Billion
become plain magnitudes, Percent stays symbolic) and normalizes strings
(case, punctuation, articles). F1 is all-or-nothing for numeric answers and
token-bag overlap for text, with multi-span answers aligned greedily
one-to-one.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field

from .heads import Scale
from .tree import Answer

REL_TOL = 1e-4

_SCALE_FACTOR = {Scale.NONE: 1.0, Scale.THOUSAND: 1e3,
                 Scale.MILLION: 1e6, Scale.BILLION: 1e9}
_ARTICLES = {"a", "an", "the"}
_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def normalize_text(s: str) -> str:
    s = s.lower().translate(_PUNCT_TABLE)
    words = [w for w in s.split() if w not in _ARTICLES]
    return " ".join(words)


def parse_number(value) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        s = value.strip().strip("$€£").replace(",", "").rstrip("%").strip()
        if s.startswith("(") and s.endswith(")"):
            s = "-" + s[1:-1]
        try:
            return float(s)
        except ValueError:
            return None
    return None


def _canonical(value: float, scale: Scale) -> tuple[float, bool]:
    """(magnitude, is_percent): scale folded into the number except Percent."""
    if scale == Scale.PERCENT:
        return value, True
    return value * _SCALE_FACTOR[scale], False


def _numbers_match(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def exact_match(pred: Answer, gold: Answer) -> int:
    pv = pred.raw_value if pred.raw_value is not None else pred.value
    gv = gold.raw_value if gold.raw_value is not None else gold.value
    pn, gn = parse_number(pv), parse_number(gv)
    if pn is not None and gn is not None:
        (pm, pp), (gm, gp) = _canonical(pn, pred.scale), _canonical(gn, gold.scale)
        return int(pp == gp and _numbers_match(pm, gm))
    if pn is not None or gn is not None:
        return 0
    if pred.scale != gold.scale:
        return 0
    pl = sorted(normalize_text(str(v)) for v in _as_list(pv))
    gl = sorted(normalize_text(str(v)) for v in _as_list(gv))
    return int(pl == gl)


def _token_bag_f1(pred: str, gold: str) -> float:
    p, g = normalize_text(pred).split(), normalize_text(gold).split()
    if not p or not g:
        return float(p == g)
    common = 0
    remaining = list(g)
    for tok in p:
        if tok in remaining:
            remaining.remove(tok)
            common += 1
    if common == 0:
        return 0.0
    precision, recall = common / len(p), common / len(g)
    return 2 * precision * recall / (precision + recall)


def numeracy_f1(pred: Answer, gold: Answer) -> float:
    pv = pred.raw_value if pred.raw_value is not None else pred.value
    gv = gold.raw_value if gold.raw_value is not None else gold.value
    pn, gn = parse_number(pv), parse_number(gv)
    if pn is not None or gn is not None:
        return float(exact_match(pred, gold))
    if pred.scale != gold.scale:
        return 0.0
    pl = [str(v) for v in _as_list(pv)]
    gl = [str(v) for v in _as_list(gv)]
    # Greedy one-to-one span alignment on pairwise token F1.
    pairs = sorted(((_token_bag_f1(p, g), i, j)
                    for i, p in enumerate(pl) for j, g in enumerate(gl)),
                   key=lambda t: (-t[0], t[1], t[2]))
    used_p: set[int] = set()
    used_g: set[int] = set()
    total = 0.0
    for score, i, j in pairs:
        if i in used_p or j in used_g or score == 0.0:
            continue
        used_p.add(i)
        used_g.add(j)
        total += score
    return total / max(len(pl), len(gl))


def evidence_metrics(pred_nodes: set, gold_nodes: set) -> tuple[float, float, float]:
    """Per-question precision c/m, recall c/n, harmonic F1."""
    c = len(set(pred_nodes) & set(gold_nodes))
    m, n = len(pred_nodes), len(gold_nodes)
    precision = c / m if m else 0.0
    recall = c / n if n else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


ERROR_CATEGORIES = ["correct", "wrong_answer_type", "wrong_scale", "wrong_value",
                    "execution_error", "invalid_prediction"]


def classify_error(pred: Answer | None, gold: Answer, failure: str | None = None) -> str:
    if failure is not None:
        return failure
    if exact_match(pred, gold):
        return "correct"
    if pred.answer_type != gold.answer_type:
        return "wrong_answer_type"
    scale_blind = exact_match(
        Answer(pred.answer_type, pred.value, gold.scale, raw_value=pred.raw_value), gold)
    if scale_blind:
        return "wrong_scale"
    return "wrong_value"


@dataclass
class EvalReport:
    n: int
    em: float
    f1: float
    per_type: dict[str, dict[str, float]]
    evidence: dict[str, float]
    error_counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"n": self.n, "em": self.em, "f1": self.f1,
                "per_type": self.per_type, "evidence": self.evidence,
                "error_counts": self.error_counts}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"

    def to_text(self) -> str:
        lines = [f"instances: {self.n}",
                 f"exact match: {self.em:.4f}",
                 f"numeracy F1: {self.f1:.4f}", "",
                 f"{'type':<12} {'count':>6} {'EM':>8} {'F1':>8}"]
        for name in sorted(self.per_type):
            row = self.per_type[name]
            lines.append(f"{name:<12} {int(row['count']):>6} {row['em']:>8.4f} {row['f1']:>8.4f}")
        ev = self.evidence
        lines += ["", f"evidence (over {int(ev['count'])} questions): "
                      f"P {ev['precision']:.4f}  R {ev['recall']:.4f}  F1 {ev['f1']:.4f}", ""]
        lines.append("errors: " + ", ".join(
            f"{k}={self.error_counts.get(k, 0)}" for k in ERROR_CATEGORIES))
        return "\n".join(lines) + "\n"


def build_report(rows: list[dict]) -> EvalReport:
    """Aggregate per-instance scoring rows: each row carries em, f1, gold
    type, optional evidence triple, and an error category."""
    n = len(rows)
    em = sum(r["em"] for r in rows) / n if n else 0.0
    f1 = sum(r["f1"] for r in rows) / n if n else 0.0
    per_type: dict[str, dict[str, float]] = {}
    for r in rows:
        t = per_type.setdefault(r["type"], {"count": 0, "em": 0.0, "f1": 0.0})
        t["count"] += 1
        t["em"] += r["em"]
        t["f1"] += r["f1"]
    for t in per_type.values():
        t["em"] /= t["count"]
        t["f1"] /= t["count"]
    ev_rows = [r["evidence"] for r in rows if r.get("evidence") is not None]
    evidence = {"count": float(len(ev_rows)), "precision": 0.0, "recall": 0.0, "f1": 0.0}
    if ev_rows:
        for i, key in enumerate(("precision", "recall", "f1")):
            evidence[key] = sum(e[i] for e in ev_rows) / len(ev_rows)
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["error"]] = counts.get(r["error"], 0) + 1
    return EvalReport(n=n, em=em, f1=f1, per_type=per_type,
                      evidence=evidence, error_counts=counts)
