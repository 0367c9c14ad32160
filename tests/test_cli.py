"""Config precedence and end-to-end subcommand round trips."""

import dataclasses
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from docreason import cli
from docreason.autodiff import Tensor
from docreason.cli import main
from docreason.config import SEED_ENV_VAR, RunConfig, load_config
from docreason.errors import SchemaError
from docreason.nn import load_checkpoint, save_checkpoint
from docreason.pipeline import load_corpus, load_records
from docreason.synthetic import write_corpus
from docreason.vocab import VOCAB_SIZE


BUNDLED = os.path.join(os.path.dirname(__file__), os.pardir, "data", "synthetic-50.json")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.json"
    write_corpus(str(path), n=3, seed=11)
    return str(path)


def _train_args(corpus, tmp_path, **extra):
    args = ["train", "--corpus", corpus, "--out-dir", str(tmp_path / "run"),
            "--epochs", "1", "--dim", "8", "--batch", "1", "--grad-accum", "1",
            "--eval-every", "1"]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


def _edit_header(ckpt, edit):
    """Apply `edit` to the parsed JSON header line of a checkpoint file and
    write it back in front of the unchanged payload."""
    header, payload = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    edit(header)
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def _run_process(args):
    """`python -m docreason.cli *args` in a child process, importing this
    checkout's src; the stderr a user would see is the result's."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "docreason.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _save_arrays(ckpt, arrays, meta):
    save_checkpoint(str(ckpt), {name: Tensor(a) for name, a in arrays.items()}, meta)


class TestConfig:
    def test_defaults(self):
        config = load_config()
        assert config.seed == 0 and config.dim == 32 and config.embeddings is None

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 5, "dim": 16}))
        config = load_config(str(path))
        assert config.seed == 5 and config.dim == 16

    def test_env_seed_overrides_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 5}))
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        assert load_config(str(path)).seed == 7

    def test_flags_override_everything(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 5}))
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        assert load_config(str(path), {"seed": 9}).seed == 9

    def test_none_overrides_are_ignored(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dim": 16}))
        assert load_config(str(path), {"dim": None}).dim == 16

    def test_unknown_keys_and_bad_values_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        for unknown in ({"dims": 16}, {"round_decimals": 2}):
            path.write_text(json.dumps(unknown))
            with pytest.raises(SchemaError):
                load_config(str(path))
        with pytest.raises(SchemaError):
            RunConfig(dim=0)
        for rate in ("inf", "nan", "-1"):
            with pytest.raises(SchemaError):
                RunConfig(lr=float(rate))
        with pytest.raises(SchemaError):
            RunConfig(constants_max=101)  # the decoder has 100 constant embeddings
        for name in ("gcn_dropout", "tree_dropout", "ffn_dropout"):
            for rate in (1.0, 1.5, -0.5, float("nan"), float("inf")):
                with pytest.raises(SchemaError, match=f"{name} must be in"):
                    RunConfig(**{name: rate})
            assert getattr(RunConfig(**{name: 0}), name) == 0
        for frac in (1e308, 1.5, float("inf"), float("nan"), 0.0, -0.1):
            with pytest.raises(SchemaError, match=r"warmup must be in \(0, 1\]"):
                RunConfig(warmup=frac)
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        with pytest.raises(SchemaError):
            load_config()


    def test_values_must_have_the_declared_type(self):
        for key, value in (("dim", "8"), ("dim", 8.0), ("seed", None), ("epochs", 1.5),
                           ("beam", True), ("lr", True), ("lr", "0.1"), ("out_dir", None),
                           ("embeddings", 1), ("corpus", ["a.json"]), ("ffn_dropout", {})):
            with pytest.raises(SchemaError, match=f"config: {key} must be"):
                RunConfig(**{key: value})
        config = RunConfig(lr=1, warmup=1, corpus=None)  # a float setting takes an int
        assert config.lr == 1 and config.corpus is None

    def test_every_setting_is_a_flag_and_a_config_key(self, tmp_path):
        fields = dataclasses.fields(RunConfig)
        assert len(fields) == 24
        parser = cli.build_parser()
        for f in fields:
            value = {"constants_max": 3, "epochs": 7}.get(f.name, f.default)
            value = "x.json" if value is None else value
            args = parser.parse_args(["validate", f"--{f.name.replace('_', '-')}", str(value)])
            assert getattr(args, f.name) == value and f.metadata["help"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"constants_max": 3}))
        assert load_config(str(path)).constants_max == 3
        assert load_config(None, {"constants_max": 4}).constants_max == 4

    def test_readme_example_config(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text(json.dumps({"dim": 64, "epochs": 100, "batch": 1, "grad_accum": 1,
                                    "lr": 0.0005, "warmup": 0.06, "gcn_dropout": 0.0,
                                    "tree_dropout": 0.0, "ffn_dropout": 0.0}))
        assert load_config(str(path)) == RunConfig(
            dim=64, epochs=100, batch=1, grad_accum=1, gcn_dropout=0.0, tree_dropout=0.0,
            ffn_dropout=0.0)

    def test_config_faults_exit_2_with_one_line(self, corpus, tmp_path, capsys):
        invalid = tmp_path / "invalid.json"
        invalid.write_text('{"dim": 8')
        for path in (tmp_path / "missing.json", tmp_path, invalid):
            assert main(["validate", "-c", str(path), "--corpus", corpus]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(path) in err
            assert len(err.strip().splitlines()) == 1
        path = tmp_path / "c.json"
        for values in ({"dim": "8"}, {"seed": None}, {"epochs": 1.5}, {"beam": True},
                       {"ffn_dropout": 1.0}, {"gcn_dropout": -0.5}, {"warmup": 1e308}):
            path.write_text(json.dumps(values))
            for command in ("validate", "train"):
                assert main([command, "-c", str(path), "--corpus", corpus,
                             "--out-dir", str(tmp_path / "run")]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: config: ") and f"{next(iter(values))} must" in err
                assert len(err.strip().splitlines()) == 1
        assert main(_train_args(corpus, tmp_path, ffn_dropout=1.0)) == 2
        assert "ffn_dropout must be in [0, 1)" in capsys.readouterr().err


    def test_invalid_arguments_exit_2_with_one_line(self, corpus, capsys):
        for argv, fault in ((["validate", "--corpus", corpus, "--dim", "abc"], "--dim"),
                            (["validate", "--corpus", corpus, "--bogus"], "--bogus"),
                            (["bogus"], "'bogus'"), ([], "command")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and fault in err, argv
            assert len(err.splitlines()) == 1, err


class TestValidateAndGraphs:
    def test_validate_reports_type_counts(self, corpus, capsys):
        assert main(["validate", "--corpus", corpus]) == 0
        out = capsys.readouterr().out
        assert "records: 3" in out
        for name in ("Span", "Spans", "Counting", "Arithmetic"):
            assert name in out
        nodes = next(line for line in out.splitlines() if line.startswith("nodes: "))
        counts = dict(item.split("=") for item in nodes[len("nodes: "):].split(", "))
        assert list(counts) == ["question", "block", "quantity", "date"]
        assert counts["question"] == "3"

    def test_validate_rejects_broken_records(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"doc_id": "x", "question": "q?",
                                    "pages": [], "blocks": []}]))
        assert main(["validate", "--corpus", str(bad)]) == 2

    def test_validate_lists_every_bad_record(self, corpus, tmp_path, capsys):
        with open(corpus, encoding="utf-8") as f:
            records = json.load(f)
        missing_block = json.loads(json.dumps(records[1]))
        missing_block["answer"]["evidence_node_refs"] = [{"kind": "block", "block_id": 99}]
        bad = [records[0], dict(records[0], question=""), missing_block, records[2],
               records[0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["validate", "--corpus", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in lines] == \
            [f"{path} record {i}" for i in (1, 2, 4)]
        assert all(line.startswith("error: ") for line in lines)
        assert f"{records[1]['doc_id']}: evidence ref names missing block 99" in lines[1]
        assert "duplicate doc_id" in lines[2]
        # the other commands stop at the first bad record
        assert main(_train_args(str(path), tmp_path)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and f"{path} record 1: " in lines[0]

    def test_a_ref_value_holding_a_line_break_stays_on_one_line(self, corpus, tmp_path,
                                                                capsys):
        with open(corpus, encoding="utf-8") as f:
            record = json.load(f)[1]
        for ref in ({"kind": "block", "block_id": "\x0c"},
                    {"kind": "quantity", "block_id": "\n", "index": 0},
                    {"kind": "quantity", "block_id": 1, "index": "\r\n"}):
            record["answer"]["evidence_node_refs"] = [ref]
            path = tmp_path / "bad.json"
            path.write_text(json.dumps([record]))
            assert main(["validate", "--corpus", str(path)]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, err

    def test_a_doc_id_holding_a_line_break_stays_on_one_line(self, tmp_path, capsys):
        with open(BUNDLED, encoding="utf-8") as f:
            record = json.load(f)[1]
        record["answer"]["evidence_node_refs"] = [{"kind": "block", "block_id": 99}]
        path = tmp_path / "bad.json"
        escapes = {"-": "-", "\n": "\\n", "\r": "\\r", "\r\n": "\\r\\n", "\x0b": "\\x0b",
                   "\x0c": "\\x0c", "\x1c": "\\x1c", "\x1d": "\\x1d", "\x1e": "\\x1e",
                   "\x85": "\\x85", "\u2028": "\\u2028", "\u2029": "\\u2029"}
        for brk, escape in escapes.items():
            record["doc_id"] = f"syn{brk}0001"
            path.write_text(json.dumps([record]))
            assert main(["validate", "--corpus", str(path)]) == 2
            # "-": an ordinary message is written as it is
            assert capsys.readouterr().err == (
                f"error: {path} record 0: syn{escape}0001: "
                "evidence ref names missing block 99\n"), repr(brk)

    def test_a_warning_naming_a_doc_id_with_a_line_break_is_one_line(self, tmp_path):
        """Run as a process, through `python -m docreason.cli`."""
        with open(BUNDLED, encoding="utf-8") as f:
            record = json.load(f)[1]
        record["doc_id"] = "syn\n0001"
        record["pages"][0]["extra"] = 1
        path = tmp_path / "warn.json"
        path.write_text(json.dumps([record]))
        done = _run_process(["validate", "--corpus", str(path)])
        assert done.returncode == 0, done.stderr
        assert done.stderr == ("WARNING docreason.document: syn\\n0001 page 0: "
                               "ignoring unknown field 'extra'\n")

    def test_each_in_process_run_writes_its_own_warning(self, tmp_path, capsys):
        """The log handler is bound to the stderr of each main call: a second
        call in one process still writes its warning, and no call leaves a
        handler behind."""
        with open(BUNDLED, encoding="utf-8") as f:
            record = json.load(f)[1]
        record["pages"][0]["extra"] = 1
        path = tmp_path / "warn.json"
        path.write_text(json.dumps([record]))
        handlers = list(logging.getLogger("docreason").handlers)
        for _ in range(2):
            assert main(["validate", "--corpus", str(path)]) == 0
            assert capsys.readouterr().err == (
                f"WARNING docreason.document: {record['doc_id']} page 0: "
                "ignoring unknown field 'extra'\n")
        assert logging.getLogger("docreason").handlers == handlers

    def test_warnings_reach_no_handler_of_the_calling_program(self, tmp_path, capsys):
        """A root handler the calling program set up receives nothing: each
        warning is one line on stderr, and the logger propagates again once
        the call returns."""
        with open(BUNDLED, encoding="utf-8") as f:
            record = json.load(f)[1]
        record["pages"][0]["extra"] = 1
        path = tmp_path / "warn.json"
        path.write_text(json.dumps([record]))
        received = []
        root_handler = logging.Handler()
        root_handler.emit = received.append
        logging.getLogger().addHandler(root_handler)
        try:
            assert main(["validate", "--corpus", str(path)]) == 0
        finally:
            logging.getLogger().removeHandler(root_handler)
        assert received == []
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert logging.getLogger("docreason").propagate

    def test_missing_corpus_flag(self):
        assert main(["validate"]) == 2

    def test_unreadable_corpus_exits_2_naming_the_path(self, corpus, tmp_path, capsys):
        truncated = tmp_path / "truncated.json"
        with open(corpus, encoding="utf-8") as f:
            truncated.write_text(f.read()[:500])
        for path in (truncated, tmp_path / "missing.json"):
            assert main(["validate", "--corpus", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(path) in err
            assert len(err.strip().splitlines()) == 1

    def test_record_faults_exit_2(self, corpus, tmp_path, capsys):
        with open(corpus, encoding="utf-8") as f:
            records = json.load(f)
        zero_width = [dict(records[0], pages=[{"width": 0, "height": 1000}]
                           * len(records[0]["pages"]))]
        long_question = [dict(records[0], question=" ".join(["how"] * 300))]
        for bad, message in ((zero_width, "non-positive dimensions"),
                             (long_question, "question tokenizes to 300 tokens"),
                             ([records[0], records[0]], "duplicate doc_id")):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            assert main(["validate", "--corpus", str(path), "--max-len", "256"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert len(err.strip().splitlines()) == 1

    def test_graphs_writes_four_files_per_record(self, corpus, tmp_path):
        out_dir = tmp_path / "graphs"
        assert main(["graphs", "--corpus", corpus, "--out-dir", str(out_dir)]) == 0
        files = sorted(os.listdir(out_dir))
        assert len(files) == 12
        payload = json.loads((out_dir / files[0]).read_text())
        assert {"qid", "kind", "node_ids", "edges"} <= set(payload)

    def test_graphs_rejects_doc_ids_that_are_not_file_names(self, corpus, tmp_path, capsys):
        with open(corpus, encoding="utf-8") as f:
            records = json.load(f)
        work = tmp_path / "work"
        out_dir = work / "graphs"
        for doc_id in ("sub/q1", "../x", "..\\x", "q\0"):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps([records[0], dict(records[1], doc_id=doc_id)]))
            assert main(["graphs", "--corpus", str(path), "--out-dir", str(out_dir)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(doc_id) in err
            assert len(err.strip().splitlines()) == 1
        # nothing written: not in --out-dir and not next to it
        assert os.listdir(work) == ["graphs"] and os.listdir(out_dir) == []


class TestTrainPredictEval:
    def test_full_round_trip(self, corpus, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(_train_args(corpus, tmp_path)) == 0
        assert (run_dir / "checkpoint.ckpt").exists()
        assert (run_dir / "train_log.csv").read_text().startswith("epoch,")

        ckpt = str(run_dir / "checkpoint.ckpt")
        assert main(["predict", "--corpus", corpus, "--checkpoint", ckpt,
                     "--out-dir", str(run_dir)]) == 0
        pred_path = run_dir / "predictions.jsonl"
        rows = [json.loads(l) for l in pred_path.read_text().splitlines()]
        assert len(rows) == 3
        assert all("qid" in r and "answer_type" in r for r in rows)

        assert main(["eval", "--corpus", corpus, "--predictions", str(pred_path),
                     "--out-dir", str(run_dir)]) == 0
        report_from_dump = (run_dir / "report.json").read_text()
        assert main(["eval", "--corpus", corpus, "--checkpoint", ckpt,
                     "--out-dir", str(run_dir)]) == 0
        report_live = (run_dir / "report.json").read_text()
        assert report_from_dump == report_live
        parsed = json.loads(report_live)
        assert parsed["n"] == 3
        assert (run_dir / "report.txt").exists()

    def test_predict_adopts_checkpoint_architecture(self, corpus, tmp_path):
        run_dir = tmp_path / "run"
        assert main(_train_args(corpus, tmp_path, dim=16)) == 0
        # no --dim here: the checkpoint's dim must win over the default
        assert main(["predict", "--corpus", corpus,
                     "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                     "--out-dir", str(run_dir)]) == 0

    def test_eval_needs_a_source_of_predictions(self, corpus):
        assert main(["eval", "--corpus", corpus]) == 2

    def test_mismatched_checkpoint_exits_4(self, corpus, tmp_path, capsys):
        """A toy checkpoint run with --embeddings, and an embedder table whose
        row count is not this build's vocabulary, fail on the arrays."""
        run_dir = tmp_path / "run"
        assert main(_train_args(corpus, tmp_path)) == 0
        ckpt = run_dir / "checkpoint.ckpt"
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({inst.qid: [[0.0] * 8] * len(inst.seq)
                                   for inst in load_corpus(corpus)}))
        arrays, meta = load_checkpoint(str(ckpt))
        short = tmp_path / "short-table.ckpt"
        _save_arrays(short, {**arrays, "embedder.table": arrays["embedder.table"][:-1]}, meta)
        for path, flags, reason in (
                (ckpt, ["--embeddings", str(emb)], "0 missing [], 1 extra ['embedder.table']"),
                (short, [], f"embedder.table has shape ({VOCAB_SIZE - 1}, 8)")):
            capsys.readouterr()
            assert main(["predict", "--corpus", corpus, "--checkpoint", str(path),
                         "--out-dir", str(run_dir)] + flags) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: checkpoint mismatch: ") and str(path) in err
            assert reason in err and len(err.strip().splitlines()) == 1

    def test_unknown_checkpoint_version_exits_4(self, corpus, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(_train_args(corpus, tmp_path)) == 0
        ckpt = run_dir / "checkpoint.ckpt"
        arrays, meta = load_checkpoint(str(ckpt))
        _edit_header(ckpt, lambda header: header.update(format_version=99))
        # the same parameters as a version-1 file: one JSON object, no header line
        v1 = tmp_path / "checkpoint.json"
        v1.write_text(json.dumps({
            "format_version": 1, "meta": meta,
            "params": {name: {"shape": list(a.shape), "data": a.ravel().tolist()}
                       for name, a in arrays.items()}}, sort_keys=True))
        for path, version in ((ckpt, 99), (v1, 1)):
            assert main(["predict", "--corpus", corpus, "--checkpoint", str(path),
                         "--out-dir", str(run_dir)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(path) in err
            assert f"unsupported checkpoint version {version}" in err
            assert len(err.strip().splitlines()) == 1

    def test_unknown_answer_type_in_dump_exits_2(self, corpus, tmp_path, capsys):
        qid = load_corpus(corpus)[0].qid
        dump = tmp_path / "predictions.jsonl"
        dump.write_text(json.dumps({"qid": qid, "answer_type": "Bogus", "value": "x",
                                    "scale": "None"}) + "\n")
        assert main(["eval", "--corpus", corpus, "--predictions", str(dump),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert qid in err and "answer_type" in err

    def test_unreadable_checkpoint_exits_4_naming_the_path(self, corpus, tmp_path, capsys):
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"format_version": 1, "par')
        for ckpt in (truncated, tmp_path / "missing.json"):
            assert main(["predict", "--corpus", corpus, "--checkpoint", str(ckpt),
                         "--out-dir", str(tmp_path / "out")]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(ckpt) in err
            assert len(err.strip().splitlines()) == 1

    def test_dump_row_without_qid_exits_2(self, corpus, tmp_path, capsys):
        dump = tmp_path / "predictions.jsonl"
        for row in ({"answer_type": "Span", "value": "x", "scale": "None"}, ["not", "a", "row"]):
            dump.write_text(json.dumps(row) + "\n")
            assert main(["eval", "--corpus", corpus, "--predictions", str(dump),
                         "--out-dir", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "row 0" in err and len(err.strip().splitlines()) == 1

    def test_unknown_failure_or_foreign_qid_in_dump_exits_2(self, corpus, tmp_path, capsys):
        qid = load_corpus(corpus)[0].qid
        dump = tmp_path / "predictions.jsonl"
        for row, message in (({"qid": qid, "value": None, "failure": "bogus"},
                              f"prediction {qid}: unknown failure 'bogus'"),
                             ({"qid": qid, "value": None, "failure": None},
                              f"prediction {qid}: unknown failure None"),
                             ({"qid": f"other-{qid}", "value": None},
                              f"prediction other-{qid}: qid of row 0 is not in the corpus")):
            dump.write_text(json.dumps(row) + "\n")
            assert main(["eval", "--corpus", corpus, "--predictions", str(dump),
                         "--out-dir", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {message}\n"
        for failure in ("execution_error", "invalid_prediction"):
            dump.write_text(json.dumps({"qid": qid, "value": None, "failure": failure}) + "\n")
            assert main(["eval", "--corpus", corpus, "--predictions", str(dump),
                         "--out-dir", str(tmp_path / "out")]) == 0
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["error_counts"][failure] >= 1

    def test_bad_selected_nodes_or_repeated_qid_in_dump_exits_2(self, corpus, tmp_path, capsys):
        qid = load_corpus(corpus)[0].qid
        row = {"qid": qid, "answer_type": "Span", "value": "x", "scale": "None"}
        dump = tmp_path / "predictions.jsonl"
        for rows, reason in (([dict(row, selected_nodes=[999])], "selected_nodes"),
                             ([dict(row, selected_nodes=[-1])], "selected_nodes"),
                             ([dict(row, selected_nodes="0")], "selected_nodes"),
                             ([row, row], "repeated qid")):
            dump.write_text("".join(json.dumps(r) + "\n" for r in rows))
            assert main(["eval", "--corpus", corpus, "--predictions", str(dump),
                         "--out-dir", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and qid in err and reason in err
            assert len(err.strip().splitlines()) == 1

    def test_predict_reads_no_checkpoint_meta(self, corpus, tmp_path):
        """The arrays alone record the architecture: whatever the meta says,
        predict writes the intact checkpoint's predictions."""
        run_dir = tmp_path / "run"
        assert main(_train_args(corpus, tmp_path)) == 0
        ckpt = run_dir / "checkpoint.ckpt"
        predict = ["predict", "--corpus", corpus, "--checkpoint", str(ckpt), "--out-dir"]
        assert main(predict + [str(run_dir)]) == 0
        intact = (run_dir / "predictions.jsonl").read_bytes()
        original = ckpt.read_bytes()
        meta = load_checkpoint(str(ckpt))[1]
        for edited in ({}, {**meta, "gcn_layers": 3}, {**meta, "gcn_layers": 10**8},
                       {**meta, "dim": 2048}, {**meta, "embedder": 3}):
            ckpt.write_bytes(original)
            _edit_header(ckpt, lambda header: header.update(meta=edited))
            out = tmp_path / "edited"
            assert main(predict + [str(out)]) == 0, edited
            assert (out / "predictions.jsonl").read_bytes() == intact, edited

    def test_checkpoint_dim_or_shape_mismatch_exits_4_naming_the_path(
            self, corpus, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "run"
        assert main(_train_args(corpus, tmp_path)) == 0
        ckpt = run_dir / "checkpoint.ckpt"
        arrays, meta = load_checkpoint(str(ckpt))
        probe = "gcn.semantic.layer0.w"
        non_square = next(name for name, a in arrays.items()
                          if a.ndim == 2 and a.shape[0] != a.shape[1])
        build = cli._build_model
        for name, value, reason, builds in (
                (probe, None, f"{probe} has shape None", False),
                (probe, arrays[probe].reshape(4, 16), f"{probe} has shape (4, 16)", False),
                (probe, np.zeros((0, 0)), f"{probe} has shape (0, 0)", False),
                (non_square, arrays[non_square].T, "the model needs", True)):
            edited = {k: v for k, v in {**arrays, name: value}.items() if v is not None}
            _save_arrays(ckpt, edited, meta)
            # an architecture the arrays do not record fails before a model is built
            monkeypatch.setattr(cli, "_build_model",
                                build if builds else lambda config: pytest.fail("built"))
            capsys.readouterr()
            assert main(["predict", "--corpus", corpus, "--checkpoint", str(ckpt),
                         "--out-dir", str(run_dir)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: checkpoint mismatch: ") and str(ckpt) in err
            assert reason in err and len(err.strip().splitlines()) == 1

    def test_many_differing_names_make_one_short_line(self, corpus, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(_train_args(corpus, tmp_path)) == 0
        ckpt = run_dir / "checkpoint.ckpt"
        size = len(ckpt.read_bytes().split(b"\n", 1)[1])
        _edit_header(ckpt, lambda header: header["params"].extend(
            {"name": f"extra.{i}", "shape": [0], "offset": size} for i in range(10_000)))
        capsys.readouterr()
        assert main(["predict", "--corpus", corpus, "--checkpoint", str(ckpt),
                     "--out-dir", str(run_dir)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint mismatch: ") and str(ckpt) in err
        assert "0 missing [], 10000 extra ['extra.0', " in err
        assert len(err.splitlines()) == 1 and len(err) < 1000

    def test_span_answers_without_block_refs_train(self, tmp_path, capsys):
        # the block an answer string is found in is gold evidence, so its
        # tokens stay selected for the span and tagging heads
        span, spans = load_records(BUNDLED)[1:3]
        assert (span["answer"]["type"], spans["answer"]["type"]) == ("Span", "Spans")
        for record, refs in ((span, None), (spans, []), (span, [{"kind": "question"}])):
            record = json.loads(json.dumps(record))
            del record["answer"]["evidence_node_refs"]
            if refs is not None:
                record["answer"]["evidence_node_refs"] = refs
            path = tmp_path / "corpus.json"
            path.write_text(json.dumps([record]))
            for seed in range(4):
                assert main(["train", "--corpus", str(path), "--out-dir", str(tmp_path / "run"),
                             "--epochs", "1", "--dim", "8", "--seed", str(seed)]) == 0
                assert capsys.readouterr().err == "", (refs, seed)

    def test_gold_nodes_over_the_cap_exit_2_naming_the_qid(self, corpus, tmp_path, capsys):
        qids = [inst.qid for inst in load_corpus(corpus)]
        assert main(_train_args(corpus, tmp_path, max_nodes=1)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceed the cap of 1" in err
        assert any(f"{qid}: " in err for qid in qids)
        assert len(err.strip().splitlines()) == 1

    def test_divergence_exits_3(self, corpus, tmp_path, monkeypatch, capsys):
        import docreason.training as training
        compute_loss = training.compute_loss

        def nan_loss(*args, **kwargs):
            loss, terms = compute_loss(*args, **kwargs)
            return loss * float("nan"), terms

        monkeypatch.setattr(training, "compute_loss", nan_loss)
        qids = [inst.qid for inst in load_corpus(corpus)]
        assert main(_train_args(corpus, tmp_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged: ") and "loss is nan (epoch 0)" in err
        assert any(f"{qid}: " in err for qid in qids)
        assert len(err.strip().splitlines()) == 1

    def test_overflowing_training_writes_only_the_error_line(self, corpus, tmp_path):
        """Run as a process: numpy's floating-point warnings would reach its
        stderr ahead of the one error line."""
        done = _run_process(_train_args(corpus, tmp_path, lr=1e308, epochs=2))
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("error: training diverged: ")
        assert len(done.stderr.splitlines()) == 1, done.stderr

    def test_an_empty_training_corpus_exits_2_before_any_step(self, corpus, tmp_path, capsys):
        for name, text in (("empty.json", "[]"), ("empty.jsonl", "")):
            empty = tmp_path / name
            empty.write_text(text)
            assert main(_train_args(str(empty), tmp_path)) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert not (tmp_path / "run" / "checkpoint.ckpt").exists()
            # an empty dev corpus is still valid
            assert main(_train_args(corpus, tmp_path, dev_corpus=empty)) == 0
            (tmp_path / "run" / "checkpoint.ckpt").unlink()

    def test_outputs_that_cannot_be_written_exit_2_naming_the_path(
            self, corpus, tmp_path, monkeypatch, capsys):
        assert main(_train_args(corpus, tmp_path)) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.ckpt")
        a_file, a_dir = tmp_path / "a-file", tmp_path / "a-dir"
        a_file.write_text("")
        a_dir.mkdir()

        def no_work(*args, **kwargs):
            raise AssertionError("ran before checking its outputs")

        fresh = str(tmp_path / "fresh")
        cases = [(["graphs", "--corpus", corpus, "--out-dir", str(a_file)], a_file),
                 (_train_args(corpus, tmp_path) + ["--out-dir", str(a_file)], a_file),
                 (["predict", "--corpus", corpus, "--checkpoint", ckpt,
                   "--out-dir", str(a_file)], a_file),
                 (["eval", "--corpus", corpus, "--checkpoint", ckpt,
                   "--out-dir", str(a_file)], a_file),
                 (_train_args(corpus, tmp_path) + ["--out-dir", fresh, "--checkpoint",
                                                   str(tmp_path / "missing" / "x.ckpt")],
                  tmp_path / "missing" / "x.ckpt"),
                 (_train_args(corpus, tmp_path) + ["--out-dir", fresh, "--checkpoint",
                                                   str(a_dir)], a_dir)]
        for args, path in cases:
            with monkeypatch.context() as m:
                m.setattr(cli, "train", no_work)
                m.setattr(cli, "predict_corpus", no_work)
                assert main(args) == 2, args
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(path) in err, (args, err)
            assert len(err.splitlines()) == 1, err
        assert not any(os.scandir(fresh)) and not any(os.scandir(a_dir))

    def test_an_output_that_fails_to_land_leaves_no_temporary_file(
            self, corpus, tmp_path, capsys):
        assert main(_train_args(corpus, tmp_path)) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.ckpt")
        for command, name in (("eval", "report.json"), ("predict", "predictions.jsonl")):
            out_dir = tmp_path / command
            (out_dir / name).mkdir(parents=True)  # the rename onto it fails
            assert main([command, "--corpus", corpus, "--checkpoint", ckpt,
                         "--out-dir", str(out_dir)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(out_dir / name) in err, err
            assert len(err.splitlines()) == 1, err
            assert not list(out_dir.glob("*.tmp")), command

    def test_external_embeddings_train_and_predict(self, corpus, tmp_path):
        rng = np.random.default_rng(0)
        rows = {inst.qid: rng.normal(size=(len(inst.seq), 8)).tolist()
                for inst in load_corpus(corpus)}
        path = tmp_path / "emb.json"
        path.write_text(json.dumps(rows))
        flags = ["--embeddings", str(path)]
        assert main(_train_args(corpus, tmp_path) + flags) == 0
        predict = ["predict", "--corpus", corpus, "--out-dir", str(tmp_path / "run"),
                   "--checkpoint", str(tmp_path / "run" / "checkpoint.ckpt")]
        assert main(predict + flags) == 0
        # without the file, the model needs the toy embedder's table
        assert main(predict) == 4

    def test_embeddings_file_faults_exit_2_naming_the_file(self, corpus, tmp_path, capsys):
        qids = [inst.qid for inst in load_corpus(corpus)]
        path = tmp_path / "emb.json"
        for text, names_qid in (("{", False), ("[]", False), ("{}", True),
                                (json.dumps({q: [[0.0] * 8] for q in qids}), True)):
            path.write_text(text)
            for emb in (path, tmp_path / "missing.json"):
                assert main(_train_args(corpus, tmp_path) + ["--embeddings", str(emb)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and str(emb) in err
                assert len(err.strip().splitlines()) == 1
                if emb == path and names_qid:
                    assert any(repr(q) in err for q in qids)

    def test_seed_env_var_reaches_training(self, corpus, tmp_path, monkeypatch):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        monkeypatch.setenv(SEED_ENV_VAR, "3")
        assert main(["train", "--corpus", corpus, "--out-dir", str(run_a),
                     "--epochs", "1", "--dim", "8", "--batch", "1",
                     "--grad-accum", "1", "--eval-every", "1"]) == 0
        assert main(["train", "--corpus", corpus, "--out-dir", str(run_b),
                     "--epochs", "1", "--dim", "8", "--batch", "1",
                     "--grad-accum", "1", "--eval-every", "1"]) == 0
        assert (run_a / "checkpoint.ckpt").read_bytes() == \
            (run_b / "checkpoint.ckpt").read_bytes()
