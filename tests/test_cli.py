"""End-to-end CLI tests driving main() in-process."""

import dataclasses
import importlib
import json
import logging
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from morphkit import io as mio
from morphkit.cli import _load_dataset, build_parser, main
from morphkit.io import load_model, load_report_json, save_report_json
from morphkit.morph import NO_SIGNAL_ADVICE, MorphReport, MorphSpec
from morphkit.network import (
    Layer, Mlp, TrainConfig, _copied, _layer_outputs, evaluate, init_weights, train_sgd,
)
from morphkit.sparse import SparseConfig
from morphkit.verify import _layer_bytes

SYNTH = "synth:n=300,test=100,d=12,classes=3,seed=4"
# SYNTH's shape with overlapping classes, so accuracies stay below 1
HARD = "synth:n=300,test=100,d=12,classes=3,seed=4,sep=0.5"


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def parent_dir(tmp_path_factory):
    """A small trained parent shared by the morph/eval/finetune tests."""
    root = tmp_path_factory.mktemp("cli")
    code = run(
        "train", "--data", SYNTH, "--arch", "12,10,8,3", "--act", "relu",
        "--epochs", "4", "--lr", "0.05", "--weight-decay", "1e-6",
        "--momentum", "0.9", "--seed", "1", "--out", "parent.model",
        "--history", "parent_history.csv", "--out-dir", str(root),
    )
    assert code == 0
    return root


@pytest.fixture(scope="module")
def base_report(parent_dir):
    """The report of a baseline morph of the shared parent."""
    code = run(
        "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
        "--at", "1", "--width", "10", "--alg", "baseline", "--seed", "2",
        "--out", "base.model", "--report", "base.report.json",
        "--out-dir", str(parent_dir),
    )
    assert code == 0
    return parent_dir / "base.report.json"


class TestTrain:
    def test_writes_model_and_history(self, parent_dir):
        _, meta = load_model(parent_dir / "parent.model")
        assert sorted(meta) == ["arch", "hidden_activation", "train"]
        assert (meta["arch"], meta["hidden_activation"]) == ([12, 10, 8, 3], "relu")
        assert TrainConfig(**meta["train"]) == TrainConfig(
            learning_rate=0.05, momentum=0.9, weight_decay=1e-6, epochs=4, seed=1)
        history = (parent_dir / "parent_history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,accuracy"
        assert len(history) >= 2

    def test_history_row_0_is_the_untrained_network(self, tmp_path):
        assert run("train", "--data", SYNTH, "--arch", "12,6,3", "--act", "tanh",
                   "--epochs", "2", "--seed", "9", "--out-dir", str(tmp_path)) == 0
        untrained = Mlp([Layer(init_weights(12, 6, "tanh", 9), np.zeros(6), "tanh"),
                         Layer(init_weights(6, 3, "identity", 10), np.zeros(3), "identity")])
        loss, accuracy = evaluate(untrained, _load_dataset(SYNTH, "train"))
        rows = (tmp_path / "history.csv").read_text().splitlines()
        assert rows[:2] == ["epoch,loss,accuracy", f"0,{loss!r},{accuracy!r}"]
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2"]

    def test_zero_epochs_equals_fresh_init(self, tmp_path):
        code = run(
            "train", "--data", SYNTH, "--arch", "12,6,3", "--act", "relu",
            "--epochs", "0", "--seed", "9", "--out", "fresh.model",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        net, _ = load_model(tmp_path / "fresh.model")
        np.testing.assert_array_equal(net.layers[0].weight, init_weights(12, 6, "relu", 9))
        np.testing.assert_array_equal(
            net.layers[1].weight, init_weights(6, 3, "identity", 10)
        )

    def test_bad_arch_exits_nonzero(self, tmp_path, capsys):
        code = run("train", "--data", SYNTH, "--arch", "12,abc,3",
                   "--out-dir", str(tmp_path))
        assert code == 1
        assert "arch" in capsys.readouterr().err

    def test_arch_data_mismatch(self, tmp_path):
        code = run("train", "--data", SYNTH, "--arch", "11,6,3",
                   "--out-dir", str(tmp_path))
        assert code == 1

    def test_missing_subcommand_usage_error(self):
        assert run() == 1

    def test_help_exits_zero(self):
        assert run("--help") == 0

    @pytest.mark.parametrize("data,arch", [("lowrank:n=0,test=10", "784,8,10"),
                                           ("synth:n=0,test=10,d=12,classes=3", "12,6,3")])
    def test_empty_training_split_is_user_error(self, tmp_path, capsys, data, arch):
        code = run("train", "--data", data, "--arch", arch, "--out-dir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "training features: 0 rows, and at least one is needed" in err and "n >= 1" in err
        assert not (tmp_path / "parent.model").exists()

    @pytest.mark.parametrize("data", ["synth:n=-5,test=10,d=12", "lowrank:n=20,test=-1,d=40"])
    def test_negative_split_size_is_user_error(self, tmp_path, capsys, dataset_cache, data):
        code = run("train", "--data", data, "--arch", "12,6,3", "--out-dir", str(tmp_path))
        assert code == 1
        assert "n and test must be >= 0" in capsys.readouterr().err
        assert not dataset_cache.exists()


    @pytest.mark.parametrize("flag,value,field", [("--lr", "nan", "learning_rate"),
                                                  ("--weight-decay", "inf", "weight_decay")])
    def test_non_finite_setting_is_user_error(self, tmp_path, capsys, flag, value, field):
        code = run("train", "--data", "synth:n=60,test=20", "--arch", "20,8,3", "--epochs", "1",
                   flag, value, "--out-dir", str(tmp_path))
        assert code == 1
        assert f"{field} must be finite, got {float(value)!r}" in capsys.readouterr().err
        assert not (tmp_path / "parent.model").exists()


class TestMorph:
    @pytest.mark.parametrize("flag,value,field", [
        ("--tol", "nan", "tol"), ("--lambda", "nan", "lam"), ("--alpha", "inf", "alpha"),
    ])
    def test_non_finite_setting_is_user_error(self, parent_dir, capsys, flag, value, field):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "10", flag, value, "--out", "never.model",
            "--out-dir", str(parent_dir),
        )
        assert code == 1
        assert f"{field} must be finite, got {float(value)!r}" in capsys.readouterr().err
        assert not (parent_dir / "never.model").exists()

    def test_unwritable_report_leaves_no_child(self, parent_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
                   "--at", "1", "--width", "10", "--report", str(tmp_path / "nodir" / "r.json"),
                   "--out", "child.model", "--out-dir", str(out)) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not (out / "child.model").exists()

    def test_unwritable_child_leaves_no_report(self, parent_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
                   "--at", "1", "--width", "10", "--report", "r.json",
                   "--out", os.path.join("nodir", "child.model"), "--out-dir", str(out)) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert list(out.iterdir()) == []  # neither the report nor its temporary file

    def test_morph_writes_child_and_report(self, parent_dir, capsys):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "20", "--act", "relu", "--alg", "alg2",
            "--lambda", "0.1", "--alpha", "0.1", "--seed", "2", "--max-itr", "800",
            "--tol", "1e-8", "--probe-size", "250",
            "--out", "child.model", "--out-dir", str(parent_dir),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "20 ->" in out
        parent, parent_meta = load_model(parent_dir / "parent.model")
        child, meta = load_model(parent_dir / "child.model")
        assert len(child.layers) == len(parent.layers) + 1
        recorded = MorphSpec(**{**meta["spec"], "sparse": SparseConfig(**meta["spec"]["sparse"])})
        assert recorded == MorphSpec(
            insert_after=1, width=20, activation="relu", algorithm="alg2",
            sparse=SparseConfig(lam=0.1, alpha=0.1, max_itr=800, tol=1e-8), seed=2,
        )
        assert meta["probe_size"] == 250
        assert meta["parent_metadata"] == parent_meta
        report = load_report_json(parent_dir / "child.model.report.json")
        assert 0 < report.n_sparse <= 20

    def test_baseline_ratio_one(self, base_report):
        assert load_report_json(base_report).compression_ratio == 1.0

    def test_algorithm_defaults_to_morph_spec(self, parent_dir, capsys):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "10", "--out", "default.model",
            "--out-dir", str(parent_dir),
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("alg1: ")
        assert load_model(parent_dir / "default.model")[1]["spec"]["algorithm"] == "alg1"
        assert load_report_json(parent_dir / "default.model.report.json").algorithm == "alg1"

    @pytest.mark.parametrize("alg", ["alg3", "baseline"])
    def test_fold_beta_outside_alg1_alg2_is_user_error(self, parent_dir, capsys, alg):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "10", "--alg", alg, "--fold-beta",
            "--out", "never.model", "--out-dir", str(parent_dir),
        )
        assert code == 1
        assert f"fold_beta applies to alg1 and alg2 only; {alg}" in capsys.readouterr().err
        assert not (parent_dir / "never.model").exists()

    def test_fold_beta_through_sigmoid_is_user_error(self, parent_dir, capsys):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "10", "--act", "sigmoid", "--fold-beta",
            "--out", "never.model", "--out-dir", str(parent_dir),
        )
        assert code == 1
        assert "fold_beta applies to relu and identity layers only" in capsys.readouterr().err
        assert not (parent_dir / "never.model").exists()

    def test_huge_lambda_exits_with_hint(self, parent_dir, capsys):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "10", "--alg", "alg1", "--lambda", "1e9",
            "--out", "never.model", "--out-dir", str(parent_dir),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "lambda" in err
        assert err.endswith("; use a smaller lambda\n")
        assert not (parent_dir / "never.model").exists()

    def test_silent_baseline_gets_no_lambda_advice(self, tmp_path, capsys):
        # a zero first layer silences every inserted neuron, and without a
        # downstream bias baseline's readout has nothing to fit
        silent = Mlp([Layer(np.zeros((12, 4)), None, "relu"),
                      Layer(np.ones((4, 3)), None, "identity")])
        mio.save_model(silent, str(tmp_path / "silent.model"))
        code = run("morph", "--model", str(tmp_path / "silent.model"), "--data", SYNTH,
                   "--at", "0", "--width", "6", "--alg", "baseline", "--out", "never.model",
                   "--out-dir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: every inserted neuron is silent on the probe and the downstream " \
                      f"layer has no bias, so the readout has nothing to fit; {NO_SIGNAL_ADVICE}\n"
        assert not (tmp_path / "never.model").exists()

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_probe_size_below_one_exits_with_hint(self, parent_dir, capsys, size):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "10", "--probe-size", size,
            "--out", "never.model", "--out-dir", str(parent_dir),
        )
        assert code == 1
        assert "probe" in capsys.readouterr().err
        assert not (parent_dir / "never.model").exists()

    @pytest.mark.parametrize("n", [0, 1])
    def test_split_too_small_for_a_probe_names_the_spec_parameter(self, parent_dir, capsys, n):
        # the advice is the split's size, not --probe-size, which is 4096 already
        data = f"synth:n={n},test=5,d=12"
        code = run("morph", "--model", str(parent_dir / "parent.model"), "--data", data,
                   "--at", "1", "--width", "10", "--out", "never.model",
                   "--out-dir", str(parent_dir))
        assert code == 1
        counted = "1 row" if n == 1 else "0 rows"
        assert capsys.readouterr().err == (f"error: --data {data!r}: the train split has "
                                           f"{counted}, and a morph needs a probe of at least 2; "
                                           f"raise n\n")
        assert not (parent_dir / "never.model").exists()

    def test_unreadable_model_is_user_error(self, tmp_path):
        code = run("morph", "--model", str(tmp_path / "nope.model"), "--data", SYNTH,
                   "--at", "0", "--width", "4", "--out-dir", str(tmp_path))
        assert code == 1


def test_flag_defaults_are_the_dataclass_defaults():
    # each default is read from its dataclass, never restated
    parser = build_parser()
    data = ["--data", SYNTH]
    train_dests = {"learning_rate": "lr"}
    for argv in (["train", *data, "--arch", "12,3"], ["finetune", "--model", "m", *data]):
        args = parser.parse_args(argv)
        for f in dataclasses.fields(TrainConfig):
            assert getattr(args, train_dests.get(f.name, f.name)) == f.default, (argv[0], f.name)
    args = parser.parse_args(["morph", "--model", "m", *data, "--at", "0", "--width", "4"])
    for f in dataclasses.fields(SparseConfig):
        assert getattr(args, f.name) == f.default, f.name
    spec_dests = {"activation": "act", "algorithm": "alg", "seed": "seed", "fold_beta": "fold_beta"}
    for name, dest in spec_dests.items():
        assert getattr(args, dest) == getattr(MorphSpec, name), name


@pytest.mark.parametrize("command", ["train", "morph", "finetune"])
def test_only_eval_chooses_a_split(parent_dir, tmp_path, capsys, dataset_cache, command):
    # train, morph and finetune read the train split: --split is no flag of theirs
    flags = {"train": ("--arch", "12,6,3"),
             "morph": ("--model", str(parent_dir / "parent.model"), "--at", "0", "--width", "6"),
             "finetune": ("--model", str(parent_dir / "parent.model"))}[command]
    out = tmp_path / "out"
    assert run(command, "--data", SYNTH, *flags, "--split", "test", "--out-dir", str(out)) == 1
    assert "unrecognized arguments: --split test" in capsys.readouterr().err
    assert not out.exists() and not dataset_cache.exists()


class TestEvalAndFinetune:
    def test_eval_deterministic(self, parent_dir, capsys):
        args = ("eval", "--model", str(parent_dir / "parent.model"),
                "--data", SYNTH, "--split", "test")
        assert run(*args) == 0
        first = capsys.readouterr().out
        assert run(*args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "accuracy" in first

    def test_eval_records_into_report(self, parent_dir, base_report):
        code = run(
            "eval", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--split", "test", "--report", str(base_report), "--as", "acc_parent",
        )
        assert code == 0
        assert not np.isnan(load_report_json(base_report).acc_parent)

    def test_finetune_zero_lr_keeps_accuracy(self, parent_dir, capsys):
        model = str(parent_dir / "parent.model")
        run("eval", "--model", model, "--data", SYNTH, "--split", "test")
        before = capsys.readouterr().out
        code = run(
            "finetune", "--model", model, "--data", SYNTH, "--lr", "0",
            "--epochs", "2", "--seed", "3", "--out", "tuned.model",
            "--history", "tuned_history.csv", "--out-dir", str(parent_dir),
        )
        assert code == 0
        run("eval", "--model", str(parent_dir / "tuned.model"), "--data", SYNTH,
            "--split", "test")
        after = capsys.readouterr().out
        assert before.splitlines()[-1] == after.splitlines()[-1]

    @pytest.mark.parametrize("flags", [("--as", "acc_parent"), ("--eval-split", "test")])
    def test_finetune_has_no_record_flags(self, parent_dir, flags):
        # finetune records only acc_after_finetune, from the test split of --eval-data
        assert run("finetune", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
                   "--epochs", "1", "--eval-data", SYNTH, *flags,
                   "--out", "never.model", "--out-dir", str(parent_dir)) == 1
        assert not (parent_dir / "never.model").exists()

    @pytest.mark.parametrize("eval_data", ["synth:n=60,test=0,d=12,classes=3,seed=4",
                                           "synth:n=60,test=20,d=12,classes=5,seed=4"])
    def test_finetune_refused_eval_data_writes_nothing(self, parent_dir, tmp_path, capsys,
                                                       eval_data):
        # an empty test split, or labels past the network's 3 outputs, is
        # refused before the tuned model or a history row is written
        history = tmp_path / "history.csv"
        history.write_bytes((parent_dir / "parent_history.csv").read_bytes())
        before = history.read_bytes()
        assert run("finetune", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
                   "--epochs", "1", "--eval-data", eval_data, "--out", "tuned.model",
                   "--out-dir", str(tmp_path)) == 1
        assert "evaluation features: " in capsys.readouterr().err
        assert not (tmp_path / "tuned.model").exists()
        assert history.read_bytes() == before

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_finetune_unreadable_report_writes_nothing(self, parent_dir, tmp_path, capsys,
                                                       content):
        # --report is read before training, so a missing or malformed report
        # leaves neither the tuned model nor a history file
        report = tmp_path / "tuned.report.json"
        if content is not None:
            report.write_text(content)
        out = tmp_path / "out"
        assert run("finetune", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
                   "--epochs", "1", "--report", str(report), "--out", "tuned.model",
                   "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "tuned.model").exists()
        assert not (out / "history.csv").exists()

    def test_eval_of_empty_split_is_user_error(self, parent_dir, capsys):
        assert run("eval", "--model", str(parent_dir / "parent.model"),
                   "--data", "synth:n=60,test=0,d=12,classes=3,seed=4", "--split", "test") == 1
        assert "evaluation features: 0 rows" in capsys.readouterr().err

    def test_bad_train_setting_is_user_error(self, tmp_path, capsys):
        assert run("train", "--data", SYNTH, "--arch", "12,6,3", "--momentum", "1.0",
                   "--out-dir", str(tmp_path)) == 1
        assert "error: momentum must lie in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "parent.model").exists()

    def test_finetune_appends_history(self, parent_dir):
        model = str(parent_dir / "parent.model")
        hist = parent_dir / "appended.csv"
        for _ in range(2):
            assert run(
                "finetune", "--model", model, "--data", SYNTH, "--lr", "0.01",
                "--epochs", "1", "--seed", "3", "--out", "tuned2.model",
                "--history", "appended.csv", "--out-dir", str(parent_dir),
            ) == 0
        rows = hist.read_text().strip().splitlines()
        assert rows[0] == "epoch,loss,accuracy"
        assert len(rows) == 3  # header + one epoch per invocation

    def test_finetune_zero_epochs_appends_no_row_and_records_the_input_accuracy(
            self, parent_dir, base_report, tmp_path):
        model = parent_dir / "parent.model"
        history, report = tmp_path / "history.csv", tmp_path / "tuned.report.json"
        history.write_bytes((parent_dir / "parent_history.csv").read_bytes())
        report.write_bytes(base_report.read_bytes())
        before = history.read_bytes()
        assert run("finetune", "--model", str(model), "--data", SYNTH, "--epochs", "0",
                   "--eval-data", SYNTH, "--report", str(report),
                   "--out-dir", str(tmp_path)) == 0
        assert history.read_bytes() == before
        _, accuracy = evaluate(load_model(model)[0], _load_dataset(SYNTH, "test"))
        recorded = load_report_json(report).acc_after_finetune
        assert np.float64(recorded).tobytes() == np.float64(accuracy).tobytes()

    def test_finetune_without_eval_data_records_the_test_accuracy_of_data(
            self, parent_dir, base_report, tmp_path, caplog, capsys):
        # --eval-data defaults to --data: the recorded accuracy is the one
        # `eval --split test` gives the tuned model, and a warm finetune reads
        # the float32 train entry and the test split, never the float64 train
        # split
        report = tmp_path / "tuned.report.json"
        report.write_bytes(base_report.read_bytes())
        finetune = ("finetune", "--model", str(parent_dir / "parent.model"), "--data", HARD,
                    "--epochs", "1", "--lr", "0.05", "--seed", "3", "--report", str(report),
                    "--out", "tuned.model", "--out-dir", str(tmp_path))
        caplog.set_level(logging.INFO, logger="morphkit.io")
        assert run(*finetune) == 0  # a cold cache: draws HARD and writes its entries
        caplog.clear()
        assert run(*finetune) == 0
        reads = [r.getMessage() for r in caplog.records if r.name == "morphkit.io"]
        assert [r.split(": ")[0] for r in reads] == ["dataset cache hit"] * 2
        assert reads[0].endswith("-train-float32.npys") and reads[1].endswith("-test.npys")
        capsys.readouterr()
        assert run("eval", "--model", str(tmp_path / "tuned.model"), "--data", HARD,
                   "--split", "test") == 0
        evaluated = float(capsys.readouterr().out.split(" accuracy ")[1])
        recorded = load_report_json(report).acc_after_finetune
        assert np.float64(recorded).tobytes() == np.float64(evaluated).tobytes()

    def test_same_run_under_two_out_dirs_gives_identical_files(self, tmp_path):
        # model metadata records the request, not where its files live
        names = ("parent.model", "child.model", "tuned.model")
        contents = []
        for run_dir in (tmp_path / "a", tmp_path / "b" / "deeper"):
            assert run("train", "--data", SYNTH, "--arch", "12,8,3", "--epochs", "1",
                       "--out-dir", str(run_dir)) == 0
            assert run("morph", "--model", str(run_dir / "parent.model"), "--data", SYNTH,
                       "--at", "0", "--width", "6", "--out", "child.model",
                       "--out-dir", str(run_dir)) == 0
            assert run("finetune", "--model", str(run_dir / "child.model"), "--data", SYNTH,
                       "--epochs", "1", "--out", "tuned.model", "--out-dir", str(run_dir)) == 0
            contents.append([(run_dir / name).read_bytes() for name in names])
        assert contents[0] == contents[1]

    def test_finetune_draws_synthetic_data_once(self, tmp_path, monkeypatch):
        data = "lowrank:n=200,test=60,d=30,classes=3,side_dims=4,seed=5"
        assert run("train", "--data", data, "--arch", "30,8,3", "--epochs", "1",
                   "--out-dir", str(tmp_path)) == 0
        draws = count_draws(monkeypatch)
        # `train` cached the draw; count the draws of a cold finetune
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold-cache"))
        blank = MorphReport(algorithm="alg1", activation="relu", n_redundant=8, n_sparse=4,
                            compression_ratio=0.5, preservation_max=0.0,
                            preservation_rms=0.0, sparse_stop_reason="converged",
                            wall_time_s=0.0)
        tuned_report, eval_report = tmp_path / "tuned.report.json", tmp_path / "eval.report.json"
        save_report_json(blank, tuned_report)
        save_report_json(blank, eval_report)
        assert run("finetune", "--model", str(tmp_path / "parent.model"), "--data", data,
                   "--epochs", "1", "--out", "tuned.model", "--out-dir", str(tmp_path),
                   "--eval-data", data, "--report", str(tuned_report)) == 0
        assert len(draws) == 1
        assert run("eval", "--model", str(tmp_path / "tuned.model"), "--data", data,
                   "--split", "test", "--report", str(eval_report),
                   "--as", "acc_after_finetune") == 0
        assert len(draws) == 1  # the eval read the finetune's draw back
        recorded = load_report_json(tuned_report).acc_after_finetune
        separate = load_report_json(eval_report).acc_after_finetune
        assert not np.isnan(recorded)
        assert np.float64(recorded).tobytes() == np.float64(separate).tobytes()

    def test_finetune_records_each_tuning(self, parent_dir):
        model = str(parent_dir / "parent.model")
        _, parent_meta = load_model(model)
        metas = {}
        for lr in ("0.01", "0.05"):
            assert run("finetune", "--model", model, "--data", SYNTH, "--lr", lr,
                       "--epochs", "1", "--seed", "3", "--out", f"lr{lr}.model",
                       "--history", "lr.csv", "--out-dir", str(parent_dir)) == 0
            metas[lr] = load_model(parent_dir / f"lr{lr}.model")[1]
        assert metas["0.01"] != metas["0.05"]
        # a parent has no `spec`, so its tunings hold no layer fixed
        for lr, meta in metas.items():
            assert meta == {**parent_meta, "finetune": [{**dataclasses.asdict(TrainConfig(
                learning_rate=float(lr), weight_decay=1e-6, epochs=1, seed=3)),
                "frozen_layers": 0}]}
        # tuning a tuned model appends, and the parent's schedule stays as it was
        assert run("finetune", "--model", str(parent_dir / "lr0.01.model"), "--data", SYNTH,
                   "--epochs", "2", "--out", "twice.model", "--history", "lr.csv",
                   "--out-dir", str(parent_dir)) == 0
        twice = load_model(parent_dir / "twice.model")[1]
        assert [t["learning_rate"] for t in twice["finetune"]] == [0.01, 0.005]
        assert [t["epochs"] for t in twice["finetune"]] == [1, 2]
        assert [t["frozen_layers"] for t in twice["finetune"]] == [0, 0]
        assert twice["train"] == parent_meta["train"]


class TestFrozenFinetune:
    """`finetune` trains a morphed child's layers above the insertion only."""

    @pytest.fixture(scope="class")
    def child(self, parent_dir):
        # the 12-10-8-3 parent with a layer inserted after layer 1: layers
        # 0 and 1 are the parent's, 2 is the inserted one, 3 the refit readout
        assert run("morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
                   "--at", "1", "--width", "6", "--seed", "2", "--out", "frozen-child.model",
                   "--out-dir", str(parent_dir)) == 0
        return parent_dir / "frozen-child.model"

    @staticmethod
    def tune(model, out_dir, *flags):
        return run("finetune", "--model", str(model), "--data", SYNTH, "--lr", "0.01",
                   "--epochs", "2", "--seed", "3", *flags, "--out", "tuned.model",
                   "--out-dir", str(out_dir))

    def test_layers_up_to_the_insertion_keep_the_child_bytes(self, child, tmp_path):
        assert self.tune(child, tmp_path) == 0
        net, _ = load_model(child)
        tuned, meta = load_model(tmp_path / "tuned.model")
        assert layer_bytes(tuned)[:2] == layer_bytes(net)[:2]
        assert all(a != b for a, b in zip(layer_bytes(tuned)[2:], layer_bytes(net)[2:]))
        assert meta["finetune"][-1]["frozen_layers"] == 2
        # the layers above are `train_sgd` on the frozen layers' outputs
        cfg = TrainConfig(learning_rate=0.01, weight_decay=1e-6, epochs=2, seed=3)
        split = _load_dataset(SYNTH, "train", np.float32)
        lower = _copied(Mlp(net.layers[:2]), np.float32)
        outputs = _layer_outputs(lower, split.features)[-1]
        upper, _ = train_sgd(Mlp(net.layers[2:]), mio.Dataset(outputs, split.labels), cfg)
        assert layer_bytes(tuned)[2:] == layer_bytes(upper)

    def test_a_parent_is_tuned_in_full_as_before(self, parent_dir, tmp_path):
        # no `spec`, so no layer is held fixed: `train_sgd` on the float32
        # split, the bytes every earlier version wrote
        parent, _ = load_model(parent_dir / "parent.model")
        assert self.tune(parent_dir / "parent.model", tmp_path) == 0
        tuned, meta = load_model(tmp_path / "tuned.model")
        cfg = TrainConfig(learning_rate=0.01, weight_decay=1e-6, epochs=2, seed=3)
        want, _ = train_sgd(parent, _load_dataset(SYNTH, "train", np.float32), cfg)
        assert layer_bytes(tuned) == layer_bytes(want)
        assert meta["finetune"][-1]["frozen_layers"] == 0

    def test_calls_the_cli_binding_of_train_sgd_once_with_the_frozen_count(
            self, child, parent_dir, tmp_path, monkeypatch):
        # `morphkit.cli.train_sgd` is the binding the benchmark's tracer wraps
        cli = importlib.import_module("morphkit.cli")
        original, calls = cli.train_sgd, []
        monkeypatch.setattr(cli, "train_sgd", lambda mlp, data, cfg, frozen:
                            calls.append(frozen) or original(mlp, data, cfg, frozen))
        assert self.tune(child, tmp_path / "child") == 0
        assert calls == [load_model(child)[1]["spec"]["insert_after"] + 1] == [2]
        assert self.tune(parent_dir / "parent.model", tmp_path / "parent") == 0
        assert calls == [2, 0]

    def test_zero_epochs_keep_the_child_bytes(self, child, tmp_path):
        assert self.tune(child, tmp_path, "--epochs", "0") == 0
        assert layer_bytes(load_model(tmp_path / "tuned.model")[0]) == \
            layer_bytes(load_model(child)[0])

    @pytest.mark.parametrize("at", [-1, 3, 9, "1", 1.0, True, None, "no spec object"])
    def test_insert_after_that_indexes_no_non_final_layer_is_user_error(self, child, tmp_path,
                                                                       capsys, at):
        net, meta = load_model(child)
        spec = [] if at == "no spec object" else {**meta["spec"], "insert_after": at}
        model = tmp_path / "edited.model"
        mio.save_model(net, model, metadata={**meta, "spec": spec})
        assert self.tune(model, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --model {str(model)!r}: metadata spec.insert_after is "
                              f"{None if at == 'no spec object' else at!r}, which indexes no "
                              f"non-final layer of its 4 layers"), err
        assert not (tmp_path / "out").exists()

    def test_finetune_metadata_that_is_no_list_is_user_error(self, child, tmp_path, capsys,
                                                             dataset_cache):
        net, meta = load_model(child)
        model = tmp_path / "edited.model"
        mio.save_model(net, model, metadata={**meta, "finetune": 5})
        assert self.tune(model, tmp_path / "out") == 1
        assert capsys.readouterr().err == (f"error: --model {str(model)!r}: metadata finetune "
                                           "is 5, not the list of earlier tunings\n")
        assert not (tmp_path / "out").exists() and not dataset_cache.exists()

    def test_frozen_weight_beyond_float32_is_refused_by_name(self, child, tmp_path, capsys):
        net, meta = load_model(child)
        net.layers[0].weight[2, 3] = 4e38
        model = tmp_path / "huge.model"
        mio.save_model(net, model, metadata=meta)
        assert self.tune(model, tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(
            "error: layer 0 weight: an entry of magnitude 4e+38 is beyond 3.40282e+38")
        assert not (tmp_path / "out" / "tuned.model").exists()


def layer_bytes(net):
    return [_layer_bytes(l) for l in net.layers]

def count_draws(monkeypatch):
    """Route both generators through a counter; returns the list of draws."""
    draws = []
    for name in ("synth_dataset", "synth_lowrank_dataset"):
        original = getattr(mio, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            draws.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(mio, name, counted)
    return draws


LOWRANK = "lowrank:n=80,test=30,d=30,classes=3,side_dims=4,seed=5"


def fresh_split(spec, split):
    """The split as drawn without any cache."""
    if spec.startswith("lowrank"):
        full = mio.synth_lowrank_dataset(5, 110, 30, 3, side_dims=4)
        n = 80
    else:
        full = mio.synth_dataset(4, 400, 12, 3)
        n = 300
    rows = slice(0, n) if split == "train" else slice(n, None)
    return full.features[rows], full.labels[rows]


def write_idx(directory):
    """A 30-row train and a 10-row t10k IDX pair of 2x3 images, 3 classes."""
    rng = np.random.default_rng(0)
    directory.mkdir(parents=True, exist_ok=True)
    for prefix, count in (("train", 30), ("t10k", 10)):
        pixels = rng.integers(0, 256, size=(count, 2, 3), dtype=np.uint8)
        with open(directory / f"{prefix}-images-idx3-ubyte", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, count, 2, 3) + pixels.tobytes())
        with open(directory / f"{prefix}-labels-idx1-ubyte", "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, count) + bytes(np.arange(count) % 3))


class TestDataSpec:
    @pytest.mark.parametrize("data,key,kind,value", [
        ("synth:n", "n", "an int", "''"),
        ("synth:n=1e3", "n", "an int", "'1e3'"),
        ("synth:d=x", "d", "an int", "'x'"),
        ("lowrank:spacing=wide", "spacing", "a float", "'wide'"),
    ], ids=["no-value", "exponent", "letter", "float"])
    def test_bad_value_names_spec_key_and_type(self, tmp_path, capsys, dataset_cache,
                                                data, key, kind, value):
        assert run("train", "--data", data, "--arch", "20,6,3", "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert f"--data {data!r}: {key} needs {kind}, got {value}" in err
        assert not dataset_cache.exists()

    @pytest.mark.parametrize("data,key", [("synth:n=60,test=20,sep=nan", "sep"),
                                          ("lowrank:n=60,test=20,spacing=inf", "spacing"),
                                          ("lowrank:n=60,test=20,side_scale=-inf", "side_scale")],
                             ids=["synth-sep", "lowrank-spacing", "lowrank-side_scale"])
    def test_non_finite_float_names_spec_parameter(self, tmp_path, capsys, monkeypatch,
                                                   dataset_cache, data, key):
        draws = count_draws(monkeypatch)
        assert run("train", "--data", data, "--arch", "20,8,3", "--epochs", "1",
                   "--out-dir", str(tmp_path)) == 1
        assert f"error: --data {data!r}: {key} must be finite\n" in capsys.readouterr().err
        assert draws == [] and not dataset_cache.exists()

    @pytest.mark.parametrize("data", ["synthetic:n=7,test=2,d=3",
                                      "lowrank-old:n=7,test=2,d=40,side_dims=3"])
    def test_generator_name_must_match_exactly(self, tmp_path, capsys, dataset_cache, data):
        assert run("train", "--data", data, "--arch", "3,4,3", "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert f"--data {data!r} is neither" in err and "nor a directory" in err
        assert not dataset_cache.exists()

    def test_directory_named_like_a_generator_is_read_as_idx(self, tmp_path, monkeypatch,
                                                             dataset_cache):
        write_idx(tmp_path / "synth_images")
        monkeypatch.chdir(tmp_path)
        data = _load_dataset("synth_images", "train")
        want = mio.read_idx(tmp_path / "synth_images" / "train-images-idx3-ubyte",
                            tmp_path / "synth_images" / "train-labels-idx1-ubyte")
        assert data.features.tobytes() == want.features.tobytes()
        assert data.labels.tobytes() == want.labels.tobytes()
        assert run("train", "--data", "synth_images", "--arch", "6,4,3", "--epochs", "1",
                   "--out-dir", "out") == 0
        assert not dataset_cache.exists()

    @pytest.mark.parametrize("dims", [(31, 2, 3), (2**32 - 1,) * 3],
                             ids=["past the file", "product past an index"])
    def test_corrupt_idx_header_is_one_error_line(self, tmp_path, capsys, dims):
        write_idx(tmp_path / "idx")
        images = tmp_path / "idx" / "train-images-idx3-ubyte"
        images.write_bytes(struct.pack(">IIII", 0x00000803, *dims) + images.read_bytes()[16:])
        assert run("train", "--data", str(tmp_path / "idx"), "--arch", "6,4,3",
                   "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {images}: truncated image data") and err.count("\n") == 1
        assert "Traceback" not in err and not (tmp_path / "out").exists()


    @pytest.mark.parametrize("data,refusal", [
        ("synth:d=0", "n, d and classes must all be >= 1"),
        ("synth:classes=0", "n, d and classes must all be >= 1"),
        ("lowrank:side_dims=900", "side_dims + 1 must not exceed the feature count"),
    ])
    def test_value_the_generator_refuses_names_spec(self, tmp_path, capsys, dataset_cache,
                                                     data, refusal):
        assert run("train", "--data", data, "--arch", "20,6,3", "--out-dir", str(tmp_path)) == 1
        assert f"error: --data {data!r}: {refusal}\n" in capsys.readouterr().err
        assert not dataset_cache.exists()

    @pytest.mark.parametrize("from_env", [True, False], ids=["MORPHKIT_MNIST", "default"])
    def test_missing_mnist_names_the_directory_it_looked_in(self, tmp_path, capsys, monkeypatch,
                                                            from_env):
        monkeypatch.chdir(tmp_path)
        if from_env:
            looked_in, source = str(tmp_path / "absent"), "$MORPHKIT_MNIST"
            monkeypatch.setenv("MORPHKIT_MNIST", looked_in)
        else:
            looked_in, source = os.path.join(os.getcwd(), "data", "mnist"), "the default"
            monkeypatch.delenv("MORPHKIT_MNIST", raising=False)
        assert run("train", "--data", "mnist", "--arch", "784,6,10", "--out-dir", "out") == 1
        err = capsys.readouterr().err
        assert f"--data 'mnist': no directory {looked_in!r}" in err and source in err


class TestDatasetCache:
    @pytest.mark.parametrize("spec", [LOWRANK, SYNTH], ids=["lowrank", "synth"])
    @pytest.mark.parametrize("splits", [("train",), ("test",), ("test", "train"),
                                        ("train", "test")])
    def test_hit_is_bit_identical_to_fresh_draw(self, monkeypatch, dataset_cache, spec, splits):
        draws = count_draws(monkeypatch)
        cold = []
        for split in splits:
            # the first, cold read writes the entries of both splits
            cold.append(_load_dataset(spec, split))
            assert len(draws) == 1 and len(list(dataset_cache.iterdir())) == 2
        warm = [_load_dataset(spec, split) for split in splits]
        assert len(draws) == 1
        for split, a, b in zip(splits, cold, warm):
            features, labels = fresh_split(spec, split)
            for data in (a, b):
                assert data.features.tobytes() == features.tobytes()
                assert data.labels.tobytes() == labels.tobytes()
                assert data.features.shape == features.shape
                # a miss hands back its draw as read-only as a hit's mapping
                assert not data.features.flags.writeable and not data.labels.flags.writeable

    @pytest.mark.parametrize("entry,damage", [
        *(pytest.param(entry, damage, id=f"{prefix}{damage}")
          for entry, prefix in (("split", ""), ("probe", "probe "))
          for damage in ("truncated", "flipped byte", "bad header", "empty"))])
    def test_damaged_entry_is_redrawn_and_rewritten(self, tmp_path, monkeypatch, dataset_cache,
                                                    entry, damage):
        train = ("train", "--data", LOWRANK, "--arch", "30,6,3", "--epochs", "1")
        assert run(*train, "--out-dir", str(tmp_path / "a")) == 0
        morph = ("morph", "--model", str(tmp_path / "a" / "parent.model"), "--data", LOWRANK,
                 "--at", "0", "--width", "8")
        # a damaged split is drawn again; a damaged probe entry is computed
        # again from the intact split
        args, product, redraws, pattern = {
            "split": (train, "parent.model", ["synth_lowrank_dataset"], "*-train.npys"),
            "probe": (morph, "child.model", [], "probe-*.npys"),
        }[entry]
        if entry == "probe":
            assert run(*morph, "--out-dir", str(tmp_path / "a")) == 0
        (path,) = dataset_cache.glob(pattern)
        good = path.read_bytes()
        damaged = {
            "truncated": good[: len(good) // 2],
            # a low bit of one value, past the 128-byte npy header
            "flipped byte": good[:200] + bytes([good[200] ^ 0x01]) + good[201:],
            "bad header": b"\x93NUMPY\x01\x00" + b"{garbage" + good[16:],
            "empty": b"",
        }[damage]
        path.write_bytes(damaged)
        draws = count_draws(monkeypatch)
        assert run(*args, "--out-dir", str(tmp_path / "b")) == 0
        assert draws == redraws
        assert path.read_bytes() == good
        assert (tmp_path / "a" / product).read_bytes() == (tmp_path / "b" / product).read_bytes()

    def test_training_reads_the_float32_rounding_of_the_split(self, tmp_path, monkeypatch,
                                                              dataset_cache):
        train = ("train", "--data", LOWRANK, "--arch", "30,6,3", "--epochs", "1")
        assert run(*train, "--out-dir", str(tmp_path / "a")) == 0
        (f64,) = dataset_cache.glob("lowrank-*-train.npys")
        (f32,) = dataset_cache.glob("lowrank-*-train-float32.npys")
        assert f32.name == f64.name[:-len(".npys")] + "-float32.npys"
        assert len(list(dataset_cache.iterdir())) == 3  # and the test split's entry
        features, labels = fresh_split(LOWRANK, "train")
        hit = mio.read_cached_split(f32, features.shape, np.float32)
        assert hit.features.tobytes() == features.astype(np.float32).tobytes()
        assert hit.labels.tobytes() == labels.tobytes()
        # a warm train reads that entry, draws nothing and writes the same files
        draws = count_draws(monkeypatch)
        assert run(*train, "--out-dir", str(tmp_path / "b")) == 0
        assert draws == []
        for name in ("parent.model", "history.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_cold_read_holds_no_float32_copy_next_to_the_draw(self, tmp_path, dataset_cache):
        # a cold read rounds the float32 entry from the draw and writes it a
        # block of rows at a time, then maps it: it allocates no more than
        # the draw does, and never the 12.5 MB rounding of the 4,000 rows
        spec, n, d = "lowrank:n=4000,test=500", 4000, 784

        def traced_peak(fn):
            tracemalloc.start()
            try:
                return fn(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        data, peak = traced_peak(lambda: _load_dataset(spec, "train", np.float32))
        _, draw_peak = traced_peak(lambda: mio.synth_lowrank_dataset(11, n + 500, d))
        assert peak < draw_peak + 0.25 * n * d * 4, \
            f"peak {peak / 2**20:.1f} MiB, the draw's {draw_peak / 2**20:.1f} MiB"
        assert data.features.dtype == np.float32 and not data.features.flags.writeable
        # the entry has the bytes of one written from the whole rounding
        (f64,) = dataset_cache.glob("lowrank-*-train.npys")
        (f32,) = dataset_cache.glob("lowrank-*-train-float32.npys")
        split = mio.read_cached_split(f64, (n, d))
        whole = tmp_path / "whole.npys"
        assert mio.write_cached_split(whole, mio.Dataset(split.features.astype(np.float32),
                                                         split.labels))
        assert f32.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("damage", ["truncated", "flipped byte", "float64 records"])
    def test_damaged_float32_entry_is_rebuilt(self, tmp_path, monkeypatch, caplog,
                                              dataset_cache, damage):
        assert run("train", "--data", LOWRANK, "--arch", "30,6,3", "--epochs", "1",
                   "--out-dir", str(tmp_path)) == 0
        finetune = ("finetune", "--model", str(tmp_path / "parent.model"), "--data", LOWRANK,
                    "--epochs", "2", "--eval-data", LOWRANK, "--out", "tuned.model")
        assert run(*finetune, "--out-dir", str(tmp_path / "a")) == 0
        (path,) = dataset_cache.glob("*-train-float32.npys")
        good = path.read_bytes()
        path.write_bytes({
            "truncated": good[: len(good) // 2],
            "flipped byte": good[:200] + bytes([good[200] ^ 0x01]) + good[201:],
            # a well-formed entry of the float64 split, under the float32 name
            "float64 records": next(dataset_cache.glob("*-train.npys")).read_bytes(),
        }[damage])
        draws = count_draws(monkeypatch)
        caplog.set_level(logging.INFO, logger="morphkit.io")
        assert run(*finetune, "--out-dir", str(tmp_path / "b")) == 0
        misses = [r.getMessage() for r in caplog.records
                  if r.name == "morphkit.io" and " miss" in r.getMessage()]
        assert len(misses) == 1 and misses[0].endswith(str(path))
        # rebuilt from the intact float64 split, with the bytes it had
        assert draws == []
        assert path.read_bytes() == good
        assert (tmp_path / "a" / "tuned.model").read_bytes() == \
            (tmp_path / "b" / "tuned.model").read_bytes()

    def test_split_beyond_float32_is_refused_by_name_and_not_cached(self, tmp_path, capsys,
                                                                    dataset_cache, monkeypatch):
        drawn = mio.synth_lowrank_dataset

        def at_the_edge(*args, **kwargs):
            data = drawn(*args, **kwargs)
            data.features[0, 0] = 3.40282350e38  # beyond FLOAT32_MAX, and rounds to it
            return data

        # an entry that overflows the rounding, and one the rounding keeps finite
        for data, generator in (("lowrank:n=80,test=30,d=30,classes=3,side_dims=4,seed=5,"
                                 "spacing=1e300", drawn), (LOWRANK, at_the_edge)):
            monkeypatch.setattr(mio, "synth_lowrank_dataset", generator)
            assert run("train", "--data", data, "--arch", "30,6,3", "--epochs", "1",
                       "--out-dir", str(tmp_path)) == 1
            assert "training features: an entry of magnitude" in capsys.readouterr().err
            assert not list(dataset_cache.glob("*-float32.npys"))
            assert not (tmp_path / "parent.model").exists()

    def test_second_morph_of_a_parent_reads_no_split(self, tmp_path, monkeypatch,
                                                     dataset_cache):
        assert run("train", "--data", SYNTH, "--arch", "12,6,3", "--epochs", "1",
                   "--out-dir", str(tmp_path)) == 0
        reads = []
        original = mio.read_cached_split

        def counted(*args):
            reads.append(args)
            return original(*args)

        monkeypatch.setattr(mio, "read_cached_split", counted)
        morph = ("morph", "--model", str(tmp_path / "parent.model"), "--data", SYNTH,
                 "--at", "0", "--width", "8")
        # a cold cache: the split is drawn, and the probe pass cached next to it
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))
        assert run(*morph, "--out-dir", str(tmp_path / "cold-run")) == 0
        assert len(reads) == 1
        entries = sorted(p.name for p in (tmp_path / "cold" / "morphkit").iterdir())
        assert len(entries) == 3 and entries[0].startswith("probe-")
        # every later morph of the parent at that point, of any width or
        # algorithm, reads no split
        assert run(*morph, "--out-dir", str(tmp_path / "warm-run")) == 0
        assert run(*morph, "--alg", "alg3", "--width", "5", "--out-dir",
                   str(tmp_path / "warm-alg3")) == 0
        assert len(reads) == 1
        assert (tmp_path / "cold-run" / "child.model").read_bytes() == \
            (tmp_path / "warm-run" / "child.model").read_bytes()
        assert len(list((tmp_path / "cold" / "morphkit").iterdir())) == 3

    def test_finetune_under_unwritable_cache_draws_again_with_same_bits(self, tmp_path,
                                                                         monkeypatch):
        assert run("train", "--data", SYNTH, "--arch", "12,6,3", "--epochs", "1",
                   "--out-dir", str(tmp_path)) == 0
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        accuracies, models = [], []
        for cache in (tmp_path / "cold-cache", blocker):
            monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
            draws = count_draws(monkeypatch)
            report = tmp_path / f"{cache.name}.report.json"
            save_report_json(MorphReport(algorithm="alg1", activation="relu", n_redundant=6,
                                         n_sparse=6, compression_ratio=1.0,
                                         preservation_max=0.0, preservation_rms=0.0,
                                         sparse_stop_reason="converged", wall_time_s=0.0),
                             report)
            out = tmp_path / f"out-{cache.name}"
            assert run("finetune", "--model", str(tmp_path / "parent.model"), "--data", SYNTH,
                       "--epochs", "1", "--eval-data", SYNTH, "--report", str(report),
                       "--out-dir", str(out)) == 0
            # one draw serves both splits when the train split could be cached
            assert len(draws) == (1 if cache != blocker else 2)
            accuracies.append(np.float64(load_report_json(report).acc_after_finetune).tobytes())
            models.append((out / "finetuned.model").read_bytes())
        assert accuracies[0] == accuracies[1] and models[0] == models[1]
        assert blocker.read_text() == ""

    def test_unwritable_cache_still_succeeds(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert run("train", "--data", SYNTH, "--arch", "12,6,3", "--epochs", "1",
                   "--out-dir", str(tmp_path / "out")) == 0
        assert run("morph", "--model", str(tmp_path / "out" / "parent.model"), "--data", SYNTH,
                   "--at", "0", "--width", "8", "--out-dir", str(tmp_path / "out")) == 0
        assert blocker.read_text() == ""

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="needs POSIX permissions that apply to this user")
    def test_read_only_cache_directory_still_succeeds(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        (cache / "morphkit").mkdir(parents=True)
        (cache / "morphkit").chmod(0o555)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        try:
            assert run("train", "--data", SYNTH, "--arch", "12,6,3", "--epochs", "1",
                       "--out-dir", str(tmp_path / "out")) == 0
            assert list((cache / "morphkit").iterdir()) == []
        finally:
            (cache / "morphkit").chmod(0o755)

    def test_equal_resolved_specs_share_one_entry(self, monkeypatch, dataset_cache):
        draws = count_draws(monkeypatch)
        _load_dataset("synth:n=300,test=100,d=12", "train")
        # the same draw with every default spelled out, in another order
        _load_dataset("synth:sep=6,seed=0,classes=3,d=12,test=100,n=300", "test")
        _load_dataset("synth:n=300,test=100,d=12,seed=1", "test")
        assert draws == ["synth_dataset", "synth_dataset"]
        assert len(list(dataset_cache.iterdir())) == 4

    def test_idx_directory_writes_no_entry(self, tmp_path, dataset_cache):
        write_idx(tmp_path)
        assert run("train", "--data", str(tmp_path), "--arch", "6,4,3", "--epochs", "1",
                   "--out-dir", str(tmp_path / "out")) == 0
        assert run("eval", "--model", str(tmp_path / "out" / "parent.model"),
                   "--data", str(tmp_path), "--split", "test") == 0
        # nor a probe entry
        assert run("morph", "--model", str(tmp_path / "out" / "parent.model"),
                   "--data", str(tmp_path), "--at", "0", "--width", "5",
                   "--out-dir", str(tmp_path / "out")) == 0
        assert not dataset_cache.exists()

    def test_logs_one_line_per_hit_or_miss(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="morphkit.io")
        model = str(tmp_path / "parent.model")
        assert run("train", "--data", SYNTH, "--arch", "12,6,3", "--epochs", "1",
                   "--out-dir", str(tmp_path)) == 0
        assert run("eval", "--model", model, "--data", SYNTH, "--split", "test") == 0
        assert run("finetune", "--model", model, "--data", SYNTH, "--epochs", "1",
                   "--eval-data", SYNTH, "--out-dir", str(tmp_path)) == 0
        lines = [r.getMessage().split(":")[0] for r in caplog.records if r.name == "morphkit.io"]
        # train: float32 train split, float64 train split (drawn), the
        # float32 entry it rounded from that split, read back, and the
        # float64 split again for row 0; eval: test split; finetune: float32
        # train split, test split
        assert lines == ["dataset cache miss", "dataset cache miss", "dataset cache hit",
                         "dataset cache hit", "dataset cache hit", "dataset cache hit",
                         "dataset cache hit"]


class TestVerify:
    def test_list_enumerates_without_running(self, capsys):
        assert run("verify", "--list") == 0
        out = capsys.readouterr().out
        assert "diag-coordinate-oracle" in out
        assert "PASS" not in out

    @pytest.mark.parametrize("level", ["verbose", "10"])
    def test_morphkit_log_must_name_a_level(self, monkeypatch, capsys, level):
        monkeypatch.setenv("MORPHKIT_LOG", "info")  # a level name, in any case
        assert run("verify", "--list") == 0
        capsys.readouterr()
        monkeypatch.setenv("MORPHKIT_LOG", level)
        assert run("verify", "--list") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: MORPHKIT_LOG={level!r} is not a log level: "
            "use DEBUG, INFO, WARNING, ERROR or CRITICAL\n")

    def test_module_entry_point_runs(self):
        import morphkit.verify as verify_mod

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "morphkit.cli", "verify", "--list"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        names = [name for name, _ in verify_mod.CHECKS]
        assert len(names) == 16
        assert proc.stdout.splitlines() == names

    def test_default_run_passes(self, capsys):
        assert run("verify") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_seed_changes_instances_not_outcomes(self, capsys):
        assert run("verify", "--seed", "123") == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_failing_check_exits_two(self, capsys, monkeypatch):
        import morphkit.verify as verify_mod

        def broken(seed):
            raise AssertionError("deliberately broken")

        monkeypatch.setattr(verify_mod, "CHECKS", [("always-fails", broken)])
        assert run("verify") == 2
        assert "FAIL" in capsys.readouterr().out

    def test_check_seeds_follow_names_not_positions(self, monkeypatch):
        import morphkit.verify as verify_mod

        def seeds_seen(checks):
            seen = {}
            recording = [
                (name, lambda seed, name=name: seen.setdefault(name, seed))
                for name, _ in checks
            ]
            monkeypatch.setattr(verify_mod, "CHECKS", recording)
            verify_mod.run_checks(7)
            return seen

        full = list(verify_mod.CHECKS)
        everything = seeds_seen(full)
        assert len(set(everything.values())) == len(full)
        for sublist in (full[1::2], full[::-1], full[5:]):
            seen = seeds_seen(sublist)
            assert seen == {name: everything[name] for name, _ in sublist}


class TestReport:
    def test_collects_jsons_into_csv(self, parent_dir, base_report):
        code = run("report", str(base_report),
                   "--csv", "summary.csv", "--out-dir", str(parent_dir))
        assert code == 0
        lines = (parent_dir / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("run_id,algorithm,activation")
        assert len(lines) == 2

    def test_no_reports_is_user_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("report", "--out-dir", str(empty)) == 1

    @pytest.mark.parametrize("field, value", [("compression_ratio", None), ("n_sparse", "71")])
    def test_field_of_the_wrong_type_is_one_error_line(self, base_report, tmp_path, capsys,
                                                       field, value):
        report = tmp_path / "bad.report.json"
        report.write_text(json.dumps({**json.loads(base_report.read_text()), field: value}))
        assert run("report", str(report), "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report}: report field {field!r} is {value!r}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "report.csv").exists()


def test_command_sequence_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: a fresh interpreter runs train,
    morph, eval and finetune through `cli.main` and never imports scipy."""
    data, out = "synth:n=60,test=20", str(tmp_path / "out")
    child = os.path.join(out, "child.model")
    commands = [
        ["train", "--data", data, "--arch", "20,8,3", "--act", "sigmoid", "--epochs", "1",
         "--out-dir", out],
        ["morph", "--model", os.path.join(out, "parent.model"), "--data", data, "--at", "0",
         "--width", "6", "--act", "sigmoid", "--out-dir", out],
        ["eval", "--model", child, "--data", data, "--split", "test"],
        ["finetune", "--model", child, "--data", data, "--epochs", "1", "--eval-data", data,
         "--out-dir", out],
    ]
    script = (
        "import json, sys\n"
        "from morphkit.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0], proc.stderr
    assert scipy_modules == []
