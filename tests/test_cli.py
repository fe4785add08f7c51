"""End-to-end CLI tests driving main() in-process."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from morphkit.cli import main
from morphkit.io import load_model, load_report_json
from morphkit.network import init_weights

SYNTH = "synth:n=300,test=100,d=12,classes=3,seed=4"


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


class TestTrain:
    def test_writes_model_and_history(self, parent_dir):
        assert (parent_dir / "parent.model").exists()
        history = (parent_dir / "parent_history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,accuracy"
        assert len(history) >= 2

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


class TestMorph:
    def test_morph_writes_child_and_report(self, parent_dir, capsys):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "20", "--act", "relu", "--alg", "alg2",
            "--lambda", "0.1", "--alpha", "0.1", "--seed", "2", "--max-itr", "800",
            "--tol", "1e-8", "--r-cap", "1e5", "--probe-size", "250", "--row-sample", "60",
            "--out", "child.model", "--out-dir", str(parent_dir),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "20 ->" in out
        parent, _ = load_model(parent_dir / "parent.model")
        child, meta = load_model(parent_dir / "child.model")
        assert len(child.layers) == len(parent.layers) + 1
        assert meta["algorithm"] == "alg2"
        request = {key: meta[key] for key in (
            "insert_after", "width", "activation", "lambda", "alpha", "max_itr", "target_nnz",
            "tol", "r_cap", "seed", "fold_beta", "row_sample", "probe_size")}
        assert request == {
            "insert_after": 1, "width": 20, "activation": "relu", "lambda": 0.1, "alpha": 0.1,
            "max_itr": 800, "target_nnz": 0, "tol": 1e-8, "r_cap": 1e5, "seed": 2,
            "fold_beta": False, "row_sample": 60, "probe_size": 250,
        }
        report = load_report_json(parent_dir / "child.model.report.json")
        assert 0 < report.n_sparse <= 20

    def test_baseline_ratio_one(self, parent_dir):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "10", "--alg", "baseline", "--seed", "2",
            "--out", "base.model", "--report", "base.report.json",
            "--out-dir", str(parent_dir),
        )
        assert code == 0
        report = load_report_json(parent_dir / "base.report.json")
        assert report.compression_ratio == 1.0

    def test_huge_lambda_exits_with_hint(self, parent_dir, capsys):
        code = run(
            "morph", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--at", "1", "--width", "10", "--alg", "alg1", "--lambda", "1e9",
            "--out", "never.model", "--out-dir", str(parent_dir),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "lambda" in err
        assert not (parent_dir / "never.model").exists()

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

    def test_unreadable_model_is_user_error(self, tmp_path):
        code = run("morph", "--model", str(tmp_path / "nope.model"), "--data", SYNTH,
                   "--at", "0", "--width", "4", "--out-dir", str(tmp_path))
        assert code == 1


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

    def test_eval_records_into_report(self, parent_dir):
        report_path = parent_dir / "base.report.json"
        code = run(
            "eval", "--model", str(parent_dir / "parent.model"), "--data", SYNTH,
            "--split", "test", "--report", str(report_path), "--as", "acc_parent",
        )
        assert code == 0
        assert not np.isnan(load_report_json(report_path).acc_parent)

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


class TestVerify:
    def test_list_enumerates_without_running(self, capsys):
        assert run("verify", "--list") == 0
        out = capsys.readouterr().out
        assert "diag-coordinate-oracle" in out
        assert "PASS" not in out

    def test_module_entry_point_runs(self):
        import morphkit.verify as verify_mod

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "morphkit.cli", "verify", "--list"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        names = [name for name, _ in verify_mod.CHECKS]
        assert len(names) == 12
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
    def test_collects_jsons_into_csv(self, parent_dir, capsys):
        code = run("report", str(parent_dir / "base.report.json"),
                   "--csv", "summary.csv", "--out-dir", str(parent_dir))
        assert code == 0
        lines = (parent_dir / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("run_id,algorithm,activation")
        assert len(lines) == 2

    def test_no_reports_is_user_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("report", "--out-dir", str(empty)) == 1
