"""Workload process of the morphkit benchmark.

`run.py` starts this file in a fresh interpreter with the BLAS/OpenMP
thread variables pinned, so numpy never sees another thread count. It
builds the workload's inputs from the seed, times the set-up several times,
then repeats the workload's timed pass until the pass boundary nearest to
`--seconds`, one step after another (closed loop, one client). Times are
scaled to reference speed (see `reference_kernel`). Every pass is followed
by output checks that run untimed and untraced. The last stdout line is one
JSON object with the metrics; earlier lines describe the environment and
the behaviour numbers.

Seeds: seed 0 is the acceptance-suite instance (data 11, parent 100/101,
train 7, probe 5, morph 5, fine-tune 9). Any other seed keeps that instance
and changes its presentation: the 784 input features are permuted (data
columns together with the rows of the parent's initial first-layer
weights; `sweep`), and fine-tuning uses SGD seed 9 + seed (`cli`). A fresh
instance per seed is not used because solver sweep counts are a property
of the instance (the residual solver's ranged from 105 to 1000 over 28
desk instances), which would make the time metrics vary by more than any
usable bound from one seed to the next.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import hashlib
import itertools
import io as stdio
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import numpy as np

import morphkit as mk
from morphkit import cli as mcli
from morphkit import io as mio

import spans as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

DATA_SEED = 11
PARENT_SEEDS = (100, 101)
PROBE_SEED = 5
MORPH_SEED = 5
FINETUNE_SEED = 9
FEATURES = 784
N_TRAIN, N_TEST = 6000, 1000
PROBE_ROWS = 4096
TRAIN = mk.TrainConfig(learning_rate=5e-3, momentum=0.9, weight_decay=1e-6, epochs=10, batch_size=48, seed=7)
SETUP_REPEATS = 7

# folding rebalances alg2's refit scaling, as in the acceptance suite
FOLD = {"alg1": False, "alg2": True, "baseline": False}
ALGORITHMS = ("alg1", "alg2", "baseline")

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("morph_s", "s"),
    ("train_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("kept_frac", "ratio"),
    ("preservation_rms", "rms"),
    ("acc_parent", "ratio"),
    ("acc_post_morph", "ratio"),
    ("acc_after_finetune", "ratio"),
]

PER_LAYER = (
    [("sparse.iilasso_diag." + k, u) for k, u in
     [("s", "s"), ("calls", "count"), ("sweeps", "count"), ("coord_updates", "count")]]
    + [("sparse.similarity_matrix.s", "s"), ("sparse.similarity_matrix.calls", "count"),
       ("sparse.refit_w1.s", "s"), ("sparse.converged_ratio", "ratio"),
       ("network.train_sgd.s", "s"), ("network.train_sgd.calls", "count"),
       ("network.forward.s", "s"), ("network.forward.calls", "count"), ("network.forward.rows", "count"),
       ("network.evaluate.s", "s"),
       ("linalg.least_squares.s", "s"), ("linalg.least_squares.calls", "count"),
       ("linalg.least_squares.singular", "count"),
       ("linalg.standardize_columns.s", "s"), ("linalg.standardize_columns.calls", "count"),
       ("linalg.standardize_columns.constant_cols", "count"), ("linalg.vectorize.calls", "count"),
       ("morph.morph.s", "s"), ("morph.contribution_matrices.s", "s"),
       ("morph.preservation_error.s", "s"), ("morph.ridge_fallbacks", "count")]
    + [(f"morph.{alg}.{k}", u) for alg in ALGORITHMS for k, u in
       [("s", "s"), ("n_sparse", "count"), ("preservation_rms", "rms")]]
    + [("io.synth_lowrank_dataset.s", "s"), ("io.synth_lowrank_dataset.calls", "count"),
       ("io.save_model.s", "s"), ("io.save_model.calls", "count"), ("io.save_model.bytes", "B"),
       ("io.load_model.s", "s"), ("io.load_model.calls", "count"), ("io.load_model.bytes", "B"),
       ("io.save_report_json.s", "s"), ("io.load_report_json.s", "s"), ("io.write_report_csv.s", "s")]
    + [(f"cli.{cmd}.s", "s") for cmd in ("train", "morph", "eval", "finetune", "report")]
    + [("trace.overhead_s", "s"), ("trace.spans", "count")]
)


class Ledger:
    """Operations and checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    @contextlib.contextmanager
    def operation(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()
            raise


def feature_order(seed: int) -> np.ndarray:
    if seed == DEFAULT_SEED:
        return np.arange(FEATURES)
    return np.random.default_rng([FEATURES, seed]).permutation(FEATURES)


def weights_hash(net) -> str:
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.weight.tobytes())
        if layer.bias is not None:
            h.update(layer.bias.tobytes())
    return h.hexdigest()


def file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# Time metrics are scaled to reference speed. The benchmark gets a few cores
# of a shared host, whose other tenants slow everything it runs, morphkit
# and any other code alike, by up to a third, in spells that last from
# seconds to minutes. After every timed step the benchmark runs
# `reference_kernel`, fixed work that calls no morphkit code, for about
# REF_SHARE of the step's time (at least once), and scales the step's time
# by REF_NOMINAL_S over the median reference time just before and just after
# it; a set-up repetition is scaled the same way by SETUP_REFS reference runs
# on each side. On an idle core the factor is about 1 and the scaled times
# equal wall times; the raw times of every step are printed on the `pass_s`
# line. REF_NOMINAL_S is the kernel's median time on an idle core of the
# machine the benchmark was calibrated on (Intel Xeon, KVM guest with 2
# vCPUs, Python 3.11.7, numpy 2.4.6, one BLAS thread).
REF_NOMINAL_S = 0.0108
REF_SHARE = 0.03
SETUP_REFS = 15

_REF = np.random.default_rng(0)
REF_BATCH = _REF.standard_normal((48, FEATURES))
REF_WEIGHT = _REF.standard_normal((FEATURES, 64))
REF_STREAM = _REF.standard_normal(1 << 20)
REF_STREAM_BIG = _REF.standard_normal(1 << 22)


def reference_kernel() -> float:
    """Fixed work that uses no morphkit code: small matrix products as in
    SGD, and passes over an 8 MB and a 32 MB array, for the workloads'
    memory traffic. Returns its wall time."""
    t0 = time.perf_counter()
    for _ in range(40):
        REF_BATCH @ REF_WEIGHT
    for _ in range(4):
        float(REF_STREAM @ REF_STREAM)
    float(REF_STREAM_BIG @ REF_STREAM_BIG)
    return time.perf_counter() - t0


def speed_scale(refs) -> float:
    return REF_NOMINAL_S / statistics.median(refs)


def reference_runs(seconds: float) -> list:
    """Reference times measured right after a step that took `seconds`."""
    return [reference_kernel() for _ in range(max(1, round(REF_SHARE * seconds / REF_NOMINAL_S)))]


Step = collections.namedtuple("Step", "label category seconds refs")


class Timer:
    """The timed steps of a pass, in order, each with the reference times
    measured right after it."""

    def __init__(self):
        self.steps = []

    @contextlib.contextmanager
    def time(self, category: str, label: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            self.steps.append(Step(label, category, seconds, reference_runs(seconds)))


def scaled_s(steps, category: str | None = None) -> float:
    """Summed time of the steps, or of those in one category, each scaled
    to reference speed by the reference runs just before and after it."""
    total, before = 0.0, []
    for step in steps:
        if category is None or step.category == category:
            total += step.seconds * speed_scale(before + step.refs)
        before = step.refs
    return total


Pass = collections.namedtuple("Pass", "traced steps run")


def desk_data(seed: int):
    perm = feature_order(seed)
    full = mk.synth_lowrank_dataset(DATA_SEED, N_TRAIN + N_TEST)
    # a column gather returns Fortran order; training gathers rows, so keep C order
    features = np.ascontiguousarray(full.features[:, perm])
    train = mk.Dataset(features[:N_TRAIN], full.labels[:N_TRAIN])
    test = mk.Dataset(features[N_TRAIN:], full.labels[N_TRAIN:])
    return train, test, perm


def untrained_parent(perm):
    return mk.Mlp([
        mk.Layer(mk.init_weights(FEATURES, 64, "relu", PARENT_SEEDS[0])[perm], np.zeros(64), "relu"),
        mk.Layer(mk.init_weights(64, 10, "identity", PARENT_SEEDS[1]), np.zeros(10), "identity"),
    ])


def morph_spec(algorithm: str, width: int, lam: float) -> mk.MorphSpec:
    return mk.MorphSpec(
        insert_after=0, width=width, activation="relu", algorithm=algorithm,
        sparse=mk.SparseConfig(lam=lam, alpha=0.1), seed=MORPH_SEED, fold_beta=FOLD[algorithm],
    )


def in_process_morph(ledger, timer, parent, spec, probe, test):
    """One morph followed by the evaluation of its child; returns a record
    for the checks, or None when the morph raised."""
    before = weights_hash(parent)
    what = f"{spec.algorithm} width {spec.width} lambda {spec.sparse.lam}"
    try:
        with ledger.operation(f"morph {what}"), timer.time("morph", f"morph {what}"):
            child, report = mk.morph(parent, spec, probe)
    except Exception:
        return None
    parent_kept = weights_hash(parent) == before
    with ledger.operation(f"evaluate {what}"), timer.time("other", f"evaluate {what}"):
        _, post = mk.evaluate(child, test)
    return {"spec": spec, "child": child, "report": report, "post": post, "parent_kept": parent_kept}


class Sweep:
    """Width/lambda sweep of the diagonal-design algorithms on a parent
    trained in the set-up; no residual solver and no SGD when timed."""

    name = "sweep"
    WIDTHS = (100, 400)
    LAMBDAS = (0.05, 0.1, 0.2)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.train, self.test, perm = desk_data(self.seed)
        t0 = time.perf_counter()
        self.parent, _ = mk.train_sgd(untrained_parent(perm), self.train, TRAIN)
        self.setup_train_s = time.perf_counter() - t0
        self.probe = self.train.features[mk.sample_rows(self.train.n, PROBE_ROWS, PROBE_SEED)]

    def run_pass(self, ledger, timer):
        with ledger.operation("evaluate parent"), timer.time("other", "evaluate parent"):
            _, acc_parent = mk.evaluate(self.parent, self.test)
        morphs = []
        for width in self.WIDTHS:
            for lam in self.LAMBDAS:
                for algorithm in ALGORITHMS:
                    rec = in_process_morph(
                        ledger, timer, self.parent, morph_spec(algorithm, width, lam), self.probe, self.test
                    )
                    if rec is not None:
                        # nothing is fine-tuned here: the child handed on is the morphed one
                        rec["after"] = rec["post"]
                        morphs.append(rec)
        return {"parent": self.parent, "acc_parent": acc_parent, "morphs": morphs}

    def check(self, ledger, outcome) -> None:
        for rec in outcome["morphs"]:
            spec, report = rec["spec"], rec["report"]
            what = f"{spec.algorithm} width {spec.width} lambda {spec.sparse.lam}"
            fresh = mk.preservation_error(outcome["parent"], rec["child"], self.probe, spec.insert_after)
            ledger.check(fresh == (report.preservation_max, report.preservation_rms),
                         f"{what}: reported preservation {report.preservation_max!r}, "
                         f"{report.preservation_rms!r} but recomputed {fresh!r}")
            ledger.check(1 <= report.n_sparse <= spec.width, f"{what}: n_sparse {report.n_sparse}")
            ledger.check(rec["parent_kept"], f"{what}: morph changed the parent's weights")


ACCURACY = re.compile(r"accuracy (\S+)")


class Cli:
    """The README command sequence through `morphkit.cli.main`."""

    name = "cli"
    DATA = f"lowrank:n={N_TRAIN},test={N_TEST}"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        # start-up each `morphkit` command pays: a fresh interpreter importing the CLI
        subprocess.run([sys.executable, "-c", "import morphkit.cli"], check=True, timeout=60)

    def commands(self, out: str):
        parent = os.path.join(out, "parent.model")
        yield "train", [
            "train", "--data", self.DATA, "--arch", "784,64,10", "--act", "relu", "--epochs", "10",
            "--lr", "5e-3", "--weight-decay", "1e-6", "--momentum", "0.9", "--batch-size", "48",
            "--seed", "7", "--out", "parent.model", "--out-dir", out,
        ]
        yield "eval", ["eval", "--model", parent, "--data", self.DATA, "--split", "test"]
        for alg in ALGORITHMS:
            child = os.path.join(out, f"{alg}.model")
            report = child + ".report.json"
            yield "morph", [
                "morph", "--model", parent, "--data", self.DATA, "--at", "0", "--width", "100",
                "--act", "relu", "--alg", alg, "--lambda", "0.1", "--alpha", "0.1", "--seed", str(MORPH_SEED),
                "--run-id", alg, "--out", f"{alg}.model", "--out-dir", out,
            ] + (["--fold-beta"] if FOLD[alg] else [])
            yield "eval", [
                "eval", "--model", child, "--data", self.DATA, "--split", "test",
                "--report", report, "--as", "acc_post_morph",
            ]
            yield "finetune", [
                "finetune", "--model", child, "--data", self.DATA, "--lr", "1e-3", "--epochs", "5",
                "--batch-size", "48", "--seed", str(FINETUNE_SEED + self.seed), "--out", f"{alg}.tuned.model",
                "--out-dir", out, "--eval-data", self.DATA, "--report", report,
            ]
        yield "report", ["report", "--out-dir", out, "--csv", "report.csv"]

    def run_pass(self, ledger, timer):
        os.makedirs(OUT_DIR, exist_ok=True)
        out = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
        parent = os.path.join(out, "parent.model")
        exits, outputs, parent_hashes = [], [], []
        category = {"train": "train", "finetune": "train", "morph": "morph"}
        for i, (command, argv) in enumerate(self.commands(out)):
            captured = stdio.StringIO()
            ledger.attempted += 1  # a failure shows as the exit-code check
            with contextlib.redirect_stdout(captured), \
                    timer.time(category.get(command, "other"), f"{i} {command}"):
                code = mcli.main(argv)
            exits.append((" ".join(argv[:3]), code))
            outputs.append(captured.getvalue())
            if command in ("train", "morph") and os.path.exists(parent):
                parent_hashes.append(file_hash(parent))
        match = ACCURACY.search(outputs[1])
        return {"out": out, "exits": exits, "parent_hashes": parent_hashes,
                "acc_parent": float(match.group(1)) if match else None}

    def check(self, ledger, outcome) -> None:
        out = outcome["out"]
        try:
            for what, code in outcome["exits"]:
                ledger.check(code == 0, f"`morphkit {what} ...` exited {code}")
            ledger.check(outcome["acc_parent"] is not None, "`morphkit eval` printed no accuracy")
            hashes = outcome["parent_hashes"]
            ledger.check(len(hashes) == 1 + len(ALGORITHMS) and len(set(hashes)) == 1,
                         "parent.model changed while morphing")
            # `morphkit morph` draws its probe from the train split with the morph seed
            full = mk.synth_lowrank_dataset(DATA_SEED, N_TRAIN + N_TEST)
            probe = full.features[:N_TRAIN][mk.sample_rows(N_TRAIN, PROBE_ROWS, MORPH_SEED)]
            parent = self._load(ledger, os.path.join(out, "parent.model"))
            morphs = []
            for alg in ALGORITHMS:
                child = self._load(ledger, os.path.join(out, f"{alg}.model"))
                self._load(ledger, os.path.join(out, f"{alg}.tuned.model"))
                try:
                    report = mio.load_report_json(os.path.join(out, f"{alg}.model.report.json"))
                except (OSError, mk.MorphkitError) as exc:
                    ledger.check(False, f"{alg} report does not load: {exc}")
                    continue
                ledger.check(True, f"{alg} report loads")
                ledger.check(1 <= report.n_sparse <= 100, f"{alg}: n_sparse {report.n_sparse}")
                if parent is not None and child is not None:
                    fresh = mk.preservation_error(parent, child, probe, 0)
                    ledger.check(fresh == (report.preservation_max, report.preservation_rms),
                                 f"{alg}: reported preservation differs from recomputed {fresh!r}")
                morphs.append({"report": report, "post": report.acc_post_morph,
                               "after": report.acc_after_finetune, "spec": morph_spec(alg, 100, 0.1)})
            try:
                with open(os.path.join(out, "report.csv"), encoding="utf-8", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                ledger.check(sorted(r["run_id"] for r in rows) == sorted(ALGORITHMS), "report.csv rows")
            except OSError as exc:
                ledger.check(False, f"report.csv does not load: {exc}")
            outcome["morphs"] = morphs
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _load(ledger, path):
        try:
            net, _ = mio.load_model(path)
        except (OSError, mk.MorphkitError) as exc:
            ledger.check(False, f"{path} does not load: {exc}")
            return None
        ledger.check(True, f"{path} loads")
        return net


WORKLOADS = {cls.name: cls for cls in (Sweep, Cli)}


def behaviour(outcome) -> dict:
    morphs = outcome["morphs"]
    kept = [r["report"].n_sparse / r["spec"].width for r in morphs if r["spec"].algorithm != "baseline"]
    return {
        "kept_frac": statistics.fmean(kept),
        "preservation_rms": statistics.fmean(r["report"].preservation_rms for r in morphs),
        "acc_parent": outcome["acc_parent"],
        "acc_post_morph": statistics.fmean(r["post"] for r in morphs),
        "acc_after_finetune": statistics.fmean(r["after"] for r in morphs),
    }


def per_algorithm(outcome) -> dict:
    table = {}
    for alg in ALGORITHMS:
        reps = [r["report"] for r in outcome["morphs"] if r["spec"].algorithm == alg]
        if reps:
            table[alg] = {"n_sparse": [r.n_sparse for r in reps],
                          "preservation_rms": [r.preservation_rms for r in reps]}
    return table


def layer_metrics(tracer, run: str) -> dict:
    """Per-layer metrics of one traced pass. `.s` is self time, except
    `morph.<alg>.s` and `cli.<command>.s`, which are whole-call times."""
    selfs = tracing.self_times(tracer.spans)
    by_name = defaultdict(list)
    for span, self_s in zip(tracer.spans, selfs):
        if span.run == run:
            by_name[span.name].append((span, self_s))
    m = {name: 0.0 for name, _ in PER_LAYER}
    for name, items in by_name.items():
        if f"{name}.s" in m:
            m[f"{name}.s"] = sum(s for _, s in items)
        if f"{name}.calls" in m:
            m[f"{name}.calls"] = len(items)
    solves = [s for s, _ in by_name["sparse.iilasso_diag"] if s.error is None]
    for span in solves:
        m["sparse.iilasso_diag.sweeps"] += span.attrs["sweeps"]
        m["sparse.iilasso_diag.coord_updates"] += span.attrs["sweeps"] * span.attrs["coefs"]
    m["sparse.converged_ratio"] = (
        sum(s.attrs["stop"] == "converged" for s in solves) / len(solves) if solves else 0.0
    )
    m["network.forward.rows"] = sum(s.attrs["rows"] for s, _ in by_name["network.forward"] if s.error is None)
    m["linalg.least_squares.singular"] = sum(
        s.error == "SingularMatrixError" for s, _ in by_name["linalg.least_squares"]
    )
    m["linalg.standardize_columns.constant_cols"] = sum(
        s.attrs["constant_cols"] for s, _ in by_name["linalg.standardize_columns"] if s.error is None
    )
    for io_fn in ("io.save_model", "io.load_model"):
        m[f"{io_fn}.bytes"] = sum(s.attrs["bytes"] for s, _ in by_name[io_fn] if s.error is None)
    morphs = [s for s, _ in by_name["morph.morph"] if s.error is None]
    m["morph.ridge_fallbacks"] = sum(s.attrs["ridge_fallbacks"] for s in morphs)
    for alg in ALGORITHMS:
        mine = [s for s in morphs if s.attrs["algorithm"] == alg]
        if mine:
            m[f"morph.{alg}.s"] = sum(s.end - s.start for s in mine)
            m[f"morph.{alg}.n_sparse"] = statistics.fmean(s.attrs["n_sparse"] for s in mine)
            m[f"morph.{alg}.preservation_rms"] = statistics.fmean(s.attrs["preservation_rms"] for s in mine)
    for cmd in ("train", "morph", "eval", "finetune", "report"):
        m[f"cli.{cmd}.s"] = sum(s.end - s.start for s, _ in by_name[f"cli.{cmd}"])
    m["trace.spans"] = sum(len(items) for items in by_name.values())
    return m


def environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    env = environment(args.seed)
    print(json.dumps({"env": env}))
    work = WORKLOADS[args.workload](args.seed)

    setup_wall_s, setup_s, setup_train_s = [], [], []
    before = [reference_kernel() for _ in range(SETUP_REFS)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup()
        setup_wall_s.append(time.perf_counter() - t0)
        after = [reference_kernel() for _ in range(SETUP_REFS)]
        scale = speed_scale(before + after)
        before = after
        setup_s.append(setup_wall_s[-1] * scale)
        if hasattr(work, "setup_train_s"):
            setup_train_s.append(work.setup_train_s * scale)

    tracer = tracing.Tracer()
    bound = tracer.install() if args.trace else []
    ledger = Ledger()
    passes = []  # every completed pass
    first = None
    started = time.perf_counter()
    for attempt in itertools.count():
        # a traced run alternates untraced and traced passes so that the
        # tracing overhead is measured on the same inputs
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.run_id = f"{args.workload}-seed{args.seed}-pass{attempt}"
        timer = Timer()
        tracer.enabled = traced
        t0 = time.perf_counter()
        try:
            outcome = work.run_pass(ledger, timer)
        except Exception:
            outcome = None
        tracer.enabled = False
        if outcome is None:
            print("pass aborted", file=sys.stderr)
        else:
            work.check(ledger, outcome)
            numbers = behaviour(outcome)
            if first is None:
                first = (numbers, per_algorithm(outcome))
            else:
                ledger.check(numbers == first[0], f"pass {len(passes)} behaviour {numbers} != {first[0]}")
            passes.append(Pass(traced, timer.steps, tracer.run_id))
        now = time.perf_counter()
        # stop at the pass boundary nearest to --seconds
        if now - started + (now - t0) / 2 >= args.seconds and (
                outcome is None or len(passes) >= (2 if args.trace else 1)):
            break
    tracer.uninstall()

    if first is None:
        print(json.dumps({"correct": False, "attempted": max(ledger.attempted, 1),
                          "failed": max(ledger.failed, 1), "metrics": {}}))
        return 1
    numbers, table = first
    print(json.dumps({"behaviour_by_algorithm": table, "setup_wall_s": setup_wall_s,
                      "pass_s": [{"traced": p.traced, "steps": p.steps} for p in passes]}))

    untraced = [p for p in passes if not p.traced]
    if args.trace:
        traced = [p for p in passes if p.traced]
        layer_runs = [layer_metrics(tracer, p.run) for p in traced]
        metrics = {name: statistics.median([r[name] for r in layer_runs]) for name, _ in PER_LAYER}
        metrics["trace.overhead_s"] = (
            statistics.median([scaled_s(p.steps) for p in traced])
            - statistics.median([scaled_s(p.steps) for p in untraced])
        )
        units = dict(PER_LAYER)
        write_spans(args, env, tracer, bound)
    else:
        metrics = {
            "run_s": statistics.median([scaled_s(p.steps) for p in untraced]),
            "setup_s": statistics.median(setup_s),
            "morph_s": statistics.median([scaled_s(p.steps, "morph") for p in untraced]),
            "train_s": statistics.median(setup_train_s or [scaled_s(p.steps, "train") for p in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - ledger.failed / max(ledger.attempted, 1),
            **numbers,
        }
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def write_spans(args, env, tracer, bound) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "env": env,
            "wrapped_bindings": bound,
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run,
                 "error": s.error, "attrs": s.attrs}
                for s in tracer.spans
            ],
        }, fh)
    print(json.dumps({"spans_file": os.path.relpath(path, os.path.dirname(HERE))}))


if __name__ == "__main__":
    sys.exit(main())
