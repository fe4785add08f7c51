"""Command-line surface for the train / morph / eval / finetune pipeline.

Subcommands:
  train     fit a parent MLP with SGD and save it
  morph     insert a layer into a saved model with a chosen algorithm
  eval      report loss/accuracy of a saved model on a dataset
  finetune  continue SGD from a saved model, above a morphed child's insertion
  verify    run the cross-module invariant suite
  report    collect per-run report JSON files into the fixed-column CSV

Exit codes: 0 success, 1 user error, 2 invariant failure. All artifact
paths are joined under --out-dir. Set MORPHKIT_LOG to a logging level name
(DEBUG, INFO, WARNING, ERROR or CRITICAL) to adjust verbosity.
--data is a generator spec whose name matches `synth` or `lowrank` exactly,
`mnist`, or a directory of IDX files. `train`, `morph` and `finetune` read
its train split; `eval --split` chooses a split, and `finetune --eval-data`
is read at its test split. Every split of a synthetic spec comes from one
draw, and later reads get it from the dataset cache (`morphkit.io`).
`train` and `finetune` train on the cache's float32 rounding of the split,
which the first of them writes from the draw a block of rows at a time.
`morph` caches the parent's probe pass on a synthetic split the same way,
so later morphs of that parent read neither the split nor run the pass.
`finetune` trains what a morph changed: for a child whose metadata records
`spec.insert_after`, it holds layers 0 to `insert_after`, the parent's, at
their bytes and trains the layers above (`network.train_above`); a model
without a `spec`, such as a parent, is trained in full. Each tuning's
entry in the tuned model's `finetune` metadata list records its
`frozen_layers`.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import logging
import math
import os
import sys

import numpy as np

from . import io as mio
from .errors import MorphkitError
from .morph import (
    ALGORITHM_NAMES, MorphReport, MorphSpec, PreparedProbe, morph, parent_digest, prepare_probe,
    sample_rows,
)
from .network import (
    ACTIVATION_KINDS, EpochStats, Layer, Mlp, TrainConfig, evaluate, init_weights, train_above,
    train_sgd,
)
from .sparse import SparseConfig
from .verify import CHECKS, run_checks


def _out_path(args, name: str) -> str:
    root = getattr(args, "out_dir", ".") or "."
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, name)


def _parse_arch(text: str) -> list[int]:
    try:
        widths = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise MorphkitError(f"bad --arch {text!r}: {exc}") from exc
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise MorphkitError(
            f"bad --arch {text!r}: need >= 2 comma-separated positive widths"
        )
    return widths


# name -> (default parameters, draw of all n + test rows). A draw looks its
# generator up on `mio` as it runs, so a wrapper put there sees every draw.
_GENERATORS = {
    "lowrank": ({"n": 6000, "test": 1000, "d": 784, "classes": 10, "seed": 11,
                 "spacing": 10.0, "side_dims": 30, "side_scale": 0.45},
                lambda p: mio.synth_lowrank_dataset(
                    p["seed"], p["n"] + p["test"], p["d"], p["classes"], spacing=p["spacing"],
                    side_dims=p["side_dims"], side_scale=p["side_scale"])),
    "synth": ({"n": 2000, "test": 500, "d": 20, "classes": 3, "seed": 0, "sep": 6.0},
              lambda p: mio.synth_dataset(p["seed"], p["n"] + p["test"], p["d"], p["classes"],
                                          separation=p["sep"])),
}


def _idx_pair(spec: str, split: str) -> tuple[str, str]:
    """The image and label IDX files of `split` in the directory that the
    --data `spec` names: `spec` itself, or for 'mnist' $MORPHKIT_MNIST
    (default ./data/mnist). Each may be gzipped."""
    directory = spec
    if spec == "mnist":
        directory = os.environ.get("MORPHKIT_MNIST", os.path.join("data", "mnist"))
    if not os.path.isdir(directory):
        if spec == "mnist":
            source = ("from $MORPHKIT_MNIST" if "MORPHKIT_MNIST" in os.environ
                      else "the default; set $MORPHKIT_MNIST to look elsewhere")
            raise MorphkitError(f"--data 'mnist': no directory {os.path.abspath(directory)!r} "
                                f"({source}) holding the MNIST IDX files")
        raise MorphkitError(
            f"--data {spec!r} is neither 'synth[:...]', 'lowrank[:...]' "
            "nor a directory of IDX files"
        )
    prefix = "train" if split == "train" else "t10k"
    pair = []
    for kind in (f"{prefix}-images-idx3-ubyte", f"{prefix}-labels-idx1-ubyte"):
        for candidate in (kind, kind + ".gz"):
            path = os.path.join(directory, candidate)
            if os.path.exists(path):
                pair.append(path)
                break
        else:
            raise MorphkitError(f"no {kind}[.gz] under {directory}")
    return pair[0], pair[1]


def _resolve_synthetic(spec: str) -> tuple[str, dict] | None:
    """The generator name and fully resolved parameters of a synthetic
    --data `spec`, or None when `spec` names no generator. A generator name
    must match exactly; a bad parameter, such as a NaN or infinite float,
    is a user error that names it, raised before anything is drawn."""
    name, _, text = spec.partition(":")
    if name not in _GENERATORS:
        return None
    p = dict(_GENERATORS[name][0])
    for item in filter(None, text.split(",")):
        key, _, value = item.partition("=")
        if key not in p:
            raise MorphkitError(f"unknown parameter {key!r} in --data {spec!r}")
        kind = type(p[key])
        try:
            p[key] = kind(value)  # `sep=6` is 6.0, as in every cache key so far
        except ValueError:
            raise MorphkitError(f"--data {spec!r}: {key} needs "
                                f"{'an' if kind is int else 'a'} {kind.__name__}, "
                                f"got {value!r}") from None
        if kind is float and not math.isfinite(p[key]):
            raise MorphkitError(f"--data {spec!r}: {key} must be finite")
    if p["n"] < 0 or p["test"] < 0:
        raise MorphkitError(f"--data {spec!r}: n and test must be >= 0")
    return name, p


def _load_dataset(spec: str, split: str, dtype=np.float64) -> mio.Dataset:
    """The `split` rows of the --data `spec`.

    IDX data is read as float64 and never cached. For a synthetic spec both
    splits come from one draw, so they share class means: a float64 miss
    draws once and caches each split (`io.read_cached_split`), and the
    arrays are read-only, hit or miss. With `dtype` float32 the rows are
    the cache's float32 entry, which `train_sgd` reads: a miss writes it
    from the float64 split, rounded a block of rows at a time as the
    per-batch cast would round it, lets the split go and reads the entry
    back, so no float32 copy of the split is ever held next to the draw. A
    split beyond float32's range gets no entry and is handed back as
    float64, for `train_sgd` to refuse by name; so is a split whose entry
    cannot be written or read back, which trains to the bytes the entry
    would."""
    resolved = _resolve_synthetic(spec)
    if resolved is None:
        return mio.read_idx(*_idx_pair(spec, split))
    name, p = resolved
    n = p["n"]
    shape = (n if split == "train" else p["test"], p["d"])
    path = mio.dataset_cache_path(name, p, split, dtype)
    cached = mio.read_cached_split(path, shape, dtype)
    if cached is not None:
        return cached
    if np.dtype(dtype) == np.float32:
        full = _load_dataset(spec, split)
        if not mio.write_cached_split(path, full, dtype):
            return full
        del full
        cached = mio.read_cached_split(path, shape, dtype)
        return cached if cached is not None else _load_dataset(spec, split)
    try:
        full = _GENERATORS[name][1](p)
    except ValueError as exc:  # a value the generator refuses, such as d=0
        raise MorphkitError(f"--data {spec!r}: {exc}") from None
    drawn = {"train": mio.Dataset(full.features[:n], full.labels[:n]),
             "test": mio.Dataset(full.features[n:], full.labels[n:])}
    for s, data in drawn.items():
        mio.write_cached_split(mio.dataset_cache_path(name, p, s), data)
        # read-only, as a cache hit's mapped arrays are
        data.features.flags.writeable = data.labels.flags.writeable = False
    return drawn[split]


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--data",
        required=True,
        help="'synth[:n=..,d=..,classes=..,seed=..,sep=..]', "
        "'lowrank[:n=..,d=..,spacing=..,side_dims=..,side_scale=..]', a "
        "directory of IDX files, or 'mnist' ($MORPHKIT_MNIST or ./data/mnist)",
    )


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )


def _write_history(path: str, history, append: bool = False) -> None:
    mode = "a" if append and os.path.exists(path) else "w"
    with open(path, mode, encoding="utf-8") as fh:
        if mode == "w":
            fh.write("epoch,loss,accuracy\n")
        for row in history:
            fh.write(f"{row.epoch},{row.loss!r},{row.accuracy!r}\n")


def cmd_train(args) -> int:
    widths = _parse_arch(args.arch)
    data = _load_dataset(args.data, "train", np.float32)
    if widths[0] != data.features.shape[1]:
        raise MorphkitError(
            f"--arch input width {widths[0]} does not match data width "
            f"{data.features.shape[1]}"
        )
    layers = []
    for k in range(len(widths) - 1):
        act = args.act if k < len(widths) - 2 else "identity"
        w = init_weights(widths[k], widths[k + 1], act, args.seed + k)
        layers.append(Layer(w, np.zeros(widths[k + 1]), act))
    untrained = Mlp(layers)
    cfg = _train_config(args)
    net, history = train_sgd(untrained, data, cfg)
    if data.features.dtype == np.float32:  # row 0 is evaluated on the float64 split
        del data  # which is read only once the float32 one is let go
        data = _load_dataset(args.data, "train")
    # row 0 is where training started; train_sgd left `untrained` as it was
    history = [EpochStats(0, *evaluate(untrained, data)), *history]
    out = _out_path(args, args.out)
    mio.save_model(net, out, metadata={
        "arch": widths, "hidden_activation": args.act, "train": dataclasses.asdict(cfg),
    })
    _write_history(_out_path(args, args.history), history)
    last = history[-1]
    print(f"trained {args.arch}: loss {last.loss:.4f} accuracy {last.accuracy:.4f} -> {out}")
    return 0


def _morph_probe(args, parent: Mlp) -> PreparedProbe:
    """The parent's probe pass on --probe-size rows of the --data train
    split. For a synthetic spec it is cached next to the split's entry
    (`io.probe_cache_path`), and a hit never reads the split; IDX data is
    never cached."""
    resolved = _resolve_synthetic(args.data)
    if resolved is None:
        data = _load_dataset(args.data, "train")
        n, raise_what = data.n, "use IDX files with more images"
    else:
        name, p = resolved
        n, raise_what = p["n"], "raise n"
    if n < 2:
        raise MorphkitError(
            f"--data {args.data!r}: the train split has {n} row{'' if n == 1 else 's'}, "
            f"and a morph needs a probe of at least 2; {raise_what}"
        )
    rows = sample_rows(n, args.probe_size, args.seed)
    if resolved is None:
        return prepare_probe(parent, args.at, data.features[rows])
    digest = parent_digest(parent, args.at)
    path = mio.probe_cache_path(mio.dataset_cache_path(name, p, "train"), "train",
                                args.probe_size, args.seed, args.at, digest)
    shapes = [(len(rows), parent.layers[k].d_out) for k in (args.at, args.at + 1)]
    prepared = mio.read_cached_probe(path, args.at, digest, shapes)
    if prepared is None:
        data = _load_dataset(args.data, "train")
        prepared = prepare_probe(parent, args.at, data.features[rows])
        mio.write_cached_probe(path, prepared)
    return prepared


def cmd_morph(args) -> int:
    sparse = SparseConfig(lam=args.lam, alpha=args.alpha, max_itr=args.max_itr, tol=args.tol)
    spec = MorphSpec(
        insert_after=args.at,
        width=args.width,
        activation=args.act,
        algorithm=args.alg,
        sparse=sparse,
        seed=args.seed,
        fold_beta=args.fold_beta,
    )
    parent, meta = mio.load_model(args.model)
    child, report = morph(parent, spec, _morph_probe(args, parent))
    report.run_id = args.run_id or os.path.splitext(os.path.basename(args.out))[0]
    out = _out_path(args, args.out)
    report_path = _out_path(args, args.report or (args.out + ".report.json"))
    # the child is written inside the report's write, so a report that
    # cannot be written leaves no child and a child that cannot, no report
    with mio.writing_report_json(report, report_path):
        mio.save_model(child, out, metadata={
            "spec": dataclasses.asdict(spec), "probe_size": args.probe_size,
            "parent_metadata": meta,
        })
    print(
        f"{args.alg}: {report.n_redundant} -> {report.n_sparse} neurons "
        f"(ratio {report.compression_ratio:.3f}, preservation max "
        f"{report.preservation_max:.3e}) -> {out}"
    )
    return 0


def _load_report(args) -> MorphReport | None:
    """The --report file, or None without one. Commands read it before they
    write anything, so a missing or malformed report leaves no file behind."""
    return mio.load_report_json(args.report) if args.report else None


def _record_accuracy(args, report: MorphReport | None, field: str, accuracy: float) -> None:
    if report is None:
        return
    setattr(report, field, accuracy)
    mio.save_report_json(report, args.report)


def cmd_eval(args) -> int:
    net, _ = mio.load_model(args.model)
    report = _load_report(args)
    data = _load_dataset(args.data, args.split)
    loss, accuracy = evaluate(net, data)
    print(f"loss {loss!r} accuracy {accuracy!r}")
    _record_accuracy(args, report, args.record_as, accuracy)
    return 0


def _frozen_layers(args, net: Mlp, meta: dict) -> int:
    """How many layers `finetune` holds fixed: for a morphed child, layers
    0 to `spec.insert_after` of its metadata, which the morph copied from
    the parent; none for a model without a `spec`, such as a parent. A
    `spec.insert_after` that indexes no non-final layer is a user error."""
    if "spec" not in meta:
        return 0
    at = meta["spec"].get("insert_after") if isinstance(meta["spec"], dict) else None
    if type(at) is not int or not 0 <= at < len(net.layers) - 1:
        raise MorphkitError(f"--model {args.model!r}: metadata spec.insert_after is {at!r}, "
                            f"which indexes no non-final layer of its {len(net.layers)} layers")
    return at + 1


def cmd_finetune(args) -> int:
    net, meta = mio.load_model(args.model)
    frozen = _frozen_layers(args, net, meta)
    if not isinstance(meta.get("finetune", []), list):
        raise MorphkitError(f"--model {args.model!r}: metadata finetune is {meta['finetune']!r}, "
                            "not the list of earlier tunings")
    report = _load_report(args)
    data = _load_dataset(args.data, "train", np.float32)
    eval_data = _load_dataset(args.eval_data, "test") if args.eval_data else None
    cfg = _train_config(args)
    net, history = train_above(net, data, cfg, frozen)
    if eval_data is None:  # the float64 split, read only once the float32 one is let go
        if data.features.dtype == np.float32:
            del data
            data = _load_dataset(args.data, "train")
        eval_data = data
    _, accuracy = evaluate(net, eval_data)  # before any write, so a refusal leaves no file
    out = _out_path(args, args.out)
    # each tuning appends its schedule and what it held fixed; the parent's
    # `train` block stays as it was
    meta = {**meta, "finetune": [*meta.get("finetune", []),
                                 {**dataclasses.asdict(cfg), "frozen_layers": frozen}]}
    mio.save_model(net, out, metadata=meta)
    _write_history(_out_path(args, args.history), history, append=True)
    print(f"finetuned {args.epochs} epochs: accuracy {accuracy!r} -> {out}")
    _record_accuracy(args, report, "acc_after_finetune", accuracy)
    return 0


def cmd_verify(args) -> int:
    if args.list:
        for name, _ in CHECKS:
            print(name)
        return 0
    results = run_checks(args.seed)
    failures = [(name, detail) for name, detail in results if detail is not None]
    width = max(len(name) for name, _ in results)
    for name, detail in results:
        status = "PASS" if detail is None else "FAIL"
        suffix = "" if detail is None else f"  {detail}"
        print(f"{status}  {name:<{width}}{suffix}")
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 2 if failures else 0


def cmd_report(args) -> int:
    paths = list(args.reports)
    if not paths:
        paths = sorted(glob.glob(os.path.join(args.out_dir or ".", "*.report.json")))
    if not paths:
        raise MorphkitError("no report JSON files given or found under --out-dir")
    reports = [mio.load_report_json(p) for p in paths]
    csv_path = _out_path(args, args.csv)
    mio.write_report_csv(reports, csv_path)
    for rep in reports:
        print(
            f"{rep.run_id}: {rep.algorithm}/{rep.activation} "
            f"{rep.n_redundant} -> {rep.n_sparse} (ratio {rep.compression_ratio:.3f})"
        )
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphkit",
        description="Insert compact function-preserving layers into trained MLPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a parent MLP")
    _add_data_flags(p)
    p.add_argument("--arch", required=True, help="comma-separated widths, e.g. 784,64,10")
    p.add_argument("--act", choices=ACTIVATION_KINDS, default="relu",
                   help="hidden-layer activation (output layer is identity)")
    _add_train_flags(p)
    p.add_argument("--out", default="parent.model")
    p.add_argument("--history", default="history.csv")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("morph", help="insert a layer into a saved model")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--at", type=int, required=True,
                   help="0-based index of the layer after which to insert")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--act", choices=ACTIVATION_KINDS, default=MorphSpec.activation)
    p.add_argument("--alg", choices=ALGORITHM_NAMES, default=MorphSpec.algorithm)
    p.add_argument("--lambda", dest="lam", type=float, default=SparseConfig.lam)
    p.add_argument("--alpha", type=float, default=SparseConfig.alpha)
    p.add_argument("--max-itr", type=int, default=SparseConfig.max_itr)
    p.add_argument("--tol", type=float, default=SparseConfig.tol)
    p.add_argument("--seed", type=int, default=MorphSpec.seed)
    p.add_argument("--probe-size", type=int, default=4096)
    p.add_argument("--fold-beta", action="store_true")
    p.add_argument("--run-id", default="")
    p.add_argument("--out", default="child.model")
    p.add_argument("--report", default=None, help="report JSON path")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.add_argument("--report", default=None, help="record accuracy into this report JSON")
    p.add_argument("--as", dest="record_as", default="acc_parent",
                   choices=("acc_parent", "acc_post_morph", "acc_after_finetune"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("finetune", help="continue SGD from a saved model: a parent's every "
                       "layer, a morphed child's layers above the insertion")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--eval-data", default=None,
                   help="dataset spec whose test split gives the recorded accuracy of the "
                   "tuned model (default: the training split)")
    p.add_argument("--out", default="finetuned.model")
    p.add_argument("--history", default="history.csv")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--report", default=None,
                   help="record acc_after_finetune into this report JSON")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--list", action="store_true", help="list checks without running")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="collect report JSONs into a CSV")
    p.add_argument("reports", nargs="*", help="report JSON files (default: scan --out-dir)")
    p.add_argument("--csv", default="report.csv")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_report)

    return parser


def _configure_logging() -> None:
    level = os.environ.get("MORPHKIT_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):  # a known name maps to its number
        raise MorphkitError(f"MORPHKIT_LOG={os.environ['MORPHKIT_LOG']!r} is not a log level: "
                            "use DEBUG, INFO, WARNING, ERROR or CRITICAL")
    logging.basicConfig(level=level)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        _configure_logging()
        return args.func(args)
    except (MorphkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
