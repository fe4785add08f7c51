"""Command-line surface for the train / morph / eval / finetune pipeline.

Subcommands:
  train     fit a parent MLP with SGD and save it
  morph     insert a layer into a saved model with a chosen algorithm
  eval      report loss/accuracy of a saved model on a dataset
  finetune  continue SGD from a saved model
  verify    run the cross-module invariant suite
  report    collect per-run report JSON files into the fixed-column CSV

Exit codes: 0 success, 1 user error, 2 invariant failure. All artifact
paths are joined under --out-dir. Set MORPHKIT_LOG to adjust verbosity.
"""

from __future__ import annotations

import argparse
import glob
import logging
import os
import sys

import numpy as np

from . import io as mio
from .errors import EmptyLayerError, MorphkitError
from .morph import ALGORITHM_NAMES, MorphSpec, morph, sample_rows
from .network import ACTIVATION_KINDS, Layer, Mlp, TrainConfig, evaluate, init_weights, train_sgd
from .sparse import SparseConfig
from .verify import CHECKS, run_checks

ACC_FIELDS = ("acc_parent", "acc_post_morph", "acc_after_finetune")


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


def _parse_spec_params(spec: str, params: dict, float_keys: tuple) -> dict:
    params = dict(params)
    if ":" in spec:
        for item in spec.split(":", 1)[1].split(","):
            if not item:
                continue
            key, _, value = item.partition("=")
            if key not in params:
                raise MorphkitError(f"unknown parameter {key!r} in --data {spec!r}")
            params[key] = float(value) if key in float_keys else int(value)
    return params


def _idx_pair(directory: str, split: str) -> tuple[str, str]:
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


def _load_dataset(spec: str, split: str) -> mio.Dataset:
    # train and test rows come from one draw so they share class means
    if spec.startswith("lowrank"):
        p = _parse_spec_params(
            spec,
            {"n": 6000, "test": 1000, "d": 784, "classes": 10, "seed": 11,
             "spacing": 10.0, "side_dims": 30, "side_scale": 0.45},
            float_keys=("spacing", "side_scale"),
        )
        full = mio.synth_lowrank_dataset(
            p["seed"], p["n"] + p["test"], p["d"], p["classes"],
            spacing=p["spacing"], side_dims=p["side_dims"], side_scale=p["side_scale"],
        )
        sl = slice(0, p["n"]) if split == "train" else slice(p["n"], None)
        return mio.Dataset(full.features[sl], full.labels[sl])
    if spec.startswith("synth"):
        p = _parse_spec_params(
            spec,
            {"n": 2000, "test": 500, "d": 20, "classes": 3, "seed": 0, "sep": 6.0},
            float_keys=("sep",),
        )
        full = mio.synth_dataset(
            p["seed"], p["n"] + p["test"], p["d"], p["classes"], separation=p["sep"]
        )
        sl = slice(0, p["n"]) if split == "train" else slice(p["n"], None)
        return mio.Dataset(full.features[sl], full.labels[sl])
    directory = spec
    if spec == "mnist":
        directory = os.environ.get("MORPHKIT_MNIST", os.path.join("data", "mnist"))
    if not os.path.isdir(directory):
        raise MorphkitError(
            f"--data {spec!r} is neither 'synth[:...]' nor a directory of IDX files"
        )
    images, labels = _idx_pair(directory, split)
    return mio.read_idx(images, labels)


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--data",
        required=True,
        help="'synth[:n=..,d=..,classes=..,seed=..,sep=..]', "
        "'lowrank[:n=..,d=..,spacing=..,side_dims=..,side_scale=..]', a "
        "directory of IDX files, or 'mnist' ($MORPHKIT_MNIST or ./data/mnist)",
    )
    p.add_argument("--split", choices=("train", "test"), default="train")


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--weight-decay", type=float, default=1e-6)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)


def _train_config(args) -> TrainConfig:
    try:
        return TrainConfig(
            learning_rate=args.lr,
            momentum=args.momentum,
            weight_decay=args.weight_decay,
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=args.seed,
        )
    except ValueError as exc:
        raise MorphkitError(str(exc)) from exc


def _write_history(path: str, history, append: bool = False) -> None:
    mode = "a" if append and os.path.exists(path) else "w"
    with open(path, mode, encoding="utf-8") as fh:
        if mode == "w":
            fh.write("epoch,loss,accuracy\n")
        for row in history:
            fh.write(f"{row.epoch},{row.loss!r},{row.accuracy!r}\n")


def cmd_train(args) -> int:
    widths = _parse_arch(args.arch)
    data = _load_dataset(args.data, args.split)
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
    net = Mlp(layers)
    cfg = _train_config(args)
    net, history = train_sgd(net, data, cfg)
    out = _out_path(args, args.out)
    mio.save_model(
        net,
        out,
        metadata={
            "arch": widths,
            "hidden_activation": args.act,
            "seed": args.seed,
            "epochs": args.epochs,
            "learning_rate": args.lr,
            "weight_decay": args.weight_decay,
            "momentum": args.momentum,
            "batch_size": args.batch_size,
        },
    )
    _write_history(_out_path(args, args.history), history)
    last = history[-1]
    print(f"trained {args.arch}: loss {last.loss:.4f} accuracy {last.accuracy:.4f} -> {out}")
    return 0


def cmd_morph(args) -> int:
    parent, meta = mio.load_model(args.model)
    data = _load_dataset(args.data, args.split)
    sparse = SparseConfig(
        lam=args.lam,
        alpha=args.alpha,
        max_itr=args.max_itr,
        target_nnz=args.target_nnz,
        tol=args.tol,
        r_cap=args.r_cap,
    )
    spec = MorphSpec(
        insert_after=args.at,
        width=args.width,
        activation=args.act,
        algorithm=args.alg,
        sparse=sparse,
        seed=args.seed,
        fold_beta=args.fold_beta,
        alg3_row_sample=args.row_sample,
    )
    rows = sample_rows(data.n, args.probe_size, args.seed)
    probe = data.features[rows]
    try:
        child, report = morph(parent, spec, probe)
    except EmptyLayerError as exc:
        raise MorphkitError(f"{exc}; lower --lambda") from exc
    report.run_id = args.run_id or os.path.splitext(os.path.basename(args.out))[0]
    out = _out_path(args, args.out)
    mio.save_model(
        child,
        out,
        metadata={
            "parent": os.path.abspath(args.model),
            "parent_metadata": meta,
            "algorithm": args.alg,
            "insert_after": args.at,
            "width": args.width,
            "activation": args.act,
            "lambda": args.lam,
            "alpha": args.alpha,
            "max_itr": args.max_itr,
            "target_nnz": args.target_nnz,
            "tol": args.tol,
            "r_cap": args.r_cap,
            "seed": args.seed,
            "fold_beta": args.fold_beta,
            "row_sample": args.row_sample,
            "probe_size": args.probe_size,
        },
    )
    report_path = _out_path(args, args.report or (args.out + ".report.json"))
    mio.save_report_json(report, report_path)
    print(
        f"{args.alg}: {report.n_redundant} -> {report.n_sparse} neurons "
        f"(ratio {report.compression_ratio:.3f}, preservation max "
        f"{report.preservation_max:.3e}) -> {out}"
    )
    return 0


def _record_accuracy(args, accuracy: float) -> None:
    if not args.report:
        return
    report = mio.load_report_json(args.report)
    setattr(report, args.record_as, accuracy)
    mio.save_report_json(report, args.report)


def cmd_eval(args) -> int:
    net, _ = mio.load_model(args.model)
    data = _load_dataset(args.data, args.split)
    loss, accuracy = evaluate(net, data)
    print(f"loss {loss!r} accuracy {accuracy!r}")
    _record_accuracy(args, accuracy)
    return 0


def cmd_finetune(args) -> int:
    net, meta = mio.load_model(args.model)
    data = _load_dataset(args.data, args.split)
    cfg = _train_config(args)
    net, history = train_sgd(net, data, cfg)
    out = _out_path(args, args.out)
    meta = dict(meta)
    meta["finetune_epochs"] = meta.get("finetune_epochs", 0) + args.epochs
    mio.save_model(net, out, metadata=meta)
    _write_history(_out_path(args, args.history), history[1:] or history, append=True)
    if args.eval_data:
        _, accuracy = evaluate(net, _load_dataset(args.eval_data, args.eval_split))
    else:
        accuracy = history[-1].accuracy
    print(f"finetuned {args.epochs} epochs: accuracy {accuracy!r} -> {out}")
    _record_accuracy(args, accuracy)
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
    p.add_argument("--act", choices=ACTIVATION_KINDS, default="relu")
    p.add_argument("--alg", choices=ALGORITHM_NAMES, default="alg2")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--max-itr", type=int, default=1000)
    p.add_argument("--target-nnz", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--r-cap", type=float, default=1e6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe-size", type=int, default=4096)
    p.add_argument("--fold-beta", action="store_true")
    p.add_argument("--row-sample", type=int, default=None,
                   help="probe rows alg3 scores contributions on (default: all); "
                        "fewer rows trade selection accuracy for speed")
    p.add_argument("--run-id", default="")
    p.add_argument("--out", default="child.model")
    p.add_argument("--report", default=None, help="report JSON path")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--report", default=None, help="record accuracy into this report JSON")
    p.add_argument("--as", dest="record_as", choices=ACC_FIELDS, default="acc_parent")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("finetune", help="continue SGD from a saved model")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--eval-data", default=None,
                   help="dataset spec for the recorded accuracy (default: training metric)")
    p.add_argument("--eval-split", choices=("train", "test"), default="test")
    p.add_argument("--out", default="finetuned.model")
    p.add_argument("--history", default="history.csv")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--report", default=None)
    p.add_argument("--as", dest="record_as", choices=ACC_FIELDS, default="acc_after_finetune")
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


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MORPHKIT_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except MorphkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
