"""Command-line entry point.

Subcommands: synth, pretrain, train, eval, export-affinity, gradcheck.
Commands compose through files only; all randomness flows from the seed in
the config (or the --seed flag, which overrides it; absent everywhere the
seed is 0). Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .affinity import (affinity_to_pgm, class_affinity_tensor, clip_overshoot,
                       subspace_affinity_tensor)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (ExperimentConfig, complete_u_schedule, parse_config_file, parse_value,
                     scalar_fields)
from .data import (NONLINEARITIES, Dataset, SyntheticSpec, generate_synthetic, load_dataset_csv,
                   load_idx, load_labels_csv, save_dataset_csv, write_matrix_csv)
from .gradcheck import run_gradient_checks
from .trainer import (CollaborativeTrainer, TrainingDivergedError, evaluate, format_metrics_row,
                      metrics_csv, metrics_header, metrics_row, pretrain_log_csv, train_log_csv)


class CliValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors to exit code 1
        raise CliValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="collabsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic union-of-subspaces dataset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n-per", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--nonlinearity", default="none", choices=NONLINEARITIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="prefix for _features.csv and _labels.csv")

    for name, help_text in (("pretrain", "autoencoder pretraining only"),
                            ("train", "full collaborative training")):
        p = sub.add_parser(name, help=help_text)
        _add_data_flags(p)
        p.add_argument("--config", required=True)
        p.add_argument("--checkpoint", required=True, help="output checkpoint path")
        _add_override_flags(p)
        if name == "pretrain":
            p.add_argument("--log", help="per-epoch reconstruction loss CSV")
        else:
            p.add_argument("--init-checkpoint", help="start from a pretrained checkpoint")
            p.add_argument("--train-log", help="per-step loss breakdown CSV")
            p.add_argument("--metrics-log", help="per-epoch metrics CSV")

    p = sub.add_parser("eval", help="clustering metrics for predictions or a checkpoint")
    p.add_argument("--pred", help="predicted labels CSV (one integer per line)")
    p.add_argument("--true", help="ground-truth labels CSV")
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    _add_data_flags(p)
    _add_override_flags(p)

    p = sub.add_parser("export-affinity",
                       help="write the two affinity matrices of one batch as CSV and PGM")
    _add_data_flags(p)
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--batch", type=int, default=0)
    p.add_argument("--out", required=True, help="prefix for _subspace/_class .csv/.pgm")
    _add_override_flags(p)

    p = sub.add_parser("gradcheck", help="finite-difference checks for every operator")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    return parser


def _add_data_flags(p):
    p.add_argument("--data", help="features CSV (one point per row)")
    p.add_argument("--labels", help="labels CSV (one integer per line)")
    p.add_argument("--idx-images", help="IDX images file")
    p.add_argument("--idx-labels", help="IDX labels file")
    p.add_argument("--feature-shape",
                   help="comma-separated per-sample shape for CSV data, e.g. 1,28,28")


# the ExperimentConfig fields that a flag --<name> (with - for _) overrides
_OVERRIDES = ("lambda1", "lambda_cl", "l", "batch_size", "epochs", "pretrain_epochs",
              "lr_pretrain", "lr_ae", "lr_other", "inner_se_steps", "classifier_steps", "seed",
              "soft_mask")


def _add_override_flags(p):
    for name in _OVERRIDES + ("u_initial", "u_after"):  # one side each of u_schedule
        p.add_argument("--" + name.replace("_", "-"))


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    types = scalar_fields(ExperimentConfig)
    changes = {name: parse_value(name, getattr(args, name), types[name])
               for name in _OVERRIDES if getattr(args, name) is not None}
    u_sides = [None if raw is None else parse_value(name, raw, float)
               for name, raw in (("u_initial", args.u_initial), ("u_after", args.u_after))]
    if u_sides != [None, None]:
        changes["u_schedule"] = complete_u_schedule(config.u_schedule, *u_sides)
    return dataclasses.replace(config, **changes)


def _load_data(args) -> Dataset:
    if args.idx_images or args.idx_labels:
        if not (args.idx_images and args.idx_labels):
            raise CliValidationError("--idx-images and --idx-labels must be given together")
        if args.feature_shape:
            raise CliValidationError(
                "--feature-shape applies to --data only; IDX images carry their own shape")
        return load_idx(args.idx_images, args.idx_labels)
    if not args.data:
        raise CliValidationError("no input data: give --data or --idx-images/--idx-labels")
    if not args.labels:
        raise CliValidationError("--data and --labels must be given together")
    shape = None
    if args.feature_shape:
        try:
            shape = tuple(int(s) for s in args.feature_shape.split(","))
        except ValueError:
            raise CliValidationError(
                f"--feature-shape: expected comma-separated integers, got {args.feature_shape!r}")
    return load_dataset_csv(args.data, args.labels, feature_shape=shape)


def _loaded_trainer(args, checkpoint=None) -> CollaborativeTrainer:
    """A trainer on the command's config and data, holding the parameters
    of ``checkpoint`` if one is given."""
    config = _apply_overrides(parse_config_file(args.config), args)
    trainer = CollaborativeTrainer(config, _load_data(args))
    if checkpoint:
        trainer.load_checkpoint_params(load_checkpoint(checkpoint))
    return trainer


def _run_saving(trainer: CollaborativeTrainer, run, path):
    """``run()``, then save the trainer's checkpoint to ``path``. A diverged
    run leaves the trainer in its last finite state; that is saved too."""
    try:
        result = run()
    except TrainingDivergedError:
        save_checkpoint(path, trainer.checkpoint_params())
        raise
    save_checkpoint(path, trainer.checkpoint_params())
    return result


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    spec = SyntheticSpec(k=args.k, d=args.d, D=args.D, n_per=args.n_per,
                         noise_sigma=args.noise_sigma, nonlinearity=args.nonlinearity,
                         seed=args.seed)
    dataset = generate_synthetic(spec)
    save_dataset_csv(dataset, f"{args.out}_features.csv", f"{args.out}_labels.csv")
    print(f"wrote {len(dataset)} points to {args.out}_features.csv / {args.out}_labels.csv")
    return 0


def _cmd_pretrain(args) -> int:
    trainer = _loaded_trainer(args)
    history = _run_saving(trainer, trainer.pretrain, args.checkpoint)
    if args.log:
        Path(args.log).write_text(pretrain_log_csv(history))
    final = history[-1] if history else float("nan")
    print(f"pretrained {trainer.config.pretrain_epochs} epochs, final reconstruction loss {final}")
    return 0


def _cmd_train(args) -> int:
    trainer = _loaded_trainer(args, args.init_checkpoint)
    _run_saving(trainer, lambda: trainer.fit(skip_pretrain=bool(args.init_checkpoint)),
                args.checkpoint)
    if args.train_log:
        Path(args.train_log).write_text(train_log_csv(trainer))
    if args.metrics_log:
        Path(args.metrics_log).write_text(metrics_csv(trainer))
    if trainer.pretrain_log and args.train_log:
        Path(args.train_log + ".pretrain").write_text(pretrain_log_csv(trainer.pretrain_log))
    print(metrics_header(trainer.config.network.num_clusters))
    print(format_metrics_row(trainer.metrics_history[-1]))
    return 0


def _cmd_eval(args) -> int:
    if args.pred:
        if not args.true:
            raise CliValidationError("eval --pred also needs --true")
        y_pred, y_true = load_labels_csv(args.pred), load_labels_csv(args.true)
        k = int(max(y_pred.max(), y_true.max())) + 1
        row = metrics_row(0, y_true, y_pred, k)  # checks the labels before anything is printed
        # the metrics table without its epoch column
        print(metrics_header(k).partition(",")[2])
        print(format_metrics_row(row).partition(",")[2])
        return 0
    if not (args.checkpoint and args.config):
        raise CliValidationError("eval needs either --pred/--true or --checkpoint/--config")
    trainer = _loaded_trainer(args, args.checkpoint)
    row = evaluate(trainer.network, trainer.dataset, 0, trainer.config.batch_size)
    print(metrics_header(row.k))
    print(format_metrics_row(row))
    return 0


def _cmd_export_affinity(args) -> int:
    trainer = _loaded_trainer(args, args.checkpoint)
    if not 0 <= args.batch < len(trainer.batches):
        raise CliValidationError(
            f"--batch {args.batch} out of range; the partition has {len(trainer.batches)} batches")
    if args.batch not in trainer.coeff_adams:
        raise CliValidationError(
            f"checkpoint has no coefficients for batch {args.batch} "
            f"(selfexpr.batch_{args.batch}.C); export needs a checkpoint written by `train`")
    # the formulas training reads, on the C that load_checkpoint_params checked
    (coeffs,) = trainer.coeff_adams[args.batch].params.values()
    subspace = subspace_affinity_tensor(coeffs).values
    x = trainer.dataset.features[trainer.batches[args.batch]]
    frozen = trainer.network.frozen()
    class_aff = clip_overshoot(class_affinity_tensor(frozen.classify(frozen.encode(x))).values)
    for name, matrix in (("subspace", subspace), ("class", class_aff)):
        # display convention of the export only: each point is fully affine
        # to itself (training's subspace affinity keeps a 0 diagonal)
        np.fill_diagonal(matrix, 1.0)
        write_matrix_csv(matrix, f"{args.out}_{name}.csv")
        affinity_to_pgm(matrix, f"{args.out}_{name}.pgm")
    print(f"wrote {args.out}_subspace.csv/.pgm and {args.out}_class.csv/.pgm "
          f"for batch {args.batch} ({x.shape[0]} points)")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradient_checks(seed=args.seed, trials=args.trials)
    worst = 0.0
    for kind, err in results.items():
        print(f"{kind}: max relative error {err:.3e}")
        worst = max(worst, err)
    print(f"overall max relative error {worst:.3e}")
    if worst >= 1e-4:
        print("error: gradient check FAILED (threshold 1e-4)", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {"synth": _cmd_synth, "pretrain": _cmd_pretrain, "train": _cmd_train,
             "eval": _cmd_eval, "export-affinity": _cmd_export_affinity,
             "gradcheck": _cmd_gradcheck}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # CLI, config and checkpoint errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
