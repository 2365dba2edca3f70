"""One benchmark invocation: rounds of the full training pipeline, timed.

A round drives ``collabsc`` through its public API exactly as a user would:
load the input files, parse the config and build a ``CollaborativeTrainer``
(set-up), ``pretrain``, ``warm_start_classifier``, ``fit`` (the epoch loop
of ``train_batch`` calls with an ``evaluate`` after each epoch), then
``predict_dataset``, ``evaluate`` and a checkpoint save/load.
One invocation has several input sets, generated from sub-seeds of its
seed; rounds cycle through them. Every round on one set trains the same model
from the same files, so each must produce a byte-identical train-log CSV.

Rounds repeat until the time budget is spent. Timings are medians over all
samples of all rounds, so a sample count grows with the budget and the
samples of every metric are spread over the whole run and over several data
sets (k-means work, for one, varies from data set to data set). The traced
mode alternates untraced and traced rounds on the same set; see
``spans.py``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from collabsc import checkpoint, config as config_mod, trainer as trainer_mod

from spans import CLASSIFIER_OUT, OP_FUNCTIONS, Tracer
from workloads import Workload

# name, unit, better; the bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pretrain_epoch_s", "s", "lower"),
    ("warm_start_s", "s", "lower"),
    ("train_batch_ms", "ms", "lower"),
    ("train_points_per_s", "pts/s", "higher"),
    ("predict_points_per_s", "pts/s", "higher"),
    ("evaluate_s", "s", "lower"),
    ("checkpoint_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("final_acc", "ratio", "higher"),
    ("final_nmi", "ratio", "higher"),
    ("success_share", "ratio", "higher"),
)

LAYERS = ("encoder.0", "encoder.1", "decoder.0", "decoder.1", "classifier.0", CLASSIFIER_OUT)
ADAM_GROUPS = ("autoencoder", "classifier", "coeffs")
LOSS_SPANS = ("subspace_loss", "build_masks", "positive_loss", "negative_loss",
              "subspace_affinity_tensor")
METRIC_SPANS = ("hungarian", "nmi", "ari", "infer_labels")


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = [(f"trainer.stage{i}_ms", "ms", "lower") for i in (1, 2, 3)]
    for kind in OP_FUNCTIONS:
        rows += [(f"autodiff.{kind}.fwd_ms", "ms", "lower"),
                 (f"autodiff.{kind}.bwd_ms", "ms", "lower"),
                 (f"autodiff.{kind}.calls", "count", "lower")]
    rows += [("autodiff.backward_ms", "ms", "lower"),
             ("autodiff.topological_order_ms", "ms", "lower"),
             ("autodiff.graph_nodes", "count", "lower")]
    for layer in LAYERS:
        rows += [(f"network.{layer}.fwd_ms", "ms", "lower"),
                 (f"network.{layer}.bwd_ms", "ms", "lower")]
    rows += [(f"network.{part}_ms", "ms", "lower") for part in ("encode", "decode", "classify")]
    rows += [(f"optim.adam_step.{group}_ms", "ms", "lower") for group in ADAM_GROUPS]
    rows += [(f"losses.{name}_ms", "ms", "lower") for name in LOSS_SPANS]
    rows += [("losses.selected_share", "ratio", "higher"),
             ("losses.clamped_share", "ratio", "lower")]
    rows += [(f"affinity.{name}_ms", "ms", "lower")
             for name in ("subspace_affinity", "class_affinity", "kmeans")]
    rows += [(f"metrics.{name}_ms", "ms", "lower") for name in METRIC_SPANS]
    rows += [("checkpoint.save_ms", "ms", "lower"), ("checkpoint.load_ms", "ms", "lower"),
             ("checkpoint.bytes", "count", "lower"),
             ("data.load_ms", "ms", "lower"),
             ("trace.overhead_share", "ratio", "lower"),
             ("trace.unattributed_share", "ratio", "lower")]
    return tuple(rows)


PER_LAYER = _per_layer()

# samples per round of the calls that are short next to a round; a sample
# of warm start, predict or evaluate is the mean of back-to-back calls that
# add up to MIN_SAMPLE_S, a checkpoint sample is one save/load round trip
SETUP_REPEATS = 3
WARM_START_REPEATS = 2
PREDICT_REPEATS = 2
EVALUATE_REPEATS = 2
CHECKPOINT_REPEATS = 16
MIN_SAMPLE_S = 0.05

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Measurement:
    """Samples and check outcomes of one invocation; ``attempted`` and
    ``failed`` count correctness checks."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    traced_samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # input set -> {"untraced": sha256, "traced": sha256} of its train-log CSV
    train_log_sha256: dict = field(default_factory=lambda: defaultdict(dict))
    final_rows: dict = field(default_factory=dict)  # input set -> last epoch's MetricsRow
    breakdowns: list = field(default_factory=list)  # of the traced rounds
    batch_sizes: list = field(default_factory=list)
    checkpoint_bytes: int = 0
    rounds: dict = field(default_factory=lambda: {"untraced": 0, "traced": 0})
    tracer: Tracer | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _finite_breakdown(b) -> bool:
    return all(math.isfinite(float(v)) for v in vars(b).values())


def _bit_exact(saved: dict, loaded: dict) -> bool:
    if set(saved) != set(loaded):
        return False
    for name, arr in saved.items():
        got = loaded[name]
        if got.dtype != np.float64 or got.shape != arr.shape or got.tobytes() != arr.tobytes():
            return False
    return True


def _timed(fn, into: list, scale: float = 1.0):
    """Wrap ``fn`` so that each call appends its duration times ``scale`` to ``into``."""
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        into.append((perf_counter() - t0) * scale)
        return out

    return wrapper


def _per_call_s(fn, check) -> float:
    """Call ``fn`` back to back, at least once, until the calls add up to
    ``MIN_SAMPLE_S``; mean seconds per call. ``check`` sees each result,
    outside the timing."""
    total, calls = 0.0, 0
    while calls == 0 or total < MIN_SAMPLE_S:
        t0 = perf_counter()
        out = fn()
        total += perf_counter() - t0
        calls += 1
        check(out)
    return total / calls


def run_round(workload: Workload, paths: dict, key: int, m: Measurement,
              tracer: Tracer | None = None) -> None:
    """One full pipeline on input set ``key``; appends samples and check outcomes to ``m``."""
    label = "untraced" if tracer is None else "traced"
    samples = m.samples if tracer is None else m.traced_samples
    m.rounds[label] += 1

    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        dataset = workload.load(paths)
        config = config_mod.parse_config_file(paths["config"])
        trainer = trainer_mod.CollaborativeTrainer(config, dataset)
        samples["setup_s"].append(perf_counter() - t0)
    if tracer is not None:
        tracer.trainer = trainer
    n, k = len(dataset), config.network.num_clusters

    t0 = perf_counter()
    pretrain_log = trainer.pretrain()
    samples["pretrain_epoch_s"].append((perf_counter() - t0) / max(config.pretrain_epochs, 1))
    m.check(all(math.isfinite(v) for v in pretrain_log), "non-finite pretraining loss")

    # the workload's config turns fit's own warm start off, so that it can be
    # timed (and checked for repeatability) here, outside the epoch loop
    out_params = ("classifier.out.W", "classifier.out.b")
    first = []

    def check_warm_start(_):
        now = [trainer.network.params[p].values.tobytes() for p in out_params]
        if not first:
            first.extend(now)
        m.check(now == first, "warm_start_classifier is not repeatable")

    for _ in range(WARM_START_REPEATS):
        samples["warm_start_s"].append(_per_call_s(trainer.warm_start_classifier,
                                                   check_warm_start))

    trainer.train_batch = _timed(trainer.train_batch, samples["train_batch_ms"], 1e3)
    t0 = perf_counter()
    result = trainer.fit(skip_pretrain=True)
    samples["train_points_per_s"].append(n * config.epochs / (perf_counter() - t0))
    train_log, history = result.train_log, result.metrics_history

    sha = hashlib.sha256(trainer_mod.train_log_csv(result).encode()).hexdigest()
    m.check(all(_finite_breakdown(b) for b in train_log), "non-finite training loss")
    hashes = m.train_log_sha256[key]
    expected = hashes.setdefault("untraced", sha)
    m.check(sha == expected, f"set {key}: {label} train-log sha256 {sha} differs from {expected}")
    hashes.setdefault(label, sha)
    final = m.final_rows.setdefault(key, history[-1])
    m.check(history[-1] == final, f"set {key}: final metrics differ between rounds")
    if tracer is not None:
        m.breakdowns += train_log
        m.batch_sizes += [int(trainer.batches[i].size) for i in range(len(trainer.batches))
                          ] * config.epochs

    def check_labels(labels):
        m.check(labels.shape == (n,) and int(labels.min()) >= 0 and int(labels.max()) < k,
                "predict_dataset returned labels outside [0, k) or of the wrong length")

    for _ in range(PREDICT_REPEATS):
        per_call = _per_call_s(lambda: trainer_mod.predict_dataset(
            trainer.network, dataset.features, config.batch_size), check_labels)
        samples["predict_points_per_s"].append(n / per_call)

    def check_row(row):
        m.check(row == history[-1], "evaluate disagrees with the last epoch's metrics")

    for _ in range(EVALUATE_REPEATS):
        samples["evaluate_s"].append(_per_call_s(lambda: trainer_mod.evaluate(
            trainer.network, dataset, config.epochs, config.batch_size), check_row))

    saved = result.checkpoint_params()
    path = paths["checkpoint"]
    for _ in range(CHECKPOINT_REPEATS):
        # one round trip per sample, to a file that does not exist yet:
        # rewriting a file in place makes ext4 start writeback on close, and
        # a stream of new files drifts with the kernel's page-cache state
        t0 = perf_counter()
        checkpoint.save_checkpoint(path, result.checkpoint_params())
        loaded = checkpoint.load_checkpoint(path)
        samples["checkpoint_s"].append(perf_counter() - t0)
        m.check(_bit_exact(saved, loaded), "checkpoint save/load is not bit-exact")
        m.checkpoint_bytes = path.stat().st_size
        path.unlink()


def measure(workload: Workload, input_sets: list[dict], seconds: float, trace: bool,
            m: Measurement) -> None:
    """Run rounds for ``seconds``: untraced only, or each untraced round
    followed by a traced one on the same input set.

    Untraced runs go round the input sets at least once and repeat the first
    set, so every run compares a train log against an earlier one.
    """
    tracer = m.tracer = Tracer() if trace else None
    start = perf_counter()
    round_times = []
    while True:
        t0 = perf_counter()
        key = m.rounds["untraced"] % len(input_sets)
        run_round(workload, input_sets[key], key, m)
        if trace:
            with tracer:
                run_round(workload, input_sets[key], key, m, tracer)
        # free the round's autodiff graphs (reference cycles) now, so that
        # neither the next round's timings nor peak_rss_mib depend on when
        # the collector would have run
        gc.collect()
        round_times.append(perf_counter() - t0)
        done = trace or m.rounds["untraced"] > len(input_sets)
        # start another round only if it should end inside the budget
        if done and perf_counter() - start + float(np.median(round_times)) > seconds:
            break


# ---------------------------------------------------------------------------
# statistics and results
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values, better: str) -> dict:
    """Sample count, median, and the slow-side tail: the highest listed
    percentile with at least ten samples beyond it (nearest rank). For a
    higher-is-better metric the slow side is the low end, so ``p90`` there is
    the value 90% of samples exceed."""
    xs = sorted(values, reverse=(better == "higher"))
    n = len(xs)
    out = {"samples": n, "median": median(xs)}
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = xs[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
            break
    return out


def end_to_end(m: Measurement) -> dict:
    values = {name: median(m.samples[name]) for name in
              ("setup_s", "pretrain_epoch_s", "warm_start_s", "train_batch_ms",
               "train_points_per_s", "predict_points_per_s", "evaluate_s", "checkpoint_s")}
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["final_acc"] = median([row.acc for row in m.final_rows.values()])
    values["final_nmi"] = median([row.nmi for row in m.final_rows.values()])
    values["success_share"] = (m.attempted - m.failed) / m.attempted  # of the checks
    return values


def _stages(children, batch_start, batch_end) -> tuple[float, float, float]:
    """Stage boundaries from the call sequence of one ``train_batch``.

    Stage 2 opens with the encode that follows the last coefficient step
    before the first classifier step; stage 3 opens with the first encode
    after a classifier step.
    """
    names = [c[0] for c in children]
    first_cls = names.index("optim.adam_step.classifier")
    last_coeff = max(i for i in range(first_cls) if names[i] == "optim.adam_step.coeffs")
    s2 = next(children[i][1] for i in range(last_coeff, first_cls)
              if names[i] == "network.encode")
    s3 = next(children[i][1] for i in range(first_cls, len(names))
              if names[i] == "network.encode")
    return s2 - batch_start, s3 - s2, batch_end - s3


def per_layer(m: Measurement) -> dict:
    t = m.tracer
    tb = "trainer.train_batch"
    batches = t.calls[tb, tb]

    def per_batch_ms(name, table=None):
        return 1e3 * (table or t.self_time)[tb, name] / batches

    def per_call_ms(scope, name):
        calls = t.calls[scope, scope]
        return 1e3 * t.self_time[scope, name] / calls if calls else 0.0

    values = {}
    stages = np.array([_stages(children, start, end) for children, (start, end, _)
                       in zip(t.batch_children, t.batch_spans)])
    for i in range(3):
        values[f"trainer.stage{i + 1}_ms"] = 1e3 * float(stages[:, i].mean())
    for kind in OP_FUNCTIONS:
        values[f"autodiff.{kind}.fwd_ms"] = per_batch_ms(f"autodiff.{kind}.fwd")
        values[f"autodiff.{kind}.bwd_ms"] = per_batch_ms(f"autodiff.{kind}.bwd")
        values[f"autodiff.{kind}.calls"] = t.calls[tb, f"autodiff.{kind}.fwd"] / batches
    values["autodiff.backward_ms"] = per_batch_ms("autodiff.backward")
    values["autodiff.topological_order_ms"] = per_batch_ms("autodiff.topological_order")
    values["autodiff.graph_nodes"] = t.graph_nodes[tb] / batches
    for layer in LAYERS:
        for direction in ("fwd", "bwd"):
            values[f"network.{layer}.{direction}_ms"] = \
                1e3 * t.layer_time[tb, layer, direction] / batches
    for part in ("encode", "decode", "classify"):
        values[f"network.{part}_ms"] = per_batch_ms(f"network.{part}", t.total_time)
    for group in ADAM_GROUPS:
        values[f"optim.adam_step.{group}_ms"] = per_batch_ms(f"optim.adam_step.{group}")
    for name in LOSS_SPANS:
        values[f"losses.{name}_ms"] = per_batch_ms(f"losses.{name}")
    selected = sum(b.count_pos + b.count_neg for b in m.breakdowns)
    clamped = sum(b.clamped_pos + b.clamped_neg for b in m.breakdowns)
    values["losses.selected_share"] = selected / sum(s * (s - 1) for s in m.batch_sizes)
    values["losses.clamped_share"] = clamped / selected if selected else 0.0
    values["affinity.subspace_affinity_ms"] = per_batch_ms("affinity.subspace_affinity")
    values["affinity.class_affinity_ms"] = per_batch_ms("affinity.class_affinity")
    values["affinity.kmeans_ms"] = per_call_ms("trainer.warm_start", "affinity.kmeans")
    for name in METRIC_SPANS:
        values[f"metrics.{name}_ms"] = per_call_ms("trainer.evaluate", f"metrics.{name}")
    for op in ("save", "load"):
        scope = f"checkpoint.{op}"
        values[f"checkpoint.{op}_ms"] = 1e3 * t.total_time[scope, scope] / t.calls[scope, scope]
    values["checkpoint.bytes"] = m.checkpoint_bytes
    values["data.load_ms"] = 1e3 * t.total_time["data.load", "data.load"] / \
        t.calls["data.load", "data.load"]
    values["trace.overhead_share"] = median(m.traced_samples["train_batch_ms"]) / \
        median(m.samples["train_batch_ms"]) - 1.0
    values["trace.unattributed_share"] = sum(s[2] for s in t.batch_spans) / \
        sum(s[1] - s[0] for s in t.batch_spans)
    return values


def result(m: Measurement, trace: bool) -> dict:
    table = PER_LAYER if trace else END_TO_END
    values = per_layer(m) if trace else end_to_end(m)
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit, _ in table},
    }


def detail(m: Measurement) -> dict:
    """Sample counts, tails and hashes that do not fit the result line."""
    return {
        "rounds": dict(m.rounds),
        "train_log_sha256": {f"set{k}": v for k, v in sorted(m.train_log_sha256.items())},
        "timings": {name: tail(m.samples[name], better) for name, _, better in END_TO_END
                    if name in m.samples},
        "problems": list(m.problems),
    }
