"""Training orchestration: pretraining, the three-stage batch loop, evaluation.

Per batch, one training round is:
  stage 1 - several optimizer steps on the subspace objective over the
            autoencoder and the batch's coefficient matrix (diagonal
            re-projected to zero after every step), then build the round's
            subspace affinity tensor from the final C;
  stage 2 - classifier-only steps on the positive collaborative term, taught
            by that affinity's values, with the encoder output frozen (the
            negative term's teacher and student are both constants here, so
            it has no gradient);
  stage 3 - one joint step on the full objective over all parameters, the
            autoencoder group at its own smaller learning rate; it
            differentiates the same subspace affinity tensor.
Each class affinity, stage 2's and stage 3's, is ``class_affinity_tensor`` of
that step's predictions, so every step checks the prediction rows in full.

The batch partition is shuffled once from the seed and then fixed. Each
batch keeps its own coefficient matrix C, an n x n parameter that mixes the
batch's latent rows Z as C^T Z: the one parameter of that batch's optimizer,
which keeps it and its moments across epochs, the only state keyed by batch
identity.

One guard, ``_restoring``, owns a pretraining epoch's or a batch round's
state: it saves each stepped group's buffer and Adam state, refuses a
parameter the block leaves non-finite, and on failure puts the saved back.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .affinity import (class_affinity_tensor, clip_overshoot, cluster_means, kmeans,
                       subspace_affinity_tensor)
from .checkpoint import CheckpointError
from .config import ExperimentConfig
from .data import Dataset
from .losses import (LossBreakdown, clamped_count, collaboration_rate, collaborative_loss,
                     negative_teacher, positive_teacher, subspace_loss, total_loss)
from .metrics import accuracy, ari, cluster_sizes, infer_labels, nmi
from .network import Network
from .optim import Adam, flat_parameters, group_views
from .rng import Xorshift64Star, mix_seed

TRAIN_LOG_HEADER = ("step,coeff_norm_sq,self_expression,reconstruction,l_sub,"
                    "l_pos,l_neg,alpha,omega,total,count_pos,count_neg")
METRICS_HEADER_PREFIX = "epoch,n,k,acc,nmi,ari"
PRETRAIN_LOG_HEADER = "epoch,reconstruction_loss"

# Pretraining has diverged once a batch's per-point reconstruction loss
# exceeds this multiple of the first batch's, measured before any step. Adam
# moves each parameter by at most about the learning rate per step, so a
# runaway run can grow its loss by dozens of orders of magnitude and still
# stay finite; a test for non-finite values alone misses it. Well-tuned runs
# stay at or below 1x; a too-high learning rate that still recovers
# overshoots to about 1e6x.
PRETRAIN_DIVERGENCE_FACTOR = 1e8


class TrainingDivergedError(RuntimeError):
    """Training diverged; ``_restoring`` put back what the failed block stepped.

    Raised for a loss non-finite before its step, stage 1's C non-finite
    after its steps, a pretraining per-point loss over
    ``PRETRAIN_DIVERGENCE_FACTOR`` times the first batch's, a parameter that
    a pretraining epoch or ``train_batch`` call leaves non-finite (named),
    and, chained, a ``ValueError`` from a check on a value computed in
    training. Each group that epoch or call steps (for ``train_batch`` the
    autoencoder, the classifier and the batch's C) then holds its parameters
    and Adam state from the start.
    """


def _chunks(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Consecutive chunks of ``order``; a lone trailing point is folded into
    the previous chunk so every chunk has at least 2 rows."""
    chunks = [order[i:i + batch_size] for i in range(0, order.size, batch_size)]
    if len(chunks) > 1 and chunks[-1].size == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def make_batches(n: int, batch_size: int, rng: Xorshift64Star) -> list[np.ndarray]:
    """Fixed seeded partition into index chunks of at least 2 rows."""
    if n < 2:
        raise ValueError(f"need at least 2 points to train, got {n}")
    return _chunks(rng.shuffled(n), batch_size)


def eval_chunks(n: int, batch_size: int) -> list[np.ndarray]:
    return _chunks(np.arange(n), batch_size)


@dataclass
class MetricsRow:
    epoch: int
    n: int
    k: int
    acc: float
    nmi: float
    ari: float
    sizes: tuple[int, ...]


def predict_dataset(network: Network, features: np.ndarray, batch_size: int) -> np.ndarray:
    """Inference path, chunk by chunk: encode, classify, row argmax. Never
    touches the decoder or any coefficient matrix."""
    params = network.frozen_params()
    parts = [infer_labels(network.predictions(features[chunk], params=params).values)
             for chunk in eval_chunks(features.shape[0], batch_size)]
    return np.concatenate(parts)


def metrics_row(epoch: int, labels_true: np.ndarray, labels_pred: np.ndarray,
                k: int) -> MetricsRow:
    sizes = tuple(int(s) for s in cluster_sizes(labels_pred, k))
    return MetricsRow(
        epoch=epoch, n=len(labels_true), k=k,
        acc=accuracy(labels_true, labels_pred),
        nmi=nmi(labels_true, labels_pred),
        ari=ari(labels_true, labels_pred),
        sizes=sizes,
    )


def evaluate(network: Network, dataset: Dataset, epoch: int, batch_size: int) -> MetricsRow:
    labels_pred = predict_dataset(network, dataset.features, batch_size)
    return metrics_row(epoch, dataset.labels_for_evaluation(), labels_pred,
                       network.config.num_clusters)


class CollaborativeTrainer:
    """Holds one training run: the network, its optimizers, and the run's logs.

    The optimizers ``ae_adam``, ``cls_adam`` and ``coeff_adams`` are the
    run's one parameter store: each steps one ``flat_parameters`` group,
    and ``checkpoint_params``, ``load_checkpoint_params`` and
    ``_zero_grads`` walk them. Batch i's coefficient matrix C is the one
    parameter of ``coeff_adams[i]``, ``selfexpr.batch_<i>.C``; both are
    created on the batch's first visit.

    ``fit`` appends one ``LossBreakdown`` per batch step to ``train_log``,
    one ``MetricsRow`` per evaluation to ``metrics_history`` and, unless it
    skips pretraining, each pretraining epoch's mean loss to
    ``pretrain_log``; it returns the trainer.
    """

    def __init__(self, config: ExperimentConfig, dataset: Dataset):
        self.config = config
        self.dataset = dataset
        self.network = Network(config.network, dataset.feature_shape, seed=config.seed)
        self.batches = make_batches(len(dataset), config.batch_size,
                                    Xorshift64Star(mix_seed(config.seed, 2)))
        self.coeff_adams: dict[int, Adam] = {}
        self.ae_adam = Adam(self.network.groups["autoencoder"], lr=config.lr_ae)
        self.cls_adam = Adam(self.network.groups["classifier"], lr=config.lr_other)
        self.step = 0
        self.train_log: list[LossBreakdown] = []
        self.metrics_history: list[MetricsRow] = []
        self.pretrain_log: list[float] = []

    # ------------------------------------------------------------------

    def _adams(self) -> list[Adam]:
        """The run's optimizers; every trained parameter is in one of their groups."""
        return [self.ae_adam, self.cls_adam, *self.coeff_adams.values()]

    def _batch_adam(self, batch_index: int) -> Adam:
        """The optimizer of batch ``batch_index``'s coefficient matrix, named
        ``selfexpr.batch_<i>.C``; both are created, C zero, on the batch's
        first visit."""
        if batch_index not in self.coeff_adams:
            side = int(self.batches[batch_index].size)
            name = f"selfexpr.batch_{batch_index}.C"
            self.coeff_adams[batch_index] = Adam(
                flat_parameters({name: np.zeros((side, side))}), lr=self.config.lr_other)
        return self.coeff_adams[batch_index]

    def checkpoint_params(self) -> dict[str, np.ndarray]:
        """A copy of every parameter the optimizers step, the network's and
        each ``selfexpr.batch_<i>.C``: one buffer copy per group."""
        params = {}
        for adam in self._adams():
            shapes = [p.shape for p in adam.params.values()]
            params.update(zip(adam.params, group_views(adam.buffer.copy(), shapes)))
        return params

    def load_checkpoint_params(self, params: dict[str, np.ndarray]) -> None:
        """Load every network parameter and any ``selfexpr.batch_<i>.C``.

        The one loader. Before anything is written, every key is checked:
        it must name a network parameter or a C of batch i of this partition,
        hold that parameter's shape ((n_i, n_i) for C) in finite values, and
        for C have a zero diagonal; and no network parameter may be missing.
        A ``CheckpointError`` names the first key that fails.
        """
        network = self.network.params
        checked = {}  # name -> (batch index, or None for a network key; values)
        for name, values in params.items():
            values = np.asarray(values, dtype=np.float64)
            batch = None
            if name in network:
                shape = network[name].shape
            elif name.startswith("selfexpr."):
                match = re.fullmatch(r"selfexpr\.batch_([0-9]+)\.C", name)
                batch = int(match.group(1)) if match else -1
                if not 0 <= batch < len(self.batches):
                    raise CheckpointError(f"checkpoint key {name!r} names no batch of this "
                                          f"partition of {len(self.batches)} batches")
                shape = (int(self.batches[batch].size),) * 2
            else:
                raise CheckpointError(f"checkpoint key {name!r} names no network parameter")
            if values.shape != shape:
                raise CheckpointError(f"checkpoint key {name!r} has shape {values.shape}, "
                                      f"expected {shape}")
            if not np.isfinite(values).all():
                raise CheckpointError(f"checkpoint key {name!r} holds NaN or inf values")
            if batch is not None and np.count_nonzero(np.diagonal(values)):
                raise CheckpointError(f"checkpoint key {name!r} has a non-zero diagonal")
            checked[name] = batch, values
        for name in network:
            if name not in params:
                raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        for name, (batch, values) in checked.items():
            target = network[name] if batch is None else self._batch_adam(batch).params[name]
            target.values[...] = values

    @contextmanager
    def _restoring(self, what: str, *adams: Adam):
        """Undo the block if it fails. Every parameter ``adams`` step must be
        finite when it ends (``TrainingDivergedError`` names the first that
        is not); on that error or a ``ValueError`` (re-raised as the former,
        naming ``what``) each buffer and Adam state is put back as it was."""
        saved = [(adam.buffer.copy(), adam.state_copy()) for adam in adams]
        try:
            yield
            for adam in adams:
                for name, p in adam.params.items():
                    self._check_finite(f"{what}: parameter {name}", p)
        except (TrainingDivergedError, ValueError) as exc:
            for adam, (buffer, state) in zip(adams, saved):
                adam.buffer[...] = buffer
                adam.state = state
            if isinstance(exc, TrainingDivergedError):
                raise
            raise TrainingDivergedError(
                f"{what} failed a value check: {exc}; the model holds its state "
                f"from before {what}") from exc

    def _zero_grads(self) -> None:
        for adam in self._adams():
            for p in adam.params.values():
                p.grad = None

    @staticmethod
    def _check_finite(what: str, t: ad.Tensor) -> None:
        if not np.isfinite(t.values).all():
            raise TrainingDivergedError(f"{what} went non-finite")

    def _descend(self, what: str, loss: ad.Tensor, *adams: Adam) -> None:
        """One descent step: check ``loss`` is finite, backpropagate it into
        zeroed gradients, then step ``adams`` in the order given."""
        self._check_finite(what, loss)
        self._zero_grads()
        ad.backward(loss)
        for adam in adams:
            adam.step()

    def _subspace_pass(self, x: ad.Tensor, coeffs: ad.Tensor):
        """Encode, self-express (latent rows mixed as C^T Z), decode: the
        latent, then ``subspace_loss``'s total and its three terms.

        The one C^T Z node feeds both the decoder and the self-expression
        term, so backward sums their gradients before one matmul backward.
        """
        latent = self.network.encode(x)
        mixed = ad.matmul(ad.transpose(coeffs), latent)
        recon = self.network.decode(mixed)
        return (latent, *subspace_loss(latent, coeffs, mixed, x, recon, self.config.lambda1))

    # ------------------------------------------------------------------

    def pretrain(self) -> list[float]:
        """Reconstruction-only pretraining with the coefficients bypassed.

        Returns the mean batch loss of each epoch; a diverged epoch is undone
        (see ``TrainingDivergedError``).
        """
        cfg = self.config
        adam = Adam(self.network.groups["autoencoder"], lr=cfg.lr_pretrain)
        history: list[float] = []
        initial = None  # the first batch's per-point loss, before any step
        for epoch in range(1, cfg.pretrain_epochs + 1):
            epoch_loss, where = 0.0, f"pretraining epoch {epoch}"
            with self._restoring(where, adam):
                for batch, chunk in enumerate(self.batches, start=1):
                    x = ad.constant(self.dataset.features[chunk])
                    recon = self.network.decode(self.network.encode(x))
                    loss = ad.scale(ad.frobenius_sq(ad.subtract(x, recon)), 0.5)
                    value = loss.item()
                    per_point = value / chunk.size
                    if initial is None:
                        initial = per_point
                    if not (np.isfinite(per_point)
                            and per_point <= PRETRAIN_DIVERGENCE_FACTOR * initial):
                        raise TrainingDivergedError(
                            f"pretraining reconstruction loss diverged (non-finite, or over "
                            f"{PRETRAIN_DIVERGENCE_FACTOR:.0e} times the initial per-point "
                            f"loss {initial:.3g}): {per_point:.3g} per point at epoch "
                            f"{epoch}, batch {batch}; the model holds its parameters from "
                            f"before epoch {epoch}")
                    self._descend(f"{where}: reconstruction loss", loss, adam)
                    epoch_loss += value
            history.append(epoch_loss / len(self.batches))
        return history

    # ------------------------------------------------------------------

    def warm_start_classifier(self) -> None:
        """Initialize the classifier output layer as a nearest-centroid
        readout of seeded k-means prototypes in the head's feature space.

        The collaborative losses are purely attractive on the classifier, so
        a cold random head tends to drift into one class before the
        subspace affinity can teach it anything; every comparable
        autoencoder-based clustering system warm-starts its cluster heads
        from unsupervised latent structure for the same reason. Uses no
        labels and no spectral step; fully determined by the seed.
        """
        features = self.dataset.features
        frozen = self.network.frozen_params()
        feats = np.concatenate([
            self.network.classifier_features(
                self.network.encode(ad.constant(features[chunk]), params=frozen),
                params=frozen).values
            for chunk in eval_chunks(features.shape[0], self.config.batch_size)])
        k = self.config.network.num_clusters
        labels = kmeans(feats, k, seed=mix_seed(self.config.seed, 3))
        centroids, counts = cluster_means(feats, labels, k)
        centroids[counts == 0] = feats.mean(axis=0)
        w = centroids.T
        b = -0.5 * (centroids * centroids).sum(axis=1)
        logits = feats @ w + b
        spread = float((logits - logits.mean(axis=0, keepdims=True)).std())
        gain = 4.0 / max(spread, 1e-12)  # sharp enough for confident affinities
        self.network.params["classifier.out.W"].values[...] = gain * w
        self.network.params["classifier.out.b"].values[...] = gain * b

    def train_batch(self, batch_index: int, u: float) -> LossBreakdown:
        """One three-stage round on one batch (see the module docstring); a
        diverged round is undone (see ``TrainingDivergedError``)."""
        where = f"batch {batch_index} at step {self.step}"
        with self._restoring(where, self.ae_adam, self.cls_adam, self._batch_adam(batch_index)):
            return self._train_batch_stages(where, batch_index, u)

    def _train_batch_stages(self, where: str, batch_index: int, u: float) -> LossBreakdown:
        cfg = self.config
        x = ad.constant(self.dataset.features[self.batches[batch_index]])
        coeff_adam = self.coeff_adams[batch_index]
        (coeffs,) = coeff_adam.params.values()

        # stage 1: subspace objective over autoencoder + coefficients
        for _ in range(cfg.inner_se_steps):
            l_sub_t = self._subspace_pass(x, coeffs)[1]
            self._descend(f"{where}: stage-1 subspace loss", l_sub_t, self.ae_adam, coeff_adam)
            np.fill_diagonal(coeffs.values, 0.0)
        self._check_finite(f"{where}: stage-1 coefficients", coeffs)
        # C stays put until stage 3's step: stage 2 teaches from this affinity
        # and stage 3 differentiates it, so nothing may write into its values
        subspace_aff_t = subspace_affinity_tensor(coeffs)

        # stage 2: classifier-only steps on the positive term (the negative term
        # would add a constant); stage 3 reuses the teacher
        latent_frozen = self.network.encode(x, params=self.network.frozen_params())
        teacher = positive_teacher(subspace_aff_t.values, u, soft_mask=cfg.soft_mask)
        for _ in range(cfg.classifier_steps):
            nu = self.network.classify(latent_frozen)
            l_pos_t = collaborative_loss(teacher, class_affinity_tensor(nu))
            self._descend(f"{where}: stage-2 collaborative loss", l_pos_t, self.cls_adam)

        # stage 3: one joint step on the full objective
        latent, l_sub_t, coeff_norm_t, self_expr_t, recon_t = self._subspace_pass(x, coeffs)
        class_aff_t = class_affinity_tensor(self.network.classify(latent))
        l_pos_t = collaborative_loss(teacher, class_aff_t)
        neg_teacher = negative_teacher(clip_overshoot(class_aff_t.values), cfg.l,
                                       soft_mask=cfg.soft_mask)
        dissimilarity_t = ad.subtract(ad.constant(np.ones(subspace_aff_t.shape)), subspace_aff_t)
        l_neg_t = collaborative_loss(neg_teacher, dissimilarity_t)
        alpha = collaboration_rate(teacher.count, neg_teacher.count)
        omega_t = ad.add(l_pos_t, ad.scale(l_neg_t, alpha))
        total_t = total_loss(l_sub_t, omega_t, cfg.lambda_cl)
        self._descend(f"{where}: stage-3 joint loss", total_t, self.ae_adam, self.cls_adam,
                      coeff_adam)
        np.fill_diagonal(coeffs.values, 0.0)

        return LossBreakdown(
            coeff_norm_sq=coeff_norm_t.item(),
            self_expression=self_expr_t.item(),
            reconstruction=recon_t.item(),
            l_sub=l_sub_t.item(),
            l_pos=l_pos_t.item(),
            l_neg=l_neg_t.item(),
            alpha=alpha,
            omega=omega_t.item(),
            total=total_t.item(),
            count_pos=teacher.count,
            count_neg=neg_teacher.count,
            clamped_pos=clamped_count(teacher, class_aff_t),
            clamped_neg=clamped_count(neg_teacher, dissimilarity_t),
        )

    # ------------------------------------------------------------------

    def fit(self, skip_pretrain: bool = False) -> CollaborativeTrainer:
        """Pretrain unless ``skip_pretrain``, then train ``config.epochs``
        epochs, evaluating after each (once, as epoch 0, if there are none).
        The head is warm-started only while no batch has a C: a ``train``
        checkpoint's head was warm-started and trained already."""
        cfg = self.config
        if not skip_pretrain:
            self.pretrain_log += self.pretrain()
        if cfg.warm_start_classifier and cfg.epochs > 0 and not self.coeff_adams:
            self.warm_start_classifier()
        for epoch in range(1, cfg.epochs + 1):
            u = cfg.u_schedule[0] if epoch == 1 else cfg.u_schedule[1]
            for batch_index in range(len(self.batches)):
                self.step += 1
                self.train_log.append(self.train_batch(batch_index, u))
            self.metrics_history.append(
                evaluate(self.network, self.dataset, epoch, cfg.batch_size))
        if cfg.epochs == 0:
            self.metrics_history.append(evaluate(self.network, self.dataset, 0, cfg.batch_size))
        return self


# ---------------------------------------------------------------------------
# CSV serialization (byte-stable for reproducibility checks)
# ---------------------------------------------------------------------------

def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def format_train_log_row(step: int, b: LossBreakdown) -> str:
    floats = (b.coeff_norm_sq, b.self_expression, b.reconstruction, b.l_sub,
              b.l_pos, b.l_neg, b.alpha, b.omega, b.total)
    return ",".join([str(step)] + [repr(float(v)) for v in floats]
                    + [str(b.count_pos), str(b.count_neg)])


def metrics_header(k: int) -> str:
    return METRICS_HEADER_PREFIX + "".join(f",size_{i}" for i in range(k))


def format_metrics_row(row: MetricsRow) -> str:
    return ",".join([str(row.epoch), str(row.n), str(row.k),
                     repr(float(row.acc)), repr(float(row.nmi)), repr(float(row.ari))]
                    + [str(s) for s in row.sizes])


def train_log_csv(trainer: CollaborativeTrainer) -> str:
    return _csv(TRAIN_LOG_HEADER, (format_train_log_row(i, b)
                                   for i, b in enumerate(trainer.train_log, start=1)))


def metrics_csv(trainer: CollaborativeTrainer) -> str:
    return _csv(metrics_header(trainer.config.network.num_clusters),
                map(format_metrics_row, trainer.metrics_history))


def pretrain_log_csv(history: list[float]) -> str:
    """Per-epoch mean reconstruction loss, as returned by ``pretrain``."""
    return _csv(PRETRAIN_LOG_HEADER, (f"{i},{float(v)!r}" for i, v in enumerate(history, start=1)))
