"""The training loop: mini-batch Adam over either task, fully seeded.

Three independent random streams derive from the seed: weight init,
batch order, and dropout masks. Given identical data, config and seed,
two runs produce bit-identical weights and history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from penscript import metrics
from penscript.dataio import Sample
from penscript.jsonconfig import JsonConfig
from penscript.losses import (
    CHARACTER_LOSSES,
    CTCInfeasibleError,
    LossParams,
    ctc_loss,
    greedy_decode,
    joint_opt,
)
from penscript.netcore.model import ModelConfig, RecognitionModel
from penscript.netcore.optim import Adam
from penscript.preprocess import interpolate
from penscript.seeding import stream


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    epochs: int
    learning_rate: float = 1e-4
    batch_size: int = 50
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    target_len: int = 800

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.target_len < 1:
            raise ValueError("target_len must be >= 1")


def _prepare_inputs(
    dataset: Sequence[Sample], indices: Sequence[int], target_len: int
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    arrays = []
    labels = []
    for i in indices:
        s = interpolate(dataset[i], target_len)
        arrays.append(s.values)
        labels.append(s.label)
    return np.stack(arrays), labels


def _evaluate_split(
    model: RecognitionModel, inputs: np.ndarray, labels: list[tuple[int, ...]]
) -> dict:
    out = model.forward(inputs, "eval").data
    if model.task == "seq2seq":
        hyps = [greedy_decode(out[i]) for i in range(len(labels))]
        exact = sum(1 for h, r in zip(hyps, labels) if h == r)
        return {
            "cer": metrics.cer(labels, hyps),
            "wer": 1.0 - exact / len(labels),
        }
    preds = out.argmax(axis=1)
    refs = [(lab[0],) for lab in labels]
    return {"crr": metrics.crr(refs, [(int(p),) for p in preds])}


def train(
    dataset: Sequence[Sample],
    fold: tuple[Sequence[int], Sequence[int]],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    loss_selector: str,
    loss_params: LossParams | None = None,
    model: RecognitionModel | None = None,
) -> tuple[RecognitionModel, list[dict]]:
    """Train on fold[0], validate on fold[1]; returns (model, history).

    loss_selector is "ctc" for the sequence task or one of the character
    losses (plus "joint_opt") for single-label samples. Samples whose
    target cannot align to the frame count under the sequence loss are
    skipped and counted per epoch. Pass a model to continue training it.
    """
    train_idx, val_idx = fold
    if len(train_idx) == 0:
        raise ValueError("empty training split")
    for i in (*train_idx, *val_idx):
        if not 0 <= i < len(dataset):
            raise ValueError(f"fold index {i} is out of range for {len(dataset)} samples")
    known = {"ctc", "joint_opt", *CHARACTER_LOSSES}
    if loss_selector not in known:
        raise ValueError(f"loss_selector must be one of {sorted(known)}")
    params = loss_params or LossParams()
    task = "seq2seq" if loss_selector == "ctc" else "char"

    rng_init = stream(train_cfg.seed, 0)
    rng_order = stream(train_cfg.seed, 1)
    rng_drop = stream(train_cfg.seed, 2)

    in_channels = dataset[train_idx[0]].num_channels
    if model is None:
        model = RecognitionModel(model_cfg, in_channels, task, rng_init)
    elif model.task != task:
        raise ValueError(f"checkpointed model is for task {model.task!r}")

    x_train, y_train = _prepare_inputs(dataset, train_idx, train_cfg.target_len)
    x_val, y_val = (
        _prepare_inputs(dataset, val_idx, train_cfg.target_len)
        if len(val_idx)
        else (None, None)
    )

    opt = Adam(
        [p for _, p in model.parameters()],
        lr=train_cfg.learning_rate,
        beta1=train_cfg.adam_beta1,
        beta2=train_cfg.adam_beta2,
        eps=train_cfg.adam_eps,
    )

    char_loss = CHARACTER_LOSSES.get(loss_selector)

    history: list[dict] = []
    n = len(train_idx)
    for epoch in range(train_cfg.epochs):
        order = rng_order.permutation(n)
        epoch_loss = 0.0
        counted = 0
        skipped = 0
        for start in range(0, n, train_cfg.batch_size):
            chosen = order[start : start + train_cfg.batch_size]
            out = model.forward(x_train[chosen], "train", rng_drop)
            seed_grad = np.zeros_like(out.data)

            if loss_selector == "joint_opt":
                targets = [y_train[i][0] for i in chosen]
                res = joint_opt(out.data, targets, params)
                seed_grad[...] = res.grad_logits
                batch_value = res.value
                batch_n = len(chosen)
            else:
                results = []
                for row, i in enumerate(chosen):
                    try:
                        if task == "seq2seq":
                            res = ctc_loss(out.data[row], y_train[i])
                        else:
                            res = char_loss(out.data[row], y_train[i][0], params)
                    except CTCInfeasibleError:
                        skipped += 1
                        continue
                    results.append((row, res))
                if not results:
                    continue
                batch_n = len(results)
                batch_value = 0.0
                for row, res in results:
                    seed_grad[row] = res.grad_logits / batch_n
                    batch_value += res.value / batch_n

            opt.zero_grad()
            out.backward(seed_grad)
            opt.step()
            epoch_loss += batch_value * batch_n
            counted += batch_n
            # free this batch's tape before the next forward builds its own
            del out, seed_grad

        record = {
            "epoch": epoch,
            "train_loss": epoch_loss / counted if counted else float("nan"),
            "skipped": skipped,
        }
        if x_val is not None:
            record.update(_evaluate_split(model, x_val, y_val))
        history.append(record)

    return model, history
