"""The training loop: mini-batch Adam over either task, fully seeded.

Three independent random streams derive from the seed: weight init,
batch order, and dropout masks. Given identical data, config and seed,
two runs produce bit-identical weights and history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Callable, Iterable, Sequence

import numpy as np

from penscript import metrics
from penscript.dataio import Sample
from penscript.jsonconfig import JsonConfig
from penscript.losses import (
    CHARACTER_LOSSES,
    LossParams,
    ctc_feasible,
    ctc_loss,
    greedy_decode,
)
from penscript.netcore.model import ModelConfig, RecognitionModel, TargetLen
from penscript.netcore.optim import Adam
from penscript.preprocess import interpolate
from penscript.seeding import stream


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    epochs: Annotated[int, "[0, inf)"]
    learning_rate: Annotated[float, "(0, inf)"] = 1e-4
    batch_size: Annotated[int, "[1, inf)"] = 50
    seed: int = 0
    adam_beta1: Annotated[float, "[0, 1)"] = 0.9
    adam_beta2: Annotated[float, "[0, 1)"] = 0.999
    adam_eps: Annotated[float, "(0, inf)"] = 1e-8
    target_len: TargetLen = 800


def _prepare_inputs(
    dataset: Sequence[Sample], indices: Sequence[int], target_len: int
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    samples = [interpolate(dataset[i], target_len) for i in indices]
    return np.array([s.values for s in samples]), [s.label for s in samples]


def predict(
    model: RecognitionModel,
    batches: Iterable[np.ndarray],
    names: Sequence[str],
    decode: Callable[[np.ndarray], tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """The label of every row of batches, each a (b, T, C) input array.

    One eval forward runs per batch. A character row's label is its argmax,
    and a NaN in it raises a ValueError "{name}: model output is NaN". A
    seq2seq row's label is decode(row), and a ValueError from decode is
    re-raised prefixed with "{name}: ". names holds one name per row, in
    row order. The caller picks the decoder: greedy, or a beam search.
    """
    hyps: list[tuple[int, ...]] = []
    for batch in batches:
        for row in model.forward(batch, "eval").data:
            name = names[len(hyps)]
            if model.task == "seq2seq":
                try:
                    hyps.append(decode(row))
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from None
            elif np.isnan(row).any():
                raise ValueError(f"{name}: model output is NaN")
            else:
                hyps.append((int(np.argmax(row)),))
    return hyps


def _evaluate_split(
    model: RecognitionModel,
    inputs: np.ndarray,
    labels: list[tuple[int, ...]],
    indices: Sequence[int],
    batch_size: int,
) -> dict:
    """Validation scores; a ValueError names the dataset index of a bad output.

    The split is forwarded batch_size rows at a time, so its peak memory is
    that of one training batch, not of the whole split.
    """
    hyps = predict(
        model,
        (inputs[start : start + batch_size] for start in range(0, len(inputs), batch_size)),
        [f"validation sample {i}" for i in indices],
        greedy_decode,
    )
    if model.task == "seq2seq":
        # one word per label, as evaluate scores an equation
        return {
            "cer": metrics.cer(labels, hyps),
            "wer": metrics.wer([[r] for r in labels], [[h] for h in hyps]),
        }
    return {"crr": metrics.crr(labels, hyps)}


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
    losses, scored a batch per call; under a character loss every train and
    validation sample must hold a one-symbol label, or a ValueError names
    its dataset index and symbol count before any batch runs. Under the
    sequence loss, a training target that cannot align to the model's
    output frames (which target_len and the pool size fix) is dropped
    before batching: it never reaches the model, so it moves no batchnorm
    statistic or dropout draw, and each epoch record counts it as skipped.
    With no sample left, no step is taken and train_loss is NaN. A loss
    that fails, say on a NaN model output, raises its ValueError prefixed
    with the epoch, the batch and the batch's dataset indices, and a failed
    validation output with the epoch and the sample's dataset index. Pass a
    model to continue training it: its task, its input channel count and
    each model_cfg field, in that order, must be this run's, or a
    ValueError names the first key that differs and both values.
    """
    train_idx, val_idx = fold
    if len(train_idx) == 0:
        raise ValueError("empty training split")
    for i in (*train_idx, *val_idx):
        if not 0 <= i < len(dataset):
            raise ValueError(f"fold index {i} is out of range for {len(dataset)} samples")
    known = {"ctc", *CHARACTER_LOSSES}
    if loss_selector not in known:
        raise ValueError(f"loss_selector must be one of {sorted(known)}")
    params = loss_params or LossParams()
    task = "seq2seq" if loss_selector == "ctc" else "char"
    if task == "char":
        for i in (*train_idx, *val_idx):
            if len(dataset[i].label) != 1:
                raise ValueError(
                    f"dataset index {i}: a character loss needs a one-symbol label,"
                    f" got {len(dataset[i].label)} symbols"
                )

    rng_init = stream(train_cfg.seed, 0)
    rng_order = stream(train_cfg.seed, 1)
    rng_drop = stream(train_cfg.seed, 2)

    in_channels = dataset[train_idx[0]].num_channels
    if model is None:
        model = RecognitionModel(model_cfg, in_channels, task, rng_init)
    else:
        have = {"task": model.task, "in_channels": model.in_channels, **model.cfg.to_dict()}
        want = {"task": task, "in_channels": in_channels, **model_cfg.to_dict()}
        for key, value in want.items():
            if have[key] != value:
                loss = f" (loss {loss_selector!r})" if key == "task" else ""
                raise ValueError(
                    f"the model to continue has {key} = {have[key]!r},"
                    f" but this run asks for {value!r}{loss}"
                )

    kept = list(train_idx)
    if task == "seq2seq":
        frames = model.output_frames(train_cfg.target_len)
        kept = [i for i in kept if ctc_feasible(frames, dataset[i].label)]
        if not kept and len(val_idx) and model.norm is not None and not model.norm.initialized:
            raise ValueError(
                f"none of the {len(train_idx)} training targets fits {frames} output frames,"
                " and a batchnorm that never trained cannot validate"
            )
    skipped = len(train_idx) - len(kept)
    x_train, y_train = _prepare_inputs(dataset, kept, train_cfg.target_len)
    x_val, y_val = _prepare_inputs(dataset, val_idx, train_cfg.target_len)

    opt = Adam(
        [p for _, p in model.parameters()],
        lr=train_cfg.learning_rate,
        beta1=train_cfg.adam_beta1,
        beta2=train_cfg.adam_beta2,
        eps=train_cfg.adam_eps,
    )

    char_loss = CHARACTER_LOSSES.get(loss_selector)

    history: list[dict] = []
    n = len(kept)
    for epoch in range(train_cfg.epochs):
        order = rng_order.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, train_cfg.batch_size):
            chosen = order[start : start + train_cfg.batch_size]
            out = model.forward(x_train[chosen], "train", rng_drop)
            labels = [y_train[i] for i in chosen]
            try:
                if task == "char":
                    res = char_loss(out.data, [label[0] for label in labels], params)
                else:
                    res = ctc_loss(out.data, labels)
            except ValueError as exc:
                rows = [int(kept[i]) for i in chosen]
                raise ValueError(
                    f"epoch {epoch}, batch {start // train_cfg.batch_size}"
                    f" (dataset indices {rows}): {exc}"
                ) from None

            opt.zero_grad()
            out.backward(res.grad_logits)
            opt.step()
            epoch_loss += res.value * len(chosen)

        record = {
            "epoch": epoch,
            "train_loss": epoch_loss / n if n else float("nan"),
            "skipped": skipped,
        }
        if len(val_idx):
            try:
                record.update(_evaluate_split(model, x_val, y_val, val_idx, train_cfg.batch_size))
            except ValueError as exc:
                raise ValueError(f"epoch {epoch}, {exc}") from None
        history.append(record)

    return model, history
