"""Autodiff kernel, layers, the recognition model, Adam, and training."""

from penscript.netcore.tensor import (
    Tensor,
    affine,
    concat_last,
    conv1d_op,
    dropout_op,
    log_softmax_op,
    lstm_op,
    maxpool1d_op,
    mean_time,
    relu,
    reverse_time,
)
from penscript.netcore.layers import (
    BatchNorm1d,
    BiLSTM,
    Conv1d,
    Dense,
    Dropout,
    LSTM,
    MaxPool1d,
)
from penscript.netcore.model import (
    ModelConfig,
    RecognitionModel,
    forward_seq2seq,
    load_checkpoint,
    save_checkpoint,
)
from penscript.netcore.optim import Adam, adam_step
from penscript.netcore.train import TrainConfig, train

__all__ = [
    "Tensor",
    "affine", "concat_last", "conv1d_op", "dropout_op", "log_softmax_op",
    "lstm_op", "maxpool1d_op", "mean_time", "relu", "reverse_time",
    "BatchNorm1d", "BiLSTM", "Conv1d", "Dense", "Dropout", "LSTM", "MaxPool1d",
    "ModelConfig", "RecognitionModel", "forward_seq2seq",
    "load_checkpoint", "save_checkpoint",
    "Adam", "adam_step",
    "TrainConfig", "train",
]
