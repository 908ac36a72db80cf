"""Autodiff kernel, layers, the recognition model, Adam, and training."""

from penscript.netcore.tensor import (
    Tensor,
    add,
    affine,
    concat_last,
    conv1d_op,
    dropout_op,
    log_softmax_op,
    lstm_op,
    maxpool1d_op,
    mean_time,
    mul,
    relu,
    reverse_time,
    sigmoid,
    tanh,
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
    forward_char,
    forward_seq2seq,
    load_checkpoint,
    save_checkpoint,
)
from penscript.netcore.optim import Adam, adam_step
from penscript.netcore.train import TrainConfig, train

__all__ = [
    "Tensor",
    "add", "affine", "concat_last", "conv1d_op", "dropout_op", "log_softmax_op",
    "lstm_op", "maxpool1d_op", "mean_time", "mul", "relu", "reverse_time",
    "sigmoid", "tanh",
    "BatchNorm1d", "BiLSTM", "Conv1d", "Dense", "Dropout", "LSTM", "MaxPool1d",
    "ModelConfig", "RecognitionModel", "forward_char", "forward_seq2seq",
    "load_checkpoint", "save_checkpoint",
    "Adam", "adam_step",
    "TrainConfig", "train",
]
