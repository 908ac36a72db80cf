"""Autodiff kernel, layers, the recognition model, Adam, and training."""

from penscript.netcore.tensor import (
    Tensor,
    affine,
    batchnorm_op,
    conv1d_op,
    conv_block_op,
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
    param_spec,
    save_checkpoint,
)
from penscript.netcore.optim import Adam
from penscript.netcore.train import TrainConfig, predict, train

__all__ = [
    "Tensor",
    "affine", "batchnorm_op", "conv1d_op", "conv_block_op", "dropout_op", "log_softmax_op",
    "lstm_op", "maxpool1d_op", "mean_time", "relu", "reverse_time",
    "BatchNorm1d", "BiLSTM", "Conv1d", "Dense", "Dropout", "LSTM", "MaxPool1d",
    "ModelConfig", "RecognitionModel", "forward_seq2seq", "param_spec",
    "load_checkpoint", "save_checkpoint",
    "Adam",
    "TrainConfig", "predict", "train",
]
