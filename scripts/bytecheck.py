"""Same-seed byte check: one sha256 per output of a fixed set of CLI runs.

A change that must leave every same-seed result as it was runs this at
the parent commit and at the change, and compares the two printouts:

    OPENBLAS_NUM_THREADS=1 python3 scripts/bytecheck.py

The corpus is perfbench's synthetic one, datagen.make_corpus(default_rng(5),
2, 4), written in the repo's text format. With --seed 7 the script then runs

- train --loss ctc --epochs 2 --batch-size 4 --target-len 800, with
  batchnorm and then with --no-batchnorm --recurrent LSTM;
- segment, then train --loss cce --epochs 2 --batch-size 8 --target-len 100
  on the first equation's characters (sample0000);
- decode --beam 10 of the batchnorm ctc checkpoint over the corpus;

and --seed 0 gradcheck. Each train run's model.ckpt and history.jsonl are
hashed, and decode's and gradcheck's stdout. Every run is a fresh
``python3 -m penscript.cli`` on this checkout's src/, in a temporary
directory that is removed afterwards. perfbench/ is imported, not changed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import datagen  # noqa: E402


def _cli(*argv: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "penscript.cli", *argv], env=env, capture_output=True, check=False
    )
    if done.returncode != 0:
        sys.exit(f"penscript {' '.join(argv)} exited with {done.returncode}:\n{done.stderr.decode()}")
    return done.stdout


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data, labels = work / "corpus.csv", work / "corpus.jsonl"
        datagen.write_dataset(datagen.make_corpus(np.random.default_rng(5), 2, 4), data, labels)
        corpus = ("--data", str(data), "--labels", str(labels))
        ctc = ("--epochs", "2", "--batch-size", "4", "--target-len", "800", "--loss", "ctc")
        seg = work / "seg"
        runs = {
            "ctc": ("train", *corpus, *ctc),
            "lstm": ("train", *corpus, *ctc, "--no-batchnorm", "--recurrent", "LSTM"),
            "cce": (
                "train", "--data", str(seg / "sample0000.csv"), "--labels", str(seg / "sample0000.jsonl"),
                "--loss", "cce", "--epochs", "2", "--batch-size", "8", "--target-len", "100",
            ),
        }
        _cli("--seed", "7", "segment", *corpus, "--out", str(seg))
        hashes = {}
        for name, argv in runs.items():
            out = work / name
            _cli("--seed", "7", *argv, "--out", str(out))
            for file in ("model.ckpt", "history.jsonl"):
                hashes[f"{name} {file}"] = _sha((out / file).read_bytes())
        checkpoint = ("--checkpoint", str(work / "ctc" / "model.ckpt"))
        hashes["decode"] = _sha(_cli("--seed", "7", "decode", *corpus, *checkpoint, "--beam", "10"))
        hashes["gradcheck"] = _sha(_cli("--seed", "0", "gradcheck"))
    for name, digest in hashes.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
