"""Rescales wall times by the shared host's current speed.

On a shared host the same work runs up to 1.8x slower in some stretches
than in others, and the speed drifts over minutes, so the wall times of
runs made minutes apart are not comparable.  Between its timed pieces of
work, the benchmark runs a fixed piece of reference work with
``tablemt_ref``, a frozen copy of the library, and divides each wall time
by the mean speed factor of the reference runs just before and just after
it.  Because the reference is the same kind of code as the program, it
slows down with it; a reference made of generic numpy and Python loops did
not track the program's slowdowns (see README.md).

Two reference kinds match the workloads: ``fit`` (one tfmt epoch on a fixed
corpus, with its one-epoch teacher pretraining and evaluation) for the
training workloads, and ``predict`` (no-grad prediction of fixed long
sentences at kappa 1.0) for the prediction workload.
"""

from __future__ import annotations

import time

import numpy as np

from tablemt_ref.corpus import Sentence, SynthConfig, synth_corpus, vocabulary
from tablemt_ref.model import predict
from tablemt_ref.trainer import TrainConfig, fit

# Median seconds of each reference run on the reference host: a 2-vCPU VM
# on a shared host, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 capped at
# one thread.  Rescaled times read as seconds on that host at that speed.
NOMINAL_S = {"fit": 0.70, "predict": 0.65}

_SEED = 7
_PREDICT_SENTENCES = 100
_PREDICT_LENGTHS = (16, 24)


class Reference:
    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        self.corpus = synth_corpus(SynthConfig(seed=_SEED))
        self.cfg = TrainConfig(epochs=1, seed=_SEED)
        ckpt, _ = fit(self.corpus, self.cfg)
        self.params = ckpt.student
        rng = np.random.default_rng(_SEED)
        vocab = vocabulary(self.corpus.target_unlabeled)
        lo, hi = _PREDICT_LENGTHS
        self.sentences = [
            Sentence(tuple(vocab[i] for i in rng.integers(len(vocab), size=int(n))))
            for n in rng.integers(lo, hi + 1, size=_PREDICT_SENTENCES)
        ]
        self.run()  # first-call costs

    def run(self) -> float:
        """Seconds the reference work takes now."""
        t0 = time.perf_counter()
        if self.kind == "fit":
            fit(self.corpus, self.cfg)
        else:
            cfg = self.cfg
            for s in self.sentences:
                predict(s, self.params, cfg.encoder, cfg.mode, 1.0)
        return time.perf_counter() - t0


class HostClock:
    """Call ``rescale`` right after each timed piece of work."""

    def __init__(self, kind: str):
        self.reference = Reference(kind)
        self.nominal = NOMINAL_S[kind]
        self.last = self.reference.run()
        self.samples = [self.last]

    def rescale(self, wall: float) -> float:
        now = self.reference.run()
        factor = (self.last + now) / 2.0 / self.nominal
        self.last = now
        self.samples.append(now)
        return wall / factor
