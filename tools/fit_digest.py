"""Digests of fit and predict outputs, for checking that a change keeps them byte-identical.

    python3 tools/fit_digest.py                       # this checkout's src/
    python3 tools/fit_digest.py --src ../other/src    # another checkout's

Prints one ``<case> <sha256>`` line per case (a predict case also gives
the number of items predicted), so the outputs of two checkouts compare
with ``diff``.  A fit case hashes the history rows as JSON
and the bytes ``save_checkpoint`` writes for the dev-selected checkpoint.
The grid:

- every variant, in ASTE and AOPE, at eta 0.98 and 0.2: 2-epoch fits on a
  small synth corpus (seed 5, 8/4/6/4 sentences), d 8, one conv layer;
- tfmt and ctfmt at the default sizes on the synth corpus of seed 7,
  2 epochs;
- predictions at kappa 1.0 of 2-epoch source-only ASTE and AOPE models (fit
  on the seed-7 corpus) on 100 sentences of 16 to 24 target-domain tokens.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
PREDICT_SENTENCES = 100
PREDICT_LENGTHS = (16, 24)


def fit_cases():
    """(name, corpus, config) for every fit case."""
    from tablemt.corpus import SynthConfig, synth_corpus
    from tablemt.detector import Mode
    from tablemt.encoder import EncoderConfig
    from tablemt.trainer import TrainConfig, Variant

    small = synth_corpus(SynthConfig(seed=5, num_source=8, num_dev=4, num_target=6, num_test=4))
    tiny = EncoderConfig(d=8, layers=1)
    for variant in Variant:
        for mode in Mode:
            for eta in (0.98, 0.2):
                cfg = TrainConfig(variant=variant, mode=mode, eta=eta, epochs=2, seed=3,
                                  batch=2, encoder=tiny)
                yield f"fit_{variant.value}_{mode.value}_eta{eta}", small, cfg
    bench = synth_corpus(SynthConfig(seed=7))
    for variant in (Variant.TFMT, Variant.CTFMT):
        yield f"fit_{variant.value}_synth7", bench, TrainConfig(variant=variant, epochs=2, seed=7)


def fit_digest(corpus, cfg, scratch: Path) -> str:
    from tablemt.checkpoint import save_checkpoint
    from tablemt.trainer import fit

    ckpt, rows = fit(corpus, cfg)
    path = scratch / "model.bin"
    save_checkpoint(path, ckpt)
    h = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8"))
    h.update(path.read_bytes())
    return h.hexdigest()


def predict_digests():
    """(name, digest) of the predictions of a source-only model per mode."""
    from tablemt.corpus import Sentence, SynthConfig, synth_corpus, vocabulary
    from tablemt.detector import Mode
    from tablemt.model import predict
    from tablemt.trainer import TrainConfig, Variant, fit

    corpus = synth_corpus(SynthConfig(seed=7))
    vocab = vocabulary(corpus.target_unlabeled)
    rng = np.random.default_rng(7)
    lo, hi = PREDICT_LENGTHS
    sentences = [Sentence(tuple(vocab[i] for i in rng.integers(len(vocab), size=int(n))))
                 for n in rng.integers(lo, hi + 1, size=PREDICT_SENTENCES)]
    for mode in Mode:
        cfg = TrainConfig(variant=Variant.SOURCE_ONLY, mode=mode, epochs=2, seed=7)
        ckpt, _ = fit(corpus, cfg)
        preds = [predict(s, ckpt.student, cfg.encoder, mode, 1.0) for s in sentences]
        digest = hashlib.sha256(repr(preds).encode("utf-8")).hexdigest()
        yield f"predict_{mode.value}_kappa1", f"{digest} ({sum(map(len, preds))} items)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(SRC), help="the src/ directory to import tablemt from")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import tablemt

    if Path(tablemt.__file__).resolve().parent != src / "tablemt":
        print(f"imported tablemt from {tablemt.__file__}, not from {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for name, corpus, cfg in fit_cases():
            print(name, fit_digest(corpus, cfg, Path(tmp)), flush=True)
    for name, digest in predict_digests():
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
