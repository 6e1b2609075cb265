"""Digests of fit and predict outputs, for checking that a change keeps them byte-identical.

    python3 tools/fit_digest.py                            # this checkout's src/
    python3 tools/fit_digest.py --src ../other/src         # another checkout's
    python3 tools/fit_digest.py --against ../parent/src    # gaps against another checkout

Prints one ``<case> <sha256>`` line per case (a predict case also gives
the number of items predicted, a label case the number of labels kept, the
``mmd`` case the number of calls), so the outputs of two checkouts compare
with ``diff``.  A fit case hashes the history rows as JSON and the bytes
``save_checkpoint`` writes for the dev-selected checkpoint; a label case
hashes each label's rectangle, confidence and class-probability bytes; the
``mmd`` case hashes the value and both input gradients of each call.
The grid:

- every variant, in ASTE and AOPE, at eta 0.98 and 0.2: 2-epoch fits on a
  small synth corpus (seed 5, 8/4/6/4 sentences), d 8, one conv layer;
- tfmt and ctfmt at the default sizes on the synth corpus of seed 7,
  2 epochs;
- tfmt at eta 0.2 on the small corpus plus hand-built sentences that synth
  corpora never make: a source sentence without triplets, 1- and 2-token
  sentences in the source, dev and target splits, and 24-token (the default
  ``max_n``) sentences in the source and target splits, so a training batch
  packs maps from 1 token up to ``max_n`` wide;
- tfmt at eta 0.2 on the small corpus with augmentation off, once by the
  ``no_aug`` ablation and once by ``aug_rate`` 0;
- tfmt and source-only fits of 0 epochs in ASTE on the small corpus, whose
  checkpoints hold the initial student and teacher;
- predictions at kappa 1.0 of 2-epoch source-only ASTE and AOPE models (fit
  on the seed-7 corpus) on 100 sentences of 16 to 24 target-domain tokens;
- the teacher labels of the ASTE one of those models, at eta 0.2 and the
  default kappa, on the same 100 sentences: by proposals
  (``teacher_pseudo_label``) and by cells (``teacher_pseudo_label_cells``);
- ``losses.mmd`` alone, on fixed inputs: the (m, k) shapes of a 5-epoch tfmt
  fit at the default sizes, at dims 16 and 48; two sets whose median
  pairwise distance is 0, so they take the fallback bandwidth; x equal to y
  and to y shuffled, where the clamp at 0 fires; and the shapes (1, 1), with
  one pairwise distance, and (1, 9) and (9, 1), with one row on a side.

``--against OTHER_SRC`` runs the grid on both trees, the other one in a
child process, and says how far apart they are: for each fit case, whether
the dev-selected epoch matches and the largest absolute and relative gap of
each history column over the epochs; for each predict or label case,
whether the predictions or labels are identical; for the ``mmd`` case,
whether its values and gradients are.  A change that moves results by rounding only
states its tolerance from that one command.  ``--json`` prints each case's
raw outputs as one JSON object a line, which is what ``--against`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
PREDICT_SENTENCES = 100
PREDICT_LENGTHS = (16, 24)
# (m, k) row counts that ``mmd`` sees in a 5-epoch tfmt fit: pooled p from 13 to 60
MMD_SHAPES = ((6, 7), (12, 5), (20, 39), (36, 24))


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
    yield "fit_tfmt_aste_eta0.2_edge", edge_corpus(small), TrainConfig(
        eta=0.2, epochs=2, seed=3, batch=2, encoder=tiny)
    for name, off in (("no_aug", {"ablations": {"no_aug"}}), ("aug0", {"aug_rate": 0.0})):
        yield f"fit_tfmt_aste_eta0.2_{name}", small, TrainConfig(
            eta=0.2, epochs=2, seed=3, batch=2, encoder=tiny, **off)
    for variant in (Variant.TFMT, Variant.SOURCE_ONLY):
        yield f"fit_{variant.value}_aste_epochs0", small, TrainConfig(
            variant=variant, epochs=0, seed=3, batch=2, encoder=tiny)


def edge_corpus(small):
    """``small`` plus a source sentence without triplets, 1- and 2-token
    sentences in every split but ``target_test``, and a 24-token sentence in
    ``source_train`` and in ``target_unlabeled``."""
    from tablemt.corpus import LabeledSentence, Polarity, Sentence, Span, SynthCorpus, Triplet

    one = LabeledSentence(Sentence(("sadj0",)), (Triplet(Span(0, 0), Span(0, 0), Polarity.POS),))
    two = LabeledSentence(Sentence(("snoun0", "sadj1")),
                          (Triplet(Span(0, 0), Span(1, 1), Polarity.NEG),))
    bare = LabeledSentence(Sentence(("it", "is", "so", "very", "fine")), ())
    long = LabeledSentence(
        Sentence(("the", "snoun1", "is", "very", "sadj2") + ("and", "here", "today") * 5
                 + ("this", "snoun3", "was", "sadj0")),
        (Triplet(Span(1, 1), Span(4, 4), Polarity.POS),
         Triplet(Span(21, 21), Span(23, 23), Polarity.NEG)))
    target = [LabeledSentence(Sentence(("tadj0",)), ()),
              LabeledSentence(Sentence(("the", "tnoun0")), ()),
              LabeledSentence(Sentence(("here", "the", "tnoun3", "was", "so", "tadj0")
                                       + ("and", "then", "today") * 6), ())]
    return SynthCorpus(source_train=small.source_train + [bare, one, two, long],
                       source_dev=small.source_dev + [one, two],
                       target_unlabeled=small.target_unlabeled + target,
                       target_test=small.target_test)


def fit_outputs(corpus, cfg, scratch: Path) -> dict:
    """The digest, the dev-selected epoch and the history rows of one fit."""
    from tablemt.checkpoint import save_checkpoint
    from tablemt.trainer import fit

    ckpt, rows = fit(corpus, cfg)
    path = scratch / "model.bin"
    save_checkpoint(path, ckpt)
    h = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8"))
    h.update(path.read_bytes())
    return {"digest": h.hexdigest(), "epoch": ckpt.epoch, "history": rows}


def model_outputs():
    """(name, outputs) of a source-only model per mode: its predictions, then,
    after every predict case, the ASTE model's teacher labels."""
    from dataclasses import replace

    from tablemt.corpus import Sentence, SynthConfig, synth_corpus, vocabulary
    from tablemt.detector import Mode
    from tablemt.model import predict
    from tablemt.trainer import (TrainConfig, Variant, fit, pseudo_labels, teacher_pseudo_label,
                                 teacher_pseudo_label_cells)

    corpus = synth_corpus(SynthConfig(seed=7))
    vocab = vocabulary(corpus.target_unlabeled)
    rng = np.random.default_rng(7)
    lo, hi = PREDICT_LENGTHS
    sentences = [Sentence(tuple(vocab[i] for i in rng.integers(len(vocab), size=int(n))))
                 for n in rng.integers(lo, hi + 1, size=PREDICT_SENTENCES)]
    for mode in Mode:
        cfg = TrainConfig(variant=Variant.SOURCE_ONLY, mode=mode, epochs=2, seed=7)
        ckpt, _ = fit(corpus, cfg)
        yield f"predict_{mode.value}_kappa1", prediction_outputs(
            [predict(s, ckpt.student, cfg.encoder, mode, 1.0) for s in sentences])
        if mode == Mode.ASTE:
            teacher, label_cfg = ckpt.student, replace(cfg, eta=0.2)
    for name, label in (("pseudo", teacher_pseudo_label),
                        ("pseudo_cells", teacher_pseudo_label_cells)):
        yield f"{name}_aste_eta0.2", label_outputs(
            pseudo_labels(teacher, sentences, label_cfg, label))


def prediction_outputs(preds) -> dict:
    """The digest of the repr of a predict case's predictions, its item
    count and the repr itself."""
    text = repr(preds)
    return {"digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "items": sum(map(len, preds)), "predictions": text}


def label_outputs(labels) -> dict:
    """The digest of each sentence's label count and each label's rectangle,
    confidence and class-probability bytes, and the number of labels."""
    h = hashlib.sha256()
    for kept in labels:
        h.update(np.int64(len(kept)).tobytes())
        for pl in kept:
            h.update(np.array(pl.rect(), dtype=np.int64).tobytes())
            h.update(np.float64(pl.confidence).tobytes())
            h.update(pl.probs.tobytes())
    return {"digest": h.hexdigest(), "labels": sum(map(len, labels))}


def mmd_outputs() -> dict:
    """The digest of ``mmd``'s value and both input gradients, call by call,
    and the number of calls."""
    from tablemt.autograd import Tensor
    from tablemt.losses import mmd

    rng = np.random.default_rng(19)
    inputs = [(rng.normal(size=(m, dim)), rng.normal(size=(k, dim)))
              for dim in (16, 48) for m, k in MMD_SHAPES]
    inputs.append((np.full((3, 16), 0.5), np.full((4, 16), 0.5)))  # every distance 0
    mostly_equal = np.full((10, 16), 0.5)  # 28 of the 45 distances 0
    mostly_equal[[0, 7]] = rng.normal(size=(2, 16))
    inputs.append((mostly_equal[:4], mostly_equal[4:]))
    x = rng.normal(size=(12, 48))
    inputs += [(x, x.copy()), (x, x[rng.permutation(12)])]
    inputs += [(rng.normal(size=(m, 16)), rng.normal(size=(k, 16)))
               for m, k in ((1, 1), (1, 9), (9, 1))]
    h = hashlib.sha256()
    for xs, ys in inputs:
        x, y = Tensor(xs), Tensor(ys)
        out = mmd(x, y)
        out.backward()
        for a in (out.data, x.grad, y.grad):
            h.update(a.tobytes())
    return {"digest": h.hexdigest(), "calls": len(inputs)}


def case_outputs():
    """(name, outputs) of every case: fit cases, then predict cases, then
    label cases, then the ``mmd`` case."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, corpus, cfg in fit_cases():
            yield name, fit_outputs(corpus, cfg, Path(tmp))
    yield from model_outputs()
    yield "mmd", mmd_outputs()


def _gaps(mine: list[dict], other: list[dict]) -> str:
    """The largest absolute / relative gap of each history column."""
    from tablemt.trainer import HISTORY_COLUMNS

    out = []
    for col in HISTORY_COLUMNS:
        a = np.array([r[col] for r in mine], dtype=float)
        b = np.array([r[col] for r in other], dtype=float)
        gap = np.abs(a - b)
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
        out.append(f"{col} {gap.max(initial=0.0):.2g}/{rel.max(initial=0.0):.2g}")
    return ", ".join(out)


def compare(mine: dict, other: dict) -> str:
    """One line saying how far one case's outputs are from the other tree's."""
    if "predictions" in mine:
        same = mine["predictions"] == other["predictions"]
        return f"predictions {'identical' if same else 'DIFFER'} ({mine['items']} items)"
    if "labels" in mine:
        same = mine["digest"] == other["digest"]
        return f"labels {'identical' if same else 'DIFFER'} ({mine['labels']} labels)"
    if "calls" in mine:
        same = mine["digest"] == other["digest"]
        return f"values and gradients {'identical' if same else 'DIFFER'} ({mine['calls']} calls)"
    if mine["digest"] == other["digest"]:
        return f"byte-identical, epoch {mine['epoch']}"
    epoch = ("epoch same" if mine["epoch"] == other["epoch"]
             else f"epoch DIFFERS ({mine['epoch']} vs {other['epoch']})")
    if mine["history"] == other["history"]:
        return f"{epoch}; history identical, checkpoint bytes differ"
    if len(mine["history"]) != len(other["history"]):
        return f"{epoch}; history lengths differ"
    return f"{epoch}; abs/rel gaps: {_gaps(mine['history'], other['history'])}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(SRC), help="the src/ directory to import tablemt from")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="another src/ directory to compare every case with")
    parser.add_argument("--json", action="store_true",
                        help="print each case's raw outputs as one JSON object a line")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import tablemt

    if Path(tablemt.__file__).resolve().parent != src / "tablemt":
        print(f"imported tablemt from {tablemt.__file__}, not from {src}", file=sys.stderr)
        return 2
    child = None
    if args.against:
        child = subprocess.Popen([sys.executable, __file__, "--src", args.against, "--json"],
                                 stdout=subprocess.PIPE, text=True)
    mine = {}
    for name, out in case_outputs():
        if args.json:
            print(json.dumps({"name": name, **out}), flush=True)
        elif child is not None:
            mine[name] = out
        elif "items" in out:
            print(name, f"{out['digest']} ({out['items']} items)", flush=True)
        elif "labels" in out:
            print(name, f"{out['digest']} ({out['labels']} labels)", flush=True)
        elif "calls" in out:
            print(name, f"{out['digest']} ({out['calls']} calls)", flush=True)
        else:
            print(name, out["digest"], flush=True)
    if child is None:
        return 0
    others = {}
    for line in child.stdout:
        record = json.loads(line)
        others[record.pop("name")] = record
    if child.wait() != 0:
        print(f"the run on {args.against} failed", file=sys.stderr)
        return 2
    for name, out in mine.items():
        print(name, compare(out, others[name]) if name in others else "missing in the other tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
