"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The desk-scale benchmark corpus is synth seed 7 with the default sizes
(50/20/50/30) and training seeds 1..5; directional criteria compare means
over those seeds at the default hyperparameters.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tablemt.corpus import (
    LabeledSentence,
    Polarity,
    Sentence,
    Span,
    SynthConfig,
    SynthCorpus,
    Triplet,
    synth_corpus,
)
from tablemt.detector import Mode, foreground_classes, propose_regions
from tablemt.encoder import EncoderConfig
from tablemt.evaluate import ErrorCategory, audit_pseudo_labels
from tablemt.gradcheck import run_gradcheck
from tablemt.losses import mmd
from tablemt.model import init_params
from tablemt.tagging import decode_regions, encode_region_labels
from tablemt.trainer import (
    TrainConfig,
    Variant,
    ema_update,
    fit,
    pretrain_teacher,
    pseudo_labels,
    teacher_pseudo_label,
    _stream,
)

BENCH_SEEDS = (1, 2, 3, 4, 5)


def report(num: int, name: str, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): PASS ({detail})")


@pytest.fixture(scope="module")
def bench_data() -> SynthCorpus:
    return synth_corpus(SynthConfig(seed=7))


def _selected_test_f1(data: SynthCorpus, cfg: TrainConfig, teacher: dict | None = None) -> float:
    ckpt, rows = fit(data, cfg, teacher=teacher)
    return rows[ckpt.epoch - 1]["test_f1"]


# -- criterion 1: codec round-trips ------------------------------------------


def test_criterion_1_codec_roundtrips():
    t0 = time.monotonic()
    polarities = (Polarity.POS, Polarity.NEU, Polarity.NEG)

    # 1000 randomized corner-distinct triplet sets
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        triplets, bs, es = [], set(), set()
        for _ in range(int(rng.integers(1, 4))):
            a0 = int(rng.integers(n)); a1 = int(rng.integers(a0, n))
            o0 = int(rng.integers(n)); o1 = int(rng.integers(o0, n))
            if (a0, o0) in bs or (a1, o1) in es:
                continue
            bs.add((a0, o0)); es.add((a1, o1))
            triplets.append(Triplet(Span(a0, a1), Span(o0, o1), polarities[rng.integers(3)]))
        ls = LabeledSentence(Sentence(tuple(f"w{i}" for i in range(n))), tuple(triplets))
        _, regions = encode_region_labels(ls)
        decoded = decode_regions([(r.a, r.b, r.c, r.d, r.cls) for r in regions])
        assert set(decoded) == set(triplets)

    # exhaustive: every <=2-triplet corner-distinct set over n <= 5
    checked = 0
    for n in range(1, 6):
        spans = [(i, j) for i in range(n) for j in range(i, n)]
        singles = [
            Triplet(Span(*a), Span(*o), p)
            for a in spans for o in spans for p in polarities
        ]
        for t in singles:
            ls = LabeledSentence(Sentence(tuple(f"w{i}" for i in range(n))), (t,))
            _, regions = encode_region_labels(ls)
            decoded = decode_regions([(r.a, r.b, r.c, r.d, r.cls) for r in regions])
            assert set(decoded) == {t}
            checked += 1
        for t1, t2 in itertools.combinations(singles, 2):
            if (t1.aspect.start, t1.opinion.start) == (t2.aspect.start, t2.opinion.start):
                continue
            if (t1.aspect.end, t1.opinion.end) == (t2.aspect.end, t2.opinion.end):
                continue
            ls = LabeledSentence(Sentence(tuple(f"w{i}" for i in range(n))), (t1, t2))
            _, regions = encode_region_labels(ls)
            decoded = decode_regions([(r.a, r.b, r.c, r.d, r.cls) for r in regions])
            assert set(decoded) == {t1, t2}
            checked += 1

    # constrained cell-scheme round-trip on its stated domain
    rng = np.random.default_rng(77)
    cell_checked = 0
    from tablemt.tagging import decode_cell_table, encode_cell_labels

    while cell_checked < 300:
        n = int(rng.integers(6, 12))
        used, triplets = set(), []
        for _ in range(int(rng.integers(1, 3))):
            a0 = int(rng.integers(0, n - 1)); a1 = min(n - 1, a0 + int(rng.integers(0, 2)))
            o0 = int(rng.integers(0, n))
            block = set(range(a0 - 1, a1 + 2)) | {o0 - 1, o0, o0 + 1}
            if block & used or o0 in range(a0, a1 + 1):
                continue
            used |= block
            triplets.append(Triplet(Span(a0, a1), Span(o0, o0), polarities[rng.integers(3)]))
        if not triplets:
            continue
        ls = LabeledSentence(Sentence(tuple(f"w{i}" for i in range(n))), tuple(triplets))
        assert set(decode_cell_table(encode_cell_labels(ls))) == set(triplets)
        cell_checked += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, "codec round-trips", f"1000 random + {checked} exhaustive + {cell_checked} cell, {elapsed:.1f}s")


# -- criterion 2: gradient correctness ----------------------------------------


def test_criterion_2_gradient_correctness():
    t0 = time.monotonic()
    result = run_gradcheck(d=8, eps=1e-3, tol=1e-4)
    elapsed = time.monotonic() - t0
    assert result.passed, result.per_group
    assert len(result.per_group) == 21
    assert elapsed < 60.0
    report(2, "gradient correctness", f"max rel err {result.max_rel_err:.2e}, {elapsed:.1f}s")


# -- criterion 3: MMD oracle equivalence ---------------------------------------


def _oracle_mmd(x: np.ndarray, y: np.ndarray) -> float:
    z = np.concatenate([x, y], axis=0)
    dists = [
        math.sqrt(((z[i] - z[j]) ** 2).sum())
        for i in range(len(z))
        for j in range(i + 1, len(z))
    ]
    sigma = float(np.median(dists)) if dists else 1.0
    if sigma <= 0.0:
        sigma = 1.0

    def k(u, v):
        return math.exp(-((u - v) ** 2).sum() / (2 * sigma**2))

    xx = sum(k(a, b) for a in x for b in x) / len(x) ** 2
    yy = sum(k(a, b) for a in y for b in y) / len(y) ** 2
    xy = sum(k(a, b) for a in x for b in y) / (len(x) * len(y))
    return max(xx + yy - 2 * xy, 0.0)


def test_criterion_3_mmd_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 17))
        x = rng.normal(size=(int(rng.integers(1, 9)), dim))
        y = rng.normal(size=(int(rng.integers(1, 9)), dim))
        got = mmd(x, y).item()
        want = _oracle_mmd(x, y)
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-10
        assert got >= 0.0
        assert mmd(y, x).item() == pytest.approx(got, abs=1e-13)
    x = rng.normal(size=(5, 4))
    assert mmd(x, x.copy()).item() == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(3, "mmd oracle equivalence", f"max |dev| {worst:.1e}, {elapsed:.1f}s")


# -- criterion 4: EMA law ------------------------------------------------------


def test_criterion_4_ema_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    teacher = {"a": rng.normal(size=(16, 8)), "b": rng.normal(size=(32,))}
    student = {k: rng.normal(size=v.shape) for k, v in teacher.items()}
    gap0 = max(np.abs(teacher[k] - student[k]).max() for k in teacher)
    lam = 0.6
    for _ in range(10):
        ema_update(teacher, student, lam)
    gap10 = max(np.abs(teacher[k] - student[k]).max() for k in teacher)
    rel = abs(gap10 - lam**10 * gap0) / (lam**10 * gap0)
    elapsed = time.monotonic() - t0
    assert rel < 1e-9
    assert elapsed < 1.0
    report(4, "ema geometric decay", f"rel dev {rel:.1e}, {elapsed:.2f}s")


# -- criterion 5: proposal-rule oracle ------------------------------------------


def test_criterion_5_proposal_rule_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        kb = int(rng.integers(1, 6))
        ke = int(rng.integers(1, 6))
        bset = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.random())) for _ in range(kb)]
        eset = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.random())) for _ in range(ke)]
        got = [p.rect() for p in propose_regions(bset, eset)]
        brute = sorted({
            (a, b, c, d)
            for (a, b, _sb) in bset
            for (c, d, _se) in eset
            if a <= c and b <= d
        })
        assert got == brute
        assert all(a <= c and b <= d for (a, b, c, d) in got)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(5, "proposal-rule oracle", f"1000 candidate sets, {elapsed:.1f}s")


# -- criterion 6: pseudo-label filter contract -----------------------------------


def test_criterion_6_pseudo_label_filter():
    t0 = time.monotonic()
    eta = 0.98
    enc = EncoderConfig(d=8, layers=1, vocab_buckets=256, max_n=12)
    cfg = TrainConfig(eta=eta, encoder=enc)
    sentences = [
        Sentence(tuple(f"t{j}" for j in range(3 + (i % 5)))) for i in range(8)
    ]
    fg = list(foreground_classes(cfg.mode))
    total_retained = 0
    states = 0
    rng_master = np.random.default_rng(6)
    while states < 100:
        params = init_params(enc, cfg.mode, np.random.default_rng(rng_master.integers(2**63)))
        # sharpen half the states so confident predictions actually occur
        if states % 2 == 0:
            params["cls_w"] *= 8.0
        states += 1
        for sent in sentences[: 2 + states % 3]:
            (labels,) = pseudo_labels(params, [sent], cfg, teacher_pseudo_label)
            for pl in labels:
                assert pl.confidence >= eta
                assert float(pl.probs[fg].max()) >= eta
                total_retained += 1
    elapsed = time.monotonic() - t0
    assert total_retained > 0, "filter never exercised; contract check would be vacuous"
    assert elapsed < 30.0
    report(6, "pseudo-label filter", f"{total_retained} retained across 100 states, {elapsed:.1f}s")


# -- criterion 7: learnability ---------------------------------------------------


def test_criterion_7_learnability(bench_data):
    t0 = time.monotonic()
    # score the train set through the test slot of the metric log
    probe = SynthCorpus(
        bench_data.source_train, bench_data.source_dev,
        bench_data.target_unlabeled, bench_data.source_train,
    )
    good = 0
    details = []
    for seed in BENCH_SEEDS:
        cfg = TrainConfig(variant=Variant.SOURCE_ONLY, epochs=30, seed=seed)
        _, rows = fit(probe, cfg)
        ok = any(r["test_f1"] >= 0.95 and r["dev_f1"] >= 0.80 for r in rows)
        good += ok
        details.append(f"seed{seed}:{'ok' if ok else 'MISS'}")
    elapsed = time.monotonic() - t0
    assert good >= 4, details
    assert elapsed < 300.0
    report(7, "learnability", f"{good}/5 seeds, {elapsed:.0f}s")


# -- criterion 8: adaptation direction --------------------------------------------


def test_criterion_8_adaptation_direction(bench_data):
    t0 = time.monotonic()
    runs = (
        ("full", Variant.TFMT, frozenset()),
        ("source_only", Variant.SOURCE_ONLY, frozenset()),
        ("no_uns", Variant.TFMT, frozenset({"no_uns"})),
        ("no_mmd", Variant.TFMT, frozenset({"no_mmd"})),
    )
    scores = {label: [] for label, _, _ in runs}
    for seed in BENCH_SEEDS:
        # The tfmt runs differ only in ablations, which teacher pretraining
        # never reads, so one teacher per seed serves all three.
        teacher = pretrain_teacher(bench_data.source_train, TrainConfig(epochs=30, seed=seed))
        for label, variant, ablations in runs:
            cfg = TrainConfig(variant=variant, ablations=ablations, epochs=30, seed=seed)
            scores[label].append(
                _selected_test_f1(bench_data, cfg, teacher if variant.teaches else None))
    means = {label: float(np.mean(s)) for label, s in scores.items()}
    elapsed = time.monotonic() - t0
    assert means["full"] >= means["source_only"] + 0.05, means
    assert means["no_uns"] <= means["full"], means
    assert means["no_mmd"] <= means["full"], means
    assert elapsed < 900.0
    report(
        8, "adaptation direction",
        f"full {means['full']:.3f} vs source-only {means['source_only']:.3f}, "
        f"no_uns {means['no_uns']:.3f}, no_mmd {means['no_mmd']:.3f}, {elapsed:.0f}s",
    )


# -- criterion 9: ablation-reduction identities -------------------------------------


def test_criterion_9_reduction_identities():
    t0 = time.monotonic()
    data = synth_corpus(SynthConfig(seed=5, num_source=8, num_dev=4, num_target=6, num_test=4))
    enc = EncoderConfig(d=8, layers=1, vocab_buckets=256, max_n=16)
    base = TrainConfig(epochs=2, seed=3, batch=2, encoder=enc, eta=0.2)

    so_ckpt, so_rows = fit(data, replace(base, variant=Variant.SOURCE_ONLY))
    ab_ckpt, ab_rows = fit(
        data,
        replace(base, variant=Variant.TFMT, alpha=0.0, beta=0.0,
                ablations=frozenset({"no_aug", "no_uns", "no_mmd"})),
    )
    for k in so_ckpt.student:
        assert np.array_equal(so_ckpt.student[k], ab_ckpt.student[k]), k
    loss_cols = ("l_rpn", "l_rpc", "l_sup", "l_uns", "l_mmd", "total")
    for col in loss_cols:
        assert [r[col] for r in so_rows] == [r[col] for r in ab_rows], col

    a0_ckpt, a0_rows = fit(data, replace(base, alpha=0.0))
    nu_ckpt, nu_rows = fit(data, replace(base, ablations=frozenset({"no_uns"})))
    for col in loss_cols:
        assert [r[col] for r in a0_rows] == [r[col] for r in nu_rows], col
    for k in a0_ckpt.student:
        assert np.array_equal(a0_ckpt.student[k], nu_ckpt.student[k]), k
    elapsed = time.monotonic() - t0
    report(9, "reduction identities", f"bit-identical trajectories, {elapsed:.1f}s")


# -- criterion 10: audit taxonomy -----------------------------------------------------


def test_criterion_10_audit_taxonomy():
    t0 = time.monotonic()

    def t(a0, a1, o0, o1, pol):
        return Triplet(Span(a0, a1), Span(o0, o1), pol)

    gold = [t(1, 2, 4, 4, Polarity.POS), t(6, 6, 8, 8, Polarity.NEG)]
    cases = [
        (t(1, 2, 4, 4, Polarity.POS), ErrorCategory.CORRECT),
        (t(6, 6, 8, 8, Polarity.NEG), ErrorCategory.CORRECT),
        (t(1, 2, 4, 4, Polarity.NEG), ErrorCategory.SENTIMENT_ERROR),
        (t(1, 2, 4, 4, Polarity.NEU), ErrorCategory.SENTIMENT_ERROR),
        (t(6, 6, 8, 8, Polarity.POS), ErrorCategory.SENTIMENT_ERROR),
        (t(1, 1, 4, 4, Polarity.POS), ErrorCategory.WORDS_MIS_LOCALIZED),
        (t(2, 3, 4, 4, Polarity.POS), ErrorCategory.WORDS_MIS_LOCALIZED),
        (t(1, 2, 3, 4, Polarity.POS), ErrorCategory.WORDS_MIS_LOCALIZED),
        (t(5, 6, 7, 8, Polarity.NEG), ErrorCategory.WORDS_MIS_LOCALIZED),
        (t(0, 0, 9, 9, Polarity.POS), ErrorCategory.ERROR),
        (t(3, 3, 4, 4, Polarity.NEU), ErrorCategory.ERROR),
        (t(1, 1, 4, 4, Polarity.NEG), ErrorCategory.ERROR),
    ]
    assert len(cases) == 12
    for pseudo, expected in cases:
        counts = audit_pseudo_labels([pseudo], gold)
        assert counts[expected] == 1, (pseudo, expected)
        assert sum(counts.values()) == 1
    rng = np.random.default_rng(10)
    pool = [c[0] for c in cases]
    for _ in range(100):
        pseudo = [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(0, 10)))]
        counts = audit_pseudo_labels(pseudo, gold)
        assert sum(counts.values()) == len(pseudo)
    elapsed = time.monotonic() - t0
    report(10, "audit taxonomy", f"12 forced cases + count preservation, {elapsed:.1f}s")


# -- criterion 11: CLI determinism ------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.monotonic()
    from tablemt.cli import EXIT_OK, main

    def run_dir(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}

    corpus1, corpus2 = tmp_path / "c1", tmp_path / "c2"
    for c in (corpus1, corpus2):
        assert main([
            "synth", "--out", str(c), "--seed", "11",
            "--num-source", "10", "--num-dev", "5", "--num-target", "8", "--num-test", "5",
        ]) == EXIT_OK
    assert run_dir(corpus1) == run_dir(corpus2)

    flags = ["--epochs", "2", "--d", "8", "--layers", "1", "--eta", "0.3", "--seed", "2"]
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    for r in (run1, run2):
        assert main(["train", "--data", str(corpus1), "--out", str(r)] + flags) == EXIT_OK
    assert run_dir(run1) == run_dir(run2)

    for out in (tmp_path / "e1.csv", tmp_path / "e2.csv"):
        assert main([
            "eval", "--checkpoint", str(run1 / "checkpoint_tfmt_seed2.bin"),
            "--data", str(corpus1 / "source_dev.txt"), "--out", str(out),
        ]) == EXIT_OK
    assert (tmp_path / "e1.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()

    for out in (tmp_path / "a1.csv", tmp_path / "a2.csv"):
        assert main([
            "audit", "--checkpoint", str(run1 / "checkpoint_tfmt_seed2.bin"),
            "--data", str(corpus1 / "target_test.txt"), "--eta", "0.5", "--out", str(out),
        ]) == EXIT_OK
    assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()
    elapsed = time.monotonic() - t0
    report(11, "cli determinism", f"synth/train/eval/audit byte-identical, {elapsed:.1f}s")
