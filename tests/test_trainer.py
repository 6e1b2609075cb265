"""Training loop mechanics: EMA, augmentation, pseudo-label filtering,
ablation/variant reduction identities, and determinism."""

from dataclasses import replace

import numpy as np
import pytest

from tablemt.corpus import (
    LabeledSentence,
    Sentence,
    SynthConfig,
    SynthCorpus,
    synth_corpus,
    vocabulary,
)
from tablemt.autograd import Tensor
from tablemt.detector import Mode, foreground_classes
from tablemt.encoder import EncoderConfig
from tablemt.model import NonFiniteScoreError, clone_params, init_params, predict
from tablemt.trainer import (
    Adam,
    TrainConfig,
    Variant,
    augment,
    check_corpus,
    compute_losses,
    ema_update,
    fit,
    pretrain_teacher,
    pseudo_labels,
    teacher_pseudo_label,
    teacher_pseudo_label_cells,
    train_step,
    _stream,
)

TINY_ENC = EncoderConfig(d=8, layers=1, vocab_buckets=256, max_n=16)


def tiny_cfg(**kw) -> TrainConfig:
    base = dict(epochs=2, seed=0, encoder=TINY_ENC, batch=2)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_data() -> SynthCorpus:
    data = synth_corpus(SynthConfig(seed=5, num_source=8, num_dev=4, num_target=6, num_test=4))
    return data


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(ema_lambda=1.0)
    with pytest.raises(ValueError):
        tiny_cfg(eta=0.0)
    with pytest.raises(ValueError):
        tiny_cfg(kappa=1.5)
    with pytest.raises(ValueError):
        tiny_cfg(alpha=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            tiny_cfg(alpha=bad)
        with pytest.raises(ValueError):
            tiny_cfg(beta=bad)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            tiny_cfg(lr=bad)
    with pytest.raises(ValueError):
        tiny_cfg(ablations=frozenset({"bogus"}))
    with pytest.raises(ValueError, match="seed"):
        tiny_cfg(seed=-1)


class DenseAdam(Adam):
    """Adam over every element of every parameter at every step, the
    reference that the live-row updates must equal bit for bit."""

    def step(self, grads):
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for k in sorted(self.params):
            g, m, v = grads[k], self.m[k], self.v[k]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            self.params[k] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)


def _same_bytes(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


def _fit_recording(monkeypatch, data, cfg, adam):
    """``fit`` with ``adam`` as its optimizer; also returns each optimizer
    made, with the rows of ``emb`` that got a gradient at each of its steps."""
    import tablemt.trainer as trainer

    opts = []

    class Recording(adam):
        def __init__(self, params, lr):
            super().__init__(params, lr)
            self.emb_rows = []
            opts.append(self)

        def step(self, grads):
            self.emb_rows.append(np.flatnonzero(np.abs(grads["emb"]).sum(axis=1)).tolist())
            super().step(grads)

    monkeypatch.setattr(trainer, "Adam", Recording)
    ckpt, history = fit(data, cfg)
    monkeypatch.undo()
    return ckpt, history, opts


def test_live_row_adam_equals_dense_adam_over_a_fit(tiny_data, monkeypatch):
    cfg = tiny_cfg(eta=0.2)
    ckpt, history, opts = _fit_recording(monkeypatch, tiny_data, cfg, Adam)
    ref_ckpt, ref_history, ref_opts = _fit_recording(monkeypatch, tiny_data, cfg, DenseAdam)
    assert history == ref_history
    assert _same_bytes(ckpt.student, ref_ckpt.student)
    assert _same_bytes(ckpt.teacher, ref_ckpt.teacher)
    assert len(opts) == len(ref_opts) == 2  # the teacher's pretraining, then the student
    for opt, ref in zip(opts, ref_opts):
        assert _same_bytes(opt.params, ref.params)
        assert _same_bytes(opt.m, ref.m) and _same_bytes(opt.v, ref.v)
        # most rows of the embedding never got a gradient, so the live-row
        # path ran at every step
        steps_with_grad = np.bincount(np.concatenate(opt.emb_rows), minlength=256)
        assert opt.live["emb"].tolist() == (steps_with_grad > 0).tolist()
    # the student's augmented target tokens give some rows a gradient at one
    # step and never again
    assert (steps_with_grad == 1).any()


@pytest.mark.parametrize("special", [np.nan, 5e-324, -0.0], ids=["nan", "subnormal", "minus-zero"])
def test_live_row_adam_equals_dense_adam_on_a_special_gradient(special):
    """A row whose only gradient is one NaN or the smallest subnormal turns
    live; one whose only gradient is -0.0 stays dead.  Either way every
    parameter and moment equals dense Adam's bit for bit."""
    rng_ = np.random.default_rng(79)
    start = {"emb": rng_.normal(size=(8, 3)), "bias": rng_.normal(size=3)}
    start["emb"][5, 0] = -0.0
    grads = []
    for t in range(4):
        g = {"emb": np.zeros((8, 3)), "bias": rng_.normal(size=3)}
        g["emb"][1] = rng_.normal(size=3)
        if t == 1:
            g["emb"][5, 2] = special
        grads.append(g)
    live = Adam({k: v.copy() for k, v in start.items()}, 0.01)
    dense = DenseAdam({k: v.copy() for k, v in start.items()}, 0.01)
    for g in grads:
        live.step(g)
        dense.step(g)
    assert live.live["emb"].tolist() == [False, True, False, False, False,
                                         not (special == 0.0), False, False]
    for got, want in ((live.params, dense.params), (live.m, dense.m), (live.v, dense.v)):
        assert _same_bytes(got, want)


def test_ema_scalar_example():
    t = {"w": np.array([1.0])}
    s = {"w": np.array([0.5])}
    ema_update(t, s, 0.6)
    assert t["w"][0] == pytest.approx(0.8, rel=1e-15)


def test_ema_endpoints():
    t = {"w": np.array([1.0, 2.0])}
    s = {"w": np.array([0.0, 0.0])}
    nearly_one = 1.0 - 1e-12
    t1 = {k: v.copy() for k, v in t.items()}
    ema_update(t1, s, nearly_one)
    assert np.allclose(t1["w"], t["w"])
    t0 = {k: v.copy() for k, v in t.items()}
    ema_update(t0, s, 1e-12)
    assert np.allclose(t0["w"], s["w"])


def test_ema_geometric_decay_closed_form():
    rng = np.random.default_rng(0)
    teacher = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(5,))}
    student = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(5,))}
    gap0 = max(np.abs(teacher[k] - student[k]).max() for k in teacher)
    lam = 0.6
    for _ in range(10):
        ema_update(teacher, student, lam)
    gap10 = max(np.abs(teacher[k] - student[k]).max() for k in teacher)
    assert abs(gap10 - lam**10 * gap0) / (lam**10 * gap0) < 1e-9


def test_ema_shape_mismatch():
    with pytest.raises(ValueError):
        ema_update({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.5)


def test_augment_rate_zero_identity_rate_one_replaces_all():
    sent = Sentence(("a", "b", "c", "d"))
    lex = ["x", "y", "z"]
    rng = np.random.default_rng(1)
    assert augment(sent, 0.0, lex, rng).tokens == sent.tokens
    out = augment(sent, 1.0, lex, np.random.default_rng(2))
    assert len(out.tokens) == 4
    assert all(t in lex for t in out.tokens)


def test_augment_preserves_length_and_is_deterministic():
    sent = Sentence(tuple(f"w{i}" for i in range(9)))
    lex = [f"x{i}" for i in range(5)]
    out1 = augment(sent, 0.5, lex, np.random.default_rng(7))
    out2 = augment(sent, 0.5, lex, np.random.default_rng(7))
    assert out1 == out2
    assert len(out1.tokens) == 9


def test_augment_empty_lexicon_raises():
    with pytest.raises(ValueError):
        augment(Sentence(("a",)), 0.5, [], np.random.default_rng(0))


def test_pseudo_label_filter_contract(tiny_data):
    cfg = tiny_cfg()
    fg = list(foreground_classes(cfg.mode))
    rng_states = np.random.SeedSequence(42).spawn(20)
    sentences = [ls.sentence for ls in tiny_data.target_unlabeled]
    for ss in rng_states:
        params = init_params(cfg.encoder, cfg.mode, np.random.default_rng(ss))
        for sent in sentences[:3]:
            for eta in (0.3, 0.7):
                labels = pseudo_labels(params, [sent], replace(cfg, eta=eta),
                                       teacher_pseudo_label)[0]
                for pl in labels:
                    assert pl.confidence >= eta
                    assert pl.confidence == pytest.approx(float(pl.probs[fg].max()))


def test_pseudo_label_eta_one_yields_empty_and_eta_zero_keeps_all(tiny_data):
    cfg = tiny_cfg()
    params = init_params(cfg.encoder, cfg.mode, np.random.default_rng(3))
    sent = tiny_data.target_unlabeled[0].sentence
    assert pseudo_labels(params, [sent], replace(cfg, eta=1.0), teacher_pseudo_label) == [[]]
    (all_kept,) = pseudo_labels(params, [sent], replace(cfg, eta=1e-12), teacher_pseudo_label)
    from tablemt.detector import rpn_scores
    from tablemt.encoder import encode
    from tablemt.model import as_tensors, forward

    import tablemt.autograd as ag
    with ag.no_grad():
        params_t = as_tensors(params)
        scores = rpn_scores(encode([sent], params_t, cfg.encoder), params_t)
        fwd = forward(*scores.maps([sent.n])[0], cfg.kappa)
    assert len(all_kept) == len(fwd.proposals)


def test_pseudo_label_cells_rects_are_cells(tiny_data):
    cfg = tiny_cfg(variant=Variant.CTFMT, eta=0.2)
    params = init_params(cfg.encoder, cfg.mode, np.random.default_rng(3))
    sent = tiny_data.target_unlabeled[0].sentence
    (labels,) = pseudo_labels(params, [sent], cfg, teacher_pseudo_label_cells)
    for pl in labels:
        assert pl.a == pl.c and pl.b == pl.d


@pytest.mark.parametrize("mode", [Mode.ASTE, Mode.AOPE], ids=["aste", "aope"])
@pytest.mark.parametrize("cells", ["random", "tied", "signed_zeros"])
def test_pseudo_label_cells_equal_every_cell_pooled_by_roi_represent(mode, cells):
    """Each cell's label, classified from its vector three times, equals
    pooling the cell as a 1x1 region with ``roi_represent``, byte for byte:
    the RoI rows, the rectangles, confidences and class probabilities."""
    import tablemt.autograd as ag
    from tablemt.detector import classify_regions, roi_represent
    from tablemt.model import as_tensors

    cfg = tiny_cfg(variant=Variant.CTFMT, mode=mode, eta=1e-9)
    teacher_t = as_tensors(init_params(cfg.encoder, mode, np.random.default_rng(3)))
    n, rng = 5, np.random.default_rng(11)
    tl = rng.normal(size=(n * n, cfg.encoder.d))
    if cells == "tied":  # whole cells repeated, and entries equal across cells
        tl = np.round(tl)
        tl[1::3] = tl[0]
    elif cells == "signed_zeros":
        tl[rng.random(tl.shape) < 0.3] = -0.0
        tl[rng.random(tl.shape) < 0.3] = 0.0
        tl[4] = -0.0
    rects = [(i, j, i, j) for i in range(n) for j in range(n)]
    with ag.no_grad():
        labels = teacher_pseudo_label_cells(teacher_t, Tensor(tl), n, cfg)
        rois = roi_represent(Tensor(tl), [n], [rects])
        want, _ = classify_regions(rois, teacher_t, mode)
    assert rois.data.tobytes() == np.concatenate([tl, tl, tl], axis=1).tobytes()
    assert [pl.rect() for pl in labels] == rects
    assert b"".join(pl.probs.tobytes() for pl in labels) == want.data.tobytes()
    conf = want.data[:, list(foreground_classes(mode))].max(axis=1)
    assert [pl.confidence for pl in labels] == conf.tolist()


@pytest.mark.parametrize("name", ["cls_w", "emb", "tab_w"])
def test_non_finite_params_fail_loudly(tiny_data, name):
    cfg = tiny_cfg(eta=0.2)
    params = init_params(cfg.encoder, cfg.mode, np.random.default_rng(3))
    params[name][...] = np.nan
    sent = tiny_data.target_unlabeled[0].sentence
    with pytest.raises(NonFiniteScoreError):
        predict(sent, params, cfg.encoder, cfg.mode, 1.0)
    with pytest.raises(NonFiniteScoreError):
        pseudo_labels(params, [sent], cfg, teacher_pseudo_label)
    with pytest.raises(NonFiniteScoreError):
        pseudo_labels(params, [sent], cfg, teacher_pseudo_label_cells)


def test_teacher_params_only_change_via_ema(tiny_data):
    cfg = tiny_cfg(eta=0.05)
    teacher = init_params(cfg.encoder, cfg.mode, _stream(0, 0))
    student = init_params(cfg.encoder, cfg.mode, _stream(0, 1))
    opt = Adam(student, cfg.lr)
    lex = vocabulary(tiny_data.target_unlabeled)
    rng_aug = np.random.default_rng(9)
    checksums = {k: v.copy() for k, v in teacher.items()}
    for lo in range(0, 4, 2):
        src = tiny_data.source_train[lo : lo + 2]
        tgt = tiny_data.target_unlabeled[lo : lo + 2]
        train_step(student, teacher, opt, src, tgt, cfg, rng_aug, lex)
        for k in teacher:
            assert np.array_equal(teacher[k], checksums[k]), "teacher moved inside a step"
        ema_update(teacher, student, cfg.ema_lambda)
        checksums = {k: v.copy() for k, v in teacher.items()}


@pytest.mark.parametrize("variant", [Variant.TFMT, Variant.CTFMT])
def test_a_step_encodes_once_per_role(tiny_data, monkeypatch, variant):
    """The teacher's target sentences go through the encoder in one pass,
    and the student's source and target sentences together in another."""
    import tablemt.trainer as trainer

    packs = []

    def recording(sentences, params, cfg):
        packs.append([s.n for s in sentences])
        return real(sentences, params, cfg)

    real = trainer.encode
    monkeypatch.setattr(trainer, "encode", recording)
    cfg = tiny_cfg(variant=variant, eta=0.05, ablations=frozenset({"no_aug"}))
    teacher = init_params(cfg.encoder, cfg.mode, _stream(0, 0))
    student = init_params(cfg.encoder, cfg.mode, _stream(0, 1))
    src, tgt = tiny_data.source_train[:2], tiny_data.target_unlabeled[:2]
    train_step(student, teacher, Adam(student, cfg.lr), src, tgt, cfg)
    tgt_lengths = [ls.sentence.n for ls in tgt]
    assert packs == [tgt_lengths, [ls.sentence.n for ls in src] + tgt_lengths]


def test_train_step_supervised_only_when_all_ablated(tiny_data):
    cfg = tiny_cfg(ablations=frozenset({"no_aug", "no_uns", "no_mmd"}))
    teacher = init_params(cfg.encoder, cfg.mode, _stream(0, 0))
    student = init_params(cfg.encoder, cfg.mode, _stream(0, 1))
    opt = Adam(student, cfg.lr)
    bd = train_step(student, teacher, opt, tiny_data.source_train[:2],
                    tiny_data.target_unlabeled[:2], cfg, np.random.default_rng(0), ["x"])
    assert bd.l_uns == 0.0 and bd.l_mmd == 0.0
    assert bd.total == bd.l_sup


def test_empty_pseudo_set_skips_uns(tiny_data):
    # eta close to 1 -> no retained labels -> l_uns == 0, step still works
    cfg = tiny_cfg(eta=0.999999)
    teacher = init_params(cfg.encoder, cfg.mode, _stream(0, 0))
    student = init_params(cfg.encoder, cfg.mode, _stream(0, 1))
    opt = Adam(student, cfg.lr)
    lex = vocabulary(tiny_data.target_unlabeled)
    bd = train_step(student, teacher, opt, tiny_data.source_train[:2],
                    tiny_data.target_unlabeled[:2], cfg, np.random.default_rng(0), lex)
    assert bd.l_uns == 0.0
    assert bd.total == pytest.approx(bd.l_sup + cfg.beta * bd.l_mmd, rel=1e-12)


def test_pretrain_epochs_zero_is_random_init(tiny_data):
    cfg = tiny_cfg(epochs=0)
    params = pretrain_teacher(tiny_data.source_train, cfg)
    fresh = init_params(cfg.encoder, cfg.mode, _stream(cfg.seed, 0))
    assert all(np.array_equal(params[k], fresh[k]) for k in params)


def test_pretrain_deterministic(tiny_data):
    cfg = tiny_cfg(epochs=1)
    a = pretrain_teacher(tiny_data.source_train, cfg)
    b = pretrain_teacher(tiny_data.source_train, cfg)
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_fit_deterministic(tiny_data):
    cfg = tiny_cfg(epochs=2, eta=0.2)
    ckpt1, rows1 = fit(tiny_data, cfg)
    ckpt2, rows2 = fit(tiny_data, cfg)
    assert rows1 == rows2
    assert all(np.array_equal(ckpt1.student[k], ckpt2.student[k]) for k in ckpt1.student)
    assert all(np.array_equal(ckpt1.teacher[k], ckpt2.teacher[k]) for k in ckpt1.teacher)


def test_source_only_bitwise_equals_fully_ablated_tfmt(tiny_data):
    base = tiny_cfg(epochs=2)
    so_ckpt, so_rows = fit(tiny_data, replace(base, variant=Variant.SOURCE_ONLY))
    ab_ckpt, ab_rows = fit(
        tiny_data,
        replace(base, variant=Variant.TFMT, alpha=0.0, beta=0.0,
                ablations=frozenset({"no_aug", "no_uns", "no_mmd"})),
    )
    for k in so_ckpt.student:
        assert np.array_equal(so_ckpt.student[k], ab_ckpt.student[k])
    for col in ("l_rpn", "l_rpc", "l_sup", "l_uns", "l_mmd", "total", "dev_f1", "test_f1"):
        assert [r[col] for r in so_rows] == [r[col] for r in ab_rows]


def test_alpha_zero_bitwise_equals_no_uns(tiny_data):
    base = tiny_cfg(epochs=2, eta=0.2)
    a0_ckpt, a0_rows = fit(tiny_data, replace(base, alpha=0.0))
    nu_ckpt, nu_rows = fit(tiny_data, replace(base, ablations=frozenset({"no_uns"})))
    for col in ("l_rpn", "l_rpc", "l_sup", "l_uns", "l_mmd", "total"):
        assert [r[col] for r in a0_rows] == [r[col] for r in nu_rows], col
    for k in a0_ckpt.student:
        assert np.array_equal(a0_ckpt.student[k], nu_ckpt.student[k])


def test_fit_self_train_and_ctfmt_smoke(tiny_data):
    for variant in (Variant.SELF_TRAIN, Variant.CTFMT):
        cfg = replace(tiny_cfg(epochs=1, eta=0.2), variant=variant)
        ckpt, rows = fit(tiny_data, cfg)
        assert len(rows) == 1
        assert set(ckpt.student) == set(ckpt.teacher)
        assert np.isfinite([rows[0][c] for c in ("l_sup", "l_uns", "l_mmd", "total")]).all()


def test_self_training_drops_invalid_argmax_labels(tiny_data, monkeypatch):
    """Self-training keeps only labels whose overall argmax is foreground,
    while pseudo_triplet (shared with the audit) reads the best foreground
    class of any label."""
    import tablemt.trainer as trainer
    from tablemt.corpus import Polarity, Span, Triplet
    from tablemt.trainer import PseudoLabel, pseudo_triplet

    invalid = PseudoLabel(0, 1, 0, 1, np.array([0.1, 0.35, 0.05, 0.5]), 0.35)
    valid = PseudoLabel(0, 2, 1, 2, np.array([0.05, 0.1, 0.6, 0.25]), 0.6)
    assert pseudo_triplet(invalid, Mode.ASTE) == Triplet(Span(0, 0), Span(1, 1), Polarity.NEU)
    monkeypatch.setattr(trainer, "pseudo_labels", lambda *a, **k: [[invalid, valid]])
    kept = trainer._self_labels({}, [tiny_data.target_unlabeled[0].sentence], tiny_cfg(eta=0.3))
    assert kept == [(Triplet(Span(0, 1), Span(2, 2), Polarity.NEG),)]


@pytest.mark.parametrize("variant", [Variant.SOURCE_ONLY, Variant.SELF_TRAIN])
def test_teacherless_checkpoint_stores_student_as_teacher(tiny_data, tmp_path, variant):
    from tablemt.checkpoint import load_checkpoint, save_checkpoint

    path = tmp_path / "model.bin"
    save_checkpoint(path, fit(tiny_data, tiny_cfg(variant=variant, eta=0.2))[0])
    ckpt = load_checkpoint(path)
    assert set(ckpt.teacher) == set(ckpt.student)
    for k in ckpt.student:
        assert ckpt.teacher[k].tobytes() == ckpt.student[k].tobytes()


@pytest.mark.parametrize("changes", [
    dict(eta=0.98), dict(eta=0.2),
    dict(variant=Variant.CTFMT, eta=0.98), dict(variant=Variant.CTFMT, eta=0.2),
    dict(eta=0.2, alpha=0.5, ablations=frozenset({"no_aug", "no_mmd"})),
], ids=["tfmt-0.98", "tfmt-0.2", "ctfmt-0.98", "ctfmt-0.2", "tfmt-ablated"])
def test_fit_with_pretrained_teacher_equals_fit(tiny_data, tmp_path, changes):
    from tablemt.checkpoint import save_checkpoint

    cfg = tiny_cfg(**changes)
    given_ckpt, given_rows = fit(tiny_data, cfg, teacher=pretrain_teacher(tiny_data.source_train, cfg))
    own_ckpt, own_rows = fit(tiny_data, cfg)
    assert given_rows == own_rows
    save_checkpoint(tmp_path / "given.bin", given_ckpt)
    save_checkpoint(tmp_path / "own.bin", own_ckpt)
    assert (tmp_path / "given.bin").read_bytes() == (tmp_path / "own.bin").read_bytes()


def test_fit_leaves_the_given_teacher_untouched(tiny_data):
    cfg = tiny_cfg(eta=0.2)
    teacher = pretrain_teacher(tiny_data.source_train, cfg)
    before = clone_params(teacher)
    ckpt, _ = fit(tiny_data, cfg, teacher=teacher)
    assert any(not np.array_equal(ckpt.teacher[k], before[k]) for k in before)  # EMA moved it
    assert all(teacher[k].tobytes() == before[k].tobytes() for k in before)


@pytest.mark.parametrize("variant", [Variant.SOURCE_ONLY, Variant.SELF_TRAIN])
def test_teacherless_variant_refuses_a_teacher(tiny_data, variant):
    cfg = tiny_cfg(variant=variant, epochs=1)
    with pytest.raises(ValueError, match="without a teacher"):
        fit(tiny_data, cfg, teacher=pretrain_teacher(tiny_data.source_train, cfg))


def test_fit_rejects_empty_source():
    with pytest.raises(ValueError):
        fit(SynthCorpus([], [], [], []), tiny_cfg())


@pytest.mark.parametrize("split", ["source_train", "source_dev", "target_unlabeled",
                                   "target_test"])
def test_check_corpus_rejects_an_over_length_sentence_in_a_split_the_fit_reads(tiny_data,
                                                                               split):
    records = list(getattr(tiny_data, split))
    records.insert(1, LabeledSentence(Sentence(tuple(f"w{i}" for i in range(17))), ()))
    data = replace(tiny_data, **{split: records})
    message = f"^{split} record 1: sentence length 17 exceeds max_n=16$"
    for variant in (Variant.TFMT, Variant.SELF_TRAIN, Variant.SOURCE_ONLY):
        cfg = tiny_cfg(variant=variant)
        if split == "target_unlabeled" and variant == Variant.SOURCE_ONLY:
            check_corpus(data, cfg)  # a source-only fit never reads it
        else:
            with pytest.raises(ValueError, match=message):
                check_corpus(data, cfg)


def test_fit_aope_mode_runs(tiny_data):
    cfg = tiny_cfg(mode=Mode.AOPE, epochs=1, eta=0.2)
    ckpt, rows = fit(tiny_data, cfg)
    assert ckpt.student["cls_w"].shape[1] == 2
    assert len(rows) == 1


def test_gradient_of_assembled_step_matches_fd(tiny_data):
    """Micro-model end-to-end gradient, all terms active."""
    from tablemt.model import as_tensors

    cfg = tiny_cfg(eta=0.05, beta=0.5, alpha=1.0)
    teacher = init_params(cfg.encoder, cfg.mode, _stream(20, 0))
    student = init_params(cfg.encoder, cfg.mode, _stream(20, 1))
    src = tiny_data.source_train[:2]
    tgt = [ls.sentence for ls in tiny_data.target_unlabeled[:2]]
    pseudo = pseudo_labels(teacher, tgt, cfg, teacher_pseudo_label)
    assert any(pseudo)

    def value(params):
        total, _ = compute_losses(as_tensors(params), src, cfg, tgt, pseudo)
        return total.item()

    st = as_tensors(student)
    total, bd = compute_losses(st, src, cfg, tgt, pseudo)
    assert bd.l_uns > 0 and bd.l_mmd > 0
    total.backward()
    eps = 1e-5
    rng = np.random.default_rng(0)
    for name in ("emb", "tab_w", "cls_w", "rpn_b_w", "conv1_w1"):
        g = st[name].grad
        idx = np.unravel_index(int(np.argmax(np.abs(g))), g.shape)
        mod = clone_params(student)
        mod[name][idx] += eps
        fp = value(mod)
        mod[name][idx] -= 2 * eps
        fm = value(mod)
        fd = (fp - fm) / (2 * eps)
        assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1.0) < 1e-4, name


def test_mmd_gradient_scales_linearly_with_beta(tiny_data):
    from tablemt.model import as_tensors

    cfg1 = tiny_cfg(eta=0.05, beta=0.2, ablations=frozenset({"no_uns"}))
    cfg2 = tiny_cfg(eta=0.05, beta=0.4, ablations=frozenset({"no_uns"}))
    student = init_params(cfg1.encoder, cfg1.mode, _stream(20, 1))
    src = tiny_data.source_train[:2]
    tgt = [ls.sentence for ls in tiny_data.target_unlabeled[:2]]

    def grad_of(cfg):
        st = as_tensors(clone_params(student))
        total, _ = compute_losses(st, src, cfg, tgt, None)
        total.backward()
        return st["emb"].grad.copy()

    g1 = grad_of(cfg1)
    g2 = grad_of(cfg2)
    sup = grad_of(tiny_cfg(eta=0.05, beta=1e-300, ablations=frozenset({"no_uns", "no_mmd"})))
    assert np.allclose(g2 - sup, 2.0 * (g1 - sup), rtol=1e-9, atol=1e-12)


def _cell_probs(tl, params, mode):
    """Class probabilities of every cell of one sentence's (n^2, d) map as
    its own 1x1 region from one (n^2, 3d) batch in row-major cell order: the
    dense formula the cell-level variant used before its cells went through
    the RoI path."""
    import tablemt.autograd as ag
    from tablemt.detector import classify_regions

    return classify_regions(ag.concat([tl, tl, tl], axis=1), params, mode)


def test_ctfmt_consistency_equals_cell_probs_rows(tiny_data):
    """ctfmt's teacher cell probabilities equal the dense ``_cell_probs``
    batch bit for bit, and the consistency loss and gradients, which score
    the cells as 1x1 regions of the student's forward, equal those built
    from the retained cells' ``_cell_probs`` rows."""
    import tablemt.autograd as ag
    from tablemt.encoder import encode
    from tablemt.losses import loss_uns
    from tablemt.model import as_tensors

    cfg = tiny_cfg(variant=Variant.CTFMT, eta=0.05, ablations=frozenset({"no_mmd"}))
    teacher = init_params(cfg.encoder, cfg.mode, _stream(20, 0))
    student = init_params(cfg.encoder, cfg.mode, _stream(20, 1))
    tgt = [ls.sentence for ls in tiny_data.target_unlabeled[:2]]
    pseudo = pseudo_labels(teacher, tgt, cfg, teacher_pseudo_label_cells)
    assert all(pseudo)
    teacher_t = as_tensors(teacher)
    for sent, labels in zip(tgt, pseudo):
        with ag.no_grad():
            dense, _ = _cell_probs(encode([sent], teacher_t, cfg.encoder), teacher_t, cfg.mode)
        for pl in labels:
            assert np.array_equal(pl.probs, dense.data[pl.a * sent.n + pl.b])
        assert len(labels) == int((dense.data[:, list(foreground_classes(cfg.mode))]
                                   .max(axis=1) >= cfg.eta).sum())

    new_t = as_tensors(student)
    total, bd = compute_losses(new_t, [], cfg, tgt, pseudo)
    total.backward()

    old_t = as_tensors(student)
    rows = []
    for sent, labels in zip(tgt, pseudo):
        probs, _ = _cell_probs(encode([sent], old_t, cfg.encoder), old_t, cfg.mode)
        rows.append(probs[np.array([p.a * sent.n + p.b for p in labels])])
    teacher_rows = np.concatenate([np.stack([p.probs for p in labels]) for labels in pseudo])
    old = loss_uns(ag.concat(rows, axis=0), teacher_rows)
    old.backward()

    assert bd.l_uns > 0
    assert abs(bd.l_uns - old.item()) <= 1e-12
    for name in ("emb", "cls_w"):
        np.testing.assert_allclose(new_t[name].grad, old_t[name].grad, rtol=1e-10)


@pytest.mark.parametrize("mode", list(Mode))
def test_ctfmt_gradient_of_assembled_step_matches_fd(tiny_data, mode):
    """Micro-model gradient of the ctfmt loss: cell consistency on the cells
    as 1x1 regions and MMD over the decoded cell groups, both active."""
    from tablemt.model import as_tensors

    cfg = tiny_cfg(variant=Variant.CTFMT, mode=mode, eta=0.05, beta=0.5, alpha=1.0)
    teacher = init_params(cfg.encoder, cfg.mode, _stream(20, 0))
    student = init_params(cfg.encoder, cfg.mode, _stream(20, 1))
    src = tiny_data.source_train[:2]
    tgt = [ls.sentence for ls in tiny_data.target_unlabeled[:2]]
    pseudo = pseudo_labels(teacher, tgt, cfg, teacher_pseudo_label_cells)

    def value(params):
        total, _ = compute_losses(as_tensors(params), src, cfg, tgt, pseudo)
        return total.item()

    st = as_tensors(student)
    total, bd = compute_losses(st, src, cfg, tgt, pseudo)
    assert bd.l_uns > 0 and bd.l_mmd > 0
    total.backward()
    eps = 1e-5
    for name in ("emb", "tab_w", "cls_w", "rpn_b_w", "conv1_w1"):
        g = st[name].grad
        idx = np.unravel_index(int(np.argmax(np.abs(g))), g.shape)
        mod = clone_params(student)
        mod[name][idx] += eps
        fp = value(mod)
        mod[name][idx] -= 2 * eps
        fm = value(mod)
        fd = (fp - fm) / (2 * eps)
        assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1.0) < 1e-4, name


def _edge_source_batch(tiny_data) -> list[LabeledSentence]:
    """A mixed source batch: a sentence with no triplet (which, at student
    seed 2, has no predicted proposal either), a 1-token and a 2-token
    sentence, and a synth sentence."""
    from tablemt.corpus import Polarity, Span, Triplet

    return [
        LabeledSentence(Sentence(("it", "is", "so", "very", "fine")), ()),
        LabeledSentence(Sentence(("sadj0",)), (Triplet(Span(0, 0), Span(0, 0), Polarity.POS),)),
        LabeledSentence(Sentence(("snoun0", "sadj1")),
                        (Triplet(Span(0, 0), Span(1, 1), Polarity.NEG),)),
        tiny_data.source_train[0],
    ]


def _losses_and_grads(params, records, cfg):
    from tablemt.model import as_tensors

    tensors = as_tensors(clone_params(params))
    total, bd = compute_losses(tensors, records, cfg)
    total.backward()
    return bd, {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for k, t in tensors.items()}


@pytest.mark.parametrize("mode", list(Mode))
def test_a_source_batch_equals_the_mean_of_its_sentences(tiny_data, mode):
    """One packed batch gives each loss term and every parameter gradient
    as the mean of its sentences run one by one: a sentence without
    proposals is a zero ``l_rpc`` term that still counts, and 1- and
    2-token maps weigh as their own 2n² cells."""
    from dataclasses import fields

    import tablemt.autograd as ag
    from tablemt.detector import rpn_scores
    from tablemt.encoder import encode
    from tablemt.losses import LossBreakdown
    from tablemt.model import as_tensors, forward

    cfg = tiny_cfg(mode=mode)
    student = init_params(cfg.encoder, mode, _stream(2, 1))
    batch = _edge_source_batch(tiny_data)
    empty = batch[0].sentence
    with ag.no_grad():
        params_t = as_tensors(student)
        scores = rpn_scores(encode([empty], params_t, cfg.encoder), params_t)
        assert forward(*scores.maps([empty.n])[0], cfg.kappa).proposals == []

    bd, grads = _losses_and_grads(student, batch, cfg)
    singles = [_losses_and_grads(student, [ls], cfg) for ls in batch]
    assert singles[0][0].l_rpc == 0.0
    for f in fields(LossBreakdown):
        got = getattr(bd, f.name)
        want = sum(getattr(b, f.name) for b, _ in singles) / len(batch)
        assert abs(got - want) <= 1e-15 * max(abs(got), abs(want)), f.name
    for k, g in grads.items():
        want = sum(gs[k] for _, gs in singles) / len(batch)
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12, err_msg=k)


def _per_sentence_rows(student, src, tgt, pseudo, cfg):
    """The consistency rows and MMD feature rows as the detector made them
    when it ran per sentence: each sentence's corner scores, region head and
    gathers on its own slice of the packed map, concatenated in sentence and
    proposal order."""
    import tablemt.autograd as ag
    from tablemt.detector import classify_regions, decode_triplets, roi_represent, rpn_scores
    from tablemt.encoder import encode
    from tablemt.model import as_tensors, forward
    from tablemt.tagging import cells_by_type, encode_region_labels

    params_t = as_tensors(student)
    sentences = [ls.sentence for ls in src] + tgt
    extras = [[g.rect() for g in encode_region_labels(ls)[1]] for ls in src]
    extras += [[p.rect() for p in labels] for labels in pseudo]
    with ag.no_grad():
        tl = encode(sentences, params_t, cfg.encoder).data
    uns, groups, lo = [], ({}, {}), 0
    for i, (s, extra) in enumerate(zip(sentences, extras)):
        n = s.n
        own = Tensor(tl[lo : lo + n * n])
        lo += n * n
        with ag.no_grad():
            fwd = forward(*rpn_scores(own, params_t).maps([n])[0], cfg.kappa, extra_rects=extra)
            rois = roi_represent(own, [n], [fwd.proposals])
            probs, _ = classify_regions(rois, params_t, cfg.mode)
        if i >= len(src) and fwd.extra_rows:
            uns.append(probs.data[fwd.extra_rows])
        m = fwd.n_predicted
        if m == 0:
            continue
        if cfg.variant == Variant.CTFMT:
            triplets = decode_triplets(fwd.proposals[:m], probs.data[:m], cfg.mode)
            by_key = {k: own.data[[a * n + b for a, b in cells]]
                      for k, cells in cells_by_type(triplets).items() if cells}
        else:
            a, b, c, d = np.array([p.rect() for p in fwd.proposals[:m]]).T
            by_key = {"b": own.data[a * n + b], "e": own.data[c * n + d], "roi": rois.data[:m]}
        for key, rows in by_key.items():
            groups[i >= len(src)].setdefault(key, []).append(rows)
    return (np.concatenate(uns),
            [{k: np.concatenate(v) for k, v in side.items()} for side in groups])


@pytest.mark.parametrize("variant", [Variant.TFMT, Variant.CTFMT])
def test_batched_consistency_and_mmd_rows_equal_the_per_sentence_rows(tiny_data, monkeypatch,
                                                                       variant):
    """The batch head's consistency rows and MMD feature rows are one gather
    each, and equal, bit for bit, the rows the per-sentence detector made."""
    import tablemt.trainer as trainer
    from tablemt.model import as_tensors

    cfg = tiny_cfg(variant=variant, eta=0.05, beta=0.5)
    teacher = init_params(cfg.encoder, cfg.mode, _stream(20, 0))
    student = init_params(cfg.encoder, cfg.mode, _stream(20, 1))
    src = tiny_data.source_train[:3]
    tgt = [ls.sentence for ls in tiny_data.target_unlabeled[:3]]
    label = teacher_pseudo_label_cells if variant == Variant.CTFMT else teacher_pseudo_label
    pseudo = pseudo_labels(teacher, tgt, cfg, label)
    assert any(pseudo)

    seen = {}
    real_uns, real_mmd = trainer.loss_uns, trainer.loss_mmd

    def recording_uns(student_probs, teacher_probs):
        seen["uns"] = student_probs.data
        return real_uns(student_probs, teacher_probs)

    def recording_mmd(src_groups, tgt_groups):
        seen["mmd"] = [{k: v.data for k, v in side.items()}
                       for side in (src_groups, tgt_groups)]
        return real_mmd(src_groups, tgt_groups)

    monkeypatch.setattr(trainer, "loss_uns", recording_uns)
    monkeypatch.setattr(trainer, "loss_mmd", recording_mmd)
    _, bd = compute_losses(as_tensors(student), src, cfg, tgt, pseudo)
    assert bd.l_uns > 0 and bd.l_mmd > 0

    uns, groups = _per_sentence_rows(student, src, tgt, pseudo, cfg)
    np.testing.assert_array_equal(seen["uns"], uns)
    for got, want in zip(seen["mmd"], groups):
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=str(key))
