"""Checkpoint serialization: bit-exact round-trip, byte-identical rewrites."""

import json
import struct

import numpy as np
import pytest

from tablemt.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from tablemt.detector import Mode
from tablemt.encoder import EncoderConfig
from tablemt.model import init_params
from tablemt.trainer import Checkpoint, TrainConfig, Variant


def _checkpoint(seed=0) -> Checkpoint:
    enc = EncoderConfig(d=8, layers=1, vocab_buckets=64, max_n=12)
    cfg = TrainConfig(
        seed=seed, encoder=enc, variant=Variant.CTFMT, mode=Mode.AOPE,
        ablations=frozenset({"no_aug"}), alpha=0.25, epochs=3,
    )
    rng = np.random.default_rng(seed)
    student = init_params(enc, cfg.mode, rng)
    teacher = init_params(enc, cfg.mode, rng)
    history = [
        {"epoch": 1, "step": 4, "l_rpn": 0.5, "l_rpc": 1.25, "l_sup": 1.75,
         "l_uns": 0.0, "l_mmd": 0.125, "total": 1.750625, "dev_f1": 0.5, "test_f1": 0.25}
    ]
    return Checkpoint(config=cfg, student=student, teacher=teacher, epoch=1, history=history)


def test_roundtrip_bit_exact(tmp_path):
    ckpt = _checkpoint()
    path = tmp_path / "model.bin"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.epoch == ckpt.epoch
    assert loaded.history == ckpt.history
    assert set(loaded.student) == set(ckpt.student)
    for k in ckpt.student:
        assert np.array_equal(loaded.student[k], ckpt.student[k])
        assert loaded.student[k].dtype == np.float64
    for k in ckpt.teacher:
        assert np.array_equal(loaded.teacher[k], ckpt.teacher[k])


def test_rewrite_is_byte_identical(tmp_path):
    ckpt = _checkpoint(seed=3)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_checkpoint(p1, ckpt)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_config_enums_and_ablations_survive(tmp_path):
    ckpt = _checkpoint()
    path = tmp_path / "model.bin"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config.variant == Variant.CTFMT
    assert loaded.config.mode == Mode.AOPE
    assert loaded.config.ablations == frozenset({"no_aug"})
    assert loaded.config.encoder == ckpt.config.encoder


@pytest.mark.parametrize("ablations", [{"no_uns", "no_aug"}, ["no_aug", "no_uns"], ("no_uns", "no_aug")],
                         ids=["set", "list", "tuple"])
def test_ablations_of_any_collection_are_a_frozenset(tmp_path, ablations):
    cfg = TrainConfig(ablations=ablations)
    assert cfg.ablations == frozenset({"no_uns", "no_aug"})
    assert isinstance(cfg.ablations, frozenset)
    assert hash(cfg) == hash(TrainConfig(ablations=frozenset({"no_aug", "no_uns"})))
    params = init_params(cfg.encoder, cfg.mode, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(cfg, params, params, 0, []))
    assert load_checkpoint(path).config == cfg


def _split(path):
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[len(MAGIC) : len(MAGIC) + 8])
    off = len(MAGIC) + 8
    return json.loads(raw[off : off + hlen]), raw[off + hlen :]


def _rewrite_header(path, header):
    _, tensors = _split(path)
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(payload)) + payload + tensors)


def test_config_on_disk_format(tmp_path):
    enc = EncoderConfig(d=10, layers=3, vocab_buckets=128, window=2, max_n=20)
    cfg = TrainConfig(
        alpha=0.5, beta=0.01, ema_lambda=0.7, eta=0.9, kappa=0.4, aug_rate=0.25, batch=3,
        epochs=7, lr=0.005, seed=11, mode=Mode.AOPE, variant=Variant.CTFMT,
        ablations=frozenset({"no_mmd", "no_aug"}), encoder=enc,
    )
    params = init_params(enc, cfg.mode, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(config=cfg, student=params, teacher=params, epoch=0,
                                     history=[]))
    header, _ = _split(path)
    assert header["config"] == {
        "alpha": 0.5, "beta": 0.01, "ema_lambda": 0.7, "eta": 0.9, "kappa": 0.4,
        "aug_rate": 0.25, "batch": 3, "epochs": 7, "lr": 0.005, "seed": 11,
        "mode": "aope", "variant": "ctfmt", "ablations": ["no_aug", "no_mmd"],
        "encoder": {"d": 10, "layers": 3, "vocab_buckets": 128, "window": 2, "max_n": 20},
        "encoder_kind": "hash_window_mixer",
    }
    assert load_checkpoint(path).config == cfg


@pytest.mark.parametrize("drop", [("eta",), ("ablations",), ("encoder", "window"),
                                  ("encoder_kind",)])
def test_missing_config_field_fails_to_load(tmp_path, drop):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _checkpoint())
    header, _ = _split(path)
    node = header["config"]
    for key in drop[:-1]:
        node = node[key]
    del node[drop[-1]]
    _rewrite_header(path, header)
    with pytest.raises(CheckpointError, match=f"{drop[-1]}.*missing") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_other_encoder_kind_fails_to_load(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _checkpoint())
    header, _ = _split(path)
    header["config"]["encoder_kind"] = "bilstm"
    _rewrite_header(path, header)
    with pytest.raises(CheckpointError, match="encoder_kind 'bilstm'") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("cut", [1, 8, 1000])
def test_truncated_tensor_bytes_fail_to_load(tmp_path, cut):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _checkpoint())
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(CheckpointError, match="truncated") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("junk", [b"\0", b"x" * 8, MAGIC], ids=["nul", "word", "magic"])
def test_trailing_bytes_fail_to_load(tmp_path, junk):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _checkpoint())
    path.write_bytes(path.read_bytes() + junk)
    with pytest.raises(CheckpointError, match=f"{len(junk)} bytes after the last tensor") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_nan_tensor_byte_fails_to_load(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _checkpoint())
    header, tensors = _split(path)
    raw = bytearray(path.read_bytes())
    first = header["tensors"][0]  # patch the last value of the first tensor
    at = len(raw) - len(tensors) + 8 * (int(np.prod(first["shape"])) - 1)
    raw[at : at + 8] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"{first['name']}.*non-finite") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_config_that_builds_other_shapes_fails_to_load(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _checkpoint())  # d = 8
    header, _ = _split(path)
    header["config"]["encoder"]["d"] = 10
    _rewrite_header(path, header)
    with pytest.raises(CheckpointError, match="tensor") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_tensor_names_must_match_config(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _checkpoint())
    header, _ = _split(path)
    header["tensors"][-1]["name"] = "teacher/extra"
    _rewrite_header(path, header)
    with pytest.raises(CheckpointError, match="teacher/extra"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_saving_non_finite_params_raises(tmp_path, bad):
    ckpt = _checkpoint()
    ckpt.student["cls_b"][0] = bad
    path = tmp_path / "model.bin"
    with pytest.raises(CheckpointError, match="student/cls_b.*non-finite"):
        save_checkpoint(path, ckpt)
    assert not path.exists()


@pytest.mark.parametrize("defect, name", [
    ("extra", "teacher/extra"),
    ("missing", "student/cls_b"),
    ("wrong_shape", "student/cls_w"),
    ("other_encoder", "student/V"),
])
def test_saving_tensors_the_config_does_not_build_raises(tmp_path, defect, name):
    ckpt = _checkpoint()
    if defect == "extra":
        ckpt.teacher["extra"] = np.zeros(3)
    elif defect == "missing":
        del ckpt.student["cls_b"]
    elif defect == "wrong_shape":
        ckpt.student["cls_w"] = ckpt.student["cls_w"][:, :1]
    else:  # a student built for d = 10 under a config of d = 8
        enc = EncoderConfig(d=10, layers=1, vocab_buckets=64, max_n=12)
        ckpt.student.update(init_params(enc, ckpt.config.mode, np.random.default_rng(0)))
    path = tmp_path / "model.bin"
    with pytest.raises(CheckpointError, match=f"tensor .*'{name}'") as err:
        save_checkpoint(path, ckpt)
    assert str(path) in str(err.value)
    assert not path.exists()


@pytest.mark.parametrize("defect", [
    "not_json", "not_an_object", "encoder_d_3", "encoder_d_float", "bogus_mode",
    "no_version", "no_tensors", "no_epoch", "no_history",
])
def test_malformed_header_fails_to_load(tmp_path, capsys, defect):
    from tablemt.cli import EXIT_RUNTIME, main

    path = tmp_path / "model.bin"
    save_checkpoint(path, _checkpoint())
    header, tensors = _split(path)
    if defect.startswith("no_"):
        del header[defect.removeprefix("no_")]
    elif defect == "encoder_d_3":
        header["config"]["encoder"]["d"] = 3
    elif defect == "encoder_d_float":
        header["config"]["encoder"]["d"] = 8.0
    elif defect == "bogus_mode":
        header["config"]["mode"] = "bogus"
    payload = {"not_json": b"{not json", "not_an_object": b"[1]"}.get(
        defect, json.dumps(header).encode("utf-8"))
    path.write_bytes(MAGIC + struct.pack("<Q", len(payload)) + payload + tensors)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
    assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "x.txt")]) == EXIT_RUNTIME
    assert "error: CheckpointError:" in capsys.readouterr().err
