"""Persistence and command-line tests.

Checkpoints are round-tripped bit-exactly; corrupt files raise; the CLI is
exercised end to end on a shrunken config so every subcommand runs in a few
seconds.
"""

import argparse
import csv
import dataclasses
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from subflow import cli, io, metrics, mixture, pipeline
from subflow import net as net_module
from subflow.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from subflow.clustering import SubmodeTable
from subflow.config import (ConfigError, ExperimentConfig, emit_config,
                            load_config, parse_config)
from subflow.net import NetConfig, VelocityNet
from subflow.mixture import toy_spec

from support import ROOT, TINY_CONFIG


# the run metadata and sub-mode table load_checkpoint requires
META = {"objective": "cfm", "conditioning": "class", "source_std": 1.0}
TABLE = SubmodeTable.from_counts({0: [7012, 2988], 1: [3]})


def small_net(seed=0, uses_interval=True):
    cfg = NetConfig(num_classes=2, num_submodes=2, hidden_width=4,
                    hidden_layers=1, embed_dim=2, uses_interval=uses_interval)
    return VelocityNet.initialized(cfg, seed)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        """Parameters, EMA, step, metadata and the sub-mode table come back
        as saved: equal counts, and priors bit-equal to the saved table's."""
        net = small_net()
        ema = net.params * 0.5 + 0.1
        path = tmp_path / "ck.bin"
        io.save_checkpoint(path, net, ema, step=42, meta=META, table=TABLE)
        net2, ema2, step, meta, table = io.load_checkpoint(path)
        assert np.array_equal(net2.params, net.params)
        assert np.array_equal(ema2, ema)
        assert step == 42
        assert meta == META
        assert net2.config == net.config
        assert sorted(table.per_class) == [0, 1]
        for c, saved in TABLE.per_class.items():
            assert np.array_equal(table.per_class[c].counts, saved.counts)
            assert np.array_equal(table.per_class[c].priors, saved.priors)
            assert table.per_class[c].priors.dtype == saved.priors.dtype

    def test_save_is_deterministic(self, tmp_path):
        net = small_net()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        io.save_checkpoint(a, net, net.params, step=1, meta=META, table=TABLE)
        io.save_checkpoint(b, net, net.params, step=1, meta=META, table=TABLE)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a checkpoint"):
            io.load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        """Another version, the table-less version 1 included, is refused."""
        net = small_net()
        path = tmp_path / "v.bin"
        io.save_checkpoint(path, net, net.params, step=0, meta=META,
                           table=TABLE)
        raw = bytearray(path.read_bytes())
        for version in (99, 1):
            raw[4:8] = struct.pack("<I", version)
            path.write_bytes(bytes(raw))
            with pytest.raises(ValueError, match=f"unsupported checkpoint "
                               f"version {version}$"):
                io.load_checkpoint(path)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw + b"\x00" * 8,     # trailing bytes
        lambda raw: raw[:-16],             # EMA array two values short
        lambda raw: raw[:10],              # cut inside the header
    ], ids=["trailing_bytes", "truncated_ema", "truncated_header"])
    def test_damaged_file_rejected(self, tmp_path, damage):
        net = small_net()
        path = tmp_path / "damaged.bin"
        io.save_checkpoint(path, net, net.params, step=0, meta=META,
                           table=TABLE)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match="damaged.bin"):
            io.load_checkpoint(path)


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "artifact.csv"
        f.write_text("a,b\n1,2\n")
        m = io.RunManifest(run_id="r1", config_text="[train]\n", seed=7)
        m.add_file("artifact", f)
        mp = tmp_path / "m.json"
        m.write(mp)
        m2 = io.RunManifest.read(mp)
        assert m2.run_id == "r1" and m2.seed == 7
        assert m2.checksums == m.checksums
        assert m2.check() == []

    def test_older_manifest_with_extra_key_read(self, tmp_path):
        """Manifests no longer carry an "extra" key; older ones that do
        still read."""
        m = io.RunManifest(run_id="r5", config_text="", seed=1)
        mp = tmp_path / "m.json"
        m.write(mp)
        payload = json.loads(mp.read_text())
        assert "extra" not in payload
        mp.write_text(json.dumps({**payload, "extra": {}}))
        assert io.RunManifest.read(mp) == m

    def test_detects_stale_file(self, tmp_path):
        f = tmp_path / "artifact.csv"
        f.write_text("original")
        m = io.RunManifest(run_id="r2", config_text="", seed=0)
        m.add_file("artifact", f)
        f.write_text("modified")
        assert m.check() == ["artifact"]

    def test_detects_missing_file(self, tmp_path):
        f = tmp_path / "artifact.csv"
        f.write_text("x")
        m = io.RunManifest(run_id="r3", config_text="", seed=0)
        m.add_file("artifact", f)
        f.unlink()
        assert m.check() == ["artifact"]

    def test_add_missing_file_rejected(self, tmp_path):
        m = io.RunManifest(run_id="r4", config_text="", seed=0)
        with pytest.raises(FileNotFoundError):
            m.add_file("ghost", tmp_path / "nope.csv")


class TestRunId:
    def test_deterministic(self):
        a = io.new_run_id("train", "cfg-text", 5)
        b = io.new_run_id("train", "cfg-text", 5)
        assert a == b and a.startswith("train-")

    def test_varies_with_inputs(self):
        base = io.new_run_id("train", "cfg-text", 5)
        assert io.new_run_id("train", "cfg-text", 6) != base
        assert io.new_run_id("train", "other", 5) != base


class TestConfig:
    def test_defaults_from_empty(self):
        cfg = parse_config("")
        assert cfg.mixture == toy_spec()
        assert cfg.train.objective == "cfm"
        assert cfg.cluster.k == 2

    def test_emit_parse_round_trip(self):
        cfg = parse_config(TINY_CONFIG)
        again = parse_config(emit_config(cfg))
        assert again == cfg

    def test_explicit_components(self):
        text = ("[mixture]\nsource_std = 0.5\n"
                "component_0 = 0.6 -1.0 0.0 0.3 0 0\n"
                "component_1 = 0.4 1.0 0.0 0.3 0 1\n")
        cfg = parse_config(text)
        assert len(cfg.mixture.components) == 2
        assert cfg.mixture.source_std == 0.5
        assert cfg.mixture.components[1].mean == (1.0, 0.0)

    def test_malformed_component(self):
        with pytest.raises(ConfigError):
            parse_config("[mixture]\ncomponent_0 = 0.5 oops\n")

    def test_bad_numeric_value(self):
        with pytest.raises(ConfigError):
            parse_config("[train]\nsteps = soon\n")

    def test_bad_objective(self):
        with pytest.raises(ConfigError):
            parse_config("[train]\nobjective = diffusion\n")

    # run ids of emit_config(...); a changed byte in the emitted text
    # changes the run id
    PINNED_RUN_IDS = {
        "single_gaussian.cfg": "train-29b03b328e",
        "toy.cfg": "train-4a86139127",
        "toy_cfm.cfg": "train-dd500a498a",
        "": "train-56beaf88f0",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_RUN_IDS))
    def test_emitted_text_is_pinned(self, name):
        cfg = (load_config(ROOT / "configs" / name) if name
               else parse_config(""))
        run_id = io.new_run_id("train", emit_config(cfg), cfg.train.seed)
        assert run_id == self.PINNED_RUN_IDS[name]

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(TINY_CONFIG)
        cfg = load_config(p)
        assert cfg.train.steps == 60 and cfg.train.conditioning == "subflow"


def overridden(command, *flags):
    """Default config after the overrides of one command line."""
    argv = [command, "--config", "c", "--out", "o", *flags]
    if command != "train":
        argv += ["--manifest", "m"]
    return cli._apply_overrides(parse_config(""),
                                cli.build_parser().parse_args(argv))


def test_overrides_set_their_keys():
    cfg = overridden("train", "--seed", "4", "--steps", "7", "--objective",
                     "meanflow", "--conditioning", "subflow", "--cluster-k", "3")
    assert (cfg.train.seed, cfg.train.steps, cfg.cluster.k) == (4, 7, 3)
    assert (cfg.train.objective, cfg.train.conditioning) == ("meanflow",
                                                             "subflow")
    cfg = overridden("evaluate", "--count", "5", "--nfe", "2",
                     "--guidance-scale", "1.5", "--submode-strategy", "uniform")
    assert (cfg.sample.count, cfg.sample.nfe, cfg.sample.guidance_scale,
            cfg.sample.submode_strategy) == (5, 2, 1.5, "uniform")


@pytest.mark.parametrize("call, error, match", [
    (lambda: parse_config("[metrics]\nknn_k = 0\n"), ConfigError, "knn_k"),
    (lambda: parse_config("[metrics]\nn_real = 0\n"), ConfigError, "n_real"),
    (lambda: parse_config("[sample]\ncount = 0\n"), ConfigError, "count"),
    (lambda: parse_config("[sample]\nnfe = 0\n"), ConfigError, "nfe"),
    (lambda: parse_config("[sample]\nsubmode_strategy = bogus\n"),
     ConfigError, "bogus"),
    (lambda: parse_config("[cluster]\nk = 0\n"), ConfigError, "k must"),
    (lambda: parse_config("[data]\nn_train = -5\n"), ConfigError, "n_train"),
    (lambda: parse_config("[cluster]\nenabled = true\n"), ConfigError,
     "enabled"),
    (lambda: parse_config("[cluster]\nlabels = spectral\n"), ConfigError,
     r"\[cluster\] labels 'spectral'"),
    (lambda: parse_config("[train]\nstesp = 10\n"), ConfigError, "stesp"),
    (lambda: parse_config("[trian]\nsteps = 10\n"), ConfigError, "trian"),
    (lambda: parse_config("[DEFAULT]\nsteps = 10\n"), ConfigError,
     "DEFAULT"),
    (lambda: parse_config("[mixture]\nsource_sd = 0.5\n"), ConfigError,
     "source_sd"),
    (lambda: parse_config("[mixture]\ncomponent_0 = 0.5 0 0 1 0 0\n"
                          "component_2 = 0.5 1 0 1 0 1\n"), ConfigError,
     "component_2"),
    (lambda: parse_config("[mixture]\ncomponent_0 = 0.5 0 0 1 0 0\n"
                          "component_1 = 0.5 1 0 1 2 0\n"), ConfigError,
     "class ids"),
    (lambda: parse_config("[mixture]\ncomponent_0 = 0.5 0 0 1 0 0\n"
                          "component_1 = 0.5 1 0 1 0 2\n"), ConfigError,
     "submode ids"),
    (lambda: overridden("evaluate", "--nfe", "0"), ConfigError, "nfe"),
    (lambda: overridden("generate", "--class-id", "0", "--count", "0"),
     ConfigError, "count"),
    (lambda: overridden("evaluate", "--guidance-scale", "-1"), ConfigError,
     "guidance"),
    (lambda: overridden("evaluate", "--guidance-scale", "nan"), ConfigError,
     "guidance"),
    (lambda: overridden("evaluate", "--guidance-scale", "inf"), ConfigError,
     "guidance"),
    (lambda: overridden("train", "--cluster-k", "0"), ConfigError, "k must"),
    (lambda: metrics.knn_precision_recall(np.zeros((5, 2)),
                                          np.ones((5, 2)), 0),
     ValueError, "k must"),
    (lambda: parse_config("[train]\nlearning_rate = nan\n"), ConfigError,
     r"\[train\] learning_rate"),
    (lambda: parse_config("[train]\nlearning_rate = 0\n"), ConfigError,
     r"\[train\] learning_rate"),
    (lambda: parse_config("[train]\nlearning_rate = -1\n"), ConfigError,
     r"\[train\] learning_rate"),
    (lambda: parse_config("[mixture]\nsource_std = inf\n"), ConfigError,
     r"\[mixture\] source_std"),
    (lambda: parse_config("[mixture]\ncomponent_0 = 1.0 nan 0 1 0 0\n"),
     ConfigError, r"\[mixture\] component_0: component mean"),
    (lambda: parse_config("[mixture]\ncomponent_0 = nan 0 0 1 0 0\n"),
     ConfigError, r"\[mixture\] component_0: component weight"),
    (lambda: parse_config("[mixture]\ncomponent_0 = 1.0 0 0 inf 0 0\n"),
     ConfigError, r"\[mixture\] component_0: component std"),
    (lambda: parse_config("[metrics]\ncoverage_tau = nan\n"), ConfigError,
     r"\[metrics\] coverage_tau"),
    (lambda: parse_config("[metrics]\ncoverage_tau = inf\n"), ConfigError,
     r"\[metrics\] coverage_tau"),
    (lambda: parse_config("[metrics]\ncoverage_tau = -0.5\n"), ConfigError,
     r"\[metrics\] coverage_tau"),
], ids=["knn_k", "n_real", "count", "nfe", "strategy", "cluster_k",
        "n_train", "cluster_enabled_unknown", "cluster_labels",
        "unknown_key", "unknown_section",
        "default_section", "unknown_mixture_key", "component_gap",
        "class_id_gap", "submode_id_gap", "override_nfe", "override_count",
        "override_guidance", "override_guidance_nan",
        "override_guidance_inf", "override_cluster_k", "knn_k_call",
        "learning_rate_nan", "learning_rate_zero", "learning_rate_negative",
        "source_std_inf", "component_mean_nan", "component_weight_nan",
        "component_std_inf", "coverage_tau_nan", "coverage_tau_inf",
        "coverage_tau_negative"])
def test_invalid_setting_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("section, key, value", [
    ("train", "adam_beta1", "0.9"), ("train", "adam_beta2", "0.95"),
    ("train", "rt_equal_fraction", "0.75"), ("cluster", "max_iters", "100"),
    ("metrics", "knn_k", "3")])
def test_removed_keys_rejected(tmp_path, capsys, section, key, value):
    """Settings that are module constants are not config keys: naming one,
    even at its constant's value, is an error that names it, and exits 1."""
    text = f"[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    assert key in _train_rejects(tmp_path, capsys, text)


def test_unknown_labels_rejected_by_train(tmp_path, capsys):
    """A [cluster] labels value other than kmeans or random exits 1."""
    err = _train_rejects(tmp_path, capsys, "[cluster]\nlabels = spectral\n")
    assert "[cluster] labels 'spectral'" in err


def test_class_without_training_points_rejected(tmp_path, capsys):
    """A training set that leaves a [mixture] class with no points exits 1
    naming the class and [data] n_train, and writes nothing; a grid with
    such a row raises the same error."""
    text = "[data]\nn_train = 1\n"
    err = _train_rejects(tmp_path, capsys, text)
    assert "error: [data] n_train = 1 leaves [mixture] classes [1]" in err
    out_csv = tmp_path / "grid" / "g.csv"
    with pytest.raises(ValueError, match=r"classes \[1\] with no points"):
        pipeline.run_grid([("grid", parse_config(text))], [1], out_csv)
    assert not out_csv.parent.exists()


@pytest.mark.parametrize("content, match", [
    (b"[train]\nsteps = 5\nsteps = 6\n",
     "line 3: option 'steps' in section 'train' already exists$"),
    (b"[train]\nsteps = 5\n[train]\n",
     "line 3: section 'train' already exists$"),
    (b"steps = 5\n", "line 1: no \\[section\\] header$"),
    (b"[train]\nsteps = 5\nsoon\n", "line 3: cannot parse 'soon"),
    (b"[train]\nsteps = -1\n", r"\[train\] steps must be >= 0"),
    (b"[train]\nsteps = 5\n# \xff\n", "can't decode byte 0xff"),
    (b"[train]\nobjective = cf%m\n", r"\[train\] unknown objective 'cf%m'$"),
], ids=["syntax", "duplicate_section", "no_section", "not_key_value",
        "value", "not_utf8", "percent"])
def test_config_errors_name_the_file(tmp_path, capsys, content, match):
    """Every error in a config file's contents starts with its path, which
    it names once; train exits 1 on it."""
    path = tmp_path / "exp.cfg"
    path.write_bytes(content)
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(str(path))}: .*{match}") as exc:
        load_config(path)
    assert str(exc.value).count(path.name) == 1
    assert "<string>" not in str(exc.value)
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def _train_rejects(tmp_path, capsys, text):
    """`subflow train` on a config of `text` exits 1 and writes nothing;
    returns its error output."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err


class TestCsvEmission:
    def test_loss_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        io.write_loss_csv(path, np.array([1.5, 0.25]))
        lines = path.read_text().strip().splitlines()
        assert lines == ["step,loss", "0,1.5", "1,0.25"]

    def test_samples_csv(self, tmp_path):
        from subflow.sampler import GenerationBatch
        batch = GenerationBatch(xs=np.array([[1.0, 1.0], [2.0, -0.5]]),
                                class_ids=np.array([0, 1]),
                                submode_ids=np.array([1, -1]))
        sp = tmp_path / "s.csv"
        io.write_samples_csv(sp, batch)
        assert sp.read_text().strip().splitlines() == [
            "sample_index,class_id,submode_id,x,y",
            "0,0,1,1.0,1.0", "1,1,-1,2.0,-0.5"]

    def test_scatter_svg(self, tmp_path):
        path = tmp_path / "fig.svg"
        io.write_scatter_svg(path, np.zeros((5, 2)), np.ones((3, 2)),
                             np.array([0, 1, 0]), (-1, -1, 2, 2))
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert text.count("<circle") == 8


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """One tiny CLI training run shared by the downstream-command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "exp.cfg"
    cfg_path.write_text(TINY_CONFIG)
    out = root / "run"
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(out)]) == EXIT_OK
    manifest = next(out.glob("*.manifest.json"))
    return cfg_path, out, manifest


def _record_calls(monkeypatch, *targets):
    """Wrap each (module, name) function so that a call appends its name
    to the returned list before it runs."""
    calls = []
    for module, name in targets:
        def recorded(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)
    return calls


def _descriptor_changed(change):
    """Damage that rewrites a checkpoint's JSON descriptor with `change`."""
    def damage(path):
        raw = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", raw, 8)
        descriptor = json.loads(raw[12:12 + blob_len])
        change(descriptor)
        blob = json.dumps(descriptor).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                         + raw[12 + blob_len:])
    return damage


def _byte_12_set(value):
    def damage(path):
        raw = bytearray(path.read_bytes())
        raw[12] = value
        path.write_bytes(bytes(raw))
    return damage


def _arrays_set_nan(ema):
    def damage(path):
        net, ema_params, step, meta, table = io.load_checkpoint(path)
        if ema:
            ema_params = np.full_like(ema_params, np.nan)
        else:
            net.params[0] = np.nan
        io.save_checkpoint(path, net, ema_params, step, meta, table)
    return damage


def _run_with_damaged(trained_dir, tmp_path, label, damage):
    """Copy of the trained run whose `label` file is damaged; returns
    (manifest path, damaged file path)."""
    _, _, manifest = trained_dir
    payload = json.loads(manifest.read_text())
    # the undamaged files stay in the run: an absolute entry is itself
    payload["files"] = {key: str(manifest.parent / name)
                        for key, name in payload["files"].items()}
    damaged = tmp_path / Path(payload["files"][label]).name
    shutil.copyfile(payload["files"][label], damaged)
    damage(damaged)
    payload["files"][label] = str(damaged)
    copy = tmp_path / "damaged.manifest.json"
    copy.write_text(json.dumps(payload))
    return copy, damaged


def _downstream_commands(cfg_path, manifest, out):
    common = ["--config", str(cfg_path), "--out", str(out), "--manifest",
              str(manifest)]
    return [["generate", *common, "--class-id", "0"], ["evaluate", *common]]


class TestDamagedInputs:
    """A damaged checkpoint or manifest fails generate and evaluate with
    exit 1 and an error naming the file."""

    def _assert_rejected(self, trained_dir, tmp_path, capsys, manifest, bad):
        for argv in _downstream_commands(trained_dir[0], manifest,
                                         tmp_path / "out"):
            assert main(argv) == EXIT_VALIDATION, argv[0]
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage", [
        _byte_12_set(ord("X")),
        _byte_12_set(0xFF),
        _descriptor_changed(lambda d: d.pop("step")),
        _descriptor_changed(lambda d: d.pop("net")),
        _descriptor_changed(lambda d: d["net"].update(hidden_width=0)),
        _descriptor_changed(lambda d: d["net"].update(depth=2)),
        _arrays_set_nan(ema=True),
        _arrays_set_nan(ema=False),
        _descriptor_changed(lambda d: d.update(meta={})),
        _descriptor_changed(lambda d: d.pop("meta")),
        _descriptor_changed(lambda d: d["meta"].update(conditioning="sub")),
        _descriptor_changed(lambda d: d["meta"].update(objective="ddpm")),
        _descriptor_changed(lambda d: d["meta"].update(source_std=0.0)),
        _descriptor_changed(lambda d: d["meta"].update(source_std="wide")),
        _descriptor_changed(lambda d: d.pop("submode_counts")),
        _descriptor_changed(lambda d: d["submode_counts"].pop()),
        _descriptor_changed(lambda d: d["submode_counts"].append([5, 5])),
        _descriptor_changed(lambda d: d["submode_counts"][0].append(5)),
        _descriptor_changed(lambda d: d["submode_counts"].__setitem__(
            0, [0, 0])),
        _descriptor_changed(lambda d: d["submode_counts"][0].__setitem__(
            0, -1)),
        _descriptor_changed(lambda d: d["submode_counts"][0].__setitem__(
            0, 2.5)),
        _descriptor_changed(lambda d: d["submode_counts"][0].__setitem__(
            0, True)),
        _descriptor_changed(lambda d: d["submode_counts"][0].__setitem__(
            0, "many")),
        _descriptor_changed(lambda d: d.update(submode_counts={"0": [5]})),
        _descriptor_changed(lambda d: d["submode_counts"].__setitem__(0, [])),
    ], ids=["not_json", "not_utf8", "missing_step", "missing_net",
            "net_rejected", "net_unknown_key", "nan_ema", "nan_params",
            "meta_empty", "meta_missing", "meta_bad_conditioning",
            "meta_bad_objective", "meta_zero_source_std",
            "meta_text_source_std", "submode_counts_missing",
            "class_missing", "extra_class", "more_submodes_than_net",
            "zero_counts", "negative_count", "float_count", "bool_count",
            "string_count", "submode_counts_not_a_list", "class_empty"])
    def test_checkpoint(self, trained_dir, tmp_path, capsys, damage):
        manifest, bad = _run_with_damaged(trained_dir, tmp_path,
                                          "checkpoint", damage)
        self._assert_rejected(trained_dir, tmp_path, capsys, manifest, bad)

    @pytest.mark.parametrize("text", [
        "{}", "not json", '{"run_id": "r", "config": "", "seed": 0}', "[]",
    ], ids=["empty_object", "not_json", "missing_keys", "not_an_object"])
    def test_manifest(self, trained_dir, tmp_path, capsys, text):
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text(text)
        self._assert_rejected(trained_dir, tmp_path, capsys, manifest,
                              manifest)
        assert main(["check", "--manifest", str(manifest)]) == EXIT_VALIDATION
        assert str(manifest) in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        lambda p: p.update(files=[]),
        lambda p: p.update(checksums={}),
        lambda p: p["files"].update(checkpoint=3),
        lambda p: p.update(seed="abc"),
        lambda p: p.update(seed=1.5),
        lambda p: p.update(run_id=5),
        lambda p: p.update(config=None),
        lambda p: p.update(duration_s="long"),
    ], ids=["files_a_list", "checksums_empty", "file_not_a_string",
            "seed_text", "seed_float", "run_id_number", "config_null",
            "duration_text"])
    def test_manifest_value(self, trained_dir, tmp_path, capsys, change):
        """A manifest value of the wrong type, or files and checksums that
        do not map the same labels to strings, fail every reader and check
        with exit 1 naming the manifest."""
        payload = json.loads(trained_dir[2].read_text())
        change(payload)
        manifest = tmp_path / "bad.manifest.json"
        manifest.write_text(json.dumps(payload))
        self._assert_rejected(trained_dir, tmp_path, capsys, manifest,
                              manifest)
        assert main(["check", "--manifest", str(manifest)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {manifest}")

    @pytest.mark.parametrize("label", ["checkpoint", "assignments"])
    def test_listed_directory(self, trained_dir, tmp_path, capsys, label):
        """A listed path that is a directory is a bad artifact to check.
        generate and evaluate read only the checkpoint, and exit 1 naming
        it when it is the directory."""
        def to_directory(path):
            path.unlink()
            path.mkdir()

        manifest, bad = _run_with_damaged(trained_dir, tmp_path, label,
                                          to_directory)
        if label == "checkpoint":
            self._assert_rejected(trained_dir, tmp_path, capsys, manifest,
                                  bad)
        assert main(["check", "--manifest", str(manifest)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert out == f"stale or missing artifacts: {label}\n"

    def test_manifest_without_checkpoint(self, trained_dir, tmp_path, capsys):
        payload = json.loads(trained_dir[2].read_text())
        del payload["files"]["checkpoint"], payload["checksums"]["checkpoint"]
        manifest = tmp_path / "no-checkpoint.manifest.json"
        manifest.write_text(json.dumps(payload))
        self._assert_rejected(trained_dir, tmp_path, capsys, manifest,
                              manifest)

    def test_undamaged_copy_accepted(self, trained_dir, tmp_path):
        manifest, _ = _run_with_damaged(trained_dir, tmp_path, "checkpoint",
                                        lambda path: None)
        for argv in _downstream_commands(trained_dir[0], manifest,
                                         tmp_path / "out"):
            assert main(argv) == EXIT_OK, argv[0]


class TestCli:
    def test_docstring_lists_the_subcommands(self):
        """cli's module docstring names exactly the parser's subcommands,
        in their order."""
        (subparsers,) = [action for action in cli.build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        (line,) = [line for line in cli.__doc__.splitlines()
                   if line.startswith("Subcommands: ")]
        listed = line.removeprefix("Subcommands: ").rstrip(".").split(", ")
        assert listed == list(subparsers.choices)

    def test_generate(self, trained_dir, tmp_path):
        cfg_path, _, manifest = trained_dir
        out = tmp_path / "gen"
        rc = main(["generate", "--config", str(cfg_path),
                   "--out", str(out), "--manifest", str(manifest),
                   "--class-id", "0", "--count", "50"])
        assert rc == EXIT_OK
        assert (out / "samples-class0.csv").exists()
        assert (out / "scatter-class0.svg").exists()

    def test_evaluate(self, trained_dir, tmp_path, capsys):
        cfg_path, _, manifest = trained_dir
        out = tmp_path / "eval"
        rc = main(["evaluate", "--config", str(cfg_path),
                   "--out", str(out), "--manifest", str(manifest),
                   "--count", "200"])
        assert rc == EXIT_OK
        assert "mode_tv=" in capsys.readouterr().out
        assert (out / "metrics.csv").exists()

    # the net's passes overflow on purpose, on every worker thread
    @pytest.mark.filterwarnings(
        "ignore:overflow encountered in matmul:RuntimeWarning",
        "ignore:invalid value encountered in matmul:RuntimeWarning",
        "ignore:invalid value encountered in multiply:RuntimeWarning",
        "ignore:invalid value encountered in divide:RuntimeWarning")
    def test_evaluate_rejects_non_finite_samples(self, trained_dir,
                                                 tmp_path, capsys):
        """A checkpoint whose weights are finite but near the float64 limit
        loads, and the net's outputs overflow to inf or NaN; the metrics
        refuse such samples, naming the set, and evaluate exits 1."""
        def scale(path):
            net, ema_params, step, meta, table = io.load_checkpoint(path)
            net.params *= 1e306
            io.save_checkpoint(path, net, ema_params * 1e306, step, meta,
                               table)

        manifest, _ = _run_with_damaged(trained_dir, tmp_path, "checkpoint",
                                        scale)
        rc = main(["evaluate", "--config", str(trained_dir[0]),
                   "--out", str(tmp_path / "eval"),
                   "--manifest", str(manifest), "--count", "200"])
        assert rc == EXIT_VALIDATION
        assert "error: gen has" in capsys.readouterr().err

    def test_metric_csvs_write_numbers(self, trained_dir, tmp_path):
        """Every metric field of an evaluate CSV parses with float()."""
        cfg_path, _, manifest = trained_dir
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                     "--manifest", str(manifest)]) == EXIT_OK
        with open(out / "metrics.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        for field in ("frechet", "precision", "recall", "mode_tv",
                      "field_rmse"):
            float(row[field])

    def test_field_rmse_empty_when_cluster_k_differs(self, tmp_path):
        """With one cluster per class, a subflow net's cluster ids cannot be
        paired with the mixture's two sub-modes per class: evaluate writes
        an empty field_rmse."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("steps = 60", "steps = 20")
                            + "\n[cluster]\nk = 1\n")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(run)]) == EXIT_OK
        manifest = next(run.glob("*.manifest.json"))
        assert main(["evaluate", "--config", str(cfg_path), "--out",
                     str(tmp_path / "eval"), "--manifest",
                     str(manifest)]) == EXIT_OK
        with open(tmp_path / "eval" / "metrics.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["field_rmse"] == ""

    def test_sweep_nfe(self, trained_dir, tmp_path):
        cfg_path, _, manifest = trained_dir
        out = tmp_path / "sweep"
        rc = main(["sweep-nfe", "--config", str(cfg_path),
                   "--out", str(out), "--manifest", str(manifest),
                   "--nfe-list", "1,2"])
        assert rc == EXIT_OK
        lines = (out / "nfe_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per nfe

    def test_sweep_checks_every_nfe_first(self, trained_dir, tmp_path):
        """A bad NFE anywhere in the list exits 1 before any row is
        written."""
        cfg_path, _, manifest = trained_dir
        out = tmp_path / "sweep"
        rc = main(["sweep-nfe", "--config", str(cfg_path),
                   "--out", str(out), "--manifest", str(manifest),
                   "--nfe-list", "1,2,0"])
        assert rc == EXIT_VALIDATION
        assert not (out / "nfe_sweep.csv").exists()

    def test_sweep_rejects_an_empty_nfe_list(self, trained_dir, tmp_path,
                                             monkeypatch):
        """An empty NFE list raises before the run loads: no directory is
        created and no k-NN radius search runs."""
        cfg_path, _, manifest = trained_dir
        calls = _record_calls(monkeypatch, (pipeline, "load_run"),
                              (metrics, "knn_radii_sq"))
        out_csv = tmp_path / "sweep" / "nfe_sweep.csv"
        with pytest.raises(ValueError, match="NFE list is empty"):
            pipeline.sweep_nfe(manifest, load_config(cfg_path), out_csv, [])
        assert not out_csv.parent.exists()
        assert calls == []

    def test_sweep_rejects_a_non_integer_nfe(self, trained_dir, tmp_path,
                                             capsys):
        """A --nfe-list entry that is not an integer exits 1 naming the
        flag, and creates no directory."""
        cfg_path, _, manifest = trained_dir
        out = tmp_path / "sweep"
        rc = main(["sweep-nfe", "--config", str(cfg_path),
                   "--out", str(out), "--manifest", str(manifest),
                   "--nfe-list", "1,x"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: --nfe-list ")
        assert not out.exists()

    def test_sweep_matches_evaluate_per_nfe(self, trained_dir, tmp_path):
        """sweep_nfe loads the run, the real set and the field RMSE once;
        its reports and CSV rows equal one evaluate_run per NFE."""
        cfg_path, _, manifest = trained_dir
        cfg = load_config(cfg_path)
        swept = pipeline.sweep_nfe(manifest, cfg, tmp_path / "sweep.csv",
                                   nfe_list=(1, 3))
        single = []
        for nfe in (1, 3):
            cfg.sample.nfe = nfe
            single.append(pipeline.evaluate_run(manifest, cfg,
                                                tmp_path / "one.csv"))
        assert len(swept) == 2
        for a, b in zip(swept, single):
            np.testing.assert_equal(vars(a), vars(b))
        assert ((tmp_path / "sweep.csv").read_text()
                == (tmp_path / "one.csv").read_text())

    def test_sweep_computes_the_real_radii_once(self, trained_dir, tmp_path,
                                               monkeypatch):
        """Over three NFEs the sweep finds k-NN radii four times: the real
        set's once, then each generated set's, with the k-NN lanes inline
        and on the helper thread."""
        cfg_path, _, manifest = trained_dir
        cfg = load_config(cfg_path)
        radii_sq = metrics.knn_radii_sq
        for workers in (1, 2):
            monkeypatch.setattr(net_module, "SWEEP_WORKERS", workers)
            sizes = []

            def counted(points, *args, **kwargs):
                sizes.append(len(points))
                return radii_sq(points, *args, **kwargs)

            monkeypatch.setattr(metrics, "knn_radii_sq", counted)
            pipeline.sweep_nfe(manifest, cfg, tmp_path / f"{workers}.csv",
                               nfe_list=(1, 2, 4))
            assert sizes == [cfg.metrics.n_real] + [cfg.sample.count] * 3

    def test_sweep_csv_independent_of_worker_count(self, trained_dir,
                                                   tmp_path, monkeypatch):
        """The sweep writes the same bytes with its lanes (and the net's
        blocks) on one worker and on two."""
        cfg_path, _, manifest = trained_dir
        cfg = load_config(cfg_path)
        for workers in (1, 2):
            monkeypatch.setattr(net_module, "SWEEP_WORKERS", workers)
            pipeline.sweep_nfe(manifest, cfg, tmp_path / f"{workers}.csv",
                               nfe_list=(1, 2))
        assert ((tmp_path / "1.csv").read_bytes()
                == (tmp_path / "2.csv").read_bytes())

    @pytest.mark.parametrize("mixture", [
        "[mixture]\nsource_std = 0.5\n",
        "[mixture]\ncomponent_0 = 1.0 0.5 -0.25 0.5 0 0\n",
    ], ids=["source_std", "one_component"])
    def test_run_used_only_under_its_mixture(self, trained_dir, tmp_path,
                                             capsys, mixture):
        """generate, evaluate and sweep-nfe with a config whose [mixture] is
        not the run's exit 1 naming the manifest, and create no output
        directory."""
        _, _, manifest = trained_dir
        cfg_path = tmp_path / "other.cfg"
        cfg_path.write_text(TINY_CONFIG + mixture)
        out = tmp_path / "out"
        common = ["--config", str(cfg_path), "--out", str(out),
                  "--manifest", str(manifest)]
        for argv in (["generate", *common, "--class-id", "0"],
                     ["evaluate", *common],
                     ["sweep-nfe", *common, "--nfe-list", "1"]):
            assert main(argv) == EXIT_VALIDATION, argv[0]
            err = capsys.readouterr().err
            assert err.startswith(f"error: {manifest}: "), err
            assert "[mixture]" in err
        assert not out.exists()

    def test_check_passes_then_detects_staleness(self, trained_dir, capsys):
        _, out, manifest = trained_dir
        assert main(["check", "--manifest", str(manifest)]) == EXIT_OK
        loss_csv = next(out.glob("*.loss.csv"))
        original = loss_csv.read_text()
        loss_csv.write_text(original + "999,0.0\n")
        try:
            assert main(["check", "--manifest",
                         str(manifest)]) == EXIT_VALIDATION
        finally:
            loss_csv.write_text(original)

    def test_moved_run_directory_still_loads(self, tmp_path, monkeypatch):
        """A manifest lists its run's files by name, beside itself: a run
        trained into a relative --out is generated from, evaluated and
        checked from another directory after the run directory moved."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG.replace("steps = 60", "steps = 20"))
        (tmp_path / "a").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        assert main(["train", "--config", str(cfg_path),
                     "--out", "runs/t"]) == EXIT_OK
        moved = tmp_path / "moved"
        shutil.move(tmp_path / "a" / "runs" / "t", moved)
        (tmp_path / "b" / "sub").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "b" / "sub")
        manifest = str(next(moved.glob("*.manifest.json")))
        common = ["--config", str(cfg_path), "--out", "out", "--manifest",
                  manifest]
        assert main(["generate", *common, "--class-id", "1"]) == EXIT_OK
        assert main(["evaluate", *common]) == EXIT_OK
        assert main(["check", "--manifest", manifest]) == EXIT_OK
        assert (Path("out") / "metrics.csv").is_file()

    def test_checkpoint_alone_drives_inference(self, trained_dir, tmp_path,
                                               capsys):
        """Without its loss and assignments files, a run generates and
        evaluates to the same CSV bytes; check lists both as missing."""
        cfg_path, run, _ = trained_dir
        bare = tmp_path / "bare"
        shutil.copytree(run, bare)
        for pattern in ("*.loss.csv", "*.assignments.csv"):
            next(bare.glob(pattern)).unlink()
        written = []
        for where in (run, bare):
            manifest = str(next(where.glob("*.manifest.json")))
            out = tmp_path / f"out-{where.name}"
            common = ["--config", str(cfg_path), "--out", str(out),
                      "--manifest", manifest]
            assert main(["generate", *common, "--class-id", "1"]) == EXIT_OK
            assert main(["evaluate", *common]) == EXIT_OK
            written.append([(out / name).read_bytes() for name in
                            ("samples-class1.csv", "metrics.csv")])
        assert written[0] == written[1]
        capsys.readouterr()
        assert main(["check", "--manifest", manifest]) == EXIT_VALIDATION
        assert (capsys.readouterr().out
                == "stale or missing artifacts: assignments, loss_curve\n")

    def test_cluster_subcommand_is_gone(self, tmp_path, capsys):
        """`cluster` is not a subcommand: argparse stops with its usage
        error, exit 2, before anything runs, and no --out appears."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            main(["cluster", "--features", str(tmp_path / "features.csv"),
                  "--out", str(out)])
        assert stop.value.code == 2
        assert "invalid choice: 'cluster'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["train", "generate", "evaluate",
                                         "sweep-nfe"])
    def test_out_that_is_a_file_rejected_first(self, trained_dir, tmp_path,
                                               capsys, monkeypatch, command,
                                               under):
        """An --out that is a file, or lies under one, exits 1 naming it
        before the command builds a dataset or loads a run."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started")
        monkeypatch.setattr(pipeline, "build_dataset", no_work)
        monkeypatch.setattr(pipeline, "load_run", no_work)
        cfg_path, _, manifest = trained_dir
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "out" if under else taken
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
        if command != "train":
            argv += ["--manifest", str(manifest)]
        if command == "generate":
            argv += ["--class-id", "1"]
        assert main(argv) == EXIT_VALIDATION
        assert (capsys.readouterr().err
                == f"error: --out {out}: {taken} is not a directory\n")
        assert taken.read_text() == "keep"

    def test_internal_key_error_is_runtime_failure(self, tmp_path,
                                                    monkeypatch, capsys):
        """Outside input is checked before it reaches a dict lookup, so a
        KeyError is a fault of the program: exit 2, not 1."""
        def fail(*args, **kwargs):
            raise KeyError("lost")
        monkeypatch.setattr(pipeline, "train_run", fail)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime failure:")

    def test_missing_config_is_validation_error(self, tmp_path):
        rc = main(["train", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_bad_config_value_is_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[train]\nobjective = diffusion\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("flag", ["--config", "--manifest"])
    def test_directory_as_input_is_validation_error(self, trained_dir,
                                                     tmp_path, capsys, flag):
        """A directory where an input file belongs exits 1 naming it, as a
        missing path does."""
        cfg_path, _, manifest = trained_dir
        inputs = {"--config": str(cfg_path), "--manifest": str(manifest),
                  flag: str(tmp_path)}
        argv = ["generate", "--class-id", "0", "--config",
                inputs["--config"], "--manifest", inputs["--manifest"]]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}")
        assert not (tmp_path / "out").exists()

    def test_fixed_submode_alone_fixes_the_submode(self, trained_dir,
                                                   tmp_path, capsys):
        """--fixed-submode k needs no strategy flag; -1 is the default and
        other negatives exit 1."""
        cfg_path, _, manifest = trained_dir
        argv = ["generate", "--config", str(cfg_path), "--out",
                str(tmp_path), "--manifest", str(manifest), "--class-id",
                "0", "--count", "40", "--fixed-submode"]
        assert main([*argv, "1"]) == EXIT_OK
        with open(tmp_path / "samples-class0.csv", newline="") as fh:
            assert {row["submode_id"] for row in csv.DictReader(fh)} == {"1"}
        assert main([*argv, "-2"]) == EXIT_VALIDATION
        assert "fixed submode -2" in capsys.readouterr().err

    def test_count_zero_rejected(self, trained_dir, tmp_path):
        cfg_path, _, manifest = trained_dir
        rc = main(["generate", "--config", str(cfg_path),
                   "--out", str(tmp_path), "--manifest", str(manifest),
                   "--class-id", "0", "--count", "0"])
        assert rc == EXIT_VALIDATION

    def test_unscorable_count_rejected_before_loading(self, trained_dir,
                                                      tmp_path, capsys):
        """An evaluate count the k-NN metrics cannot use exits 1 naming the
        setting before the run loads: here its manifest does not exist.
        One more sample scores."""
        cfg_path, _, manifest = trained_dir
        argv = ["evaluate", "--config", str(cfg_path), "--out",
                str(tmp_path / "out"), "--count"]
        missing = ["--manifest", str(tmp_path / "missing.manifest.json")]
        assert main([*argv, str(metrics.KNN_K), *missing]) == EXIT_VALIDATION
        assert (f"error: [sample] count {metrics.KNN_K} must exceed"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
        assert main([*argv, str(metrics.KNN_K + 1), "--manifest",
                     str(manifest)]) == EXIT_OK

GRID_CONFIG = (TINY_CONFIG.replace("steps = 60", "steps = 20")
               .replace("count = 200", "count = 300"))


def _grid_rows(cfg):
    """The default row, one row whose [sample] differs, one whose [train]
    differs and one whose [cluster] labels are random."""
    return [
        ("grid-default", cfg),
        ("grid-uniform", dataclasses.replace(cfg, sample=dataclasses.replace(
            cfg.sample, submode_strategy="uniform"))),
        ("grid-drop", dataclasses.replace(cfg, train=dataclasses.replace(
            cfg.train, p_drop_submode=0.1))),
        ("grid-random", dataclasses.replace(cfg, cluster=dataclasses.replace(
            cfg.cluster, labels="random"))),
    ]


class TestRunGrid:
    """run_grid trains each row once into the CSV's directory and sweeps
    it: the same artifacts and rows as train_run then sweep_nfe per row."""

    def test_equals_train_then_sweep_per_row(self, tmp_path):
        runs = _grid_rows(parse_config(GRID_CONFIG))
        grid = pipeline.run_grid(runs, [1, 2], tmp_path / "grid" / "g.csv")
        hand = tmp_path / "hand"
        for (prefix, cfg), reports in zip(runs, grid):
            manifest = pipeline.train_run(cfg, hand, prefix)
            again = pipeline.sweep_nfe(
                hand / f"{manifest.run_id}.manifest.json", cfg,
                hand / "g.csv", [1, 2])
            assert len(reports) == 2
            for a, b in zip(reports, again):
                np.testing.assert_equal(vars(a), vars(b))
        assert ((tmp_path / "grid" / "g.csv").read_bytes()
                == (hand / "g.csv").read_bytes())
        assert len((hand / "g.csv").read_text().splitlines()) == 1 + 4 * 2

    @pytest.mark.parametrize("row, section, key, value", [
        (1, "sample", "submode_strategy", "uniform"),
        (2, "train", "p_drop_submode", 0.1),
        (3, "cluster", "labels", "random"),
    ], ids=["uniform_sampling", "drop_k", "random_assignment"])
    def test_row_recorded_and_evaluated(self, tmp_path, row, section, key,
                                        value):
        """A row's setting is recorded in its manifest's config, and its
        report is evaluate_run on that manifest."""
        cfg = parse_config(GRID_CONFIG)
        assert getattr(getattr(cfg, section), key) != value
        prefix, row_cfg = _grid_rows(cfg)[row]
        ((report,),) = pipeline.run_grid([(prefix, row_cfg)],
                                         [cfg.sample.nfe],
                                         tmp_path / "grid.csv")
        manifest = next(tmp_path.glob(f"{prefix}-*.manifest.json"))
        recorded = parse_config(io.RunManifest.read(manifest).config_text)
        assert getattr(getattr(recorded, section), key) == value
        again = pipeline.evaluate_run(manifest, recorded, tmp_path / "x.csv")
        np.testing.assert_equal(vars(again), vars(report))

    def test_random_label_row_gets_its_own_run_id(self, tmp_path):
        """The labelling is part of the config, so under one prefix a
        random-label run and the default run are two runs."""
        rows = _grid_rows(parse_config(GRID_CONFIG))
        default, random_row = (pipeline.train_run(cfg, tmp_path, "grid")
                                for _, cfg in (rows[0], rows[3]))
        assert default.run_id != random_row.run_id
        assert (default.checksums["checkpoint"]
                != random_row.checksums["checkpoint"])

    def test_retrain_from_manifest_reproduces_random_run(self, tmp_path):
        """The manifest's config is the whole run: training it again gives
        the random-label run's checkpoint, bit for bit."""
        prefix, cfg = _grid_rows(parse_config(GRID_CONFIG))[3]
        first = pipeline.train_run(cfg, tmp_path / "first", prefix)
        recorded = parse_config(first.config_text)
        again = pipeline.train_run(recorded, tmp_path / "again", prefix)
        assert again.run_id == first.run_id
        assert again.checksums["checkpoint"] == first.checksums["checkpoint"]

    def test_bad_nfe_creates_nothing(self, tmp_path):
        """An NFE that any row's sampling settings reject stops the grid
        before the first training run: no directory is created."""
        out_csv = tmp_path / "grid" / "g.csv"
        with pytest.raises(ValueError, match="nfe must be >= 1"):
            pipeline.run_grid(_grid_rows(parse_config(GRID_CONFIG)), [1, 0],
                              out_csv)
        assert not out_csv.parent.exists()

    def test_empty_nfe_list_creates_nothing(self, tmp_path, monkeypatch):
        """An empty NFE list stops the grid before the first training run:
        no directory is created and no k-NN radius search runs."""
        calls = _record_calls(monkeypatch, (pipeline, "train_run"),
                              (metrics, "knn_radii_sq"))
        out_csv = tmp_path / "grid" / "g.csv"
        with pytest.raises(ValueError, match="NFE list is empty"):
            pipeline.run_grid(_grid_rows(parse_config(GRID_CONFIG)), [],
                              out_csv)
        assert not out_csv.parent.exists()
        assert calls == []

    def test_unscorable_count_creates_nothing(self, tmp_path):
        """A row whose [sample] count the k-NN metrics cannot use stops the
        grid before the first training run."""
        rows = _grid_rows(parse_config(GRID_CONFIG))
        prefix, cfg = rows[-1]
        sample = dataclasses.replace(cfg.sample, count=metrics.KNN_K)
        rows[-1] = (prefix, dataclasses.replace(cfg, sample=sample))
        out_csv = tmp_path / "grid" / "g.csv"
        with pytest.raises(ValueError, match=r"\[sample\] count 3 must"):
            pipeline.run_grid(rows, [1], out_csv)
        assert not out_csv.parent.exists()
