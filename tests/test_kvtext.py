"""The key=value codec that config files, ``--set`` items, report machine
blocks and the HDB1 config echo are written and read by."""

import re
from dataclasses import fields

import pytest

from clusterens import kvtext
from clusterens.cli import main
from clusterens.config import SCHEMA, PipelineConfig, load_pipeline_config, resolve
from clusterens.errors import ConfigError, LoadError
from clusterens.heads import TrainConfig, config_from_text, config_to_text
from clusterens.labeling import TEXT_CHUNK
from clusterens.pipeline import ensemble_stage, read_machine_block, render_report


@pytest.mark.parametrize("key", [k for k, (_, default) in SCHEMA.items() if default is not None])
def test_schema_default_round_trips(key):
    parser, default = SCHEMA[key]
    text = kvtext.render([(key, default)])
    value = parser(kvtext.parse(text.splitlines(), "defaults")[key])
    assert value == default and type(value) is type(default)
    assert kvtext.render([(key, value)]) == text


def test_non_default_train_config_round_trips():
    cfg = TrainConfig(num_clusters=7, num_heads=3, tau_student=0.07, tau_teacher=1 / 3,
                      beta=1.0, lambda_max=0.0, teacher_momentum=0.5, sk_iters=0, epochs=2,
                      warmup_epochs=0, batch_size=17, lr=1e-3, weight_decay=0.0,
                      smoothing_m=4, seed=123)
    assert all(getattr(cfg, f.name) != f.default for f in fields(cfg))
    text = config_to_text(cfg)
    assert text.startswith("num_clusters=7\nnum_heads=3\ntau_student=0.07\n"
                           "tau_teacher=0.3333333333333333\nbeta=1.0\n")
    back = config_from_text(kvtext.render(kvtext.parse(text.splitlines(), "echo").items()))
    assert back == cfg
    assert [type(getattr(back, f.name)) for f in fields(cfg)] == \
        [type(getattr(cfg, f.name)) for f in fields(cfg)]


def test_values_are_written_one_way():
    pairs = [("b", True), ("f", 0.1), ("t", (0.5, 2.0)), ("i", (1, 2)), ("e", ()), ("s", "x y")]
    assert kvtext.render(pairs) == "b=true\nf=0.1\nt=0.5,2.0\ni=1,2\ne=\ns=x y\n"


def test_parse_strips_skips_blanks_and_keeps_the_last():
    lines = [" a = 1 ", "", "   ", "b=x=y", "a=2", "c="]
    assert kvtext.parse(lines, "s") == {"a": "2", "b": "x=y", "c": ""}


def test_a_line_without_equals_is_named():
    with pytest.raises(ValueError, match=r"^src:3: expected key=value, got 'oops'$"):
        kvtext.parse(["a=1", "", "oops"], "src")


def test_a_long_line_without_equals_is_quoted_in_part():
    with pytest.raises(ValueError) as info:
        kvtext.parse(["a=1", "y" * 5000], "src")
    assert str(info.value) == f"src:2: expected key=value, got {'y' * kvtext.QUOTE_CHARS!r}..."


def test_config_file_lines_are_read_one_at_a_time(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\r\n\n" + "#" * TEXT_CHUNK + "\nthreads = 2")
    assert load_pipeline_config(path)["threads"] == 2
    path.write_text("seed = 3\n\n" + "#" * (TEXT_CHUNK + 1) + "\nthreads = 2\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:3: line of more than"):
        load_pipeline_config(path)


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xef\xbb\xbfseed = 3\nthreads = 2\n")
    cfg = load_pipeline_config(path)
    assert (cfg["seed"], cfg["threads"]) == (3, 2)


def test_set_keeps_a_hash_sign_that_a_config_file_starts_a_comment_with(tmp_path):
    assert resolve({}, ["output_dir=a#b"])["output_dir"] == "a#b"
    path = tmp_path / "run.cfg"
    path.write_text("output_dir = a#b # note\n")
    assert load_pipeline_config(path)["output_dir"] == "a"


def test_a_config_line_without_equals_is_a_config_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\noops # no value\n")
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(str(path))}:2: expected key=value, got 'oops '$"):
        load_pipeline_config(path)
    with pytest.raises(ConfigError, match=r"^--set:2: expected key=value, got 'oops'$"):
        resolve({}, ["seed=1", "oops"])


def test_set_without_equals_exits_1(capsys):
    assert main(["gen-synth", "--set", "seed=1", "--set", "oops"]) == 1
    assert "--set:2: expected key=value, got 'oops'" in capsys.readouterr().err


def test_machine_block_line_without_equals_raises():
    text = render_report(["title", "---", "body"], {"a": 1, "b": 0.5})
    assert read_machine_block(text) == {"a": "1", "b": "0.5"}
    with pytest.raises(ValueError, match=r"machine block:3: expected key=value, got 'oops'"):
        read_machine_block(text + "oops\n")


def test_ensemble_refuses_a_train_report_line_without_equals(tmp_path):
    report = render_report(["head training report"], {"num_heads": 1, "best_head": 0})
    (tmp_path / "train_report.txt").write_text(report + "oops\n")
    cfg = PipelineConfig(resolve({"output_dir": str(tmp_path)}, []))
    with pytest.raises(LoadError, match=r"not a train report: .*machine block:3: .*'oops'"):
        ensemble_stage(cfg, tmp_path, None, None)


def test_config_echo_line_without_equals_raises():
    text = config_to_text(TrainConfig(num_clusters=3))
    with pytest.raises(ValueError, match=r"config echo:16: expected key=value, got 'oops'"):
        config_from_text(text + "oops\n")
