import contextlib
import errno
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transproj import backends, cli, conll_io, pipeline, placeholder
from transproj.conll_io import parse_conll
from transproj.pipeline import project_sentence


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def translate_args(fixture_paths, out_dir, backend="identity", **extra):
    args = [
        "translate",
        "--input-train", str(fixture_paths["train"]),
        "--input-dev", str(fixture_paths["dev"]),
        "--input-test", str(fixture_paths["test"]),
        "--out", str(out_dir),
        "--src", "en",
        "--tgt", "fa",
        "--backend", backend,
    ]
    for flag, value in extra.items():
        args += [f"--{flag}", str(value)]
    return args


def test_translate_identity_reproduces_corpus(fixture_paths, tmp_path, capsys):
    code = cli.main(translate_args(fixture_paths, tmp_path / "out"))
    assert code == 0
    for name, source in fixture_paths.items():
        out_text = read(tmp_path / "out" / f"{name}.conll")
        assert parse_conll(out_text, name) == parse_conll(read(source), name)
    assert read(tmp_path / "out" / "exclusions.jsonl") == ""
    assert "excluded" in capsys.readouterr().out


def test_translate_dict_matches_golden(fixture_paths, data_dir, tmp_path):
    code = cli.main(
        translate_args(fixture_paths, tmp_path / "out", backend=f"dict:{data_dir / 'dict_en_fa.tsv'}")
    )
    assert code == 0
    for name in ("train", "dev", "test"):
        assert read(tmp_path / "out" / f"{name}.conll") == read(data_dir / "golden" / f"{name}.conll")


def test_translate_missing_input_names_path(tmp_path, capsys):
    code = cli.main([
        "translate", "--input-train", str(tmp_path / "nope.conll"),
        "--out", str(tmp_path / "out"), "--src", "en", "--tgt", "fa",
        "--backend", "identity",
    ])
    assert code == 2
    assert "nope.conll" in capsys.readouterr().err


def test_translate_requires_distinct_langs(fixture_paths, tmp_path):
    args = translate_args(fixture_paths, tmp_path / "out")
    args[args.index("--tgt") + 1] = "en"
    assert cli.main(args) == 2


def test_translate_rejects_unknown_backend(fixture_paths, tmp_path):
    assert cli.main(translate_args(fixture_paths, tmp_path / "out", backend="quantum")) == 2


def test_translate_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_text("word\n", encoding="utf-8")
    code = cli.main([
        "translate", "--input-train", str(bad), "--out", str(tmp_path / "out"),
        "--src", "en", "--tgt", "fa", "--backend", "identity",
    ])
    assert code == 3


def test_translate_lenient_backend_failure_excludes_everything(fixture_paths, tmp_path, monkeypatch):
    monkeypatch.setattr("transproj.backends.time.sleep", lambda s: None)
    out = tmp_path / "out"
    code = cli.main(
        translate_args(fixture_paths, out, backend="http:http://127.0.0.1:1/translate")
    )
    assert code == 0
    records = [json.loads(line) for line in read(out / "exclusions.jsonl").splitlines()]
    assert len(records) == 20
    assert {r["reason"] for r in records} == {"backend-failure"}
    assert {r["split"] for r in records} == {"train", "dev", "test"}


def test_a_translation_with_no_utf8_form_excludes_its_sentences(fixture_paths, tmp_path, monkeypatch):
    class AnswersBerlinWithALoneSurrogate(backends.IdentityBackend):
        def translate(self, texts, source_lang, target_lang):
            return [t + "\ud800" if t == "Berlin" else t for t in texts]

    monkeypatch.setattr(cli, "_make_backend", lambda spec: AnswersBerlinWithALoneSurrogate())
    out = tmp_path / "out"
    assert cli.main(translate_args(fixture_paths, out, batch=1)) == 0
    # read() decodes strictly
    assert "Berlin" not in "".join(read(out / f"{name}.conll") for name in ("train", "dev", "test"))
    records = [json.loads(line) for line in read(out / "exclusions.jsonl").splitlines()]
    assert records and {r["reason"] for r in records} == {"backend-failure"}
    assert all(r["detail"].endswith(r"not valid UTF-8: 'Berlin\ud800'") for r in records)


@pytest.mark.parametrize("service", ["503", "nothing-listening"])
def test_backend_failure_text_holds_no_credentials(fixture_paths, tmp_path, monkeypatch, capsys,
                                                   stub_server, service):
    monkeypatch.setattr("transproj.backends.time.sleep", lambda s: None)
    host = "127.0.0.1:1"
    if service == "503":
        host = stub_server(fail_first=10**6).url.split("//")[1].split("/")[0]
    url = f"http://user:pw@{host}/translate?key=s3cret"
    outcome = project_sentence(
        conll_io.TaggedSentence(["dog"], [conll_io.Tag.parse("O")]),
        backends.HttpBackend(url, rate=None, backoff_base=0), "en", "fa",
    )
    code = cli.main(translate_args(fixture_paths, tmp_path / "out", backend=f"http:{url}",
                                   **{"on-backend-error": "strict"}))
    assert outcome.reason == "backend-failure" and code == 4
    err = capsys.readouterr().err
    for text in (outcome.detail, err):
        assert f"http:http://{host}/translate" in text
        assert "s3cret" not in text and "pw@" not in text


def test_report_names_an_http_backend_without_its_credentials(fixture_paths, tmp_path, stub_server):
    host = stub_server().url.split("//")[1].split("/")[0]
    url = f"http://user:pw@{host}/translate?key=s3cret"
    report_path = tmp_path / "report.json"
    code = cli.main(translate_args(fixture_paths, tmp_path / "out", backend=f"http:{url}",
                                   report=report_path))
    assert code == 0
    text = read(report_path)
    assert "pw@" not in text and "s3cret" not in text
    assert json.loads(text)["config"]["backend"] == backends.HttpBackend(url).backend_id


@pytest.mark.parametrize("key", ["sekret\n", "ключ"], ids=["lf", "outside-latin-1"])
def test_an_api_key_that_cannot_be_a_header_value_is_a_config_error(fixture_paths, tmp_path, monkeypatch,
                                                                     capsys, key):
    monkeypatch.setenv("TRANSPROJ_API_KEY", key)
    code = cli.main(translate_args(fixture_paths, tmp_path / "out", backend="http://127.0.0.1:9/translate"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: TRANSPROJ_API_KEY must hold no CR, LF or character outside Latin-1\n"
    assert not (tmp_path / "out").exists()


def test_translate_strict_abort_on_dev_leaves_no_outputs(fixture_paths, tmp_path, monkeypatch):
    from transproj.backends import BackendUnavailable, IdentityBackend

    class FailsOnToyota(IdentityBackend):
        calls = 0

        def translate(self, texts, source_lang, target_lang):
            self.calls += 1
            if "Toyota" in texts:  # an entity only dev holds
                raise BackendUnavailable("wire cut")
            return list(texts)

    backend = FailsOnToyota()
    monkeypatch.setattr(cli, "_make_backend", lambda spec: backend)
    out = tmp_path / "out"
    # train's 22 texts and dev's first two go in six requests of four, and
    # the seventh, holding dev's third text "Toyota", aborts
    code = cli.main(translate_args(fixture_paths, out, batch=4, **{"on-backend-error": "strict"}))
    assert code == 4
    assert backend.calls == 7
    assert list(out.iterdir()) == []


def test_translate_rejects_profiles_without_effect(fixture_paths, tmp_path):
    assert cli.main(translate_args(fixture_paths, tmp_path / "a", profile="wnut")) == 2
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"profile": "wnut"}), encoding="utf-8")
    assert cli.main(translate_args(fixture_paths, tmp_path / "b", config=config_path)) == 2


def test_config_file_defaults_and_flag_override(fixture_paths, data_dir, tmp_path):
    config = {
        "backend": f"dict:{data_dir / 'dict_en_fa.tsv'}",
        "src": "en",
        "tgt": "fa",
        "out": str(tmp_path / "from_config"),
        "input-train": str(fixture_paths["train"]),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    report_path = tmp_path / "report.json"

    # flag overrides the config file's backend; config supplies the rest
    code = cli.main([
        "translate", "--config", str(config_path),
        "--backend", "identity", "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(read(report_path))
    assert report["config"]["backend"] == "identity"
    assert report["config"]["out"] == str(tmp_path / "from_config")
    assert (tmp_path / "from_config" / "train.conll").exists()
    assert report["splits"]["train"]["projected"] == 8


def test_config_file_with_a_byte_order_mark_is_read(fixture_paths, tmp_path):
    config = {"backend": "identity", "src": "en", "tgt": "fa", "out": str(tmp_path / "out"),
              "input-train": str(fixture_paths["train"])}
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8-sig")
    assert cli.main(["translate", "--config", str(config_path)]) == 0
    assert read(tmp_path / "out" / "train.conll") == read(fixture_paths["train"])


def test_config_file_rejects_unknown_keys(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text('{"bakcend": "identity"}', encoding="utf-8")
    assert cli.main(["translate", "--config", str(config_path)]) == 2


@pytest.mark.parametrize("overrides", [
    {"batch": "lots"},
    {"parallel": 0},
    {"on-backend-error": "shrug"},
    {"profile": "iob1"},
    {"backend": 123},
    {"cache": ["x"]},
    {"batch": True},
    {"parallel": 2.7},
    {"profile": True},
    {"report": {}},
    {"input-dev": 7},
])
def test_config_file_rejects_bad_values(fixture_paths, tmp_path, overrides):
    config = {
        "backend": "identity", "src": "en", "tgt": "fa",
        "out": str(tmp_path / "out"), "input-train": str(fixture_paths["train"]),
    }
    config.update(overrides)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["translate", "--config", str(config_path)]) == 2


# every translate setting takes a value, by its flag and config-file key
VALUED_SETTINGS = list(cli.SETTINGS)
FLAG_VALUES = ["x", "0", "-1", "2.7", "shrug", "wnut", "", "1", "7", "lenient", "strict", "generic",
               "conll2003", "en"]


def run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.sampled_from(VALUED_SETTINGS), st.sampled_from(FLAG_VALUES)))
@example(("batch", "x"))
def test_a_flag_and_a_config_file_value_are_checked_alike(tmp_path_factory, setting):
    key, value = setting
    where = tmp_path_factory.mktemp("run")
    # the train input is missing, so a value that passes the checks stops
    # there, with exit 2, before anything is read or written
    base = {"out": str(where / "out"), "src": "en", "tgt": "fa", "backend": "identity",
            "input-train": str(where / "missing.conll")}
    argv = ["translate"]
    for flag, given_value in base.items():
        if flag != key:
            argv += [f"--{flag}", given_value]
    as_flag = [f"--{key}", value]
    config_path = where / "run.json"
    config_path.write_text(json.dumps({key: value}), encoding="utf-8")

    by_flag = run_quietly(argv + as_flag)
    by_config = run_quietly(argv + ["--config", str(config_path)])
    assert by_flag == by_config
    assert by_flag[0] == cli.EXIT_CONFIG


@pytest.mark.parametrize("content,message", [
    (None, "config file not found"),
    ("{not json", "is not valid JSON"),
    ("[" * 100_000, "is not valid JSON"),
    ("[1, 2]", "must hold a flat JSON object"),
], ids=["missing", "not-json", "nested-too-deep", "not-an-object"])
def test_config_file_that_cannot_be_read_is_a_config_error(tmp_path, capsys, content, message):
    config_path = tmp_path / "run.json"
    if content is not None:
        config_path.write_text(content, encoding="utf-8")
    assert cli.main(["translate", "--config", str(config_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert str(config_path) in err


@pytest.mark.parametrize("missing", ["out", "src", "tgt", "backend"])
def test_translate_names_a_missing_required_key(fixture_paths, tmp_path, capsys, missing):
    args = translate_args(fixture_paths, tmp_path / "out")
    at = args.index(f"--{missing}")
    del args[at:at + 2]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert f"--{missing} is required" in capsys.readouterr().err


def test_translate_without_input_is_a_config_error(tmp_path, capsys):
    code = cli.main([
        "translate", "--out", str(tmp_path / "out"), "--src", "en", "--tgt", "fa", "--backend", "identity",
    ])
    assert code == cli.EXIT_CONFIG
    assert "at least one of --input-train/--input-dev/--input-test is required" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["src", "tgt"])
def test_a_language_code_with_no_utf8_form_is_a_config_error(fixture_paths, tmp_path, key):
    # a non-UTF-8 byte in argv decodes to a lone surrogate, as "\udcff" in a
    # config file does; the cache file and the report cannot hold one
    out, cache, report = tmp_path / "out", tmp_path / "memory.jsonl", tmp_path / "report.json"
    args = translate_args(fixture_paths, out, cache=cache, report=report)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({key: "xx\udcff"}), encoding="utf-8")
    at = args.index(f"--{key}")
    by_flag = [*args[:at + 1], b"xx\xff", *args[at + 2:]]
    by_config = [*args[:at], *args[at + 2:], "--config", str(config_path)]
    for given in (by_flag, by_config):
        done = subprocess.run(
            [sys.executable, "-m", "transproj", *given],
            cwd=Path(__file__).resolve().parent.parent, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == cli.EXIT_CONFIG, done.stderr
        assert f"error: --{key} must be valid UTF-8, got 'xx\\udcff'" in done.stderr
        assert not out.exists() and not cache.exists() and not report.exists()


@pytest.mark.parametrize("key", ["report", "out"])
def test_a_setting_the_report_cannot_echo_is_a_config_error(fixture_paths, tmp_path, monkeypatch, capsys, key):
    # the report echoes every setting, so a path with a byte that is not
    # UTF-8 (a lone surrogate once decoded) fails the run before it starts
    sent = []

    class Recording(backends.IdentityBackend):
        def translate(self, texts, source_lang, target_lang):
            sent.extend(texts)
            return list(texts)

    monkeypatch.setattr(cli, "_make_backend", lambda spec: Recording())
    paths = {"out": tmp_path / "out", "cache": tmp_path / "memory.jsonl", "report": tmp_path / "report.json"}
    paths[key] = tmp_path / os.fsdecode(b"x\xff")
    args = translate_args(fixture_paths, paths["out"], cache=paths["cache"], report=paths["report"])
    assert cli.main(args) == cli.EXIT_CONFIG
    assert f"error: --{key} must be valid UTF-8 for --report to echo it" in capsys.readouterr().err
    assert sent == [] and os.listdir(tmp_path) == []
    # without --report, nothing echoes the path
    at = args.index("--report")
    assert cli.main(args[:at] + args[at + 2:]) == cli.EXIT_OK and sent


@pytest.mark.parametrize("spec,message", [
    ("dict", "dict backend needs a path"),
    ("dict:", "dict backend needs a path"),
    ("dict:{missing}", "dictionary file not found: {missing}"),
    ("scramble:seven", "scramble backend needs an integer seed, got 'seven'"),
    ("scramble:", "scramble backend needs an integer seed, got ''"),
], ids=["dict-bare", "dict-empty", "dict-missing-file", "scramble-word", "scramble-empty"])
def test_translate_rejects_a_bad_backend_argument(fixture_paths, tmp_path, capsys, spec, message):
    missing = str(tmp_path / "no-such-dict.tsv")
    code = cli.main(translate_args(fixture_paths, tmp_path / "out", backend=spec.format(missing=missing)))
    assert code == cli.EXIT_CONFIG
    assert message.format(missing=missing) in capsys.readouterr().err


def test_translate_rejects_invalid_utf8_input(tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_bytes(b"word O\n\xff\xfe broken\n")
    code = cli.main([
        "translate", "--input-train", str(bad), "--out", str(tmp_path / "out"),
        "--src", "en", "--tgt", "fa", "--backend", "identity",
    ])
    assert code == 3


def test_a_byte_order_mark_does_not_make_docstart_a_sentence(tmp_path, capsys):
    source = tmp_path / "bom.conll"
    source.write_bytes("\ufeff-DOCSTART- O\n\nJohn B-PER\nleft O\n\n".encode("utf-8"))
    out = tmp_path / "out"
    code = cli.main([
        "translate", "--input-train", str(source), "--out", str(out),
        "--src", "en", "--tgt", "fa", "--backend", "identity",
    ])
    assert code == 0
    assert read(out / "train.conll") == "John B-PER\nleft O\n\n"
    capsys.readouterr()
    assert cli.main(["stats", "--train", str(source), "--name", "en"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["en", "1"]


def test_translate_report_accounting(fixture_paths, tmp_path):
    report_path = tmp_path / "report.json"
    cli.main(translate_args(fixture_paths, tmp_path / "out", report=report_path))
    report = json.loads(read(report_path))
    for name, expected in (("train", 8), ("dev", 6), ("test", 6)):
        counts = report["splits"][name]
        assert counts["projected"] + counts["excluded"] == counts["total"] == expected


@pytest.mark.parametrize("content", [b"dog\tHund\nno tab here\n", b"dog\tH\xffund\n"],
                         ids=["line-without-tab", "not-utf8"])
def test_translate_rejects_malformed_dictionary_file(fixture_paths, tmp_path, capsys, content):
    tsv = tmp_path / "dict.tsv"
    tsv.write_bytes(content)
    code = cli.main(translate_args(fixture_paths, tmp_path / "out", backend=f"dict:{tsv}"))
    assert code == 2
    assert str(tsv) in capsys.readouterr().err


def test_translate_report_counts_backend_calls_texts_and_cache_hits(tmp_path, capsys):
    train = tmp_path / "train.conll"
    train.write_text("John B-PER\nlives O\nin O\nBerlin B-LOC\n", encoding="utf-8")
    dev = tmp_path / "dev.conll"
    dev.write_text("John B-PER\nleft O\n", encoding="utf-8")
    memory = tmp_path / "memory.jsonl"

    def run(name):
        report_path = tmp_path / f"{name}.json"
        code = cli.main([
            "translate", "--input-train", str(train), "--input-dev", str(dev),
            "--out", str(tmp_path / name), "--src", "en", "--tgt", "fa",
            "--backend", "identity", "--cache", str(memory), "--report", str(report_path),
        ])
        assert code == 0
        return json.loads(read(report_path)), capsys.readouterr().out

    # cold: the run's four unique texts, train's template, "John" and
    # "Berlin" and dev's template, go in one call; "John" is looked up once
    report, out = run("cold")
    assert (report["backend_calls"], report["texts_translated"], report["cache_hits"]) == (1, 4, 0)
    assert "backend: 1 calls, 4 texts translated, 0 cache hits" in out
    # warm: every one of the run's four unique texts is a hit
    report, out = run("warm")
    assert (report["backend_calls"], report["texts_translated"], report["cache_hits"]) == (0, 0, 4)
    assert report["cache"] == {"entries_loaded": 4, "corrupt_lines": []}
    assert "backend: 0 calls, 0 texts translated, 4 cache hits" in out
    # a torn last line that is not UTF-8 is skipped, and the memory still serves the run
    with memory.open("ab") as fh:
        fh.write(b'{"backend_id": "\xff')
    report, _ = run("torn")
    assert (report["backend_calls"], report["cache"]) == (0, {"entries_loaded": 4, "corrupt_lines": [5]})


def test_translate_report_shows_loaded_scope_and_every_corrupt_line(fixture_paths, tmp_path, capsys):
    def record(tgt, text):
        return json.dumps({"backend_id": "identity", "source_lang": "en", "target_lang": tgt,
                           "source_text": text, "target_text": text})

    memory = tmp_path / "memory.jsonl"
    memory.write_text("\n".join([
        record("fa", "kept one"),
        record("de", "other one"),
        record("de", "other two"),
        # a record of the en/de scope whose translation is not a string
        record("de", "broken").replace('"target_text": "broken"', '"target_text": 5'),
        record("fa", "kept two"),
        # a line nested too deep for the JSON decoder
        "[" * 100_000,
        record("fa", "kept three"),
    ]) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = cli.main(translate_args(fixture_paths, tmp_path / "out", cache=memory, report=report_path))
    assert code == 0
    report = json.loads(read(report_path))
    assert report["cache"] == {"entries_loaded": 3, "corrupt_lines": [4, 6]}
    assert "cache: 3 entries loaded, 2 corrupt lines skipped" in capsys.readouterr().out


TRANSLATE_IN = ["translate", "--input-train", "in.conll", "--out", "out", "--src", "en", "--tgt", "fa"]


def test_translate_releases_the_cache_when_out_cannot_be_made(fixture_paths, tmp_path, capsys):
    memory = tmp_path / "c.jsonl"
    not_a_dir = tmp_path / "out"
    not_a_dir.write_text("", encoding="utf-8")
    code = cli.main(translate_args(fixture_paths, not_a_dir, cache=memory))
    assert code == 5
    assert "i/o error" in capsys.readouterr().err
    # the cache is opened only once --out is made and locked
    assert not memory.exists()
    # the run closed the file, so its lock is free at once
    backends.TranslationCache(str(memory), ("identity", "en", "fa")).close()


def test_a_cache_inside_an_out_not_yet_made_holds_the_run_s_records(fixture_paths, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copy(fixture_paths["train"], "in.conll")
    code, err = run_quietly(TRANSLATE_IN + ["--backend", "identity", "--cache", "out/memory.jsonl"])
    assert code == 0, err
    records = [json.loads(line) for line in read(tmp_path / "out" / "memory.jsonl").splitlines()]
    assert records and {(r["backend_id"], r["source_lang"], r["target_lang"]) for r in records} == {
        ("identity", "en", "fa")}
    assert read(tmp_path / "out" / "train.conll") == read(fixture_paths["train"])


def test_a_cache_another_run_holds_exits_5_and_leaves_an_existing_out_as_it_was(
        fixture_paths, tmp_path, capsys):
    fcntl = pytest.importorskip("fcntl")
    out, memory = tmp_path / "out", tmp_path / "memory.jsonl"
    out.mkdir()
    (out / "train.conll").write_text("earlier\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    with memory.open("ab") as held:
        fcntl.flock(held.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert cli.main(translate_args(fixture_paths, out, cache=memory)) == cli.EXIT_IO
    assert f"i/o error: another run holds {memory}" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert memory.read_bytes() == b""


@pytest.mark.parametrize("argv, flag", [
    (TRANSLATE_IN + ["--backend", "identity", "--report", "out/train.conll"], "--report"),
    (TRANSLATE_IN + ["--backend", "identity", "--cache", "in.conll"], "--cache"),
    (TRANSLATE_IN + ["--backend", "dict:d.tsv", "--cache", "d.tsv"], "--cache"),
    (TRANSLATE_IN + ["--backend", "identity", "--config", "c.json"], "--cache"),
    (["stats", "--train", "in.conll", "--json", "in.conll"], "--json"),
    (TRANSLATE_IN + ["--backend", "identity", "--cache", "link.conll"], "--cache"),
    (TRANSLATE_IN + ["--backend", "identity", "--cache", "out/exclusions.jsonl"], "--cache"),
    (TRANSLATE_IN + ["--backend", "identity", "--cache", "c.jsonl", "--report", "c.jsonl"], "--report"),
    (["stats", "--train", "in.conll", "--vs-dev", "d.tsv", "--json", "d.tsv"], "--json"),
    (TRANSLATE_IN + ["--backend", "identity", "--report", "out/train.conll.tmp"], "--report"),
    (TRANSLATE_IN + ["--backend", "identity", "--cache", "c.tmp", "--report", "c"], "--report's staging file"),
    (TRANSLATE_IN + ["--backend", "identity", "--cache", "hl.conll"], "--cache"),
    (["stats", "--train", "s.json.tmp", "--json", "s.json"], "--json's staging file"),
], ids=["report-is-an-output", "cache-is-an-input", "cache-is-the-dictionary", "cache-is-the-config",
        "json-is-an-input", "cache-is-an-input-through-a-symlink", "cache-is-an-output",
        "report-is-the-cache", "json-is-a-second-corpus-input", "report-is-an-output-staging-file",
        "report-staging-file-is-the-cache", "cache-is-an-input-through-a-hard-link",
        "json-staging-file-is-an-input"])
def test_an_output_that_names_a_file_the_command_reads_or_writes_is_a_config_error(
        fixture_paths, data_dir, tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    shutil.copy(fixture_paths["train"], "in.conll")
    shutil.copy(data_dir / "dict_en_fa.tsv", "d.tsv")
    Path("c.json").write_text('{"cache": "c.json"}', encoding="utf-8")
    os.symlink("in.conll", "link.conll")
    os.link("in.conll", "hl.conll")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "is the same file as" in err, err
    assert not Path("out").exists()
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("key", ["cache", "out", "input-train"])
def test_a_path_from_a_config_file_that_holds_a_nul_is_a_config_error(
        fixture_paths, tmp_path, monkeypatch, capsys, key):
    """argv cannot carry a NUL character, but a config file can."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(fixture_paths["train"], "in.conll")
    config = {"input-train": "in.conll", "out": "out", "src": "en", "tgt": "fa", "backend": "identity",
              "cache": "c.jsonl", key: "c\x00x"}
    Path("c.json").write_text(json.dumps(config), encoding="utf-8")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    assert cli.main(["translate", "--config", "c.json"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: --{key} must not hold a NUL character\n"
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_an_input_may_still_be_projected_in_place(fixture_paths, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("out")
    shutil.copy(fixture_paths["train"], "out/train.conll")
    argv = ["translate", "--input-train", "out/train.conll", "--out", "out", "--src", "en", "--tgt", "fa",
            "--backend", "scramble:0", "--cache", "c.jsonl", "--report", "r.json"]
    code, err = run_quietly(argv)
    assert code == 0, err
    assert read(tmp_path / "out" / "train.conll") != read(fixture_paths["train"])


def test_translate_over_http_posts_only_what_a_warm_cache_misses(fixture_paths, tmp_path, stub_server):
    stub = stub_server()
    backend_id = f"http:{stub.url}"
    batch = 4
    # the run's unique texts in the order it first meets them
    unique = []
    for name, path in fixture_paths.items():
        for s in conll_io.parse_conll(read(path), name).sentences:
            masked = placeholder.mask(s)
            unique += [masked.template] + [e.surface for e in masked.entities]
    unique = list(dict.fromkeys(unique))
    memory, expected = tmp_path / "c.jsonl", tmp_path / "expected.jsonl"
    scope = (backend_id, "en", "fa")
    with backends.TranslationCache(str(memory), scope) as cache:
        for text in unique[::2]:
            cache.store(text, text)
    expected.write_bytes(memory.read_bytes())

    # what one request per batch of the run's misses adds, the misses in order
    misses = unique[1::2]
    posts = -(-len(misses) // batch)
    with backends.TranslationCache(str(expected), scope) as cache:
        for text in misses:
            cache.store(text, text)

    report_path = tmp_path / "report.json"
    code = cli.main(translate_args(fixture_paths, tmp_path / "out", backend=f"http:{stub.url}",
                                   cache=memory, batch=batch, parallel=1, report=report_path))
    assert code == 0
    assert stub.request_count == json.loads(read(report_path))["backend_calls"] == posts
    assert memory.read_bytes() == expected.read_bytes()
    for name, source in fixture_paths.items():
        assert read(tmp_path / "out" / f"{name}.conll") == read(source)


def test_a_retried_503_costs_one_post_and_no_sentence(fixture_paths, tmp_path, stub_server, monkeypatch):
    monkeypatch.setattr("transproj.backends.time.sleep", lambda s: None)
    stub = stub_server(fail_first=1)
    report_path = tmp_path / "report.json"
    assert cli.main(translate_args(fixture_paths, tmp_path / "out", backend=stub.url, report=report_path)) == 0
    report = json.loads(read(report_path))
    assert stub.request_count == report["backend_calls"] + 1
    assert report["exclusions_by_reason"] == {}


def test_a_strict_http_400_aborts_and_writes_nothing(fixture_paths, tmp_path, stub_server, capsys):
    # at --batch 1 the run needs more requests than the default 5/s bucket holds, so some wait on it
    stub = stub_server(fail_first=10**6, status=400)
    out = tmp_path / "out"
    assert cli.main(translate_args(fixture_paths, out, backend=stub.url, parallel=3, batch=1,
                                   **{"on-backend-error": "strict"})) == 4
    assert "HTTP 400" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_run_into_an_out_another_run_holds_exits_5_and_leaves_it_as_it_was(fixture_paths, tmp_path, capsys):
    fcntl = pytest.importorskip("fcntl")
    out, report = tmp_path / "out", tmp_path / "report.json"
    out.mkdir()
    # what the run holding the lock may have renamed and staged so far
    (out / "train.conll").write_text("earlier\n", encoding="utf-8")
    (out / "train.conll.tmp").write_text("in progress\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    held = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert cli.main(translate_args(fixture_paths, out, report=report)) == cli.EXIT_IO
    finally:
        os.close(held)
    assert f"i/o error: another run is writing to {out}" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert not report.exists()
    # once the lock is let go, a run goes through
    assert cli.main(translate_args(fixture_paths, out, report=report)) == cli.EXIT_OK
    assert sorted(path.name for path in out.iterdir()) == [
        "dev.conll", "exclusions.jsonl", "test.conll", "train.conll"]


@pytest.mark.parametrize("cached", [False, True], ids=["out-lock", "cache-lock"])
def test_a_lock_that_fails_for_another_reason_exits_5_naming_that_error(
        fixture_paths, tmp_path, monkeypatch, capsys, cached):
    """Without flock support, neither the --out lock nor the cache's is reported as held by another run."""
    fcntl = pytest.importorskip("fcntl")

    flock = fcntl.flock

    def no_locks(fd, operation):
        # with a cache, the --out directory still locks, so the cache's lock is the one that fails
        if cached and stat.S_ISDIR(os.fstat(fd).st_mode):
            return flock(fd, operation)
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    monkeypatch.setattr(fcntl, "flock", no_locks)
    extra = {"cache": tmp_path / "cache.jsonl"} if cached else {}
    assert cli.main(translate_args(fixture_paths, tmp_path / "out", **extra)) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert f"i/o error: [Errno {errno.ENOLCK}] {os.strerror(errno.ENOLCK)}" in err
    assert "another run" not in err


def test_a_report_that_cannot_be_written_renames_no_output_into_place(fixture_paths, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(translate_args(fixture_paths, out, report=tmp_path / "missing" / "report.json")) == cli.EXIT_IO
    assert "i/o error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_translate_batch_and_parallel_do_not_change_output(fixture_paths, tmp_path):
    cli.main(translate_args(fixture_paths, tmp_path / "a", backend="scramble:2"))
    cli.main(translate_args(fixture_paths, tmp_path / "b", backend="scramble:2",
                            batch=3, parallel=4))
    for name in ("train", "dev", "test"):
        assert read(tmp_path / "a" / f"{name}.conll") == read(tmp_path / "b" / f"{name}.conll")


def test_cache_file_does_not_depend_on_parallel(fixture_paths, data_dir, tmp_path, monkeypatch):
    translate = backends.DictionaryBackend.translate
    calls = []

    def first_request_returns_last(self, texts, source_lang, target_lang):
        calls.append(texts)
        if len(calls) == 1:
            time.sleep(0.2)
        return translate(self, texts, source_lang, target_lang)

    monkeypatch.setattr(backends.DictionaryBackend, "translate", first_request_returns_last)
    memories = {}
    for parallel in (1, 3):
        calls.clear()
        memories[parallel] = tmp_path / f"cache{parallel}.jsonl"
        assert cli.main(translate_args(fixture_paths, tmp_path / f"out{parallel}",
                                       backend=f"dict:{data_dir / 'dict_en_fa.tsv'}",
                                       cache=memories[parallel], batch=2, parallel=parallel)) == 0
    assert memories[3].read_bytes() == memories[1].read_bytes()


class FailsBerlin(backends.IdentityBackend):
    """Identity, except that every request holding "Berlin" fails whole."""

    def translate(self, texts, source_lang, target_lang):
        if "Berlin" in texts:
            raise backends.BackendUnavailable("Berlin refused")
        return list(texts)


@pytest.mark.parametrize("parallel", [1, 3])
@pytest.mark.parametrize("spec, failing", [("scramble:0", None), ("identity", FailsBerlin)])
def test_streamed_outputs_equal_the_library_projection(fixture_paths, tmp_path, monkeypatch, capsys,
                                                       spec, failing, parallel):
    if failing:
        monkeypatch.setattr(cli, "_make_backend", lambda _: failing())
    out = tmp_path / "out"
    assert cli.main(translate_args(fixture_paths, out, spec, batch=4, parallel=parallel,
                                   report=tmp_path / "report.json")) == 0

    # the same splits as one stream_run, as the CLI runs them
    backend = cli._make_backend(spec)
    expected, records = pipeline.RunReport(), []
    prepared = [pipeline.prepare_split(parse_conll(read(path), name)) for name, path in fixture_paths.items()]
    run = pipeline.stream_run(prepared, backend, "en", "fa", expected, batch=4, parallelism=parallel)
    for name, outcomes in zip(fixture_paths, run):
        outcomes = list(outcomes)
        records += [{"origin_index": o.origin_index, "split": name, "reason": o.reason, "detail": o.detail}
                    for o in outcomes if not o.projected]
        projected = conll_io.DatasetSplit(name, [o.sentence for o in outcomes if o.projected])
        assert read(out / f"{name}.conll") == conll_io.serialize_conll(projected)
    assert read(out / "exclusions.jsonl") == "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    assert (spec == "identity") == bool(records)

    report = json.loads(read(tmp_path / "report.json"))
    assert report.pop("config")["backend"] == spec
    report.pop("duration_seconds")
    assert report == {k: v for k, v in expected.to_dict().items() if k not in ("config", "duration_seconds")}
    without_duration = [line for line in expected.render().splitlines() if not line.startswith("duration:")]
    assert capsys.readouterr().out.splitlines()[:-1] == without_duration


def test_a_projected_sentence_is_let_go_once_its_split_is_written(fixture_paths, tmp_path, monkeypatch):
    finish = pipeline._finish
    train: list[weakref.ref] = []
    alive_at_dev = []

    def watched(origin, labels, translated, index):
        outcome = finish(origin, labels, translated, index)
        if index == 0 and train:  # the identity backend projects every sentence
            alive_at_dev.append([ref() for ref in train if ref() is not None])
        elif not alive_at_dev:
            train.append(weakref.ref(outcome.sentence))
        return outcome

    monkeypatch.setattr(pipeline, "_finish", watched)
    assert cli.main(translate_args(fixture_paths, tmp_path / "out")) == 0
    assert len(train) == len(parse_conll(read(fixture_paths["train"]), "train"))
    assert alive_at_dev and alive_at_dev[0] == []


def test_an_exclusion_is_let_go_once_its_split_is_written(tmp_path, monkeypatch):
    # under the generic profile, an entity that starts with I- is excluded
    inputs = {"train": "Alice I-PER\n\nBob B-PER\n\n", "dev": "Carol B-PER\n\n"}
    args = ["translate", "--out", str(tmp_path / "out"), "--src", "en", "--tgt", "fa", "--backend", "identity"]
    for name, text in inputs.items():
        (tmp_path / f"{name}.conll").write_text(text, encoding="utf-8")
        args += [f"--input-{name}", str(tmp_path / f"{name}.conll")]
    finish = pipeline._finish
    at_dev = []

    def watched(origin, labels, translated, index):
        if translated == ["[*0*]", "Carol"]:  # the identity backend's translation of the dev sentence
            at_dev.append(read(tmp_path / "out" / "exclusions.jsonl.tmp"))
        return finish(origin, labels, translated, index)

    monkeypatch.setattr(pipeline, "_finish", watched)
    assert cli.main(args) == 0
    records = [json.loads(line) for line in read(tmp_path / "out" / "exclusions.jsonl").splitlines()]
    assert [(r["split"], r["reason"]) for r in records] == [("train", "invalid-scheme")]
    assert at_dev == [read(tmp_path / "out" / "exclusions.jsonl")]


def test_normalize_profile_conll2003(tmp_path):
    # IOB1 input: sentence-initial I- tags start entities
    source = tmp_path / "iob1.conll"
    source.write_text("Alice I-PER\nBob I-PER\n\n", encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main([
        "translate", "--input-train", str(source), "--out", str(out),
        "--src", "en", "--tgt", "fa", "--backend", "identity",
        "--profile", "conll2003",
    ])
    assert code == 0
    assert read(out / "train.conll") == "Alice B-PER\nBob I-PER\n\n"


def test_profile_is_the_only_iob1_switch(tmp_path):
    source = tmp_path / "iob1.conll"
    source.write_text("Alice I-PER\n\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["translate", "--input-train", str(source), "--out", str(out),
            "--src", "en", "--tgt", "fa", "--backend", "identity"]
    config_path = tmp_path / "run.json"
    config_path.write_text('{"normalize-iob1": true}', encoding="utf-8")
    for extra in (["--normalize-iob1"], ["--no-normalize-iob1"], ["--config", str(config_path)]):
        assert cli.main(args + extra) == cli.EXIT_CONFIG
    assert not out.exists()

    assert cli.main(args + ["--profile", "generic"]) == 0
    # read as given: invalid IOB2, excluded rather than rewritten
    assert read(out / "train.conll") == ""
    records = [json.loads(line) for line in read(out / "exclusions.jsonl").splitlines()]
    assert [r["reason"] for r in records] == ["invalid-scheme"]


# --- stats ------------------------------------------------------------------


def test_stats_single_corpus(fixture_paths, capsys):
    code = cli.main([
        "stats", "--train", str(fixture_paths["train"]),
        "--dev", str(fixture_paths["dev"]), "--test", str(fixture_paths["test"]),
        "--name", "en",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["dataset", "train", "dev", "test", "avg"]
    assert lines[1].split() == ["en", "8", "6", "6", "4"]


def test_stats_json_report(fixture_paths, tmp_path):
    json_path = tmp_path / "stats.json"
    code = cli.main([
        "stats", "--train", str(fixture_paths["train"]), "--name", "en",
        "--json", str(json_path),
    ])
    assert code == 0
    doc = json.loads(read(json_path))
    train = doc["corpora"][0]["splits"]["train"]
    assert train["sentences"] == 8
    assert train["tokens"] == 33
    assert train["avg_tokens"] == "4.13"
    assert train["avg_tokens_rounded"] == 4
    assert train["labels"] == {"LOC": 4, "MISC": 2, "ORG": 3, "PER": 5}


def test_a_stats_json_write_that_fails_partway_leaves_the_previous_file_whole(fixture_paths, tmp_path,
                                                                             monkeypatch, capsys):
    json_path = tmp_path / "stats.json"
    assert cli.main(["stats", "--train", str(fixture_paths["train"]), "--json", str(json_path)]) == 0
    before = json_path.read_bytes()

    def fails_partway(doc, fh, **kwargs):
        fh.write('{"corpora": [')
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli.json, "dump", fails_partway)
    assert cli.main(["stats", "--train", str(fixture_paths["dev"]), "--json", str(json_path)]) == cli.EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert json_path.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["stats.json"]


def test_stats_compares_two_corpora(tmp_path, capsys):
    def corpus(name, *lengths):
        path = tmp_path / f"{name}.conll"
        path.write_text("".join("P B-PER\n" + "w O\n" * (n - 1) + "\n" for n in lengths), encoding="utf-8")
        return str(path)

    json_path = tmp_path / "stats.json"
    code = cli.main([
        "stats", "--train", corpus("en_train", 1, 2, 3), "--dev", corpus("en_dev", 1, 1), "--name", "en",
        "--vs-train", corpus("fa_train", 4, 5), "--vs-test", corpus("fa_test", 2), "--vs-name", "fa",
        "--json", str(json_path),
    ])
    assert code == 0
    # overall: en 8 tokens / 5 sentences = 1.6 -> 2, fa 11 / 3 = 3.67 -> 4
    assert capsys.readouterr().out == (
        "dataset  train  dev  test  avg\n"
        "en       3      2    -     2\n"
        "fa       2      -    1     4\n"
        "Δ fa-en  -1     -    -     2\n"
    )
    doc = json.loads(read(json_path))
    assert [c["name"] for c in doc["corpora"]] == ["en", "fa"]
    assert list(doc["corpora"][1]["splits"]) == ["train", "test"]
    assert doc["corpora"][0]["overall"] == {
        "split": "overall", "sentences": 5, "tokens": 8, "avg_tokens": "1.60",
        "avg_tokens_rounded": 2, "labels": {"PER": 5},
    }
    assert doc["corpora"][1]["overall"]["avg_tokens"] == "3.67"
    # train only: dev and test are each in one corpus; avg 9/2 = 4.5 -> 5 against 6/3 = 2
    assert doc["deltas"] == {"train": {"split": "train", "sentences": -1, "avg_tokens_rounded": 3}}


def test_stats_json_overall_delta_equals_the_delta_rows_avg(tmp_path, capsys):
    def corpus(name, *lengths):
        path = tmp_path / f"{name}.conll"
        path.write_text("".join("P B-PER\n" + "w O\n" * (n - 1) + "\n" for n in lengths), encoding="utf-8")
        return str(path)

    json_path = tmp_path / "stats.json"
    code = cli.main([
        "stats", "--train", corpus("en_train", 1, 2, 3), "--dev", corpus("en_dev", 1), "--name", "en",
        "--vs-train", corpus("fa_train", 4, 5), "--vs-test", corpus("fa_test", 2), "--vs-name", "fa",
        "--json", str(json_path),
    ])
    assert code == 0
    delta_row = capsys.readouterr().out.splitlines()[-1].split()
    assert delta_row[:2] == ["Δ", "fa-en"]
    doc = json.loads(read(json_path))
    # overall: en 7 tokens / 4 sentences = 1.75 -> 2, fa 11 / 3 = 3.67 -> 4
    assert doc["overall_delta"] == {"split": "overall", "sentences": -1, "avg_tokens_rounded": 2}
    assert str(doc["overall_delta"]["avg_tokens_rounded"]) == delta_row[-1]
    # the shared train split alone moves by 3, so the overall value is not a split's
    assert doc["deltas"]["train"]["avg_tokens_rounded"] == 3


def test_stats_requires_input():
    assert cli.main(["stats", "--name", "en"]) == 2


# --- validate ------------------------------------------------------------------


def test_python_m_transproj_runs_the_cli():
    commands = [[sys.executable, "-m", "transproj"]]
    if script := shutil.which("transproj"):  # the console script, where one is installed
        commands.append([script])
    for command in commands:
        done = subprocess.run(
            [*command, "validate", "tests/data/fixture_train.conll"],
            cwd=Path(__file__).resolve().parent.parent, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, (command, done.stderr)


def test_importing_the_cli_does_not_import_requests():
    # only an HTTP backend needs requests; every other run skips its import cost
    done = subprocess.run(
        [sys.executable, "-c", "import sys, transproj.cli; print('requests' in sys.modules)"],
        cwd=Path(__file__).resolve().parent.parent, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_validate_clean_corpus(fixture_paths):
    assert cli.main(["validate", str(fixture_paths["train"])]) == 0


def test_validate_reports_orphan_inside_tag(tmp_path, capsys):
    path = tmp_path / "bad.conll"
    path.write_text("ok O\nbad I-LOC\n\n", encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:2:" in out
    assert "1 violation(s)" in out


def test_validate_ragged_line_is_parse_error(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("ok O\nragged\n", encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 3


def test_validate_missing_file(tmp_path):
    assert cli.main(["validate", str(tmp_path / "none.conll")]) == 2


def test_validate_invalid_utf8_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.conll"
    path.write_bytes(b"word O\n\xff\xfe broken O\n")
    assert cli.main(["validate", str(path)]) == 3
    assert f"parse error: {path}: not valid UTF-8 (" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "http:{host}/translate",
    "http:",
    "http:ftp://{host}/translate",
    "http:http://[{host}/translate",
])
def test_translate_rejects_http_backend_without_full_url(fixture_paths, tmp_path, stub_server, spec):
    server = stub_server()
    host = server.url.removeprefix("http://").removesuffix("/translate")
    code = cli.main(translate_args(fixture_paths, tmp_path / "out", backend=spec.format(host=host)))
    assert code == 2
    assert server.request_count == 0


def test_conll2003_translate_builds_each_sentence_at_most_twice(fixture_paths, tmp_path, monkeypatch):
    # once when it is parsed, and once when unmask builds its projection
    sources = sum(len(parse_conll(read(path), name)) for name, path in fixture_paths.items())
    post_init = conll_io.TaggedSentence.__post_init__
    built = 0

    def counting_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(conll_io.TaggedSentence, "__post_init__", counting_post_init)
    assert cli.main(translate_args(fixture_paths, tmp_path / "out", profile="conll2003")) == 0
    assert sources < built <= 2 * sources


def test_translate_duration_is_wall_time(fixture_paths, tmp_path, monkeypatch):
    parse = conll_io.parse_conll

    def slow_parse(text, name="other"):
        time.sleep(0.1)
        return parse(text, name)

    monkeypatch.setattr(conll_io, "parse_conll", slow_parse)
    report_path = tmp_path / "report.json"
    assert cli.main(translate_args(fixture_paths, tmp_path / "out", report=report_path)) == 0
    assert json.loads(read(report_path))["duration_seconds"] >= 0.3
