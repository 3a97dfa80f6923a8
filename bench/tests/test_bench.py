"""Self-tests of the benchmark: run with ``python3 -m pytest bench/tests -q``."""

from __future__ import annotations

import json
import os
import random
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import corpus as C  # noqa: E402
import run as R  # noqa: E402
import worker as W  # noqa: E402
from stub_service import Stub  # noqa: E402
from tracing import Tracer  # noqa: E402


def _files(root: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(R.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    run_a = R.generate(workload, 7, str(a))
    run_b = R.generate(workload, 7, str(b))
    R.generate(workload, 8, str(c))
    files_a = _files(str(a))
    assert files_a == _files(str(b))
    assert files_a != _files(str(c))
    assert run_a["reference"] == run_b["reference"]
    assert run_a.get("plan", []) == [[arg.replace(str(b), str(a)) for arg in argv]
                                     for argv in run_b.get("plan", [])]


def test_corpus_shape():
    rng = random.Random(3)
    lex = C.build_lexicon(rng)
    corpus = C.make_corpus(rng, lex, C.scaled(C.CONLL2003_SIZES, 0.1))
    sizes = corpus.sizes()
    assert 0.08 < sizes["entity_token_share"] < 0.14
    assert 11 < sizes["tokens"] / sizes["sentences"] < 18
    collisions = [s for sents in corpus.splits.values() for s in sents if s.collision]
    assert len(collisions) == sum(max(1, round(C.COLLISION_SHARE * len(s)))
                                  for s in corpus.splits.values())
    text = C.conll_text(rng, lex, corpus.splits["dev"])
    assert text.startswith("-DOCSTART- -X- -X- O\n\n")
    assert all(len(line.split()) == 4 for line in text.splitlines() if line)


def test_seed_only_shuffles_sentence_lengths_and_name_starts():
    a, b = (C._layout(random.Random(seed), 500) for seed in (1, 2))
    assert a != b

    def shape(layout):
        return sorted(-1 if s is None else len(s) for s in layout), sum(sum(s) for s in layout if s)

    assert shape(a) == shape(b)


def _small_run(tmp_path, seed: int = 5):
    rng = random.Random(seed)
    lex = C.build_lexicon(rng, n_words=800, n_names=300)
    corpus = C.make_corpus(rng, lex, {"train": 300, "dev": 80, "test": 80})
    dict_path = str(tmp_path / "dict.tsv")
    C.write_dictionary(dict_path, lex.dictionary)
    inputs = {}
    for split, sentences in corpus.splits.items():
        inputs[split] = str(tmp_path / f"{split}.conll")
        with open(inputs[split], "w", encoding="utf-8") as fh:
            fh.write(C.conll_text(rng, lex, sentences))
    out = str(tmp_path / "out")
    from transproj import cli

    assert cli.main(R._translate_argv(inputs, out, dict_path, "fa", None)) == 0
    return out, C.reference(corpus, lex.dictionary)


def test_reference_check_accepts_program_output(tmp_path):
    out, ref = _small_run(tmp_path)
    assert ref.exclusions, "the corpus should carry pattern collisions"
    assert C.check_outputs(out, ref, allow_backend_failure=False) == 0


def _rewrite(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))


def test_reference_check_rejects_corrupted_conll(tmp_path):
    out, ref = _small_run(tmp_path)
    path = os.path.join(out, "dev.conll")

    def swap_first_tag(text):
        lines = text.split("\n")
        i = next(i for i, line in enumerate(lines) if line.endswith(" O"))
        lines[i] = lines[i][:-1] + "B-PER"
        return "\n".join(lines)

    _rewrite(path, swap_first_tag)
    with pytest.raises(C.CheckFailed, match="dev.conll"):
        C.check_outputs(out, ref, allow_backend_failure=False)


def test_reference_check_rejects_changed_exclusions(tmp_path):
    out, ref = _small_run(tmp_path)
    path = os.path.join(out, "exclusions.jsonl")
    _rewrite(path, lambda text: "".join(text.splitlines(keepends=True)[1:]))
    with pytest.raises(C.CheckFailed, match="exclusions differ"):
        C.check_outputs(out, ref, allow_backend_failure=False)


def test_backend_failure_is_allowed_only_when_the_sentence_is_missing(tmp_path):
    out, ref = _small_run(tmp_path)
    victim = next(i for i, b in enumerate(ref.blocks["test"]) if b is not None)
    record = {"origin_index": victim, "split": "test", "reason": C.REASON_BACKEND_FAILURE,
              "detail": "HTTP 429"}
    _rewrite(os.path.join(out, "exclusions.jsonl"), lambda t: t + json.dumps(record) + "\n")
    with pytest.raises(C.CheckFailed, match="unexpected backend-failure"):
        C.check_outputs(out, ref, allow_backend_failure=False)
    with pytest.raises(C.CheckFailed, match="test.conll"):
        C.check_outputs(out, ref, allow_backend_failure=True)
    _rewrite(os.path.join(out, "test.conll"), lambda t: t.replace(ref.blocks["test"][victim], "", 1))
    assert C.check_outputs(out, ref, allow_backend_failure=True) == 1


def _worker_result(tmp_path, argv: list[str]) -> dict:
    spec = {"workload": "conll_dict", "workdir": str(tmp_path), "seconds": 0, "min_iterations": 1,
            "trace": False, "inputs": {}, "argv": argv, "process": 0, "spawned": 0.0,
            "result": str(tmp_path / "worker.json"), "spans": str(tmp_path / "spans.jsonl")}
    W.run(spec)
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def test_program_failures_and_wrong_outputs_are_counted_apart(tmp_path):
    out, ref = _small_run(tmp_path)
    run = {"reference": ref, "sizes": {"tokens": 1000}}
    argv = R._translate_argv({"train": str(tmp_path / "missing.conll")}, "{out}",
                             str(tmp_path / "dict.tsv"), "fa", None)
    failing = _worker_result(tmp_path / "w", argv)["iterations"]
    assert len(failing) == 1 and failing[0]["error"]
    finished = {"out_dir": out, "elapsed_s": 0.5, "traced": False,
                "counts": {"backend_calls": 3, "backend_chars": 40}}
    metrics, _, wrong = R.summarize("conll_dict", {"iterations": failing + [finished], "setups": [0.1],
                                                   "peak_rss_mb": [50.0]}, run, False)
    assert wrong == [] and metrics["tokens_per_s"] == 2000 and metrics["kept_share"] == 1
    _rewrite(os.path.join(out, "dev.conll"), lambda t: t.replace(" O\n", " B-LOC\n", 1))
    metrics, _, wrong = R.summarize("conll_dict", {"iterations": failing + [finished], "setups": [0.1],
                                                   "peak_rss_mb": [50.0]}, run, False)
    assert metrics == {} and len(wrong) == 1 and "dev.conll" in wrong[0]


def test_stub_faults_follow_content_and_attempt():
    faults = {"flaky": {"status": 503, "attempts": 1}, "busy": {"status": 429, "attempts": 2},
              "bad": {"status": 400}}
    stub = Stub({"a": "x"}, faults)

    def ask(*texts):
        return stub.answer({"texts": list(texts), "source": "en", "target": "fa"})[0]

    assert ask("a b") == 200
    assert [ask("a flaky"), ask("a flaky")] == [503, 200]
    assert [ask("busy"), ask("busy"), ask("busy")] == [429, 429, 200]
    assert [ask("bad flaky busy"), ask("bad flaky busy"), ask("bad flaky busy")] == [400] * 3
    assert stub.answer({"texts": ["a [*0*] c"], "source": "en", "target": "fa"}) == (
        200, {"translations": ["x [*0*] c"]})
    stats = stub.stats()
    assert stats["posts"] == 10 and stats["retried"] == 5
    assert stats["statuses"] == {"200": 4, "400": 3, "429": 2, "503": 1}


def test_tracer_reports_missing_targets_and_restores_originals():
    from transproj import backends, cli, conll_io, pipeline, placeholder, spans
    import requests

    partial_pipeline = types.SimpleNamespace(project_split=pipeline.project_split)
    modules = types.SimpleNamespace(backends=backends, cli=cli, conll_io=conll_io,
                                    pipeline=partial_pipeline, placeholder=placeholder, spans=spans,
                                    requests=requests)
    original = conll_io.parse_conll
    tracer = Tracer(modules)
    tracer.install()
    try:
        assert conll_io.parse_conll is not original
        tracer.span("cli.main", conll_io.parse_conll, "a O\n\n", "x")
        backends.DictionaryBackend({"a": "x"}).translate(["a [*0*]"], "en", "fa")
    finally:
        tracer.uninstall()
    assert conll_io.parse_conll is original
    assert backends.find_placeholders is placeholder.find_placeholders
    assert "pipeline.validate_scheme" in tracer.missing
    assert "pipeline.translate_batch" in tracer.missing
    summary = tracer.summary(0)
    assert summary["conll_io.parse"]["calls"] == 1
    # the dictionary backend's own scan counts, inside the backend span
    assert summary["placeholder.scan"]["calls"] == 1
    assert summary["backends.backend"]["self_s"] < summary["backends.backend"]["total_s"]
    assert summary["cli.main"]["self_s"] < summary["cli.main"]["total_s"]


def test_declared_metrics_match_what_the_run_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == R.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == R.PER_LAYER_UNITS
    assert {w["name"] for w in declared["workloads"]} == set(R.WORKLOADS)
