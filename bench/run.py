"""Benchmark of transproj: seeded synthetic corpora through the public entry points.

    python3 bench/run.py --workload conll_dict --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root; ``--workload all`` runs every workload in
turn. One run generates its inputs from ``--seed`` under
``.bench_work/<workload>/``, starts four fresh run processes
(``bench/worker.py``) one after another, each repeating the workload for a
quarter of ``--seconds``, checks every output they wrote against a
reference computed without transproj, and prints each metric as
``name value unit``, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (all closed loops from one process: the next batch is sent when
one completes, at most ``parallelism`` batches in flight):

- ``conll_dict``: CLI ``translate`` over three CoNLL-2003-shaped splits with
  a dictionary backend, ``--profile conll2003`` (IOB1 normalization on), no
  cache file, ``--parallel 1``. No file cache and no network, so the CPU
  path through ``conll_io``, ``placeholder`` and ``pipeline`` does the work.
- ``tm_mixed``: CLI ``translate --cache`` over dev- and test-shaped splits,
  against a warm translation memory the program built itself in untimed
  preparation (half of these sentences, plus a filler corpus in other
  target languages). Every iteration starts from that memory as built, so
  about half of the texts hit and the rest are appended: the file cache does
  most of the work.
- ``http_faults``: per split ``parse_conll``, ``normalize_iob1_to_iob2``,
  ``project_split(..., HttpBackend(url, rate=None), parallelism=2)`` and
  ``serialize_conll`` against a loopback stub service in its own process,
  with fixed latency and a content-keyed fault schedule (transient 503s,
  429s, one text always rejected). Waiting on the service dominates.

With ``--trace 0`` the metrics are end to end: ``setup_s`` (median over the
run processes of the time from process start until ``transproj.cli`` is
imported), ``tokens_per_s`` (source tokens over the time from the first
call into the program until every output file is written, median over
iterations), ``peak_rss_mb`` (median over the run processes of their peak),
``kept_share`` (one minus the share of sentences excluded with
``backend-failure``), and ``backend_requests`` / ``backend_chars`` (requests
and characters of text the translation backend received: POSTs to the stub,
retries included, or calls into an in-process ``Backend.translate``).

With ``--trace 1`` the run alternates untraced and traced iterations and
prints per-layer metrics ``<module>.<metric>`` from the traced ones (medians),
plus ``trace.overhead_share``: one minus traced over untraced tokens/s.

``attempted`` counts workload iterations (whole projection jobs) and
``failed`` those in which transproj raised or exited non-zero; ``correct`` is
false when the output of a finished iteration differs from the reference or
no iteration finished, and the run then exits with 1, as it does when an
iteration failed. Metrics come
from the iterations that finished correctly. Sentences lost to the backend
are in ``kept_share``. The run also writes ``.bench_work/<workload>/record.json``
(seed, Python version, git SHA, CPU count, input sizes, cache hit share) and,
when traced, ``spans-<process>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus as C  # noqa: E402
from stub_service import FAULTS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
# Run processes per run, one after another, each measuring for an equal share
# of --seconds: the median over processes smooths out what differs between
# processes (hash seeds, memory layout), and each one is a set-up sample.
RUN_PROCESSES = 4
MIN_ITERATIONS = 2  # per run process, so that a traced run has traced iterations
DEADLINE_S = 170  # one workload's children all end within this


WORKLOADS = {
    # sentence counts as a share of CoNLL-2003's, chosen so one iteration
    # takes about a second of CPU; http_faults waits about four seconds, and
    # is large enough that its request and lost-sentence counts vary by a few
    # percent at most between seeds
    "conll_dict": {"scale": 0.2, "splits": ("train", "dev", "test")},
    "tm_mixed": {"scale": 0.4, "splits": ("dev", "test"), "filler": 12000,
                 "filler_targets": ("x1", "x2", "x3")},
    "http_faults": {"scale": 0.1, "splits": ("train", "dev", "test")},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
    "kept_share": "ratio",
    "backend_requests": "count",
    "backend_chars": "count",
}

PER_LAYER_UNITS = {
    "conll_io.parse_s": "s",
    "conll_io.normalize_s": "s",
    "conll_io.serialize_s": "s",
    "conll_io.validate_s": "s",
    "conll_io.validate_calls": "count",
    "spans.extract_s": "s",
    "placeholder.mask_s": "s",
    "placeholder.count_check_s": "s",
    "placeholder.unmask_s": "s",
    "placeholder.scan_calls": "count",
    "pipeline.self_s": "s",
    "pipeline.batches": "count",
    "pipeline.unique_share": "ratio",
    "backends.translate_batch_s": "s",
    "backends.backend_s": "s",
    "backends.cache_load_s": "s",
    "backends.cache_lookup_s": "s",
    "backends.cache_store_s": "s",
    "backends.cache_hits": "count",
    "backends.cache_misses": "count",
    "backends.cache_hit_share": "ratio",
    "backends.http_posts": "count",
    "backends.http_post_ms_p50": "ms",
    "backends.http_post_ms_p99": "ms",
    "backends.http_5xx": "count",
    "backends.http_429": "count",
    "backends.http_retries": "count",
    "cli.self_s": "s",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "process.cpu_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    pass


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _translate_argv(inputs: dict[str, str], out: str, dict_path: str, tgt: str,
                    cache: str | None) -> list[str]:
    argv = ["translate"]
    for split, path in inputs.items():
        argv += [f"--input-{split}", path]
    argv += ["--out", out, "--src", "en", "--tgt", tgt, "--backend", f"dict:{dict_path}",
             "--profile", "conll2003", "--parallel", "1"]
    if cache:
        argv += ["--cache", cache]
    return argv


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's inputs under ``workdir``; return what the run needs."""
    cfg = WORKLOADS[workload]
    rng = random.Random(seed)
    lex = C.build_lexicon(rng)
    sizes = {s: n for s, n in C.scaled(C.CONLL2003_SIZES, cfg["scale"]).items() if s in cfg["splits"]}
    corpus = C.make_corpus(rng, lex, sizes)
    if workload == "http_faults":
        C.plant_words(rng, corpus.splits["train"], list(FAULTS))
    dict_path = os.path.join(workdir, "dict.tsv")
    C.write_dictionary(dict_path, lex.dictionary)
    inputs = {}
    for split, sentences in corpus.splits.items():
        inputs[split] = os.path.join(workdir, f"{split}.conll")
        _write(inputs[split], C.conll_text(rng, lex, sentences))
    run = {"corpus": corpus, "reference": C.reference(corpus, lex.dictionary), "inputs": inputs,
           "dict": dict_path, "sizes": corpus.sizes()}
    if workload == "tm_mixed":
        run["plan"] = _memory_plan(rng, lex, corpus, workdir, dict_path)
        run["memory"] = os.path.join(workdir, "memory.jsonl")
    return run


def _memory_plan(rng, lex, corpus, workdir: str, dict_path: str) -> list[list[str]]:
    """CLI runs that build the warm translation memory: every other sentence
    of the measured splits, taken in order of length so that both halves have
    the same lengths whatever the seed, into the measured target; then a
    filler corpus into other targets."""
    cfg = WORKLOADS["tm_mixed"]
    memory = os.path.join(workdir, "memory.jsonl")
    half = {}
    for split, sentences in corpus.splits.items():
        by_length = sorted(range(len(sentences)), key=lambda i: len(sentences[i].tokens))
        half[split] = os.path.join(workdir, f"half-{split}.conll")
        _write(half[split], C.conll_text(rng, lex, [sentences[i] for i in sorted(by_length[::2])]))
    filler = os.path.join(workdir, "filler.conll")
    _write(filler, C.conll_text(rng, lex, C.filler_corpus(rng, lex, cfg["filler"]).splits["train"]))
    scratch = os.path.join(workdir, "prepare-out")
    plan = [_translate_argv(half, scratch, dict_path, "fa", memory)]
    for tgt in cfg["filler_targets"]:
        plan.append(_translate_argv({"train": filler}, scratch, dict_path, tgt, memory))
    return plan


def _run_child(args: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    left = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, WORKER, *args], timeout=left, check=False, **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return proc


class StubService:
    """The loopback stub in its own process, stopped and waited for on exit."""

    def __init__(self, dict_path: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub_service.py"), "--dict", dict_path],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise BenchError("stub service did not start")
        self.url = f"http://127.0.0.1:{line.strip()}"

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def measure(workload: str, seconds: float, trace: bool, workdir: str, run: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if "plan" in run:
        plan_path = os.path.join(workdir, "plan.json")
        _write(plan_path, json.dumps(run["plan"]))
        _run_child(["prepare", plan_path], deadline, stdout=subprocess.DEVNULL)
    spec = {
        "workload": workload,
        "workdir": workdir,
        "seconds": seconds / RUN_PROCESSES,
        "min_iterations": MIN_ITERATIONS,
        "trace": trace,
        "inputs": run["inputs"],
    }
    if workload == "tm_mixed":
        spec["memory"] = run["memory"]
        spec["memory_copy"] = os.path.join(workdir, "memory-run.jsonl")
        spec["argv"] = _translate_argv(run["inputs"], "{out}", run["dict"], "fa", spec["memory_copy"])
    elif workload == "conll_dict":
        spec["argv"] = _translate_argv(run["inputs"], "{out}", run["dict"], "fa", None)
    spec_path = os.path.join(workdir, "spec.json")

    def run_processes() -> list[dict]:
        results = []
        for k in range(RUN_PROCESSES):
            spec.update(process=k, result=os.path.join(workdir, f"worker-{k}.json"),
                        spans=os.path.join(workdir, f"spans-{k}.jsonl"), spawned=time.monotonic())
            _write(spec_path, json.dumps(spec))
            _run_child(["run", spec_path], deadline, stdout=subprocess.DEVNULL)
            with open(spec["result"], encoding="utf-8") as fh:
                results.append(json.load(fh))
        return results

    if workload == "http_faults":
        with StubService(run["dict"]) as stub:
            spec["url"] = stub.url
            results = run_processes()
    else:
        results = run_processes()
    return {
        "setups": [r["setup_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "iterations": [it for r in results for it in r["iterations"]],
        "missing": sorted({name for r in results for name in r["missing"]}),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(workload: str, result: dict, run: dict, trace: bool) -> tuple[dict, dict, list[str]]:
    """Check the output of every iteration that finished and derive the
    metrics from those that match the reference; also return how the others
    differ from it."""
    ref = run["reference"]
    tokens = run["sizes"]["tokens"]
    attempted_sentences = ref.sentences()
    untraced, traced, wrong = [], [], []
    for it in result["iterations"]:
        if "error" in it:
            continue
        try:
            failed = C.check_outputs(it["out_dir"], ref, allow_backend_failure=(workload == "http_faults"))
        except C.CheckFailed as exc:
            wrong.append(str(exc))
            continue
        it["kept_share"] = 1 - failed / attempted_sentences
        it["tokens_per_s"] = tokens / it["elapsed_s"]
        (traced if it["traced"] else untraced).append(it)
    if not untraced:
        return {}, {}, wrong
    if workload == "http_faults":
        requests = [it["service"]["posts"] for it in untraced]
        chars = [it["service"]["chars"] for it in untraced]
    else:
        requests = [it["counts"]["backend_calls"] for it in untraced]
        chars = [it["counts"]["backend_chars"] for it in untraced]
    metrics = {
        "setup_s": _median(result["setups"]),
        "tokens_per_s": _median([it["tokens_per_s"] for it in untraced]),
        "peak_rss_mb": _median(result["peak_rss_mb"]),
        "kept_share": _median([it["kept_share"] for it in untraced]),
        "backend_requests": _median(requests),
        "backend_chars": _median(chars),
    }
    layers = {}
    if trace and traced:
        names = traced[0]["layers"].keys()
        layers = {name: _median([it["layers"][name] for it in traced]) for name in names}
        layers["trace.overhead_share"] = 1 - (_median([it["tokens_per_s"] for it in traced])
                                              / metrics["tokens_per_s"])
        layers["trace.spans"] = _median([it["spans"] for it in traced])
    return metrics, layers, wrong


def _git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True,
                          check=False)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="seconds measured, shared by the run processes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the worker and the stub are stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "transproj", "cli.py")):
        print("error: src/transproj not found; run from the repository root", file=sys.stderr)
        return 2
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        args.workload = workload
        status = max(status, run_workload(args, root))
    return status


def run_workload(args, root: str) -> int:
    workdir = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    run = generate(args.workload, args.seed, workdir)
    try:
        result = measure(args.workload, args.seconds, bool(args.trace), workdir, run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    metrics, layers, wrong = summarize(args.workload, result, run, bool(args.trace))
    errors = [it["error"] for it in result["iterations"] if "error" in it]
    for what, messages in (("transproj failed", errors), ("reference check failed", wrong)):
        if messages:
            print(f"{what} in {len(messages)} iterations, first: {messages[0]}", file=sys.stderr)
    # nothing was checked when no iteration finished
    correct = bool(metrics) and not wrong

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "input": dict(run["sizes"], memory_entries=_count_lines(run.get("memory"))),
        "iterations": [{"elapsed_s": it["elapsed_s"], "cpu_s": it["cpu_s"], "traced": it["traced"]}
                       for it in result["iterations"]],
        "cache_hit_share": _cache_hit_share(result),
        "missing_wrap_targets": result["missing"],
        "end_to_end": metrics,
        "per_layer": layers,
    }
    # keep the record and the spans, drop the bulky inputs and outputs
    for name in os.listdir(workdir):
        if not name.startswith("spans-"):
            path = os.path.join(workdir, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    _write(os.path.join(workdir, "record.json"), json.dumps(record, indent=2) + "\n")

    shown = layers if args.trace else metrics
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if shown and shown.keys() != units.keys():
        print(f"error: metrics {sorted(shown.keys() ^ units.keys())} out of step with the "
              "declared units", file=sys.stderr)
        return 1
    failed_share = 1 - metrics["kept_share"] if metrics else None
    print(f"# {args.workload} seed={args.seed} iterations={len(result['iterations'])} "
          f"input={record['input']} cache_hit_share={record['cache_hit_share']} "
          f"failed_share={failed_share}")
    if result["missing"]:
        print(f"# missing wrap targets: {', '.join(result['missing'])}")
    for name, value in shown.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(result["iterations"]),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0 if correct and not errors else 1


def _count_lines(path: str | None) -> int:
    if not path or not os.path.exists(path):
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _cache_hit_share(result: dict) -> float | None:
    """Share of texts requested through translate_batch that never reached
    the backend (file cache or in-run memo hits), over all iterations."""
    finished = [it for it in result["iterations"] if "counts" in it]
    requested = sum(it["counts"]["texts_requested"] for it in finished)
    sent = sum(it["counts"]["backend_texts"] for it in finished)
    return 1 - sent / requested if requested else None


if __name__ == "__main__":
    sys.exit(main())
