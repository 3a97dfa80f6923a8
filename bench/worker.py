"""The run process: imports transproj from the checkout and runs one workload.

    python3 bench/worker.py prepare PLAN.json
    python3 bench/worker.py run SPEC.json

``prepare`` calls ``transproj.cli.main`` once per argument list in the plan.
``run`` repeats the workload until ``spec["seconds"]`` have passed and writes
its set-up time, its peak RSS and one record per iteration to
``spec["result"]``; an iteration in which transproj raised or exited non-zero
is recorded with its ``error`` and the loop goes on. Set-up time runs from ``spec["spawned"]``, the parent's
``time.monotonic()`` just before it started this process, until
``transproj.cli`` is imported, so it counts interpreter start-up.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPLITS = ("train", "dev", "test")


def _import_program(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import requests
    from transproj import backends, cli, conll_io, pipeline, placeholder, spans

    return types.SimpleNamespace(backends=backends, cli=cli, conll_io=conll_io, pipeline=pipeline,
                                 placeholder=placeholder, spans=spans, requests=requests)


def _stub_call(url: str, path: str, method: str) -> dict:
    req = urllib.request.Request(url + path, data=b"{}" if method == "POST" else None, method=method)
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def _project_over_http(m, inputs: dict, out_dir: str, url: str) -> None:
    """The CLI's translate job, written against the library: parse, IOB1 to
    IOB2, project each split through HttpBackend with the limiter off and two
    batches in flight, serialize, then write the exclusions."""
    session = m.requests.Session()
    try:
        backend = m.backends.HttpBackend(url + "/translate", rate=None, session=session)
        records = []
        for name in SPLITS:
            with open(inputs[name], encoding="utf-8") as fh:
                split = m.conll_io.parse_conll(fh.read(), name)
            split = m.conll_io.DatasetSplit(
                split.name,
                [m.conll_io.normalize_iob1_to_iob2(s) for s in split.sentences],
                dropped_empty=split.dropped_empty,
            )
            projected, outcomes, _ = m.pipeline.project_split(split, backend, "en", "fa", parallelism=2)
            records += [{"origin_index": o.origin_index, "split": name, "reason": o.reason,
                         "detail": o.detail} for o in outcomes if not o.projected]
            with open(os.path.join(out_dir, f"{name}.conll"), "w", encoding="utf-8") as fh:
                fh.write(m.conll_io.serialize_conll(projected))
        with open(os.path.join(out_dir, "exclusions.jsonl"), "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    finally:
        session.close()


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layers(tracer, run: int, counts: dict, service: dict, cpu_s: float) -> dict:
    """Per-layer metrics of one traced iteration, named ``<module>.<metric>``."""
    s = tracer.summary(run)

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    c = tracer.counts
    hits, misses = c["cache_hits"], c["cache_misses"]
    post_ms = [d * 1000 for d in tracer.durations(run, "backends.http_post")]
    statuses = service.get("statuses", {})
    return {
        "conll_io.parse_s": total("conll_io.parse"),
        "conll_io.normalize_s": total("conll_io.normalize"),
        "conll_io.serialize_s": total("conll_io.serialize"),
        "conll_io.validate_s": total("conll_io.validate"),
        "conll_io.validate_calls": calls("conll_io.validate"),
        "spans.extract_s": total("spans.extract"),
        "placeholder.mask_s": total("placeholder.mask"),
        "placeholder.count_check_s": total("placeholder.count_check"),
        "placeholder.unmask_s": total("placeholder.unmask"),
        "placeholder.scan_calls": calls("placeholder.scan"),
        "pipeline.self_s": s.get("pipeline.project_split", {}).get("self_s", 0.0),
        "pipeline.batches": calls("backends.translate_batch"),
        "pipeline.unique_share": (counts["texts_requested"] / c["texts_referenced"]
                                  if c["texts_referenced"] else 0.0),
        "backends.translate_batch_s": total("backends.translate_batch"),
        "backends.backend_s": total("backends.backend"),
        "backends.cache_load_s": total("backends.cache_load"),
        "backends.cache_lookup_s": total("backends.cache_lookup"),
        "backends.cache_store_s": total("backends.cache_store"),
        "backends.cache_hits": hits,
        "backends.cache_misses": misses,
        "backends.cache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "backends.http_posts": len(post_ms),
        "backends.http_post_ms_p50": _percentile(post_ms, 50),
        "backends.http_post_ms_p99": _percentile(post_ms, 99),
        "backends.http_5xx": sum(v for k, v in statuses.items() if k.startswith("5")),
        "backends.http_429": statuses.get("429", 0),
        "backends.http_retries": service.get("retried", 0),
        "cli.self_s": s.get("cli.main", {}).get("self_s", 0.0),
        "runtime.gc_s": c["gc_s"],
        "runtime.gc_collections": c["gc_collections"],
        "process.cpu_s": cpu_s,
    }


def run(spec: dict) -> None:
    m = _import_program(ROOT)
    setup_s = time.monotonic() - spec["spawned"]
    sys.path.insert(0, HERE)
    from tracing import BoundaryCounters, Tracer

    counters = BoundaryCounters(m)
    missing = counters.install()
    tracer = Tracer(m) if spec["trace"] else None
    workload = spec["workload"]
    url = spec.get("url")
    iterations = []
    if workload == "tm_mixed":
        # One copy of the warm memory per run; cutting the lines an iteration
        # appended restores it, without rewriting the whole file each time.
        shutil.copyfile(spec["memory"], spec["memory_copy"])
        memory_size = os.path.getsize(spec["memory_copy"])
    started = time.perf_counter()
    try:
        while True:
            i = len(iterations)
            traced = tracer is not None and i % 2 == 1
            out_dir = os.path.join(spec["workdir"], "out", f"{spec['process']}-{i}")
            os.makedirs(out_dir)
            if url:
                name, call, args = "harness.main", _project_over_http, (m, spec["inputs"], out_dir, url)
            else:
                argv = [a.replace("{out}", out_dir) for a in spec["argv"]]
                name, call, args = "cli.main", m.cli.main, (argv,)
            if workload == "tm_mixed":
                os.truncate(spec["memory_copy"], memory_size)
            if url:
                _stub_call(url, "/reset", "POST")
            # every iteration starts from the collector state of a fresh process
            gc.collect()
            before = counters.snapshot()
            if traced:
                tracer.run = i
                tracer.counts.clear()
                tracer.install()
            error = None
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                rc = tracer.span(name, call, *args) if traced else call(*args)
                if rc not in (None, 0):
                    error = f"transproj exited with {rc}"
            except (Exception, SystemExit) as exc:  # a failure of the program is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = time.perf_counter() - t0
                cpu_s = time.process_time() - cpu0
                if traced:
                    tracer.uninstall()
            record = {"elapsed_s": elapsed, "cpu_s": cpu_s, "traced": traced}
            if error is not None:
                record["error"] = error
            else:
                after = counters.snapshot()
                counts = {k: after[k] - before[k] for k in after}
                service = _stub_call(url, "/stats", "GET") if url else {}
                record.update(out_dir=out_dir, counts=counts, service=service)
                if traced:
                    record["layers"] = _layers(tracer, i, counts, service, cpu_s)
                    record["spans"] = sum(1 for sp in tracer.spans if sp[5] == i)
            iterations.append(record)
            done = time.perf_counter() - started >= spec["seconds"]
            if done and len(iterations) >= spec["min_iterations"]:
                break
    finally:
        counters.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write(spec["spans"])
        missing = sorted(set(missing + tracer.missing))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "iterations": iterations,
                   "missing": missing}, fh)


def main(argv: list[str]) -> int:
    mode, arg = argv[0], argv[1]
    with open(arg, encoding="utf-8") as fh:
        doc = json.load(fh)
    if mode == "prepare":
        m = _import_program(ROOT)
        for cli_argv in doc:
            rc = m.cli.main(cli_argv)
            if rc != 0:
                print(f"preparation failed: transproj {' '.join(cli_argv)} exited with {rc}",
                      file=sys.stderr)
                return 1
        return 0
    run(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
