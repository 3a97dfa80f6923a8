"""Command-line interface: translate, stats, and validate subcommands."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import backends, conll_io, pipeline, stats

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_ABORT = 4
EXIT_IO = 5

# conll2003 turns IOB1 -> IOB2 normalization on by default
PROFILES = ("generic", "conll2003")
SPLITS = ("train", "dev", "test")

TRANSLATE_DEFAULTS = {
    "out": None,
    "src": None,
    "tgt": None,
    "backend": None,
    "cache": None,
    "batch": 32,
    "parallel": 1,
    "on-backend-error": pipeline.POLICY_LENIENT,
    "profile": "generic",
    "report": None,
    "normalize-iob1": None,  # None = decided by profile
    "input-train": None,
    "input-dev": None,
    "input-test": None,
}


class ConfigError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transproj",
        description="Project token-level NER annotations to another language "
        "by masking entity spans with indexed placeholders, translating, and "
        "realigning by index.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("translate", help="project a corpus through a translation backend")
    tr.add_argument("--input-train", help="CoNLL file for the train split")
    tr.add_argument("--input-dev", help="CoNLL file for the dev split")
    tr.add_argument("--input-test", help="CoNLL file for the test split")
    tr.add_argument("--out", help="output directory")
    tr.add_argument("--src", help="source language code")
    tr.add_argument("--tgt", help="target language code")
    tr.add_argument("--backend", help="identity | dict:<path> | scramble:<seed> | http:<url>")
    tr.add_argument("--cache", help="translation cache file (JSONL, append-only)")
    tr.add_argument("--batch", type=int, help="texts per backend request (default 32)")
    tr.add_argument("--parallel", type=int, help="concurrent translation batches (default 1)")
    tr.add_argument("--on-backend-error", choices=(pipeline.POLICY_LENIENT, pipeline.POLICY_STRICT),
                    dest="on_backend_error", help="lenient: exclude affected sentences; strict: abort")
    tr.add_argument("--profile", choices=PROFILES, help="corpus profile (sets tag-scheme defaults)")
    tr.add_argument("--config", help="flat JSON config file; keys mirror the flags")
    tr.add_argument("--report", help="also write the run report as JSON to this path")
    tr.add_argument("--normalize-iob1", dest="normalize_iob1", action="store_true", default=None,
                    help="rewrite IOB1 input tags to IOB2 (default: on for --profile conll2003)")
    tr.add_argument("--no-normalize-iob1", dest="normalize_iob1", action="store_false", default=None)
    tr.set_defaults(func=cmd_translate)

    st = sub.add_parser("stats", help="corpus statistics, optionally with deltas against a second corpus")
    st.add_argument("--train", help="CoNLL file for the train split")
    st.add_argument("--dev", help="CoNLL file for the dev split")
    st.add_argument("--test", help="CoNLL file for the test split")
    st.add_argument("--name", default="source", help="row label for the corpus")
    st.add_argument("--vs-train", help="second corpus train split (enables the delta row)")
    st.add_argument("--vs-dev", help="second corpus dev split")
    st.add_argument("--vs-test", help="second corpus test split")
    st.add_argument("--vs-name", default="target", help="row label for the second corpus")
    st.add_argument("--json", dest="json_path", help="write the structured report to this path")
    st.set_defaults(func=cmd_stats)

    va = sub.add_parser("validate", help="check a corpus for IOB2 violations")
    va.add_argument("path", help="CoNLL file to check")
    va.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except conll_io.ConllError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except pipeline.AbortedRun as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (OSError, backends.CacheLocked) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a flat JSON object")
    unknown = set(data) - set(TRANSLATE_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _effective_config(args) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    cfg = dict(TRANSLATE_DEFAULTS)
    if args.config:
        cfg.update(_load_config_file(args.config))
    # each key's argparse dest is the key with "_" for "-"
    flag_values = {k: getattr(args, k.replace("-", "_")) for k in TRANSLATE_DEFAULTS}
    cfg.update({k: v for k, v in flag_values.items() if v is not None})

    # config-file values come from outside the program and may be any JSON type
    for key in ("out", "src", "tgt", "backend", "cache", "report", *(f"input-{s}" for s in SPLITS)):
        if cfg[key] is not None and not isinstance(cfg[key], str):
            raise ConfigError(f"--{key} must be a string, got {cfg[key]!r}")
    for key in ("out", "src", "tgt", "backend"):
        if not cfg[key]:
            raise ConfigError(f"--{key} is required")
    if cfg["src"] == cfg["tgt"]:
        raise ConfigError("source and target language codes must differ")
    for key in ("batch", "parallel"):
        try:
            # int() would read true as 1 and cut 2.7 to 2
            if isinstance(cfg[key], (bool, float)):
                raise TypeError
            cfg[key] = int(cfg[key])
        except (TypeError, ValueError):
            raise ConfigError(f"--{key} must be an integer, got {cfg[key]!r}")
        if cfg[key] < 1:
            raise ConfigError(f"--{key} must be >= 1")
    if cfg["on-backend-error"] not in (pipeline.POLICY_LENIENT, pipeline.POLICY_STRICT):
        raise ConfigError(f"--on-backend-error must be lenient or strict, got {cfg['on-backend-error']!r}")
    if cfg["profile"] not in PROFILES:
        raise ConfigError(f"unknown profile {cfg['profile']!r}")
    if not (cfg["normalize-iob1"] is None or isinstance(cfg["normalize-iob1"], bool)):
        raise ConfigError("normalize-iob1 must be true or false")
    if not any(cfg[f"input-{s}"] for s in SPLITS):
        raise ConfigError("at least one of --input-train/--input-dev/--input-test is required")
    if cfg["normalize-iob1"] is None:
        cfg["normalize-iob1"] = cfg["profile"] == "conll2003"
    return cfg


def _make_backend(spec: str, batch: int) -> backends.Backend:
    kind, _, rest = spec.partition(":")
    if kind == "identity" and not rest:
        return backends.IdentityBackend()
    if kind == "dict":
        if not rest:
            raise ConfigError("dict backend needs a path: dict:<path>")
        if not os.path.exists(rest):
            raise ConfigError(f"dictionary file not found: {rest}")
        try:
            return backends.DictionaryBackend.from_file(rest)
        except ValueError as exc:  # a line without a tab, or bytes that are not UTF-8
            raise ConfigError(f"malformed dictionary file {rest}: {exc}")
    if kind == "scramble":
        try:
            return backends.ScramblerBackend(int(rest))
        except ValueError:
            raise ConfigError(f"scramble backend needs an integer seed, got {rest!r}")
    if kind in ("http", "https"):
        try:
            return backends.HttpBackend(spec if rest.startswith("//") else rest, batch_size=batch)
        except ValueError as exc:  # not a full http(s)://host/path URL
            raise ConfigError(str(exc))
    raise ConfigError(f"unknown backend spec {spec!r}")


def _read_text(path: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise conll_io.ConllError(f"{path}: not valid UTF-8 ({exc})")


def _read_split(path: str, name: str) -> conll_io.DatasetSplit:
    return conll_io.parse_conll(_read_text(path), name)


def cmd_translate(args) -> int:
    cfg = _effective_config(args)
    started = time.monotonic()

    splits = {}
    for name in SPLITS:
        path = cfg[f"input-{name}"]
        if path:
            split = _read_split(path, name)
            if cfg["normalize-iob1"]:
                for sentence in split.sentences:
                    conll_io.normalize_tags_iob1_to_iob2(sentence.tags)
            splits[name] = split

    backend = _make_backend(cfg["backend"], cfg["batch"])
    # run-wide memo even without a cache file ("" in a config file means
    # none): a surface repeated across splits is translated only once per run.
    # A run can only hit its own backend and language pair, so only that
    # scope of a cache file is indexed.
    scope = (backend.backend_id, cfg["src"], cfg["tgt"]) if cfg["cache"] else None
    cache = backends.TranslationCache(cfg["cache"] or None, scope=scope)

    report = pipeline.RunReport(
        config=cfg,
        cache_entries_loaded=cache.entries_loaded,
        cache_corrupt_lines=cache.corrupt_lines,
    )
    exclusion_records = []
    out_dir = cfg["out"]
    # outputs are renamed into place only once every split has finished
    staged: list[str] = []
    try:
        # inside the try, so the cache is closed when --out cannot be made
        os.makedirs(out_dir, exist_ok=True)
        for name, split in splits.items():
            projected, outcomes, part = pipeline.project_split(
                split,
                backend,
                cfg["src"],
                cfg["tgt"],
                parallelism=cfg["parallel"],
                batch=cfg["batch"],
                cache=cache,
                on_error=cfg["on-backend-error"],
            )
            report.merge(part)
            for outcome in outcomes:
                if not outcome.projected:
                    exclusion_records.append(
                        {
                            "origin_index": outcome.origin_index,
                            "split": name,
                            "reason": outcome.reason,
                            "detail": outcome.detail,
                        }
                    )
            staged.append(os.path.join(out_dir, f"{name}.conll"))
            with open(staged[-1] + ".tmp", "w", encoding="utf-8") as fh:
                fh.write(conll_io.serialize_conll(projected))
        staged.append(os.path.join(out_dir, "exclusions.jsonl"))
        with open(staged[-1] + ".tmp", "w", encoding="utf-8") as fh:
            for record in exclusion_records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        for path in staged:
            os.replace(path + ".tmp", path)
        report.duration_seconds = time.monotonic() - started
    finally:
        cache.close()
        for path in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".tmp")

    sys.stdout.write(report.render())
    if cfg["report"]:
        _write_json(cfg["report"], report.to_dict())
    return EXIT_OK


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _corpus_stats(train: str | None, dev: str | None, test: str | None) -> dict[str, stats.SplitStats]:
    out = {}
    for name, path in zip(SPLITS, (train, dev, test)):
        if path:
            out[name] = stats.split_stats(_read_split(path, name))
    if not out:
        raise ConfigError("no input files given")
    return out


def cmd_stats(args) -> int:
    corpora = [(args.name, _corpus_stats(args.train, args.dev, args.test))]
    if any((args.vs_train, args.vs_dev, args.vs_test)):
        corpora.append((args.vs_name, _corpus_stats(args.vs_train, args.vs_dev, args.vs_test)))
    sys.stdout.write(stats.render_stats_table(corpora, delta=len(corpora) == 2))
    if args.json_path:
        _write_json(args.json_path, stats.stats_report(corpora))
    return EXIT_OK


def cmd_validate(args) -> int:
    split, line_map = conll_io.parse_conll_with_lines(_read_text(args.path))
    n = 0
    for sentence, lines in zip(split.sentences, line_map):
        for violation in conll_io.validate_scheme(sentence):
            print(f"{args.path}:{lines[violation.index]}: {violation.message}")
            n += 1
    if n:
        print(f"{n} violation(s)")
        return EXIT_VIOLATIONS
    return EXIT_OK
