"""Command-line interface: translate, stats, and validate subcommands."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import NamedTuple

from . import backends, conll_io, pipeline, stats

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_ABORT = 4
EXIT_IO = 5


class Setting(NamedTuple):
    default: object
    # str, int (>= 1, or a string of one), or a tuple of choices
    accepts: type | tuple[str, ...]
    help: str
    required: bool = False


# each translate setting is a long flag and a config-file key; the run report
# echoes them in this order
SETTINGS = {
    "out": Setting(None, str, "output directory", required=True),
    "src": Setting(None, str, "source language code", required=True),
    "tgt": Setting(None, str, "target language code", required=True),
    "backend": Setting(None, str, "identity | dict:<path> | scramble:<seed> | http:<url>", required=True),
    "cache": Setting(None, str, "translation cache file (JSONL, append-only)"),
    "batch": Setting(32, int, "texts per backend request"),
    "parallel": Setting(1, int, "translation requests in flight at once"),
    "on-backend-error": Setting(pipeline.POLICY_LENIENT, pipeline.POLICIES,
                                "lenient: exclude affected sentences; strict: abort"),
    "profile": Setting("generic", ("generic", "conll2003"),
                       "corpus profile; conll2003 rewrites IOB1 input tags as IOB2"),
    "report": Setting(None, str, "also write the run report as JSON to this path"),
    **{f"input-{s}": Setting(None, str, f"CoNLL file for the {s} split") for s in stats.SPLIT_ORDER},
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
    # every flag defaults to None, "not given", so a config-file value stands;
    # _effective_config checks the strings the flags carry
    for key, setting in SETTINGS.items():
        metavar = "{" + ",".join(setting.accepts) + "}" if isinstance(setting.accepts, tuple) else None
        default = "" if setting.default is None else f" (default {setting.default})"
        tr.add_argument(f"--{key}", dest=key, metavar=metavar, help=setting.help + default)
    tr.add_argument("--config", help="flat JSON config file; keys mirror the flags")
    tr.set_defaults(func=cmd_translate)

    st = sub.add_parser("stats", help="corpus statistics, optionally with deltas against a second corpus")
    for name in stats.SPLIT_ORDER:
        st.add_argument(f"--{name}", help=f"CoNLL file for the {name} split")
        st.add_argument(f"--vs-{name}", help=f"second corpus {name} split (enables the delta row)")
    st.add_argument("--name", default="source", help="row label for the corpus")
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
        # utf-8-sig: some editors save JSON with a byte order mark
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a flat JSON object")
    unknown = set(data) - set(SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _effective_config(args) -> dict:
    """Defaults, overridden by the config file, overridden by flags, then
    checked setting by setting."""
    cfg = {key: setting.default for key, setting in SETTINGS.items()}
    if args.config:
        cfg.update(_load_config_file(args.config))
    cfg.update({k: v for k, v in vars(args).items() if k in SETTINGS and v is not None})

    for key, setting in SETTINGS.items():
        # a setting without a default may be null
        if cfg[key] is not None or setting.default is not None:
            cfg[key] = _checked(key, cfg[key], setting.accepts)
        if setting.required and not cfg[key]:
            raise ConfigError(f"--{key} is required")
    if cfg["src"] == cfg["tgt"]:
        raise ConfigError("source and target language codes must differ")
    # a non-UTF-8 byte in argv, or "\udcff" in a config file, is a lone
    # surrogate, which has no UTF-8 form: src and tgt go into the cache file,
    # and the report echoes every setting
    for key in SETTINGS if cfg["report"] else ("src", "tgt"):
        if isinstance(cfg[key], str) and any("\ud800" <= c <= "\udfff" for c in cfg[key]):
            echoed = "" if key in ("src", "tgt") else " for --report to echo it"
            raise ConfigError(f"--{key} must be valid UTF-8{echoed}, got {cfg[key]!r}")
    if not any(cfg[f"input-{s}"] for s in stats.SPLIT_ORDER):
        raise ConfigError("at least one of --input-train/--input-dev/--input-test is required")
    return cfg


def _checked(key: str, value, accepts):
    """The value a setting runs with. A flag carries a string and a config
    file any JSON value; both pass these same checks."""
    # only a string is converted: int() would read true as 1 and cut 2.7 to 2
    if accepts is int and isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = int(value)
    if isinstance(accepts, tuple):
        ok, expected = value in accepts, " or ".join(accepts)
    else:
        # bool is a subclass of int
        ok = isinstance(value, accepts) and not (accepts is int and isinstance(value, bool))
        expected = {str: "a string", int: "an integer"}[accepts]
    if not ok:
        raise ConfigError(f"--{key} must be {expected}, got {value!r}")
    if accepts is int and value < 1:
        raise ConfigError(f"--{key} must be >= 1")
    return value


def _make_backend(spec: str) -> backends.Backend:
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
            return backends.HttpBackend(spec if rest.startswith("//") else rest)
        except ValueError as exc:  # not a full http(s)://host/path URL
            raise ConfigError(str(exc))
    raise ConfigError(f"unknown backend spec {spec!r}")


def _read_text(path: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    # utf-8-sig: a byte order mark must not become part of the first token
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise conll_io.ConllError(f"{path}: not valid UTF-8 ({exc})")


def cmd_translate(args) -> int:
    cfg = _effective_config(args)
    started = time.monotonic()

    splits = {}
    for name in stats.SPLIT_ORDER:
        path = cfg[f"input-{name}"]
        if path:
            split = conll_io.parse_conll(_read_text(path), name)
            if cfg["profile"] == "conll2003":
                for sentence in split.sentences:
                    conll_io.normalize_tags_iob1_to_iob2(sentence.tags)
            splits[name] = split

    backend = _make_backend(cfg["backend"])
    if isinstance(backend, backends.HttpBackend):  # named as in exclusions.jsonl: no userinfo or query
        cfg["backend"] = backend.backend_id
    # run-wide memo even without a cache file ("" in a config file means
    # none): a surface repeated across splits is translated only once per run
    cache = backends.TranslationCache(cfg["cache"] or None, (backend.backend_id, cfg["src"], cfg["tgt"]))

    report = pipeline.RunReport(
        config=cfg,
        cache_entries_loaded=cache.entries_loaded,
        cache_corrupt_lines=cache.corrupt_lines,
    )
    out_dir = cfg["out"]
    # outputs and the report are renamed into place only once every split has finished
    staged: list[str] = []
    lock = None
    try:
        # inside the try, so the cache is closed when --out cannot be made
        os.makedirs(out_dir, exist_ok=True)
        # before any .tmp is named, so a run refused here removes none of another's
        lock = _lock_dir(out_dir)
        staged = [os.path.join(out_dir, f"{name}.conll") for name in splits]
        staged.append(os.path.join(out_dir, "exclusions.jsonl"))
        # each parsed split is handed over and let go once it is masked, and
        # each projected sentence and exclusion once it is written
        with open(staged[-1] + ".tmp", "w", encoding="utf-8") as exclusions:
            for name, path in zip(list(splits), staged):
                outcomes = pipeline.stream_split(
                    splits.pop(name),
                    backend,
                    cfg["src"],
                    cfg["tgt"],
                    report,
                    parallelism=cfg["parallel"],
                    batch=cfg["batch"],
                    cache=cache,
                    on_error=cfg["on-backend-error"],
                )
                _write_split(path + ".tmp", name, outcomes, exclusions)
        report.duration_seconds = time.monotonic() - started
        if cfg["report"]:
            staged.append(cfg["report"])
            _write_json(cfg["report"] + ".tmp", report.to_dict())
        for path in staged:
            os.replace(path + ".tmp", path)
    finally:
        cache.close()
        for path in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".tmp")
        if lock is not None:
            os.close(lock)

    sys.stdout.write(report.render())
    return EXIT_OK


def _lock_dir(path: str) -> int | None:
    """An open descriptor of the directory ``path`` holding an exclusive
    advisory lock, which closing it releases; raises OSError if another run
    holds it. None without ``fcntl``: non-POSIX runs proceed unlocked."""
    try:
        import fcntl
    except ImportError:
        return None
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        os.close(fd)
        if isinstance(exc, BlockingIOError):  # EAGAIN: another process holds the lock
            raise OSError(f"another run is writing to {path}") from None
        raise
    return fd


def _write_split(path: str, name: str, outcomes, exclusions) -> None:
    """Write each projected sentence to ``path`` and each exclusion's record
    to the open file ``exclusions`` as it comes, then flush. The last outcome
    goes with this frame, so the next split starts holding none of this one."""
    with open(path, "w", encoding="utf-8") as fh:
        for outcome in outcomes:
            if outcome.projected:
                fh.write(conll_io.serialize_sentence(outcome.sentence))
            else:
                record = {
                    "origin_index": outcome.origin_index,
                    "split": name,
                    "reason": outcome.reason,
                    "detail": outcome.detail,
                }
                exclusions.write(json.dumps(record, ensure_ascii=False) + "\n")
    exclusions.flush()


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _corpus_stats(train: str | None, dev: str | None, test: str | None) -> dict[str, stats.SplitStats]:
    out = {}
    for name, path in zip(stats.SPLIT_ORDER, (train, dev, test)):
        if path:
            out[name] = stats.split_stats(conll_io.parse_conll(_read_text(path), name))
    if not out:
        raise ConfigError("no input files given")
    return out


def cmd_stats(args) -> int:
    corpora = [(args.name, _corpus_stats(args.train, args.dev, args.test))]
    if any((args.vs_train, args.vs_dev, args.vs_test)):
        corpora.append((args.vs_name, _corpus_stats(args.vs_train, args.vs_dev, args.vs_test)))
    sys.stdout.write(stats.render_stats_table(corpora))
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
