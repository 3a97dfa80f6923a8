"""Instance counts, average sentence lengths, and label histograms."""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from .conll_io import DatasetSplit

SPLIT_ORDER = ("train", "dev", "test")


def _round_half_away(numerator: int, denominator: int) -> int:
    """Round numerator/denominator (non-negative) half away from zero."""
    return (2 * numerator + denominator) // (2 * denominator)


@dataclass
class SplitStats:
    split_name: str
    n_sentences: int
    total_tokens: int
    label_counts: dict[str, int]

    @property
    def avg_tokens(self) -> Fraction | None:
        if self.n_sentences == 0:
            return None
        # imported here: no run of the CLI reads this, so none loads fractions
        from fractions import Fraction

        return Fraction(self.total_tokens, self.n_sentences)

    @property
    def avg_rounded(self) -> int | None:
        if self.n_sentences == 0:
            return None
        return _round_half_away(self.total_tokens, self.n_sentences)

    @property
    def avg_2dp(self) -> str | None:
        if self.n_sentences == 0:
            return None
        scaled = _round_half_away(self.total_tokens * 100, self.n_sentences)
        return f"{scaled // 100}.{scaled % 100:02d}"

    def to_dict(self) -> dict:
        return {
            "split": self.split_name,
            "sentences": self.n_sentences,
            "tokens": self.total_tokens,
            "avg_tokens": self.avg_2dp,
            "avg_tokens_rounded": self.avg_rounded,
            "labels": dict(sorted(self.label_counts.items())),
        }


@dataclass
class DeltaStats:
    split_name: str
    n_sentences: int
    avg_rounded: int | None

    def to_dict(self) -> dict:
        return {
            "split": self.split_name,
            "sentences": self.n_sentences,
            "avg_tokens_rounded": self.avg_rounded,
        }


def split_stats(split: DatasetSplit) -> SplitStats:
    """Sentence count, token total, and entity count per label.

    Labels are counted at B-tags (span starts), which equals the number of
    extracted spans on valid IOB2 input and stays well-defined on input
    that is not.
    """
    labels: dict[str, int] = {}
    total = 0
    for sentence in split.sentences:
        total += len(sentence.tokens)
        for tag in sentence.tags:
            if tag.kind == "B":
                labels[tag.label] = labels.get(tag.label, 0) + 1
    return SplitStats(split.name, len(split.sentences), total, labels)


def overall_stats(parts: Collection[SplitStats], name: str = "overall") -> SplitStats:
    labels: dict[str, int] = {}
    for part in parts:
        for label, n in part.label_counts.items():
            labels[label] = labels.get(label, 0) + n
    return SplitStats(
        name,
        sum(p.n_sentences for p in parts),
        sum(p.total_tokens for p in parts),
        labels,
    )


def delta_stats(source: SplitStats, target: SplitStats) -> DeltaStats:
    """Componentwise target minus source; both sides must name the same split."""
    if source.split_name != target.split_name:
        raise ValueError(f"split mismatch: {source.split_name!r} vs {target.split_name!r}")
    if source.avg_rounded is None or target.avg_rounded is None:
        d_avg = None
    else:
        d_avg = target.avg_rounded - source.avg_rounded
    return DeltaStats(source.split_name, target.n_sentences - source.n_sentences, d_avg)


def _deltas(source: dict[str, SplitStats],
            target: dict[str, SplitStats]) -> tuple[dict[str, DeltaStats], DeltaStats]:
    """delta_stats of each split both corpora hold, in SPLIT_ORDER, and of
    the two corpora's overall stats."""
    splits = {n: delta_stats(source[n], target[n]) for n in SPLIT_ORDER if n in source and n in target}
    return splits, delta_stats(overall_stats(source.values()), overall_stats(target.values()))


def _row(label: str, by_split: dict, overall: SplitStats | DeltaStats) -> list[str]:
    values = [by_split[n].n_sentences if n in by_split else None for n in SPLIT_ORDER]
    return [label, *("-" if v is None else str(v) for v in (*values, overall.avg_rounded))]


def render_stats_table(corpora: list[tuple[str, dict[str, SplitStats]]]) -> str:
    """Aligned text table: one row per corpus with per-split instance counts
    and the overall rounded average token count, plus one delta row when two
    corpora are given."""
    header = ["dataset", *SPLIT_ORDER, "avg"]
    rows = [header] + [_row(name, by_split, overall_stats(by_split.values())) for name, by_split in corpora]
    if len(corpora) == 2:
        (src_name, src), (tgt_name, tgt) = corpora
        rows.append(_row(f"Δ {tgt_name}-{src_name}", *_deltas(src, tgt)))

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def stats_report(corpora: list[tuple[str, dict[str, SplitStats]]]) -> dict:
    """The structured report: each corpus with its splits and overall stats,
    plus, when two corpora are given, the deltas of the shared splits and
    the overall delta."""
    doc: dict = {"corpora": [
        {"name": name, "splits": {k: v.to_dict() for k, v in by_split.items()},
         "overall": overall_stats(by_split.values()).to_dict()}
        for name, by_split in corpora
    ]}
    if len(corpora) == 2:
        splits, overall = _deltas(corpora[0][1], corpora[1][1])
        doc["deltas"] = {k: d.to_dict() for k, d in splits.items()}
        doc["overall_delta"] = overall.to_dict()
    return doc
