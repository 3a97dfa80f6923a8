from fractions import Fraction

import pytest
from hypothesis import given

from transproj.conll_io import DatasetSplit
from transproj.stats import (
    SplitStats,
    delta_stats,
    overall_stats,
    render_stats_table,
    split_stats,
)

from test_conll_io import sent, splits


def split_of(lengths, name="train"):
    sentences = [sent([f"w{i}_{j}" for j in range(n)], ["O"] * n, origin=i)
                 for i, n in enumerate(lengths)]
    return DatasetSplit(name, sentences)


def test_basic_average():
    s = split_stats(split_of([3, 5]))
    assert s.n_sentences == 2
    assert s.avg_tokens == Fraction(4)
    assert s.avg_2dp == "4.00"
    assert s.avg_rounded == 4


def test_empty_split_has_absent_avg():
    s = split_stats(split_of([]))
    assert s.n_sentences == 0
    assert s.avg_tokens is None
    assert s.avg_2dp is None
    assert s.avg_rounded is None
    other = split_stats(split_of([3]))
    assert delta_stats(s, other).avg_rounded is None
    assert delta_stats(other, s).avg_rounded is None
    assert delta_stats(s, s).avg_rounded is None


def test_rounding_half_away_from_zero():
    assert split_stats(split_of([3, 4])).avg_rounded == 4  # 3.5 -> 4
    assert split_stats(split_of([4, 5])).avg_rounded == 5  # 4.5 -> 5
    assert split_stats(split_of([4, 4, 4, 5])).avg_2dp == "4.25"
    assert split_stats(split_of([33, 33])).avg_2dp == "33.00"


def test_two_decimal_rendering_rounds_half_away():
    # 4.125 -> 4.13
    s = SplitStats("train", 8, 33, {})
    assert s.avg_2dp == "4.13"
    assert s.avg_rounded == 4


def test_label_counts():
    split = DatasetSplit("train", [
        sent(["a", "b", "c"], ["B-PER", "I-PER", "B-LOC"], 0),
        sent(["d"], ["B-PER"], 1),
    ])
    assert split_stats(split).label_counts == {"PER": 2, "LOC": 1}


@given(splits())
def test_label_counts_sum_equals_b_tags(split):
    s = split_stats(split)
    b_tags = sum(1 for sen in split.sentences for t in sen.tags if t.kind == "B")
    assert sum(s.label_counts.values()) == b_tags


@given(splits())
def test_stats_invariant_under_reordering(split):
    reversed_split = DatasetSplit(
        split.name,
        [sent(s.tokens, [t.raw for t in s.tags], i)
         for i, s in enumerate(reversed(split.sentences))],
    )
    a, b = split_stats(split), split_stats(reversed_split)
    assert (a.n_sentences, a.total_tokens, a.label_counts) == (
        b.n_sentences, b.total_tokens, b.label_counts)


def test_delta_basic():
    a = SplitStats("train", 14041, 14041 * 15, {})
    b = SplitStats("train", 13746, 13746 * 15, {})
    assert delta_stats(a, b).n_sentences == -295


def test_delta_identical_is_zero():
    a = SplitStats("train", 5, 50, {})
    assert delta_stats(a, a).n_sentences == 0
    assert delta_stats(a, a).avg_rounded == 0


def test_delta_rounded_avg():
    # n 5 vs 4, avg 10.00 vs 9.50 (rounds to 10): delta n -1, delta avg 0
    a = SplitStats("train", 5, 50, {})
    b = SplitStats("train", 4, 38, {})
    d = delta_stats(a, b)
    assert d.n_sentences == -1
    assert b.avg_2dp == "9.50"
    assert d.avg_rounded == 0


def test_delta_requires_same_split():
    with pytest.raises(ValueError):
        delta_stats(SplitStats("train", 1, 1, {}), SplitStats("dev", 1, 1, {}))


def test_overall_combines():
    o = overall_stats([SplitStats("train", 2, 10, {"A": 1}), SplitStats("dev", 3, 5, {"A": 2, "B": 1})])
    assert o.n_sentences == 5
    assert o.total_tokens == 15
    assert o.label_counts == {"A": 3, "B": 1}


def test_render_table_layout():
    en = {"train": SplitStats("train", 2, 8, {}), "test": SplitStats("test", 1, 4, {})}
    fa = {"train": SplitStats("train", 1, 4, {}), "test": SplitStats("test", 1, 4, {})}
    table = render_stats_table([("en", en), ("fa", fa)])
    lines = table.splitlines()
    assert lines[0].split() == ["dataset", "train", "dev", "test", "avg"]
    assert lines[1].split() == ["en", "2", "-", "1", "4"]
    assert lines[2].split() == ["fa", "1", "-", "1", "4"]
    assert lines[3].split() == ["Δ", "fa-en", "-1", "-", "0", "0"]
    assert table.endswith("\n")


def test_render_table_of_one_corpus_has_no_delta_row():
    table = render_stats_table([("en", {"train": SplitStats("train", 1, 1, {})})])
    assert [line.split() for line in table.splitlines()] == [
        ["dataset", "train", "dev", "test", "avg"],
        ["en", "1", "-", "-", "1"],
    ]
