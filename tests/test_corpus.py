import dataclasses
import json
import math
import pickle
import random
import sys

import numpy as np
import pytest

import revclass.corpus
from revclass.corpus import (
    Category,
    Corpus,
    CorpusFormatError,
    Field,
    Review,
    agreement_filter,
    integer,
    iter_json_lines,
    load_corpus,
    one_of,
    read_json_lines,
    write_corpus,
    write_csv,
    write_json_atomic,
    write_text_atomic,
)
from revclass.evaluate import SURROGATE_OFF, ExperimentConfig, _splits, derive_rotations
from revclass.preprocess import TokenizedCorpus
from conftest import review_record, write_jsonl


class TestCategory:
    def test_exactly_eight_in_fixed_order(self):
        names = [c.display_name for c in Category]
        assert names == [
            "plot",
            "actor/actress",
            "role",
            "dialogue",
            "analysis",
            "platform",
            "thumb-up-or-down",
            "noise/others",
        ]

    def test_index_name_bijection(self):
        assert len({c.display_name for c in Category}) == len(Category) == 8
        for i, c in enumerate(Category):
            assert int(c) == i and Category(i) is c
        with pytest.raises(ValueError):
            Category(8)


class TestLoadCorpus:
    def test_three_valid_lines(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [review_record(f"r{i}") for i in range(3)])
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert [r.id for r in corpus.reviews] == ["r0", "r1", "r2"]

    def test_missing_text_names_line_and_field(self, tmp_path):
        record = review_record("r0")
        del record["text"]
        path = write_jsonl(tmp_path / "c.jsonl", [record])
        with pytest.raises(CorpusFormatError, match=r"line 1.*'text'"):
            load_corpus(path)

    def test_duplicate_id(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [review_record("dup"), review_record("dup")])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path)

    def test_empty_lines_and_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(review_record("r0", extra_field="ignored")) + "\n")
            fh.write("\n")
            fh.write(json.dumps(review_record("r1")) + "\n")
        assert len(load_corpus(path)) == 2

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(review_record("r0")) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_annotation_out_of_range(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [review_record("r0", annotations=[8])])
        with pytest.raises(CorpusFormatError, match="annotations"):
            load_corpus(path)

    def test_text_nfc_normalized(self, tmp_path):
        # U+0065 U+0301 (e + combining acute) normalizes to U+00E9
        path = write_jsonl(tmp_path / "c.jsonl", [review_record("r0", text="café")])
        corpus = load_corpus(path)
        assert corpus.reviews[0].text == "café"

    def test_series_index_matches_per_series_counts(self, tmp_path):
        sizes = {"series_a": 6381, "series_b": 7527, "series_c": 5424}
        records = []
        n = 0
        for series, size in sizes.items():
            for i in range(size):
                records.append(review_record(f"{series}-{i}", series=series, text="x"))
                n += 1
        path = write_jsonl(tmp_path / "big.jsonl", records)
        corpus = load_corpus(path)
        assert len(corpus) == n
        assert {s: len(ix) for s, ix in corpus.series_index.items()} == sizes


class TestAgreementFilter:
    def test_unanimous_kept_with_label(self):
        corpus = Corpus(reviews=(Review("r0", "s", "t", (3, 3)),))
        kept, drops = agreement_filter(corpus)
        assert len(kept) == 1
        assert kept.labels[0] is Category.DIALOGUE
        assert drops == {"too_few_annotations": 0, "disagreement": 0}

    def test_disagreement_dropped(self):
        corpus = Corpus(reviews=(Review("r0", "s", "t", (3, 5)),))
        kept, drops = agreement_filter(corpus)
        assert len(kept) == 0
        assert drops["disagreement"] == 1

    def test_ten_review_fixture_keeps_six(self, tmp_path, ten_review_fixture):
        path = write_jsonl(tmp_path / "c.jsonl", ten_review_fixture)
        kept, drops = agreement_filter(load_corpus(path))
        assert len(kept) == 6
        assert drops == {"too_few_annotations": 1, "disagreement": 3}
        assert [r.id for r in kept.reviews] == ["r0", "r1", "r2", "r4", "r6", "r9"]
        assert [int(lab) for lab in kept.labels] == [3, 0, 7, 2, 5, 1]

    def test_idempotent(self, tmp_path, ten_review_fixture):
        path = write_jsonl(tmp_path / "c.jsonl", ten_review_fixture)
        once, _ = agreement_filter(load_corpus(path))
        twice, drops = agreement_filter(once)
        assert twice.reviews == once.reviews
        assert twice.labels == once.labels
        assert drops == {"too_few_annotations": 0, "disagreement": 0}

    def test_kept_plus_dropped_equals_input(self, tmp_path, ten_review_fixture):
        path = write_jsonl(tmp_path / "c.jsonl", ten_review_fixture)
        corpus = load_corpus(path)
        kept, drops = agreement_filter(corpus)
        assert len(kept) + sum(drops.values()) == len(corpus)


def _series_corpus(series=("s1", "s2", "s3")):
    reviews = []
    for name in series:
        for i in range(4):
            reviews.append(Review(f"{name}-{i}", name, f"w{i}", (i, i)))
    return agreement_filter(Corpus(reviews=tuple(reviews)))[0]


def _split(corpus, rotation):
    """The experiments' (train, test) split of ``corpus`` for one rotation."""
    [(_, _, train, test, _)] = _splits(corpus, ExperimentConfig(), None, None, (SURROGATE_OFF,), (rotation,))
    return train, test


class TestSplitBySeries:
    def test_partition_sizes(self):
        corpus = _series_corpus()
        train, test = _split(corpus, (("s1", "s2"), "s3"))
        assert len(train) + len(test) == len(corpus)
        assert set(train.series) == {"s1", "s2"}
        assert set(test.series) == {"s3"}

    def test_overlap_is_error(self):
        with pytest.raises(ValueError, match="disjoint"):
            ExperimentConfig(rotation=(("s1", "s2"), "s1"))
        with pytest.raises(ValueError, match="disjoint"):
            ExperimentConfig(rotations=((("s1", "s2"), "s3"), (("s2", "s2"), "s1")))

    def test_unknown_series_is_error(self):
        corpus = _series_corpus()
        with pytest.raises(ValueError, match=r"^rotation s1&nope-s3 trains on series without reviews: \['nope'\]$"):
            _split(corpus, (("s1", "nope"), "s3"))
        with pytest.raises(ValueError, match=r"^rotation s1&s2-nope produced an empty split$"):
            _split(corpus, (("s1", "s2"), "nope"))

    def test_three_rotations_are_disjoint(self):
        corpus = _series_corpus()
        test_ids = []
        for rotation in derive_rotations(corpus.series_index):
            train, test = _split(corpus, rotation)
            assert set(train.ids).isdisjoint(test.ids)
            test_ids.append(frozenset(test.ids))
        # the three held-out sets partition the corpus
        assert len(frozenset.union(*test_ids)) == len(corpus)
        assert sum(len(t) for t in test_ids) == len(corpus)

    def test_union_covers_requested_series_only(self):
        corpus = _series_corpus(("s1", "s2", "s3", "s4"))
        train, test = _split(corpus, (("s1", "s2"), "s3"))
        got = set(train.ids) | set(test.ids)
        expected = {r.id for r in corpus.reviews if r.series in ("s1", "s2", "s3")}
        assert got == expected

    def test_order_preserved(self):
        corpus = _series_corpus(("s2", "s1", "s3"))
        train, test = _split(corpus, (("s1", "s2"), "s3"))
        order = [r.id for r in corpus.reviews]
        assert list(train.ids) == [i for i in order if i[:2] in ("s1", "s2")]
        assert list(test.ids) == [i for i in order if i[:2] == "s3"]
        assert train.labels == (0, 1, 2, 3) * 2


class TestWriteCorpus:
    def test_load_reads_back_what_write_wrote(self, tmp_path):
        reviews = (
            Review(id="甄-1", series="甄嬛传", text="皇上 很 好看", annotations=(1, 1), episode=3),
            Review(id="b-2", series="beta", text="café ok", annotations=(0, 2, 2), episode=0),
            Review(id="b-3", series="beta", text="unnumbered", annotations=(7,)),
        )
        path = tmp_path / "corpus.jsonl"
        write_corpus(Corpus(reviews=reviews), path)
        assert load_corpus(path).reviews == reviews
        lines = path.read_text(encoding="utf-8").splitlines()
        assert "皇上 很 好看" in lines[0] and '"episode": 0' in lines[1] and '"episode"' not in lines[2]
        write_corpus(load_corpus(path), tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_labels_are_not_written_and_an_empty_corpus_is_an_empty_file(self, tmp_path):
        corpus, _ = agreement_filter(Corpus(reviews=(Review(id="a", series="s", text="t", annotations=(4, 4)),)))
        write_corpus(corpus, tmp_path / "one.jsonl")
        assert "label" not in (tmp_path / "one.jsonl").read_text(encoding="utf-8")
        write_corpus(Corpus(reviews=()), tmp_path / "none.jsonl")
        assert (tmp_path / "none.jsonl").read_bytes() == b""


# ---------------------------------------------------------------------------
# The JSON-lines reader and writers against json.loads and json.dumps
# ---------------------------------------------------------------------------


def _loads_line(line, where):
    """What reading one line gives through ``json.loads``: the object, or the
    error message."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"{where}: invalid JSON ({exc})"
    return obj if isinstance(obj, dict) else f"{where}: expected a JSON object"


_LINES = {
    "leading_space": ' {"a": 1}',
    "trailing_space": '{"a": 1}   ',
    "tabs": '\t{"a": 1}\t',
    "bom": '\ufeff{"a": 1}',
    "nan_infinity": '{"a": NaN, "b": Infinity, "c": -Infinity}',
    "two_objects": '{"a":1} {"b":2}',
    "trailing_junk": '{"a":1}x',
    "array": "[1]",
    "string": '"s"',
    "number": "7",
    "nested": '{"a": {"b": [1, 2.5, {"c": null}], "e": {}}, "d": true, "f": false}',
    "escapes": '{"é": "caf\\u00e9 \\"q\\" \\\\ \\n 中文 \\ud83d\\ude00", "k\\u0000": "\\/"}',
    "duplicate_key": '{"a": 1, "a": 2}',
    "big_numbers": '{"i": 123456789012345678901234567890, "f": 1e400, "g": -0.0}',
    "empty_object": "{}",
    "trailing_comma": '{"a": 1,}',
    "missing_value": '{"a": }',
    "truncated": '{"a": [1, 2',
    "bare_key": "{a: 1}",
    "single_quotes": "{'a': 1}",
    "raw_tab_in_string": '{"a": "x\ty"}',
    "bad_escape": '{"a": "\\x"}',
    "bad_literal": '{"a": nul}',
    "not_json": "nope",
}


@pytest.mark.parametrize("line", list(_LINES.values()), ids=list(_LINES))
def test_read_json_lines_gives_what_json_loads_gives(tmp_path, line):
    path = tmp_path / "lines.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    where = f"{path}: line 2"
    expected = _loads_line(line, where)
    try:
        got = list(read_json_lines(path, CorpusFormatError))
    except CorpusFormatError as exc:
        assert str(exc) == expected
    else:
        # repr tells 1 from 1.0 and True, and matches NaN with NaN.
        assert [(w, repr(obj)) for w, obj in got] == [(where, repr(expected))]


_TEXTS = (
    "plain",
    "皇上 很 好看 café",
    'quote " back\\slash / tab\t nl\n cr\r',
    "ctl \x00\x01\x1f del \x7f",
    "line separators \u2028\u2029 \U0001f600 bom \ufeff",
)


def _dumps_lines(records):
    return "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records).encode("utf-8")


def test_write_corpus_writes_json_dumps_bytes(tmp_path):
    reviews = tuple(
        Review(id=f"{text[:3]}-{i}", series=text[-2:], text=text, annotations=(i % 8, 7), episode=i if i % 2 else None)
        for i, text in enumerate(_TEXTS)
    )
    path = tmp_path / "corpus.jsonl"
    write_corpus(Corpus(reviews=reviews), path)
    records = [
        {"id": r.id, "series": r.series, "text": r.text, "annotations": list(r.annotations)}
        | ({} if r.episode is None else {"episode": r.episode})
        for r in reviews
    ]
    assert path.read_bytes() == _dumps_lines(records)


def test_tokens_file_is_json_dumps_bytes(tmp_path):
    corpus = TokenizedCorpus(
        ids=tuple(f"r{i}" for i in range(len(_TEXTS))),
        series=_TEXTS,
        docs=tuple(tuple(text.split(" ")) for text in _TEXTS),
        labels=tuple(None if i % 2 else i for i in range(len(_TEXTS))),
    )
    path = tmp_path / "tokens.jsonl"
    corpus.save(path)
    records = [
        {"id": rid, "series": series, "label": label, "tokens": list(doc)}
        for rid, series, doc, label in zip(corpus.ids, corpus.series, corpus.docs, corpus.labels)
    ]
    assert path.read_bytes() == _dumps_lines(records)
    assert TokenizedCorpus.load(path) == corpus


@pytest.mark.parametrize(
    "annotations, message",
    [
        ("[true, 1]", "field 'annotations' must be a list of integers in [0, 7]"),
        ("[1, true]", "field 'annotations' must be a list of integers in [0, 7]"),
        ("[1.0, 1]", "field 'annotations' must be a list of integers in [0, 7]"),
        ('[1, "1"]', "field 'annotations' must be a list of integers in [0, 7]"),
        ("[1, -1]", "field 'annotations' must be a list of integers in [0, 7]"),
        ("[8, 1]", "field 'annotations' must be a list of integers in [0, 7]"),
        ("[-1, 8.5]", "field 'annotations' must be a list of integers in [0, 7]"),
    ],
    ids=["true", "true_second", "float", "string", "minus_one", "eight", "range_and_type"],
)
def test_annotation_messages(tmp_path, annotations, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(f'{{"id": "a", "series": "s", "text": "t", "annotations": {annotations}}}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}: line 1: {message}"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"id": ""}, "field 'id' must be a non-empty string"),
        ({"series": 5}, "field 'series' must be a non-empty string"),
        ({"text": ["还不错"]}, "field 'text' must be a non-empty string"),
        ({"text": ""}, "field 'text' must be a non-empty string"),
        ({"episode": True}, "field 'episode' must be a non-negative integer"),
        ({"episode": -1}, "field 'episode' must be a non-negative integer"),
    ],
    ids=["empty_id", "number_series", "list_text", "empty_text", "bool_episode", "negative_episode"],
)
def test_bad_field_messages(tmp_path, change, message):
    path = write_jsonl(tmp_path / "corpus.jsonl", [review_record("a"), {**review_record("b"), **change}])
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}: line 2: {message}"


@pytest.mark.parametrize(
    "annotations, bad", [((-1,), -1), ((8,), 8), ((3, 9, -1), 9), ((0, 7, -2, 8), -2)]
)
def test_review_names_the_first_annotation_out_of_range(annotations, bad):
    with pytest.raises(ValueError) as info:
        Review(id="r", series="s", text="t", annotations=annotations)
    assert str(info.value) == f"review r: annotation {bad} outside [0, 7]"


# ---------------------------------------------------------------------------
# Reviews built by the loader against Review(...), and the lazy series index
# ---------------------------------------------------------------------------


_REVIEW_FIELDS = [
    {"id": "甄-1", "series": "甄嬛传", "text": "皇上 很 好看", "annotations": (1, 1), "episode": 3},
    {"id": "b-2", "series": "beta", "text": "café ok", "annotations": (0, 2, 2), "episode": 0},
    {"id": "b-3", "series": "beta", "text": "unnumbered", "annotations": (7,), "episode": None},
    {"id": "b-4", "series": "beta", "text": "no annotations", "annotations": (), "episode": None},
]


def _loaded_reviews(tmp_path):
    records = [dict(f, annotations=list(f["annotations"])) for f in _REVIEW_FIELDS]
    for record in records:
        if record["episode"] is None:
            del record["episode"]
    return load_corpus(write_jsonl(tmp_path / "c.jsonl", records)).reviews


def test_loaded_review_is_the_review_the_constructor_builds(tmp_path):
    for loaded, fields in zip(_loaded_reviews(tmp_path), _REVIEW_FIELDS, strict=True):
        built = Review(**fields)
        assert loaded == built and not loaded != built
        assert hash(loaded) == hash(built)
        assert repr(loaded) == repr(built)
        assert type(loaded) is Review and not hasattr(loaded, "__dict__")
        for review in (loaded, built):
            again = pickle.loads(pickle.dumps(review))
            assert again == built and repr(again) == repr(built) and hash(again) == hash(built)
        assert dataclasses.replace(loaded, text="other") == dataclasses.replace(built, text="other")


@pytest.mark.parametrize("name", ["id", "series", "text", "annotations", "episode"])
def test_loaded_review_is_frozen(tmp_path, name):
    review = _loaded_reviews(tmp_path)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(review, name, getattr(review, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(review, name)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"annotations": (1, 9)}, "review 甄-1: annotation 9 outside [0, 7]"),
        ({"text": ""}, "review 甄-1: text must be non-empty"),
        ({"episode": -1}, "review 甄-1: episode must be non-negative"),
        ({"id": ""}, "review id must be non-empty"),
    ],
    ids=["annotation", "text", "episode", "id"],
)
def test_replace_on_a_loaded_review_runs_the_review_checks(tmp_path, changes, message):
    with pytest.raises(ValueError) as info:
        dataclasses.replace(_loaded_reviews(tmp_path)[0], **changes)
    assert str(info.value) == message


def test_series_index_is_built_on_first_read(tmp_path):
    corpus = Corpus(reviews=_loaded_reviews(tmp_path))
    assert "series_index" not in vars(corpus)
    assert corpus.series_index == {"甄嬛传": (0,), "beta": (1, 2, 3)}
    assert vars(corpus)["series_index"] is corpus.series_index
    assert "series_index" not in vars(load_corpus(write_jsonl(tmp_path / "one.jsonl", [review_record("r0")])))
    with pytest.raises(AttributeError, match="'Corpus' object has no attribute 'serie_index'"):
        corpus.serie_index  # noqa: B018


def test_series_index_given_compared_replaced_and_pickled(tmp_path):
    reviews = _loaded_reviews(tmp_path)
    with pytest.raises(TypeError, match="series_index"):
        Corpus(reviews=reviews, series_index={"beta": (1, 2, 3), "甄嬛传": (0,)})
    unread, read = Corpus(reviews=reviews), Corpus(reviews=reviews)
    assert read.series_index == {"甄嬛传": (0,), "beta": (1, 2, 3)}
    assert unread == read
    assert repr(unread) == repr(read)
    assert pickle.loads(pickle.dumps(unread)).series_index == read.series_index
    assert pickle.loads(pickle.dumps(read)).series_index == read.series_index
    # replace rebuilds the index from the new reviews, also once it has been read
    reversed_ = dataclasses.replace(read, reviews=reviews[::-1])
    assert reversed_.series_index == {"beta": (0, 1, 2), "甄嬛传": (3,)}


_RECORDS = [
    {"none": None, "empty": [], "nested": [[], [[1, [2]], {"k": None}], {}], "z": {"b": [], "a": {}}},
    {"big": 2**64 + 1, "neg_big": -(2**70), "huge": 10**40, "zero": 0, "bools": [True, False]},
    {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "floats": [0.1, -0.0, 1e300, 5e-324, 1.0]},
    {"text": "皇上 \"q\" \\ \n \t \x00 \x7f   \U0001f600 ﻿", "é": "key order", "Z": 1, "a": 2},
    {},
]


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c_encoder", "without_c_encoder"])
def test_json_lines_gives_json_dumps_bytes(monkeypatch, c_encoder):
    if not c_encoder:
        monkeypatch.setattr(revclass.corpus, "c_make_encoder", None)
    expected = "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in _RECORDS)
    assert "".join(iter_json_lines(_RECORDS)).encode("utf-8") == expected.encode("utf-8")
    assert "".join(iter_json_lines(iter(_RECORDS))) == expected and "".join(iter_json_lines([])) == ""


def test_json_lines_fails_as_json_dumps_fails():
    cyclic: dict = {"a": []}
    cyclic["a"].append(cyclic)
    for bad in (cyclic, {"s": {1, 2}}, {"k": 1, 2: "mixed keys"}):
        with pytest.raises((ValueError, TypeError)) as want:
            json.dumps(bad, ensure_ascii=False, sort_keys=True)
        with pytest.raises(want.type) as got:
            "".join(iter_json_lines([{"ok": 1}, bad]))
        assert str(got.value) == str(want.value)
    # one list twice is no cycle
    shared = [1]
    assert "".join(iter_json_lines([{"a": shared, "b": shared}])) == '{"a": [1], "b": [1]}\n'


def _strip_loop(path):
    """The reader's blank-line test as it was: a line is skipped when strip() empties it."""
    text = path.read_text(encoding="utf-8")
    return [(f"{path}: line {n}", json.loads(line)) for n, line in enumerate(text.split("\n"), 1) if line.strip()]


@pytest.mark.parametrize("blank", ["\t", "\x1c", "\x85", "　", "\x0b\x0c\x1d\x1e\x1f \xa0   "])
def test_whitespace_only_lines_are_skipped_as_strip_skipped_them(tmp_path, blank):
    path = tmp_path / "lines.jsonl"
    path.write_text(f'{blank}\n{{"a": 1}}\n{blank * 3}\n\n{{"b": 2}}\n{blank}', encoding="utf-8")
    assert list(read_json_lines(path, CorpusFormatError)) == _strip_loop(path)
    assert [w for w, _ in read_json_lines(path, CorpusFormatError)] == [f"{path}: line 2", f"{path}: line 5"]


def test_isspace_and_strip_agree_on_every_character():
    chars = list(map(chr, range(0x110000)))
    assert [c for c in chars if c.isspace()] == [c for c in chars if not c.strip()]


def _indented_bytes(obj) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n").encode("utf-8")


_DOCUMENTS = [
    *_RECORDS,
    [],
    [[], {}, [[]], [{}], {"a": []}, {"b": {"c": {}}}],
    {"scalars": [Category.ROLE, np.float64(0.25), np.float64("nan"), 3, "x", None, True], "cat": Category.NOISE},
    {"mixed": [1, "a", [2, {"b": (3, 4.5)}], {}, None, (), (1,), [[]]], "tuple": ("甄", -0.0, 5e-324)},
    {"K": 2, "vocab": ["a", "b"], "topic_word": [[0.1, 0.2], [0.3, math.inf]], "doc_topic": [[0.5, 0.5]]},
    {"class": 1, "k": 2, "terms": [{"term": "甄\n\"q\"", "score": 0.5}, {"term": "\x00\x1f", "score": -math.inf}]},
    {"z": {"y": {"x": [1, {"w": [None, math.nan, 10**40, -(2**70)]}]}}},
    "top-level \u2028 string",
    -7,
    1e300,
    None,
    (1, [2, (3,)]),
    # keys json.dumps turns into strings: the writer leaves these to it
    {1: "a", 10: [3], 2: {"k": 1}},
    {"a": {0: 1, -1: [2]}},
    {True: 1, False: [None]},
    {2.5: [1], 1.5: {}},
]


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c_encoder", "without_c_encoder"])
def test_write_json_atomic_gives_json_dumps_indent_bytes(tmp_path, monkeypatch, c_encoder):
    if not c_encoder:
        monkeypatch.setattr(revclass.corpus, "c_make_encoder", None)
    for i, document in enumerate(_DOCUMENTS):
        path = tmp_path / f"{i}.json"
        write_json_atomic(path, document)
        assert path.read_bytes() == _indented_bytes(document), document


def _random_document(rng, depth=0):
    scalars = (
        lambda: rng.random(), lambda: -0.0, lambda: math.nan, lambda: -math.inf, lambda: 5e-324,
        lambda: rng.randint(-(10**30), 10**30), lambda: np.float64(rng.random()), lambda: Category(rng.randrange(8)),
        lambda: rng.choice([True, False, None]), lambda: "".join(rng.choices("aé\n\t\"\\\x00\x1f😀甄/ ", k=rng.randint(0, 5))),
    )
    kind = rng.random()
    if depth > 3 or kind < 0.3:
        return rng.choice(scalars)()
    n = rng.randint(0, 4)
    if kind < 0.55:
        return [_random_document(rng, depth + 1) for _ in range(n)]
    if kind < 0.65:
        return tuple(_random_document(rng, depth + 1) for _ in range(n))
    if kind < 0.8:
        return [rng.choice(scalars)() for _ in range(n)]
    return {rng.choice("aZé甄_") * rng.randint(1, 2) + str(i): _random_document(rng, depth + 1) for i in range(n)}


def test_write_json_atomic_gives_json_dumps_indent_bytes_on_random_documents(tmp_path):
    rng = random.Random(14)
    path = tmp_path / "doc.json"
    for _ in range(500):
        document = _random_document(rng)
        write_json_atomic(path, document)
        assert path.read_bytes() == _indented_bytes(document), document


def test_write_json_atomic_encodes_str_keyed_documents_without_json_dumps(tmp_path, monkeypatch):
    documents = _DOCUMENTS[:-4]
    expected = [_indented_bytes(d) for d in documents]

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(revclass.corpus.json, "dumps", refuse)
    for i, (document, want) in enumerate(zip(documents, expected)):
        write_json_atomic(tmp_path / f"{i}.json", document)
        assert (tmp_path / f"{i}.json").read_bytes() == want


def test_write_json_atomic_fails_as_json_dumps_fails(tmp_path):
    cyclic: dict = {"a": [1.0, {}]}
    cyclic["a"][1]["self"] = cyclic
    looped: list = [[0.5]]
    looped[0].append(looped)
    for bad in (cyclic, looped, {"s": {1, 2}}, [1, [object()]], {"k": 1, 2: "mixed keys"}, {"f": [np.int64(1)]}):
        with pytest.raises((ValueError, TypeError)) as want:
            json.dumps(bad, ensure_ascii=False, sort_keys=True, indent=2)
        with pytest.raises(want.type) as got:
            write_json_atomic(tmp_path / "bad.json", bad)
        assert str(got.value) == str(want.value)
        assert list(tmp_path.iterdir()) == []
    # one list twice is no cycle
    shared = [1]
    write_json_atomic(tmp_path / "shared.json", {"a": shared, "b": [shared]})
    assert (tmp_path / "shared.json").read_bytes() == _indented_bytes({"a": shared, "b": [shared]})


def test_write_text_atomic_writes_chunks_and_a_chunk_that_raises_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "old\n")

    def chunks():
        yield "new "
        yield "x" * 100_000  # more than the file's buffer, so bytes reach the temporary file
        raise RuntimeError("tokenizing failed")

    with pytest.raises(RuntimeError, match="tokenizing failed"):
        write_text_atomic(path, chunks())
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    write_text_atomic(path, iter(["a\n", "", "皇上\n"]))
    assert path.read_bytes() == "a\n皇上\n".encode("utf-8")


def test_write_csv_writes_floats_to_6_decimals_and_the_rest_with_str(tmp_path):
    rows = [
        ("a", 0.1234565, 2, Category.ROLE, True),
        ["b", np.float64(-0.0), np.int64(3), None, math.nan],
        ("c", math.inf, 1e20, "x,%s%%", 7),
        (),
        ("a", 1.0, 5, Category.PLOT, False),
    ]
    write_csv(tmp_path / "t.csv", ("name", "v", "w", "x", "y"), rows)
    hand = [",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row) for row in rows]
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "\n".join(["name,v,w,x,y", *hand]) + "\n"


def _previous_read_json_lines(path, error):
    """read_json_lines as it was, for files of valid JSON objects: the whole
    text read and split into lines before the first line is parsed."""
    lines = enumerate(revclass.corpus.read_text(path, error).split("\n"), start=1)
    return [(f"{path}: line {n}", json.loads(line)) for n, line in lines if line and not line.isspace()]


def _read_until_error(path):
    """The items read_json_lines yields, and the message of the error it ends with (or None)."""
    got = []
    try:
        for item in read_json_lines(path, CorpusFormatError):
            got.append(item)
    except CorpusFormatError as exc:
        return got, str(exc)
    return got, None


_BLOCK_SIZES = [1, 2, 3, 7]


@pytest.mark.parametrize("block", _BLOCK_SIZES)
class TestReadJsonLinesByBlock:
    """read_json_lines reads a block of bytes at a time (module constant
    _READ_BLOCK, patched small here) and gives the lines, numbers and errors
    of read_text(...).split("\\n") whatever the block size."""

    def test_crlf_lone_cr_and_blank_lines_give_the_text_mode_lines(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(revclass.corpus, "_READ_BLOCK", block, raising=False)
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b'{"a": 1}\r\n\r\n{"b": 2}\r{"c": 3}\r\r\n \t\r\n{"d": 4}\n\r{"e": 5}\r')
        got = list(read_json_lines(path, CorpusFormatError))
        assert got == _previous_read_json_lines(path, CorpusFormatError)
        assert [w for w, _ in got] == [f"{path}: line {n}" for n in (1, 3, 4, 7, 9)]

    def test_a_character_split_across_reads(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(revclass.corpus, "_READ_BLOCK", block, raising=False)
        path = tmp_path / "lines.jsonl"
        # Characters of 2, 3 and 4 bytes; the 3-byte one spans bytes 7 to 9.
        path.write_text('{"a": "皇é"}\n{"b": "\U0001f600x"}\r\n{"c": "好"}', encoding="utf-8")
        assert list(read_json_lines(path, CorpusFormatError)) == [
            (f"{path}: line 1", {"a": "皇é"}),
            (f"{path}: line 2", {"b": "\U0001f600x"}),
            (f"{path}: line 3", {"c": "好"}),
        ]

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe7\x9a", b"\xed\xa0\x80"], ids=["ff", "truncated", "surrogate"])
    def test_an_invalid_byte_after_the_first_block_is_named_by_its_offset_in_the_file(
        self, tmp_path, monkeypatch, block, bad
    ):
        monkeypatch.setattr(revclass.corpus, "_READ_BLOCK", block, raising=False)
        path = tmp_path / "lines.jsonl"
        data = b'{"a": "\xe7\x9a\x87"}\r\n\n{"b": 2}\r{"c": "' + bad + b'"}\n{"d": 4}\n'
        path.write_bytes(data)
        with pytest.raises(CorpusFormatError) as whole:
            revclass.corpus.read_text(path, CorpusFormatError)
        assert str(whole.value) == f"{path}: invalid UTF-8 at byte {data.rindex(bad)}"
        with pytest.raises(CorpusFormatError) as by_block:
            list(read_json_lines(path, CorpusFormatError))
        assert str(by_block.value) == str(whole.value)

    def test_errors_come_in_file_order(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(revclass.corpus, "_READ_BLOCK", block, raising=False)
        path = tmp_path / "lines.jsonl"
        # A malformed line before an invalid byte is the error.
        path.write_bytes(b'{"a": 1}\r\n{"b": \n{"c": "\xff"}\n')
        with pytest.raises(CorpusFormatError, match=r": line 2: invalid JSON \("):
            list(read_json_lines(path, CorpusFormatError))
        # The lines before the invalid byte's line are read before it is named.
        path.write_bytes(b'{"a": 1}\r\n\n{"b": 2}\r{"c": "\xe7\x9a"}\n["not an object"]\n')
        assert _read_until_error(path) == (
            [(f"{path}: line 1", {"a": 1}), (f"{path}: line 3", {"b": 2})],
            f"{path}: invalid UTF-8 at byte 27",
        )


def test_read_json_lines_by_block_equals_the_whole_text_split_on_random_files(tmp_path, monkeypatch):
    rng = random.Random(26)
    pieces = ['{"a": 1}', '{"t": "皇上 很 好看"}', '{"e": "\U0001f600 é"}', '{"s": " \\r\\n "}', "", " ", "\t\x0b",
              "\x85", "　", '{"u": "  "}', '{"x": [1, {"y": null}]}']
    ends = ["\n", "\r\n", "\r"]
    path = tmp_path / "lines.jsonl"
    for case in range(300):
        lines = [rng.choice(pieces) for _ in range(rng.randint(0, 12))]
        data = "".join(line + rng.choice(ends) for line in lines).encode("utf-8")
        if rng.random() < 0.5:
            data += rng.choice(pieces).encode("utf-8")
        invalid = data and rng.random() < 0.3
        if invalid:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice([b"\xff", b"\xc3", b"\xe7\x9a", b"\x80"]) + data[at:]
        path.write_bytes(data)
        if invalid:
            with pytest.raises(CorpusFormatError) as whole:
                revclass.corpus.read_text(path, CorpusFormatError)
            want = str(whole.value)
        else:
            want = _previous_read_json_lines(path, CorpusFormatError)
        read = []
        for block in [*_BLOCK_SIZES, 2**18]:
            monkeypatch.setattr(revclass.corpus, "_READ_BLOCK", block, raising=False)
            got, message = _read_until_error(path)
            assert (message if invalid else got) == want, (case, block, data)
            read.append(got)
        # What is read before an error does not depend on the block size either.
        assert all(got == read[0] for got in read), (case, data)


_FMAX = sys.float_info.max
# Fields of one scalar type without test, choices or null: a list of them is
# checked in C-level passes over the whole list.
_PLAIN_FIELDS = {
    "number": revclass.corpus.NUMBER,
    "positive": revclass.corpus.POSITIVE,
    "unit": Field(float, 0, 1),
    "open_unit": Field(float, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)),
    "category": integer(0, 7),
    "int_at_least_1": Field(int, 1),
    "string": Field(str),
    "non_empty": revclass.corpus.NON_EMPTY,
    "short": Field(str, 1, 3),
}
_ITEM_LISTS = [
    [], [0], [1], [7, 8], [0.0], [-0.0], [0.5, 1], [1, 2.5], [5e-324], [True], [False, 1], [1, True], [None],
    [math.nan], [1.0, math.nan], [math.nan, 1.0], [math.nan, -1.0], [math.inf], [-math.inf, 0.0],
    [_FMAX, -_FMAX], [int(_FMAX)], [int(_FMAX) + 1], [1.0, 10**400], [-(10**400), 1], [10**400, math.nan],
    [2**63 - 1], [2**63], [-(2**63)], [""], ["a", ""], ["abc"], ["abcd", "a"], ["a", 1], [1, "a"], [[1]], [{}],
]


@pytest.mark.parametrize("field", _PLAIN_FIELDS.values(), ids=_PLAIN_FIELDS)
class TestListItemsInOnePass:
    def test_items_are_accepted_and_rejected_as_by_one_check_each(self, field):
        for values in _ITEM_LISTS:
            one_each = all(revclass.corpus.fits(v, field) for v in values)
            assert revclass.corpus._all_fit(values, field) == one_each, values
            assert revclass.corpus.fits(values, Field(list, items=field)) == one_each, values

    def test_no_item_is_checked_on_its_own(self, field, monkeypatch):
        monkeypatch.setattr(revclass.corpus, "fits", lambda value, f: pytest.fail("an item was checked on its own"))
        for values in _ITEM_LISTS:
            revclass.corpus._all_fit(values, field)


def test_items_of_fields_with_a_test_or_choices_are_checked_one_by_one():
    for field, values, ok in [
        (one_of(("a", "b")), ["a", "b"], True), (one_of(("a", "b")), ["a", "c"], False),
        (Field(int, test=lambda v: v % 2 == 0), [2, 4], True), (Field(int, test=lambda v: v % 2 == 0), [2, 3], False),
        (Field(int, nullable=True), [1, None], True), (Field(list, items=Field(int)), [[1], [2]], True),
    ]:
        assert revclass.corpus._all_fit(values, field) is ok


def _closed() -> Field:
    return Field(dict, closed=True, fields={
        "a": integer(0),
        "inner": Field(dict, closed=True, optional=True, fields={"x": integer(0)}),
        "open": Field(dict, optional=True, fields={"y": integer(0)}),
    })


@pytest.mark.parametrize(
    "value, message",
    [
        # The unknown keys are named, sorted and by path, before any value is checked.
        ({"a": 1, "z": 2}, "f.json: unknown key(s) 'z'"),
        ({"a": "bad", "k": 2, "j": 3}, "f.json: unknown key(s) 'j', 'k'"),
        ({"a": 1, "inner": {"x": -1, "w": 0}}, "f.json: unknown key(s) 'inner.w'"),
        ({"z": 0, "inner": {"w": 0}}, "f.json: unknown key(s) 'inner.w', 'z'"),
        # An open object inside a closed one holds any other key; its fields are still checked.
        ({"a": 1, "open": {"y": 0, "other": 1}}, None),
        ({"a": 1, "open": {"y": -1, "other": 1}}, "f.json: field 'open.y' must be an integer in [0, "),
        # A value that is not an object is no object's keys: its type is the error.
        ({"a": 1, "inner": [1]}, "f.json: field 'inner' must be "),
    ],
)
def test_check_rejects_the_keys_that_a_closed_declaration_does_not_list(value, message):
    if message is None:
        assert revclass.corpus.check(value, _closed(), "f.json", ValueError) is value
        return
    with pytest.raises(ValueError) as info:
        revclass.corpus.check(value, _closed(), "f.json", ValueError)
    assert str(info.value).startswith(message)


def test_check_without_a_file_names_the_unknown_keys_alone():
    with pytest.raises(LookupError, match=r"^unknown key\(s\) 'b'$"):
        revclass.corpus.check({"a": 0, "b": 1}, _closed(), "", LookupError)
