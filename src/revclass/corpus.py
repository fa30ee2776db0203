"""Labeled review corpora: reading and writing, annotator-agreement filtering,
and the atomic file writers that every output of the package goes through."""

from __future__ import annotations

import enum
import functools
import json
import json.scanner
import os
import unicodedata
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring
from typing import Iterable, Iterator, Optional


class CorpusFormatError(ValueError):
    """Raised when an input file of the text pipeline (corpus, tokens, stop
    words, dictionary) is malformed; the message names the file."""


class Category(enum.IntEnum):
    """The eight review categories, in fixed index order."""

    PLOT = 0
    ACTOR = 1
    ROLE = 2
    DIALOGUE = 3
    ANALYSIS = 4
    PLATFORM = 5
    THUMB = 6
    NOISE = 7

    @property
    def display_name(self) -> str:
        return _CATEGORY_NAMES[self.value]


_CATEGORY_NAMES = (
    "plot",
    "actor/actress",
    "role",
    "dialogue",
    "analysis",
    "platform",
    "thumb-up-or-down",
    "noise/others",
)

N_CATEGORIES = len(_CATEGORY_NAMES)
_CATEGORIES = tuple(Category)


@dataclass(frozen=True, slots=True)
class Review:
    """One review with its provenance and per-annotator category labels."""

    id: str
    series: str
    text: str
    annotations: tuple[int, ...]
    episode: Optional[int] = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("review id must be non-empty")
        if not self.text:
            raise ValueError(f"review {self.id}: text must be non-empty")
        if self.episode is not None and self.episode < 0:
            raise ValueError(f"review {self.id}: episode must be non-negative")
        anns = self.annotations
        if anns and not (0 <= min(anns) and max(anns) < N_CATEGORIES):
            a = next(a for a in anns if not 0 <= a < N_CATEGORIES)
            raise ValueError(f"review {self.id}: annotation {a} outside [0, {N_CATEGORIES - 1}]")


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable collection of reviews.

    ``labels[i]`` is the resolved category of ``reviews[i]`` when all its
    annotations agree (set by :func:`agreement_filter`), else ``None``.
    """

    reviews: tuple[Review, ...]
    labels: tuple[Optional[Category], ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", (None,) * len(self.reviews))
        if len(self.labels) != len(self.reviews):
            raise ValueError("labels must align with reviews")

    @functools.cached_property
    def series_index(self) -> dict[str, tuple[int, ...]]:
        """Review positions by series, series in first-occurrence order."""
        index: dict[str, list[int]] = {}
        for i, r in enumerate(self.reviews):
            index.setdefault(r.series, []).append(i)
        return {s: tuple(ix) for s, ix in index.items()}

    def __len__(self) -> int:
        return len(self.reviews)


_REQUIRED_FIELDS = ("id", "series", "text", "annotations")

# Review's slot setters: _parse_line checks more strictly than __post_init__, so it skips it.
_set_id, _set_series, _set_text, _set_annotations, _set_episode = (getattr(Review, s).__set__ for s in Review.__slots__)


def _parse_line(obj: dict, where: str) -> Review:
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise CorpusFormatError(f"{where}: missing field {name!r}")
    rid = obj["id"]
    if not isinstance(rid, str) or not rid:
        raise CorpusFormatError(f"{where}: field 'id' must be a non-empty string")
    series = obj["series"]
    if not isinstance(series, str) or not series:
        raise CorpusFormatError(f"{where}: field 'series' must be a non-empty string")
    text = obj["text"]
    if not isinstance(text, str):
        raise CorpusFormatError(f"{where}: field 'text' must be a string")
    text = unicodedata.normalize("NFC", text)
    if not text:
        raise CorpusFormatError(f"{where}: field 'text' is empty after normalization")
    annotations = obj["annotations"]
    if not isinstance(annotations, list) or not set(map(type, annotations)) <= {int}:
        raise CorpusFormatError(f"{where}: field 'annotations' must be a list of integers")
    if annotations and not (0 <= min(annotations) and max(annotations) < N_CATEGORIES):
        raise CorpusFormatError(
            f"{where}: field 'annotations' has a value outside [0, {N_CATEGORIES - 1}]"
        )
    episode = obj.get("episode")
    if episode is not None and (isinstance(episode, bool) or not isinstance(episode, int) or episode < 0):
        raise CorpusFormatError(f"{where}: field 'episode' must be a non-negative integer")
    review = object.__new__(Review)
    _set_id(review, rid)
    _set_series(review, series)
    _set_text(review, text)
    _set_annotations(review, tuple(annotations))
    _set_episode(review, episode)
    return review


def load_corpus(path) -> Corpus:
    """Load a UTF-8, one-JSON-object-per-line corpus file.

    Unknown fields are ignored and empty lines skipped.  Text is NFC
    normalized at load.  Raises :class:`CorpusFormatError` naming the file,
    the line and the field on malformed input, and on duplicate review ids.
    """
    reviews: list[Review] = []
    seen: set[str] = set()
    for where, obj in read_json_lines(path, CorpusFormatError):
        review = _parse_line(obj, where)
        if review.id in seen:
            raise CorpusFormatError(f"{where}: duplicate review id {review.id!r}")
        seen.add(review.id)
        reviews.append(review)
    return Corpus(reviews=tuple(reviews))


def write_corpus(corpus: Corpus, path) -> None:
    """Write reviews as :func:`load_corpus` reads them: one JSON object per
    line with sorted keys, non-ASCII text as is, and ``episode`` only when
    set.  Resolved labels are not written."""
    def records():
        for r in corpus.reviews:
            record = {"id": r.id, "series": r.series, "text": r.text, "annotations": list(r.annotations)}
            if r.episode is not None:
                record["episode"] = r.episode
            yield record

    write_text_atomic(path, iter_json_lines(records()))


def agreement_filter(corpus: Corpus) -> tuple[Corpus, dict[str, int]]:
    """Keep only reviews whose annotators all assigned the same label.

    Reviews with fewer than two annotations are dropped and counted, as are
    disagreements.  Kept reviews get their common annotation as resolved
    label; order is preserved.  Returns ``(filtered_corpus, drop_counts)``
    with counts keyed ``"too_few_annotations"`` and ``"disagreement"``.
    """
    kept: list[Review] = []
    labels: list[Category] = []
    drops = {"too_few_annotations": 0, "disagreement": 0}
    for review in corpus.reviews:
        anns = review.annotations
        if len(anns) < 2:
            drops["too_few_annotations"] += 1
        elif len(set(anns)) == 1:
            kept.append(review)
            labels.append(_CATEGORIES[anns[0]])
        else:
            drops["disagreement"] += 1
    return Corpus(reviews=tuple(kept), labels=tuple(labels)), drops


def read_text(path, error: type[Exception]) -> str:
    """The text of UTF-8 file ``path`` with newlines as ``\\n``; bytes that
    are not UTF-8 raise ``error`` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid UTF-8 at byte {exc.start}") from None


def _json_object(text: str, where: str, error: type[Exception]) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise error(f"{where}: expected a JSON object")
    return obj


def read_json(path, error: type[Exception]) -> dict:
    """The JSON object that UTF-8 file ``path`` holds; a file that is not
    UTF-8, not JSON or not an object raises ``error`` naming the file."""
    return _json_object(read_text(path, error), str(path), error)


# The C scanner that json.loads runs, without its per-call Python wrapper.
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def read_json_lines(path, error: type[Exception]):
    """Yield ``("<path>: line <n>", obj)`` for each non-blank line of a UTF-8
    JSON-lines file; a line that is not a JSON object, or a file that is not
    UTF-8, raises ``error`` naming the file (and the line)."""
    for lineno, line in enumerate(read_text(path, error).split("\n"), start=1):
        if line and not line.isspace():
            where = f"{path}: line {lineno}"
            # A line that is exactly one object takes the scanner; any other
            # line, valid or not, goes through json.loads and its messages.
            if line[0] == "{":
                try:
                    obj, end = _scan_json(line, 0)
                except (ValueError, StopIteration):
                    end = -1
                if end == len(line):
                    yield where, obj
                    continue
            yield where, _json_object(line, where, error)


_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def iter_json_lines(records: Iterable[dict]) -> Iterator[str]:
    """One ``json.dumps(record, ensure_ascii=False, sort_keys=True)`` line per
    record, each encoded only when it is drawn, so that a writer given the
    lines holds one record's line at a time, never the whole text."""
    e = _LINE_ENCODER
    if c_make_encoder is None:
        return (e.encode(record) + "\n" for record in records)
    # The C encoder that e.encode would build anew for every record, built once per call.
    encode = c_make_encoder({}, e.default, encode_basestring, e.indent, e.key_separator,
                            e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan)
    return ("".join(encode(record, 0)) + "\n" for record in records)


def write_text_atomic(path, text: str | Iterable[str]) -> None:
    """Write ``text``, a str or an iterable of str chunks written as they are
    drawn, as UTF-8 to ``path`` (creating its directory) through a uniquely
    named temporary file in the same directory and a rename: readers see the
    old file or the new one, and a failed write, or a chunk that raises,
    leaves nothing behind.
    """
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}-{name}")
    # Exclusive create, unlike mkstemp, keeps the mode a plain open() gives.
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``rows`` under ``header`` as CSV, atomically: floats as ``%.6f``, the rest with ``str``."""
    formats: dict[tuple[type, ...], str] = {}  # one row format per sequence of value types
    lines = [",".join(header) + "\n"]
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(["%.6f" if issubclass(t, float) else "%s" for t in types]) + "\n"
        lines.append(fmt % row)
    write_text_atomic(path, "".join(lines))


# Scalar types that the C encoder writes as json's indenting (pure-Python) encoder does.
_PLAIN_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _c_encoder(depth: int):
    """A C encoder that puts each member of a container of plain scalars on
    its own line, indented ``depth`` levels of 2 spaces."""
    e = _LINE_ENCODER
    return c_make_encoder(None, e.default, encode_basestring, None, ": ", ",\n" + "  " * depth,
                          True, False, True)


def _indented_json(obj, depth: int, markers: set) -> str:
    """``json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)`` for
    ``obj`` opened at indent ``depth``; raises TypeError (non-str keys, an
    unknown type) or ValueError (a cycle) for what it leaves to json.dumps."""
    if isinstance(obj, dict):
        if {*map(type, obj)} - {str}:
            raise TypeError("a key is not a str")
        members, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        members, brackets = obj, "[]"
    else:
        return "".join(_c_encoder(0)(obj, 0))
    if not members:
        return brackets
    indent = "\n" + "  " * (depth + 1)
    if {*map(type, members)} <= _PLAIN_SCALARS:
        inner = "".join(_c_encoder(depth + 1)(obj, 0))[1:-1]
    else:
        if id(obj) in markers:
            raise ValueError("Circular reference detected")
        markers.add(id(obj))
        if brackets == "{}":
            parts = [f"{encode_basestring(k)}: {_indented_json(v, depth + 1, markers)}" for k, v in sorted(obj.items())]
        else:
            parts = [_indented_json(v, depth + 1, markers) for v in obj]
        markers.remove(id(obj))
        inner = ("," + indent).join(parts)
    return f"{brackets[0]}{indent}{inner}{indent[:-2]}{brackets[1]}"


def write_json_atomic(path, obj) -> None:
    """Write ``obj`` atomically as ``json.dumps(obj, ensure_ascii=False,
    sort_keys=True, indent=2)`` plus a newline.

    json writes an indent with its pure-Python encoder, so the dicts and lists
    are walked here instead, and each container whose members are all plain
    scalars (dict keys all ``str``) is one call of a C encoder whose item
    separator carries the newline and indent.  Anything else (non-str keys,
    an unknown type, a cycle, no C encoder) is left to json.dumps, which
    writes the same bytes or raises its own error.
    """
    text = None
    if c_make_encoder is not None:
        try:
            text = _indented_json(obj, 0, set())
        except (TypeError, ValueError):
            pass
    if text is None:
        text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)
    write_text_atomic(path, text + "\n")
