"""Labeled review corpora: reading and writing, annotator-agreement filtering,
and the atomic file writers that every output of the package goes through."""

from __future__ import annotations

import enum
import functools
import json
import json.scanner
import math
import os
import sys
import unicodedata
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring
from typing import Callable, Iterable, Iterator, Optional, Union


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


INT64_MAX = 2**63 - 1

# The most cells a setting or a synth spec may make one table hold, checked before it is built: lda's K x (D + V)
# Gibbs counts (about 40 bytes a cell), the SVM's epochs x N / 2 harmonic sums and the tokens of a synthetic corpus.
MAX_TABLE_CELLS = 2**24


@dataclass(frozen=True)
class Field:
    """One field of a boundary file, declared once for :func:`check`: its JSON
    type or types (``int`` is never a bool; ``float`` is any finite number),
    its least and most value (a length, for a string, list or object), what
    each item of a list is, the fields of an object, each required unless
    ``optional``, whether the object is ``closed`` to keys it does not list,
    the ``choices`` it takes, whether it takes null, a last ``test``, and the
    ``phrase`` that says what it must be."""

    type: Union[type, tuple[type, ...]]
    least: float = -math.inf
    most: float = math.inf
    phrase: str = ""
    items: Optional[Field] = None
    fields: Optional[dict[str, Field]] = None
    choices: tuple = ()
    nullable: bool = False
    optional: bool = False
    closed: bool = False
    test: Optional[Callable[[object], bool]] = None


def integer(least: int, most: int = INT64_MAX) -> Field:
    return Field(int, least, most, phrase=f"an integer in [{least}, {most}]")


def one_of(choices: tuple) -> Field:
    return Field(str, choices=choices, phrase=f"one of {choices}")


NON_EMPTY = Field(str, 1, phrase="a non-empty string")
NUMBER = Field(float, phrase="a finite number")
POSITIVE = Field(float, math.nextafter(0.0, 1.0), phrase="a finite number > 0")
SEED = Field(int, 0, phrase="an integer >= 0")  # a seed is not a count, so it has no most value


def check(value, field: Field, where, error: type[Exception], path: str = ""):
    """``value``, field ``path`` of file ``where``, when it is as ``field``
    declares, with an object's fields and a list's lists and objects checked
    in turn as ``<path>.<name>`` and ``<path>[<i>]``.  Otherwise raises
    ``error("<where>: field '<path>' must be <phrase>")``, or ``"<where>:
    missing field '<path>'"``; ``where`` may be empty, and without a path it
    names the value itself, such as a flag: ``"<where> must be <phrase>"``.
    Before any value, a call without a path rejects every key that a closed
    object declaration does not list: ``"<where>: unknown key(s) '<path>', ..."``."""
    at = f"{where}: " if where else ""
    unknown = [] if path else sorted(_unknown_keys(value, field))
    if unknown:
        raise error(f"{at}unknown key(s) {', '.join(map(repr, unknown))}")
    if not fits(value, field):
        raise error(f"{at}field {path!r} must be {field.phrase}" if path else f"{where} must be {field.phrase}")
    if value is None:
        return value
    for name, f in (field.fields or {}).items():
        sub = f"{path}.{name}" if path else name
        if name in value:
            check(value[name], f, where, error, sub)
        elif not f.optional:
            raise error(f"{at}missing field {sub!r}")
    if field.items is not None and field.items.type in (list, dict):
        for i, item in enumerate(value):
            check(item, field.items, where, error, f"{path}[{i}]")
    return value


def _unknown_keys(value, f: Field, prefix: str = "") -> Iterator[str]:
    """The paths of the keys of object ``value``, and of the objects it holds, that a closed ``f`` does not list."""
    for name, item in value.items() if type(value) is dict and f.fields is not None else ():
        if name in f.fields:
            yield from _unknown_keys(item, f.fields[name], f"{prefix}{name}.")
        elif f.closed:
            yield prefix + name


def fits(value, f: Field) -> bool:
    """Whether ``value`` is as ``f`` declares, but for what :func:`check` takes in turn."""
    if value is None or f.choices:
        return f.nullable if value is None else value in f.choices
    kinds, kind = f.type if isinstance(f.type, tuple) else (f.type,), type(value)
    if kind not in kinds and not (kind is int and float in kinds):
        return False
    if kind is int or kind is float:  # NaN fails the bounds
        ok = f.least <= value <= f.most and (float not in kinds or abs(value) <= sys.float_info.max)
    else:
        item = f.items
        ok = f.least <= len(value) <= f.most and (item is None or item.type in (list, dict) or _all_fit(value, item))
    return ok and (f.test is None or f.test(value))


def _all_fit(values, f: Field) -> bool:
    """Whether every item of ``values`` fits ``f``: as a :func:`fits` call per
    item decides, but for a field of one scalar type without test, choices or
    null in C-level passes over the whole list."""
    if f.type not in (int, float, str) or f.test or f.choices or f.nullable:
        return all(fits(v, f) for v in values)
    if not values or not set(map(type, values)) <= ({int, float} if f.type is float else {f.type}):
        return not values
    values = list(map(len, values)) if f.type is str else values  # a string's bounds are on its length
    big = sys.float_info.max if f.type is float else math.inf
    # min and max pass over a NaN unless it comes first, where it fails the bounds; isnan comes last, when no int
    # is too large to be a float.
    return max(f.least, -big) <= min(values) and max(values) <= min(f.most, big) and not (
        f.type is float and any(map(math.isnan, values)))


# A corpus line's fields: _parse_line tests them in one pass, and words its errors by them.
_REVIEW_LINE = Field(dict, fields={
    "id": NON_EMPTY, "series": NON_EMPTY, "text": NON_EMPTY,
    "annotations": Field(list, items=integer(0, N_CATEGORIES - 1),
                         phrase=f"a list of integers in [0, {N_CATEGORIES - 1}]"),
    "episode": Field(int, 0, phrase="a non-negative integer", nullable=True, optional=True),
})

# Review's slot setters: _parse_line checks more strictly than __post_init__, so it skips it.
_set_id, _set_series, _set_text, _set_annotations, _set_episode = (getattr(Review, s).__set__ for s in Review.__slots__)


def _parse_line(obj: dict, where: str) -> Review:
    rid, series, text, annotations, episode = map(obj.get, ("id", "series", "text", "annotations", "episode"))
    if not (
        type(rid) is str and rid and type(series) is str and series and type(text) is str and text
        and type(annotations) is list and set(map(type, annotations)) <= {int}
        and (not annotations or 0 <= min(annotations) and max(annotations) < N_CATEGORIES)
        and (episode is None or type(episode) is int and episode >= 0)
    ):
        check(obj, _REVIEW_LINE, where, CorpusFormatError)
    review = object.__new__(Review)
    _set_id(review, rid)
    _set_series(review, series)
    # NFC never empties a non-empty text.
    _set_text(review, unicodedata.normalize("NFC", text))
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


# Bytes that read_json_lines reads at a time, then cuts at the last line end.
_READ_BLOCK = 2**18


def _text_blocks(path, error: type[Exception]) -> Iterator[str]:
    """The text of :func:`read_text` in blocks that end at a line end, but
    the last; a byte that is not UTF-8 raises ``error`` naming its offset in
    the file, after a block of the lines before its line."""
    with open(path, "rb") as fh:
        offset, rest, bad, more = 0, b"", None, True
        while more:
            # A line longer than a block takes reads that double the bytes held.
            data = fh.read(max(_READ_BLOCK, len(rest)))
            data, more = rest + data, bool(data)
            # Line ends are ASCII, so no cut falls inside a character; a "\r"
            # last may begin a "\r\n", so it ends no line until the next read.
            end = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1 if more else len(data)
            try:
                text = data[:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = offset + exc.start
                text = data[: max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1].decode("utf-8")
            offset, rest, data = offset + end, data[end:], None  # the block's bytes go before its lines are parsed
            yield text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
            if bad is not None:
                raise error(f"{path}: invalid UTF-8 at byte {bad}")


def read_json_lines(path, error: type[Exception]):
    """Yield ``("<path>: line <n>", obj)`` for each non-blank line of
    ``read_text(path, error).split("\\n")``, reading a block of lines at a
    time; a line that is not a JSON object, or a byte that is not UTF-8,
    raises ``error`` naming the file (and the line), in file order."""
    last = 0  # the lines before the block's first line
    for block in _text_blocks(path, error):
        lines = block.split("\n")
        for lineno, line in enumerate(lines, start=last + 1):
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
        last += len(lines) - 1  # a block's last piece begins the next block's first line


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
