"""Raw message ingestion: tweet JSONL, mbox email, and the canonical
corpus format.

Canonical corpus files are JSON lines, one object per message with keys
``author_id``, ``timestamp`` (ISO-8601 UTC, second precision, ``Z``
suffix), ``medium`` and ``text``, sorted by (author_id, timestamp).
Text is stored cleaned, so reading a corpus takes it verbatim. Each
author's lines are one contiguous run, so ``iter_authors`` can read the
file one author at a time, and ``split_corpus`` can cut it into byte
ranges at author changes that are read apart.

The streaming commands read a corpus through ``iter_author_texts``: per
author and medium, its texts alone, in timestamp-text order. A canonical
stamp is fixed-width, so its text order is its time order, and no
datetime or ``Message`` is made for it. ``iter_authors`` and
``read_corpus`` give ``Message`` objects for the API and ``ingest``.

Readers keep only what they return: a mailbox is read mail by mail, so
``ingest``'s memory grows with the messages it keeps, not with the file.
``split_records`` cuts a raw input at record starts into byte ranges
that ``parse_messages`` reads apart (``ByteRange``), and ``write_rows``
writes the ``corpus_rows`` of the kept messages, the one canonical
writer behind both ``ingest`` and ``write_corpus``.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import lru_cache, partial
from itertools import groupby
from json.encoder import encode_basestring as _quote
from operator import attrgetter, itemgetter
from typing import Iterator

from .atomic import atomic_write
from .errors import CorpusOrderError
from .lexicon import tokenize

_URL_PREFIXES = ("http://", "https://", "www.")
_ON_WROTE_RE = re.compile(r"^On .*wrote:$")
_SIG_DELIM = "-- "
_ORIG_MSG = "-----Original Message-----"

# Classic tweet timestamp ("Wed Aug 27 13:08:45 +0000 2008"). Parsed by
# hand because strptime's %a/%b depend on the process locale.
_TWEET_TS_RE = re.compile(
    r"^[A-Za-z]{3} ([A-Za-z]{3}) (\d{1,2}) (\d{2}):(\d{2}):(\d{2}) ([+-]\d{4}) (\d{4})$"
)
_MONTHS = {m: i + 1 for i, m in enumerate(
    ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
)}


@dataclass(slots=True)
class Message:
    """One timestamped utterance by one author in one medium.

    A message is plain data. Its timestamp is stored in UTC: a naive
    stamp is taken as UTC, and an aware one is converted (OverflowError
    when its UTC time is outside the datetime range). ``word_count`` is
    not stored; each read tokenizes ``text``.
    """

    author_id: str
    timestamp: datetime
    medium: str
    text: str

    def __post_init__(self):
        tz = self.timestamp.tzinfo
        if tz is None:
            self.timestamp = self.timestamp.replace(tzinfo=timezone.utc)
        elif tz is not timezone.utc:
            self.timestamp = self.timestamp.astimezone(timezone.utc)

    @property
    def word_count(self) -> int:
        """The tokenizer's count of ``text``."""
        return len(tokenize(self.text))


@dataclass
class AuthorCorpus:
    """One author's messages in one medium, ascending by timestamp
    (ties keep input order). ``messages`` holds ``Message`` objects, or,
    as ``iter_author_texts`` reads them, their texts alone:
    ``score_features``, ``count_matrix`` and
    ``StabilityExperiment.observe`` take either."""

    author_id: str
    medium: str
    messages: list[Message]

    @property
    def total_messages(self) -> int:
        return len(self.messages)


@dataclass
class ParseResult:
    """Parsed messages plus drop accounting: ``skipped`` counts records
    that were malformed or missing author/timestamp/text; ``filtered``
    counts well-formed records dropped by rule (retweets, non-English
    tweets); ``lines`` counts the JSONL lines read."""

    messages: list[Message] = field(default_factory=list)
    skipped: int = 0
    filtered: int = 0
    lines: int = 0


def _to_utc(dt: datetime) -> datetime | None:
    """``dt`` in UTC, a naive ``dt`` taken as UTC; None when the UTC time
    falls outside the datetime range (year 9999 at offset -23:59)."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        return None


def parse_timestamp(value) -> datetime | None:
    """Best-effort timestamp parse: ISO-8601 (Z or offset), the classic
    tweet format, or epoch seconds. None when unparseable or when its
    UTC time falls outside the datetime range."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return datetime.fromtimestamp(float(value), tz=timezone.utc)
        except (OverflowError, OSError, ValueError):
            return None
    if not isinstance(value, str) or not value.strip():
        return None
    text = value.strip()
    try:
        return _to_utc(datetime.fromisoformat(text.replace("Z", "+00:00")))
    except ValueError:
        pass
    m = _TWEET_TS_RE.match(text)
    if m:
        mon = _MONTHS.get(m.group(1))
        if mon is None:
            return None
        off = m.group(6)
        delta = timedelta(hours=int(off[1:3]), minutes=int(off[3:5]))
        if off[0] == "-":
            delta = -delta
        try:
            dt = datetime(int(m.group(7)), mon, int(m.group(2)),
                          int(m.group(3)), int(m.group(4)), int(m.group(5)),
                          tzinfo=timezone(delta))
        except ValueError:
            return None
        return _to_utc(dt)
    return None


def clean_text(raw: str, medium: str) -> str:
    """Normalize a message body ahead of tokenization.

    Removes URL tokens (http://, https://, www.); for twitter also
    removes @mentions and strips '#' from hashtags; collapses all
    whitespace to single spaces and trims.
    """
    if not raw:
        return ""
    out = []
    for token in raw.split():
        low = token.lower()
        if low.startswith(_URL_PREFIXES):
            continue
        if medium == "twitter":
            if token.startswith("@"):
                continue
            if token.startswith("#"):
                token = token.lstrip("#")
                if not token:
                    continue
        out.append(token)
    return " ".join(out)


def _is_retweet(record: dict, text: str) -> bool:
    if record.get("retweeted") is True:
        return True
    if "retweeted_status" in record:
        return True
    return text.startswith("RT @")


# Returned by a record adapter for a well-formed record dropped by rule.
_FILTERED = object()

# A lone surrogate cannot be encoded as UTF-8, so a message holding one
# could not be written. Lines are decoded with errors="replace", so only
# a JSON "\u" escape can produce one.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _has_surrogate(item) -> bool:
    """Whether a message's author_id, medium or text, or any field of a
    ``_text_record`` tuple, holds a lone surrogate."""
    fields = (item.author_id, item.medium, item.text) if isinstance(item, Message) else item
    return any(map(_SURROGATE_RE.search, fields))


# One decoder for every JSONL line. On a stripped line, raw_decode plus
# "the value ends the line" accepts and rejects exactly what json.loads
# does, without json.loads's two extra calls per record.
_decode = json.JSONDecoder().raw_decode


def _canonical_record(record: dict, medium: str):
    """A generic-jsonl record as a message with its text verbatim, or
    None when author_id, timestamp or text is missing or unusable. The
    record's own ``medium`` wins over ``medium``."""
    author = record.get("author_id")
    text = record.get("text")
    ts = parse_timestamp(record.get("timestamp"))
    if author is None or ts is None or not isinstance(text, str):
        return None
    return Message(str(author), ts, str(record.get("medium", medium)), text)


# A canonical stamp: ASCII digits, a four-digit year, a time of day and
# "Z". Its date still needs a check: "0000-02-30T00:00:00Z" matches too.
_CANONICAL_STAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]Z"
).fullmatch


# A corpus spans far fewer days than it has lines: each date is checked once.
@lru_cache(maxsize=1 << 12)
def _valid_date(date: str) -> bool:
    """Whether ``YYYY-MM-DD`` names a day of the datetime range."""
    try:
        datetime(int(date[:4]), int(date[5:7]), int(date[8:10]))
    except ValueError:
        return False
    return True


def _stamp_key(value) -> str | None:
    """A text that sorts, and ties, as ``parse_timestamp(value)`` does, or
    None where that is None: the canonical text of ``value``'s UTC time
    (``format_timestamp``), followed by its six-digit microseconds where
    it has any. A key without them is a prefix of the same second's keys
    with them, so it sorts first."""
    ts = parse_timestamp(value)
    if ts is None:
        return None
    key = format_timestamp(ts)
    return f"{key}{ts.microsecond:06d}" if ts.microsecond else key


def _text_record(record: dict, medium: str):
    """A canonical record as ``(author_id, stamp key, medium, text)``:
    None exactly where ``_canonical_record`` gives None, and the same
    coerced fields otherwise. A valid canonical stamp is its own key, and
    no datetime or Message is made for it; any other form goes through
    ``_stamp_key``."""
    author = record.get("author_id")
    text = record.get("text")
    if author is None or not isinstance(text, str):
        return None
    stamp = record.get("timestamp")
    if not (isinstance(stamp, str) and _CANONICAL_STAMP(stamp) and _valid_date(stamp[:10])):
        stamp = _stamp_key(stamp)
        if stamp is None:
            return None
    return str(author), stamp, str(record.get("medium", medium)), text


def _generic_record(record: dict, medium: str):
    msg = _canonical_record(record, medium)
    if msg is not None:
        msg.text = clean_text(msg.text, msg.medium)
    return msg


def _tweet_record(record: dict, medium: str):
    author = record.get("author_id")
    if author is None:
        user = record.get("user")
        if isinstance(user, dict):
            author = user.get("id_str")
    text = record.get("text")
    ts = parse_timestamp(record.get("timestamp", record.get("created_at")))
    if author is None or ts is None or not isinstance(text, str):
        return None
    if _is_retweet(record, text):
        return _FILTERED
    lang = record.get("lang")
    if isinstance(lang, str) and lang and lang != "en":
        return _FILTERED
    return Message(str(author), ts, medium, clean_text(text, medium))


def _parse_jsonl(stream, medium: str, adapt, tally: ParseResult) -> Iterator[Message]:
    """Parse JSON lines one at a time, yielding each message as its line
    is read. A line that is not one JSON object is skipped, as is any
    record ``adapt`` maps to None and any message whose author_id,
    medium or text holds a lone surrogate; ``adapt`` maps a record to a
    message, None or ``_FILTERED``. Drops and lines read are counted in
    ``tally``."""
    for raw_line in stream:
        tally.lines += 1
        line = raw_line.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        try:
            record, end = _decode(line)
        except (ValueError, RecursionError):  # also integers too long to convert, deep nesting
            tally.skipped += 1
            continue
        if end != len(line) or not isinstance(record, dict):
            tally.skipped += 1
            continue
        msg = adapt(record, medium)
        if msg is _FILTERED:
            tally.filtered += 1
        elif msg is None or ("\\u" in line and _has_surrogate(msg)):
            tally.skipped += 1
        else:
            yield msg


def strip_quoted(body: str) -> str:
    """Remove quoted/forwarded content from an email body.

    Line rules: drop lines starting with '>'; stop at a line equal
    (after trim) to the Original Message delimiter, at a trimmed line
    matching 'On ... wrote:', or at the exact signature delimiter
    '-- '; everything from a stop line onward is discarded.
    """
    kept = []
    for line in body.splitlines():
        trimmed = line.strip()
        if trimmed == _ORIG_MSG or _ON_WROTE_RE.match(trimmed) or line == _SIG_DELIM:
            break
        if line.startswith(">"):
            continue
        kept.append(line)
    return "\n".join(kept)


# A mailbox is read this many bytes at a time.
_MBOX_BLOCK = 1 << 16


def _lines(stream) -> Iterator[bytes]:
    """The lines of a byte stream, ends kept, as ``bytes.splitlines``
    splits the whole stream (at ``\\n``, ``\\r\\n`` and a lone ``\\r``),
    read a block at a time. A block's last line waits for the next block,
    which may go on with it or hold the ``\\n`` of its ``\\r\\n``."""
    rest = b""
    while block := stream.read(_MBOX_BLOCK):
        lines = (rest + block).splitlines(keepends=True)
        rest = lines.pop()
        yield from lines
    if rest:
        yield rest


def _message_boundaries(stream) -> Iterator[bytes]:
    """Each mail of a byte stream, yielded as soon as the next one starts:
    a mail starts at a ``From `` line that follows a blank line (or starts
    the stream), which is not part of it."""
    chunk: list[bytes] | None = None
    prev_blank = True
    for line in _lines(stream):
        if line.startswith(b"From ") and prev_blank:
            if chunk is not None:
                yield b"".join(chunk)
            chunk = []
        elif chunk is not None:
            chunk.append(line)
        prev_blank = line.strip() == b""
    if chunk is not None:
        yield b"".join(chunk)


def _first_text_plain(msg) -> str:
    parts = msg.walk() if msg.is_multipart() else [msg]
    for part in parts:
        if part.is_multipart() or part.get_content_type() != "text/plain":
            continue
        payload = part.get_payload(decode=True)
        if payload is None:
            continue
        charset = part.get_content_charset() or "utf-8"
        try:
            return payload.decode(charset, errors="replace")
        except (LookupError, ValueError):  # unknown codec, or one that refuses "replace" (idna)
            return payload.decode("utf-8", errors="replace")
    return ""


# A mailbox has far fewer senders than mails (the benchmark's has 109
# distinct From headers among 4,967 mails): the memo parses each once.
@lru_cache(maxsize=1 << 12)
def _sender(from_header: str) -> str:
    import email.utils  # here, not at the top: only ingest --format mbox parses mail

    return email.utils.parseaddr(from_header)[1]


def _parse_mbox(stream, medium: str, tally: ParseResult) -> Iterator[Message]:
    """Parse mail by mail: only the mail being parsed and the messages
    yielded so far are held, never the whole mailbox."""
    import email.utils  # here, not at the top: only ingest --format mbox parses mail

    for raw in _message_boundaries(stream):
        try:
            msg = email.message_from_bytes(raw)
        except Exception:
            tally.skipped += 1
            continue
        # str(): a header with undecodable bytes comes back as a Header object
        sender = _sender(str(msg.get("From", "")))
        if not sender:
            tally.skipped += 1
            continue
        try:
            ts = _to_utc(email.utils.parsedate_to_datetime(str(msg.get("Date", ""))))
        except (TypeError, ValueError):
            ts = None
        if ts is None:
            tally.skipped += 1
            continue
        body = strip_quoted(_first_text_plain(msg))
        yield Message(sender, ts, medium, clean_text(body, medium))


_PARSERS = {
    "tweets-jsonl": partial(_parse_jsonl, adapt=_tweet_record),
    "generic-jsonl": partial(_parse_jsonl, adapt=_generic_record),
    "mbox": _parse_mbox,
}

FORMATS = tuple(_PARSERS)


def parse_messages(stream, format: str, medium: str) -> ParseResult:
    """Parse a byte stream into cleaned messages.

    Malformed records are skipped and counted, never fatal; an
    unreadable stream raises OSError. ``format`` is one of
    ``tweets-jsonl``, ``mbox``, ``generic-jsonl``. The stream is read
    by line iteration (JSONL) or by ``read`` in blocks (mbox), so a
    ``ByteRange`` of a file serves as well as the file.
    """
    try:
        parser = _PARSERS[format]
    except KeyError:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}") from None
    result = ParseResult()
    result.messages = list(parser(stream, medium, tally=result))
    return result


class ByteRange:
    """Bytes ``start`` to ``stop`` of the open binary file ``fh``
    (``stop`` None: to its end) as a stream that ends there, for
    ``parse_messages``: ``read`` and line iteration. Nothing is read
    ahead, so the range is never held whole."""

    def __init__(self, fh, start: int, stop: int | None):
        fh.seek(start)
        self._fh = fh
        self._left = sys.maxsize if stop is None else stop - start

    def read(self, size: int) -> bytes:
        data = self._fh.read(min(size, self._left))
        self._left -= len(data)
        return data

    def __iter__(self) -> Iterator[bytes]:
        while line := self._fh.readline(self._left):
            self._left -= len(line)
            yield line


def _line_start(fh, at: int) -> int:
    """The first line start at or past byte ``at``, lines ending at
    ``\\n`` as binary line iteration ends them."""
    fh.seek(max(at - 1, 0))
    if at:
        fh.readline()  # the rest of the line holding byte at - 1
    return fh.tell()


def _mail_start(fh, at: int) -> int:
    """The first start of a mail at or past byte ``at``, or
    the end of the file: a ``From `` line that follows a blank line, the
    lines split by ``_lines``' rules. The search starts just past a
    ``\\n``, which ends a line under every rule, and takes no mail that
    starts there, since the line before it is not read."""
    here = _line_start(fh, at)
    prev_blank = False
    for line in _lines(fh):
        if prev_blank and line.startswith(b"From "):
            return here
        prev_blank = line.strip() == b""
        here += len(line)
    return here


def split_records(path, format: str, ranges: int) -> list[tuple[int, int | None]]:
    """Cut a raw ``format`` input into at most ``ranges`` byte ranges
    ``(start, stop)`` of about equal size (``stop`` None for the last,
    which runs to the end of the file), each starting where a record
    does: just past a ``\\n`` for the JSONL formats, at a ``From `` line
    that follows a blank line for mbox. ``parse_messages`` of each range
    (a ``ByteRange``), in order, keeps the messages, and counts the
    drops, that it does of the whole file. A range holding no record
    start merges into the one before; ``ranges`` of 1 or less is the
    whole file, which is then not opened."""
    if ranges <= 1:
        return [(0, None)]
    record_start = _mail_start if format == "mbox" else _line_start
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        cuts = {record_start(fh, size * i // ranges) for i in range(1, ranges)}
    bounds = [0, *sorted(cut for cut in cuts if 0 < cut < size), None]
    return list(zip(bounds, bounds[1:]))


def build_author_corpora(messages) -> list[AuthorCorpus]:
    """Group messages by (author_id, medium) and sort each group
    chronologically with stable ties. Output is sorted by
    (author_id, medium)."""
    groups: dict[tuple[str, str], list[Message]] = {}
    for msg in messages:
        groups.setdefault((msg.author_id, msg.medium), []).append(msg)
    return [AuthorCorpus(author_id, medium, sorted(msgs, key=lambda m: m.timestamp))
            for (author_id, medium), msgs in sorted(groups.items())]


def format_timestamp(ts: datetime) -> str:
    """ISO-8601 UTC to the second with a ``Z`` suffix; the year is
    always four digits (strftime's ``%Y`` drops the zeros before year
    1000 on some platforms)."""
    # %-formatting the fields gives isoformat(timespec="seconds")'s text,
    # microseconds truncated, in about half its time
    ts = ts.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second)


# synth writes the same minute stamps for every author: the memo formats
# each of them once per run while an author has at most this many
# messages.
_stamp_text = lru_cache(maxsize=1 << 12)(format_timestamp)


def canonical_line(m: Message) -> str:
    """``m`` as one canonical corpus line, newline included: the JSON
    object with keys ``author_id``, ``timestamp``, ``medium`` and
    ``text`` in that order, exactly as ``json.dumps`` with
    ``ensure_ascii=False`` and ``separators=(",", ":")`` writes it. An
    author_id, medium or text that is not a str raises TypeError."""
    # _quote is the C string encoder json uses with ensure_ascii=False; the
    # timestamp is digits and "-:TZ", which JSON quotes unchanged
    return (f'{{"author_id":{_quote(m.author_id)},"timestamp":"{_stamp_text(m.timestamp)}",'
            f'"medium":{_quote(m.medium)},"text":{_quote(m.text)}}}\n')


_EPOCH = datetime(1, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def corpus_rows(messages) -> list[tuple[str, int, str]]:
    """Each message as ``(author_id, key, canonical_line)``: ``key`` is
    its UTC time in whole microseconds since year 1, an exact integer
    that sorts and ties as the timestamp does. Rows are what ``ingest``'s
    workers send: they pickle in a fraction of a message's time. Rows of
    one author share one author_id object, which a pickle of them holds
    once."""
    authors: dict[str, str] = {}
    return [(authors.setdefault(m.author_id, m.author_id), (m.timestamp - _EPOCH) // _MICROSECOND, canonical_line(m))
            for m in messages]


def write_rows(rows: list, path) -> None:
    """Write ``corpus_rows`` as canonical corpus JSONL sorted by
    (author_id, key), stable on ties, sorting ``rows`` in place. The
    author_id order is what ``iter_authors`` requires: each author's
    lines form one run, and the runs ascend by author_id. Two stable
    sorts on one key each make no key tuple per row."""
    rows.sort(key=itemgetter(1))
    rows.sort(key=itemgetter(0))
    with atomic_write(path) as fh:
        fh.writelines(map(itemgetter(2), rows))


def write_corpus(messages, path) -> None:
    """Write messages as canonical corpus JSONL sorted by
    (author_id, timestamp), stable on ties: ``write_rows`` of their
    ``corpus_rows``."""
    write_rows(corpus_rows(messages), path)


def read_corpus(path) -> ParseResult:
    """Read a canonical corpus JSONL file (generic-jsonl rules). Its text
    is already clean and is taken verbatim: cleaning it again would not
    be the identity (twitter "#@name" is written as "@name")."""
    result = ParseResult()
    with open(path, "rb") as fh:
        result.messages = list(_parse_jsonl(fh, "other", _canonical_record, result))
    return result


@dataclass(frozen=True)
class Shard:
    """A byte range of a canonical corpus, cut where the author changes:
    ``start`` and ``stop`` are line starts (``stop`` None runs to the end
    of the file), and ``after`` is the author_id of the last message the
    reader yields before ``start`` (None for the first range)."""

    start: int = 0
    stop: int | None = None
    after: str | None = None


def _author_change(fh, at: int) -> tuple[int, str] | None:
    """The first line start past byte ``at`` (``at`` itself when a line
    starts there) where the author of the messages the reader yields
    changes, and the author before it; None if it does not change again.
    Lines are read by the reader's rules, so a skipped record never
    marks a change."""
    fh.seek(max(at - 1, 0))
    if at:
        fh.readline()  # the rest of the line holding byte at - 1
    here = start = fh.tell()

    def lines():
        nonlocal here, start
        for line in fh:
            start, here = here, here + len(line)
            yield line

    author = None
    for author_id, *_ in _parse_jsonl(lines(), "other", _text_record, ParseResult()):
        if author is None:
            author = author_id
        elif author_id != author:
            return start, author
    return None


def split_corpus(path, shards: int) -> list[Shard]:
    """Cut a canonical corpus into at most ``shards`` byte ranges of about
    equal size, each cut where the author of the messages the reader
    yields changes, so that one author's lines never span two ranges.
    Reading the ranges in order with ``iter_authors`` or
    ``iter_author_texts`` yields the authors, tallies and order errors
    that one read of the whole file does. An author run longer than a
    range merges ranges; ``shards`` of 1 or less is the whole file, which
    is then not opened."""
    if shards <= 1:
        return [Shard()]
    size = os.path.getsize(path)
    cuts: dict[int, str] = {}
    with open(path, "rb") as fh:
        for i in range(1, shards):
            if (cut := _author_change(fh, size * i // shards)) is not None:
                cuts.setdefault(*cut)
    bounds = [0, *sorted(cuts), None]
    return [Shard(lo, hi, cuts.get(lo)) for lo, hi in zip(bounds, bounds[1:])]


def _upto(lines, size: int):
    """The lines of ``lines`` that start in its first ``size`` bytes."""
    for line in lines:
        if size <= 0:
            return
        size -= len(line)
        yield line


def _author_runs(path, tally: ParseResult, shard: Shard, adapt, author_of) -> Iterator[list]:
    """``iter_authors`` with records made by ``adapt`` (a ``_parse_jsonl``
    adapter), whose author_id ``author_of`` gives."""
    run: list = []
    author = shard.after
    with open(path, "rb") as fh:
        fh.seek(shard.start)
        lines = fh if shard.stop is None else _upto(fh, shard.stop - shard.start)
        for item in _parse_jsonl(lines, "other", adapt, tally):
            if (item_author := author_of(item)) != author:
                if author is not None and item_author < author:
                    fh.seek(0)  # the lines before the shard, one at a time
                    line = sum(1 for _ in _upto(fh, shard.start)) + tally.lines
                    raise CorpusOrderError(
                        f"{path}:{line}: author_id {item_author!r} sorts below the "
                        f"previous author {author!r}; corpus lines must be grouped "
                        "by ascending author_id"
                    )
                if run:
                    yield run
                    run = []
                author = item_author
            run.append(item)
    if run:
        yield run


def iter_authors(path, tally: ParseResult, shard: Shard = Shard()) -> Iterator[list[Message]]:
    """Read a canonical corpus one author at a time: yield each author's
    messages, in file order, as one list, and keep none of them once the
    next author starts.

    The file's lines must come grouped by ascending author_id, as
    ``write_corpus`` writes them; a line whose author_id sorts below the
    previous author's raises CorpusOrderError naming the file and line.
    Timestamps need no order within an author. Records are read, and
    drops counted in ``tally``, exactly as ``read_corpus`` does.

    ``shard``, one of ``split_corpus``'s ranges, reads only that range.
    Its first author is checked against the author before the cut, and
    an order error names the line's number in the whole file; ``tally``
    counts the range's own lines.
    """
    return _author_runs(path, tally, shard, _canonical_record, attrgetter("author_id"))


def iter_author_texts(path, tally: ParseResult, shard: Shard = Shard()) -> Iterator[AuthorCorpus]:
    """Read a canonical corpus one author at a time, as ``iter_authors``
    does (same skips, tallies and order errors), and yield what
    ``build_author_corpora`` makes of each author's messages, with the
    messages' texts in place of the messages: one ``AuthorCorpus`` per
    medium, in medium order, its texts sorted stably by timestamp text
    (``_stamp_key``). No datetime or ``Message`` is made for a canonical
    stamp."""
    for run in _author_runs(path, tally, shard, _text_record, itemgetter(0)):
        run.sort(key=itemgetter(2, 1))  # (medium, stamp key), ties in file order
        for medium, rows in groupby(run, itemgetter(2)):
            yield AuthorCorpus(run[0][0], medium, [row[3] for row in rows])
