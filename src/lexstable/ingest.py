"""Raw message ingestion: tweet JSONL, mbox email, and the canonical
corpus format.

Canonical corpus files are JSON lines, one object per message with keys
``author_id``, ``timestamp`` (ISO-8601 UTC, second precision, ``Z``
suffix), ``medium`` and ``text``, sorted by (author_id, timestamp).
Text is stored cleaned, so reading a corpus takes it verbatim. Each
author's lines are one contiguous run, so ``iter_authors`` can read the
file one author at a time, and ``split_corpus`` can cut it into byte
ranges at author changes that are read apart.
"""

from __future__ import annotations

import email
import email.utils
import json
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import lru_cache, partial
from json.encoder import encode_basestring as _quote
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
    (ties keep input order)."""

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


def _has_surrogate(msg: Message) -> bool:
    return any(map(_SURROGATE_RE.search, (msg.author_id, msg.medium, msg.text)))


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


def _message_boundaries(data: bytes) -> list[bytes]:
    chunks: list[list[bytes]] = []
    prev_blank = True
    for line in data.splitlines(keepends=True):
        if line.startswith(b"From ") and prev_blank:
            chunks.append([])
        elif chunks:
            chunks[-1].append(line)
        prev_blank = line.strip() == b""
    return [b"".join(c) for c in chunks]


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
    return email.utils.parseaddr(from_header)[1]


def _parse_mbox(stream, medium: str, tally: ParseResult) -> Iterator[Message]:
    data = stream.read()
    for raw in _message_boundaries(data):
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
    ``tweets-jsonl``, ``mbox``, ``generic-jsonl``.
    """
    try:
        parser = _PARSERS[format]
    except KeyError:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}") from None
    result = ParseResult()
    result.messages = list(parser(stream, medium, tally=result))
    return result


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


def write_corpus(messages, path) -> None:
    """Write messages as canonical corpus JSONL sorted by
    (author_id, timestamp), stable on ties. The author_id order is what
    ``iter_authors`` requires: each author's lines form one run, and the
    runs ascend by author_id."""
    ordered = sorted(messages, key=lambda m: (m.author_id, m.timestamp))
    with atomic_write(path) as fh:
        fh.writelines(map(canonical_line, ordered))


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
    for msg in _parse_jsonl(lines(), "other", _canonical_record, ParseResult()):
        if author is None:
            author = msg.author_id
        elif msg.author_id != author:
            return start, author
    return None


def split_corpus(path, shards: int) -> list[Shard]:
    """Cut a canonical corpus into at most ``shards`` byte ranges of about
    equal size, each cut where the author of the messages the reader
    yields changes, so that one author's lines never span two ranges.
    Reading the ranges in order with ``iter_authors`` yields the authors,
    tallies and order errors that one read of the whole file does. An
    author run longer than a range merges ranges; ``shards`` of 1 or less
    is the whole file, which is then not opened."""
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
    run: list[Message] = []
    author = shard.after
    with open(path, "rb") as fh:
        fh.seek(shard.start)
        lines = fh if shard.stop is None else _upto(fh, shard.stop - shard.start)
        for msg in _parse_jsonl(lines, "other", _canonical_record, tally):
            if msg.author_id != author:
                if author is not None and msg.author_id < author:
                    fh.seek(0)
                    line = fh.read(shard.start).count(b"\n") + tally.lines
                    raise CorpusOrderError(
                        f"{path}:{line}: author_id {msg.author_id!r} sorts below the "
                        f"previous author {author!r}; corpus lines must be grouped "
                        "by ascending author_id"
                    )
                if run:
                    yield run
                    run = []
                author = msg.author_id
            run.append(msg)
    if run:
        yield run
