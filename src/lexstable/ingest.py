"""Raw message ingestion: tweet JSONL, mbox email, and the canonical
corpus format.

Canonical corpus files are JSON lines, one object per message with keys
``author_id``, ``timestamp`` (ISO-8601 UTC, second precision, ``Z``
suffix), ``medium`` and ``text``, sorted by (author_id, timestamp).
Text is stored cleaned, so reading a corpus takes it verbatim.
"""

from __future__ import annotations

import email
import email.policy
import email.utils
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from .lexicon import tokenize

KNOWN_MEDIA = ("twitter", "email", "blog", "forum", "wiki")

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


class _WordCount:
    """Descriptor for ``Message.word_count``: the value supplied, else
    the tokenizer's count of ``text``, computed on first read."""

    def __get__(self, msg, owner=None) -> int:
        if msg is None:
            return -1  # the dataclass field default: not supplied
        if msg._word_count < 0:
            msg._word_count = len(tokenize(msg.text))
        return msg._word_count

    def __set__(self, msg, value: int) -> None:
        msg._word_count = int(value)


@dataclass
class Message:
    """One timestamped utterance by one author in one medium.

    ``word_count`` is the tokenizer's count of ``text``. When not
    supplied it is computed on demand, the first time it is read, so
    messages that are only scored are tokenized only by the scorer.
    """

    author_id: str
    timestamp: datetime
    medium: str
    text: str
    word_count: int = _WordCount()

    def __post_init__(self):
        if self.timestamp.tzinfo is None:
            self.timestamp = self.timestamp.replace(tzinfo=timezone.utc)
        else:
            self.timestamp = self.timestamp.astimezone(timezone.utc)


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

    @property
    def total_words(self) -> int:
        return sum(m.word_count for m in self.messages)


@dataclass
class ParseResult:
    """Parsed messages plus drop accounting: ``skipped`` counts records
    that were malformed or missing author/timestamp/text; ``filtered``
    counts well-formed records dropped by rule (retweets, non-English
    tweets)."""

    messages: list[Message] = field(default_factory=list)
    skipped: int = 0
    filtered: int = 0


def parse_timestamp(value) -> datetime | None:
    """Best-effort timestamp parse: ISO-8601 (Z or offset), the classic
    tweet format, or epoch seconds. None when unparseable."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return datetime.fromtimestamp(float(value), tz=timezone.utc)
        except (OverflowError, OSError, ValueError):
            return None
    if not isinstance(value, str) or not value.strip():
        return None
    text = value.strip()
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)
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
        return dt.astimezone(timezone.utc)
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


def _parse_tweets_jsonl(stream, medium: str) -> ParseResult:
    result = ParseResult()
    for raw_line in stream:
        line = raw_line.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            result.skipped += 1
            continue
        if not isinstance(record, dict):
            result.skipped += 1
            continue
        author = record.get("author_id")
        if author is None:
            user = record.get("user")
            if isinstance(user, dict):
                author = user.get("id_str")
        text = record.get("text")
        ts = parse_timestamp(record.get("timestamp", record.get("created_at")))
        if author is None or ts is None or not isinstance(text, str):
            result.skipped += 1
            continue
        if _is_retweet(record, text):
            result.filtered += 1
            continue
        lang = record.get("lang")
        if isinstance(lang, str) and lang and lang != "en":
            result.filtered += 1
            continue
        result.messages.append(
            Message(str(author), ts, medium, clean_text(text, medium))
        )
    return result


def _parse_generic_jsonl(stream, medium: str, clean: bool = True) -> ParseResult:
    result = ParseResult()
    for raw_line in stream:
        line = raw_line.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            result.skipped += 1
            continue
        if not isinstance(record, dict):
            result.skipped += 1
            continue
        author = record.get("author_id")
        text = record.get("text")
        ts = parse_timestamp(record.get("timestamp"))
        if author is None or ts is None or not isinstance(text, str):
            result.skipped += 1
            continue
        med = str(record.get("medium", medium))
        result.messages.append(
            Message(str(author), ts, med, clean_text(text, med) if clean else text)
        )
    return result


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
        if trimmed == _ORIG_MSG:
            break
        if _ON_WROTE_RE.match(trimmed):
            break
        if line == _SIG_DELIM:
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
        if part.is_multipart():
            continue
        if part.get_content_type() != "text/plain":
            continue
        payload = part.get_payload(decode=True)
        if payload is None:
            continue
        charset = part.get_content_charset() or "utf-8"
        try:
            return payload.decode(charset, errors="replace")
        except LookupError:
            return payload.decode("utf-8", errors="replace")
    return ""


def _parse_mbox(stream, medium: str) -> ParseResult:
    result = ParseResult()
    data = stream.read()
    for raw in _message_boundaries(data):
        try:
            msg = email.message_from_bytes(raw)
        except Exception:
            result.skipped += 1
            continue
        sender = email.utils.parseaddr(msg.get("From", ""))[1]
        if not sender:
            result.skipped += 1
            continue
        try:
            ts = email.utils.parsedate_to_datetime(msg.get("Date", ""))
        except (TypeError, ValueError):
            ts = None
        if ts is None:
            result.skipped += 1
            continue
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        body = strip_quoted(_first_text_plain(msg))
        result.messages.append(
            Message(sender, ts, medium, clean_text(body, medium))
        )
    return result


_PARSERS = {
    "tweets-jsonl": _parse_tweets_jsonl,
    "generic-jsonl": _parse_generic_jsonl,
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
    return parser(stream, medium)


def build_author_corpora(messages, min_messages: int = 1, min_words: int = 0) -> list[AuthorCorpus]:
    """Group messages by (author_id, medium), sort chronologically with
    stable ties, and keep authors meeting both thresholds. Output is
    sorted by (author_id, medium)."""
    if min_messages < 1:
        raise ValueError("min_messages must be >= 1")
    if min_words < 0:
        raise ValueError("min_words must be >= 0")
    groups: dict[tuple[str, str], list[Message]] = {}
    for msg in messages:
        groups.setdefault((msg.author_id, msg.medium), []).append(msg)
    corpora = []
    for (author_id, medium) in sorted(groups):
        msgs = sorted(groups[(author_id, medium)], key=lambda m: m.timestamp)
        corpus = AuthorCorpus(author_id, medium, msgs)
        if corpus.total_messages < min_messages:
            continue
        if min_words > 0 and corpus.total_words < min_words:
            continue
        corpora.append(corpus)
    return corpora


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_corpus(messages, path) -> None:
    """Write messages as canonical corpus JSONL sorted by
    (author_id, timestamp), stable on ties."""
    ordered = sorted(messages, key=lambda m: (m.author_id, m.timestamp))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for m in ordered:
            record = {
                "author_id": m.author_id,
                "timestamp": format_timestamp(m.timestamp),
                "medium": m.medium,
                "text": m.text,
            }
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def read_corpus(path) -> ParseResult:
    """Read a canonical corpus JSONL file (generic-jsonl rules). Its text
    is already clean and is taken verbatim: cleaning it again would not
    be the identity (twitter "#@name" is written as "@name")."""
    with open(path, "rb") as fh:
        return _parse_generic_jsonl(fh, medium="other", clean=False)
