import io
import itertools
import json
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexstable import ingest
from lexstable.errors import CorpusOrderError
from lexstable.ingest import (
    Message,
    ParseResult,
    Shard,
    build_author_corpora,
    canonical_line,
    clean_text,
    iter_author_texts,
    iter_authors,
    parse_messages,
    parse_timestamp,
    read_corpus,
    split_corpus,
    strip_quoted,
    write_corpus,
)

from conftest import fixture_path


def ts(s):
    return datetime.fromisoformat(s.replace("Z", "+00:00"))


def tweets_stream(records):
    return io.BytesIO(b"\n".join(json.dumps(r).encode() for r in records))


# --- clean_text --------------------------------------------------------

def test_clean_removes_urls():
    assert clean_text("see https://x.co now", "blog") == "see now"


def test_clean_twitter_mentions_and_hashtags():
    assert clean_text("@ann #happy day", "twitter") == "happy day"


def test_clean_empty():
    assert clean_text("", "twitter") == ""


def test_clean_collapses_whitespace():
    assert clean_text("  a \t b \n c  ", "email") == "a b c"


def test_clean_keeps_mentions_outside_twitter():
    assert clean_text("@ann #happy", "forum") == "@ann #happy"


# --- tweets-jsonl ------------------------------------------------------

def test_retweet_prefix_dropped():
    result = parse_messages(tweets_stream([
        {"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "RT @bob hello"},
    ]), "tweets-jsonl", "twitter")
    assert result.messages == [] and result.filtered == 1


def test_retweet_markers_dropped():
    result = parse_messages(tweets_stream([
        {"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "x", "retweeted": True},
        {"author_id": "a", "timestamp": "2014-03-01T12:01:00Z", "text": "y",
         "retweeted_status": {"id": 1}},
        {"author_id": "a", "timestamp": "2014-03-01T12:02:00Z", "text": "keep me"},
    ]), "tweets-jsonl", "twitter")
    assert [m.text for m in result.messages] == ["keep me"]
    assert result.filtered == 2


def test_non_english_dropped_untagged_kept():
    result = parse_messages(tweets_stream([
        {"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "hola", "lang": "es"},
        {"author_id": "a", "timestamp": "2014-03-01T12:01:00Z", "text": "hello", "lang": "en"},
        {"author_id": "a", "timestamp": "2014-03-01T12:02:00Z", "text": "no tag"},
    ]), "tweets-jsonl", "twitter")
    assert [m.text for m in result.messages] == ["hello", "no tag"]
    assert result.filtered == 1


def test_classic_user_and_created_at_keys():
    result = parse_messages(tweets_stream([
        {"user": {"id_str": "123"}, "created_at": "Wed Aug 27 13:08:45 +0000 2008",
         "text": "old style tweet"},
    ]), "tweets-jsonl", "twitter")
    m = result.messages[0]
    assert m.author_id == "123"
    assert m.timestamp == ts("2008-08-27T13:08:45Z")


def test_malformed_records_are_counted_not_fatal():
    stream = io.BytesIO(
        b'{"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "ok"}\n'
        b'this is not json\n'
        b'{"author_id": "a", "text": "missing timestamp"}\n'
    )
    result = parse_messages(stream, "tweets-jsonl", "twitter")
    assert len(result.messages) == 1
    assert result.skipped == 2


@pytest.mark.parametrize("format", ["tweets-jsonl", "generic-jsonl"])
def test_lines_that_are_not_one_json_object_are_skipped(format):
    stream = io.BytesIO(b"\n".join([
        b"[" * 200_000,  # nested deeper than the recursion limit
        b'{"author_id": 1' + b"0" * 5000 + b"}",  # integer too long to convert
        b'{"author_id": "a"} {"author_id": "b"}',
        b'"a string"',
        b'{"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "ok"}',
    ]))
    result = parse_messages(stream, format, "forum")
    assert [m.text for m in result.messages] == ["ok"]
    assert result.skipped == 4


@pytest.mark.parametrize("format", ["tweets-jsonl", "generic-jsonl"])
def test_records_holding_a_lone_surrogate_are_skipped(format):
    # a lone surrogate cannot be written as UTF-8; an escaped pair is one character
    stream = io.BytesIO(b"\n".join([
        rb'{"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "bad \ud800 here"}',
        rb'{"author_id": "\udfff", "timestamp": "2014-03-01T12:00:00Z", "text": "ok"}',
        rb'{"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "pair \ud83d\ude00"}',
        rb'{"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "ok"}',
    ]))
    result = parse_messages(stream, format, "forum")
    assert [m.text for m in result.messages] == ["pair \U0001f600", "ok"]
    assert result.skipped == 2


# --- generic-jsonl -----------------------------------------------------

def test_generic_jsonl_drop_rule():
    records = [
        {"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "one"},
        {"author_id": "a", "timestamp": "2014-03-01T12:01:00Z", "text": "two"},
        {"author_id": "b", "timestamp": "2014-03-01T12:02:00Z", "text": "three"},
        {"author_id": "b", "text": "no timestamp"},
    ]
    result = parse_messages(tweets_stream(records), "generic-jsonl", "forum")
    assert len(result.messages) == 3
    assert result.skipped == 1


def test_generic_jsonl_record_medium_wins():
    result = parse_messages(tweets_stream([
        {"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "x", "medium": "wiki"},
    ]), "generic-jsonl", "forum")
    assert result.messages[0].medium == "wiki"


# --- mbox --------------------------------------------------------------

def test_quote_and_signature_stripping_rules():
    assert strip_quoted("I agree.\n> previous quoted line\n-- \nsig") == "I agree."
    assert strip_quoted("keep\n-----Original Message-----\ngone") == "keep"
    assert strip_quoted("keep\nOn Mon, Mar 3, Alice wrote:\n> gone") == "keep"


def test_mbox_parsing():
    with open(fixture_path("sample.mbox"), "rb") as fh:
        result = parse_messages(fh, "mbox", "email")
    assert len(result.messages) == 3
    assert result.skipped == 1  # message without usable headers
    first = result.messages[0]
    assert first.author_id == "alice@example.com"
    assert first.text == "I agree."
    assert first.word_count == 2
    assert first.timestamp == ts("2014-03-03T09:00:00Z")
    assert result.messages[1].text == (
        "Sounds good, see you at the meeting tomorrow. Bring the numbers please."
    )
    assert result.messages[2].text == "Here is the plan we discussed."


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        parse_messages(io.BytesIO(b""), "csv", "email")


# --- timestamps --------------------------------------------------------

def test_parse_timestamp_variants():
    assert parse_timestamp("2014-03-01T12:00:00Z") == ts("2014-03-01T12:00:00Z")
    assert parse_timestamp("2014-03-01T07:00:00-05:00") == ts("2014-03-01T12:00:00Z")
    assert parse_timestamp(1393675200) == ts("2014-03-01T12:00:00Z")
    assert parse_timestamp("Wed Aug 27 13:08:45 +0000 2008") == ts("2008-08-27T13:08:45Z")
    assert parse_timestamp("not a date") is None
    assert parse_timestamp(None) is None


_OUT_OF_RANGE = ("9999-12-31T23:59:59-23:59", "0001-01-01T00:00:00+00:01",
                 "Fri Dec 31 23:59:59 -2359 9999", 1e300)


def test_timestamps_whose_utc_time_is_out_of_range_are_skipped():
    assert [parse_timestamp(v) for v in _OUT_OF_RANGE] == [None] * len(_OUT_OF_RANGE)
    records = [{"author_id": "a", "timestamp": v, "text": "x"} for v in _OUT_OF_RANGE]
    for format in ("tweets-jsonl", "generic-jsonl"):
        result = parse_messages(tweets_stream(records), format, "forum")
        assert (result.messages, result.skipped) == ([], len(records))
    mbox = (b"From x\nFrom: a@b.c\nDate: Fri, 31 Dec 9999 23:59:59 -2359\n\nlate\n\n"
            b"From x\nFrom: a@b.c\nDate: Mon, 3 Mar 2014 09:00:00 +0000\n\nfine\n")
    result = parse_messages(io.BytesIO(mbox), "mbox", "email")
    assert [m.text for m in result.messages] == ["fine"]
    assert result.skipped == 1


# --- the parsers never raise on malformed input ------------------------

_TIMESTAMPS = st.sampled_from([
    "2014-03-01T12:00:00Z", "Wed Aug 27 13:08:45 +0000 2008", 1393675200, *_OUT_OF_RANGE,
])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | _TIMESTAMPS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["id_str", "x"]), inner, max_size=2)),
    max_leaves=6,
)
_RECORD_KEYS = ("author_id", "user", "timestamp", "created_at", "text", "medium", "lang",
                "retweeted", "retweeted_status")
_JSONL_LINES = st.one_of(
    st.binary(max_size=30),
    st.fixed_dictionaries({}, optional={k: _JSON_VALUES for k in _RECORD_KEYS})
      .map(lambda r: json.dumps(r).encode()),
    st.sampled_from([b"[" * 100_000, b"9" * 5000, b'{"text": "x"} ]', b"\xef\xbb\xbf{}"]),
)


@given(lines=st.lists(_JSONL_LINES, max_size=8), format=st.sampled_from(["tweets-jsonl", "generic-jsonl"]))
@settings(max_examples=200, deadline=None)
def test_jsonl_parsers_never_raise_and_count_every_line(lines, format):
    data = b"\n".join(lines)
    result = parse_messages(io.BytesIO(data), format, "forum")
    counted = len(result.messages) + result.skipped + result.filtered
    assert counted == sum(1 for line in data.split(b"\n") if line.decode("utf-8", "replace").strip())
    assert all(m.timestamp.tzinfo is timezone.utc for m in result.messages)


_HEADER_VALUES = st.binary(max_size=24).map(lambda b: b.replace(b"\n", b" ")) | st.sampled_from([
    b"a@b.c", b"Mon, 3 Mar 2014 09:00:00 +0000", b"Fri, 31 Dec 9999 23:59:59 -2359",
    b"\xff\xfe@b.c", b"text/plain; charset=idna", b'text/plain; charset="utf-8\x00"',
    b"text/plain; charset=bogus", b"multipart/mixed; boundary=b", b"base64", b"quoted-printable",
])
_MAIL = st.tuples(
    st.dictionaries(st.sampled_from([b"From", b"Date", b"Content-Type", b"Content-Transfer-Encoding"]),
                    _HEADER_VALUES),
    st.binary(max_size=40),
)


@given(mails=st.lists(_MAIL, max_size=5))
@settings(max_examples=200, deadline=None)
def test_mbox_parser_never_raises_and_counts_every_message(mails):
    data = b"".join(
        b"From x\n" + b"".join(k + b": " + v + b"\n" for k, v in headers.items()) + b"\n" + body + b"\n\n"
        for headers, body in mails
    )
    result = parse_messages(io.BytesIO(data), "mbox", "email")
    assert len(result.messages) + result.skipped >= len(mails)  # a body may hold a "From " line
    assert all(m.author_id and m.timestamp.tzinfo is timezone.utc for m in result.messages)


def _whole_file_mails(data: bytes) -> list[bytes]:
    """The mails of ``data`` as a reader of the whole file splits them: a
    mail starts at a "From " line after a blank line (or at the start)."""
    chunks: list[list[bytes]] = []
    prev_blank = True
    for line in data.splitlines(keepends=True):
        if line.startswith(b"From ") and prev_blank:
            chunks.append([])
        elif chunks:
            chunks[-1].append(line)
        prev_blank = line.strip() == b""
    return [b"".join(c) for c in chunks]


_MBOX_LINES = st.sampled_from([
    b"From a@b.c Mon Mar  3 09:00:00 2014", b"From ", b"From:x", b">From a@b.c quoted", b"", b"  ", b"\t",
    b"From: A <a@b.c>", b"From: b@c.d", b"Date: Mon, 3 Mar 2014 09:00:00 +0000",
    b"Date: Tue, 4 Mar 2014 10:00:00 +0100", b"Subject: s", b"body words", b"> quoted", b"-- ",
]) | st.binary(max_size=12)


@given(lines=st.lists(st.tuples(_MBOX_LINES, st.sampled_from([b"\n", b"\r\n", b"\r"])), max_size=24),
       last=_MBOX_LINES, block=st.sampled_from([1, 2, 3, 7, 64, ingest._MBOX_BLOCK]))
@example(lines=[(b"From x", b"\r"), (b"From: a@b.c", b"\r\n"), (b"Date: Mon, 3 Mar 2014 09:00:00 +0000", b"\n"),
                (b"", b"\r"), (b"hi", b"\r\n"), (b"", b"\r\n"), (b"From y", b"\n")], last=b"tail", block=2)
@settings(max_examples=300, deadline=None)
def test_the_streamed_mbox_split_equals_the_whole_file_split(lines, last, block):
    # ``last`` ends the input without a newline; blank lines before "From "
    # lines come from the blank entries of _MBOX_LINES; small blocks cut
    # lines, and "\r\n" pairs, between reads
    data = b"".join(line + end for line, end in lines) + last

    def whole_file(stream):
        return iter(_whole_file_mails(stream.read()))

    def parsed():
        result = parse_messages(io.BytesIO(data), "mbox", "email")
        return result.messages, result.skipped, result.filtered, result.lines

    with mock.patch.object(ingest, "_MBOX_BLOCK", block):
        assert list(ingest._message_boundaries(io.BytesIO(data))) == _whole_file_mails(data)
        streamed = parsed()
    with mock.patch.object(ingest, "_message_boundaries", whole_file):
        assert parsed() == streamed


# --- build_author_corpora ---------------------------------------------

def msg(author, minute, text="w " * 6, medium="twitter"):
    return Message(author, ts(f"2014-03-01T12:{minute:02d}:00Z"), medium, text.strip())


def test_empty_input():
    assert build_author_corpora([]) == []


def test_grouping_sorting_and_tie_stability():
    messages = [
        msg("b", 5),
        msg("a", 10, text="late"),
        msg("a", 1, text="first tie"),
        msg("a", 1, text="second tie"),
        msg("a", 1, text="third tie", medium="email"),
    ]
    corpora = build_author_corpora(messages)
    assert [(c.author_id, c.medium) for c in corpora] == [
        ("a", "email"), ("a", "twitter"), ("b", "twitter")]
    twitter_a = corpora[1]
    assert [m.text for m in twitter_a.messages] == ["first tie", "second tie", "late"]
    stamps = [m.timestamp for m in twitter_a.messages]
    assert stamps == sorted(stamps)


def test_validation():
    with pytest.raises(TypeError):  # no thresholds: the scoring commands apply both
        build_author_corpora([], 1)


# --- canonical corpus IO ----------------------------------------------

def test_corpus_roundtrip_and_determinism(tmp_path):
    messages = [
        msg("bob", 3, text="irrelevant detail"),
        msg("alice", 5, text="hello world"),
        msg("alice", 4, text="early message"),
    ]
    p1 = tmp_path / "c1.jsonl"
    p2 = tmp_path / "c2.jsonl"
    write_corpus(messages, p1)
    result = read_corpus(p1)
    assert [m.author_id for m in result.messages] == ["alice", "alice", "bob"]
    assert result.skipped == 0
    write_corpus(result.messages, p2)
    assert p1.read_bytes() == p2.read_bytes()

    lines = [json.loads(line) for line in p1.read_text().splitlines()]
    assert set(lines[0]) == {"author_id", "timestamp", "medium", "text"}
    assert lines[0]["timestamp"] == "2014-03-01T12:04:00Z"


def test_read_corpus_skips_lines_holding_a_lone_surrogate(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"".join(
        b'{"author_id":"%s","timestamp":"2014-03-01T12:00:00Z","medium":"%s","text":"%s"}\n' % fields
        for fields in [(rb"\ud800", b"blog", b"x"), (b"a", rb"\udbff", b"x"),
                       (b"a", b"blog", rb"x \udc00"), (b"a", b"blog", b"ok")]
    ))
    result = read_corpus(path)
    assert [(m.author_id, m.medium, m.text) for m in result.messages] == [("a", "blog", "ok")]
    assert result.skipped == 3


def test_rebuild_is_idempotent(tmp_path):
    messages = [msg("a", i, text="some words here") for i in range(5)]
    corpora = build_author_corpora(messages)
    path = tmp_path / "c.jsonl"
    write_corpus([m for c in corpora for m in c.messages], path)
    rebuilt = build_author_corpora(read_corpus(path).messages)
    assert [(c.author_id, c.medium, c.total_messages) for c in rebuilt] == \
           [(c.author_id, c.medium, c.total_messages) for c in corpora]
    assert [[m.text for m in c.messages] for c in rebuilt] == \
           [[m.text for m in c.messages] for c in corpora]


def test_ingested_tweets_read_back_verbatim(tmp_path):
    # cleaning is not idempotent on these: "#@foo" becomes "@foo" and
    # "#http://..." becomes "http://...", which a second cleaning drops
    records = [
        {"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": "#@foo bar"},
        {"author_id": "a", "timestamp": "2014-03-01T12:01:00Z", "text": "see #http://x.co/y now"},
    ]
    ingested = parse_messages(tweets_stream(records), "tweets-jsonl", "twitter").messages
    assert [m.text for m in ingested] == ["@foo bar", "see http://x.co/y now"]
    path = tmp_path / "c.jsonl"
    write_corpus(ingested, path)
    back = read_corpus(path).messages
    assert [m.text for m in back] == ["@foo bar", "see http://x.co/y now"]
    assert [m.word_count for m in back] == [2, 6]


_RAW_TOKENS = st.sampled_from(["#@foo", "#http://a.b/c", "@bar", "#tag", "##", "www.z", "word", "RT"])
_RAW_TEXT = st.lists(
    _RAW_TOKENS | st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
    max_size=8,
).map(" ".join)


_MEDIA = ("twitter", "email", "blog", "forum", "wiki")
_EPOCH = datetime(1, 1, 1, tzinfo=timezone.utc)
_MAX_SECONDS = (datetime.max - datetime.min) // timedelta(seconds=1)


# Any string a message can be written with: JSON's escapes, controls,
# the line and paragraph separators and non-BMP characters, but no lone
# surrogate, which UTF-8 cannot encode.
_WRITABLE_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\x85\r\u2028\u2029\U0001f600 ')
                         | st.characters(blacklist_categories=("Cs",)), max_size=10)


@given(records=st.lists(
    st.tuples(
        st.sampled_from(["a", "b", ""]) | _WRITABLE_TEXT,  # several authors, often shared
        st.integers(0, 3) | st.integers(0, _MAX_SECONDS),  # tied stamps, and any whole second
        st.sampled_from(_MEDIA) | _WRITABLE_TEXT,
        _RAW_TEXT.map(lambda raw: clean_text(raw, "twitter")) | _WRITABLE_TEXT,
    ),
    max_size=16,
))
@example(records=[("a", (datetime(5, 1, 1) - datetime.min) // timedelta(seconds=1), "twitter", "year five")])
@settings(max_examples=150, deadline=None)
def test_read_corpus_inverts_write_corpus(tmp_path_factory, records):
    # a canonical corpus survives write, read and write again unchanged:
    # the same messages in write order, the same bytes, nothing dropped
    messages = [Message(author, _EPOCH + timedelta(seconds=secs), medium, text)
                for author, secs, medium, text in records]
    d = tmp_path_factory.mktemp("corpus")
    write_corpus(messages, d / "first.jsonl")
    result = read_corpus(d / "first.jsonl")
    assert (result.lines, result.skipped, result.filtered) == (len(messages), 0, 0)
    assert result.messages == sorted(messages, key=lambda m: (m.author_id, m.timestamp))
    write_corpus(result.messages, d / "second.jsonl")
    assert (d / "second.jsonl").read_bytes() == (d / "first.jsonl").read_bytes()


@given(keys=st.lists(st.tuples(st.sampled_from(["a", "b", "ab", ""]), st.integers(0, 3)), max_size=24))
@settings(max_examples=150, deadline=None)
def test_write_corpus_orders_as_the_author_then_stamp_key_does(tmp_path_factory, keys):
    # tied authors, tied stamps and full ties, each message told apart by
    # its input position, so a full tie must keep the input order
    messages = [Message(author, _EPOCH + timedelta(seconds=secs), "blog", str(i))
                for i, (author, secs) in enumerate(keys)]
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    write_corpus(messages, path)
    ordered = sorted(messages, key=lambda m: (m.author_id, m.timestamp))
    assert path.read_text(encoding="utf-8") == "".join(map(canonical_line, ordered))


# Any string a field can hold: JSON's escapes, controls, the line and
# paragraph separators, non-BMP characters and lone surrogates.
_FIELD_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029\U0001f600\ud800')
                      | st.characters(blacklist_categories=()), max_size=12)
_AWARE_STAMPS = st.builds(
    datetime.replace,
    st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),  # any offset stays in range
    tzinfo=st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                                             max_value=timedelta(hours=23, minutes=59))),
)


@given(author=_FIELD_TEXT, stamp=_AWARE_STAMPS, medium=_FIELD_TEXT, text=_FIELD_TEXT, after=st.booleans())
@example(author="a", stamp=datetime(999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone(timedelta(hours=1))),
         medium="m", text="\u2028\"\\\x00\U0001f600\ud800", after=True)
@settings(max_examples=300, deadline=None)
def test_canonical_line_is_the_json_dump_of_its_record(author, stamp, medium, text, after):
    # ``after``: the aware stamp is set once the message exists, so it is
    # not converted to UTC at construction
    m = Message(author, datetime(2014, 3, 1, tzinfo=timezone.utc) if after else stamp, medium, text)
    if after:
        m.timestamp = stamp
    record = {
        "author_id": author,
        "timestamp": stamp.astimezone(timezone.utc).replace(tzinfo=None).isoformat(timespec="seconds") + "Z",
        "medium": medium,
        "text": text,
    }
    assert canonical_line(m) == json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"


# Lines iter_authors and read_corpus both skip: blank, not JSON, not an
# object, or an object without a usable author, timestamp or text.
_JUNK_LINES = st.sampled_from([
    "", "   ", "{", "[1]", "null", "not json", '{"author_id": "0"}',
    '{"author_id": "~", "timestamp": "never", "text": "x"}', '{"timestamp": "2014-03-01T12:00:00Z"}',
])


def _streamed_corpora(path):
    tally = ParseResult()
    corpora = [c for run in iter_authors(path, tally)
               for c in build_author_corpora(run)]
    return corpora, tally.skipped


@given(
    records=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "bb", "é"]),
            st.integers(0, 3),  # few distinct minutes: timestamps tie
            st.sampled_from(["twitter", "email", "blog"]),
            st.sampled_from(["", "one", "two words", "a b c"]),
        ),
        max_size=20,
    ),
    junk=st.lists(st.tuples(st.integers(0, 10**6), _JUNK_LINES), max_size=6),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_iter_authors_groups_as_read_corpus_does(tmp_path_factory, records, junk, rng):
    messages = [Message(author, ts(f"2014-03-01T12:{minute:02d}:00Z"), medium, f"{text} {i}".strip())
                for i, (author, minute, medium, text) in enumerate(records)]
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    write_corpus(messages, path)
    lines = []  # each author's lines still together, timestamps in any order
    for _, group in itertools.groupby(path.read_text(encoding="utf-8").splitlines(),
                                      lambda line: json.loads(line)["author_id"]):
        group = list(group)
        rng.shuffle(group)
        lines += group
    for position, line in junk:
        lines.insert(position % (len(lines) + 1), line)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    result = read_corpus(path)
    want = build_author_corpora(result.messages)
    assert _streamed_corpora(path) == (want, result.skipped)


# --- split_corpus --------------------------------------------------------

_SHARD_AUTHORS = ["a", "b", "bb", "é", "ß\u2028z"]
# Lines the reader skips; the records carry an author_id, often one that
# differs from both neighbours, which must not mark an author change.
_SKIPPED_LINES = st.sampled_from(["", "  ", "{", "[1]", "not json"]) | st.builds(
    lambda author, stamp: json.dumps({"author_id": author, "timestamp": stamp, "medium": "m",
                                      "text": "\ud800" if stamp.startswith("2") else "x"}),
    st.sampled_from(_SHARD_AUTHORS + ["0", "zz"]),
    st.sampled_from(["never", "2014-03-01T12:00:00Z"]),  # a bad stamp, or a lone surrogate in the text
)


def _read_shards(path, shards):
    """The shards' author runs, concatenated, and their summed tallies;
    or the text of the first order error."""
    runs, counts = [], [0, 0, 0]
    try:
        for shard in shards:
            tally = ParseResult()
            runs += iter_authors(path, tally, shard)
            counts = [a + b for a, b in zip(counts, (tally.lines, tally.skipped, tally.filtered))]
    except CorpusOrderError as exc:
        return str(exc)
    return runs, counts


@given(
    runs=st.lists(st.tuples(st.sampled_from(_SHARD_AUTHORS),
                            st.lists(st.sampled_from(["", "one", "zwei wörter", "三 words"]), min_size=1, max_size=5)),
                  max_size=6),
    ordered=st.booleans(),
    junk=st.lists(st.tuples(st.integers(0, 10**6), _SKIPPED_LINES), max_size=8),
    newline=st.booleans(),
)
@example(  # a skipped record of another author where a raw author_id would mark a change
    runs=[("a", ["one", "one"]), ("b", ["one", "one"])], ordered=True,
    junk=[(1, '{"author_id": "zz", "timestamp": "never", "text": "x"}')], newline=True,
)
@settings(max_examples=200, deadline=None)
def test_shards_read_as_the_whole_file(tmp_path_factory, runs, ordered, junk, newline):
    if ordered:
        runs.sort(key=lambda r: r[0])
    lines = [canonical_line(Message(author, ts(f"2014-03-01T12:{i:02d}:00Z"), "blog", text))[:-1]
             for author, texts in runs for i, text in enumerate(texts)]
    for position, line in junk:
        lines.insert(position % (len(lines) + 1), line)
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    path.write_bytes(("\n".join(lines) + "\n" * (newline and bool(lines))).encode())
    whole = _read_shards(path, [Shard()])
    for n in range(1, 6):
        shards = split_corpus(path, n)
        assert 1 <= len(shards) <= n
        assert _read_shards(path, shards) == whole


# --- iter_author_texts ---------------------------------------------------

# Stamps of 2014-03-01T12:00:00Z in every form the reader accepts, and
# one second later: an author's messages tie across forms.
_NOON_STAMPS = st.sampled_from([
    "2014-03-01T12:00:00Z", "2014-03-01T12:00:01Z", "2014-03-01T13:00:00+01:00", "2014-03-01T07:00:01-05:00",
    "2014-03-01T12:00:00", " 2014-03-01T12:00:00Z", "2014-03-01 12:00:00Z", "20140301T120000Z",
    "2014-03-01T12:00:00.5Z", "2014-03-01T12:00:00.000001+00:00", "2014-03-01T12:00:00Z\n",
    1393675200, 1393675201, 1393675200.25, "Sat Mar 01 12:00:00 +0000 2014", "Sat Mar 01 13:00:01 +0100 2014",
])
# Canonical in form, valid or not: year 0000, month 13, day 30 of
# February, hour 24, minute or second 60; leap days, and the range's ends.
_FIELD_STAMPS = st.builds(
    "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z".format,
    st.sampled_from([0, 1, 1900, 2000, 2014, 2016, 9999]), st.integers(0, 13), st.integers(0, 32),
    st.sampled_from([0, 12, 23, 24]), st.sampled_from([0, 59, 60]), st.sampled_from([0, 1, 59, 60]),
)
_ODD_STAMPS = st.sampled_from([
    "2014-02-30T12:00:00Z", "0000-01-01T00:00:00Z", "2014-03-01T24:00:00Z", "2014-03-01T12:00:60Z",
    "\u0662\u0660\u0661\u0664-03-01T12:00:00Z", "2014-W09-6T12:00:00Z", "9999-12-31T23:59:59-01:00",
    "never", "", None, True, [1], 1e300,
])
_READER_RECORDS = st.fixed_dictionaries(
    {
        "author_id": st.sampled_from(["a", "b", "é", "\ud800b", 0, 7, None, True]),
        "timestamp": _NOON_STAMPS | _FIELD_STAMPS | _ODD_STAMPS,
        "text": st.sampled_from(["", "one", "two words", "lone \ud800", None, 5]),
    },
    optional={"medium": st.sampled_from(["blog", "twitter", "\udfff", None, 3])},  # missing reads as "other"
)


def _read_authors(read, path, shards):
    """What ``read`` yields from each shard in turn, as (author_id, medium,
    texts), each shard's tally, and the text of the order error, if any."""
    corpora, tallies = [], []
    try:
        for shard in shards:
            tally = ParseResult()
            corpora += ((c.author_id, c.medium, [getattr(m, "text", m) for m in c.messages])
                        for c in read(path, tally, shard))
            tallies.append((tally.lines, tally.skipped, tally.filtered))
    except CorpusOrderError as exc:
        return corpora, tallies, str(exc)
    return corpora, tallies, None


def _built_from_messages(path, tally, shard):
    return (c for run in iter_authors(path, tally, shard) for c in build_author_corpora(run))


@given(records=st.lists(_READER_RECORDS, max_size=24), ordered=st.booleans(),
       junk=st.lists(st.tuples(st.integers(0, 10**6), _JUNK_LINES), max_size=4))
@example(  # forms mixed within one author, a tie at 12:00:00, a fraction after it
    records=[{"author_id": "a", "timestamp": t, "medium": "blog", "text": str(i)} for i, t in enumerate(
        ["2014-03-01T12:00:01Z", 1393675200.25, "Sat Mar 01 12:00:00 +0000 2014", "2014-03-01T13:00:00+01:00",
         "2014-03-01T12:00:00Z", "2014-02-30T00:00:00Z"])],
    ordered=True, junk=[],
)
@settings(max_examples=300, deadline=None)
def test_iter_author_texts_reads_what_iter_authors_and_build_author_corpora_give(
        tmp_path_factory, records, ordered, junk):
    if ordered:  # a key that sorts like str(author_id); shuffled files hit order errors
        records.sort(key=lambda r: str(r["author_id"]))
    lines = [json.dumps(r) for r in records]
    for position, line in junk:
        lines.insert(position % (len(lines) + 1), line)
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    for n in (1, 2, 3):
        shards = split_corpus(path, n)
        assert _read_authors(iter_author_texts, path, shards) == _read_authors(_built_from_messages, path, shards)


def test_a_cut_falls_where_the_yielded_author_changes(tmp_path):
    # the middle lands in a's run, beside a skipped record of author "zz";
    # the cut is where b's first message starts
    lines = [b'{"author_id":"a","timestamp":"2014-03-01T12:00:00Z","medium":"m","text":"w"}\n'] * 3
    skipped = b'{"author_id":"zz","timestamp":"never","text":"x"}\n'
    b_line = b'{"author_id":"b","timestamp":"2014-03-01T12:00:00Z","medium":"m","text":"w"}\n'
    data = lines[0] + lines[1] + skipped + lines[2] + b_line
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    cut = data.index(b_line)
    assert split_corpus(path, 2) == [Shard(0, cut, None), Shard(cut, None, "a")]
    assert split_corpus(path, 1) == [Shard()]


def test_no_output_tweet_starts_with_rt():
    records = [
        {"author_id": "a", "timestamp": "2014-03-01T12:00:00Z", "text": f"RT @u{i} spam"}
        for i in range(20)
    ] + [
        {"author_id": "a", "timestamp": "2014-03-01T12:30:00Z", "text": "fine tweet"},
    ]
    result = parse_messages(tweets_stream(records), "tweets-jsonl", "twitter")
    assert all(not m.text.startswith("RT @") for m in result.messages)
    assert len(result.messages) == 1


def test_word_count_matches_tokenizer():
    m = Message("a", ts("2014-03-01T12:00:00Z"), "twitter", "I'm happy, so happy!")
    assert m.word_count == 4


def test_message_is_four_fields_of_plain_data():
    m = Message("a", ts("2014-03-01T12:00:00Z"), "twitter", "hi")
    assert [f.name for f in fields(Message)] == ["author_id", "timestamp", "medium", "text"]
    assert not hasattr(m, "__dict__")
    with pytest.raises(TypeError):
        Message("a", ts("2014-03-01T12:00:00Z"), "twitter", "hi", word_count=1)


def test_message_timestamps_are_stored_in_utc():
    naive = datetime(2014, 3, 1, 12, 0, 0)
    stored = Message("a", naive, "m", "").timestamp
    assert stored.tzinfo is timezone.utc and stored.replace(tzinfo=None) == naive

    india = datetime(2014, 3, 1, 17, 30, 0, tzinfo=timezone(timedelta(hours=5, minutes=30)))
    stored = Message("a", india, "m", "").timestamp
    assert stored.tzinfo is timezone.utc and stored == india
    assert stored.replace(tzinfo=None) == naive

    utc = datetime(2014, 3, 1, 12, 0, 0, tzinfo=timezone.utc)
    assert Message("a", utc, "m", "").timestamp is utc

    past_max = datetime.max.replace(tzinfo=timezone(timedelta(hours=-1)))
    with pytest.raises(OverflowError):
        Message("a", past_max, "m", "")
