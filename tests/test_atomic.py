from datetime import datetime, timezone

import pytest

from lexstable.atomic import atomic_write
from lexstable.ingest import Message, write_corpus

EARLIER = "earlier contents\nkept byte for byte\n"


def _earlier_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(EARLIER.encode())
    return path


def test_completed_write_replaces_the_file(tmp_path):
    path = _earlier_file(tmp_path)
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_write_keeps_the_earlier_file(tmp_path):
    path = _earlier_file(tmp_path)
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial " * 100_000)
            raise RuntimeError("midway")
    assert path.read_bytes() == EARLIER.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_write_creates_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "new.txt") as fh:
            fh.write("partial")
            raise RuntimeError("midway")
    assert list(tmp_path.iterdir()) == []


def test_unopenable_output_is_named_in_the_error(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as info:
        with atomic_write(path):
            pass
    assert info.value.filename == str(path)


def test_writer_failing_midway_keeps_the_earlier_corpus(tmp_path):
    path = _earlier_file(tmp_path)
    ts = datetime(2014, 3, 1, tzinfo=timezone.utc)
    good = [Message(f"a{i:05d}", ts, "blog", "word " * 20) for i in range(5000)]
    unencodable = Message("b", ts, "blog", object())  # sorts after every good message
    with pytest.raises(TypeError):
        write_corpus(good + [unencodable], path)
    assert path.read_bytes() == EARLIER.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_text_unencodable_as_utf8_midway_keeps_the_earlier_corpus(tmp_path):
    # a lone surrogate is valid JSON text with ensure_ascii=False, but the
    # UTF-8 file cannot hold it
    path = _earlier_file(tmp_path)
    ts = datetime(2014, 3, 1, tzinfo=timezone.utc)
    good = [Message(f"a{i:05d}", ts, "blog", "word " * 20) for i in range(5000)]
    with pytest.raises(UnicodeEncodeError):
        write_corpus(good + [Message("b", ts, "blog", "lone \ud800 surrogate")], path)
    assert path.read_bytes() == EARLIER.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
