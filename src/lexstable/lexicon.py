"""LIWC-style category dictionary: loading, tokenization, scoring.

Dictionary file format (UTF-8 text)::

    # comment
    %
    1<TAB>pronoun
    2<TAB>posemo
    %
    i<TAB>1
    happ*<TAB>2
    love<TAB>1<TAB>2

A line containing only ``%`` opens the category block and a second one
closes it. A trailing ``*`` marks a prefix entry; all other entries
match whole tokens. U+2019 in an entry word reads as ``'``, as it does
in tokens. An entry may list several category ids. Lines whose
first non-blank character is ``#`` and blank lines are ignored.

Counting: one kernel, ``count_matrix``, counts every command's text;
``score_features`` sums its rows. It tokenizes the sample's lowered
messages joined by the sentinel ``" A "`` (``str.lower`` never yields an
ASCII ``A``) in one pass. When the lowered text is ASCII (U+212A lowers
to ``k``, U+0130 to two code points), one ``str.translate`` turns every
character but ``a``-``z``, ``'`` and the sentinel into a space, an
apostrophe not between two letters becomes a space, and ``str.split``
gives the tokens; other text goes through one ``findall`` of the token
pattern. Each token maps to a vocabulary row. The rows are the
dictionary's own, made once when the ``Lexicon`` is: one per distinct
category set among its entries, and one empty row that every miss
shares. A token goes through ``Lexicon.lookup`` once, when first seen,
to find its row. Each token then gives one (message, category) cell per
category of its row, and one ``np.bincount`` of the cells gives the
exact integer counts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .atomic import atomic_write
from .errors import EmptySampleError, LexiconError

# A token is a maximal run of letters, allowing internal apostrophes
# ("i'm" is one token). Digits, underscore and punctuation separate
# tokens. U+2019 is folded to the ASCII apostrophe before matching.
_TOKEN_RE = re.compile(r"[^\W\d_]+(?:'[^\W\d_]+)*")
# On lowered ASCII text every character but a-z, the apostrophe and the
# counting sentinel A separates tokens.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128))
                                   if not ("a" <= c <= "z" or c in "'A")})
_SENTINEL_ROW = 1  # the sentinel's row in every vocabulary


def tokenize(text: str) -> list[str]:
    """Lowercase tokens of ``text`` per the rules above; [] for empty."""
    if not text:
        return []
    return _TOKEN_RE.findall(text.replace("’", "'").lower())


@dataclass(eq=True)
class Lexicon:
    """An immutable category dictionary.

    ``categories`` keeps file order; ``exact`` maps whole words and
    ``prefixes`` maps stems (no ``*``) to frozensets of category ids.
    Longest matching prefix wins; an exact entry beats any prefix.
    Construction copies ``exact`` and ``prefixes`` into read-only
    mappings, so no entry changes after the counting vocabulary's rows
    are made from them. ``category_ids``, ``category_names`` and the
    read-only ``name_to_id`` are derived from ``categories`` once, at
    construction, and so are those rows. A pickle or a copy rebuilds
    the lexicon from its categories and entries.
    """

    categories: tuple[tuple[int, str], ...]
    exact: Mapping[str, frozenset[int]]
    prefixes: Mapping[str, frozenset[int]]
    category_ids: tuple[int, ...] = field(init=False, compare=False, repr=False)
    category_names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    name_to_id: Mapping[str, int] = field(init=False, compare=False, repr=False)
    _prefix_lengths: list[int] = field(init=False, compare=False, repr=False)
    _vocabulary: _Vocabulary = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.exact = MappingProxyType(dict(self.exact))
        self.prefixes = MappingProxyType(dict(self.prefixes))
        self.category_ids = tuple(cid for cid, _ in self.categories)
        self.category_names = tuple(name for _, name in self.categories)
        self.name_to_id = MappingProxyType({name: cid for cid, name in self.categories})
        self._prefix_lengths = sorted({len(p) for p in self.prefixes}, reverse=True)
        self._vocabulary = _Vocabulary(self)

    def __reduce__(self):
        return Lexicon, (self.categories, dict(self.exact), dict(self.prefixes))

    def lookup(self, token: str) -> tuple[int, ...]:
        """Category ids for one lowercase token (sorted, possibly empty)."""
        ids = self.exact.get(token)
        if ids is None:
            for k in self._prefix_lengths:  # past len(token), token[:k] is token
                ids = self.prefixes.get(token[:k])
                if ids is not None:
                    break
        return tuple(sorted(ids)) if ids else ()


class _Vocabulary(dict):
    """Token -> row: row 0 is every miss's and row 1 the sentinel's, both
    without categories; each other row is one distinct category set of
    the lexicon's entries, all made here. In CSR form, row r's
    ``sizes[r]`` column indices, in declared order, are
    ``columns[first[r]:first[r] + sizes[r]]``. Counting adds no row, only
    each token's entry, when the token is first seen."""

    def __init__(self, lexicon: Lexicon):
        super().__init__(A=_SENTINEL_ROW)
        self.lookup = lexicon.lookup
        sets = dict.fromkeys(ids for table in (lexicon.exact, lexicon.prefixes) for ids in table.values() if ids)
        patterns = [(), (), *(tuple(sorted(ids)) for ids in sets)]  # the miss row's and the sentinel's, then the rest
        self.rows = {pattern: row for row, pattern in enumerate(patterns) if row != _SENTINEL_ROW}
        col = {cid: j for j, cid in enumerate(lexicon.category_ids)}
        self.sizes = np.array([len(pattern) for pattern in patterns], dtype=np.intp)
        self.first = np.cumsum(self.sizes) - self.sizes
        self.columns = np.array([col[cid] for pattern in patterns for cid in pattern], dtype=np.intp)

    def __missing__(self, token: str) -> int:
        row = self[token] = self.rows[self.lookup(token)]
        return row


@dataclass
class FeatureVector:
    """Per-sample category tallies.

    ``frequencies[c]`` is the percentage of all tokens (dictionary
    misses included) that hit category ``c``; a token matching an entry
    with several categories increments each of them, so counts may sum
    to more than ``total_tokens``.
    """

    counts: dict[int, int]
    total_tokens: int
    frequencies: dict[int, float]


def _parse_error(path, line_no: int, msg: str) -> LexiconError:
    return LexiconError(f"{path}:{line_no}: {msg}")


def load_lexicon(path) -> Lexicon:
    """Load and validate a dictionary file. Raises LexiconError with the
    offending line number on duplicate ids/names, references to
    undeclared categories, or empty words."""
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        lines = fh.read().splitlines()
    return parse_lexicon(lines, source=path)


def parse_lexicon(lines: Iterable[str], source="<lexicon>") -> Lexicon:
    categories: list[tuple[int, str]] = []
    ids_seen: set[int] = set()
    names_seen: set[str] = set()
    exact: dict[str, set[int]] = {}
    prefixes: dict[str, set[int]] = {}
    section = "preamble"  # -> "categories" -> "entries"

    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "%":
            if section == "preamble":
                section = "categories"
            elif section == "categories":
                section = "entries"
            else:
                raise _parse_error(source, line_no, "unexpected '%' in entry block")
            continue
        if section == "preamble":
            raise _parse_error(source, line_no, "content before category block")
        parts = [p.strip() for p in line.split("\t") if p.strip()]
        if section == "categories":
            if len(parts) != 2:
                raise _parse_error(source, line_no, "category line must be '<id><TAB><name>'")
            try:
                cid = int(parts[0])
            except ValueError:
                raise _parse_error(source, line_no, f"category id {parts[0]!r} is not an integer") from None
            name = parts[1]
            if cid in ids_seen:
                raise _parse_error(source, line_no, f"duplicate category id {cid}")
            if name in names_seen:
                raise _parse_error(source, line_no, f"duplicate category name {name!r}")
            ids_seen.add(cid)
            names_seen.add(name)
            categories.append((cid, name))
            continue
        # entries
        if len(parts) < 2:
            raise _parse_error(source, line_no, "entry line must be '<word><TAB><id>[<TAB><id>...]'")
        word = parts[0].replace("’", "'").lower()
        try:
            refs = [int(p) for p in parts[1:]]
        except ValueError:
            raise _parse_error(source, line_no, "category references must be integers") from None
        for ref in refs:
            if ref not in ids_seen:
                raise _parse_error(source, line_no, f"entry references undeclared category {ref}")
        table, word = (prefixes, word[:-1]) if word.endswith("*") else (exact, word)
        if not word:  # parts are never blank, so only a bare "*" is empty
            raise _parse_error(source, line_no, "empty prefix entry")
        table.setdefault(word, set()).update(refs)

    if section == "preamble":
        raise LexiconError(f"{source}: no category block found")
    if section == "categories":
        raise LexiconError(f"{source}: category block never closed")
    if not categories:
        raise LexiconError(f"{source}: no categories declared")

    shared: dict[frozenset[int], frozenset[int]] = {}  # one frozenset per distinct category set

    def freeze(refs: set[int]) -> frozenset[int]:
        key = frozenset(refs)
        return shared.setdefault(key, key)

    return Lexicon(
        categories=tuple(categories),
        exact={w: freeze(s) for w, s in exact.items()},
        prefixes={p: freeze(s) for p, s in prefixes.items()},
    )


def write_lexicon(lexicon: Lexicon, path) -> None:
    """Serialize a Lexicon back to the dictionary file format
    (deterministic: categories in declared order, entries sorted)."""
    out = ["%"]
    out.extend(f"{cid}\t{name}" for cid, name in lexicon.categories)
    out.append("%")
    for entries, star in ((lexicon.exact, ""), (lexicon.prefixes, "*")):
        out.extend(w + star + "\t" + "\t".join(map(str, sorted(entries[w]))) for w in sorted(entries))
    with atomic_write(path) as fh:
        fh.write("\n".join(out) + "\n")


def _tokens(messages) -> list[str]:
    """Every token of ``messages`` (Message objects or strings), each
    message's followed by the sentinel, from one pass over their joined
    text: ``_TOKEN_RE.findall`` unless it is ASCII, else a translate and
    a split (the sentinel has a space on each side, so it never touches
    a letter or an apostrophe)."""
    texts = [getattr(msg, "text", msg) for msg in messages]
    joined = " A ".join([*map(str.lower, texts), ""]).replace("’", "'")
    if not joined.isascii():
        return _TOKEN_RE.findall(joined)
    joined = joined.translate(_ASCII_SEPARATORS)
    if "'" in joined:  # keep an apostrophe only between two letters
        pieces = joined.split("'")
        joined = pieces[0] + "".join(
            ("'" if left[-1:].isalpha() and right[:1].isalpha() else " ") + right
            for left, right in zip(pieces, pieces[1:])
        )
    return joined.split()


def score_features(messages, lexicon: Lexicon) -> FeatureVector:
    """Score concatenated messages against the lexicon: the column sums
    of ``count_matrix``.

    Accepts Message objects or plain strings. Raises EmptySampleError
    when the sample tokenizes to nothing.
    """
    M, words = count_matrix(messages, lexicon)
    total = int(words.sum())
    if total == 0:
        raise EmptySampleError("sample contains no tokens")
    counts = dict(zip(lexicon.category_ids, M.sum(axis=0).tolist()))
    frequencies = {cid: 100.0 * c / total for cid, c in counts.items()}
    return FeatureVector(counts=counts, total_tokens=total, frequencies=frequencies)


def count_matrix(messages, lexicon: Lexicon):
    """Per-message category counts, the one counting kernel.

    Returns ``(M, w)`` where ``M[i, j]`` (int32) counts hits of message
    ``i`` in the lexicon's j-th declared category and ``w[i]`` is the
    message's token count. Each token with categories gives one cell,
    ``i * categories + j``, per category of its row, and one
    ``np.bincount`` of the cells counts them: exact integers, with a
    transient that grows with the dictionary hits, not with tokens x
    categories. Summing rows of a subset scores that subset.
    """
    vocabulary = lexicon._vocabulary
    tokens = _tokens(messages)
    ids = np.fromiter(map(vocabulary.__getitem__, tokens), dtype=np.intp, count=len(tokens))
    last = ids == _SENTINEL_ROW
    ends = np.flatnonzero(last)
    w = np.diff(ends, prepend=-1) - 1
    k = len(lexicon.categories)
    sizes = vocabulary.sizes[ids]  # 0 for a miss or a sentinel, which np.repeat drops
    # the c-th cell of a token takes the column at first[row] + c
    cells = vocabulary.first[ids]
    cells += sizes
    cells -= np.cumsum(sizes)
    cells = np.repeat(cells, sizes)
    cells += np.arange(len(cells))
    cells = vocabulary.columns[cells]
    offsets = np.cumsum(last)  # the sentinels before a token: its message
    offsets *= k
    cells += np.repeat(offsets, sizes)
    return np.bincount(cells, minlength=len(ends) * k).reshape(len(ends), k).astype(np.int32), w
