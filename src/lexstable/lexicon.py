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
match whole tokens. An entry may list several category ids. Lines whose
first non-blank character is ``#`` and blank lines are ignored.
"""

from __future__ import annotations

import re
from collections import Counter
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
    ``category_ids``, ``category_names`` and the read-only
    ``name_to_id`` are derived from ``categories`` once, at
    construction.
    """

    categories: tuple[tuple[int, str], ...]
    exact: dict[str, frozenset[int]]
    prefixes: dict[str, frozenset[int]]
    category_ids: tuple[int, ...] = field(init=False, compare=False, repr=False)
    category_names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    name_to_id: Mapping[str, int] = field(init=False, compare=False, repr=False)
    _max_prefix_len: int = field(init=False, compare=False, repr=False)
    _memo: dict[str, tuple[int, ...]] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )

    def __post_init__(self):
        self.category_ids = tuple(cid for cid, _ in self.categories)
        self.category_names = tuple(name for _, name in self.categories)
        self.name_to_id = MappingProxyType({name: cid for cid, name in self.categories})
        self._max_prefix_len = max((len(p) for p in self.prefixes), default=0)

    def lookup(self, token: str) -> tuple[int, ...]:
        """Category ids for one lowercase token (sorted, possibly empty)."""
        hit = self._memo.get(token)
        if hit is not None:
            return hit
        ids = self.exact.get(token)
        if ids is None:
            for k in range(min(len(token), self._max_prefix_len), 0, -1):
                ids = self.prefixes.get(token[:k])
                if ids is not None:
                    break
        out = tuple(sorted(ids)) if ids else ()
        self._memo[token] = out
        return out


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
    with open(path, encoding="utf-8") as fh:
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
        if section == "categories":
            parts = [p for p in line.split("\t") if p.strip()]
            if len(parts) != 2:
                raise _parse_error(source, line_no, "category line must be '<id><TAB><name>'")
            try:
                cid = int(parts[0].strip())
            except ValueError:
                raise _parse_error(source, line_no, f"category id {parts[0].strip()!r} is not an integer") from None
            name = parts[1].strip()
            if cid in ids_seen:
                raise _parse_error(source, line_no, f"duplicate category id {cid}")
            if name in names_seen:
                raise _parse_error(source, line_no, f"duplicate category name {name!r}")
            ids_seen.add(cid)
            names_seen.add(name)
            categories.append((cid, name))
            continue
        # entries
        parts = [p for p in line.split("\t") if p.strip()]
        if len(parts) < 2:
            raise _parse_error(source, line_no, "entry line must be '<word><TAB><id>[<TAB><id>...]'")
        word = parts[0].strip().lower()
        try:
            refs = [int(p.strip()) for p in parts[1:]]
        except ValueError:
            raise _parse_error(source, line_no, "category references must be integers") from None
        for ref in refs:
            if ref not in ids_seen:
                raise _parse_error(source, line_no, f"entry references undeclared category {ref}")
        if word.endswith("*"):
            stem = word[:-1]
            if not stem:
                raise _parse_error(source, line_no, "empty prefix entry")
            prefixes.setdefault(stem, set()).update(refs)
        else:
            if not word:
                raise _parse_error(source, line_no, "empty word entry")
            exact.setdefault(word, set()).update(refs)

    if section == "preamble":
        raise LexiconError(f"{source}: no category block found")
    if section == "categories":
        raise LexiconError(f"{source}: category block never closed")
    if not categories:
        raise LexiconError(f"{source}: no categories declared")

    return Lexicon(
        categories=tuple(categories),
        exact={w: frozenset(s) for w, s in exact.items()},
        prefixes={p: frozenset(s) for p, s in prefixes.items()},
    )


def write_lexicon(lexicon: Lexicon, path) -> None:
    """Serialize a Lexicon back to the dictionary file format
    (deterministic: categories in declared order, entries sorted)."""
    out = ["%"]
    out.extend(f"{cid}\t{name}" for cid, name in lexicon.categories)
    out.append("%")
    for word in sorted(lexicon.exact):
        out.append(word + "\t" + "\t".join(str(c) for c in sorted(lexicon.exact[word])))
    for stem in sorted(lexicon.prefixes):
        out.append(stem + "*\t" + "\t".join(str(c) for c in sorted(lexicon.prefixes[stem])))
    with atomic_write(path) as fh:
        fh.write("\n".join(out) + "\n")


def score_features(messages, lexicon: Lexicon) -> FeatureVector:
    """Score concatenated messages against the lexicon.

    Accepts Message objects or plain strings. Raises EmptySampleError
    when the sample tokenizes to nothing.
    """
    tally: Counter[str] = Counter()
    total = 0
    for msg in messages:
        tokens = tokenize(getattr(msg, "text", msg))
        total += len(tokens)
        tally.update(tokens)
    if total == 0:
        raise EmptySampleError("sample contains no tokens")
    counts = {cid: 0 for cid in lexicon.category_ids}
    for token, n in tally.items():
        for cid in lexicon.lookup(token):
            counts[cid] += n
    frequencies = {cid: 100.0 * c / total for cid, c in counts.items()}
    return FeatureVector(counts=counts, total_tokens=total, frequencies=frequencies)


def count_matrix(messages, lexicon: Lexicon):
    """Per-message category counts for bulk scoring.

    Returns ``(M, w)`` where ``M[i, j]`` counts hits of message ``i`` in
    the lexicon's j-th declared category and ``w[i]`` is the message's
    token count. Summing rows of a subset reproduces score_features on
    that subset exactly (integer arithmetic).
    """
    col = {cid: j for j, cid in enumerate(lexicon.category_ids)}
    n_cats = len(col)
    rows = []
    w = []
    lookup = lexicon.lookup
    for msg in messages:
        tokens = tokenize(getattr(msg, "text", msg))
        w.append(len(tokens))
        row = [0] * n_cats
        for token in tokens:
            for cid in lookup(token):
                row[col[cid]] += 1
        rows.append(row)
    M = np.array(rows, dtype=np.int64) if rows else np.zeros((0, n_cats), dtype=np.int64)
    return M, np.array(w, dtype=np.int64)
