import random
import string
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexstable import lexicon as lexicon_module
from lexstable.errors import EmptySampleError, LexiconError
from lexstable.lexicon import (
    Lexicon,
    count_matrix,
    load_lexicon,
    parse_lexicon,
    score_features,
    tokenize,
    write_lexicon,
)
from lexstable.synth import SyntheticSpec, companion_lexicon, generate_author

from conftest import data_path

TOY_LINES = [
    "%",
    "1\tpronoun",
    "2\tposemo",
    "%",
    "i\t1",
    "me\t1",
    "happ*\t2",
]


@pytest.fixture
def toy():
    return parse_lexicon(TOY_LINES)


# --- tokenize ----------------------------------------------------------

def test_tokenize_apostrophes_and_punctuation():
    assert tokenize("I'm happy!!") == ["i'm", "happy"]


def test_tokenize_digits_are_separators():
    assert tokenize("abc123def") == ["abc", "def"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_curly_apostrophe_folds():
    assert tokenize("don’t") == ["don't"]


def test_tokenize_edge_apostrophes_are_dropped():
    assert tokenize("'em don' ''") == ["em", "don"]


# --- load_lexicon ------------------------------------------------------

def test_load_bundled_toy():
    lex = load_lexicon(data_path("toy.dic"))
    assert len(lex.categories) == 2
    assert lex.category_names == ("pronoun", "posemo")
    assert len(lex.exact) == 2 and len(lex.prefixes) == 1


def test_a_leading_bom_is_dropped(tmp_path):
    path = tmp_path / "toy.dic"
    path.write_bytes(b"\xef\xbb\xbf" + data_path("toy.dic").read_bytes())
    assert load_lexicon(path) == load_lexicon(data_path("toy.dic"))


def test_undeclared_category_reference_names_line():
    lines = TOY_LINES + ["oops\t9"]
    with pytest.raises(LexiconError) as err:
        parse_lexicon(lines)
    assert ":8:" in str(err.value) and "9" in str(err.value)


def test_duplicate_category_id_rejected():
    with pytest.raises(LexiconError, match="duplicate category id"):
        parse_lexicon(["%", "1\tpronoun", "1\tposemo", "%", "i\t1"])


def test_duplicate_category_name_rejected():
    with pytest.raises(LexiconError, match="duplicate category name"):
        parse_lexicon(["%", "1\tpronoun", "2\tpronoun", "%", "i\t1"])


def test_empty_prefix_rejected():
    with pytest.raises(LexiconError, match="empty prefix"):
        parse_lexicon(["%", "1\tpronoun", "%", "*\t1"])


def test_entry_order_does_not_matter(toy):
    entries = TOY_LINES[4:]
    shuffled = TOY_LINES[:4] + list(reversed(entries))
    assert parse_lexicon(shuffled) == toy


def test_entry_words_fold_the_curly_apostrophe_as_tokens_do():
    lex = parse_lexicon(["%", "1\tneg", "%", "don\u2019t\t1", "can\u2019*\t1"])
    assert lex.exact == {"don't": frozenset({1})} and lex.prefixes == {"can'": frozenset({1})}
    assert score_features(["don't don\u2019t", "can't can\u2019t"], lex).counts == {1: 4}


def test_duplicate_entries_merge_category_sets():
    lex = parse_lexicon(["%", "1\ta", "2\tb", "%", "x\t1", "x\t2", "pre*\t1", "pre*\t2", "y\t2\t1"])
    assert lex.exact["x"] == frozenset({1, 2})
    assert lex.prefixes["pre"] == frozenset({1, 2})
    assert lex.exact["x"] is lex.exact["y"] is lex.prefixes["pre"]  # one frozenset per distinct set


def test_roundtrip_through_file(tmp_path, toy):
    path = tmp_path / "toy.dic"
    write_lexicon(toy, path)
    assert load_lexicon(path) == toy


# Field text as a dictionary file can hold it: no tab, and none of the
# characters that end a line when the file is read back.
_FIELD = st.text(
    st.characters(blacklist_categories=("Cs",),
                  blacklist_characters="\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    min_size=1, max_size=8,
)


@given(
    categories=st.lists(st.tuples(st.integers(-10**6, 10**6), _FIELD), min_size=1, max_size=5,
                        unique_by=(lambda c: c[0], lambda c: c[1].strip())),
    entries=st.lists(st.tuples(_FIELD, st.sampled_from(["", "*"]),
                               st.lists(st.integers(0, 4), min_size=1, max_size=3)),
                     max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_write_lexicon_inverts_load_lexicon(tmp_path_factory, categories, entries):
    ids = [cid for cid, _ in categories]
    lines = ["%", *(f"{cid}\t{name}" for cid, name in categories), "%"]
    lines += [word + star + "\t" + "\t".join(str(ids[r % len(ids)]) for r in refs)
              for word, star, refs in entries]
    directory = tmp_path_factory.mktemp("lexicon")
    source = directory / "source.dic"
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        lexicon = load_lexicon(source)
    except LexiconError:
        assume(False)  # not a valid dictionary: blank name, empty prefix, ...
    written = directory / "written.dic"
    write_lexicon(lexicon, written)
    assert load_lexicon(written) == lexicon


# --- scoring -----------------------------------------------------------

def test_score_hand_counted_example(toy):
    fv = score_features(["I am happy today"], toy)
    assert fv.total_tokens == 4
    assert fv.frequencies[1] == 25.0
    assert fv.frequencies[2] == 25.0


def test_prefix_rule_matches_derived_forms(toy):
    fv = score_features(["happiness happily"], toy)
    assert fv.counts[2] == 2
    assert fv.frequencies[2] == 100.0


def test_all_empty_messages_raise(toy):
    with pytest.raises(EmptySampleError):
        score_features(["", "   "], toy)


def test_exact_beats_prefix():
    lex = parse_lexicon(["%", "1\texact_cat", "2\tprefix_cat", "%",
                         "happy\t1", "happ*\t2"])
    fv = score_features(["happy happier"], lex)
    assert fv.counts[1] == 1  # "happy" via the exact entry only
    assert fv.counts[2] == 1  # "happier" via the prefix


def test_longest_prefix_wins():
    lex = parse_lexicon(["%", "1\tshort", "2\tlong", "%", "ha*\t1", "happ*\t2"])
    fv = score_features(["happily hat"], lex)
    assert fv.counts[2] == 1 and fv.counts[1] == 1


def test_prefix_does_not_match_mid_word(toy):
    fv = score_features(["unhappy"], toy)
    assert fv.counts[2] == 0


def test_multi_category_entry_counts_both():
    lex = parse_lexicon(["%", "1\ta", "2\tb", "%", "love\t1\t2"])
    fv = score_features(["love"], lex)
    assert fv.counts == {1: 1, 2: 1}
    assert fv.frequencies == {1: 100.0, 2: 100.0}


def test_scoring_permutation_invariant(toy):
    msgs = ["I am happy", "me too", "so happy happy"]
    a = score_features(msgs, toy)
    b = score_features(list(reversed(msgs)), toy)
    assert a == b


def test_additivity_over_message_splits(toy):
    rng = random.Random(1234)
    words = ["i", "me", "happy", "happiest", "banana", "tree", "i'm"]
    msgs = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
            for _ in range(60)]
    whole = score_features(msgs, toy)
    for _ in range(200):
        k = rng.randint(1, len(msgs) - 1)
        left = score_features(msgs[:k], toy)
        right = score_features(msgs[k:], toy)
        assert left.total_tokens + right.total_tokens == whole.total_tokens
        for cid in whole.counts:
            assert left.counts[cid] + right.counts[cid] == whole.counts[cid]


def test_count_matrix_matches_score_features(toy):
    msgs = ["I am happy today", "me me", "", "happily ever after"]
    M, w = count_matrix(msgs, toy)
    assert M.shape == (4, 2)
    assert w.tolist() == [4, 2, 0, 3]
    fv = score_features(msgs, toy)
    assert M.sum(axis=0).tolist() == [fv.counts[1], fv.counts[2]]
    assert int(w.sum()) == fv.total_tokens


# Letters whose lowercasing or tokenizing is unusual: the final sigma,
# the dotted capital I (lowers to "i" plus a combining dot, which is not
# a letter) and the Kelvin sign (lowers to ASCII "k").
_WORD = st.text(st.sampled_from("aeks'\u03c3\u03c2\u03a3\u03bf\u0130\u0131\u212a"), min_size=1, max_size=4)
_PIECE = (_WORD | _WORD.map(str.upper) | st.text(max_size=6)
          | st.sampled_from(["\u2019", "_", "42", "\u0307", "'"]))
_TEXTS = st.lists(st.lists(_PIECE, max_size=8).map("".join), max_size=5)


@st.composite
def _lexicons(draw, words=_WORD.map(str.lower)):
    ids = list(range(1, draw(st.integers(1, 4)) + 1))
    refs = st.frozensets(st.sampled_from(ids), min_size=1)
    return Lexicon(
        categories=tuple((cid, f"c{cid}") for cid in ids),
        exact=draw(st.dictionaries(words, refs, max_size=6)),
        prefixes=draw(st.dictionaries(words, refs, max_size=4)),
    )


_EDGE_LEXICON = parse_lexicon([
    "%", "1\ta", "2\tb", "%",
    "i'm\t1", "key\t1\t2", "i\t2", "stan*\t1", "ab*\t2", "snake\t1", "\u03bf\u03b4\u03bf\u03c2\t2",
])


@given(texts=_TEXTS, lexicon=_lexicons())
@example(texts=["I\u2019m here", "I'm"], lexicon=_EDGE_LEXICON)
@example(texts=["\u212aey \u212a"], lexicon=_EDGE_LEXICON)
@example(texts=["\u212a"], lexicon=_EDGE_LEXICON)
@example(texts=["\u0130stanbul"], lexicon=_EDGE_LEXICON)
@example(texts=["abc123def 42"], lexicon=_EDGE_LEXICON)
@example(texts=["snake_case", "_"], lexicon=_EDGE_LEXICON)
@example(texts=["\u039f\u0394\u039f\u03a3 \u03bf\u03b4\u03bf\u03c3"], lexicon=_EDGE_LEXICON)
@example(texts=[], lexicon=_EDGE_LEXICON)
@example(texts=["", "key i", "42", "", "7 8", "snake", "0"], lexicon=_EDGE_LEXICON)
@example(texts=["12", "", "key"], lexicon=_EDGE_LEXICON)
@example(texts=["A", " A ", "key A i", "a\x00key", "\x00", "A A"], lexicon=_EDGE_LEXICON)
@example(texts=["\u03bf\u03b4\u03bf\u03c2 A", " A ", "\x00 \u00e9"], lexicon=_EDGE_LEXICON)
@example(texts=["key i'm", "\u03bf\u03b4\u03bf\u03c2 key", "", "\u0130 stand", "snake"], lexicon=_EDGE_LEXICON)
@settings(max_examples=200, deadline=None)
def test_count_kernels_match_the_token_loop(texts, lexicon):
    _check_against_the_token_loop(texts, lexicon)


# ASCII-only text, which the kernels split rather than match: runs of
# apostrophes at the start, middle and end of words, capitals (the
# sentinel A among them), digits, "_", every punctuation mark and the
# control characters that str.split() takes for whitespace.
_ASCII_WORD = st.text(st.sampled_from("abxyz'"), min_size=1, max_size=5)
_ASCII_PIECE = (_ASCII_WORD | _ASCII_WORD.map(str.upper) | st.text(st.just("'"), min_size=1, max_size=3)
                | st.sampled_from(string.digits + "_" + string.punctuation + " \t\n\r\x00\x0b\x0c\x1c\x1d\x1e\x1f\x7fA")
                | st.characters(max_codepoint=127))
_ASCII_TEXTS = st.lists(st.lists(_ASCII_PIECE, max_size=10).map("".join), max_size=5)
_ASCII_EDGE_LEXICON = parse_lexicon([
    "%", "1\ta", "2\tb", "%",
    "tis\t1", "a\t2", "b\t1", "x\t1\t2", "o'neill's\t2", "don't\t1", "sto*\t2", "a'b\t1",
])


@given(texts=_ASCII_TEXTS, lexicon=_lexicons(_ASCII_WORD))
@example(texts=["'tis"], lexicon=_ASCII_EDGE_LEXICON)
@example(texts=["a''b"], lexicon=_ASCII_EDGE_LEXICON)
@example(texts=["a'"], lexicon=_ASCII_EDGE_LEXICON)
@example(texts=["''"], lexicon=_ASCII_EDGE_LEXICON)
@example(texts=["o'neill's"], lexicon=_ASCII_EDGE_LEXICON)
@example(texts=["don't-stop"], lexicon=_ASCII_EDGE_LEXICON)
@example(texts=["x' A"], lexicon=_ASCII_EDGE_LEXICON)
@example(texts=["'A'"], lexicon=_ASCII_EDGE_LEXICON)
@example(texts=["'tis", "a''b", "a'", "''", "o'neill's", "don't-stop", "x' A", "'A'"], lexicon=_ASCII_EDGE_LEXICON)
@example(texts=["a1b\x7fx_y\x0bz\x1ctis"], lexicon=_ASCII_EDGE_LEXICON)
@settings(max_examples=300, deadline=None)
def test_ascii_split_path_matches_tokenize(texts, lexicon):
    assert "".join(texts).isascii()
    assert lexicon_module._tokens(texts) == [t for text in texts for t in [*tokenize(text), "A"]]
    _check_against_the_token_loop(texts, lexicon)


def _check_against_the_token_loop(texts, lexicon):
    col = {cid: j for j, cid in enumerate(lexicon.category_ids)}
    rows, lengths = [], []
    for text in texts:
        tokens = tokenize(text)
        lengths.append(len(tokens))
        row = [0] * len(col)
        for token in tokens:
            for cid in lexicon.lookup(token):
                row[col[cid]] += 1
        rows.append(row)
    M, w = count_matrix(texts, lexicon)
    assert M.shape == (len(texts), len(lexicon.categories))
    assert M.tolist() == rows
    assert w.tolist() == lengths
    expected = {cid: sum(row[j] for row in rows) for cid, j in col.items()}
    if sum(lengths) == 0:
        with pytest.raises(EmptySampleError):
            score_features(texts, lexicon)
        return
    fv = score_features(texts, lexicon)
    assert fv.counts == expected
    assert fv.total_tokens == sum(lengths)


def _results(texts, lexicon):
    M, w = count_matrix(texts, lexicon)
    try:
        fv = score_features(texts, lexicon)
    except EmptySampleError:
        fv = None
    return M.tolist(), w.tolist(), fv


@given(corpora=st.lists(_TEXTS, min_size=2, max_size=4), lexicon=_lexicons())
@example(corpora=[["key i'm stand"], ["\u0130stanbul abc"], [], ["", "i"]], lexicon=_EDGE_LEXICON)
@settings(max_examples=100, deadline=None)
def test_vocabulary_never_changes_a_result(tmp_path_factory, corpora, lexicon):
    def fresh():
        return Lexicon(lexicon.categories, lexicon.exact, lexicon.prefixes)

    want = [_results(texts, fresh()) for texts in corpora]
    shared = fresh()
    assert [_results(texts, shared) for texts in corpora] == want
    assert [_results(texts, shared) for texts in reversed(corpora)] == want[::-1]
    path = tmp_path_factory.mktemp("lexicon") / "shared.dic"
    write_lexicon(shared, path)
    assert load_lexicon(path) == shared == lexicon


def test_count_kernels_never_tokenize(monkeypatch, toy):
    def no_tokenize(text):
        raise AssertionError(f"tokenized {text!r}")

    monkeypatch.setattr("lexstable.lexicon.tokenize", no_tokenize)
    msgs = ["I am happy", "", "me 42", "caf\u00e9 happier"]
    M, w = count_matrix(msgs, toy)
    assert M.tolist() == [[1, 1], [0, 0], [1, 0], [0, 1]]
    assert w.tolist() == [3, 0, 1, 2]
    fv = score_features(msgs, toy)
    assert fv.counts == {1: 2, 2: 2} and fv.total_tokens == 6


def test_the_count_kernel_transient_grows_with_hits_not_tokens_times_categories():
    # One 2,000-message synth author at 70 categories, with each word of
    # the companion dictionary listed under 1-4 categories (1,101 rows).
    spec = SyntheticSpec(n_categories=70, vocab_per_category=20, n_messages=2000, seed=0)
    corpus = generate_author(spec, "author0000")
    base = companion_lexicon(spec)
    ids = base.category_ids
    exact = {word: refs | {ids[(i * (m + 2) + 5 * m) % 70] for m in range(i % 4)}
             for i, (word, refs) in enumerate(sorted(base.exact.items()))}
    lexicon = Lexicon(base.categories, exact, {})
    assert len(set(exact.values())) == 1101
    tracemalloc.start()
    try:
        M, w = count_matrix(corpus.messages, lexicon)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert M.shape == (2000, 70)
    assert int(w.sum()) == sum(len(tokenize(m.text)) for m in corpus.messages)
    # 3.4 MB when each token's categories are cells of one bincount; 10.4 MB
    # when each token gathers a 70-column row of a dense incidence matrix
    # (tokens x categories int32) that is then summed per message.
    assert peak < 6.0, peak
