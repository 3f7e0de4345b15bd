"""The benchmark's workloads: seeded inputs, the CLI commands each round
runs, and the checks on every command's outputs.

Every check compares the program's output with a computation made here,
apart from the package (own tokenizer, own dictionary matcher, numpy and
scipy statistics), or with a property the paper's protocol guarantees.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats as sps


class CheckError(Exception):
    """An output disagrees with the benchmark's own computation."""


class KnownFault(Exception):
    """A check that fails because of a named, not yet mended program fault.
    The operation counts as failed; the run stays correct."""


@dataclass
class Command:
    """One CLI invocation of a round. ``argv`` follows ``lexstable``;
    ``outputs`` are the files (relative to the command's directory) that
    must be byte-identical in every round and in the traced pass."""

    name: str
    phase: str  # "setup" or "analysis"
    argv: list[str]
    outputs: tuple[str, ...]
    check: Callable[[Path, str, str], None] = field(repr=False)


# ASCII form of the package's tokenizer contract: maximal runs of letters
# with internal apostrophes, lowercased. Every generated text is ASCII.
_WORD_RE = re.compile(r"[a-z]+(?:'[a-z]+)*")


def words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rel: float, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def check_svg(path: Path) -> None:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckError(f"{path.name} is not well-formed XML: {exc}") from None
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        raise CheckError(f"{path.name} root element is {root.tag}")


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# synthetic stability workloads


class _Synthetic:
    """``synth`` (set-up) followed by one ``stability`` run (analysis)."""

    authors: int
    messages = 2000
    categories = 10
    vocab = 20
    synth_flags: tuple[str, ...] = ()
    stability_flags: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.tokens = 0  # canonical-corpus tokens, counted by the benchmark
        self.word_counts: dict[str, list[int]] = {}

    def commands(self, d: Path) -> list[Command]:
        corpus = d / "synth" / "corpus.jsonl"
        lexicon = d / "synth" / "synth.dic"
        return [
            Command("synth", "setup", [
                "synth", "--authors", str(self.authors), "--messages", str(self.messages),
                "--seed", str(self.seed), "--categories", str(self.categories),
                "--vocab-per-category", str(self.vocab), *self.synth_flags,
                "--out", str(corpus), "--lexicon-out", str(lexicon),
            ], ("corpus.jsonl", "synth.dic"), self.check_synth),
            Command("stability", "analysis", [
                "stability", "--corpus", str(corpus), "--lexicon", str(lexicon),
                *self.stability_flags, "--seed", str(self.seed),
                "--out", str(d / "stability" / "curves.csv"),
                "--svg", str(d / "stability" / "curves.svg"),
            ], ("curves.csv", "curves.svg"), self.check_stability),
        ]

    def check_synth(self, out: Path, stdout: str, stderr: str) -> None:
        records = read_jsonl(out / "corpus.jsonl")
        expected_ids = [f"author{i:04d}" for i in range(self.authors)]
        per_author: dict[str, list[int]] = {}
        last_ts: dict[str, str] = {}
        for r in records:
            require(r["medium"] == "synthetic", f"medium {r['medium']!r}")
            author = r["author_id"]
            require(r["timestamp"] > last_ts.get(author, ""), f"{author}: timestamps not ascending")
            last_ts[author] = r["timestamp"]
            n = len(words(r["text"]))
            require(10 <= n <= 20, f"{author}: message of {n} words")
            per_author.setdefault(author, []).append(n)
        require(sorted(per_author) == expected_ids, "author ids differ from author0000..")
        require(all(len(v) == self.messages for v in per_author.values()),
                f"an author does not have {self.messages} messages")
        entries = (out / "synth.dic").read_text(encoding="utf-8").splitlines()
        require(len(entries) == 2 + self.categories * (1 + self.vocab),
                f"dictionary has {len(entries)} lines")
        self.word_counts = per_author
        self.tokens = sum(sum(v) for v in per_author.values())

    def describe(self) -> str:
        return (f"synth {self.authors} authors x {self.messages} messages, "
                f"{self.categories} categories x {self.vocab} words; stability {' '.join(self.stability_flags)}")

    def curve_rows(self, out: Path) -> list[dict]:
        rows = read_csv(out / "curves.csv")
        check_svg(out / "curves.svg")
        return rows

    @staticmethod
    def mean_by(rows: list[dict], mode: str, sizes) -> np.ndarray:
        return np.array([
            np.mean([float(r["mean_variability"]) for r in rows
                     if r["mode"] == mode and int(r["size"]) == s])
            for s in sizes
        ])


class StabilityMessages(_Synthetic):
    """The paper's headline experiment, drift-free, message unit."""

    authors = 50
    base = 2000
    sizes = (20, 50, 100, 200, 500, 1000)
    mode_gap = 0.15  # largest relative random/contiguous gap accepted without drift
    stability_flags = ("--unit", "messages", "--mode", "both", "--base", "2000",
                       "--sizes", ",".join(map(str, sizes)))

    def check_stability(self, out: Path, stdout: str, stderr: str) -> None:
        rows = self.curve_rows(out)
        names = {f"cat{k:02d}" for k in range(1, self.categories + 1)}
        require({r["trait"] for r in rows} == names, "curve names differ from the categories")
        require(len(rows) == len(names) * 2 * len(self.sizes), f"{len(rows)} curve rows")
        for r in rows:
            want = self.authors * (self.base // int(r["size"]))
            require(int(r["n_observations"]) == want,
                    f"{r['trait']}/{r['mode']}/{r['size']}: {r['n_observations']} observations, want {want}")
        rand = self.mean_by(rows, "random", self.sizes)
        cont = self.mean_by(rows, "contiguous", self.sizes)
        require(all(a > b for a, b in zip(rand, rand[1:])), f"random variability not falling: {rand}")
        x = 1.0 / np.sqrt(np.array(self.sizes, dtype=float))
        fit = float((rand * x).sum() / (x * x).sum()) * x
        worst = float(np.max(np.abs(rand - fit) / fit))
        require(worst <= 0.30, f"random variability {worst:.1%} off the c/sqrt(size) fit")
        gap = float(np.max(np.abs(rand - cont) / rand))
        require(gap <= self.mode_gap, f"modes differ by {gap:.1%} on a drift-free corpus")


class StabilityWordsDrift(_Synthetic):
    """Drifting corpus, word unit, three-trait model."""

    authors = 40
    base = 20000
    sizes = (100, 200, 500, 1000, 2000, 5000, 10000)
    synth_flags = ("--drift-rho", "0.99", "--drift-sigma", "0.5")

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        rng = random.Random(f"words-drift-model-{seed}")
        self.model = work / "drift.model"
        lines = ["model bench_drift"]
        for trait in ("alpha", "beta", "gamma"):
            lines.append(f"trait {trait} intercept={rng.uniform(1.0, 3.0):.4f}")
            for k in sorted(rng.sample(range(1, self.categories + 1), 4)):
                lines.append(f"\tcat{k:02d} {rng.uniform(-0.5, 0.5):.4f}")
        self.model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.stability_flags = (
            "--model", str(self.model), "--unit", "words", "--mode", "both",
            "--base", str(self.base), "--sizes", ",".join(map(str, self.sizes)),
        )

    def expected_blocks(self, size: int) -> int:
        """Blocks per the protocol: the full sample is the latest messages
        whose word count reaches the base (crossing message included),
        cut greedily from its start into blocks of at least ``size``
        words, at most base // size of them."""
        total = 0
        for counts in self.word_counts.values():
            if sum(counts) < self.base:
                continue
            acc = 0
            start = len(counts)
            while acc < self.base:
                start -= 1
                acc += counts[start]
            blocks = 0
            acc = 0
            for n in counts[start:]:
                acc += n
                if acc >= size:
                    blocks += 1
                    acc = 0
                    if blocks == self.base // size:
                        break
            total += blocks
        return total

    def check_stability(self, out: Path, stdout: str, stderr: str) -> None:
        rows = self.curve_rows(out)
        require({r["trait"] for r in rows} == {"alpha", "beta", "gamma"}, "trait names differ")
        require(len(rows) == 3 * 2 * len(self.sizes), f"{len(rows)} curve rows")
        want = {s: self.expected_blocks(s) for s in self.sizes}
        for r in rows:
            size = int(r["size"])
            require(int(r["n_observations"]) == want[size],
                    f"{r['trait']}/{r['mode']}/{size}: {r['n_observations']} observations, "
                    f"want {want[size]}")
        rand = self.mean_by(rows, "random", self.sizes)
        cont = self.mean_by(rows, "contiguous", self.sizes)
        require(all(c > r for c, r in zip(cont, rand)),
                f"contiguous variability {cont} does not exceed random {rand} under drift")


# ---------------------------------------------------------------------------
# cross-media workload

_DICT_LETTERS = "abcdefghijklm"   # dictionary words and stems use only these
_FILLER_FIRST = "nopqrstuvwxyz"   # so no filler word can hit an entry
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_URL_PREFIXES = ("http://", "https://", "www.")
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_EPOCH = datetime(2014, 1, 1, tzinfo=timezone.utc)
_INGEST_RE = re.compile(r"ingested (\d+) message\(s\); skipped (\d+) malformed, filtered (\d+)")

# Tweets that trip the known canonical round-trip fault: ``ingest`` writes
# "#@newsdesk" as "@newsdesk" and "#http://..." as "http://...", and
# ``read_corpus`` cleans the text again and drops those tokens. Fixed, so
# the failure does not depend on the seed.
FAULT_TWEETS = (
    ("tw9001", "2014-02-03T08:00:00Z", "#@newsdesk thanks for the quick update today"),
    ("tw9001", "2014-02-03T09:30:00Z", "still reading #http://example.com/story now"),
    ("tw9002", "2014-02-04T10:15:00Z", "#@porter see you soon"),
    ("tw9002", "2014-02-04T11:45:00Z", "#https://t.co/xyzw worth your time"),
)


def _word(rng: random.Random, first: str, rest: str, lo: int, hi: int) -> str:
    return rng.choice(first) + "".join(rng.choice(rest) for _ in range(rng.randint(lo, hi) - 1))


def _iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _reclean(text: str) -> str:
    """The documented twitter cleaning rules applied to canonical text."""
    out = []
    for token in text.split():
        if token.lower().startswith(_URL_PREFIXES) or token.startswith("@"):
            continue
        token = token.lstrip("#")
        if token:
            out.append(token)
    return " ".join(out)


class MediaCompare:
    """Raw tweets and mail, ingested, scored, compared and renormalized."""

    n_categories = 70
    words_per_category = 28
    n_prefix = 40
    n_double = 30
    n_shifted = 3
    dict_share = 0.65
    tweet_authors = 160
    tweets_per_author = (40, 140)
    mail_authors = 100
    mails_per_author = (25, 75)
    trait_names = ("openness", "conscientiousness", "extraversion")

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(f"media-compare-{seed}")
        self.tokens = 0
        self.refs: dict[str, dict] = {}    # medium -> author -> [messages, tokens, counts]
        self.faulty: dict[str, int] = {}   # twitter author -> tokens left after cleaning twice
        self._make_lexicon()
        self._make_model()
        self.tweets = work / "tweets.jsonl"
        self.mbox = work / "mail.mbox"
        self.expected = {"twitter": self._make_tweets(), "email": self._make_mail()}

    # -- inputs -------------------------------------------------------------

    def _make_lexicon(self) -> None:
        rng = self.rng
        self.names = [f"cat{k:02d}" for k in range(1, self.n_categories + 1)]
        seen: set[str] = set()

        def fresh(lo, hi):
            while True:
                w = _word(rng, _DICT_LETTERS, _DICT_LETTERS, lo, hi)
                if w not in seen:
                    seen.add(w)
                    return w

        self.cat_words = {k: [fresh(5, 8) for _ in range(self.words_per_category)]
                          for k in range(1, self.n_categories + 1)}
        self.stems = {k: fresh(4, 4) for k in range(1, self.n_prefix + 1)}
        self.exact = {w: {k} for k, ws in self.cat_words.items() for w in ws}
        for w in rng.sample(sorted(self.exact), self.n_double):
            (k,) = self.exact[w]
            self.exact[w].add(rng.choice([j for j in range(1, self.n_categories + 1) if j != k]))
        self.prefix = {stem: k for k, stem in self.stems.items()}
        # No filler may look like a URL once punctuation is attached.
        self.filler = sorted({w for w in (_word(rng, _FILLER_FIRST, _ALPHABET, 3, 8) for _ in range(300))
                              if not w.startswith(("www", "http"))})
        self.filler += [w + "'s" for w in self.filler[:20]]
        rates = [rng.uniform(0.5, 1.5) for _ in range(self.n_categories)]
        self.rates = [self.dict_share * r / sum(rates) for r in rates]
        self.shifted = sorted(rng.sample(range(1, self.n_categories + 1), self.n_shifted))
        self.memo: dict[str, tuple[int, ...]] = {}

        lines = ["%"]
        lines += [f"{k}\t{name}" for k, name in enumerate(self.names, start=1)]
        lines.append("%")
        entries = [w + "\t" + "\t".join(map(str, sorted(ks))) for w, ks in self.exact.items()]
        entries += [f"{stem}*\t{k}" for stem, k in self.prefix.items()]
        rng.shuffle(entries)
        self.lexicon = self.work / "media.dic"
        self.lexicon.write_text("\n".join(lines + entries) + "\n", encoding="utf-8")

    def _make_model(self) -> None:
        rng = self.rng
        self.model = {}
        lines = ["model bench_media"]
        for trait in self.trait_names:
            intercept = round(rng.uniform(1.5, 3.5), 4)
            weights = {self.names[k - 1]: round(rng.uniform(-0.4, 0.4), 4)
                       for k in sorted(rng.sample(range(1, self.n_categories + 1), 8))}
            self.model[trait] = (intercept, weights)
            lines.append(f"trait {trait} intercept={intercept}")
            lines += [f"\t{name} {w}" for name, w in weights.items()]
        self.model_path = self.work / "media.model"
        self.model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.renorm_trait = self.trait_names[0]
        self.renorm_value = round(rng.uniform(1.0, 4.0), 3)

    def _author_sampler(self, medium: str):
        """Category (0 = filler) cumulative weights for one author."""
        rng = self.rng
        weights = []
        for k, rate in enumerate(self.rates, start=1):
            r = rate * math.exp(0.3 * rng.gauss(0.0, 1.0))
            if medium == "email" and k in self.shifted:
                r *= 2.0
            weights.append(r)
        cum, acc = [], 0.0
        for w in [max(0.0, 1.0 - sum(weights))] + weights:
            acc += w
            cum.append(acc)
        return cum

    def _text(self, cum, n_tokens: int) -> list[str]:
        rng = self.rng
        out = []
        for k in rng.choices(range(self.n_categories + 1), cum_weights=cum, k=n_tokens):
            if k == 0:
                w = rng.choice(self.filler)
            elif k in self.stems and rng.random() < 0.3:
                w = self.stems[k] + _word(rng, _ALPHABET, _ALPHABET, 2, 4)
            else:
                w = rng.choice(self.cat_words[k])
            r = rng.random()
            if r < 0.05:
                w = w.capitalize()
            elif r < 0.12:
                w += rng.choice(",.!?")
            out.append(w)
        return out

    def _counts(self, authors: int, lo: int, hi: int) -> list[int]:
        """Messages per author, spread evenly over [lo, hi] and shuffled, so
        the total (and the work a round does) is the same for every seed."""
        counts = [lo + (hi - lo) * i // (authors - 1) for i in range(authors)]
        self.rng.shuffle(counts)
        return counts

    def _times(self, n: int) -> list[datetime]:
        offsets = sorted(self.rng.sample(range(0, 365 * 86400), n))
        return [_EPOCH + timedelta(seconds=s) for s in offsets]

    def _tweet_time(self, ts: datetime):
        rng = self.rng
        form = rng.random()
        if form < 0.4:
            return _iso(ts)
        if form < 0.7:
            return int(ts.timestamp())
        off = rng.choice((-300, -60, 0, 60, 330))
        local = ts + timedelta(minutes=off)
        sign = "-" if off < 0 else "+"
        return (f"{_WEEKDAYS[local.weekday()]} {_MONTHS[local.month - 1]} {local.day:02d} "
                f"{local:%H:%M:%S} {sign}{abs(off) // 60:02d}{abs(off) % 60:02d} {local.year}")

    def _make_tweets(self) -> list[tuple[str, str, str]]:
        rng = self.rng
        lines: list[str] = []
        expected = []
        self.planted = {"twitter": {"skipped": 0, "filtered": 0}}
        counts = self._counts(self.tweet_authors, *self.tweets_per_author)
        for a in range(self.tweet_authors):
            author = f"tw{a:04d}"
            cum = self._author_sampler("twitter")
            for ts in self._times(counts[a]):
                raw, clean = [], []
                for w in self._text(cum, rng.randint(6, 18)):
                    r = rng.random()
                    if r < 0.03:
                        raw.append(rng.choice(("http://t.co/", "https://bit.ly/", "www.example.com/"))
                                   + _word(rng, _ALPHABET, _ALPHABET, 4, 8))
                    elif r < 0.07:
                        raw.append("@" + _word(rng, _ALPHABET, _ALPHABET + "_", 4, 10))
                    if rng.random() < 0.05:
                        raw.append("#" + w)
                    else:
                        raw.append(w)
                    clean.append(w)
                record: dict = {"text": " ".join(raw), "created_at": self._tweet_time(ts)}
                if rng.random() < 0.5:
                    record["author_id"] = author
                else:
                    record["user"] = {"id_str": author, "screen_name": "u" + author}
                r = rng.random()
                if r < 0.02:
                    record["retweeted_status"] = {"id": rng.randint(1, 10**9)}
                    self.planted["twitter"]["filtered"] += 1
                elif r < 0.03:
                    record["text"] = "RT @" + _word(rng, _ALPHABET, _ALPHABET, 4, 8) + ": " + record["text"]
                    self.planted["twitter"]["filtered"] += 1
                elif r < 0.06:
                    record["lang"] = rng.choice(("es", "fr", "de"))
                    self.planted["twitter"]["filtered"] += 1
                else:
                    if r < 0.5:
                        record["lang"] = "en"
                    expected.append((author, _iso(ts), " ".join(clean)))
                lines.append(json.dumps(record))
        malformed = ['{"author_id": "tw0001", "text": "cut off', "[1, 2, 3]", "null",
                     '{"text": "no author here", "created_at": "2014-05-05T00:00:00Z"}',
                     '{"author_id": "tw0002", "text": "bad time", "created_at": "yesterday"}',
                     '{"author_id": "tw0003", "text": 42, "created_at": "2014-05-05T00:00:00Z"}']
        for i in range(max(1, len(lines) // 400)):
            lines.append(malformed[i % len(malformed)])
            self.planted["twitter"]["skipped"] += 1
        for author, ts, text in FAULT_TWEETS:
            lines.append(json.dumps({"author_id": author, "created_at": ts, "text": text}))
        lines += [""] * 5
        rng.shuffle(lines)
        self.tweets.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.fault_authors = {a for a, _, _ in FAULT_TWEETS}
        self.planted["twitter"]["ingested"] = len(expected) + len(FAULT_TWEETS)
        return sorted(expected)

    def _mail_body(self, cum, words_out: list[str]) -> str:
        rng = self.rng
        tokens = []
        for w in self._text(cum, rng.randint(15, 60)):
            if rng.random() < 0.02:
                tokens.append("https://example.org/" + _word(rng, _ALPHABET, _ALPHABET, 3, 8))
            tokens.append(w)
            words_out.append(w)
        lines = [" ".join(tokens[i:i + 9]) for i in range(0, len(tokens), 9)]
        quote = lambda: "> " + " ".join(self._text(cum, 8))  # noqa: E731
        if rng.random() < 0.2:
            lines = [quote(), quote(), ""] + lines
        tail = rng.random()
        if tail < 0.3:
            lines += ["", "On Tue, Mar 4, 2014 at 9:12 AM, Someone <someone@example.net> wrote:",
                      quote(), quote()]
        elif tail < 0.45:
            lines += ["", "  -----Original Message-----  ", "From: someone@example.net",
                      "Subject: earlier", "", " ".join(self._text(cum, 12))]
        elif tail < 0.7:
            lines += ["-- ", "Sent from a desk", " ".join(self._text(cum, 5))]
        return "\n".join(lines) + "\n"

    def _make_mail(self) -> list[tuple[str, str, str]]:
        rng = self.rng
        chunks: list[str] = []
        expected = []
        counts = self._counts(self.mail_authors, *self.mails_per_author)
        for a in range(self.mail_authors):
            addr = f"user{a:03d}@mail{a % 7}.example.org"
            sender = addr if a % 3 else f"User {a:03d} <{addr}>"
            cum = self._author_sampler("email")
            for i, ts in enumerate(self._times(counts[a])):
                kept: list[str] = []
                body = self._mail_body(cum, kept)
                off = timezone(timedelta(minutes=rng.choice((-480, -300, 0, 60, 120))))
                headers = [f"From: {sender}", "To: list@example.org", f"Subject: note {i}",
                           f"Date: {ts.astimezone(off).strftime('%a, %d %b %Y %H:%M:%S %z')}",
                           "MIME-Version: 1.0"]
                if rng.random() < 0.1:
                    headers.append('Content-Type: multipart/alternative; boundary="alt-b"')
                    body = ("--alt-b\nContent-Type: text/html; charset=utf-8\n\n<p>html copy</p>\n"
                            f"--alt-b\nContent-Type: text/plain; charset=utf-8\n\n{body}--alt-b--\n")
                else:
                    headers.append("Content-Type: text/plain; charset=utf-8")
                chunks.append("\n".join(headers) + "\n\n" + body)
                expected.append((addr, _iso(ts), " ".join(kept)))
        skipped = max(1, len(chunks) // 300)
        for i in range(skipped):
            if i % 3 == 0:  # no headers at all
                chunks.append("just a body line without any headers\n")
            elif i % 3 == 1:
                chunks.append(f"From: user{i:03d}@mail0.example.org\nSubject: no date\n\nbody\n")
            else:
                chunks.append(f"From: user{i:03d}@mail0.example.org\nDate: sometime soon\n\nbody\n")
        self.planted["email"] = {"skipped": skipped, "filtered": 0, "ingested": len(expected)}
        rng.shuffle(chunks)
        with open(self.mbox, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write("From bench@example.org Mon Jan  6 10:00:00 2014\n" + chunk + "\n")
        return sorted(expected)

    def describe(self) -> str:
        p = self.planted
        return (f"{p['twitter']['ingested']} tweets kept of {sum(p['twitter'].values())} "
                f"({p['twitter']['skipped']} malformed, {p['twitter']['filtered']} retweets or non-English; "
                f"{len(FAULT_TWEETS)} fixed round-trip tweets), {p['email']['ingested']} mails kept of "
                f"{sum(p['email'].values())} ({p['email']['skipped']} without sender or date); "
                f"{self.n_categories} categories, {len(self.exact) + len(self.prefix)} entries; "
                f"shifted in email: {', '.join(self.names[k - 1] for k in self.shifted)}")

    # -- commands -----------------------------------------------------------

    def commands(self, d: Path) -> list[Command]:
        corpus = {m: d / f"ingest-{m}" / f"{m}.jsonl" for m in ("twitter", "email")}
        lex = str(self.lexicon)
        model = str(self.model_path)
        cmds = [
            Command("ingest-twitter", "setup", [
                "ingest", "--input", str(self.tweets), "--format", "tweets-jsonl",
                "--out", str(corpus["twitter"])], ("twitter.jsonl",),
                lambda out, so, se: self.check_ingest("twitter", out, se)),
            Command("ingest-email", "setup", [
                "ingest", "--input", str(self.mbox), "--format", "mbox",
                "--out", str(corpus["email"])], ("email.jsonl",),
                lambda out, so, se: self.check_ingest("email", out, se)),
        ]
        for m in ("twitter", "email"):
            cmds.append(Command(f"score-{m}", "analysis", [
                "score", "--corpus", str(corpus[m]), "--lexicon", lex,
                "--out", str(d / f"score-{m}" / "features.csv")], ("features.csv",),
                lambda out, so, se, m=m: self.check_score(m, out)))
        for m in ("twitter", "email"):
            cmds.append(Command(f"traits-{m}", "analysis", [
                "traits", "--corpus", str(corpus[m]), "--lexicon", lex, "--model", model,
                "--out", str(d / f"traits-{m}" / "traits.csv"),
                "--stats-out", str(d / f"traits-{m}" / "stats.json")], ("traits.csv", "stats.json"),
                lambda out, so, se, m=m: self.check_traits(m, out, d / f"score-{m}" / "features.csv")))
        pair = ["--corpus-a", str(corpus["twitter"]), "--corpus-b", str(corpus["email"]), "--lexicon", lex]
        cmds.append(Command("compare-categories", "analysis", [
            "compare", *pair, "--out", str(d / "compare-categories" / "compare.csv"),
            "--svg", str(d / "compare-categories" / "compare.svg")], ("compare.csv", "compare.svg"),
            lambda out, so, se: self.check_compare(out, "features.csv", "score", self.names)))
        cmds.append(Command("compare-traits", "analysis", [
            "compare", *pair, "--model", model, "--out", str(d / "compare-traits" / "compare.csv"),
            "--svg", str(d / "compare-traits" / "compare.svg")], ("compare.csv", "compare.svg"),
            lambda out, so, se: self.check_compare(out, "traits.csv", "traits", list(self.trait_names))))
        cmds.append(Command("renorm", "analysis", [
            "renorm", "--from-stats", str(d / "traits-twitter" / "stats.json"),
            "--to-stats", str(d / "traits-email" / "stats.json"),
            "--trait", self.renorm_trait, "--value", str(self.renorm_value)], (),
            lambda out, so, se: self.check_renorm(d, so)))
        return cmds

    # -- checks -------------------------------------------------------------

    def _lookup(self, token: str) -> tuple[int, ...]:
        """Exact entry first, else the longest matching prefix entry."""
        hit = self.memo.get(token)
        if hit is None:
            if token in self.exact:
                hit = tuple(sorted(self.exact[token]))
            else:
                hit = ()
                for k in range(min(len(token), 4), 0, -1):
                    if token[:k] in self.prefix:
                        hit = (self.prefix[token[:k]],)
                        break
            self.memo[token] = hit
        return hit

    def check_ingest(self, medium: str, out: Path, stderr: str) -> None:
        m = _INGEST_RE.search(stderr)
        require(m is not None, f"ingest {medium}: no counts on stderr")
        got = dict(zip(("ingested", "skipped", "filtered"), map(int, m.groups())))
        require(got == self.planted[medium], f"ingest {medium}: counts {got}, planted {self.planted[medium]}")
        records = read_jsonl(out / f"{medium}.jsonl")
        require(len(records) == got["ingested"], f"ingest {medium}: {len(records)} canonical lines")
        keys = [(r["author_id"], r["timestamp"]) for r in records]
        require(keys == sorted(keys), f"ingest {medium}: corpus not sorted by author and time")
        require(all(r["medium"] == medium for r in records), f"ingest {medium}: wrong medium")
        fault = self.fault_authors if medium == "twitter" else set()
        kept = [(r["author_id"], r["timestamp"], r["text"]) for r in records if r["author_id"] not in fault]
        require(kept == self.expected[medium], f"ingest {medium}: canonical records differ from the raw input")
        refs: dict[str, list] = {}
        faulty: dict[str, int] = {}
        for r in records:
            ref = refs.setdefault(r["author_id"], [0, 0, [0] * (self.n_categories + 1)])
            toks = words(r["text"])
            ref[0] += 1
            ref[1] += len(toks)
            for t in toks:
                for k in self._lookup(t):
                    ref[2][k] += 1
            faulty[r["author_id"]] = faulty.get(r["author_id"], 0) + len(words(_reclean(r["text"])))
        self.refs[medium] = refs
        if medium == "twitter":
            self.faulty = faulty
        self.tokens = sum(ref[1] for refs in self.refs.values() for ref in refs.values())

    def check_score(self, medium: str, out: Path) -> None:
        rows = read_csv(out / "features.csv")
        refs = self.refs[medium]
        require([r["author_id"] for r in rows] == sorted(a for a, ref in refs.items() if ref[1] > 0),
                f"score {medium}: author rows differ")
        broken = []
        for r in rows:
            messages, tokens, counts = refs[r["author_id"]]
            require(r["medium"] == medium and int(r["messages"]) == messages,
                    f"score {medium}: {r['author_id']} medium or message count")
            if int(r["tokens"]) != tokens:
                require(medium == "twitter" and int(r["tokens"]) == self.faulty[r["author_id"]],
                        f"score {medium}: {r['author_id']} has {r['tokens']} tokens, canonical text has {tokens}")
                broken.append(r["author_id"])
                continue
            for k, name in enumerate(self.names, start=1):
                require(close(float(r[name]), 100.0 * counts[k] / tokens, 1e-9),
                        f"score {medium}: {r['author_id']}/{name} = {r[name]}")
        if broken:
            raise KnownFault(f"score {medium}: read_corpus re-cleans canonical text; token counts "
                             f"of {', '.join(broken)} lose '@' and URL tokens")

    def check_traits(self, medium: str, out: Path, features: Path) -> None:
        score_rows = {r["author_id"]: r for r in read_csv(features)}
        rows = read_csv(out / "traits.csv")
        require([r["author_id"] for r in rows] == list(score_rows), f"traits {medium}: author rows differ")
        values = {t: [] for t in self.trait_names}
        for r in rows:
            s = score_rows[r["author_id"]]
            for trait, (intercept, weights) in self.model.items():
                want = intercept + sum(w * float(s[name]) for name, w in weights.items())
                got = float(r[trait])
                require(close(got, want, 1e-9, 1e-9), f"traits {medium}: {r['author_id']}/{trait} {got} != {want}")
                values[trait].append(got)
        doc = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        for trait, col in values.items():
            arr = np.array(col)
            entry = doc[trait]
            require(entry["n"] == arr.size and close(entry["mean"], arr.mean(), 1e-9, 1e-9)
                    and close(entry["sd"], arr.std(ddof=1), 1e-9, 1e-9),
                    f"traits {medium}: stats for {trait} disagree with the traits table")

    def check_compare(self, out: Path, table: str, command: str, names: list[str]) -> None:
        a = read_csv(out.parent / f"{command}-twitter" / table)
        b = read_csv(out.parent / f"{command}-email" / table)
        rows = read_csv(out / "compare.csv")
        check_svg(out / "compare.svg")
        require(sorted(r["name"] for r in rows) == sorted(names), "compare: row names differ")
        for r in rows:
            xa = np.array([float(x[r["name"]]) for x in a])
            xb = np.array([float(x[r["name"]]) for x in b])
            pooled = math.sqrt(((xa.size - 1) * xa.var(ddof=1) + (xb.size - 1) * xb.var(ddof=1))
                               / (xa.size + xb.size - 2))
            d = (xa.mean() - xb.mean()) / pooled
            p = float(sps.ttest_ind(xa, xb, equal_var=False).pvalue)
            require(close(float(r["mean_a"]), xa.mean(), 1e-9) and close(float(r["mean_b"]), xb.mean(), 1e-9),
                    f"compare: means of {r['name']}")
            require(close(float(r["cohens_d"]), d, 1e-6), f"compare: d of {r['name']} {r['cohens_d']} != {d}")
            require(close(float(r["p_value"]), p, 1e-6, 1e-300), f"compare: p of {r['name']} {r['p_value']} != {p}")
            require((r["large_effect"] == "true") == (abs(float(r["cohens_d"])) > 0.8)
                    and (r["significant"] == "true") == (float(r["p_value"]) < 0.001),
                    f"compare: flags of {r['name']}")
        if command == "score":
            shifted = sorted(self.names[k - 1] for k in self.shifted)
            large = sorted(r["name"] for r in rows if r["large_effect"] == "true")
            require(large == shifted, f"compare: large effects {large}, shifted {shifted}")
            require(all(r["significant"] == "true" for r in rows if r["name"] in shifted),
                    "compare: a shifted category is not significant")

    def check_renorm(self, d: Path, stdout: str) -> None:
        src = json.loads((d / "traits-twitter" / "stats.json").read_text(encoding="utf-8"))[self.renorm_trait]
        dst = json.loads((d / "traits-email" / "stats.json").read_text(encoding="utf-8"))[self.renorm_trait]
        want = dst["mean"] + dst["sd"] * (self.renorm_value - src["mean"]) / src["sd"]
        got = float(stdout.strip())
        require(close(got, want, 1e-10), f"renorm printed {got}, closed form {want}")


WORKLOADS = {
    "stability-messages": StabilityMessages,
    "stability-words-drift": StabilityWordsDrift,
    "media-compare": MediaCompare,
}
