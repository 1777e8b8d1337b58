"""Seeded input generators for the benchmark workloads.

Every generator draws from its own ``random.Random`` seeded with the workload
name and the run seed, so the same seed gives byte-identical files on every
machine. Generators return the file contents as strings together with the
facts the correctness oracle needs (ground-truth labels, prevalences, record
texts); nothing here imports ``topicsent``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# English test-set counts of subtask C, most positive first.
EN_TEST_C = {2: 131, 1: 2332, 0: 6194, -1: 3545, -2: 177}
NAMES = {2: "HIGHLYPOSITIVE", 1: "POSITIVE", 0: "NEUTRAL", -1: "NEGATIVE", -2: "HIGHLYNEGATIVE"}


@dataclass
class ScoreInput:
    """Gold and prediction files of a score workload, plus what the oracle needs."""

    subtask: str
    gold_text: str
    pred_text: str
    gold: list[tuple[str, int]]  # (topic, gold label) per gold row
    pred: list[int] | None = None  # predicted label per gold row (classification)
    prevalences: dict[str, tuple[float, ...]] = field(default_factory=dict)  # quantification
    n_extra_pred: int = 0
    n_topics: int = 0


@dataclass
class DedupInput:
    records: list[tuple[str, str]]  # (id, tweet text) in input order
    lines: list[str]  # input lines, newline included
    n_planted: int = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _zipf_sizes(rng: random.Random, n_topics: int, total: int, s: float, min_size: int) -> list[int]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n_topics)]
    scale = (total - min_size * n_topics) / sum(weights)
    sizes = [min_size + round(w * scale) for w in weights]
    rng.shuffle(sizes)
    return sizes


def _ids(rng: random.Random, n: int) -> list[str]:
    """Distinct 18-digit tweet-like ids."""
    return [str(i) for i in rng.sample(range(10**17, 10**18), n)]


def _noisy_label(rng: random.Random, gold: int, classes: tuple[int, ...]) -> int:
    r = rng.random()
    if r < 0.55:
        return gold
    if r < 0.90:
        step = gold + rng.choice((-1, 1))
        return step if step in classes else gold
    return rng.choice(classes)


def score_c(seed: int, rows: int = 200_000, n_topics: int = 200) -> ScoreInput:
    """Subtask C: Zipf-skewed topics, gold written as names, predictions as
    integers, both shuffled, plus ~1% prediction rows absent from gold."""
    rng = _rng("score_c", seed)
    classes = (-2, -1, 0, 1, 2)
    prior = [EN_TEST_C[c] for c in classes]
    sizes = _zipf_sizes(rng, n_topics, rows, s=1.0, min_size=20)
    topics = [f"topic{t:03d}" for t in range(n_topics)]
    n = sum(sizes)
    n_extra = n // 100
    ids = _ids(rng, n + n_extra)
    gold_topics = [t for t, size in zip(topics, sizes) for _ in range(size)]
    gold_labels = rng.choices(classes, weights=prior, k=n)
    pred_labels = [_noisy_label(rng, g, classes) for g in gold_labels]

    gold_lines = []
    for i, (topic, label) in enumerate(zip(gold_topics, gold_labels)):
        name = NAMES[label]
        gold_lines.append(f"{ids[i]}\t{topic}\t{name.lower() if i % 3 else name}\n")
    pred_lines = [f"{ids[i]}\t{t}\t{p}\n" for i, (t, p) in enumerate(zip(gold_topics, pred_labels))]
    for i in range(n, n + n_extra):
        pred_lines.append(f"{ids[i]}\t{rng.choice(topics)}\t{rng.choice(classes)}\n")
    rng.shuffle(gold_lines)
    rng.shuffle(pred_lines)
    return ScoreInput(
        subtask="C",
        gold_text="".join(gold_lines),
        pred_text="".join(pred_lines),
        gold=list(zip(gold_topics, gold_labels)),
        pred=pred_labels,
        n_extra_pred=n_extra,
        n_topics=n_topics,
    )


def quant_d(seed: int, rows: int = 200_000, n_topics: int = 20_000) -> ScoreInput:
    """Subtask D: many small topics with skewed per-topic class priors, and a
    two-line prevalence prediction per topic."""
    rng = _rng("quant_d", seed)
    classes = (-1, 1)
    sizes = _zipf_sizes(rng, n_topics, rows, s=0.6, min_size=1)
    topics = [f"t{t:05d}" for t in range(n_topics)]
    n = sum(sizes)
    ids = _ids(rng, n)
    gold: list[tuple[str, int]] = []
    prevalences: dict[str, tuple[float, ...]] = {}
    for topic, size in zip(topics, sizes):
        p_pos = rng.random()
        gold.extend((topic, 1 if rng.random() < p_pos else -1) for _ in range(size))
        guess = min(1.0, max(0.0, p_pos + rng.uniform(-0.2, 0.2)))
        prevalences[topic] = (1.0 - guess, guess)
    gold_lines = [f"{ids[i]}\t{t}\t{lab}\n" for i, (t, lab) in enumerate(gold)]
    rng.shuffle(gold_lines)
    pred_lines = []
    for topic, (neg, pos) in prevalences.items():
        pred_lines.append(f"{topic}\t-1\t{neg!r}\n")
        pred_lines.append(f"{topic}\t1\t{pos!r}\n")
    return ScoreInput(
        subtask="D",
        gold_text="".join(gold_lines),
        pred_text="".join(pred_lines),
        gold=gold,
        prevalences=prevalences,
        n_topics=n_topics,
    )


STOPWORDS = (
    "the a to and of is in it i you for on my that this be with at so rt "
    "just me not are was have but all we your"
).split()
_ONSETS = "b c d f g h j k l m n p r s t v w z br ch cr dr fl gr pl sh st th tr".split()
_VOWELS = "a e i o u ai ea ee oo ou".split()
_PUNCT = ("", "", "", "", "!", ".", ",", "?", "!!", "...")


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        n_syll = rng.choice((1, 2, 2, 3))
        words.add("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(n_syll)))
    return sorted(words)


def _tweet(rng: random.Random, vocab: list[str], cum: list[float]) -> list[str]:
    words = rng.choices(vocab, cum_weights=cum, k=rng.randint(5, 16))
    for _ in range(rng.randint(1, 5)):
        words.insert(rng.randrange(len(words) + 1), rng.choice(STOPWORDS))
    return [w.capitalize() if rng.random() < 0.1 else w for w in words]


def _perturb(rng: random.Random, words: list[str], vocab: list[str], cum: list[float]) -> list[str]:
    """A near-duplicate: one or two token edits and different punctuation."""
    words = list(words)
    for _ in range(rng.randint(1, 2)):
        op = rng.random()
        if op < 0.4 and len(words) > 4:
            del words[rng.randrange(len(words))]
        elif op < 0.7:
            words.insert(rng.randrange(len(words) + 1), rng.choices(vocab, cum_weights=cum)[0])
        else:
            i = rng.randrange(len(words))
            words[i] = words[i].upper()
    return words


def dedup(seed: int, records: int = 3_000, planted_share: float = 0.10) -> DedupInput:
    """Tweet-like records over a Zipf vocabulary with stopwords; ~10% of the
    records are edited copies of an earlier record."""
    rng = _rng("dedup", seed)
    vocab = _vocabulary(rng, 8_000)
    cum, acc = [], 0.0
    for rank in range(len(vocab)):
        acc += 1.0 / (rank + 1)
        cum.append(acc)
    ids = _ids(rng, records)
    topics = [f"topic{t:02d}" for t in range(40)]
    tweets: list[list[str]] = []
    n_planted = 0
    for _ in range(records):
        if tweets and rng.random() < planted_share:
            tweets.append(_perturb(rng, rng.choice(tweets), vocab, cum))
            n_planted += 1
        else:
            tweets.append(_tweet(rng, vocab, cum))
    recs, lines = [], []
    for rid, words in zip(ids, tweets):
        text = " ".join(w + rng.choice(_PUNCT) for w in words)
        recs.append((rid, text))
        label = rng.choice(("positive", "negative", "neutral"))
        lines.append(f"{rid}\t{rng.choice(topics)}\t{label}\t{text}\textra{rng.randrange(10)}\n")
    return DedupInput(records=recs, lines=lines, n_planted=n_planted)
