"""Seeded verse and text generators with the facts each input was built to have.

Every generated text comes with an ``Expect`` record: the metre it was
built for, its unit count per quarter (or line), and the contextual
weight of every unit.  These are known by construction, not by running
the program, so the benchmark's output checks are independent of the
code they check.

Words have the shape of ``random_word`` in the test suite: one to four
onset+vowel groups, an optional anusvara or visarga after a vowel, and an
optional word-final consonant, with onsets drawn from single consonants
and clusters that occur in real verse.  Two changes make the facts
knowable: groups after the first always have an onset (no hiatus, so no
``a``+``i`` fusion), and each group's onset, marker and final consonant
are drawn so that every unit gets the weight its target pattern asks
for.  The weight law used is the program's documented one: a unit is
heavy when its vowel is long, when an anusvara or visarga follows the
vowel, or when two or more consonants stand between its vowel and the
next vowel of the quarter, except the light clusters p+r, b+r, k+r.
None of the sandhi corrections changes a unit's count or weight under
that law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SHORT_VOWELS = ("a", "i", "u", "r̥", "l̥")
LONG_VOWELS = ("ā", "ī", "ū", "r̥̄", "e", "ai", "o", "au")
SINGLE_ONSETS = (
    "k", "kh", "g", "gh", "c", "ch", "j", "jh", "ṭ", "ḍ", "ṇ",
    "t", "th", "d", "dh", "n", "p", "ph", "b", "bh", "m",
    "y", "r", "l", "v", "ś", "ṣ", "s", "h",
)
# clusters as letter tuples; "ght" is gh + t, "sth" is s + th
LIGHT_CLUSTERS = (("p", "r"), ("b", "r"), ("k", "r"))
INITIAL_CLUSTERS = LIGHT_CLUSTERS + (
    ("t", "r"), ("d", "r"), ("g", "r"), ("ś", "r"), ("s", "n"), ("s", "m"),
    ("s", "t"), ("s", "v"), ("t", "v"), ("t", "m"), ("d", "v"), ("d", "y"),
    ("v", "y"), ("j", "ñ"), ("k", "ṣ"), ("h", "m"), ("h", "n"), ("ś", "v"),
    ("s", "th"),
)
MEDIAL_CLUSTERS = INITIAL_CLUSTERS + (
    ("n", "t"), ("n", "d"), ("m", "p"), ("m", "b"), ("r", "k"), ("r", "t"),
    ("r", "m"), ("r", "y"), ("t", "k"), ("gh", "t"), ("t", "s", "n"),
)
HEAVY_INITIAL = tuple(c for c in INITIAL_CLUSTERS if c not in LIGHT_CLUSTERS)
HEAVY_MEDIAL = tuple(c for c in MEDIAL_CLUSTERS if c not in LIGHT_CLUSTERS)
MARKERS = ("ṃ", "ḥ")
FINAL_CONSONANTS = ("m", "t", "n", "d", "s", "r")

# Quarter patterns of the strict metres (1 heavy, 0 light); the last
# syllable of a quarter is free.
INDRAVAJRA = (1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1)
UPENDRAVAJRA = (0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1)

# Pitch rows of the bundled metre database, quarters 1/3 and 2/4.
ANUSTUP_ROWS = ((0, 1, 1, 2, 2, 0, 1, 1), (0, 1, -1, 0, 0, 1, 1, 1))
VAJRA_ROWS = (
    (0, 0, 1, 2, 2, 0, 0, 1, -1, 0, -1),
    (0, 1, 0, 0, 0, 0, -1, 0, 1, 1, 1),
)

SAMPLE_VERSE = (
    "vande gurūṇāṃ caraṇāravinde\n"
    "sandarśitasvātmasukhāvabodhe |\n"
    "janasya ye jāṅgalikāyamāne\n"
    "saṃsārahālāhalamohaśāntyai ||"
)
SAMPLE_VERSE_DEVANAGARI = (
    "वन्दे गुरूणां चरणारविन्दे\n"
    "सन्दर्शितस्वात्मसुखावबोधे ।\n"
    "जनस्य ये जाङ्गलिकायमाने\n"
    "संसारहालाहलमोहशान्त्यै ॥"
)
# Unit split of the sample verse, fixed by hand (quarter 1 is the test
# suite's golden value).  Quarters 1, 2 and 4 scan as Indravajrā and
# quarter 3 as Upendravajrā, every quarter ending heavy, so the verse is
# an Upajāti.
SAMPLE_UNITS = (
    ("van", "de", "gu", "rū", "ṇāṃ", "ca", "ra", "ṇā", "ra", "vin", "de"),
    ("san", "dar", "śi", "tas", "vāt", "ma", "su", "khā", "va", "bo", "dhe"),
    ("ja", "nas", "ya", "ye", "jāṅ", "ga", "li", "kā", "ya", "mā", "ne"),
    ("saṃ", "sā", "ra", "hā", "lā", "ha", "la", "mo", "ha", "śān", "tyai"),
)
SAMPLE_WEIGHTS = (INDRAVAJRA, INDRAVAJRA, UPENDRAVAJRA, INDRAVAJRA)

ANUSTUP = "Anuṣṭup"
METRE_NAMES = {
    "anustup": ANUSTUP,
    "indravajra": "Indravajrā",
    "upendravajra": "Upendravajrā",
    "upajati": "Upajāti",
}

# One cycle of the verse mix.  The order is fixed so that every seed
# renders the same share of each metre; the seed varies only the words.
VERSE_CYCLE = (
    "sample", "anustup", "upajati", "indravajra",
    "anustup", "upendravajra", "upajati", "anustup",
)
SCAN_CYCLE = VERSE_CYCLE + ("sample-devanagari",)
LONG_FLAT_LINE_UNITS = (6, 7, 9, 10)
LONG_FLAT_LINES_EACH = 4


@dataclass(frozen=True)
class Expect:
    """What a text was built to be.

    ``weights`` holds the contextual weight of every unit, one tuple per
    quarter (or line); ``units`` the unit texts where they are known.
    """

    text: str
    kind: str
    metre: str | None
    weights: tuple[tuple[int, ...], ...]
    units: tuple[tuple[str, ...], ...] | None = None

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(q) for q in self.weights)

    @property
    def total_beats(self) -> int:
        """Units' beats (weight + 1 each) plus one rest per quarter."""
        return sum(w + 1 for q in self.weights for w in q) + len(self.weights)

    def pitch_row(self, quarter: int) -> tuple[int, ...]:
        if self.metre is None:
            return (0,) * len(self.weights[quarter])
        rows = ANUSTUP_ROWS if self.metre == ANUSTUP else VAJRA_ROWS
        return rows[quarter % 2]


def _word_sizes(rng: random.Random, n: int) -> list[int]:
    sizes = []
    while n:
        k = rng.randint(1, min(4, n))
        sizes.append(k)
        n -= k
    return sizes


def _word_onset(rng: random.Random) -> tuple[str, ...]:
    """A word's onset, drawn as ``random_word`` draws it: single, cluster, none."""
    roll = rng.random()
    if roll < 0.75:
        return (rng.choice(SINGLE_ONSETS),)
    if roll < 0.9:
        return rng.choice(INITIAL_CLUSTERS)
    return ()


def make_quarter(rng: random.Random, weights) -> str:
    """One quarter (or line) whose units have exactly ``weights``."""
    n = len(weights)
    word_end = set()
    at = 0
    for k in _word_sizes(rng, n):
        at += k
        word_end.add(at - 1)

    # syllable i's target weight constrains its own vowel, marker and
    # final consonant, and the onset of syllable i + 1
    onsets = [_word_onset(rng)]
    vowels, markers, finals = [], [], []
    for i, heavy in enumerate(weights):
        ends_word = i in word_end
        last = i == n - 1
        marker = final = ""
        if heavy:
            how = rng.random()
            if last or how < 0.6:
                vowel = rng.choice(LONG_VOWELS)
                marker = rng.choice(MARKERS) if rng.random() < 0.12 else ""
            else:
                vowel = rng.choice(SHORT_VOWELS)
                marker = rng.choice(MARKERS) if how < 0.75 else ""
            # short and unmarked: two consonants must follow the vowel
            closed = vowel in SHORT_VOWELS and not marker
            if ends_word and not marker and rng.random() < 0.3:
                if closed or rng.random() < 0.75:
                    final = rng.choice(FINAL_CONSONANTS)
                else:
                    marker = rng.choice(MARKERS)
            if not ends_word:
                if closed or rng.random() >= 0.65:
                    nxt = rng.choice(HEAVY_MEDIAL if closed else MEDIAL_CLUSTERS)
                else:
                    nxt = (rng.choice(SINGLE_ONSETS),)
            elif closed and final:
                nxt = _word_onset(rng) or (rng.choice(SINGLE_ONSETS),)
            elif closed:
                nxt = rng.choice(HEAVY_INITIAL)
            else:
                nxt = _word_onset(rng)
        else:
            # short and unmarked, with at most one consonant (or a light
            # cluster) before the next vowel
            vowel = rng.choice(SHORT_VOWELS)
            if ends_word and rng.random() < 0.2:
                final = rng.choice(FINAL_CONSONANTS)
            if final or (ends_word and rng.random() < 0.15):
                nxt = ()
            elif rng.random() < 0.8:
                nxt = (rng.choice(SINGLE_ONSETS),)
            else:
                nxt = rng.choice(LIGHT_CLUSTERS)
        vowels.append(vowel)
        markers.append(marker)
        finals.append(final)
        onsets.append(nxt)

    words, word = [], []
    for i in range(n):
        word.append("".join(onsets[i]) + vowels[i] + markers[i] + finals[i])
        if i in word_end:
            words.append("".join(word))
            word = []
    return " ".join(words)


def _half_heavy(rng: random.Random, sizes) -> list[tuple[int, ...]]:
    """Random weight patterns of the given lengths with exactly half of
    all the units heavy, so the seed does not change the total beats."""
    flat = [1] * (sum(sizes) // 2)
    flat += [0] * (sum(sizes) - len(flat))
    rng.shuffle(flat)
    patterns, at = [], 0
    for n in sizes:
        patterns.append(tuple(flat[at : at + n]))
        at += n
    return patterns


def _with_free_last(rng: random.Random, pattern) -> tuple[int, ...]:
    return tuple(pattern[:-1]) + (rng.randint(0, 1),)


def make_verse(kind: str, rng: random.Random) -> Expect:
    """A four-quarter verse of the given kind (see ``VERSE_CYCLE``)."""
    if kind == "sample":
        return Expect(SAMPLE_VERSE, kind, "Upajāti", SAMPLE_WEIGHTS, SAMPLE_UNITS)
    if kind == "sample-devanagari":
        return Expect(
            SAMPLE_VERSE_DEVANAGARI, kind, "Upajāti", SAMPLE_WEIGHTS, SAMPLE_UNITS
        )
    if kind == "anustup":
        weights = _half_heavy(rng, [8] * 4)
    elif kind == "indravajra":
        weights = [_with_free_last(rng, INDRAVAJRA) for _ in range(4)]
    elif kind == "upendravajra":
        weights = [_with_free_last(rng, UPENDRAVAJRA) for _ in range(4)]
    elif kind == "upajati":
        # at least one quarter of each strict shape, so neither matches alone
        shapes = [INDRAVAJRA, UPENDRAVAJRA] + [
            rng.choice((INDRAVAJRA, UPENDRAVAJRA)) for _ in range(2)
        ]
        rng.shuffle(shapes)
        weights = [_with_free_last(rng, s) for s in shapes]
    else:
        raise ValueError(f"unknown verse kind {kind!r}")
    quarters = [make_quarter(rng, w) for w in weights]
    text = f"{quarters[0]}\n{quarters[1]} |\n{quarters[2]}\n{quarters[3]} ||"
    return Expect(text, kind, METRE_NAMES[kind], tuple(weights))


def make_long_flat(rng: random.Random) -> Expect:
    """An unmetred text of sixteen lines, four each of 6, 7, 9 and 10 units.

    Every text has 128 units, half of them heavy, so the seed varies the
    words and the order of the weights but not the length.  Lines are separated by newlines only, with
    no double danda, so the text is one unmatched 16-quarter verse.
    """
    sizes = [n for n in LONG_FLAT_LINE_UNITS for _ in range(LONG_FLAT_LINES_EACH)]
    rng.shuffle(sizes)
    weights = _half_heavy(rng, sizes)
    text = "\n".join(make_quarter(rng, w) for w in weights)
    return Expect(text, "long-flat", None, tuple(weights))


def verse_input(seed: int, i: int, cycle=VERSE_CYCLE) -> Expect:
    """The i-th verse of the seeded stream; kinds repeat in ``cycle`` order."""
    rng = random.Random(f"{seed}:verse:{i}")
    return make_verse(cycle[i % len(cycle)], rng)


def long_flat_input(seed: int, i: int) -> Expect:
    return make_long_flat(random.Random(f"{seed}:long-flat:{i}"))
