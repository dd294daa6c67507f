"""The romanized Sanskrit alphabet: letters, categories, lookup.

A letter is the atomic segment the rest of the pipeline works with.
Some letters span several code points (kh, ai, r̥̄); tokenization in
the transliteration module always takes the longest match, so the
tables here are keyed by the letter's full text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import UnknownLetter

# Combining marks used by the vocalic liquids.
_RING = "̥"   # combining ring below
_MACRON = "̄"  # combining macron

VOCALIC_R = "r" + _RING
VOCALIC_RR = "r" + _RING + _MACRON
VOCALIC_L = "l" + _RING


class Category(enum.Enum):
    VOWEL = "vowel"
    CONSONANT = "consonant"        # the 25 stops, vargas k through p
    SEMIVOWEL = "semivowel"        # y r l v
    SIBILANT = "sibilant"          # ś ṣ s
    ASPIRATE = "aspirate"          # h
    ANUSVARA = "anusvara"          # ṃ
    VISARGA = "visarga"            # ḥ
    JIHVAMULIYA = "jihvamuliya"    # z, the guttural visarga before k/kh
    UPADHMANIYA = "upadhmaniya"    # f, the labial visarga before p/ph


class VowelLength(enum.Enum):
    SHORT = "short"
    LONG = "long"
    NONE = "none"  # not a vowel


@dataclass(frozen=True)
class Letter:
    text: str
    category: Category
    length: VowelLength = VowelLength.NONE

    @property
    def is_vowel(self) -> bool:
        return self.category is Category.VOWEL

    @property
    def is_consonantish(self) -> bool:
        """True for anything articulated as a consonant (stops,
        semivowels, sibilants, h)."""
        return self.category in (
            Category.CONSONANT,
            Category.SEMIVOWEL,
            Category.SIBILANT,
            Category.ASPIRATE,
        )

    @property
    def is_tail_marker(self) -> bool:
        """True for the post-vowel-only letters ṃ ḥ z f."""
        return self.category in (
            Category.ANUSVARA,
            Category.VISARGA,
            Category.JIHVAMULIYA,
            Category.UPADHMANIYA,
        )


SHORT_VOWELS = ("a", "i", "u", VOCALIC_R, VOCALIC_L)
LONG_VOWELS = ("ā", "ī", "ū", VOCALIC_RR, "e", "ai", "o", "au")

# Stop rows in articulation order; the last member of each row is its
# class nasal, used by the anusvara sandhi correction.
STOP_ROWS = (
    ("k", "kh", "g", "gh", "ṅ"),                       # velar, nasal ṅ
    ("c", "ch", "j", "jh", "ñ"),                       # palatal, nasal ñ
    ("ṭ", "ṭh", "ḍ", "ḍh", "ṇ"),   # retroflex, nasal ṇ
    ("t", "th", "d", "dh", "n"),                            # dental
    ("p", "ph", "b", "bh", "m"),                            # labial
)

SEMIVOWELS = ("y", "r", "l", "v")
SIBILANTS = ("ś", "ṣ", "s")  # ś ṣ s
ASPIRATE = "h"
ANUSVARA = "ṃ"   # ṃ
VISARGA = "ḥ"    # ḥ
JIHVAMULIYA = "z"
UPADHMANIYA = "f"

#: consonant text -> its row's class nasal
CLASS_NASAL: dict[str, str] = {}
for _row in STOP_ROWS:
    for _c in _row:
        CLASS_NASAL[_c] = _row[-1]

LETTERS: dict[str, Letter] = {}


def _add(letter: Letter) -> None:
    LETTERS[letter.text] = letter


for _v in SHORT_VOWELS:
    _add(Letter(_v, Category.VOWEL, VowelLength.SHORT))
for _v in LONG_VOWELS:
    _add(Letter(_v, Category.VOWEL, VowelLength.LONG))
for _row in STOP_ROWS:
    for _c in _row:
        _add(Letter(_c, Category.CONSONANT))
for _s in SEMIVOWELS:
    _add(Letter(_s, Category.SEMIVOWEL))
for _s in SIBILANTS:
    _add(Letter(_s, Category.SIBILANT))
_add(Letter(ASPIRATE, Category.ASPIRATE))
_add(Letter(ANUSVARA, Category.ANUSVARA))
_add(Letter(VISARGA, Category.VISARGA))
_add(Letter(JIHVAMULIYA, Category.JIHVAMULIYA))
_add(Letter(UPADHMANIYA, Category.UPADHMANIYA))


def classify(text: str) -> Letter:
    """Return the Letter for ``text`` or raise UnknownLetter."""
    try:
        return LETTERS[text]
    except KeyError:
        raise UnknownLetter(text) from None
