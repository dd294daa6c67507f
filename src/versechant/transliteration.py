"""Romanized and Devanagari verse text to letter streams.

The letter stream is the pipeline's working form: a flat tuple of
alphabet letters plus the set of indices where a new word starts.
``LetterStream.text`` joins letter texts with single spaces at the
word breaks, so tokenize and ``text()`` round-trip exactly on
canonical, single-spaced romanized input.

Each script is scanned by one compiled pattern.  Romanized text is a
sequence of gaps (whitespace, "|" or a danda) and letters, each the
longest alphabet text at its offset.  Devanagari text is a sequence
of consonants, each with at most one mark (a virama or a vowel sign;
no mark means the inherent a), independent vowels, the signs ṃ and
ḥ, dandas ("।", "॥" or "|") and whitespace.  Any other character is
an error at its offset.  Dandas break quarters in either script, and
each script takes the other's.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

from .alphabet import LETTERS, Letter
from .errors import UnknownCharacter, UnsupportedCodePoint

# Alternate spellings accepted on input, folded to the canonical
# letter text before matching.  Keys and values are post-NFC strings.
_ALIASES = {
    "ṛ": "r̥",          # ṛ -> r̥
    "ṝ": "r̥̄",    # ṝ -> r̥̄
    "ḷ": "l̥",          # ḷ -> l̥
    "m̐": "ṃ",          # m̐ -> ṃ
    "ṁ": "ṃ",           # ṁ -> ṃ
}

_QUARTER_SEP = re.compile(r"[|।॥\r\n]+")


def normalize(text: str) -> str:
    """NFC-normalize, lowercase, and fold alias spellings."""
    s = unicodedata.normalize("NFC", text).lower()
    for src, dst in _ALIASES.items():
        s = s.replace(src, dst)
    return s


@dataclass(frozen=True)
class LetterStream:
    """Letters of a verse chunk plus word-break positions.

    ``word_breaks`` holds indices into ``letters`` at which a new word
    starts; index 0 is never a break.
    """

    letters: tuple[Letter, ...]
    word_breaks: frozenset[int]

    def __len__(self) -> int:
        return len(self.letters)

    def text(self) -> str:
        parts = []
        for i, letter in enumerate(self.letters):
            if i in self.word_breaks:
                parts.append(" ")
            parts.append(letter.text)
        return "".join(parts)

    def word_spans(self) -> list[tuple[int, int]]:
        """Half-open (start, end) index ranges, one per word."""
        starts = [0] + sorted(self.word_breaks)
        spans = []
        for k, start in enumerate(starts):
            end = starts[k + 1] if k + 1 < len(starts) else len(self.letters)
            spans.append((start, end))
        return spans if self.letters else []


# One alternation scans romanized text: a gap run, or the longest
# letter text at this offset (alternatives are tried in order, so the
# longest first), or any other character, which is an error.
_ROMAN_SCAN = re.compile(
    r"(?P<gap>[\s|।॥]+)|(?P<letter>%s)|(?P<bad>.)"
    % "|".join(map(re.escape, sorted(LETTERS, key=len, reverse=True))),
    re.S,
)


def tokenize(text: str) -> LetterStream:
    """Tokenize romanized verse text into a LetterStream.

    Whitespace, "|" and the dandas "।" "॥" act as word breaks.  Raises
    UnknownCharacter at the first position (in the normalized text)
    that matches no letter.
    """
    letters: list[Letter] = []
    gaps: set[int] = set()
    for m in _ROMAN_SCAN.finditer(normalize(text)):
        if m.lastgroup == "gap":
            gaps.add(len(letters))
        elif m.lastgroup == "letter":
            letters.append(LETTERS[m.group()])
        else:
            raise UnknownCharacter(m.start(), m.group())
    breaks = frozenset(i for i in gaps if 0 < i < len(letters))
    return LetterStream(tuple(letters), breaks)


def split_quarters(text: str) -> list[str]:
    """Split verse text into chunks on danda, double danda, newlines."""
    return [part.strip() for part in _QUARTER_SEP.split(text) if part.strip()]


# ---------------------------------------------------------------------------
# Devanagari input

_DEVA_CONSONANT = {
    "क": "k", "ख": "kh", "ग": "g", "घ": "gh",
    "ङ": "ṅ",
    "च": "c", "छ": "ch", "ज": "j", "झ": "jh",
    "ञ": "ñ",
    "ट": "ṭ", "ठ": "ṭh", "ड": "ḍ",
    "ढ": "ḍh", "ण": "ṇ",
    "त": "t", "थ": "th", "द": "d", "ध": "dh",
    "न": "n",
    "प": "p", "फ": "ph", "ब": "b", "भ": "bh",
    "म": "m",
    "य": "y", "र": "r", "ल": "l", "व": "v",
    "श": "ś", "ष": "ṣ", "स": "s",
    "ह": "h",
}

# Marks a consonant may carry: the virama kills its inherent a, a
# vowel sign replaces it.
_DEVA_MARK = {
    "्": "",  # virama
    "ा": "ā", "ि": "i", "ी": "ī",
    "ु": "u", "ू": "ū", "ृ": "r̥",
    "ॄ": "r̥̄", "ॢ": "l̥",
    "े": "e", "ै": "ai", "ो": "o", "ौ": "au",
}

# Everything that stands on its own: independent vowels, the signs that
# follow a finished syllable (candrabindu folds to plain anusvara), and
# the dandas, spelled "|" and "||" as in romanized text.
_DEVA_STANDALONE = {
    "अ": "a", "आ": "ā", "इ": "i", "ई": "ī",
    "उ": "u", "ऊ": "ū", "ऋ": "r̥",
    "ॠ": "r̥̄", "ऌ": "l̥",
    "ए": "e", "ऐ": "ai", "ओ": "o", "औ": "au",
    "ं": "ṃ",  # anusvara
    "ँ": "ṃ",  # candrabindu
    "ः": "ḥ",  # visarga
    "।": " | ",  # danda
    "॥": " || ",  # double danda
    "|": " | ",  # the romanized danda, as "।" works in romanized text
}

# A consonant with at most one mark, or a standalone sign, or
# whitespace; anything else, a stray mark included, is an error.
_DEVA_SCAN = re.compile(
    "([%s])([%s])?|([%s]|\\s)|(.)"
    % tuple(re.escape("".join(t)) for t in (_DEVA_CONSONANT, _DEVA_MARK, _DEVA_STANDALONE)),
    re.S,
)


def _deva_to_latin(m: re.Match[str]) -> str:
    consonant, mark, standalone, bad = m.groups()
    if consonant:
        return _DEVA_CONSONANT[consonant] + ("a" if mark is None else _DEVA_MARK[mark])
    if standalone:
        return _DEVA_STANDALONE.get(standalone, standalone)
    raise UnsupportedCodePoint(m.start(), bad)


def detect_devanagari(text: str) -> bool:
    """True if any code point is Devanagari other than the dandas,
    which romanized text may use too."""
    return any("ऀ" <= ch <= "ॿ" and ch not in "।॥" for ch in text)


def devanagari_to_latin(text: str) -> str:
    """Convert Devanagari verse text to its romanized equivalent.

    Consonants carry the inherent short a unless a virama or a vowel
    sign follows.  Danda and double danda come out as "|" and "||".
    A virama or vowel sign that follows no consonant, and any code
    point outside the tables and whitespace (avagraha, digits, nukta,
    Latin letters), raises UnsupportedCodePoint at its position in
    the NFC text.
    """
    return _DEVA_SCAN.sub(_deva_to_latin, unicodedata.normalize("NFC", text))
