"""Romanized and Devanagari verse text to letter streams.

The letter stream is the pipeline's working form: a flat tuple of
alphabet letters plus the set of indices where a new word starts.
``LetterStream.text`` joins letter texts with single spaces at the
word breaks, so tokenize and ``text()`` round-trip exactly on
canonical, single-spaced romanized input.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

from .alphabet import MAX_LETTER_LEN, Letter, classify, is_letter
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

_QUARTER_SEP = re.compile(r"\|{1,2}|[\r\n]+")


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


def _match_letter(s: str, i: int) -> Letter | None:
    # longest match first: letter texts run up to MAX_LETTER_LEN
    # code points (kh, ai, r̥̄ ...), so "kh" never tokenizes as k+h
    for width in range(MAX_LETTER_LEN, 0, -1):
        cand = s[i : i + width]
        if is_letter(cand):
            return classify(cand)
    return None


def tokenize(text: str) -> LetterStream:
    """Tokenize romanized verse text into a LetterStream.

    Whitespace and danda marks act as word breaks.  Raises
    UnknownCharacter at the first position (in the normalized text)
    that matches no letter.
    """
    s = normalize(text)
    letters: list[Letter] = []
    breaks: set[int] = set()
    pending_break = False
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace() or ch == "|":
            if letters:
                pending_break = True
            i += 1
            continue
        letter = _match_letter(s, i)
        if letter is None:
            raise UnknownCharacter(i, ch)
        if pending_break:
            breaks.add(len(letters))
            pending_break = False
        letters.append(letter)
        i += len(letter.text)
    return LetterStream(tuple(letters), frozenset(breaks))


def split_quarters(text: str) -> list[str]:
    """Split verse text into chunks on danda, double danda, newlines."""
    return [part.strip() for part in _QUARTER_SEP.split(text) if part.strip()]


# ---------------------------------------------------------------------------
# Devanagari input

_DEVA_INDEPENDENT = {
    "अ": "a", "आ": "ā", "इ": "i", "ई": "ī",
    "उ": "u", "ऊ": "ū", "ऋ": "r̥",
    "ॠ": "r̥̄", "ऌ": "l̥",
    "ए": "e", "ऐ": "ai", "ओ": "o", "औ": "au",
}

_DEVA_MATRA = {
    "ा": "ā", "ि": "i", "ी": "ī",
    "ु": "u", "ू": "ū", "ृ": "r̥",
    "ॄ": "r̥̄", "ॢ": "l̥",
    "े": "e", "ै": "ai", "ो": "o", "ौ": "au",
}

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

# Signs attach to the finished syllable.  Candrabindu is folded to
# plain anusvara.
_DEVA_SIGN = {
    "ं": "ṃ",  # anusvara
    "ँ": "ṃ",  # candrabindu
    "ः": "ḥ",  # visarga
}

_VIRAMA = "्"


def detect_devanagari(text: str) -> bool:
    return any("ऀ" <= ch <= "ॿ" for ch in text)


def devanagari_to_latin(text: str) -> str:
    """Convert Devanagari verse text to its romanized equivalent.

    Consonants carry the inherent short a unless killed by a virama
    or replaced by a vowel sign.  Danda and double danda come out as
    "|" and "||" so quarter splitting works the same for both scripts.
    Anything that is neither Devanagari, whitespace, nor danda raises
    UnsupportedCodePoint.
    """
    s = unicodedata.normalize("NFC", text)
    out: list[str] = []
    pending = False  # a consonant was emitted and still owes its inherent a

    def flush() -> None:
        nonlocal pending
        if pending:
            out.append("a")
            pending = False

    for pos, ch in enumerate(s):
        if ch.isspace():
            flush()
            out.append(ch)
        elif ch == "।":  # danda
            flush()
            out.append(" | ")
        elif ch == "॥":  # double danda
            flush()
            out.append(" || ")
        elif ch in _DEVA_CONSONANT:
            flush()
            out.append(_DEVA_CONSONANT[ch])
            pending = True
        elif ch == _VIRAMA:
            pending = False
        elif ch in _DEVA_MATRA:
            out.append(_DEVA_MATRA[ch])
            pending = False
        elif ch in _DEVA_INDEPENDENT:
            flush()
            out.append(_DEVA_INDEPENDENT[ch])
        elif ch in _DEVA_SIGN:
            flush()
            out.append(_DEVA_SIGN[ch])
        else:
            # avagraha, digits, nukta forms, and anything non-Devanagari
            raise UnsupportedCodePoint(pos, ch)
    flush()
    return "".join(out)
