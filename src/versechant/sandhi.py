"""Sandhi corrections applied to a letter stream before splitting.

Each correction is a pure function LetterStream -> LetterStream and is
idempotent; apply_all composes them in a fixed order.  Letter counts
never change, and only the sibilant rule may merge two words.
"""

from __future__ import annotations

from .alphabet import CLASS_NASAL, Category, classify
from .transliteration import LetterStream

__all__ = [
    "correct_hn",
    "correct_anusvara",
    "correct_visarga_sibilant",
    "correct_visarga_aspirate",
    "apply_all",
]


def correct_hn(stream: LetterStream) -> LetterStream:
    """Swap h + n to n + h within a word (vahni is spoken vanhi)."""
    letters = list(stream.letters)
    changed = True
    while changed:  # repeat so the pass is a fixed point
        changed = False
        i = 0
        while i < len(letters) - 1:
            if (
                letters[i].text == "h"
                and letters[i + 1].text == "n"
                and (i + 1) not in stream.word_breaks
            ):
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
                i += 2
            else:
                i += 1
    return LetterStream(tuple(letters), stream.word_breaks)


def correct_anusvara(stream: LetterStream) -> LetterStream:
    """Replace ṃ or m before a stop with that stop's class nasal.

    Word-internal only; before semivowels, sibilants, and h the
    anusvara stays (saṃsāra keeps its ṃ, saṃgīta becomes saṅgīta).
    """
    letters = list(stream.letters)
    # right to left, so a run of nasals takes the nasal of the stop it
    # ends in and a second pass finds nothing left to change
    for i in reversed(range(len(letters) - 1)):
        cur = letters[i]
        if cur.category is not Category.ANUSVARA and cur.text != "m":
            continue
        if (i + 1) in stream.word_breaks:
            continue
        nasal = CLASS_NASAL.get(letters[i + 1].text)
        if nasal is not None:
            letters[i] = classify(nasal)
    return LetterStream(tuple(letters), stream.word_breaks)


def correct_visarga_sibilant(stream: LetterStream) -> LetterStream:
    """Assimilate word-final ḥ to a following sibilant, merging the words.

    namaḥ śivāya is chanted namaśśivāya as one word.
    """
    letters = list(stream.letters)
    breaks = set(stream.word_breaks)
    # right to left, so a chain of one-letter ḥ words assimilates in one pass
    for i in reversed(range(len(letters) - 1)):
        nxt = letters[i + 1]
        if (
            letters[i].category is Category.VISARGA
            and (i + 1) in breaks
            and nxt.category is Category.SIBILANT
        ):
            letters[i] = nxt
            breaks.discard(i + 1)
    return LetterStream(tuple(letters), frozenset(breaks))


def correct_visarga_aspirate(stream: LetterStream) -> LetterStream:
    """Turn ḥ before k/kh into z and before p/ph into f.

    Applies within a word (duḥkham -> duzkham) and across a word break
    (the break is kept).
    """
    letters = list(stream.letters)
    for i in range(len(letters) - 1):
        if letters[i].category is not Category.VISARGA:
            continue
        nxt = letters[i + 1].text
        if nxt in ("k", "kh"):
            letters[i] = classify("z")
        elif nxt in ("p", "ph"):
            letters[i] = classify("f")
    return LetterStream(tuple(letters), stream.word_breaks)


def apply_all(stream: LetterStream) -> LetterStream:
    """All four corrections, in fixed order."""
    stream = correct_hn(stream)
    stream = correct_anusvara(stream)
    stream = correct_visarga_sibilant(stream)
    stream = correct_visarga_aspirate(stream)
    return stream
