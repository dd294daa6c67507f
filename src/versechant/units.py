"""Splitting words into syllabic units.

A unit is one vowel nucleus with the consonants chanted in the same
breath: an optional onset cluster, the nucleus, and an optional coda.
The split is lossless: concatenating unit texts word by word
reproduces the stream text exactly.

A word's nuclei are found once; an ``a`` letter directly followed by an
``i`` or ``u`` letter fuses into the diphthong.  The first unit takes
every letter before the first nucleus and the last unit every letter
after the last nucleus.  Each cluster C between two nuclei keeps its
first ``_coda_length(nucleus, C)`` letters as the coda and hands the
rest to the next unit as its onset:

- C is empty: 0.
- C[0] is a tail marker (ṃ ḥ z f): 1.
- C is one consonant: 0.
- C starts with r: 2 if C has at least 3 letters, else 1.
- C starts with jñ or kṣ: 0.
- After a short nucleus, C starts with a light cluster (pr, br, kr, h): 0.
- Anything else: 1.

A tail marker cannot start a unit, and after the last nucleus it may
only end the word (``MalformedTail``); a word with no vowel raises
``NoVowelInWord``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import Letter, VowelLength, classify
from .errors import MalformedTail, NoVowelInWord
from .transliteration import LetterStream

#: Clusters that leave a short nucleus open here, and that do not
#: lengthen it in the weight rule unless promotion is switched on.
LIGHT_CLUSTERS = (("p", "r"), ("b", "r"), ("k", "r"), ("h",))


@dataclass(frozen=True)
class Unit:
    pre_vowel: tuple[Letter, ...]
    vowel: Letter
    post_vowel: tuple[Letter, ...]
    word_final: bool

    @property
    def text(self) -> str:
        return "".join(
            letter.text
            for letter in (*self.pre_vowel, self.vowel, *self.post_vowel)
        )


def _coda_length(nucleus: Letter, cluster: tuple[Letter, ...]) -> int:
    """Letters of the cluster between two nuclei that close the first."""
    if not cluster:
        return 0
    if cluster[0].is_tail_marker:
        return 1
    if len(cluster) == 1:
        return 0
    texts = (cluster[0].text, cluster[1].text)
    if texts[0] == "r":
        return 2 if len(cluster) >= 3 else 1
    if texts in (("j", "ñ"), ("k", "ṣ")):
        return 0
    if nucleus.length is VowelLength.SHORT and (
        texts in LIGHT_CLUSTERS or texts[:1] in LIGHT_CLUSTERS
    ):
        return 0
    return 1


def _nuclei(word: tuple[Letter, ...]) -> list[tuple[int, int, Letter]]:
    """(start, end, nucleus) of each nucleus of the word, in order."""
    out = []
    i, n = 0, len(word)
    while i < n:
        letter = word[i]
        if letter.is_vowel:
            # a + i / a + u written as separate letters fuse to the diphthong
            if letter.text == "a" and i + 1 < n and word[i + 1].text in ("i", "u"):
                out.append((i, i + 2, classify("a" + word[i + 1].text)))
                i += 2
                continue
            out.append((i, i + 1, letter))
        i += 1
    return out


def _split_word(word: tuple[Letter, ...], word_index: int) -> list[Unit]:
    nuclei = _nuclei(word)
    if word and not nuclei:
        raise NoVowelInWord(word_index, "".join(l.text for l in word))
    units: list[Unit] = []
    onset_at = 0
    for k, (start, end, nucleus) in enumerate(nuclei):
        onset = word[onset_at:start]
        for letter in onset:
            if letter.is_tail_marker:
                raise MalformedTail(word_index, f"{letter.text!r} cannot start a unit")
        if k + 1 < len(nuclei):
            onset_at = end + _coda_length(nucleus, word[end : nuclei[k + 1][0]])
        else:
            onset_at = len(word)
            for letter in word[end:-1]:
                if letter.is_tail_marker:
                    raise MalformedTail(word_index, f"{letter.text!r} must end its word")
        units.append(Unit(onset, nucleus, word[end:onset_at], onset_at == len(word)))
    return units


def split_into_units(stream: LetterStream) -> list[Unit]:
    """Split every word of the stream into syllabic units, in order."""
    units: list[Unit] = []
    for word_index, (start, end) in enumerate(stream.word_spans()):
        units.extend(_split_word(stream.letters[start:end], word_index))
    return units
