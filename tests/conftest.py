"""Shared fixtures: frozen oracle values, the join oracle, an
independent spectral-peak estimator, a voice that records its
requests, an IAST-to-Devanagari speller, and seeded random verse
generators for the property suites."""

from __future__ import annotations

import random
import struct
import unicodedata

import numpy as np

from versechant.audio_store import SyntheticVoice
from versechant.dsp import AudioClip

# The worked sample verse.  Quarter-1 unit and weight values below were
# fixed by hand before the pipeline existed and must never be edited to
# match the code.
SAMPLE_VERSE = (
    "vande gurūṇāṃ caraṇāravinde\n"
    "sandarśitasvātmasukhāvabodhe |\n"
    "janasya ye jāṅgalikāyamāne\n"
    "saṃsārahālāhalamohaśāntyai ||"
)

Q1_UNITS = ["van", "de", "gu", "rū", "ṇāṃ", "ca", "ra", "ṇā", "ra", "vin", "de"]
Q2_UNITS = ["san", "dar", "śi", "tas", "vāt", "ma", "su", "khā", "va", "bo", "dhe"]
Q3_UNITS = ["ja", "nas", "ya", "ye", "jāṅ", "ga", "li", "kā", "ya", "mā", "ne"]
Q4_UNITS = ["saṃ", "sā", "ra", "hā", "lā", "ha", "la", "mo", "ha", "śān", "tyai"]

Q1_V = [1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
Q1_T = [0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1]

# expected/actual beat totals for quarter 1, by the sum-of-(x+1) rule
Q1_TE = sum(Q1_V) + len(Q1_V)  # 18
Q1_TA = sum(Q1_T) + len(Q1_T)  # 16

ANUSTUP_Q13 = (0, 1, 1, 2, 2, 0, 1, 1)
ANUSTUP_Q24 = (0, 1, -1, 0, 0, 1, 1, 1)
VAJRA_Q13 = (0, 0, 1, 2, 2, 0, 0, 1, -1, 0, -1)
VAJRA_Q24 = (0, 1, 0, 0, 0, 0, -1, 0, 1, 1, 1)


def fft_peak_hz(samples: np.ndarray, rate: int) -> float:
    """Spectral peak of a signal, independent of the dsp module.

    Hann window, magnitude rfft, argmax, then parabolic refinement of
    the peak bin for sub-bin resolution.
    """
    x = samples.astype(np.float64) * np.hanning(len(samples))
    mag = np.abs(np.fft.rfft(x))
    k = int(np.argmax(mag))
    peak = float(k)
    if 0 < k < len(mag) - 1:
        a, b, c = np.log(mag[k - 1 : k + 2] + 1e-12)
        denom = a - 2 * b + c
        if denom != 0:
            peak = k + 0.5 * (a - c) / denom
    return peak * rate / len(samples)


def peak_bin(samples: np.ndarray) -> int:
    """The strongest bin of the signal's plain magnitude rfft."""
    return int(np.argmax(np.abs(np.fft.rfft(samples))))


class CountingVoice(SyntheticVoice):
    """A synthetic voice that records every request it is asked for."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def get_clip(self, request):
        self.requests.append(request)
        return super().get_clip(request)


def sine_clip(
    freq: float, seconds: float = 1.0, rate: int = 44100, amp: float = 0.6
) -> AudioClip:
    t = np.arange(int(round(seconds * rate))) / rate
    samples = (amp * 32767.0 * np.sin(2.0 * np.pi * freq * t)).astype(np.int16)
    return AudioClip(samples, rate)


def reference_concat(clips: list[AudioClip], crossfade: int) -> np.ndarray:
    """The quadratic join concat once used: the whole merged float
    buffer is rebuilt at every join.  Kept as the oracle for concat and
    for whole renders."""
    merged = clips[0].samples.astype(np.float64) / 32768.0
    for clip in clips[1:]:
        nxt = clip.samples.astype(np.float64) / 32768.0
        xf = min(crossfade, len(merged), len(nxt))
        if xf == 0:
            merged = np.concatenate([merged, nxt])
            continue
        t = (np.arange(xf) + 0.5) / xf
        overlap = merged[-xf:] * np.cos(t * np.pi / 2) + nxt[:xf] * np.sin(t * np.pi / 2)
        merged = np.concatenate([merged[:-xf], overlap, nxt[xf:]])
    return np.clip(np.rint(merged * 32768.0), -32768, 32767).astype(np.int16)


def mono16_wav(rate: int, declared: int, payload: bytes) -> bytes:
    """A hand-built mono 16-bit PCM WAV whose data chunk declares
    ``declared`` bytes and holds ``payload``."""
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", declared) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body

# ---------------------------------------------------------------------------
# Random verse material.  Words are strings of onset+vowel groups with
# optional ṃ/ḥ after a vowel and an optional consonant tail, drawn from
# clusters that occur in real verse, so every generated word splits.

VOWELS = [
    "a", "ā", "i", "ī", "u", "ū", "r̥", "r̥̄", "l̥", "e", "ai", "o", "au",
]
SINGLE_ONSETS = [
    "k", "kh", "g", "gh", "c", "ch", "j", "jh", "ṭ", "ḍ", "ṇ",
    "t", "th", "d", "dh", "n", "p", "ph", "b", "bh", "m",
    "y", "r", "l", "v", "ś", "ṣ", "s", "h",
]
INITIAL_CLUSTERS = [
    "pr", "br", "kr", "tr", "dr", "gr", "śr", "sn", "sm", "st", "sv",
    "tv", "tm", "dv", "dy", "vy", "jñ", "kṣ", "hm", "hn", "śv", "sth",
]
MEDIAL_CLUSTERS = INITIAL_CLUSTERS + [
    "nt", "nd", "mp", "mb", "rk", "rt", "rm", "ry", "tk", "ght", "tsn",
]
MARKERS = ["ṃ", "ḥ"]
FINAL_CONSONANTS = ["m", "t", "n", "d", "s", "r"]


def random_word(rng: random.Random) -> str:
    parts = []
    n_groups = rng.randint(1, 4)
    ends_in_marker = False
    for g in range(n_groups):
        roll = rng.random()
        if g == 0:
            if roll < 0.75:
                parts.append(rng.choice(SINGLE_ONSETS))
            elif roll < 0.9:
                parts.append(rng.choice(INITIAL_CLUSTERS))
            # else vowel-initial word
        else:
            if roll < 0.65:
                parts.append(rng.choice(SINGLE_ONSETS))
            elif roll < 0.95 or ends_in_marker:
                parts.append(rng.choice(MEDIAL_CLUSTERS))
            # else hiatus: vowel straight after the previous group
        parts.append(rng.choice(VOWELS))
        ends_in_marker = rng.random() < 0.12
        if ends_in_marker:
            parts.append(rng.choice(MARKERS))
    if not ends_in_marker and rng.random() < 0.3:
        if rng.random() < 0.25:
            parts.append(rng.choice(MARKERS))
        else:
            parts.append(rng.choice(FINAL_CONSONANTS))
    return "".join(parts)


def random_text(rng: random.Random, max_words: int = 5) -> str:
    return " ".join(random_word(rng) for _ in range(rng.randint(1, max_words)))


# ---------------------------------------------------------------------------
# IAST to Devanagari, written from the script's rules, not from the
# package's converter: a consonant before a vowel takes the vowel's sign
# (none for a), a consonant before anything else takes a virama, and a
# vowel after no consonant is written as its independent letter.

DEVA_VOWELS = {
    "a": "अ", "ā": "आ", "i": "इ", "ī": "ई", "u": "उ", "ū": "ऊ",
    "r̥": "ऋ", "r̥̄": "ॠ", "l̥": "ऌ", "e": "ए", "ai": "ऐ", "o": "ओ", "au": "औ",
}
DEVA_SIGNS = {
    "a": "", "ā": "ा", "i": "ि", "ī": "ी", "u": "ु", "ū": "ू",
    "r̥": "ृ", "r̥̄": "ॄ", "l̥": "ॢ", "e": "े", "ai": "ै", "o": "ो", "au": "ौ",
}
DEVA_CONSONANTS = dict(zip(
    "k kh g gh ṅ c ch j jh ñ ṭ ṭh ḍ ḍh ṇ t th d dh n p ph b bh m y r l v ś ṣ s h".split(),
    "कखगघङचछजझञटठडढणतथदधनपफबभमयरलवशषसह",
))
DEVA_MARKS = {"ṃ": "ं", "ḥ": "ः"}
VIRAMA = "्"


def iast_to_devanagari(text: str) -> str:
    """Devanagari spelling of lowercase IAST text; whitespace is kept."""
    s = unicodedata.normalize("NFC", text)
    table = {**DEVA_VOWELS, **DEVA_CONSONANTS, **DEVA_MARKS}
    out: list[str] = []
    owes = False  # the last consonant still needs a vowel sign or a virama
    i = 0
    while i < len(s):
        if s[i].isspace():
            token = s[i]
        else:
            # longest letter first, so "kh" is one letter and "ai" one vowel
            token = next(s[i : i + w] for w in (3, 2, 1) if s[i : i + w] in table)
        if token in DEVA_VOWELS:
            out.append(DEVA_SIGNS[token] if owes else DEVA_VOWELS[token])
            owes = False
        else:
            if owes:
                out.append(VIRAMA)
            owes = token in DEVA_CONSONANTS
            out.append(table.get(token, token))
        i += len(token)
    if owes:
        out.append(VIRAMA)
    return "".join(out)
