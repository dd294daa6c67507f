"""Per-unit audio clips: a deterministic synthetic voice and a
directory of recorded clips.

A clip request names a unit's text, its weight, the beat length and
the pitch in semitones; the clip handed back always lasts exactly
(weight + 1) beats at the engine sample rate, so the renderer can do
beat arithmetic in frames.  A provider that ``sings_at_pitch`` (the
synthetic voice) returns the clip at the request's pitch; any other
(recorded clips, files named ``<unit_text>_<l|g>.wav``) is asked at
pitch 0 and the renderer pitch-shifts its clip with the phase vocoder.
Providers keep no clips: the renderer memoizes them, one fetch per
distinct request in a render.

The synthetic voice runs no trigonometry per frame.  Its sines come
from a phasor table built by angle addition: one block of in-block
phasors times one phasor per block start.  A vowel's harmonics are
summed from the fundamental's cosine and sine by a Chebyshev (Clenshaw)
recurrence, not from one sine per harmonic.

A voice renders each of its pure parts once per instance, and the
renderer builds one voice per render.  The voice keeps one phasor table
per pitch it has sung, at base_freq · 2^(pitch/12), each grown to the
longest vowel asked for at that pitch (16 bytes a frame: 0.7 MB for a
two-beat vowel at 0.5 s and 44.1 kHz), so at most 12 tables, one per
pitch in PITCH_MIN..PITCH_MAX.  It keeps one consonant burst per
distinct (letter, length), and per pitch as well for the voiced letters
(semivowels and nasals), which mix in the fundamental.  A burst lasts
at most one 60 ms segment plus a frame per consonant of its cluster
(about 21 KB at 44.1 kHz), and a render asks for few lengths per
letter: a 16-line text keeps about 32 bursts, 0.7 MB.  Tables and
bursts are read-only, and every clip of the voice shares them.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alphabet import Category, Letter
from .dsp import (
    DEFAULT_SAMPLE_RATE,
    PITCH_MAX,
    PITCH_MIN,
    AudioClip,
    _to_int16,
    beat_frames,
    read_wav,
    resample,
    stretch_to_length,
)
from .errors import BadWav, ClipUnavailable, ConfigError
from .prosody import Weight
from .transliteration import normalize, tokenize

_NASALS = ("ṅ", "ñ", "ṇ", "n", "m")

# the synthetic vowel sums this many harmonics of the base frequency
HARMONICS = 4

# frames per block of the angle-addition phasor table
_BLOCK = 256


def check_base_freq(base_freq: float, sample_rate: int) -> None:
    """Raise ConfigError unless base * 2^(PITCH_MAX/12) * HARMONICS <
    rate / 2, so the top harmonic stays below Nyquist at the highest
    pitch the metre can ask for (NaN and infinity fail too)."""
    top = sample_rate / (2 * HARMONICS * 2.0 ** (PITCH_MAX / 12))
    if not 0 < base_freq < top:
        raise ConfigError(f"base frequency must lie in (0, {top:g}), got {base_freq}")


@dataclass(frozen=True)
class ClipRequest:
    unit_text: str
    weight: Weight
    beat_seconds: float
    pitch: int = 0  # semitones above the base note

    def __post_init__(self):
        if self.beat_seconds <= 0:
            raise ValueError("beat_seconds must be positive")
        if self.pitch != int(self.pitch) or not PITCH_MIN <= self.pitch <= PITCH_MAX:
            raise ValueError(
                f"pitch {self.pitch} is not a whole number in {PITCH_MIN}..{PITCH_MAX}"
            )

    def n_frames(self, sample_rate: int) -> int:
        """Weight + 1 beats in frames: the one length every provider's clip has."""
        return beat_frames(int(self.weight) + 1, self.beat_seconds, sample_rate)


class ClipProvider(ABC):
    """Source of unit clips.  Each call builds or loads the clip anew;
    the renderer memoizes whole clips, so providers keep no clips.  A
    synthetic voice does keep the parts its clips share (its bursts and
    its phasor tables), bounded as the module docstring says.

    ``sings_at_pitch`` tells the renderer that ``get_clip`` returns the
    clip at ``request.pitch``; a provider without it is always asked at
    pitch 0, and its clips are pitch-shifted afterwards."""

    sings_at_pitch = False

    @abstractmethod
    def get_clip(self, request: ClipRequest) -> AudioClip: ...


# ---------------------------------------------------------------------------
# Synthetic voice

def _seed(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def _envelope(x: np.ndarray, attack: int, release: int) -> np.ndarray:
    """Fade x in over ``attack`` frames and out over ``release`` frames,
    in place; the frames between the ramps keep their values."""
    n = len(x)
    attack = min(attack, n // 2)
    release = min(release, n - attack)
    if attack:
        x[:attack] *= np.linspace(0.0, 1.0, attack, endpoint=False)
    if release:
        x[n - release :] *= np.linspace(1.0, 0.0, release)
    return x


def _phasor(freq: float, n: int, rate: int) -> np.ndarray:
    """exp(2πi · freq · k / rate) for k < n, by angle addition: one block
    of in-block phasors times one phasor per block start, so no
    trigonometry runs per frame.  Neither factor depends on n and the
    first block start is exactly 1, so the first m entries of a table
    equal the table built for m."""
    step = 2j * np.pi * freq / rate
    inner = np.exp(step * np.arange(min(n, _BLOCK)))
    starts = np.exp(step * _BLOCK * np.arange(-(-n // _BLOCK)))
    return np.outer(starts, inner).ravel()[:n]


def _vowel_tone(nucleus: Letter, z: np.ndarray, rate: int) -> np.ndarray:
    """HARMONICS harmonics of the fundamental whose phasor table is z
    (one entry per frame), enveloped.

    With θ the fundamental's phase, sin kθ = sin θ · U_{k-1}(cos θ), so
    the sum of a_k sin kθ is sin θ times a Chebyshev series in cos θ,
    evaluated by Clenshaw's recurrence over the amplitudes.  cos θ and
    sin θ come from one phasor table, so no harmonic needs its own sine.
    """
    if len(z) == 0:
        return np.zeros(0)
    rng = np.random.default_rng(_seed(nucleus.text))
    # fundamental dominates so the spectral peak sits at base_freq
    amps = np.concatenate([[1.0], rng.uniform(0.08, 0.3, HARMONICS - 1)])
    two_cos = 2.0 * z.real
    b, b_next = amps[-1], 0.0
    for amp in amps[-2::-1]:  # b_j = a_{j+1} + 2cos θ · b_{j+1} - b_{j+2}
        b, b_next = two_cos * b - b_next + amp, b
    x = b * z.imag
    return _envelope(x, int(0.015 * rate), int(0.030 * rate))


def _voiced(letter: Letter) -> bool:
    """Semivowels and nasals: the consonants whose burst carries the
    fundamental."""
    return letter.category is Category.SEMIVOWEL or letter.text in _NASALS


def _consonant_burst(letter: Letter, z: np.ndarray, rate: int) -> np.ndarray:
    """Band-limited noise for the letter, len(z) frames long; semivowels
    and nasals mix in the fundamental whose phasor table is z."""
    n = len(z)
    if n == 0:
        return np.zeros(0)
    rng = np.random.default_rng(_seed(letter.text))
    noise = rng.standard_normal(n)
    center = 500.0 + (_seed(letter.text) % 3000)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spec = np.fft.rfft(noise) * np.exp(-(((freqs - center) / 900.0) ** 2))
    x = np.fft.irfft(spec, n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x /= peak
    if _voiced(letter):
        x = 0.5 * x + 0.5 * z.imag
    x *= 0.45
    return _envelope(x, int(0.003 * rate), int(0.003 * rate))


class SyntheticVoice(ClipProvider):
    """Noise-burst consonants around a harmonic vowel, sung at
    base_freq · 2^(pitch/12) and deterministic for a given request.
    Its clips share one phasor table per pitch, served by prefix, and
    one burst per (letter, frames), and per pitch if the letter is
    voiced."""

    sings_at_pitch = True

    def __init__(
        self, base_freq: float = 220.0, sample_rate: int = DEFAULT_SAMPLE_RATE
    ):
        check_base_freq(base_freq, sample_rate)
        self.base_freq = base_freq
        self.sample_rate = sample_rate
        self._tables: dict[int, np.ndarray] = {}  # pitch -> phasor table
        # (letter, frames, pitch); an unvoiced burst is noise alone, so
        # every pitch shares its entry under pitch 0
        self._bursts: dict[tuple[str, int, int], np.ndarray] = {}

    def _phasors(self, n: int, pitch: int) -> np.ndarray:
        """The first n entries of the phasor table at the pitch's
        frequency; at pitch 0 that is exactly base_freq."""
        table = self._tables.get(pitch)
        if table is None or n > len(table):
            freq = self.base_freq * 2.0 ** (pitch / 12)
            table = self._tables[pitch] = _phasor(freq, n, self.sample_rate)
            table.setflags(write=False)
        return table[:n]

    def _consonant_run(self, letters, n: int, pitch: int) -> np.ndarray:
        each = n // len(letters)
        parts = []
        for k, letter in enumerate(letters):
            m = n - each * (len(letters) - 1) if k == len(letters) - 1 else each
            key = (letter.text, m, pitch if _voiced(letter) else 0)
            burst = self._bursts.get(key)
            if burst is None:
                z = self._phasors(m, pitch)
                burst = self._bursts[key] = _consonant_burst(letter, z, self.sample_rate)
                burst.setflags(write=False)
            parts.append(burst)
        return np.concatenate(parts)

    def get_clip(self, request: ClipRequest) -> AudioClip:
        rate, pitch = self.sample_rate, request.pitch
        n = request.n_frames(rate)
        stream = tokenize(request.unit_text)
        vowel_at = next(
            (i for i, letter in enumerate(stream.letters) if letter.is_vowel), None
        )
        if vowel_at is None:
            raise ValueError(f"unit text {request.unit_text!r} has no vowel")
        pre = stream.letters[:vowel_at]
        nucleus = stream.letters[vowel_at]
        post = stream.letters[vowel_at + 1 :]

        seg = int(round(0.06 * rate))
        onset = min(len(pre) * seg, n // 4)
        coda = min(len(post) * seg, n // 4)
        parts = []
        if onset:
            parts.append(self._consonant_run(pre, onset, pitch))
        parts.append(_vowel_tone(nucleus, self._phasors(n - onset - coda, pitch), rate))
        if coda:
            parts.append(self._consonant_run(post, coda, pitch))
        x = np.concatenate(parts)
        peak = np.max(np.abs(x)) if len(x) else 0.0
        if peak > 0:
            x *= 0.75 / peak
        return AudioClip(_to_int16(x), rate)


# ---------------------------------------------------------------------------
# Recorded clips

class ClipDirectory(ClipProvider):
    """Clips read from ``<unit_text>_<l|g>.wav`` files in one directory.

    Files are conformed to the engine: resampled to the engine rate,
    then brought to the exact expected frame count.  A duration off by
    5% or more of the expected length is time-stretched; smaller gaps
    are padded or trimmed.
    """

    def __init__(self, directory: str | Path, sample_rate: int = DEFAULT_SAMPLE_RATE):
        self.directory = Path(directory)
        self.sample_rate = sample_rate
        self._index: dict[tuple[str, Weight], Path] = {}
        for path in sorted(self.directory.glob("*.wav")):
            stem = path.stem
            if "_" not in stem:
                continue
            unit_text, _, tag = stem.rpartition("_")
            if tag == "l":
                weight = Weight.LAGHU
            elif tag == "g":
                weight = Weight.GURU
            else:
                continue
            self._index[(normalize(unit_text), weight)] = path

    def __len__(self) -> int:
        return len(self._index)

    def get_clip(self, request: ClipRequest) -> AudioClip:
        if request.pitch:
            # a take is sung at one pitch; the renderer shifts it
            raise ValueError("recorded clips are served at pitch 0 only")
        path = self._index.get((normalize(request.unit_text), request.weight))
        if path is None:
            raise ClipUnavailable(request.unit_text, request.weight.tag)
        clip = read_wav(path)
        if clip.n_frames == 0:
            raise BadWav(path, "clip holds no samples")
        if clip.sample_rate != self.sample_rate:
            clip = resample(clip, self.sample_rate)
        expected = request.n_frames(self.sample_rate)
        got = clip.n_frames
        if got == expected:
            return clip
        if abs(got - expected) / expected >= 0.05:
            return stretch_to_length(clip, expected)
        if got > expected:
            return AudioClip(clip.samples[:expected], self.sample_rate)
        pad = np.zeros(expected - got, dtype=np.int16)
        return AudioClip(np.concatenate([clip.samples, pad]), self.sample_rate)
