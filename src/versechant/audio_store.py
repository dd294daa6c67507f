"""Per-unit audio clips: a deterministic synthetic voice and a
directory of recorded clips.

A clip request names a unit's text, its weight, the beat length and
the pitch in semitones; ``ClipProvider`` states what clip a provider
hands back for it.  The synthetic voice sings the clip at
base_freq · 2^(pitch/12); a directory of recorded takes (files named
``<unit_text>_<l|g>.wav``) reads its take 2^(pitch/12) times faster in
one resampling pass, then fits the read to the slot, so a take goes
through the phase vocoder once at most.
Providers keep no clips: the renderer memoizes them, one fetch per
distinct request in a render.

The synthetic voice runs no trigonometry per frame.  Its sines come
from a phasor table built by angle addition: one block of in-block
phasors times one phasor per block start.  A vowel's harmonics are
summed from the fundamental's cosine and sine by a Chebyshev (Clenshaw)
recurrence, not from one sine per harmonic.

A voice computes each pure part of its clips once and keeps it for its
later clips.  The parts are one phasor table per pitch sung, at
base_freq · 2^(pitch/12), grown to the longest vowel asked for at that
pitch (16 bytes a frame: 0.7 MB for a two-beat vowel at 0.5 s and
44.1 kHz); one consonant burst per (letter, length), at most one 60 ms
segment plus a frame per consonant of its cluster (about 21 KB at
44.1 kHz); and for the voiced letters (semivowels and nasals), which mix
the fundamental into their noise, the noise once per (letter, length)
and the burst once per pitch as well.  All parts are read-only and
share one budget, PARTS_BUDGET, 8 MiB, counted in the whole pages each
part takes: past it the least recently used parts go.  Growing a table replaces it, and a new beat length asks for
new lengths, which only add parts for the budget to evict.  One lock
guards the bookkeeping, so threads may share a voice; two threads may
both build a part, and they build it alike.

``synthesize`` without a store renders with ``default_voice``: one
voice per process, built on first use and kept, parts and all, until a
render at another base frequency or sample rate replaces it.  Repeated
renders of metred verses keep about 4.7 MB of parts; an unmetred
16-line text, all at pitch 0, about 1.9 MB.
"""

from __future__ import annotations

import functools
import math
import mmap
import numbers
import threading
import zlib
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alphabet import STOP_ROWS, Category, Letter
from .dsp import (
    DEFAULT_SAMPLE_RATE,
    PITCH_MAX,
    PITCH_MIN,
    AudioClip,
    _to_int16,
    beat_frames,
    crossfade_frames,
    read_wav,
    resample,
    stretch_to_length,
)
from .errors import BadWav, ClipUnavailable, ConfigError
from .prosody import Weight
from .transliteration import normalize, tokenize

_NASALS = tuple(row[-1] for row in STOP_ROWS)

# the synthetic vowel sums this many harmonics of the base frequency
HARMONICS = 4

# frames per block of the angle-addition phasor table
_BLOCK = 256

# bytes of pages the parts one voice keeps (phasor tables, burst noise,
# bursts) may take
PARTS_BUDGET = 8 * 2**20


def is_number(value, kind: type = numbers.Real) -> bool:
    """True when value is a number of ``kind`` (``numbers.Real`` or
    ``numbers.Integral``).  A bool is a number to Python, but never a
    setting's value: ``True`` is no one-second beat."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_sample_rate(sample_rate: int) -> None:
    """Raise ConfigError unless the sample rate is a positive whole
    number of frames per second."""
    if not (is_number(sample_rate, numbers.Integral) and sample_rate > 0):
        raise ConfigError(
            f"sample rate must be a positive whole number, got {sample_rate!r}"
        )


def check_base_freq(base_freq: float, sample_rate: int) -> None:
    """Raise ConfigError unless base * 2^(PITCH_MAX/12) * HARMONICS <
    rate / 2, so the top harmonic stays below Nyquist at the highest
    pitch the metre can ask for (NaN, infinity and non-numbers fail too)."""
    top = sample_rate / (2 * HARMONICS * 2.0 ** (PITCH_MAX / 12))
    if not (is_number(base_freq) and 0 < base_freq < top):
        raise ConfigError(f"base frequency must lie in (0, {top:g}), got {base_freq!r}")


@dataclass(frozen=True)
class ClipRequest:
    unit_text: str
    weight: Weight
    beat_seconds: float
    pitch: int = 0  # semitones above the base note

    def __post_init__(self):
        beat, pitch = self.beat_seconds, self.pitch
        if not (is_number(beat) and math.isfinite(beat) and beat > 0):
            raise ValueError("beat_seconds must be positive and finite")
        if not (is_number(pitch) and PITCH_MIN <= pitch <= PITCH_MAX and pitch == int(pitch)):
            raise ValueError(
                f"pitch {pitch} is not a whole number in {PITCH_MIN}..{PITCH_MAX}"
            )

    def n_frames(self, sample_rate: int) -> int:
        """Weight + 1 beats in frames plus one crossfade, the tail that
        fades under the next slot: the one length every provider's clip has."""
        beats = beat_frames(int(self.weight) + 1, self.beat_seconds, sample_rate)
        return beats + crossfade_frames(sample_rate)


class ClipProvider(ABC):
    """Source of unit clips.  ``get_clip`` returns the unit sung at
    ``request.pitch``, exactly ``request.n_frames(rate)`` frames long at
    the engine rate: its beats, then one crossfade that fades under the
    next slot, so the renderer starts every clip on its beat.
    Each call builds or loads the clip anew; the renderer memoizes whole
    clips, so providers keep no clips.  A synthetic voice does keep the
    parts its clips share (phasor tables, burst noise and bursts),
    within the budget the module docstring states."""

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


def _burst_noise(letter: Letter, n: int, rate: int) -> np.ndarray:
    """The letter's seeded noise, n frames long, band-filtered around a
    centre its seed picks and scaled to peak 1."""
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
    return x


def _consonant_burst(
    letter: Letter, noise: np.ndarray, z: np.ndarray, rate: int
) -> np.ndarray:
    """The letter's burst from its noise (``_burst_noise``, as long as
    z); semivowels and nasals mix in the fundamental whose phasor table
    is z."""
    x = 0.5 * noise + 0.5 * z.imag if _voiced(letter) else noise
    return _envelope(0.45 * x, int(0.003 * rate), int(0.003 * rate))


def _footprint(part: np.ndarray) -> int:
    """Bytes of the whole pages a kept part takes."""
    return -(-max(part.nbytes, 1) // mmap.PAGESIZE) * mmap.PAGESIZE


class _Parts:
    """Read-only arrays by key within a byte budget.  Storing a part
    keeps a copy in pages of its own and replaces the part under its
    key; then the least recently used parts go until the pages kept fit
    the budget.  A lock guards this bookkeeping; parts are built and
    copied outside it.

    Own pages keep parts out of the malloc heap.  There, a part kept
    from one render splits the free space its render's clips and int16
    output buffer took, so the next render's land beyond it: with glibc
    on a 2-CPU Linux host, heap-kept parts raise the verse benchmark's
    peak RSS from 61.3 to 62.2 MB (seed 301, two 5 s runs a side)."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._kept: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            part = self._kept.get(key)
            if part is not None:
                self._kept.move_to_end(key)
            return part

    def put(self, key: tuple, part: np.ndarray) -> np.ndarray:
        kept = np.frombuffer(mmap.mmap(-1, _footprint(part)), part.dtype, len(part))
        kept[:] = part
        kept.setflags(write=False)
        with self._lock:
            old = self._kept.pop(key, None)
            if old is not None:
                self.nbytes -= _footprint(old)
            self._kept[key] = kept
            self.nbytes += _footprint(kept)
            while self.nbytes > self.budget:
                self.nbytes -= _footprint(self._kept.popitem(last=False)[1])
        return kept


class SyntheticVoice(ClipProvider):
    """Noise-burst consonants around a harmonic vowel, sung at
    base_freq · 2^(pitch/12) and deterministic for a given request.
    Its clips share the parts the module docstring lists, kept within
    PARTS_BUDGET bytes; threads may share a voice."""

    def __init__(
        self, base_freq: float = 220.0, sample_rate: int = DEFAULT_SAMPLE_RATE
    ):
        check_sample_rate(sample_rate)
        check_base_freq(base_freq, sample_rate)
        self.base_freq = base_freq
        self.sample_rate = sample_rate
        self._parts = _Parts(PARTS_BUDGET)

    def _phasors(self, n: int, pitch: int) -> np.ndarray:
        """The first n entries of the phasor table at the pitch's
        frequency; at pitch 0 that is exactly base_freq."""
        key = ("table", pitch)
        table = self._parts.get(key)
        if table is None or n > len(table):
            freq = self.base_freq * 2.0 ** (pitch / 12)
            table = self._parts.put(key, _phasor(freq, n, self.sample_rate))
        return table[:n]

    def _burst(self, letter: Letter, n: int, pitch: int) -> np.ndarray:
        """The letter's burst, n frames long.  An unvoiced burst is noise
        alone, so every pitch shares it; a voiced letter keeps its noise
        as a part of its own, so another pitch only mixes in its sine."""
        voiced = _voiced(letter)
        key = ("burst", letter.text, n, pitch if voiced else 0)
        burst = self._parts.get(key)
        if burst is None:
            rate = self.sample_rate
            if voiced:
                noise_key = ("noise", letter.text, n)
                noise = self._parts.get(noise_key)
                if noise is None:
                    noise = self._parts.put(noise_key, _burst_noise(letter, n, rate))
            else:
                noise = _burst_noise(letter, n, rate)
            z = self._phasors(n, pitch)
            burst = self._parts.put(key, _consonant_burst(letter, noise, z, rate))
        return burst

    def _consonant_run(self, letters, n: int, pitch: int) -> np.ndarray:
        each = n // len(letters)
        parts = []
        for k, letter in enumerate(letters):
            m = n - each * (len(letters) - 1) if k == len(letters) - 1 else each
            parts.append(self._burst(letter, m, pitch))
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


@functools.lru_cache(maxsize=1)
def default_voice(base_freq: float, sample_rate: int) -> SyntheticVoice:
    """The process's synthetic voice, built on first use and kept with
    its parts until a call at another (base_freq, sample_rate) replaces
    it.  Two threads that ask at once for a voice not yet kept may each
    build one; either serves the same clips."""
    return SyntheticVoice(base_freq, sample_rate)


# ---------------------------------------------------------------------------
# Recorded clips

class ClipDirectory(ClipProvider):
    """Clips read from ``<unit_text>_<l|g>.wav`` files in one directory,
    sung at the request's pitch.

    A take is read once at the engine rate and the pitch: every output
    frame steps take_rate · 2^(pitch/12) / engine_rate input frames
    (``dsp.resample``, which low-passes a read that steps over more than
    one frame).  The read is then brought to the exact expected frame
    count by one rule: a length off by 5% or more is time-stretched with
    the phase vocoder; a smaller gap is padded with silence or trimmed.
    A path that is not a directory, or two files whose names normalize
    to one (unit, weight) take, raise ``ConfigError``.
    """

    def __init__(self, directory: str | Path, sample_rate: int = DEFAULT_SAMPLE_RATE):
        check_sample_rate(sample_rate)
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ConfigError(f"clip directory {directory} is not a directory")
        self.sample_rate = sample_rate
        self._index: dict[tuple[str, Weight], Path] = {}
        weights = {w.tag: w for w in Weight}
        for path in sorted(self.directory.glob("*.wav")):
            unit_text, sep, tag = path.stem.rpartition("_")
            if not sep or tag not in weights:
                continue
            key = (normalize(unit_text), weights[tag])
            other = self._index.setdefault(key, path)
            if other is not path:
                raise ConfigError(
                    f"clip files {other.name} and {path.name} are both the take "
                    f"{key[0]}_{tag}"
                )

    def __len__(self) -> int:
        return len(self._index)

    def get_clip(self, request: ClipRequest) -> AudioClip:
        path = self._index.get((normalize(request.unit_text), request.weight))
        if path is None:
            raise ClipUnavailable(request.unit_text, request.weight.tag)
        clip = read_wav(path)
        if clip.n_frames == 0:
            raise BadWav(path, "clip holds no samples")
        clip = resample(clip, self.sample_rate, request.pitch)
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
