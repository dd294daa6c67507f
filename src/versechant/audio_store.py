"""Per-unit audio clips: a deterministic synthetic voice and a
directory of recorded clips.

A clip request names a unit's text, its weight, the frames its clip
fills and the pitch in semitones; ``ClipProvider`` states what clip a
provider hands back for it.  The synthetic voice sings the clip at
base_freq · 2^(pitch/12); a directory of recorded takes (files named
``<unit_text>_<l|g>.wav``) reads its take 2^(pitch/12) times faster in
one resampling pass, then fits the read to the slot, so a take goes
through the phase vocoder once at most.
Providers keep no clips: a render asks for each of its distinct
requests once, in one ``get_clips`` call, and keeps the clips it gets.
A directory of takes looks every take up before it reads any, so one
``ClipUnavailable`` names all that are missing; then it fits the takes
two at a time, on the calling thread and one helper thread, when the
process may use two CPUs.  numpy drops the GIL in the vocoder's FFTs
and array passes, so a render's takes, which do not depend on each
other, fit in parallel.  The synthetic voice's clips are too short to
pay for a thread, so it keeps the serial default.

The synthetic voice runs no trigonometry per frame.  ``_harmonics``
sums a vowel's harmonics, or a voiced consonant's fundamental, as one
small real matrix product of block-start phasors and in-block phasors,
and keeps no table.  The voice itself holds only its base frequency and
sample rate; ``synthesize`` builds one per render.

The one part clips share is the consonant burst: seeded, band-filtered
noise, mixed for the voiced letters (semivowels and nasals) with the
sine at the pitch sung.  ``_burst`` builds it once per (letter, frames,
frequency, rate), an unvoiced letter at frequency 0 for every pitch,
and keeps the BURSTS_KEPT most recently used, read-only, in one
``functools.lru_cache`` that every voice and thread of the process
shares; two threads may both build a burst, and they build it alike.
A burst is at most one 60 ms segment plus a frame per further consonant
of its cluster, so the cache holds at most about
BURSTS_KEPT × (0.06·rate + 3) × 8 bytes: 5.4 MB at 44.1 kHz, more at
higher rates.  A new beat length asks for new lengths, which only
replace older bursts.  Repeated renders of metred verses keep about
1.4 MB of bursts; an unmetred 16-line text, all at pitch 0, about
0.8 MB.
"""

from __future__ import annotations

import functools
import numbers
import os
import threading
import zlib
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
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

# frames per block of the harmonic sum's in-block phasors
_BLOCK = 256

# consonant bursts the process keeps, across voices and renders
BURSTS_KEPT = 256


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
    n_frames: int  # the clip's length at the engine rate
    pitch: int = 0  # semitones above the base note

    def __post_init__(self):
        n, pitch = self.n_frames, self.pitch
        if not (is_number(n, numbers.Integral) and n > 0):
            raise ValueError(f"n_frames must be a positive whole number, got {n!r}")
        if not (is_number(pitch) and PITCH_MIN <= pitch <= PITCH_MAX and pitch == int(pitch)):
            raise ValueError(
                f"pitch {pitch} is not a whole number in {PITCH_MIN}..{PITCH_MAX}"
            )


class ClipProvider(ABC):
    """Source of unit clips.  ``get_clip`` returns the unit sung at
    ``request.pitch``, exactly ``request.n_frames`` frames at the engine
    rate; the renderer decides that length from the beat grid.
    Each call builds or loads the clip anew; the renderer memoizes whole
    clips, so providers keep no clips.  The synthetic voices do share
    one cache of the consonant bursts their clips are built from, within
    the bound the module docstring states.

    ``get_clips`` is the batch a render makes: one clip per request,
    yielded in request order.  Its default is serial and lazy, one
    ``get_clip`` call per clip as the renderer takes it, so a provider
    that defines only ``get_clip`` is asked for the same clips, in the
    same order, and stops at the first clip the renderer refuses.
    ``ClipDirectory`` overrides it and may run ``get_clip`` on a helper
    thread."""

    @abstractmethod
    def get_clip(self, request: ClipRequest) -> AudioClip: ...

    def get_clips(self, requests: Iterable[ClipRequest]) -> Iterator[AudioClip]:
        return map(self.get_clip, requests)


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


def _harmonics(amps: np.ndarray, freq: float, n: int, rate: int) -> np.ndarray:
    """Σ_k amps[k-1] · sin(kθ_j) for frames j < n, θ_j = 2π · freq · j / rate.

    With j = b·_BLOCK + i, each term is the imaginary part of the block
    start's phasor e^{ikθ_{b·_BLOCK}} times the in-block one a_k e^{ikθ_i},
    so the sum is one real [blocks, 2K]·[2K, _BLOCK] product,
    Re s · Im w + Im s · Re w: no trigonometry per frame, no table kept.
    """
    k = np.arange(1, len(amps) + 1)
    step = 2j * np.pi * freq / rate
    starts = np.exp(step * _BLOCK * np.outer(np.arange(-(-n // _BLOCK)), k))
    inner = amps[:, None] * np.exp(step * np.outer(k, np.arange(min(n, _BLOCK))))
    x = np.hstack([starts.real, starts.imag]) @ np.vstack([inner.imag, inner.real])
    return x.ravel()[:n]


def _vowel_tone(nucleus: Letter, freq: float, n: int, rate: int) -> np.ndarray:
    """HARMONICS harmonics of freq, n frames, enveloped; the fundamental
    dominates, so the spectral peak sits at freq."""
    rng = np.random.default_rng(_seed(nucleus.text))
    amps = np.concatenate([[1.0], rng.uniform(0.08, 0.3, HARMONICS - 1)])
    return _envelope(_harmonics(amps, freq, n, rate), int(0.015 * rate), int(0.030 * rate))


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


@functools.lru_cache(maxsize=BURSTS_KEPT)
def _burst(letter: Letter, n: int, freq: float, rate: int) -> np.ndarray:
    """The letter's burst, n frames long and read-only: its noise, mixed
    half and half with the sine at freq, the fundamental a voiced letter
    carries.  An unvoiced letter is passed freq 0, so every pitch shares
    its burst."""
    x = _burst_noise(letter, n, rate)
    if freq:
        x = 0.5 * x + 0.5 * _harmonics(np.ones(1), freq, n, rate)
    burst = _envelope(0.45 * x, int(0.003 * rate), int(0.003 * rate))
    burst.setflags(write=False)
    return burst


def _consonant_run(letters, n: int, freq: float, rate: int) -> np.ndarray:
    """The letters' bursts, n frames in all: an equal share each, the
    remainder to the last."""
    each = n // len(letters)
    sizes = [each] * (len(letters) - 1) + [n - each * (len(letters) - 1)]
    return np.concatenate([
        _burst(letter, m, freq if _voiced(letter) else 0.0, rate)
        for letter, m in zip(letters, sizes)
    ])


class SyntheticVoice(ClipProvider):
    """Noise-burst consonants around a harmonic vowel, sung at
    base_freq · 2^(pitch/12) and deterministic for a given request.
    A voice holds only its two settings; the bursts its clips share sit
    in the module's cache, so threads may share a voice, or each build
    their own."""

    def __init__(
        self, base_freq: float = 220.0, sample_rate: int = DEFAULT_SAMPLE_RATE
    ):
        check_sample_rate(sample_rate)
        check_base_freq(base_freq, sample_rate)
        self.base_freq = base_freq
        self.sample_rate = sample_rate

    def get_clip(self, request: ClipRequest) -> AudioClip:
        rate, n = self.sample_rate, request.n_frames
        freq = self.base_freq * 2.0 ** (request.pitch / 12)
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
            parts.append(_consonant_run(pre, onset, freq, rate))
        parts.append(_vowel_tone(nucleus, freq, n - onset - coda, rate))
        if coda:
            parts.append(_consonant_run(post, coda, freq, rate))
        x = np.concatenate(parts)
        peak = np.max(np.abs(x)) if len(x) else 0.0
        if peak > 0:
            x *= 0.75 / peak
        return AudioClip(_to_int16(x), rate)


# ---------------------------------------------------------------------------
# Recorded clips

def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where the platform
    cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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

    ``get_clips`` looks up every request's take before it reads any WAV
    and raises one ``ClipUnavailable`` naming each missing file; then it
    fits the takes on the calling thread and one helper thread, each
    through ``get_clip``, and yields them in request order.  An error
    from a take is raised at that take's place in the order, as the
    serial path raises it, and the helper has stopped by then.  With one
    usable CPU, or one request, no helper starts: on one CPU a helper
    saves no time and still costs its own malloc arena, about 5 MB of
    peak memory on the benchmark's takes.
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

    def _take(self, request: ClipRequest) -> Path | None:
        return self._index.get((normalize(request.unit_text), request.weight))

    def get_clips(self, requests: Iterable[ClipRequest]) -> Iterator[AudioClip]:
        requests = list(requests)
        missing = [r for r in requests if self._take(r) is None]
        if missing:
            names = dict.fromkeys(f"{r.unit_text}_{r.weight.tag}.wav" for r in missing)
            raise ClipUnavailable(missing[0].unit_text, missing[0].weight.tag, tuple(names))
        if len(requests) < 2 or _usable_cpus() < 2:
            return map(self.get_clip, requests)
        return self._fit_two_at_a_time(requests)

    def _fit_two_at_a_time(self, requests: list[ClipRequest]) -> Iterator[AudioClip]:
        """Clips for the requests in order, fitted by this thread and one
        helper.  Each thread takes the first request neither has taken;
        this one takes requests while it waits for the next clip in
        order.  A failed take, or an early close, cancels the requests
        not yet taken, and the helper's running one is finished before
        this returns."""
        from concurrent.futures import Future  # imports logging: only when used

        futures = [Future() for _ in requests]
        untaken = zip(requests, futures)
        lock = threading.Lock()

        def cancel_untaken() -> None:
            with lock:
                for _, future in untaken:
                    future.cancel()

        def fit_next() -> bool:
            with lock:
                job = next(untaken, None)
            if job is None:
                return False
            request, future = job
            try:
                future.set_result(self.get_clip(request))
            except BaseException as exc:  # raised again where its clip is read
                future.set_exception(exc)
                cancel_untaken()
            return True

        def helper():
            while fit_next():
                pass

        thread = threading.Thread(target=helper, name="versechant-takes", daemon=True)
        thread.start()
        try:
            for future in futures:
                while not future.done() and fit_next():
                    pass
                yield future.result()
        finally:
            cancel_untaken()
            thread.join()

    def get_clip(self, request: ClipRequest) -> AudioClip:
        path = self._take(request)
        if path is None:
            raise ClipUnavailable(request.unit_text, request.weight.tag)
        clip = read_wav(path)
        if clip.n_frames == 0:
            raise BadWav(path, "clip holds no samples")
        clip = resample(clip, self.sample_rate, request.pitch)
        expected = request.n_frames
        got = clip.n_frames
        if got == expected:
            return clip
        if abs(got - expected) / expected >= 0.05:
            return stretch_to_length(clip, expected)
        if got > expected:
            return AudioClip(clip.samples[:expected], self.sample_rate)
        pad = np.zeros(expected - got, dtype=np.int16)
        return AudioClip(np.concatenate([clip.samples, pad]), self.sample_rate)
