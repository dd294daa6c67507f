"""Audio primitives: clips, concatenation, stretch, pitch shift, WAV I/O.

All audio is mono 16-bit PCM held as int16 numpy arrays.  Pitch
shifting preserves duration exactly: the clip is resampled by the
semitone ratio and then phase-vocoder stretched back to its original
frame count.  Time stretching preserves pitch.

The phase vocoder keeps each bin's phase as a unit phasor, X / |X|,
never as an angle.  An output frame's phasor is the previous one times
the bin's phase step between the two input frames it reads, and one
running product over time yields every frame at once, so stretching
needs no trigonometry, no phase unwrapping and no loop over frames.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadWav, SampleRateMismatch

DEFAULT_SAMPLE_RATE = 44100
CROSSFADE_SECONDS = 0.005
PITCH_MIN = -7
PITCH_MAX = 4

_MAX_NFFT = 2048


@dataclass(frozen=True, eq=False)
class AudioClip:
    """Mono 16-bit audio: an int16 sample array and its rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.samples.dtype != np.int16 or self.samples.ndim != 1:
            raise TypeError("samples must be a 1-D int16 array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def n_frames(self) -> int:
        return len(self.samples)

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate


def _to_float(samples: np.ndarray) -> np.ndarray:
    return samples.astype(np.float64) / 32768.0

def _to_int16(x: np.ndarray) -> np.ndarray:
    # one scratch buffer, quantized in place; x itself is never written
    y = np.multiply(x, 32768.0)
    np.rint(y, out=y)
    np.clip(y, -32768, 32767, out=y)
    return y.astype(np.int16)


def crossfade_frames(sample_rate: int) -> int:
    """Frame count of the standard 5 ms crossfade at this rate."""
    return int(round(CROSSFADE_SECONDS * sample_rate))


def beat_frames(beats: float, beat_seconds: float, sample_rate: int) -> int:
    """Frames in a span of ``beats`` beats: the one place a beat span
    becomes a frame count, for unit clips and rests alike."""
    return int(round(beats * beat_seconds * sample_rate))


def silence(beats: float, beat_seconds: float, sample_rate: int) -> AudioClip:
    n = beat_frames(beats, beat_seconds, sample_rate)
    return AudioClip(np.zeros(n, dtype=np.int16), sample_rate)


def concat(clips: list[AudioClip], crossfade: int = 0) -> AudioClip:
    """Join clips end to end.

    With ``crossfade`` > 0 each join overlaps that many frames with an
    equal-power fade, so every join shortens the result by exactly
    ``crossfade`` frames (less when a clip is shorter than the fade).
    All clips must share one sample rate.

    Runs in linear time over a single buffer: each clip is written once
    at a running offset and only the overlap frames of a join are faded
    in place, so a fade may re-fade frames an earlier join wrote.
    """
    if not clips:
        return AudioClip(np.zeros(0, dtype=np.int16), DEFAULT_SAMPLE_RATE)
    rates = {c.sample_rate for c in clips}
    if len(rates) > 1:
        raise SampleRateMismatch(sorted(rates))
    rate = clips[0].sample_rate
    if crossfade <= 0:
        return AudioClip(np.concatenate([c.samples for c in clips]), rate)

    buf = np.empty(sum(c.n_frames for c in clips))
    fades: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    end = 0  # frames merged so far
    for clip in clips:
        nxt = clip.samples
        xf = min(crossfade, end, len(nxt))
        if xf:
            if xf not in fades:
                t = (np.arange(xf) + 0.5) / xf
                fades[xf] = (np.cos(t * np.pi / 2), np.sin(t * np.pi / 2))
            fade_out, fade_in = fades[xf]
            tail = buf[end - xf : end]
            tail *= fade_out
            tail += (nxt[:xf] / 32768.0) * fade_in
        np.divide(nxt[xf:], 32768.0, out=buf[end : end + len(nxt) - xf])
        end += len(nxt) - xf
    merged = buf[:end]
    np.multiply(merged, 32768.0, out=merged)
    np.rint(merged, out=merged)
    np.clip(merged, -32768, 32767, out=merged)
    return AudioClip(merged.astype(np.int16), rate)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resample to a new sample rate."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if clip.n_frames == 0:
        return AudioClip(clip.samples, target_rate)
    if target_rate == clip.sample_rate:
        return clip
    x = _to_float(clip.samples)
    m = max(1, int(round(len(x) * target_rate / clip.sample_rate)))
    y = _interpolate(x, m, clip.sample_rate / target_rate)
    return AudioClip(_to_int16(y), target_rate)


def _interpolate(x: np.ndarray, m: int, step: float) -> np.ndarray:
    """m samples of x read every ``step`` input frames by linear
    interpolation; reads past the last frame take the last frame."""
    n = len(x)
    return np.interp(np.minimum(np.arange(m) * step, n - 1), np.arange(n), x)


# ---------------------------------------------------------------------------
# Phase-vocoder stretching

def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _stft(x: np.ndarray, n_fft: int, hop: int, window: np.ndarray) -> np.ndarray:
    frames = sliding_window_view(np.pad(x, n_fft // 2), n_fft)[::hop]
    return np.fft.rfft(frames * window, axis=1)  # [frames, bins]


def _istft(spec: np.ndarray, n_fft: int, hop: int, window: np.ndarray) -> np.ndarray:
    """Overlap-add the inverse frames of ``spec`` [frames, bins]: with
    hop = n_fft / 4, four block adds, one per frame quarter, cover every
    frame.  Quarters go in last-first, as a loop over frames adds them."""
    n_frames = spec.shape[0]
    quarters = n_fft // hop
    frames = np.fft.irfft(spec, n=n_fft, axis=1)
    frames *= window
    frames = frames.reshape(n_frames, quarters, hop)
    wsq = (window * window).reshape(quarters, hop)
    y = np.zeros((n_frames - 1 + quarters, hop))
    wsum = np.zeros_like(y)
    for q in reversed(range(quarters)):
        y[q : q + n_frames] += frames[:, q]
        wsum[q : q + n_frames] += wsq[q]
    y /= np.maximum(wsum, 1e-8, out=wsum)
    return y.reshape(-1)[n_fft // 2 :]  # undo the center padding


def _stretch_signal(x: np.ndarray, n_out: int) -> np.ndarray:
    """Stretch float signal x to exactly n_out samples, keeping pitch.

    Output frame t reads input position steps[t] = i + frac.  Its
    magnitude is interpolated between input frames i and i + 1.  Its
    phasor is output frame t - 1's times the phase step between the two
    input frames that frame t - 1 read; frame 0 takes input frame 0's.
    """
    n_in = len(x)
    if n_out == n_in:
        return x.copy()
    if n_out == 0:
        return np.zeros(0)
    if n_in == 0:
        return np.zeros(n_out)
    if n_in < 64:
        # too short to frame; plain resample is inaudible at these sizes
        return np.interp(np.linspace(0.0, n_in - 1.0, n_out), np.arange(n_in), x)

    n_fft = min(_MAX_NFFT, 1 << (n_in.bit_length() - 1))
    hop = n_fft // 4
    window = _periodic_hann(n_fft)
    spec = _stft(x, n_fft, hop, window)
    t_in = spec.shape[0]

    t_out = max(2, int(round(n_out / hop)) + 1)
    steps = np.linspace(0.0, t_in - 1.0, t_out)
    i = steps.astype(np.intp)
    frac = (steps - i)[:, None]
    # only the last step reaches the last frame, and with frac 0
    i_next = np.minimum(i + 1, t_in - 1)

    mags = np.abs(spec)
    silent = mags == 0
    phasors = np.divide(spec, mags, out=spec, where=~silent)
    phasors[silent] = 1  # phase 0, as np.angle(0) gives
    step = phasors[:-1].conj()
    step *= phasors[1:]  # step[i]: phase step from input frame i to i + 1

    out = np.empty((t_out, spec.shape[1]), dtype=complex)
    out[0] = phasors[0]
    # mode="clip" lets take write straight into out (i stays in range)
    np.take(step, i[:-1], axis=0, out=out[1:], mode="clip")
    np.multiply.accumulate(out, axis=0, out=out)
    mag = mags[i]
    mag *= 1.0 - frac
    mag += frac * mags[i_next]
    out *= mag

    y = _istft(out, n_fft, hop, window)
    if len(y) < n_out:
        y = np.pad(y, (0, n_out - len(y)))
    return y[:n_out]


def stretch_to_length(clip: AudioClip, n_frames: int) -> AudioClip:
    """Phase-vocoder stretch to an exact frame count."""
    if n_frames < 0:
        raise ValueError("n_frames must be >= 0")
    if n_frames == clip.n_frames:
        return clip
    y = _stretch_signal(_to_float(clip.samples), n_frames)
    return AudioClip(_to_int16(y), clip.sample_rate)


def pitch_shift(clip: AudioClip, semitones: int) -> AudioClip:
    """Shift pitch by whole semitones, keeping the frame count.

    A shift of 0 returns the clip unchanged, bit for bit.
    """
    if semitones != int(semitones):
        raise ValueError("semitones must be an integer")
    semitones = int(semitones)
    if not PITCH_MIN <= semitones <= PITCH_MAX:
        raise ValueError(f"semitone shift {semitones} outside {PITCH_MIN}..{PITCH_MAX}")
    if semitones == 0 or clip.n_frames == 0:
        return clip
    ratio = 2.0 ** (semitones / 12.0)
    n = clip.n_frames
    m = max(1, int(round(n / ratio)))
    y = _stretch_signal(_interpolate(_to_float(clip.samples), m, ratio), n)
    return AudioClip(_to_int16(y), clip.sample_rate)


# ---------------------------------------------------------------------------
# WAV I/O (RIFF, PCM, mono, 16-bit)

def write_wav(clip: AudioClip, path: str | Path) -> None:
    # open the file first, so a failed open leaves no half-built writer
    with open(path, "wb") as f, wave.open(f, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(clip.sample_rate)
        w.writeframes(np.ascontiguousarray(clip.samples, dtype="<i2"))


def read_wav(path: str | Path) -> AudioClip:
    """Read a mono 16-bit PCM WAV file; anything else raises BadWav."""
    try:
        with wave.open(str(path), "rb") as w:
            channels = w.getnchannels()
            width = w.getsampwidth()
            comp = w.getcomptype()
            rate = w.getframerate()
            data = w.readframes(w.getnframes())
    except (wave.Error, EOFError) as exc:
        raise BadWav(path, str(exc)) from None
    if comp != "NONE":
        raise BadWav(path, f"compressed WAV ({comp}) not supported")
    if channels != 1:
        raise BadWav(path, f"need mono, file has {channels} channels")
    if width != 2:
        raise BadWav(path, f"need 16-bit samples, file has {8 * width}-bit")
    samples = np.frombuffer(data, dtype="<i2").astype(np.int16)
    return AudioClip(samples, rate)
