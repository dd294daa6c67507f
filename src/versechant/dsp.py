"""Audio primitives: clips, concatenation, resampling, stretch, pitch
shift, WAV I/O.

All audio is mono 16-bit PCM held as int16 numpy arrays.  Resampling
can also raise or lower the pitch: read at 2^(s/12) times the rate's
step, a clip sounds s semitones higher and runs 2^(s/12) times shorter.
A read that steps over more than one input frame per output frame is
low-passed first, so nothing above the output's Nyquist folds back.
Pitch shifting preserves duration exactly: the clip is resampled by the
semitone ratio and then phase-vocoder stretched back to its original
frame count.  Time stretching preserves pitch.

Joins stay in int16: ``concat`` copies each clip's samples into one
int16 buffer and computes in float only over the crossfade overlaps,
so its peak is the output itself plus a few overlaps.

The phase vocoder keeps each bin's phase as a unit phasor, X / |X|,
never as an angle.  An output frame's phasor is the previous one times
the bin's phase step between the two input frames it reads, and one
running product over time yields a block of frames at once, so
stretching needs no trigonometry, no phase unwrapping and no loop over
single frames.  It works on blocks of ``_BLOCK_FRAMES`` (16) output
frames, about 260 KB per complex [block, bins] array at 2048-point
FFTs, so its working set does not grow with the take.  It frames the
input in place; only a block that reaches past either end copies its
own span with the zeros around it.  Stretching a take 10% long, its
peak grows by about 17 bytes per output frame: the float input and the
float output (tests hold it to 24).
"""

from __future__ import annotations

import math
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
# the most frames a 16-bit mono WAV's 32-bit data size can hold
WAV_MAX_FRAMES = 2**31 - 1

_MAX_NFFT = 2048
# output frames the phase vocoder works on at once: with 1025 bins, about
# 260 KB per complex [block, bins] array
_BLOCK_FRAMES = 16


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


def silence(n_frames: int, sample_rate: int) -> AudioClip:
    """``n_frames`` frames of zeros."""
    return AudioClip(np.zeros(n_frames, dtype=np.int16), sample_rate)


def concat(clips: list[AudioClip], crossfade: int = 0) -> AudioClip:
    """Join clips end to end.

    With ``crossfade`` > 0 each join overlaps that many frames with an
    equal-power fade: the last ``crossfade`` frames of one clip fade
    out under the first ``crossfade`` frames of the next, so every join
    shortens the result by exactly ``crossfade`` frames.  No frame is
    faded twice: a clip other than the last shorter than two
    crossfades, or a last clip shorter than one, raises ``ValueError``.
    All clips must share one sample rate.

    Runs in linear time over one int16 buffer of exactly the joined
    length: each clip's samples are copied into it once, and only a
    join's overlap frames are computed in float and quantized.  A frame
    outside every overlap is its own sample.
    """
    if not clips:
        return AudioClip(np.zeros(0, dtype=np.int16), DEFAULT_SAMPLE_RATE)
    rates = {c.sample_rate for c in clips}
    if len(rates) > 1:
        raise SampleRateMismatch(sorted(rates))
    rate = clips[0].sample_rate
    if crossfade <= 0:
        return AudioClip(np.concatenate([c.samples for c in clips]), rate)
    lengths = [c.n_frames for c in clips]
    if min(lengths[:-1], default=2 * crossfade) < 2 * crossfade or lengths[-1] < crossfade:
        raise ValueError(f"a clip is too short for its {crossfade}-frame crossfades")

    out = np.empty(sum(lengths) - crossfade * (len(clips) - 1), dtype=np.int16)
    t = (np.arange(crossfade) + 0.5) / crossfade
    fade_out, fade_in = np.cos(t * np.pi / 2), np.sin(t * np.pi / 2)
    out[: lengths[0]] = clips[0].samples
    end = lengths[0]  # frames merged so far
    for clip in clips[1:]:
        nxt = clip.samples
        # the previous clip's tail, untouched by any fade yet
        lap = out[end - crossfade : end] / 32768.0 * fade_out
        lap += (nxt[:crossfade] / 32768.0) * fade_in
        out[end - crossfade : end] = _to_int16(lap)
        out[end : end + len(nxt) - crossfade] = nxt[crossfade:]
        end += len(nxt) - crossfade
    return AudioClip(out, rate)


def resample(clip: AudioClip, target_rate: int, semitones: float = 0) -> AudioClip:
    """Linear-interpolation resample to a new sample rate, sung
    ``semitones`` higher.

    Output frame k reads input frame k · step, step = clip rate ·
    2^(s/12) / target_rate, so the clip keeps its pitch at 0 semitones
    and rises by s otherwise, with round(n / step) frames.  When
    step > 1 the clip is first low-passed below target_rate / 2 as the
    output will hear it (``_low_pass``), so no frequency folds back.  At
    0 semitones and the clip's own rate the clip comes back unchanged.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == clip.sample_rate and not semitones:
        return clip
    if clip.n_frames == 0:
        return AudioClip(clip.samples, target_rate)
    x = _to_float(clip.samples)
    read_rate = clip.sample_rate * 2.0 ** (semitones / 12)
    step = read_rate / target_rate
    if step > 1:
        x = _low_pass(x, 0.5 / step)
    m = max(1, int(round(len(x) * target_rate / read_rate)))
    y = _interpolate(x, m, step)
    return AudioClip(_to_int16(y), target_rate)


def _low_pass(x: np.ndarray, cutoff: float) -> np.ndarray:
    """x without its frequencies at or above ``cutoff`` cycles per frame:
    the DFT bins from cutoff · len(x) up are zeroed."""
    spec = np.fft.rfft(x)
    spec[math.ceil(cutoff * len(x)) :] = 0
    return np.fft.irfft(spec, len(x))


def _interpolate(x: np.ndarray, m: int, step: float) -> np.ndarray:
    """m samples of x read every ``step`` input frames by linear
    interpolation; reads past the last frame take the last frame."""
    n = len(x)
    return np.interp(np.minimum(np.arange(m) * step, n - 1), np.arange(n), x)


# ---------------------------------------------------------------------------
# Phase-vocoder stretching

def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _window_sums(window: np.ndarray, hop: int, n_frames: int) -> np.ndarray:
    """Squared-window sums [n_frames - 1 + quarters, hop] that the
    overlap-add of n_frames frames divides by, floored at 1e-8."""
    quarters = len(window) // hop
    wsq = (window * window).reshape(quarters, hop)
    wsum = np.zeros((n_frames - 1 + quarters, hop))
    for q in reversed(range(quarters)):
        wsum[q : q + n_frames] += wsq[q]
    return np.maximum(wsum, 1e-8, out=wsum)


def _frames(x: np.ndarray, first: int, count: int, n_fft: int) -> np.ndarray:
    """Frames first .. first + count - 1 of x, n_fft long at a hop of
    n_fft // 4, frame j centred on x[j · hop] with zeros past either end
    of x: the frames of x padded by n_fft // 2 zeros a side.  They are
    views into x, unless they reach past an end; then only their own
    span is copied, with its zeros."""
    hop = n_fft // 4
    lo = first * hop - n_fft // 2
    hi = lo + (count - 1) * hop + n_fft
    span = x[max(lo, 0) : hi]
    if lo < 0 or hi > len(x):
        span = np.pad(span, (max(-lo, 0), max(hi - len(x), 0)))
    return sliding_window_view(span, n_fft)[::hop]


def _stretch_signal(x: np.ndarray, n_out: int) -> np.ndarray:
    """Stretch float signal x to exactly n_out samples, keeping pitch.

    Output frame t reads input position steps[t] = i + frac.  Its
    magnitude is interpolated between input frames i and i + 1.  Its
    phasor is output frame t - 1's times the phase step between the two
    input frames that frame t - 1 read; frame 0 takes input frame 0's.

    Output frames go through in blocks of ``_BLOCK_FRAMES``: each block
    transforms every input frame it reads (again the at most two the
    previous block read too), accumulates its phasors from the previous
    block's last one, the only value that crosses blocks, and then
    overlap-adds its inverse frames into the output in frame order.  So
    the working set is a few [block, bins] arrays whatever the input's
    length; what grows with it is the input and the float output.
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
    quarters = n_fft // hop
    window = _periodic_hann(n_fft)
    t_in = n_in // hop + 1  # frames of x centre-padded by n_fft // 2

    t_out = max(2, int(round(n_out / hop)) + 1)
    steps = np.linspace(0.0, t_in - 1.0, t_out)
    i = steps.astype(np.intp)
    frac = (steps - i)[:, None]
    # only the last step reaches the last frame, and with frac 0
    i_next = np.minimum(i + 1, t_in - 1)

    # row j of y sums quarter q (hop frames) of output frame j - q, q < 4;
    # quarters go in last-first, so a row takes its frames in order,
    # block after block, as one loop over all frames would add them
    y = np.zeros((t_out - 1 + quarters, hop))
    t0 = 0
    while t0 < t_out:
        # a lone last frame joins the block before it: numpy accumulates
        # two rows with another multiply loop, one that can round the
        # last bit differently
        t1 = t_out if t_out - t0 <= _BLOCK_FRAMES + 1 else t0 + _BLOCK_FRAMES
        s0 = max(t0 - 1, 0)  # the frame whose phasor the block starts from
        # rows for input frames lo .. i_next[t1 - 1], all the block reads
        lo = i[s0]
        frames = _frames(x, lo, i_next[t1 - 1] + 1 - lo, n_fft)
        spec = np.fft.rfft(frames * window, axis=1)
        mags = np.abs(spec)
        silent = mags == 0
        phasors = np.divide(spec, mags, out=spec, where=~silent)
        phasors[silent] = 1  # phase 0, as np.angle(0) gives
        step = phasors[:-1].conj()
        step *= phasors[1:]  # step[k]: phase step from input frame lo + k on

        # rows for output frames s0 .. t1 - 1; row 0 is the running phasor,
        # so one accumulate continues the previous block's bit for bit
        out = np.empty((t1 - s0, mags.shape[1]), dtype=complex)
        out[0] = phasor if t0 else phasors[0]
        # mode="clip" lets take write straight into out (i stays in range)
        np.take(step, i[s0 : t1 - 1] - lo, axis=0, out=out[1:], mode="clip")
        np.multiply.accumulate(out, axis=0, out=out)
        phasor = out[-1].copy()
        out = out[t0 - s0 :]
        mag = mags[i[t0:t1] - lo]
        mag *= 1.0 - frac[t0:t1]
        mag += frac[t0:t1] * mags[i_next[t0:t1] - lo]
        out *= mag

        block = np.fft.irfft(out, n=n_fft, axis=1)
        block *= window
        block = block.reshape(t1 - t0, quarters, hop)
        for q in reversed(range(quarters)):
            y[t0 + q : t1 + q] += block[:, q]
        t0 = t1

    # every row from quarters - 1 up to t_out holds all four quarters, so
    # shares one sum; a sum table of a few frames gives the edge rows
    n_sum = min(t_out, 2 * quarters - 1)
    wsum = _window_sums(window, hop, n_sum)
    head = min(quarters - 1, t_out)
    y[:head] /= wsum[:head]
    y[head:t_out] /= wsum[head]
    y[t_out:] /= wsum[n_sum:]
    # undo the center padding; the rows reach past n_out by at least a hop
    return y.reshape(-1)[n_fft // 2 : n_fft // 2 + n_out]


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
    # a bool is an int to Python, but True is no one-semitone shift
    if isinstance(semitones, bool) or semitones != int(semitones):
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
    """Read a mono 16-bit PCM WAV file; anything else, a 0 Hz rate or
    data shorter than its header says raises BadWav.  ``wave`` reads
    only PCM, so a compressed format fails as it opens."""
    try:
        with wave.open(str(path), "rb") as w:
            channels = w.getnchannels()
            width = w.getsampwidth()
            rate = w.getframerate()
            frames = w.getnframes()
            data = w.readframes(frames)
    except (wave.Error, EOFError) as exc:
        raise BadWav(path, str(exc)) from None
    if channels != 1:
        raise BadWav(path, f"need mono, file has {channels} channels")
    if width != 2:
        raise BadWav(path, f"need 16-bit samples, file has {8 * width}-bit")
    if rate == 0:
        raise BadWav(path, "header gives a sample rate of 0 Hz")
    if len(data) != 2 * frames:
        raise BadWav(path, f"data cut short: {len(data)} of {2 * frames} bytes")
    samples = np.frombuffer(data, dtype="<i2").astype(np.int16)
    return AudioClip(samples, rate)
