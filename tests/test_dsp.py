from __future__ import annotations

import struct
import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from versechant.dsp import (
    _BLOCK_FRAMES,
    PITCH_MAX,
    PITCH_MIN,
    AudioClip,
    _stretch_signal,
    concat,
    crossfade_frames,
    pitch_shift,
    read_wav,
    resample,
    silence,
    stretch_to_length,
    write_wav,
)
from versechant.audio_store import SyntheticVoice
from versechant.errors import BadWav, SampleRateMismatch
from versechant.prosody import Weight
from versechant.synthesis import beat_frames

from conftest import beat_request, fft_peak_hz, mono16_wav, reference_concat, sine_clip


def reference_stretch(x: np.ndarray, n_out: int) -> np.ndarray:
    """The loop-based phase vocoder stretch_to_length once ran: phases as
    angles, advanced and 2-pi wrapped frame by frame, then overlap-added
    frame by frame.  Kept as the oracle; takes and returns floats."""
    n_in = len(x)
    if n_out == n_in:
        return x.copy()
    if n_out == 0:
        return np.zeros(0)
    if n_in == 0:
        return np.zeros(n_out)
    if n_in < 64:
        return np.interp(np.linspace(0.0, n_in - 1.0, n_out), np.arange(n_in), x)

    n_fft = min(2048, 1 << (n_in.bit_length() - 1))
    hop = n_fft // 4
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    xp = np.pad(x, n_fft // 2)
    t_in = 1 + (len(xp) - n_fft) // hop
    idx = np.arange(n_fft)[None, :] + hop * np.arange(t_in)[:, None]
    spec = np.fft.rfft(xp[idx] * window, axis=1).T  # [bins, frames]
    n_bins = spec.shape[0]

    t_out = max(2, int(round(n_out / hop)) + 1)
    steps = np.linspace(0.0, t_in - 1.0, t_out)
    spec = np.concatenate([spec, spec[:, -1:]], axis=1)
    mags = np.abs(spec)
    phases = np.angle(spec)
    phi_advance = 2.0 * np.pi * hop * np.arange(n_bins) / n_fft
    out = np.empty((n_bins, t_out), dtype=complex)
    phase_acc = phases[:, 0].copy()
    for t, step in enumerate(steps):
        i = int(step)
        frac = step - i
        mag = (1.0 - frac) * mags[:, i] + frac * mags[:, i + 1]
        out[:, t] = mag * np.exp(1j * phase_acc)
        dphi = phases[:, i + 1] - phases[:, i] - phi_advance
        dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
        phase_acc += phi_advance + dphi

    y = np.zeros((t_out - 1) * hop + n_fft)
    wsum = np.zeros_like(y)
    frames = np.fft.irfft(out.T, n=n_fft, axis=1) * window
    for t in range(t_out):
        y[t * hop : t * hop + n_fft] += frames[t]
        wsum[t * hop : t * hop + n_fft] += window * window
    y = (y / np.maximum(wsum, 1e-8))[n_fft // 2 :]
    if len(y) < n_out:
        y = np.pad(y, (0, n_out - len(y)))
    return y[:n_out]


def whole_stretch(x: np.ndarray, n_out: int) -> np.ndarray:
    """The phasor vocoder _stretch_signal ran before it went through
    blocks of output frames: every input frame transformed at once, one
    accumulate over every output frame, one overlap-add of them all.
    Kept as the oracle for the block edges; takes and returns floats."""
    n_in = len(x)
    if n_out == n_in:
        return x.copy()
    if n_out == 0:
        return np.zeros(0)
    if n_in == 0:
        return np.zeros(n_out)
    if n_in < 64:
        return np.interp(np.linspace(0.0, n_in - 1.0, n_out), np.arange(n_in), x)

    n_fft = min(2048, 1 << (n_in.bit_length() - 1))
    hop = n_fft // 4
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    frames = sliding_window_view(np.pad(x, n_fft // 2), n_fft)[::hop]
    spec = np.fft.rfft(frames * window, axis=1)  # [frames, bins]
    t_in = spec.shape[0]

    t_out = max(2, int(round(n_out / hop)) + 1)
    steps = np.linspace(0.0, t_in - 1.0, t_out)
    i = steps.astype(np.intp)
    frac = (steps - i)[:, None]
    i_next = np.minimum(i + 1, t_in - 1)

    mags = np.abs(spec)
    silent = mags == 0
    phasors = np.divide(spec, mags, out=spec, where=~silent)
    phasors[silent] = 1
    step = phasors[:-1].conj()
    step *= phasors[1:]
    out = np.empty((t_out, spec.shape[1]), dtype=complex)
    out[0] = phasors[0]
    np.take(step, i[:-1], axis=0, out=out[1:], mode="clip")
    np.multiply.accumulate(out, axis=0, out=out)
    mag = mags[i]
    mag *= 1.0 - frac
    mag += frac * mags[i_next]
    out *= mag

    quarters = n_fft // hop
    frames = np.fft.irfft(out, n=n_fft, axis=1)
    frames *= window
    frames = frames.reshape(t_out, quarters, hop)
    wsq = (window * window).reshape(quarters, hop)
    y = np.zeros((t_out - 1 + quarters, hop))
    wsum = np.zeros_like(y)
    for q in reversed(range(quarters)):
        y[q : q + t_out] += frames[:, q]
        wsum[q : q + t_out] += wsq[q]
    y /= np.maximum(wsum, 1e-8, out=wsum)
    y = y.reshape(-1)[n_fft // 2 :]
    if len(y) < n_out:
        y = np.pad(y, (0, n_out - len(y)))
    return y[:n_out]


def reference_pitch_shift(
    samples: np.ndarray, semitones: int, stretch=reference_stretch
) -> np.ndarray:
    """pitch_shift's resampling step in front of ``stretch``."""
    if not len(samples):
        return np.zeros(0)
    ratio = 2.0 ** (semitones / 12.0)
    x = samples / 32768.0
    n = len(x)
    pos = np.minimum(np.arange(max(1, round(n / ratio))) * ratio, n - 1)
    return stretch(np.interp(pos, np.arange(n), x), n)


def quantize(y: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(y * 32768.0), -32768, 32767).astype(np.int16)


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, numpy's buffers included, as
    tracemalloc sees them."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_silence_frame_count():
    # three half-second beats at 44.1 kHz, one quarter-second beat at 8 kHz
    clip = silence(beat_frames(3, 0.5, 44100), 44100)
    assert clip.n_frames == 66150
    assert not clip.samples.any()
    assert silence(beat_frames(1, 0.25, 8000), 8000).n_frames == 2000


def test_clip_validation():
    with pytest.raises(TypeError):
        AudioClip(np.zeros(4, dtype=np.float64), 44100)
    with pytest.raises(ValueError):
        AudioClip(np.zeros(4, dtype=np.int16), 0)


def test_concat_plain():
    a = sine_clip(440, 0.1)
    b = sine_clip(220, 0.2)
    joined = concat([a, b])
    assert joined.n_frames == a.n_frames + b.n_frames
    assert np.array_equal(joined.samples[: a.n_frames], a.samples)
    assert np.array_equal(joined.samples[a.n_frames :], b.samples)


def test_concat_empty_list():
    clip = concat([])
    assert clip.n_frames == 0


def test_concat_rate_mismatch():
    with pytest.raises(SampleRateMismatch):
        concat([sine_clip(440, 0.1, rate=44100), sine_clip(440, 0.1, rate=22050)])


def test_concat_crossfade_consumes_per_join():
    clips = [sine_clip(440, 0.1), sine_clip(330, 0.1), sine_clip(220, 0.1)]
    xf = 150
    joined = concat(clips, crossfade=xf)
    assert joined.n_frames == sum(c.n_frames for c in clips) - 2 * xf


def test_concat_crossfade_short_clip():
    # a fade never reaches back across a clip into an earlier fade: each
    # clip but the last needs two crossfades of frames, the last one
    a = sine_clip(440, 0.1)

    def cut(n):
        return AudioClip(a.samples[:n], 44100)

    assert concat([a, cut(300), cut(150)], crossfade=150).n_frames == 4410 + 150
    for clips in ([a, cut(299), a], [a, cut(149)], [cut(299), a], [cut(149)]):
        with pytest.raises(ValueError, match="too short for its 150-frame crossfades"):
            concat(clips, crossfade=150)


def test_crossfade_is_smooth():
    # equal-power fade between identical sines should not dip to zero
    a = sine_clip(440, 0.2)
    joined = concat([a, a], crossfade=220)
    mid = joined.samples[a.n_frames - 220 : a.n_frames]
    assert np.max(np.abs(mid)) > 8000


_samples = st.one_of(st.sampled_from([-32768, -32767, 0, 32767]), st.integers(-32768, 32767))


@st.composite
def _joinable(draw):
    """A crossfade and clips concat accepts for it: each clip but the
    last at least two crossfades long, the last at least one."""
    xf = draw(st.integers(0, 300))
    n = draw(st.integers(1, 12))
    lows = [2 * xf] * (n - 1) + [xf]
    clips = [
        AudioClip(draw(arrays(np.int16, st.integers(low, low + 600), elements=_samples)), 44100)
        for low in lows
    ]
    return clips, xf


@settings(max_examples=150, deadline=None)
@given(joinable=_joinable())
def test_concat_matches_reference(joinable):
    clips, crossfade = joinable
    joined = concat(clips, crossfade=crossfade)
    assert joined.sample_rate == 44100
    assert np.array_equal(joined.samples, reference_concat(clips, crossfade))
    want = sum(c.n_frames for c in clips) - crossfade * (len(clips) - 1)
    assert joined.n_frames == want


def long_flat_pieces() -> list[AudioClip]:
    """300 half-second pieces, as one long unmetred render joins."""
    rng = np.random.default_rng(7)
    return [
        AudioClip(
            (rng.uniform(-0.9, 0.9) * 32767 * np.sin(np.arange(22050) * f)).astype(np.int16),
            44100,
        )
        if k % 5
        else silence(22050, 44100)
        for k, f in enumerate(rng.uniform(0.01, 0.2, 300))
    ]


def test_concat_matches_reference_at_long_flat_scale():
    clips = long_flat_pieces()
    joined = concat(clips, crossfade=220)
    assert joined.n_frames == 300 * 22050 - 299 * 220
    assert np.array_equal(joined.samples, reference_concat(clips, 220))


def test_concat_peak_memory_is_the_int16_output():
    # the join is int16; float is used only over each overlap
    clips = long_flat_pieces()
    out_bytes = 2 * (300 * 22050 - 299 * 220)
    assert traced_peak(lambda: concat(clips, crossfade=220)) <= 1.1 * out_bytes + 2**20


def test_crossfade_frames_default():
    assert crossfade_frames(44100) == 220
    assert crossfade_frames(22050) == 110


def test_resample_halves_frames():
    clip = sine_clip(440, 1.0, rate=44100)
    down = resample(clip, 22050)
    assert down.sample_rate == 22050
    assert abs(down.n_frames - 22050) <= 1
    assert abs(fft_peak_hz(down.samples, 22050) - 440) < 4.4


_RATES = st.sampled_from([8000, 16000, 22050, 44100, 48000])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 3000),
    rate=_RATES,
    target=_RATES,
    semitones=st.integers(PITCH_MIN, PITCH_MAX),
    seed=st.integers(0, 2**32 - 1),
)
def test_resample_laws(n, rate, target, semitones, seed):
    samples = np.random.default_rng(seed).integers(-32768, 32768, n).astype(np.int16)
    clip = AudioClip(samples, rate)
    assert resample(clip, rate, 0) is clip
    out = resample(clip, target, semitones)
    assert out.sample_rate == target
    if n == 0:
        assert out.n_frames == 0
        return
    read_rate = rate * 2.0 ** (semitones / 12)
    m = max(1, round(n * target / read_rate))
    assert out.n_frames == m
    step = read_rate / target
    if step <= 1:
        # no low-pass: the plain interpolated read, quantized
        y = np.interp(np.minimum(np.arange(m) * step, n - 1), np.arange(n), samples / 32768.0)
        want = np.clip(np.rint(y * 32768.0), -32768, 32767).astype(np.int16)
        np.testing.assert_array_equal(out.samples, want)


def test_pitch_shift_zero_is_identity():
    clip = sine_clip(440, 0.5)
    assert pitch_shift(clip, 0) is clip


def test_pitch_shift_rejects_out_of_range():
    clip = sine_clip(440, 0.1)
    for bad in (-8, 5, 12, True):
        with pytest.raises(ValueError):
            pitch_shift(clip, bad)
    with pytest.raises(ValueError):
        pitch_shift(clip, 1.5)


def test_pitch_shift_law_each_semitone():
    clip = sine_clip(440, 1.0)
    for s in range(-7, 5):
        shifted = pitch_shift(clip, s)
        assert shifted.n_frames == clip.n_frames
        want = 440.0 * 2.0 ** (s / 12.0)
        got = fft_peak_hz(shifted.samples, shifted.sample_rate)
        assert abs(got - want) / want < 0.01


def test_pitch_shift_round_trip_duration():
    # both legs must sit inside the legal -7..4 range, so |s| <= 4
    clip = sine_clip(440, 0.8)
    for s in (-4, -2, 3, 4):
        back = pitch_shift(pitch_shift(clip, s), -s)
        assert abs(back.n_frames - clip.n_frames) <= 2
        got = fft_peak_hz(back.samples, back.sample_rate)
        assert abs(got - 440.0) / 440.0 < 0.02


def test_time_stretch_doubles_and_halves():
    clip = sine_clip(440, 1.0)
    double = stretch_to_length(clip, round(clip.n_frames * 2.0))
    assert abs(double.n_frames - 2 * clip.n_frames) <= 1
    assert abs(fft_peak_hz(double.samples, 44100) - 440) / 440 < 0.01
    half = stretch_to_length(clip, round(clip.n_frames * 0.5))
    assert abs(half.n_frames - clip.n_frames // 2) <= 1
    assert abs(fft_peak_hz(half.samples, 44100) - 440) / 440 < 0.01


def test_stretch_to_exact_length():
    clip = sine_clip(300, 0.37)
    for target in (12345, 33333, clip.n_frames):
        out = stretch_to_length(clip, target)
        assert out.n_frames == target
    assert stretch_to_length(clip, clip.n_frames) is clip


def test_stretch_tiny_input():
    tiny = AudioClip(np.arange(10, dtype=np.int16), 44100)
    assert stretch_to_length(tiny, 25).n_frames == 25
    empty = AudioClip(np.zeros(0, dtype=np.int16), 44100)
    assert stretch_to_length(empty, 100).n_frames == 100


def _signal(n: int, kind: str, seed: int) -> AudioClip:
    """n frames of noise or a tone mix; "lead-in" starts with silence, so
    its first frames hold zero-magnitude bins."""
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        return AudioClip(np.zeros(n, dtype=np.int16), 44100)
    t = np.arange(n)
    x = sum(rng.uniform(0.1, 0.3) * np.sin(rng.uniform(0.001, 3.0) * t) for _ in range(3))
    x += rng.uniform(0.0, 0.2) * rng.standard_normal(n)
    if kind == "lead-in":
        x[: int(n * rng.uniform(0.1, 0.9))] = 0.0
    return AudioClip(quantize(x), 44100)


# n_fft is the largest power of two up to n (at most 2048), so the first
# range covers the smaller FFT sizes and the plain resample under 64
_signals = st.builds(
    _signal,
    n=st.one_of(st.integers(0, 4095), st.integers(4096, 50_000)),
    kind=st.sampled_from(["mix", "lead-in", "zeros"]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(
    clip=_signals,
    factor=st.floats(0.0, 2.5),
    semitones=st.sampled_from([s for s in range(PITCH_MIN, PITCH_MAX + 1) if s]),
)
def test_stretch_and_pitch_match_reference(clip, factor, semitones):
    # the vocoder now carries phase as unit phasors; rounding may move a
    # sample by one step of int16 at most
    n_out = round(clip.n_frames * factor)
    got = stretch_to_length(clip, n_out).samples
    want = quantize(reference_stretch(clip.samples / 32768.0, n_out))
    assert len(got) == n_out
    assert np.max(np.abs(got.astype(int) - want), initial=0) <= 1
    got = pitch_shift(clip, semitones).samples
    want = quantize(reference_pitch_shift(clip.samples, semitones))
    assert len(got) == clip.n_frames
    assert np.max(np.abs(got.astype(int) - want), initial=0) <= 1


def test_stretch_peak_memory_grows_by_at_most_24_bytes_a_frame():
    # the vocoder's working set is a few [block, bins] arrays; what grows
    # with the take is its float copy, the float output and the quantized
    # one: a 4 s and a 40 s take, each 10% long
    peaks = []
    for seconds in (4, 40):
        n_out = seconds * 44100
        clip = _signal(round(n_out * 1.1), "mix", seconds)
        peaks.append((n_out, traced_peak(lambda: stretch_to_length(clip, n_out))))
    (n_short, short), (n_long, long) = peaks
    assert (long - short) / (n_long - n_short) <= 24


@st.composite
def _stretches(draw):
    """A clip and an output length: either a factor in 0.5..2, or one
    that makes t_out, the output frame count, k blocks and -1, 0 or +1."""
    clip = draw(_signals)
    n_in = clip.n_frames
    if n_in >= 64 and draw(st.booleans()):
        hop = min(2048, 1 << (n_in.bit_length() - 1)) // 4
        t_out = draw(st.integers(1, 4)) * _BLOCK_FRAMES + draw(st.sampled_from([-1, 0, 1]))
        return clip, (t_out - 1) * hop + draw(st.integers(1 - hop // 2, hop // 2 - 1))
    return clip, round(n_in * draw(st.floats(0.5, 2.0)))


@settings(max_examples=150, deadline=None)
@given(
    case=_stretches(),
    semitones=st.sampled_from([s for s in range(PITCH_MIN, PITCH_MAX + 1) if s]),
)
def test_stretch_and_pitch_equal_the_whole_array_vocoder(case, semitones):
    # numpy may multiply a block's rows with another loop than the whole
    # array's, a last bit apart, so floats are held to 1e-12 and int16
    # must be equal
    clip, n_out = case
    x = clip.samples / 32768.0
    want = whole_stretch(x, n_out)
    got = _stretch_signal(x, n_out)
    assert len(got) == n_out
    assert np.max(np.abs(got - want), initial=0) <= 1e-12
    assert np.array_equal(stretch_to_length(clip, n_out).samples, quantize(want))
    want = quantize(reference_pitch_shift(clip.samples, semitones, whole_stretch))
    assert np.array_equal(pitch_shift(clip, semitones).samples, want)


def test_stretch_and_pitch_equal_reference_at_verse_scale():
    # one- and two-beat synthetic clips at 44.1 kHz, and a 10% long take
    # stretched back to its beat span, as verse and recorded renders do
    for request in (beat_request("van", Weight.GURU, 0.5), beat_request("de", Weight.LAGHU, 0.5)):
        clip = SyntheticVoice().get_clip(request)
        for s in range(PITCH_MIN, PITCH_MAX + 1):
            if s:
                want = quantize(reference_pitch_shift(clip.samples, s))
                assert np.array_equal(pitch_shift(clip, s).samples, want)
        n_out = round(clip.n_frames / 1.1)
        want = quantize(reference_stretch(clip.samples / 32768.0, n_out))
        assert np.array_equal(stretch_to_length(clip, n_out).samples, want)


def test_wav_round_trip_bit_exact(tmp_path):
    clip = sine_clip(440, 0.25)
    path = tmp_path / "tone.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert back.sample_rate == clip.sample_rate
    assert np.array_equal(back.samples, clip.samples)


def test_wav_header_fields(tmp_path):
    clip = sine_clip(440, 0.1, rate=22050)
    path = tmp_path / "tone.wav"
    write_wav(clip, path)
    with wave.open(str(path), "rb") as w:
        assert w.getnchannels() == 1
        assert w.getsampwidth() == 2
        assert w.getframerate() == 22050
        assert w.getnframes() == clip.n_frames


def test_empty_wav_is_valid(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(AudioClip(np.zeros(0, dtype=np.int16), 44100), path)
    assert path.stat().st_size == 44  # bare RIFF/fmt/data header
    assert read_wav(path).n_frames == 0


def test_read_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(44100)
        w.writeframes(np.zeros(400, dtype="<i2").tobytes())
    with pytest.raises(BadWav, match="mono"):
        read_wav(path)


def test_read_wav_rejects_8bit(tmp_path):
    path = tmp_path / "eight.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(44100)
        w.writeframes(bytes(200))
    with pytest.raises(BadWav, match="16-bit"):
        read_wav(path)


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "not.wav"
    path.write_bytes(b"this is not audio at all")
    with pytest.raises(BadWav):
        read_wav(path)


def test_read_wav_rejects_a_compressed_wav(tmp_path):
    # an A-law WAV (format tag 6): a valid header for a format not read
    path = tmp_path / "alaw.wav"
    wav = bytearray(mono16_wav(8000, 4, bytes(4)))
    wav[20:22] = struct.pack("<H", 6)
    path.write_bytes(bytes(wav))
    with pytest.raises(BadWav, match="unknown format: 6"):
        read_wav(path)


def test_read_wav_rejects_a_zero_rate(tmp_path):
    path = tmp_path / "zero.wav"
    path.write_bytes(mono16_wav(0, 400, bytes(400)))
    with pytest.raises(BadWav, match="0 Hz"):
        read_wav(path)


def test_read_wav_rejects_truncated_data(tmp_path):
    # cut off inside a sample, and cut off between samples
    for payload in (bytes(3), bytes(4)):
        path = tmp_path / "cut.wav"
        path.write_bytes(mono16_wav(44100, 2000, payload))
        with pytest.raises(BadWav, match=f"cut short: {len(payload)} of 2000 bytes"):
            read_wav(path)
    # the same header over whole data reads
    path.write_bytes(mono16_wav(44100, 2000, bytes(2000)))
    assert read_wav(path).n_frames == 1000


def test_read_wav_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "absent.wav")
