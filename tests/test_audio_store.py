from __future__ import annotations

import mmap
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versechant import audio_store
from versechant.alphabet import Category
from versechant.audio_store import (
    _NASALS,
    HARMONICS,
    ClipDirectory,
    ClipRequest,
    SyntheticVoice,
    check_base_freq,
)
from versechant.dsp import (
    PITCH_MAX,
    PITCH_MIN,
    AudioClip,
    crossfade_frames,
    pitch_shift,
    write_wav,
)
from versechant.errors import BadWav, ClipUnavailable, ConfigError
from versechant.prosody import Weight
from versechant.synthesis import Config, synthesize
from versechant.transliteration import tokenize

from conftest import SAMPLE_VERSE, CountingVoice, fft_peak_hz, peak_bin, sine_clip


def expected_frames(weight: Weight, beat: float, rate: int = 44100) -> int:
    """The unit's beats plus the crossfade tail that fades under the next slot."""
    return int(round((int(weight) + 1) * beat * rate)) + crossfade_frames(rate)


# ---------------------------------------------------------------------------
# Oracle: the voice as one np.sin pass per harmonic, with a full-length
# envelope multiplied into every frame.

def reference_envelope(n: int, attack: int, release: int) -> np.ndarray:
    env = np.ones(n)
    attack = min(attack, n // 2)
    release = min(release, n - attack)
    if attack:
        env[:attack] = np.linspace(0.0, 1.0, attack, endpoint=False)
    if release:
        env[n - release :] = np.linspace(1.0, 0.0, release)
    return env


def reference_vowel_tone(nucleus, n: int, rate: int, base_freq: float) -> np.ndarray:
    if n <= 0:
        return np.zeros(0)
    rng = np.random.default_rng(audio_store._seed(nucleus.text))
    amps = np.concatenate([[1.0], rng.uniform(0.08, 0.3, HARMONICS - 1)])
    t = np.arange(n) / rate
    x = np.zeros(n)
    for k, amp in enumerate(amps, start=1):
        x += amp * np.sin(2.0 * np.pi * k * base_freq * t)
    return x * reference_envelope(n, int(0.015 * rate), int(0.030 * rate))


def reference_consonant_burst(letter, n: int, rate: int, base_freq: float) -> np.ndarray:
    if n <= 0:
        return np.zeros(0)
    seed = audio_store._seed(letter.text)
    noise = np.random.default_rng(seed).standard_normal(n)
    center = 500.0 + (seed % 3000)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spec = np.fft.rfft(noise) * np.exp(-(((freqs - center) / 900.0) ** 2))
    x = np.fft.irfft(spec, n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x /= peak
    if letter.category is Category.SEMIVOWEL or letter.text in _NASALS:
        t = np.arange(n) / rate
        x = 0.5 * x + 0.5 * np.sin(2.0 * np.pi * base_freq * t)
    return 0.45 * x * reference_envelope(n, int(0.003 * rate), int(0.003 * rate))


def reference_synth_clip(request: ClipRequest, base_freq: float, rate: int):
    """A fresh voice's clip with the oracle's tone and burst in place of
    the kernels (each oracle is handed the frame count of its table)."""
    def tone(nucleus, z, rate):
        return reference_vowel_tone(nucleus, len(z), rate, base_freq)

    def burst(letter, noise, z, rate):
        return reference_consonant_burst(letter, len(z), rate, base_freq)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audio_store, "_vowel_tone", tone)
        mp.setattr(audio_store, "_consonant_burst", burst)
        return SyntheticVoice(base_freq, rate).get_clip(request)


def top_base_freq(rate: int) -> float:
    return rate / (2 * HARMONICS * 2.0 ** (PITCH_MAX / 12))


def test_synth_clip_rejects_aliasing_base_freq():
    # the bound holds for direct calls too, not only through Config
    with pytest.raises(ConfigError, match="base frequency"):
        SyntheticVoice(1500.0, 8000).get_clip(ClipRequest("ā", Weight.GURU, 0.5))
    # under rate/8, but a +4 shift would lift the 4th harmonic to 4989 Hz
    with pytest.raises(ConfigError, match="base frequency"):
        SyntheticVoice(990.0, 8000).get_clip(ClipRequest("ā", Weight.GURU, 0.5))
    # a base frequency that is not a number is a ConfigError, not a TypeError
    for bad in ("220", None, True):
        with pytest.raises(ConfigError, match="base frequency"):
            SyntheticVoice(bad, 8000)


def test_providers_check_the_sample_rate(tmp_path):
    # one check, the one Config makes: a whole positive number of frames
    # per second, whatever the provider
    for bad in (22050.5, -8000, 0, "44100", None, True):
        with pytest.raises(ConfigError, match="sample rate"):
            SyntheticVoice(220.0, bad)
        with pytest.raises(ConfigError, match="sample rate"):
            ClipDirectory(tmp_path, bad)
    rate = np.int64(22050)
    assert SyntheticVoice(220.0, rate).get_clip(ClipRequest("a", Weight.LAGHU, 0.1)).sample_rate == rate
    assert ClipDirectory(tmp_path, rate).sample_rate == rate


def test_top_harmonic_at_top_pitch_stays_below_nyquist():
    # top = the largest base whose 4th harmonic, shifted up PITCH_MAX
    # semitones, stays below rate/2
    rate = 8000
    top = rate / 2 / (HARMONICS * 2.0 ** (PITCH_MAX / 12))
    with pytest.raises(ConfigError, match="base frequency"):
        SyntheticVoice(top * 1.001, rate).get_clip(ClipRequest("a", Weight.GURU, 0.5))
    base = 790.0
    shifted = pitch_shift(SyntheticVoice(base, rate).get_clip(ClipRequest("a", Weight.GURU, 0.5)), PITCH_MAX)
    f0 = base * 2.0 ** (PITCH_MAX / 12)
    mag = np.abs(np.fft.rfft(shifted.samples * np.hanning(shifted.n_frames)))
    freqs = np.fft.rfftfreq(shifted.n_frames, 1.0 / rate)
    # the strongest peak above the 3rd harmonic is the 4th, not a fold
    above = freqs > 3.5 * f0
    got = freqs[above][np.argmax(mag[above])]
    assert abs(got - HARMONICS * f0) / (HARMONICS * f0) < 0.01


def test_synth_clip_duration_exact():
    for weight in (Weight.LAGHU, Weight.GURU):
        for beat in (0.3, 0.5, 0.75):
            clip = SyntheticVoice().get_clip(ClipRequest("van", weight, beat))
            assert clip.n_frames == expected_frames(weight, beat)
            assert clip.sample_rate == 44100


def test_synth_clip_deterministic():
    a = SyntheticVoice().get_clip(ClipRequest("ṇāṃ", Weight.GURU, 0.5))
    b = SyntheticVoice().get_clip(ClipRequest("ṇāṃ", Weight.GURU, 0.5))
    assert np.array_equal(a.samples, b.samples)


def test_synth_clip_distinct_units_differ():
    a = SyntheticVoice().get_clip(ClipRequest("van", Weight.LAGHU, 0.5))
    b = SyntheticVoice().get_clip(ClipRequest("de", Weight.LAGHU, 0.5))
    assert not np.array_equal(a.samples, b.samples)


def test_synth_clip_vowel_at_base_freq():
    for base in (220.0, 261.63):
        clip = SyntheticVoice(base).get_clip(ClipRequest("ā", Weight.GURU, 0.5))
        got = fft_peak_hz(clip.samples, clip.sample_rate)
        assert abs(got - base) / base < 0.01
        # consonant-flanked vowel: inspect the middle half
        clip = SyntheticVoice(base).get_clip(ClipRequest("vān", Weight.GURU, 0.5))
        n = clip.n_frames
        got = fft_peak_hz(clip.samples[n // 4 : 3 * n // 4], clip.sample_rate)
        assert abs(got - base) / base < 0.01


def test_synth_clip_peak_normalized():
    clip = SyntheticVoice().get_clip(ClipRequest("snyam", Weight.GURU, 0.5))
    peak = np.max(np.abs(clip.samples)) / 32768.0
    assert 0.70 <= peak <= 0.78


def test_synth_clip_needs_vowel():
    with pytest.raises(ValueError):
        SyntheticVoice().get_clip(ClipRequest("k", Weight.LAGHU, 0.5))


def test_request_validation():
    with pytest.raises(ValueError):
        ClipRequest("van", Weight.LAGHU, 0.0)
    # a bool is a number to Python, but no beat length or pitch
    for bad in (float("inf"), float("nan"), True, "0.5"):
        with pytest.raises(ValueError, match="beat_seconds"):
            ClipRequest("va", Weight.LAGHU, bad)
    for bad in (PITCH_MIN - 1, PITCH_MAX + 1, 1.5, True, float("nan"), "1"):
        with pytest.raises(ValueError, match="pitch"):
            ClipRequest("van", Weight.LAGHU, 0.5, bad)
    assert ClipRequest("van", Weight.LAGHU, 0.5).pitch == 0
    assert ClipRequest("van", Weight.LAGHU, 0.5, np.int64(-7)).pitch == -7


VOWELS = ["a", "ā", "i", "ī", "u", "ū", "ṛ", "e", "ai", "o", "au"]
CONSONANTS = ["k", "kh", "g", "ṅ", "c", "j", "ñ", "ṭ", "ṇ", "t", "d", "n",
              "p", "bh", "m", "y", "r", "l", "v", "ś", "ṣ", "s", "h", "ṃ", "ḥ"]
BLOCK = audio_store._BLOCK

# lengths below, at and just off multiples of the phasor block, and any
# length up to about two seconds at 44.1 kHz
frame_counts = st.one_of(
    st.integers(0, 90_000),
    st.builds(lambda k, d: max(0, k * BLOCK + d), st.integers(0, 351), st.integers(-1, 1)),
)


@settings(max_examples=120, deadline=None)
@given(
    pre=st.lists(st.sampled_from(CONSONANTS), max_size=3),
    nucleus=st.sampled_from(VOWELS),
    post=st.lists(st.sampled_from(CONSONANTS), max_size=2),
    weight=st.sampled_from([Weight.LAGHU, Weight.GURU]),
    n=frame_counts,
    rate=st.integers(8_000, 48_000),
    base_share=st.floats(0.001, 0.999999),
)
def test_voice_matches_reference(pre, nucleus, post, weight, n, rate, base_share):
    base = base_share * top_base_freq(rate)
    check_base_freq(base, rate)
    # each kernel alone, at exactly n frames
    vowel = tokenize(nucleus).letters[0]
    z = audio_store._phasor(base, n, rate)
    got = audio_store._vowel_tone(vowel, z, rate)
    assert len(got) == n
    np.testing.assert_allclose(got, reference_vowel_tone(vowel, n, rate, base), rtol=0, atol=1e-9)
    for letter in tokenize("".join(pre + post) or "y").letters:
        noise = audio_store._burst_noise(letter, n, rate)
        got = audio_store._consonant_burst(letter, noise, z, rate)
        want = reference_consonant_burst(letter, n, rate, base)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    # the whole clip, at about n frames
    if n == 0:
        return
    request = ClipRequest("".join(pre) + nucleus + "".join(post), weight, n / ((int(weight) + 1) * rate))
    got = SyntheticVoice(base, rate).get_clip(request).samples
    want = reference_synth_clip(request, base, rate).samples
    assert len(got) == len(want)
    assert np.max(np.abs(got.astype(np.int32) - want), initial=0) <= 1


def test_voice_equals_reference_at_bench_scale():
    for text in ("van", "ṇāṃ", "snyam"):
        for weight in (Weight.LAGHU, Weight.GURU):
            request = ClipRequest(text, weight, 0.5)
            got = SyntheticVoice(220.0, 44100).get_clip(request)
            want = reference_synth_clip(request, 220.0, 44100)
            assert np.array_equal(got.samples, want.samples)


# ---------------------------------------------------------------------------
# Pitched clips: the voice sings at base · 2^(p/12)

@settings(max_examples=80, deadline=None)
@given(
    nucleus=st.sampled_from(VOWELS),
    weight=st.sampled_from([Weight.LAGHU, Weight.GURU]),
    pitch=st.integers(PITCH_MIN, PITCH_MAX),
    rate=st.integers(8_000, 48_000),
    base_share=st.floats(0.08, 0.999999),
    beat=st.floats(0.25, 0.6),
)
def test_pitched_clip_spectrum(nucleus, weight, pitch, rate, base_share, beat):
    base = base_share * top_base_freq(rate)
    request = ClipRequest(nucleus, weight, beat, pitch)
    clip = SyntheticVoice(base, rate).get_clip(request)
    assert clip.n_frames == request.n_frames(rate)
    n = clip.n_frames
    bin_hz = rate / n
    f0 = base * 2.0 ** (pitch / 12)
    # the fundamental leads, within one FFT bin of its frequency
    assert abs(fft_peak_hz(clip.samples, rate) - f0) <= bin_hz
    # and no peak lies above the top harmonic: a folded harmonic would
    # carry at least 8% of the fundamental (the amplitudes are 0.08 to
    # 0.3), while every other peak stays far under 1%
    mag = np.abs(np.fft.rfft(clip.samples * np.hanning(n)))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    inner = mag[1:-1]
    peaks = (inner > mag[:-2]) & (inner >= mag[2:]) & (inner > 0.03 * np.max(mag))
    assert np.all(freqs[1:-1][peaks] <= HARMONICS * f0 + bin_hz)


# ---------------------------------------------------------------------------
# The voice's memo: bursts and one phasor table per pitch are kept per
# instance

unit_texts = st.builds(
    lambda pre, nucleus, post: "".join(pre) + nucleus + "".join(post),
    st.lists(st.sampled_from(CONSONANTS), max_size=4),
    st.sampled_from(VOWELS),
    st.lists(st.sampled_from(CONSONANTS), max_size=4),
)
requests = st.builds(
    ClipRequest,
    unit_texts,
    st.sampled_from([Weight.LAGHU, Weight.GURU]),
    st.floats(0.02, 1.0),
    st.integers(PITCH_MIN, PITCH_MAX),
)


@settings(max_examples=60, deadline=None)
@given(
    reqs=st.lists(requests, min_size=1, max_size=8),
    rate=st.integers(8_000, 48_000),
    base_share=st.floats(0.001, 0.999999),
)
def test_reused_voice_equals_fresh_voice(reqs, rate, base_share):
    # clips grow and shrink in random order; replaying them backwards
    # serves every part from the memo
    base = base_share * top_base_freq(rate)
    voice = SyntheticVoice(base, rate)
    for request in reqs + reqs[::-1]:
        got = voice.get_clip(request).samples
        want = SyntheticVoice(base, rate).get_clip(request).samples
        assert np.array_equal(got, want)
    # a burst or its noise is at most one 60 ms segment plus a frame or
    # two (clusters here have at most four consonants), and nothing kept
    # is writable
    seg = int(round(0.06 * rate))
    kept = voice._parts._kept
    for key, part in kept.items():
        assert not part.flags.writeable
        if key[0] != "table":
            assert len(part) <= seg + 2
    # one table per pitch sung, none for a pitch not asked for
    tables = {key[1] for key in kept if key[0] == "table"}
    assert tables <= {request.pitch for request in reqs}


def test_voice_renders_each_burst_once(monkeypatch):
    made = []

    def burst(letter, noise, z, rate):
        made.append((letter.text, len(z)))
        return np.zeros(len(z))

    monkeypatch.setattr(audio_store, "_consonant_burst", burst)
    voice = SyntheticVoice()
    for text in ("van", "de", "vān", "van"):
        voice.get_clip(ClipRequest(text, Weight.LAGHU, 0.5))
    assert len(made) == len(set(made)) == 3  # v, n, d at one length each


def test_voice_keys_voiced_bursts_by_pitch(monkeypatch):
    # an unvoiced burst is noise alone and serves every pitch; a nasal
    # mixes in the fundamental, so it is built once per pitch, at it
    made = []

    def burst(letter, noise, z, rate):
        made.append((letter.text, np.angle(z[1]) * rate / (2 * np.pi)))
        return np.zeros(len(z))

    monkeypatch.setattr(audio_store, "_consonant_burst", burst)
    base, rate = 220.0, 44100
    voice = SyntheticVoice(base, rate)
    for pitch in (-7, 0, 4, 0, -7):
        voice.get_clip(ClipRequest("kan", Weight.LAGHU, 0.5, pitch))
    assert [text for text, _ in made].count("k") == 1
    nasal = [freq for text, freq in made if text == "n"]
    np.testing.assert_allclose(nasal, [base * 2.0 ** (p / 12) for p in (-7, 0, 4)], rtol=1e-9)


def test_voice_builds_burst_noise_once_per_length(monkeypatch):
    # the noise is the costly part of a burst and ignores the pitch: a
    # nasal sung at three pitches and two lengths filters its noise once
    # per length, and only mixes its sine in per pitch
    noises, mixes = [], []
    noise, burst = audio_store._burst_noise, audio_store._consonant_burst

    def counted_noise(letter, n, rate):
        noises.append((letter.text, n))
        return noise(letter, n, rate)

    def counted_burst(letter, noise, z, rate):
        mixes.append((letter.text, len(z)))
        return burst(letter, noise, z, rate)

    monkeypatch.setattr(audio_store, "_burst_noise", counted_noise)
    monkeypatch.setattr(audio_store, "_consonant_burst", counted_burst)
    voice = SyntheticVoice()
    requests = [
        ClipRequest("kan", Weight.LAGHU, beat, pitch)
        for beat in (0.5, 0.05)
        for pitch in (-7, 0, 4, 0, -7)
    ]
    clips = [voice.get_clip(request).samples for request in requests]
    lengths = sorted({n for _, n in noises})
    assert len(lengths) == 2
    assert sorted(noises) == [(text, n) for text in ("k", "n") for n in lengths]
    assert sorted(mixes) == sorted([("k", n) for n in lengths] + [("n", n) for n in lengths] * 3)
    # and the clips are a fresh voice's
    monkeypatch.undo()
    for request, got in zip(requests, clips):
        assert np.array_equal(got, SyntheticVoice().get_clip(request).samples)


def test_envelope_leaves_the_middle_untouched():
    rate, n = 44100, 30_000
    attack, release = int(0.015 * rate), int(0.030 * rate)
    vowel = tokenize("ā").letters[0]
    z = audio_store._phasor(220.0, n, rate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audio_store, "_envelope", lambda x, attack, release: x)
        raw = audio_store._vowel_tone(vowel, z, rate)
    tone = audio_store._vowel_tone(vowel, z, rate)
    assert np.array_equal(tone[attack : n - release], raw[attack : n - release])
    assert tone[0] == 0.0 and tone[-1] == 0.0
    assert np.all(np.abs(tone) <= np.abs(raw))


def test_render_fetches_each_clip_once():
    config = Config(require_metre=False)
    voice = CountingVoice()
    result = synthesize("vande vande", config, store=voice)
    needed = [
        ClipRequest(tu.unit.text, Weight(tu.render_beats - 1), config.beat_seconds, tu.pitch)
        for q in result.plan.quarters
        for tu in q.timed
    ]
    assert len(needed) > len(set(needed))  # the text repeats a unit
    assert sorted(voice.requests, key=repr) == sorted(set(needed), key=repr)


# ---------------------------------------------------------------------------
# The process's voice: synthesize without a store renders with one voice,
# whose parts outlive the render within a byte budget

def metre_db(path, q13, q24):
    """A one-record metre database for the sample verse (11 syllables a
    quarter) with the given pitch rows."""
    path.write_text(
        "name: test\nsyllables: 11 11 11 11\ncaesura: 11\n"
        f"pitch_q13: {' '.join(map(str, q13))}\npitch_q24: {' '.join(map(str, q24))}\n",
        encoding="utf-8",
    )
    return path


def fresh_render(config):
    voice = SyntheticVoice(config.base_freq, config.sample_rate)
    return synthesize(SAMPLE_VERSE, config, store=voice).clip.samples


def test_parts_evict_the_least_recently_used_pages():
    page = mmap.PAGESIZE
    parts = audio_store._Parts(3 * page)
    part = np.arange(page // 8, dtype=np.float64)
    a = parts.put(("a",), part)
    # a read-only copy, in pages of its own
    assert np.array_equal(a, part) and a is not part and not a.flags.writeable
    parts.put(("b",), np.zeros(1))  # 8 bytes take a whole page
    parts.get(("a",))  # a is now more recent than b
    parts.put(("c",), np.zeros(page // 8))
    parts.put(("d",), np.zeros(1))
    assert list(parts._kept) == [("a",), ("c",), ("d",)] and parts.nbytes == 3 * page
    # growing a part replaces it, counted once
    parts.put(("a",), np.zeros(page // 8 + 1))
    assert list(parts._kept) == [("d",), ("a",)] and parts.nbytes == 3 * page
    # a part over the whole budget is handed back, not kept
    big = parts.put(("e",), np.zeros(3 * page // 8 + 1))
    assert len(big) == 3 * page // 8 + 1 and not parts._kept and parts.nbytes == 0


def test_default_voice_keeps_its_parts_within_the_budget(tmp_path, monkeypatch):
    # the budget is stated where the parts are described
    assert audio_store.PARTS_BUDGET == 8 * 2**20
    assert "PARTS_BUDGET, 8 MiB" in " ".join(audio_store.__doc__.split())
    built = []
    put = audio_store._Parts.put
    monkeypatch.setattr(
        audio_store._Parts, "put", lambda self, key, part: built.append((key, part.nbytes)) or put(self, key, part)
    )
    # every pitch in PITCH_MIN..PITCH_MAX, at beats up to a second, so the
    # tables alone outgrow the budget
    db = metre_db(tmp_path / "all.txt", [-7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3], [4, 0, -1, 1, -2, 2, 0, 3, -3, 4, 0])
    for beat in (0.25, 1.0, 0.5):
        synthesize(SAMPLE_VERSE, Config(beat_seconds=beat, metre_db_path=db))
    voice = audio_store.default_voice(220.0, 44100)
    kept = voice._parts._kept
    assert {key[1] for key, _ in built if key[0] == "table"} == set(range(PITCH_MIN, PITCH_MAX + 1))
    assert sum(nbytes for _, nbytes in built) > audio_store.PARTS_BUDGET >= voice._parts.nbytes
    assert voice._parts.nbytes == sum(map(audio_store._footprint, kept.values()))
    assert not any(part.flags.writeable for part in kept.values())


def test_second_render_builds_no_parts(monkeypatch):
    synthesize(SAMPLE_VERSE)
    built = []
    for name in ("_phasor", "_burst_noise", "_consonant_burst"):
        kernel = getattr(audio_store, name)
        monkeypatch.setattr(audio_store, name, lambda *a, k=kernel, n=name: built.append(n) or k(*a))
    again = synthesize(SAMPLE_VERSE).clip.samples
    assert built == []
    assert np.array_equal(again, fresh_render(Config()))


@settings(max_examples=20, deadline=None)
@given(
    renders=st.lists(
        st.tuples(
            st.floats(0.01, 0.3),
            st.lists(st.integers(PITCH_MIN, PITCH_MAX), min_size=22, max_size=22),
            st.sampled_from([196.0, 220.0]),
            st.sampled_from([22050, 44100]),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_default_voice_equals_fresh_voice_across_renders(tmp_path_factory, renders):
    # renders through the process's voice, interleaved across beats,
    # pitches, base frequencies and rates, equal a fresh voice's
    db = tmp_path_factory.mktemp("metre") / "db.txt"
    for beat, pitches, base, rate in renders:
        metre_db(db, pitches[:11], pitches[11:])
        config = Config(beat_seconds=beat, base_freq=base, sample_rate=rate, metre_db_path=db)
        assert np.array_equal(synthesize(SAMPLE_VERSE, config).clip.samples, fresh_render(config))


def test_threads_render_with_one_voice():
    # four renders at once, two pairs asking for the same parts, from a
    # voice no render has used yet; a short switch interval makes the
    # threads interleave inside the parts' bookkeeping
    configs = [Config(beat_seconds=beat, base_freq=207.0) for beat in (0.1, 0.1, 0.2, 0.2)]
    audio_store.default_voice.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda config: synthesize(SAMPLE_VERSE, config).clip.samples, configs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for config, samples in zip(configs, got):
        assert np.array_equal(samples, fresh_render(config))
    # no update to the kept pages was lost
    parts = audio_store.default_voice(207.0, 44100)._parts
    assert parts.nbytes == sum(map(audio_store._footprint, parts._kept.values())) > 0


# ---------------------------------------------------------------------------
# Recorded clip directory

def _write_clip(directory, name, clip):
    write_wav(clip, directory / name)


def test_clip_directory_lookup(tmp_path):
    _write_clip(tmp_path, "van_l.wav", SyntheticVoice().get_clip(ClipRequest("van", Weight.LAGHU, 0.5)))
    _write_clip(tmp_path, "ṇāṃ_g.wav", SyntheticVoice().get_clip(ClipRequest("ṇāṃ", Weight.GURU, 0.5)))
    _write_clip(tmp_path, "notaclip.wav", sine_clip(440, 0.1))
    _write_clip(tmp_path, "bad_x.wav", sine_clip(440, 0.1))
    store = ClipDirectory(tmp_path)
    assert len(store) == 2
    clip = store.get_clip(ClipRequest("van", Weight.LAGHU, 0.5))
    assert clip.n_frames == expected_frames(Weight.LAGHU, 0.5)
    clip = store.get_clip(ClipRequest("ṇāṃ", Weight.GURU, 0.5))
    assert clip.n_frames == expected_frames(Weight.GURU, 0.5)


def test_clip_directory_missing_unit(tmp_path):
    store = ClipDirectory(tmp_path)
    with pytest.raises(ClipUnavailable):
        store.get_clip(ClipRequest("van", Weight.LAGHU, 0.5))


def rms(clip) -> float:
    return float(np.sqrt(np.mean(clip.samples.astype(np.float64) ** 2)))


def test_clip_directory_serves_at_pitch(tmp_path):
    # the take is read 2^(p/12) times faster and fitted to its slot,
    # whether it is exact at the engine rate (van) or 10% long at half
    # of it (de)
    want = expected_frames(Weight.LAGHU, 0.5)
    _write_clip(tmp_path, "van_l.wav", sine_clip(300, 0.5))
    _write_clip(tmp_path, "de_l.wav", sine_clip(300, 0.55, rate=22050))
    store = ClipDirectory(tmp_path)
    for text in ("van", "de"):
        for p in range(PITCH_MIN, PITCH_MAX + 1):
            clip = store.get_clip(ClipRequest(text, Weight.LAGHU, 0.5, p))
            assert clip.n_frames == want
            assert peak_bin(clip.samples) == round(300 * 2 ** (p / 12) * want / 44100)


def test_clip_directory_low_passes_a_read_faster_than_the_take(tmp_path):
    # a read that steps over more than one take frame per output frame
    # would fold the take's content above the output's Nyquist back into
    # the band: a 20 kHz tone sung 2 or 4 semitones up, or a 23 kHz tone
    # of a 48 kHz take at 44.1 kHz, must vanish
    high = sine_clip(20000, 0.5)
    over = sine_clip(23000, 0.5, rate=48000)
    low = sine_clip(300, 0.5)
    _write_clip(tmp_path, "hi_l.wav", high)
    _write_clip(tmp_path, "ta_l.wav", over)
    _write_clip(tmp_path, "lo_l.wav", low)
    store = ClipDirectory(tmp_path)
    for text, take, pitch in (("hi", high, 2), ("hi", high, 4), ("ta", over, 0)):
        clip = store.get_clip(ClipRequest(text, Weight.LAGHU, 0.5, pitch))
        assert rms(clip) <= 0.01 * rms(take)
    # a tone well inside the band keeps its pitch and its level
    clip = store.get_clip(ClipRequest("lo", Weight.LAGHU, 0.5, 4))
    assert peak_bin(clip.samples) == round(300 * 2 ** (4 / 12) * clip.n_frames / 44100)
    assert abs(20 * np.log10(rms(clip) / rms(low))) <= 1


def test_clip_directory_weight_distinguishes(tmp_path):
    _write_clip(tmp_path, "de_g.wav", SyntheticVoice().get_clip(ClipRequest("de", Weight.GURU, 0.5)))
    store = ClipDirectory(tmp_path)
    with pytest.raises(ClipUnavailable):
        store.get_clip(ClipRequest("de", Weight.LAGHU, 0.5))


def test_small_duration_gap_padded_or_trimmed(tmp_path):
    want = expected_frames(Weight.LAGHU, 0.5)  # 22050
    short = sine_clip(440, (want - 300) / 44100)  # ~1.4% short
    long = sine_clip(440, (want + 300) / 44100)
    _write_clip(tmp_path, "sa_l.wav", short)
    _write_clip(tmp_path, "ma_l.wav", long)
    store = ClipDirectory(tmp_path)
    padded = store.get_clip(ClipRequest("sa", Weight.LAGHU, 0.5))
    assert padded.n_frames == want
    assert not padded.samples[-200:].any()  # gap filled with silence
    trimmed = store.get_clip(ClipRequest("ma", Weight.LAGHU, 0.5))
    assert trimmed.n_frames == want
    assert np.array_equal(trimmed.samples, long.samples[:want])


def test_large_duration_gap_stretched(tmp_path):
    want = expected_frames(Weight.GURU, 0.5)  # 44100
    off = sine_clip(440, 0.8)  # 20% short of 1.0 s
    _write_clip(tmp_path, "bo_g.wav", off)
    store = ClipDirectory(tmp_path)
    clip = store.get_clip(ClipRequest("bo", Weight.GURU, 0.5))
    assert clip.n_frames == want
    # stretch keeps the pitch
    got = fft_peak_hz(clip.samples, 44100)
    assert abs(got - 440) / 440 < 0.01


def test_other_sample_rate_resampled(tmp_path):
    clip = sine_clip(440, 0.5, rate=22050)
    _write_clip(tmp_path, "ya_l.wav", clip)
    store = ClipDirectory(tmp_path, sample_rate=44100)
    out = store.get_clip(ClipRequest("ya", Weight.LAGHU, 0.5))
    assert out.sample_rate == 44100
    assert out.n_frames == expected_frames(Weight.LAGHU, 0.5)
    got = fft_peak_hz(out.samples, 44100)
    assert abs(got - 440) / 440 < 0.01


def test_bad_wav_in_directory(tmp_path):
    (tmp_path / "ha_l.wav").write_bytes(b"RIFFgarbage")
    store = ClipDirectory(tmp_path)
    with pytest.raises(BadWav):
        store.get_clip(ClipRequest("ha", Weight.LAGHU, 0.5))


def test_empty_take_in_directory(tmp_path):
    write_wav(AudioClip(np.zeros(0, dtype=np.int16), 44100), tmp_path / "ha_l.wav")
    store = ClipDirectory(tmp_path)
    with pytest.raises(BadWav, match="ha_l.wav: clip holds no samples"):
        store.get_clip(ClipRequest("ha", Weight.LAGHU, 0.5))


def test_clip_directory_rejects_two_files_for_one_take(tmp_path):
    clip = sine_clip(440, 0.1)
    # alias spellings and letter case normalize to one (unit, weight) key
    for first, second in [("ṛa_l.wav", "r̥a_l.wav"), ("ra_l.wav", "RA_l.wav")]:
        directory = tmp_path / first
        directory.mkdir()
        _write_clip(directory, first, clip)
        _write_clip(directory, "g.wav", clip)  # no unit text: not a take
        assert len(ClipDirectory(directory)) == 1
        _write_clip(directory, second, clip)
        with pytest.raises(ConfigError) as info:
            ClipDirectory(directory)
        assert first in str(info.value) and second in str(info.value)


def test_alias_spelling_in_filename(tmp_path):
    # file written with ṛ finds requests spelled r̥
    _write_clip(tmp_path, "kṛ_l.wav", SyntheticVoice().get_clip(ClipRequest("kr̥", Weight.LAGHU, 0.5)))
    store = ClipDirectory(tmp_path)
    clip = store.get_clip(ClipRequest("kr̥", Weight.LAGHU, 0.5))
    assert clip.n_frames == expected_frames(Weight.LAGHU, 0.5)
