from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from versechant import audio_store, synthesis
from versechant.alphabet import classify
from versechant.audio_store import (
    HARMONICS,
    ClipDirectory,
    ClipProvider,
    ClipRequest,
    SyntheticVoice,
)
from versechant.dsp import (
    AudioClip,
    crossfade_frames,
    pitch_shift,
    read_wav,
)
from versechant.errors import (
    BadClip,
    ChantError,
    ConfigError,
    EmptyVerse,
    NoMatchingMetre,
    UnknownCharacter,
)
from versechant.prosody import Weight
from versechant.synthesis import (
    Config,
    TimedUnit,
    beat_frames,
    prepare,
    synthesize,
)
from versechant.units import Unit

from conftest import (
    Q1_T,
    Q1_TA,
    Q1_TE,
    Q1_V,
    SAMPLE_VERSE,
    CountingVoice,
    beat_request,
    peak_bin,
    random_text,
    record_takes,
    reference_concat,
)


def make_timed(t: int, v: int, word_final: bool) -> TimedUnit:
    unit = Unit((), classify("a"), (), word_final)
    return TimedUnit(unit, Weight(t), Weight(v), 0)


def test_expected_and_actual_time():
    quarter = prepare(SAMPLE_VERSE).quarters[0]
    assert [int(tu.isolated) for tu in quarter.timed] == Q1_T
    assert [int(tu.contextual) for tu in quarter.timed] == Q1_V
    assert quarter.expected_beats == Q1_TE == 18
    assert quarter.actual_beats == Q1_TA == 16


def test_timed_unit_beat_cases():
    stretched = make_timed(0, 1, word_final=False)
    assert stretched.render_beats == 2
    assert stretched.trailing_silence_beats == 0
    padded = make_timed(0, 1, word_final=True)
    assert padded.render_beats == 1
    assert padded.trailing_silence_beats == 1
    plain = make_timed(1, 1, word_final=True)
    assert plain.render_beats == 2
    assert plain.trailing_silence_beats == 0
    light = make_timed(0, 0, word_final=False)
    assert light.render_beats == 1
    assert light.trailing_silence_beats == 0


def test_beat_conservation_random():
    rng = random.Random(424242)
    for _ in range(50):
        n = rng.randint(1, 30)
        timed = []
        for _ in range(n):
            t = rng.randint(0, 1)
            v = max(t, rng.randint(0, 1))
            timed.append(make_timed(t, v, word_final=rng.random() < 0.4))
        total = sum(tu.render_beats + tu.trailing_silence_beats for tu in timed)
        assert total == sum(int(tu.contextual) + 1 for tu in timed)


def test_prepare_sample_verse():
    plan = prepare(SAMPLE_VERSE, Config())
    assert plan.analysis.metre.name == "Upajāti"
    assert [q.expected_beats for q in plan.quarters] == [18, 18, 17, 18]
    assert plan.quarters[0].actual_beats == 16
    assert [q.caesuras for q in plan.quarters] == [(11,)] * 4
    assert plan.total_beats == 18 + 18 + 17 + 18 + 4
    # every quarter fills its expected beats after adjustment
    for quarter in plan.quarters:
        filled = sum(
            tu.render_beats + tu.trailing_silence_beats for tu in quarter.timed
        )
        assert filled == quarter.expected_beats


def test_prepare_pitches_follow_metre_rows():
    plan = prepare(SAMPLE_VERSE, Config())
    record = plan.analysis.metre
    for q, quarter in enumerate(plan.quarters):
        assert [tu.pitch for tu in quarter.timed] == list(record.pitch_array(q))
        assert plan.analysis.quarters[q] is quarter.timed


def test_prepare_devanagari_autodetect():
    plan = prepare("वन्दे नमः", Config(require_metre=False))
    texts = [tu.unit.text for q in plan.quarters for tu in q.timed]
    assert texts == ["van", "de", "na", "maḥ"]


def test_prepare_empty_verse():
    with pytest.raises(EmptyVerse):
        prepare("  ||  ", Config())


def test_prepare_stage_annotation():
    with pytest.raises(UnknownCharacter) as info:
        prepare("vande qurūṇāṃ x4 ||", Config())
    assert info.value.stage == "tokenize"


def test_prepare_error_names_its_quarter():
    with pytest.raises(UnknownCharacter) as info:
        prepare(SAMPLE_VERSE.replace(" ||", " x ||"))
    assert info.value.stage == "tokenize"
    assert info.value.quarter == 4


def test_prepare_unmatched_verse():
    with pytest.raises(NoMatchingMetre):
        prepare("vande gurūṇāṃ", Config())
    plan = prepare("vande gurūṇāṃ", Config(require_metre=False))
    assert plan.analysis.metre is None
    assert all(tu.pitch == 0 for q in plan.quarters for tu in q.timed)
    assert plan.quarters[0].caesuras == (len(plan.quarters[0].timed),)


def test_synthesize_duration_with_crossfade():
    # each piece's crossfade tail fades under the next slot, so the
    # crossfades cost no frames: 75 beats of 0.5 s at 44.1 kHz exactly
    result = synthesize(SAMPLE_VERSE, Config())
    assert result.joins == sum(len(q.slots()) for q in result.plan.quarters) - 1 == 47
    assert result.clip.n_frames == result.plan.total_beats * 22050 == 1_653_750


def test_synthesize_writes_wav(tmp_path):
    out = tmp_path / "verse.wav"
    result = synthesize(SAMPLE_VERSE, Config(beat_seconds=0.25), out_path=out)
    assert result.wav_path == out
    back = read_wav(out)
    assert back.sample_rate == 44100
    assert back.n_frames == result.clip.n_frames


def test_beat_and_rate_scale_duration():
    # 0.2 s at 22050 Hz keeps every beat a whole 4410 frames
    config = Config(beat_seconds=0.2, sample_rate=22050)
    result = synthesize(SAMPLE_VERSE, config)
    assert result.clip.n_frames == result.plan.total_beats * 4410
    assert result.clip.sample_rate == 22050


def grid_pieces(plan, store, beat: float = 0.5, rate: int = 44100) -> list[AudioClip]:
    """The render's pieces, built here from the plan's slots: a fresh
    clip from ``store`` per chanted slot, and zeros of the rest's beats
    plus one crossfade per rest; the last piece loses its tail."""
    xf = crossfade_frames(rate)
    pieces = []
    for quarter in plan.quarters:
        for tu, beats in quarter.slots():
            if tu is None:
                pieces.append(np.zeros(beat_frames(beats, beat, rate) + xf, np.int16))
            else:
                request = beat_request(tu.unit.text, Weight(beats - 1), beat, tu.pitch, rate)
                pieces.append(store.get_clip(request).samples)
    pieces[-1] = pieces[-1][: len(pieces[-1]) - xf]
    return [AudioClip(p, rate) for p in pieces]


def test_zero_pitch_equals_plain_concatenation(tmp_path):
    # a metre db with all-zero pitch rows must reproduce the crossfaded
    # sequence of unpitched clips and rests exactly
    db = tmp_path / "flat.txt"
    db.write_text(
        "name: flat\nsyllables: 11 11 11 11\ncaesura: 11\n"
        "pitch_q13: 0 0 0 0 0 0 0 0 0 0 0\n"
        "pitch_q24: 0 0 0 0 0 0 0 0 0 0 0\n",
        encoding="utf-8",
    )
    config = Config(metre_db_path=db)
    result = synthesize(SAMPLE_VERSE, config)
    assert {tu.pitch for q in result.plan.quarters for tu in q.timed} == {0}
    pieces = grid_pieces(result.plan, SyntheticVoice(config.base_freq, config.sample_rate))
    want = reference_concat(pieces, crossfade_frames(44100))
    assert np.array_equal(result.clip.samples, want)


def test_synthesize_from_clip_directory(tmp_path):
    config = Config(require_metre=False)
    record_takes(tmp_path, prepare("vande gurūṇām", config))
    config = replace(config, clip_dir=tmp_path)
    result = synthesize("vande gurūṇām", config)
    want = int(round(result.plan.total_beats * 0.5 * 44100))
    assert result.clip.n_frames == want


def sha256(clip) -> str:
    return hashlib.sha256(clip.samples.tobytes()).hexdigest()


def record_shifts(monkeypatch) -> list[int]:
    shifts = []
    shift = synthesis.pitch_shift

    def spy(clip, semitones):
        shifts.append(semitones)
        return shift(clip, semitones)

    monkeypatch.setattr(synthesis, "pitch_shift", spy)
    return shifts


def test_voice_sings_each_unit_at_its_pitch(monkeypatch):
    shifts = record_shifts(monkeypatch)
    voice = CountingVoice()
    result = synthesize(SAMPLE_VERSE, Config(), store=voice)
    pitches = [tu.pitch for q in result.plan.quarters for tu in q.timed]
    assert {r.pitch for r in voice.requests} == set(pitches) and len(set(pitches)) > 1
    # no clip is left for the vocoder: every shift is 0
    assert shifts == [0] * len(pitches)


def test_every_provider_is_asked_at_the_units_pitch():
    # a provider that declares nothing is still asked for each clip at
    # its unit's pitch, and its clips go into the render unshifted
    voice = SyntheticVoice()

    class Recording(ClipProvider):
        def __init__(self):
            self.requests = []

        def get_clip(self, request):
            self.requests.append(request)
            return voice.get_clip(request)

    store = Recording()
    result = synthesize(SAMPLE_VERSE, store=store)
    units = [tu for q in result.plan.quarters for tu in q.timed]
    assert len({tu.pitch for tu in units}) > 1
    # one request per distinct (unit, weight, pitch), in grid order
    want = dict.fromkeys((tu.unit.text, tu.render_beats - 1, tu.pitch) for tu in units)
    asked = [(r.unit_text, int(r.weight), r.pitch) for r in store.requests]
    assert asked == list(want)
    fresh = synthesize(SAMPLE_VERSE, store=SyntheticVoice()).clip.samples
    assert np.array_equal(result.clip.samples, fresh)


@pytest.mark.parametrize(
    "bend, detail",
    [
        (lambda clip: AudioClip(clip.samples[:-1000], 44100), "43320 frames at 44100 Hz, not 44320"),
        (lambda clip: AudioClip(clip.samples, 22050), "at 22050 Hz, not"),
    ],
    ids=["trimmed", "wrong-rate"],
)
def test_a_clip_off_the_provider_contract_is_an_error(bend, detail):
    # the first clip sung at pitch 2 breaks the contract: the render
    # stops there and the error names that unit, weight and pitch
    voice = SyntheticVoice()

    class Bent(ClipProvider):
        def __init__(self):
            self.asked = []

        def get_clip(self, request):
            self.asked.append(request.unit_text)
            clip = voice.get_clip(request)
            return bend(clip) if request.pitch == 2 else clip

    store = Bent()
    with pytest.raises(BadClip) as info:
        synthesize(SAMPLE_VERSE, store=store)
    assert info.value.stage == "clips"
    assert str(info.value).startswith("clip for unit 'rū' (g) at pitch 2: ")
    assert detail in str(info.value)
    assert store.asked == ["van", "de", "gu", "rū"]


def test_unpitched_render_is_unchanged():
    # every pitch is 0; the render is the oracle join of fresh clips and
    # rests (hash taken when clips gained their crossfade tail)
    config = Config(require_metre=False)
    result = synthesize("vande gurūṇāṃ caraṇāravinde sandarśitasvātmasukhāvabodhe", config)
    assert {tu.pitch for q in result.plan.quarters for tu in q.timed} == {0}
    want = reference_concat(grid_pieces(result.plan, SyntheticVoice()), 220)
    assert np.array_equal(result.clip.samples, want)
    assert result.clip.n_frames == result.plan.total_beats * 22050 == 815_850
    assert sha256(result.clip) == (
        "99f87544e2f885005165f2662b8843bb7d21bc938d15ddc6f859c0a18c39ebd6"
    )


def test_short_beat_render_is_unchanged():
    # the shortest whole-frame beat: 40 frames at 8 kHz, as long as the
    # crossfade, so each one-beat piece is exactly two crossfades and
    # every frame of it fades (hash taken when clips gained their tail)
    config = Config(sample_rate=8000, beat_seconds=0.005)
    result = synthesize(SAMPLE_VERSE, config)
    assert crossfade_frames(8000) == beat_frames(1, 0.005, 8000) == 40
    want = reference_concat(grid_pieces(result.plan, SyntheticVoice(220.0, 8000), 0.005, 8000), 40)
    assert np.array_equal(result.clip.samples, want)
    assert result.clip.n_frames == 75 * 40
    assert sha256(result.clip) == (
        "972bcbfbf7938108ddd8ffef62be85af17fe866518427adcb8c0995dda59bd40"
    )


def record_clips(monkeypatch) -> list[tuple[ClipRequest, object]]:
    """Every (request, clip) a ClipDirectory serves from now on."""
    served = []
    get_clip = ClipDirectory.get_clip

    def spy(self, request):
        clip = get_clip(self, request)
        served.append((request, clip))
        return clip

    monkeypatch.setattr(ClipDirectory, "get_clip", spy)
    return served


def test_recorded_takes_sing_at_pitch_like_the_vocoder(tmp_path, monkeypatch):
    # each take is read at its unit's pitch, so no piece is left for the
    # vocoder's pitch shift; a pitched clip matches the two-pass clip
    # (the base-note clip shifted by pitch_shift) in length and peak bin,
    # for exact takes at the engine rate and 10% long ones at half of it
    config = Config()
    plan = prepare(SAMPLE_VERSE, config)
    shifts = record_shifts(monkeypatch)
    served = record_clips(monkeypatch)
    for rate, beat in ((44100, 0.5), (22050, 0.55)):
        takes = tmp_path / str(rate)
        takes.mkdir()
        record_takes(takes, plan, rate, beat)
        shifts.clear()
        served.clear()
        synthesize(SAMPLE_VERSE, replace(config, clip_dir=takes))
        assert shifts == [0] * sum(len(q.timed) for q in plan.quarters)
        store = ClipDirectory(takes)
        pitched = [(r, clip) for r, clip in served if r.pitch]
        assert len({r.pitch for r, _ in pitched}) > 1
        for request, clip in pitched:
            base = store.get_clip(replace(request, pitch=0))
            two_pass = pitch_shift(base, request.pitch)
            assert clip.n_frames == two_pass.n_frames
            assert peak_bin(clip.samples) == peak_bin(two_pass.samples)


def test_unpitched_recorded_render_is_unchanged(tmp_path):
    # every pitch is 0 and the takes are 10% long at 22.05 kHz, so each
    # is resampled and stretched; the render is the oracle join of fresh
    # reads and rests (hash taken when clips gained their crossfade tail)
    text = "vande gurūṇāṃ caraṇāravinde sandarśitasvātmasukhāvabodhe"
    config = Config(require_metre=False)
    record_takes(tmp_path, prepare(text, config), rate=22050, beat=0.55)
    result = synthesize(text, replace(config, clip_dir=tmp_path))
    assert {tu.pitch for q in result.plan.quarters for tu in q.timed} == {0}
    want = reference_concat(grid_pieces(result.plan, ClipDirectory(tmp_path)), 220)
    assert np.array_equal(result.clip.samples, want)
    assert result.clip.n_frames == result.plan.total_beats * 22050 == 815_850
    assert sha256(result.clip) == (
        "3ddcd262f32de4258d7bfd9d92c72fc4413bf4ffbb62634aa0ac017c83058f94"
    )


def test_each_take_is_stretched_once_per_request_off_its_slot(tmp_path, monkeypatch):
    # the vocoder runs once for each distinct (unit, weight, pitch) whose
    # read lands 5% or more off its slot, not once per piece
    config = Config()
    plan = prepare(SAMPLE_VERSE, config)
    record_takes(tmp_path, plan, rate=22050, beat=0.55)
    stretched = []
    stretch = audio_store.stretch_to_length

    def spy(clip, n_frames):
        stretched.append(n_frames)
        return stretch(clip, n_frames)

    monkeypatch.setattr(audio_store, "stretch_to_length", spy)
    synthesize(SAMPLE_VERSE, replace(config, clip_dir=tmp_path))

    def off(key) -> bool:
        text, beats, pitch = key
        take = beat_frames(beats, 0.55, 22050) + crossfade_frames(22050)
        read = round(take * 44100 / (22050 * 2 ** (pitch / 12)))
        slot = beat_frames(beats, 0.5, 44100) + crossfade_frames(44100)
        return abs(read - slot) / slot >= 0.05

    pieces = [
        (tu.unit.text, tu.render_beats, tu.pitch) for q in plan.quarters for tu in q.timed
    ]
    assert len(stretched) == sum(map(off, set(pieces))) < sum(map(off, pieces))


def test_synthesize_missing_clip_annotated(tmp_path):
    config = Config(clip_dir=tmp_path, require_metre=False)
    with pytest.raises(ChantError) as info:
        synthesize("vande", config)
    assert info.value.stage == "clips"


def test_config_is_frozen():
    config = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.beat_seconds = 0
    # a changed copy goes through the same checks
    with pytest.raises(ConfigError, match="beat"):
        replace(config, beat_seconds=0)


def test_config_rejects_a_beat_that_is_not_a_number():
    # nor is a bool, though Python counts True as 1
    for bad in ("0.5", None, True):
        with pytest.raises(ConfigError, match="beat"):
            Config(beat_seconds=bad)


def test_config_rejects_a_beat_under_one_frame():
    # at 100 Hz the 5 ms crossfade rounds to no frame, so only this
    # check keeps a beat from rounding to none
    assert crossfade_frames(100) == 0
    assert beat_frames(1, 1 / 100, 100) == 1
    assert Config(beat_seconds=1 / 100, sample_rate=100, base_freq=5).beat_seconds == 1 / 100
    with pytest.raises(ConfigError, match="shorter than one frame at 100 Hz"):
        Config(beat_seconds=0.004, sample_rate=100, base_freq=5)
    # where the crossfade spans frames, its own check fires first
    with pytest.raises(ConfigError, match="5 ms crossfade"):
        Config(beat_seconds=1e-5)


def test_config_accepts_a_beat_of_one_crossfade_at_every_rate():
    # Config rounds one beat as the render does, so a beat of exactly
    # one crossfade passes at every rate, even where the float product
    # of beat and rate falls an ulp short of the crossfade's frames
    assert 0.005035971223021582 * 8340 < crossfade_frames(8340) == 42
    for rate in range(8000, 48001):
        beat = crossfade_frames(rate) / rate
        assert Config(sample_rate=rate, beat_seconds=beat).beat_seconds == beat


def test_a_provider_is_asked_for_its_slot_and_one_crossfade():
    # a bare provider is asked, once per distinct request, for each
    # chanted slot's beat_frames plus one crossfade, at a beat whose
    # slots do not round to whole beats of frames
    beat, rate = 0.334, 8340
    asked = []

    class Zeros(ClipProvider):
        def get_clip(self, request):
            asked.append(request)
            return AudioClip(np.zeros(request.n_frames, np.int16), rate)

    result = synthesize(SAMPLE_VERSE, Config(sample_rate=rate, beat_seconds=beat), store=Zeros())
    slots = [slot for quarter in result.plan.quarters for slot in quarter.slots()]
    xf = crossfade_frames(rate)
    want = {
        ClipRequest(tu.unit.text, Weight(beats - 1), beat_frames(beats, beat, rate) + xf, tu.pitch)
        for tu, beats in slots
        if tu is not None
    }
    assert beat_frames(2, beat, rate) != 2 * beat_frames(1, beat, rate)
    assert len(asked) == len(want) and set(asked) == want
    assert result.clip.n_frames == sum(beat_frames(beats, beat, rate) for _, beats in slots)
    assert not result.clip.samples.any()


def test_synthesize_refuses_a_render_longer_than_a_wav_holds(monkeypatch):
    # only beats whose render could not allocate even without the check;
    # the product of beats, beat and rate is compared before it is
    # rounded, so a product past the float range fails the same way
    for beat in (1e300, 1e305):
        config = Config(beat_seconds=beat)
        assert prepare(SAMPLE_VERSE, config).total_beats == 75  # scan still works
        with pytest.raises(ConfigError, match="frames a WAV file holds"):
            synthesize(SAMPLE_VERSE, config)
    # the bound itself: 75 half-second beats at 44.1 kHz are 1,653,750 frames
    monkeypatch.setattr(synthesis, "WAV_MAX_FRAMES", 1_653_749)
    with pytest.raises(ConfigError, match="75 beats of 0.5 s"):
        synthesize(SAMPLE_VERSE)
    monkeypatch.setattr(synthesis, "WAV_MAX_FRAMES", 1_653_750)
    assert synthesize(SAMPLE_VERSE).plan.total_beats == 75


def test_config_rejects_a_fractional_sample_rate():
    # a WAV header holds a whole number of frames per second
    with pytest.raises(ConfigError, match="sample rate"):
        Config(sample_rate=22050.5)
    with pytest.raises(ConfigError, match="sample rate"):
        Config(sample_rate=22050.0)
    # a bool fails as a sample rate, not later as a base frequency
    with pytest.raises(ConfigError, match="sample rate"):
        Config(sample_rate=True)
    assert Config(sample_rate=np.int64(22050)).sample_rate == 22050


def test_config_rejects_aliasing_base_freq():
    # the top harmonic of the synthetic vowel must stay below Nyquist
    assert HARMONICS == 4
    with pytest.raises(ConfigError, match="base frequency"):
        Config(sample_rate=8000, base_freq=1500)
    with pytest.raises(ConfigError, match="base frequency"):
        Config(sample_rate=8000, base_freq=8000 / (2 * HARMONICS))
    # nor may a shift up to PITCH_MAX lift it there: 990 Hz < 8000/8 still
    # aliases at +4, and the bound is about 793.7 Hz at 8 kHz
    with pytest.raises(ConfigError, match="base frequency"):
        Config(sample_rate=8000, base_freq=990)
    assert Config(sample_rate=8000, base_freq=790).base_freq == 790
    # a library caller's non-number is a ConfigError, not a TypeError
    for bad in ("220", None, True):
        with pytest.raises(ConfigError, match="base frequency"):
            Config(base_freq=bad)


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n_lines=st.integers(1, 4))
def test_beat_grid_slots_and_frames(rng, n_lines):
    config = Config(require_metre=False, sample_rate=8000, beat_seconds=0.02)
    text = "\n".join(random_text(rng) for _ in range(n_lines))
    result = synthesize(text, config)
    # an unmetred render still pitches a text that happens to fit a metre
    # (a random three-line text is now and then an Anuṣṭup)
    metre = result.plan.analysis.metre
    slots = []
    for q, quarter in enumerate(result.plan.quarters):
        assert result.plan.analysis.quarters[q] is quarter.timed
        want_pitch = metre.pitch_array(q) if metre else (0,) * len(quarter.timed)
        assert tuple(tu.pitch for tu in quarter.timed) == want_pitch
        want = []
        for pos, tu in enumerate(quarter.timed, start=1):
            want.append((tu, tu.render_beats))
            if tu.trailing_silence_beats:
                want.append((None, tu.trailing_silence_beats))
            if pos in quarter.caesuras:
                want.append((None, 1))
        assert quarter.slots() == tuple(want)
        assert quarter.total_beats == quarter.expected_beats + len(quarter.caesuras)
        slots.extend(quarter.slots())
    assert result.clip.n_frames == sum(beat_frames(b, 0.02, 8000) for _, b in slots)
    assert result.joins == len(slots) - 1


@settings(max_examples=40, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    n_lines=st.integers(1, 3),
    rate=st.integers(8000, 24000),
    extra=st.integers(0, 200),
)
def test_every_slot_starts_on_its_beat(rng, n_lines, rate, extra):
    # a whole-frame beat of at least one crossfade: the render is exactly
    # its slots' frames, and between the fades at its two ends each
    # chanted slot holds its clip's own samples, from its onset on
    xf = crossfade_frames(rate)
    beat = (xf + extra) / rate
    config = Config(require_metre=False, sample_rate=rate, beat_seconds=beat)
    voice = SyntheticVoice(config.base_freq, rate)
    served = {}

    class Serving(ClipProvider):
        def get_clip(self, request):
            served[request] = voice.get_clip(request)
            return served[request]

    text = "\n".join(random_text(rng) for _ in range(n_lines))
    result = synthesize(text, config, store=Serving())
    slots = [slot for quarter in result.plan.quarters for slot in quarter.slots()]
    frames = [beat_frames(beats, beat, rate) for _, beats in slots]
    assert result.clip.n_frames == sum(frames) == result.plan.total_beats * (xf + extra)
    onset = 0
    for (tu, beats), n in zip(slots, frames):
        if tu is not None:
            clip = served[beat_request(tu.unit.text, Weight(beats - 1), beat, tu.pitch, rate)]
            body = result.clip.samples[onset + xf : onset + n]
            assert np.array_equal(body, clip.samples[xf:n])
        onset += n


_VERSE_CHARS = st.sampled_from(
    list("aāiīuūeokgcjṭḍtdnpbmyrlvśṣshṃḥṅñṇ |\nxq4") + ["r̥", "ai", "वन्दे", "।", "॥"]
)


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(st.text(), st.lists(_VERSE_CHARS, max_size=60).map("".join)),
    require_metre=st.booleans(),
)
def test_prepare_fails_only_with_a_staged_chant_error(text, require_metre):
    try:
        prepare(text, Config(require_metre=require_metre))
    except ChantError as exc:
        assert exc.stage is not None
