"""End-to-end chant rendering: verse text in, beat-aligned audio out.

The pipeline is: split the text into quarters, tokenize, apply sandhi
corrections, split into units, weigh and classify the metre, then
fetch one clip per unit at the pitch the metre's pitch row gives it,
and concatenate everything on the beat grid with rests at the
caesuras.  Both bundled providers sing each clip at its pitch: the
synthetic voice at its pitched frequency, a directory of recorded takes
by reading the take faster or slower and fitting it to its slot.  The
plan's quarters hold the analysis's own pitched units
(``prosody.TimedUnit``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .audio_store import (
    ClipDirectory,
    ClipProvider,
    ClipRequest,
    SyntheticVoice,
    check_base_freq,
    check_sample_rate,
    is_number,
)
from .dsp import (
    DEFAULT_SAMPLE_RATE,
    WAV_MAX_FRAMES,
    AudioClip,
    concat,
    crossfade_frames,
    pitch_shift,
    silence,
    write_wav,
)
from .errors import BadClip, ChantError, ConfigError, EmptyVerse
from .prosody import TimedUnit, VerseAnalysis, Weight, analyze_quarters, load_metre_db
from .sandhi import apply_all
from .transliteration import detect_devanagari, devanagari_to_latin, split_quarters, tokenize
from .units import Unit, split_into_units


def beat_frames(beats: int, beat_seconds: float, sample_rate: int) -> int:
    """Frames in a slot of ``beats`` beats: the one place the beat grid
    becomes frames, for ``Config``'s checks, the WAV bound, rests and
    clip requests alike.  A span past what a WAV file holds comes back
    as ``WAV_MAX_FRAMES + 1``, so no product is too large to round."""
    span = beats * beat_seconds * sample_rate
    return int(round(span)) if span <= WAV_MAX_FRAMES else WAV_MAX_FRAMES + 1


@dataclass(frozen=True)
class Config:
    """Rendering settings, validated once at construction and frozen,
    so a render never sees a value that skipped the checks."""

    beat_seconds: float = 0.5
    sample_rate: int = DEFAULT_SAMPLE_RATE
    base_freq: float = 220.0
    promote_light_clusters: bool = False
    metre_db_path: str | Path | None = None
    clip_dir: str | Path | None = None
    require_metre: bool = True

    def __post_init__(self):
        beat, rate, freq = self.beat_seconds, self.sample_rate, self.base_freq
        if not (is_number(beat) and math.isfinite(beat) and beat > 0):
            raise ConfigError(f"beat must be a positive number of seconds, got {beat!r}")
        check_sample_rate(rate)
        check_base_freq(freq, rate)
        # a one-beat slot, rounded as the render rounds it
        one = beat_frames(1, beat, rate)
        if one < crossfade_frames(rate):
            # its piece would be shorter than the tail it overlaps
            raise ConfigError(
                f"a beat of {beat} s rounds to fewer frames than the 5 ms crossfade"
            )
        if one < 1:
            raise ConfigError(f"a beat of {beat} s is shorter than one frame at {rate} Hz")


@dataclass(frozen=True)
class QuarterPlan:
    timed: tuple[TimedUnit, ...]
    caesuras: tuple[int, ...]  # 1-based positions followed by a one-beat rest

    @property
    def expected_beats(self) -> int:
        """Beats the quarter owes the metre: sum of v + 1."""
        return sum(int(tu.contextual) + 1 for tu in self.timed)

    @property
    def actual_beats(self) -> int:
        """Beats the bare clips would fill: sum of t + 1."""
        return sum(int(tu.isolated) + 1 for tu in self.timed)

    def slots(self) -> tuple[tuple[TimedUnit | None, int], ...]:
        """The quarter's pieces in grid order with their beats: the one
        place the grid's piece layout is decided.  A chanted unit is
        ``(unit, render_beats)``; a rest is ``(None, beats)``, first the
        unit's trailing silence, then the caesura rest."""
        out: list[tuple[TimedUnit | None, int]] = []
        for pos, tu in enumerate(self.timed, start=1):
            out.append((tu, tu.render_beats))
            if tu.trailing_silence_beats:
                out.append((None, tu.trailing_silence_beats))
            if pos in self.caesuras:
                out.append((None, 1))
        return tuple(out)

    @property
    def total_beats(self) -> int:
        return sum(beats for _, beats in self.slots())


@dataclass(frozen=True)
class VersePlan:
    analysis: VerseAnalysis
    quarters: tuple[QuarterPlan, ...]

    @property
    def total_beats(self) -> int:
        return sum(q.total_beats for q in self.quarters)

    @property
    def joins(self) -> int:
        """Joins between the clips of the render: units, rests, silences."""
        return max(0, sum(len(q.slots()) for q in self.quarters) - 1)


@dataclass(frozen=True)
class RenderResult:
    clip: AudioClip
    plan: VersePlan
    wav_path: Path | None = None

    @property
    def joins(self) -> int:
        """Joins between the render's pieces: ``plan.joins``."""
        return self.plan.joins


@contextmanager
def _stage(name: str, quarter: int | None = None):
    # annotate errors with the stage and 1-based quarter they escaped from
    try:
        yield
    except ChantError as exc:
        if exc.stage is None:
            exc.stage = name
        if exc.quarter is None:
            exc.quarter = quarter
        raise


def _check_clip(clip: AudioClip, request: ClipRequest, rate: int) -> None:
    """Raise ``BadClip`` unless the clip has the rate and length the
    ``ClipProvider`` contract asks of it."""
    want = request.n_frames
    if clip.sample_rate != rate or clip.n_frames != want:
        raise BadClip(
            request.unit_text, request.weight.tag, request.pitch,
            f"{clip.n_frames} frames at {clip.sample_rate} Hz, not {want} at {rate} Hz",
        )


def split_text(text: str) -> list[list[Unit]]:
    """The front end: verse text to syllabic units, one list per quarter.

    Devanagari is converted to its romanized form, the text is split
    into quarter chunks, and each chunk is tokenized, sandhi-corrected
    and split into units.  Errors carry the stage they escaped from
    and, from tokenizing on, the 1-based number of their chunk.
    """
    with _stage("transliteration"):
        if detect_devanagari(text):
            text = devanagari_to_latin(text)
        chunks = split_quarters(text)
    with _stage("input"):
        if not chunks:
            raise EmptyVerse()

    quarter_units: list[list[Unit]] = []
    for q, chunk in enumerate(chunks, start=1):
        with _stage("tokenize", q):
            stream = tokenize(chunk)
        with _stage("sandhi", q):
            stream = apply_all(stream)
        with _stage("unit split", q):
            quarter_units.append(split_into_units(stream))
    return quarter_units


def prepare(text: str, config: Config | None = None) -> VersePlan:
    """Analyze verse text into a beat-exact rendering plan (no audio)."""
    config = config if config is not None else Config()
    quarter_units = split_text(text)
    with _stage("metre"):
        db = load_metre_db(config.metre_db_path)
        analysis = analyze_quarters(
            quarter_units,
            db,
            promote_light_clusters=config.promote_light_clusters,
            require_metre=config.require_metre,
        )

    plans = tuple(
        QuarterPlan(timed, analysis.caesuras(q))
        for q, timed in enumerate(analysis.quarters)
    )
    return VersePlan(analysis, plans)


def synthesize(
    text: str,
    config: Config | None = None,
    out_path: str | Path | None = None,
    store: ClipProvider | None = None,
) -> RenderResult:
    """Render a verse to one audio clip, optionally writing a WAV file.

    Each quarter's slots are rendered in grid order: a unit's clip at
    the metre's pitch, as the ``ClipProvider`` contract has the store
    sing it, or a rest of silence.  Every piece but the last is its
    slot's ``beat_frames`` plus one crossfade, a tail that fades under
    the next slot, so each slot starts on its beat and the render is
    exactly the sum of its slots' frames.  Each slot's clip request is
    built once, and the distinct ones, pitch included, go to the store
    in one ``get_clips`` call in grid order, so a recorded take is read
    and vocoded at most once per (unit, weight, frames, pitch); a
    directory of takes may fit two at a time.  Each clip is checked as
    it arrives: a clip off the contract's rate or length raises
    ``BadClip``, and a store on the serial default is asked for no
    clip after it.
    Without a store or a ``clip_dir``, the store is a ``SyntheticVoice``
    at ``config.base_freq``, built for the render; the consonant bursts
    every voice shares outlive it (see ``audio_store``).  A render
    longer than a WAV file holds (``dsp.WAV_MAX_FRAMES``) raises
    ``ConfigError`` before any audio is made.
    """
    config = config if config is not None else Config()
    plan = prepare(text, config)
    beat, rate = config.beat_seconds, config.sample_rate
    slots = [slot for quarter in plan.quarters for slot in quarter.slots()]
    frames = [beat_frames(beats, beat, rate) for _, beats in slots]
    if sum(frames) > WAV_MAX_FRAMES:
        raise ConfigError(
            f"{plan.total_beats} beats of {beat} s are more than the "
            f"{WAV_MAX_FRAMES} frames a WAV file holds"
        )
    if store is None and config.clip_dir is not None:
        store = ClipDirectory(config.clip_dir, rate)
    elif store is None:
        store = SyntheticVoice(config.base_freq, rate)
    xf = crossfade_frames(rate)
    # each piece is its slot plus a tail that fades under the next slot;
    # the last, the last quarter's end rest, has no slot to fade under
    lengths = [n + xf for n in frames]
    lengths[-1] -= xf
    requests = [
        None if tu is None else ClipRequest(tu.unit.text, Weight(beats - 1), n, tu.pitch)
        for (tu, beats), n in zip(slots, lengths)
    ]
    distinct = list(dict.fromkeys(r for r in requests if r is not None))
    clips: dict[ClipRequest, AudioClip] = {}
    with _stage("render"):
        with _stage("clips"):
            for request, clip in zip(distinct, store.get_clips(distinct), strict=True):
                _check_clip(clip, request, rate)
                clips[request] = clip
        # pitch_shift(clip, 0) is a no-op the benchmark still wraps and
        # times as its pitch layer
        pieces = [
            silence(n, rate) if request is None else pitch_shift(clips[request], 0)
            for request, n in zip(requests, lengths)
        ]
        clip = concat(pieces, xf)
    wav_path = None
    if out_path is not None:
        wav_path = Path(out_path)
        with _stage("output"):
            write_wav(clip, wav_path)
    return RenderResult(clip, plan, wav_path)
