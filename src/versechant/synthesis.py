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
    check_base_freq,
    check_sample_rate,
    default_voice,
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
        if beat * rate < crossfade_frames(rate):
            # a one-beat piece would be shorter than the tail it overlaps
            raise ConfigError(f"a beat of {beat} s is shorter than the 5 ms crossfade")
        if beat * rate <= 0.5:  # beat_frames would round one beat to no frame
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
    joins: int
    wav_path: Path | None = None


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
    want = request.n_frames(rate)
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
    if not chunks:
        err = EmptyVerse()
        err.stage = "input"
        raise err

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
    slot plus one crossfade, a tail that fades under the next slot, so
    each slot starts on its beat and the render is exactly the sum of
    its slots' ``beat_frames``.  Each distinct clip request, pitch
    included, goes to the store once per render, so a recorded take is
    read and vocoded at most once per (unit, weight, beat, pitch), and
    its clip is checked once: a clip off the contract's rate or length
    raises ``BadClip``.
    Without a store or a ``clip_dir``, the store is the process's synthetic voice
    (``audio_store.default_voice``), whose parts outlive the render.  A
    render longer than a WAV file holds (``dsp.WAV_MAX_FRAMES``) raises
    ``ConfigError`` before any audio is made.
    """
    config = config if config is not None else Config()
    plan = prepare(text, config)
    beat, rate = config.beat_seconds, config.sample_rate
    # compared as a float, so a product too large to round fails here too
    if plan.total_beats * beat * rate > WAV_MAX_FRAMES:
        raise ConfigError(
            f"{plan.total_beats} beats of {beat} s are more than the "
            f"{WAV_MAX_FRAMES} frames a WAV file holds"
        )
    if store is None and config.clip_dir is not None:
        store = ClipDirectory(config.clip_dir, rate)
    elif store is None:
        store = default_voice(config.base_freq, rate)
    xf = crossfade_frames(rate)
    clips: dict[ClipRequest, AudioClip] = {}
    with _stage("render"):
        pieces: list[AudioClip] = []
        for quarter in plan.quarters:
            for tu, beats in quarter.slots():
                if tu is None:
                    pieces.append(silence(beats, beat, rate, tail=xf))
                    continue
                request = ClipRequest(tu.unit.text, Weight(beats - 1), beat, tu.pitch)
                with _stage("clips"):
                    clip = clips.get(request)
                    if clip is None:
                        clip = clips[request] = store.get_clip(request)
                        _check_clip(clip, request, rate)
                # a no-op the benchmark still wraps and times as its pitch layer
                pieces.append(pitch_shift(clip, 0))
        # the last piece, the last quarter's end rest, has no slot to fade under
        last = pieces[-1].samples
        pieces[-1] = AudioClip(last[: len(last) - xf], rate)
        clip = concat(pieces, xf)
    wav_path = None
    if out_path is not None:
        wav_path = Path(out_path)
        with _stage("output"):
            write_wav(clip, wav_path)
    return RenderResult(clip, plan, joins=plan.joins, wav_path=wav_path)
