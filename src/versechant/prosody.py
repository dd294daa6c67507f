"""Syllable weights, metre records, and metre classification.

Two weights exist per unit: the isolated weight t (the unit chanted
alone) and the contextual weight v (the unit inside its quarter,
where a following conjunct can lengthen it).  Weights are 0 for light
(laghu) and 1 for heavy (guru), so a unit occupies weight + 1 beats.
A unit's one record, its ``TimedUnit``, is pitched by the metre's row.

Beat accounting: a unit whose chanted time t falls short of its
metrical time v gets the difference as trailing silence when it ends
a word, and is chanted long (stretched clip) when it does not, so
every quarter fills exactly its expected beats.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources
from pathlib import Path

from .alphabet import VowelLength
from .dsp import PITCH_MAX, PITCH_MIN
from .errors import MetreDbError, NoMatchingMetre, UndecodableFile
from .units import LIGHT_CLUSTERS, Unit


class Weight(enum.IntEnum):
    LAGHU = 0
    GURU = 1

    @property
    def tag(self) -> str:
        """Single-letter tag used in clip file names."""
        return "l" if self is Weight.LAGHU else "g"


@dataclass(frozen=True)
class TimedUnit:
    """A unit scheduled on the beat grid.

    ``isolated`` (t) and ``contextual`` (v) are the unit's weights;
    the unit is chanted for ``render_beats`` and followed by
    ``trailing_silence_beats`` of rest, together always v + 1 beats.
    """

    unit: Unit
    isolated: Weight
    contextual: Weight
    pitch: int = 0

    @property
    def trailing_silence_beats(self) -> int:
        """A short-chanted unit (t < v) pads with v - t beats of silence
        at a word end; mid-word it stretches instead."""
        t, v = int(self.isolated), int(self.contextual)
        return v - t if t < v and self.unit.word_final else 0

    @property
    def render_beats(self) -> int:
        """Beats the unit is chanted for: what its trailing silence
        leaves of max(t, v) + 1."""
        t, v = int(self.isolated), int(self.contextual)
        return max(t, v) + 1 - self.trailing_silence_beats


def isolated_weight(unit: Unit) -> Weight:
    """Weight of the unit chanted on its own."""
    if unit.vowel.length is VowelLength.LONG:
        return Weight.GURU
    if unit.post_vowel:
        if unit.post_vowel[-1].is_tail_marker:
            return Weight.GURU
        if sum(1 for l in unit.post_vowel if l.is_consonantish) >= 2:
            return Weight.GURU
    return Weight.LAGHU


def weigh_units(
    units: list[Unit], promote_light_clusters: bool = False
) -> list[TimedUnit]:
    """The units with their isolated weight t and their weight v when
    chanted in sequence, at pitch 0.

    A light unit turns heavy in sequence when its coda plus the next
    unit's onset form a cluster of two or more consonants.  A cluster
    that is exactly one of ``units.LIGHT_CLUSTERS`` (p+r, b+r, k+r, a
    lone h) promotes only when ``promote_light_clusters`` is set.  Context stops at the end of
    the sequence, so pass one quarter at a time.
    """
    weighted = []
    for i, unit in enumerate(units):
        t = v = isolated_weight(unit)
        if t is Weight.LAGHU:
            cluster = unit.post_vowel
            if i + 1 < len(units):
                cluster += units[i + 1].pre_vowel
            if tuple(l.text for l in cluster) in LIGHT_CLUSTERS:
                v = Weight.GURU if promote_light_clusters else Weight.LAGHU
            elif len(cluster) >= 2:
                v = Weight.GURU
        weighted.append(TimedUnit(unit, t, v))
    return weighted


def pattern_string(weights: list[Weight]) -> str:
    return "".join(str(int(w)) for w in weights)


# ---------------------------------------------------------------------------
# Metre records and the metre database

@dataclass(frozen=True)
class MetreRecord:
    """One metre: quarter shapes, rest positions, and pitch rows.

    ``pattern`` holds each quarter's marks: ``0`` light, ``1`` heavy,
    ``x`` either; a quarter may list alternatives separated by ``/``.
    ``pitch_q13`` scores quarters 1 and 3, ``pitch_q24`` quarters 2
    and 4; pitches are semitone offsets from the base note.  The shape
    is checked at construction (``MetreDbError``), so a record's marks
    and pitch rows always fit its quarters.
    """

    name: str
    syllables: tuple[int, int, int, int]
    pattern: tuple[str, str, str, str]
    caesura: tuple[int, ...]
    pitch_q13: tuple[int, ...]
    pitch_q24: tuple[int, ...]

    def __post_init__(self):
        name, syllables, pattern = self.name, self.syllables, self.pattern
        if len(syllables) != 4:
            raise MetreDbError(f"{name}: syllables needs 4 counts, got {len(syllables)}")
        if min(syllables) < 1:
            raise MetreDbError(f"{name}: every quarter needs a syllable, got {syllables}")
        if len(pattern) != 4:
            raise MetreDbError(f"{name}: pattern needs 4 quarters, got {len(pattern)}")
        for q, marks in enumerate(pattern):
            for alt in marks.split("/"):
                if len(alt) != syllables[q] or set(alt) - set("01x"):
                    raise MetreDbError(
                        f"{name}: pattern quarter {q + 1}: {alt!r} is not "
                        f"{syllables[q]} marks of 0, 1 or x"
                    )
        for p in self.caesura:
            if not 1 <= p <= max(syllables):
                raise MetreDbError(f"{name}: caesura position {p} out of range")
        for row, want_a, want_b, label in (
            (self.pitch_q13, syllables[0], syllables[2], "pitch_q13"),
            (self.pitch_q24, syllables[1], syllables[3], "pitch_q24"),
        ):
            if len(row) != want_a or len(row) != want_b:
                raise MetreDbError(f"{name}: {label} length does not match syllables")
            for p in row:
                if not PITCH_MIN <= p <= PITCH_MAX:
                    raise MetreDbError(f"{name}: pitch {p} outside {PITCH_MIN}..{PITCH_MAX}")

    def pitch_array(self, quarter: int) -> tuple[int, ...]:
        """Pitch row for quarter index 0..3."""
        return self.pitch_q13 if quarter % 2 == 0 else self.pitch_q24


def _parse_int_list(value: str, where: str) -> tuple[int, ...]:
    value = value.strip()
    if not value:
        return ()
    try:
        return tuple(int(tok) for tok in value.replace(",", " ").split())
    except ValueError:
        raise MetreDbError(f"{where}: expected integers, got {value!r}") from None


def parse_metre_db(text: str) -> list[MetreRecord]:
    """Parse the plain-text metre database format.

    Records are blank-line-separated blocks of ``key: value`` lines;
    ``#`` starts a comment line.  Required keys: name, syllables (4
    counts), pitch_q13, pitch_q24.  Optional: pattern (4 binary
    strings), caesura (1-based positions).
    """
    records = []
    block: dict[str, str] = {}
    lines = text.splitlines() + [""]
    for raw in lines:
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if block:
                records.append(_build_record(block))
                block = {}
            continue
        if ":" not in line:
            raise MetreDbError(f"expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in block:
            raise MetreDbError(f"duplicate key {key!r} in one record")
        block[key] = value.strip()
    return records


def _build_record(block: dict[str, str]) -> MetreRecord:
    try:
        name = block["name"]
        syllables = _parse_int_list(block["syllables"], "syllables")
        pitch_q13 = _parse_int_list(block["pitch_q13"], "pitch_q13")
        pitch_q24 = _parse_int_list(block["pitch_q24"], "pitch_q24")
    except KeyError as exc:
        raise MetreDbError(f"record missing required key {exc.args[0]!r}") from None
    all_x = " ".join("x" * n for n in syllables)
    pattern = tuple(block.get("pattern", all_x).split())
    caesura = _parse_int_list(block.get("caesura", ""), "caesura")
    return MetreRecord(name, syllables, pattern, caesura, pitch_q13, pitch_q24)


def load_metre_db(path: str | Path | None = None) -> tuple[MetreRecord, ...]:
    """Load a metre database file, or the bundled one when path is None.

    The bundled database is parsed once per process; a file given by
    path is read on every call, so edits to it show at once.
    """
    if path is None:
        return _bundled_metre_db()
    try:
        text = Path(path).read_text("utf-8-sig")  # a byte-order mark may lead
    except UnicodeDecodeError as exc:
        raise UndecodableFile(path, exc) from None
    return _records(text)


@cache
def _bundled_metre_db() -> tuple[MetreRecord, ...]:
    return _records(
        resources.files("versechant").joinpath("data/metres.txt").read_text("utf-8")
    )


def _records(text: str) -> tuple[MetreRecord, ...]:
    records = tuple(parse_metre_db(text))
    if not records:
        raise MetreDbError("metre database holds no records")
    return records


@lru_cache(maxsize=64)
def _quarter_rule(marks: str) -> re.Pattern:
    # one regex alternative per mark alternative; x and the last mark match any weight
    return re.compile("|".join(alt[:-1].replace("x", ".") + "." for alt in marks.split("/")))


def classify_metre(
    patterns: list[str], db: Sequence[MetreRecord]
) -> MetreRecord:
    """Find the first metre the observed quarters fit.

    ``patterns`` holds one 0/1 string per quarter.  A record fits when
    its syllable counts agree and, in every quarter, every mark but the
    last (anceps) is ``x`` or equals the weight, under some alternative.
    """
    counts = tuple(len(p) for p in patterns)
    for record in db:
        if counts == record.syllables and all(
            _quarter_rule(marks).fullmatch(obs) for obs, marks in zip(patterns, record.pattern)
        ):
            return record
    raise NoMatchingMetre(counts, patterns)


# ---------------------------------------------------------------------------
# Whole-verse analysis

@dataclass(frozen=True)
class VerseAnalysis:
    """Weighed quarters, pitched by the metre they fit; the metre is
    None and every pitch 0 when unmatched."""

    quarters: tuple[tuple[TimedUnit, ...], ...]
    metre: MetreRecord | None

    def caesuras(self, quarter: int) -> tuple[int, ...]:
        """1-based positions after which a one-beat rest falls: the
        metre's caesuras within the quarter, plus the quarter end."""
        n = len(self.quarters[quarter])
        caesura = self.metre.caesura if self.metre is not None else ()
        return tuple(sorted({p for p in caesura if p <= n} | {n}))


def _slice_by_counts(units: list[Unit], counts) -> list[list[Unit]]:
    out = []
    at = 0
    for n in counts:
        out.append(units[at : at + n])
        at += n
    return out


def _patterns(quarters) -> list[str]:
    return [pattern_string([tu.contextual for tu in quarter]) for quarter in quarters]


def _cuts(weighted, quarter_units, db, promote):
    """Candidate (quarters, records) pairs, in the order they are tried."""
    if len(quarter_units) == 4:
        yield weighted, db
        return
    pooled = [unit for units in quarter_units for unit in units]
    for record in db:
        if sum(record.syllables) == len(pooled):
            sliced = _slice_by_counts(pooled, record.syllables)
            yield [weigh_units(s, promote) for s in sliced], [record]


def analyze_quarters(
    quarter_units: list[list[Unit]],
    db: Sequence[MetreRecord],
    promote_light_clusters: bool = False,
    require_metre: bool = True,
) -> VerseAnalysis:
    """Weigh the quarters and find their metre.

    Each candidate cut of the units into four quarters is checked with
    ``classify_metre``.  Four chunks are one cut, checked against the
    whole database.  Any other chunk count means the verse came without
    usable quarter marks, so the pooled unit sequence is re-cut by the
    syllable counts of each record whose total matches, and each cut
    is checked against its own record, in file order.  With
    ``require_metre`` off an unmatched verse is kept chunk-per-quarter
    with no metre.  A matched verse's units are pitched from the
    metre's rows; an unmatched one keeps pitch 0.
    """
    weighted = [weigh_units(units, promote_light_clusters) for units in quarter_units]
    cuts = _cuts(weighted, quarter_units, db, promote_light_clusters)
    for quarters, records in cuts:
        try:
            metre = classify_metre(_patterns(quarters), records)
        except NoMatchingMetre:
            continue
        pitched = tuple(
            tuple(
                # a unit at the base note keeps the record the weighing made
                TimedUnit(tu.unit, tu.isolated, tu.contextual, pitch) if pitch else tu
                for tu, pitch in zip(units, metre.pitch_array(q))
            )
            for q, units in enumerate(quarters)
        )
        return VerseAnalysis(pitched, metre)

    if require_metre:
        patterns = _patterns(weighted) if len(weighted) == 4 else None
        raise NoMatchingMetre([len(q) for q in weighted], patterns)
    return VerseAnalysis(tuple(tuple(q) for q in weighted), None)
