"""Syllable weights, metre records, and metre classification.

Two weights exist per unit: the isolated weight t (the unit chanted
alone) and the contextual weight v (the unit inside its quarter,
where a following conjunct can lengthen it).  Weights are 0 for light
(laghu) and 1 for heavy (guru), so a unit occupies weight + 1 beats.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path

from .alphabet import VowelLength
from .dsp import PITCH_MAX, PITCH_MIN
from .errors import MetreDbError, NoMatchingMetre, UndecodableFile
from .units import Unit

# Clusters that do not lengthen a preceding short nucleus unless the
# optional promotion is switched on.
_LIGHT_CLUSTERS = (("p", "r"), ("b", "r"), ("k", "r"), ("h",))


class Weight(enum.IntEnum):
    LAGHU = 0
    GURU = 1

    @property
    def tag(self) -> str:
        """Single-letter tag used in clip file names."""
        return "l" if self is Weight.LAGHU else "g"


@dataclass(frozen=True)
class WeightedUnit:
    unit: Unit
    isolated: Weight     # t
    contextual: Weight   # v


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


def contextual_weights(
    units: list[Unit], promote_light_clusters: bool = False
) -> list[Weight]:
    """Weights of the units chanted in sequence.

    A light unit turns heavy when its coda plus the next unit's onset
    form a cluster of two or more consonants.  Clusters of exactly
    p+r, b+r, k+r, or a lone h promote only when
    ``promote_light_clusters`` is set.  Context stops at the end of
    the sequence, so pass one quarter at a time.
    """
    weights = []
    for i, unit in enumerate(units):
        if isolated_weight(unit) is Weight.GURU:
            weights.append(Weight.GURU)
            continue
        cluster = list(unit.post_vowel)
        if i + 1 < len(units):
            cluster.extend(units[i + 1].pre_vowel)
        texts = tuple(l.text for l in cluster)
        if texts in _LIGHT_CLUSTERS:
            weights.append(Weight.GURU if promote_light_clusters else Weight.LAGHU)
        elif len(cluster) >= 2:
            weights.append(Weight.GURU)
        else:
            weights.append(Weight.LAGHU)
    return weights


def weigh_units(
    units: list[Unit], promote_light_clusters: bool = False
) -> list[WeightedUnit]:
    ctx = contextual_weights(units, promote_light_clusters)
    return [
        WeightedUnit(unit, isolated_weight(unit), v)
        for unit, v in zip(units, ctx)
    ]


def pattern_string(weights: list[Weight]) -> str:
    return "".join(str(int(w)) for w in weights)


# ---------------------------------------------------------------------------
# Metre records and the metre database

@dataclass(frozen=True)
class MetreRecord:
    """One metre: quarter shapes, rest positions, and pitch rows.

    ``pattern`` is four 0/1 strings or None for count-only metres.
    ``pitch_q13`` scores quarters 1 and 3, ``pitch_q24`` quarters 2
    and 4; pitches are semitone offsets from the base note.  The shape
    is checked at construction (``MetreDbError``), so a record's pitch
    rows always fit its quarters.
    """

    name: str
    syllables: tuple[int, int, int, int]
    pattern: tuple[str, str, str, str] | None
    caesura: tuple[int, ...]
    pitch_q13: tuple[int, ...]
    pitch_q24: tuple[int, ...]

    def __post_init__(self):
        name, syllables = self.name, self.syllables
        if len(syllables) != 4:
            raise MetreDbError(f"{name}: syllables needs 4 counts, got {len(syllables)}")
        pattern = self.pattern
        if pattern is not None:
            if len(pattern) != 4:
                raise MetreDbError(f"{name}: pattern needs 4 quarters, got {len(pattern)}")
            for q, tok in enumerate(pattern):
                if set(tok) - {"0", "1"}:
                    raise MetreDbError(f"{name}: pattern quarter {q + 1} is not binary")
                if len(tok) != syllables[q]:
                    raise MetreDbError(
                        f"{name}: pattern quarter {q + 1} has {len(tok)} marks "
                        f"for {syllables[q]} syllables"
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

    def caesura_positions(self, quarter: int) -> tuple[int, ...]:
        """1-based unit positions after which a rest falls; the
        quarter end is always included."""
        n = self.syllables[quarter]
        positions = {p for p in self.caesura if p <= n}
        positions.add(n)
        return tuple(sorted(positions))


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
    pattern = tuple(block["pattern"].split()) if "pattern" in block else None
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
        text = Path(path).read_text("utf-8")
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


def classify_metre(
    patterns: list[str], db: Sequence[MetreRecord]
) -> MetreRecord:
    """Find the first metre the observed quarters fit.

    ``patterns`` holds one 0/1 string per quarter.  The final syllable
    of each quarter is anceps: it matches either mark.  Records
    without a pattern match on syllable counts alone.
    """
    counts = [len(p) for p in patterns]
    for record in db:
        if tuple(counts) != record.syllables:
            continue
        if record.pattern is None:
            return record
        # last syllable of a quarter is anceps
        if all(obs[:-1] == want[:-1] for obs, want in zip(patterns, record.pattern)):
            return record
    raise NoMatchingMetre(counts, patterns)


# ---------------------------------------------------------------------------
# Whole-verse analysis

@dataclass(frozen=True)
class VerseAnalysis:
    """Weighed quarters plus the metre they fit (None when unmatched)."""

    quarters: tuple[tuple[WeightedUnit, ...], ...]
    metre: MetreRecord | None

    def pitches(self, quarter: int) -> tuple[int, ...]:
        """Semitone offsets for the quarter's units, flat without a metre."""
        if self.metre is None:
            return (0,) * len(self.quarters[quarter])
        return self.metre.pitch_array(quarter)

    def caesuras(self, quarter: int) -> tuple[int, ...]:
        """1-based rest positions; just the quarter end without a metre."""
        if self.metre is None:
            return (len(self.quarters[quarter]),)
        return self.metre.caesura_positions(quarter)


def _slice_by_counts(units: list[Unit], counts) -> list[list[Unit]]:
    out = []
    at = 0
    for n in counts:
        out.append(units[at : at + n])
        at += n
    return out


def _patterns(quarters) -> list[str]:
    return [pattern_string([wu.contextual for wu in quarter]) for quarter in quarters]


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
    with no metre.
    """
    weighted = [weigh_units(units, promote_light_clusters) for units in quarter_units]
    cuts = _cuts(weighted, quarter_units, db, promote_light_clusters)
    for quarters, records in cuts:
        try:
            metre = classify_metre(_patterns(quarters), records)
        except NoMatchingMetre:
            continue
        return VerseAnalysis(tuple(tuple(q) for q in quarters), metre)

    if require_metre:
        patterns = _patterns(weighted) if len(weighted) == 4 else None
        raise NoMatchingMetre([len(q) for q in weighted], patterns)
    return VerseAnalysis(tuple(tuple(q) for q in weighted), None)
