"""Exception types raised across the chant pipeline.

Every error derives from ChantError so callers can catch the whole
family at once.  The synthesis driver annotates the pipeline stage and
the 1-based quarter on the way out (``stage``, ``quarter``).
"""

from __future__ import annotations


class ChantError(Exception):
    """Base class for all errors raised by this package."""

    #: pipeline stage name, filled in by the synthesis driver
    stage: str | None = None
    #: 1-based quarter (input chunk) the error arose in, when known
    quarter: int | None = None


class ConfigError(ChantError):
    """A rendering setting is out of range (beat, rate, base frequency)."""


class UnsupportedCodePoint(ChantError):
    """Input contains a code point the engine does not accept."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(
            f"unsupported code point U+{ord(char):04X} at position {position}"
        )


class UnknownCharacter(ChantError):
    """A character in romanized input matches no alphabet letter."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"no letter matches {char!r} at position {position}")


class UnknownLetter(ChantError):
    """A string was looked up that is not a letter of the alphabet."""

    def __init__(self, text: str):
        self.text = text
        super().__init__(f"{text!r} is not a letter of the alphabet")


class NoVowelInWord(ChantError):
    """A word contains no vowel and cannot form a syllabic unit."""

    def __init__(self, word_index: int, word_text: str = ""):
        self.word_index = word_index
        self.word_text = word_text
        shown = f" {word_text!r}" if word_text else ""
        super().__init__(f"word {word_index}{shown} has no vowel")


class MalformedTail(ChantError):
    """A word ends or continues in a shape no splitting rule covers."""

    def __init__(self, word_index: int, detail: str):
        self.word_index = word_index
        self.detail = detail
        super().__init__(f"word {word_index}: {detail}")


class NoMatchingMetre(ChantError):
    """No metre record matches the verse's syllable counts/patterns."""

    def __init__(self, counts, patterns=None):
        self.counts = tuple(counts)
        self.patterns = tuple(patterns) if patterns is not None else None
        super().__init__(f"no metre matches syllable counts {list(self.counts)}")


class MetreDbError(ChantError):
    """A metre database file is malformed."""


class UndecodableFile(ChantError):
    """A text file (verse text or metre database) is not valid UTF-8."""

    def __init__(self, path, reason: UnicodeDecodeError):
        self.path = path
        super().__init__(f"cannot decode {path} as UTF-8: {reason}")


class ClipUnavailable(ChantError):
    """The clip store has no recording for a requested unit."""

    def __init__(self, unit_text: str, weight_tag: str):
        self.unit_text = unit_text
        self.weight_tag = weight_tag
        super().__init__(f"no clip for unit {unit_text!r} ({weight_tag})")


class BadClip(ChantError):
    """A clip provider returned a clip of the wrong length or rate."""

    def __init__(self, unit_text: str, weight_tag: str, pitch: int, detail: str):
        self.unit_text = unit_text
        self.weight_tag = weight_tag
        self.pitch = pitch
        super().__init__(f"clip for unit {unit_text!r} ({weight_tag}) at pitch {pitch}: {detail}")


class BadWav(ChantError):
    """A WAV file could not be read in the supported format."""

    def __init__(self, path, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class SampleRateMismatch(ChantError):
    """Clips with different sample rates were concatenated."""

    def __init__(self, rates):
        self.rates = tuple(rates)
        super().__init__(f"cannot concatenate clips at rates {sorted(set(rates))}")


class EmptyVerse(ChantError):
    """The input text contains no verse material."""

    def __init__(self):
        super().__init__("verse text is empty")
