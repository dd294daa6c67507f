"""versechant: tuneful text-to-speech for metrical Sanskrit verse.

Verse text (romanized or Devanagari) is parsed into syllabic units,
each unit is weighed light or heavy, the metre supplies a pitch
contour, and per-unit clips are concatenated on a beat grid into a
chant.
"""

from .dsp import AudioClip, concat, pitch_shift, read_wav, silence, write_wav
from .errors import ChantError
from .prosody import Weight, load_metre_db
from .synthesis import Config, RenderResult, prepare, synthesize

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "ChantError",
    "Config",
    "RenderResult",
    "Weight",
    "concat",
    "load_metre_db",
    "pitch_shift",
    "prepare",
    "read_wav",
    "silence",
    "synthesize",
    "write_wav",
    "__version__",
]
