"""Spans around the calls into each versechant layer, kept in memory.

The tracer wraps module-level names that ``versechant.synthesis`` calls,
the two clip providers' ``get_clip`` methods, and the dsp functions that
``versechant.audio_store`` imports.  The program itself is not changed:
wrappers are installed for one traced operation and removed after it.
Each wrapper records a span (name, start, end, parent, op id) and a few
counters taken from its arguments and result.

A wrapped name that no longer exists (a later refactor renamed or
removed it) does not stop the run: every layer built only from missing
names is reported as unmeasured.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from functools import wraps


def _n_letters(args, kwargs, result):
    return {"letters": len(result)}


def _n_units(args, kwargs, result):
    return {"units": len(result)}


def _pitch(args, kwargs, result):
    clip, semitones = args[0], args[1] if len(args) > 1 else kwargs["semitones"]
    return {"frames": clip.n_frames, "shifted": int(semitones != 0)}


def _concat(args, kwargs, result):
    clips = args[0] if args else kwargs["clips"]
    return {"joins": max(0, len(clips) - 1), "frames": result.n_frames}


def _write(args, kwargs, result):
    clip = args[0] if args else kwargs["clip"]
    return {"bytes": 2 * clip.n_frames}  # 16-bit mono sample data


# layer -> wrapped names, as (module, dotted attribute, counter function)
LAYERS = {
    "transliteration": (
        ("versechant.synthesis", "detect_devanagari", None),
        ("versechant.synthesis", "devanagari_to_latin", None),
        ("versechant.synthesis", "split_quarters", None),
        ("versechant.synthesis", "tokenize", _n_letters),
    ),
    "sandhi": (("versechant.synthesis", "apply_all", None),),
    "units": (("versechant.synthesis", "split_into_units", _n_units),),
    "prosody.db_load": (("versechant.synthesis", "load_metre_db", None),),
    "prosody.analyze": (("versechant.synthesis", "analyze_quarters", None),),
    "audio_store": (
        ("versechant.audio_store", "SyntheticVoice.get_clip", None),
        ("versechant.audio_store", "ClipDirectory.get_clip", None),
    ),
    "audio_store.read": (("versechant.audio_store", "read_wav", None),),
    "audio_store.resample": (("versechant.audio_store", "resample", None),),
    "audio_store.stretch": (("versechant.audio_store", "stretch_to_length", None),),
    "dsp.pitch": (("versechant.synthesis", "pitch_shift", _pitch),),
    "dsp.concat": (("versechant.synthesis", "concat", _concat),),
    "dsp.write": (("versechant.synthesis", "write_wav", _write),),
}

# Layers whose time the shares split an operation into; the audio_store
# entry is get_clip's own time, without the read, resample and stretch
# it calls.  "synthesis.self" is what no wrapped call covers.
SHARE_LAYERS = (
    "transliteration", "sandhi", "units", "prosody", "audio_store",
    "audio_store.read", "audio_store.resample", "audio_store.stretch",
    "dsp.pitch", "dsp.concat", "dsp.write", "synthesis.self",
)


def _resolve(module, dotted: str):
    """(owner, attribute name) for a dotted path, or None if it is gone."""
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


class Tracer:
    """Records spans for the operations run inside ``op()``."""

    def __init__(self, layers=LAYERS):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.ops = 0
        self._stack: list[int] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        present = defaultdict(bool)
        for layer, names in layers.items():
            for module_name, dotted, count in names:
                target = _resolve(importlib.import_module(module_name), dotted)
                if target is None:
                    self.missing.append(f"{module_name}.{dotted}")
                    continue
                present[layer] = True
                owner, attr = target
                original = getattr(owner, attr)
                self._patches.append(
                    (owner, attr, original, self._wrap(layer, original, count))
                )
        self.unmeasured = sorted(layer for layer in layers if not present[layer])

    def _wrap(self, layer, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.ops)
            counters[f"{layer}.calls"] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[f"{layer}.{key}"] += value
            return result

        return traced

    def op(self, fn, *args, **kwargs):
        """Run one operation with every wrapper installed, as the root span."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("op", start, end, -1, self.ops)
            self.ops += 1
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
        return result

    def layer_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total (inclusive) and self seconds per layer over all spans."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (layer, start, end, parent, _) in enumerate(self.spans):
            total[layer] += end - start
            own[layer] += end - start - child[k]
        return total, own

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# per-layer metric -> (layer, what): "s" is the layer's inclusive time,
# anything else a counter its wrappers keep
METRICS = (
    ("transliteration.s", "transliteration", "s"),
    ("transliteration.calls", "transliteration", "calls"),
    ("transliteration.letters", "transliteration", "letters"),
    ("sandhi.s", "sandhi", "s"),
    ("sandhi.calls", "sandhi", "calls"),
    ("units.s", "units", "s"),
    ("units.count", "units", "units"),
    ("prosody.s", "prosody", "s"),
    ("prosody.db_load.s", "prosody.db_load", "s"),
    ("prosody.db_loads", "prosody.db_load", "calls"),
    ("audio_store.s", "audio_store", "s"),
    ("audio_store.requests", "audio_store", "calls"),
    ("audio_store.read.s", "audio_store.read", "s"),
    ("audio_store.resample.s", "audio_store.resample", "s"),
    ("audio_store.stretch.s", "audio_store.stretch", "s"),
    ("dsp.pitch.s", "dsp.pitch", "s"),
    ("dsp.pitch.calls", "dsp.pitch", "calls"),
    ("dsp.pitch.shifted", "dsp.pitch", "shifted"),
    ("dsp.pitch.frames", "dsp.pitch", "frames"),
    ("dsp.concat.s", "dsp.concat", "s"),
    ("dsp.concat.joins", "dsp.concat", "joins"),
    ("dsp.concat.frames", "dsp.concat", "frames"),
    ("dsp.write.s", "dsp.write", "s"),
    ("dsp.write.bytes", "dsp.write", "bytes"),
)
# layers reported as the sum of others
COMPOSITE = {"prosody": ("prosody.db_load", "prosody.analyze")}


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-operation layer times and counts, and each layer's share of
    the traced operations' wall time.  Unmeasured layers map to None."""
    ops = max(1, tracer.ops)
    total, own = tracer.layer_seconds()
    gone = set(tracer.unmeasured)
    for layer, parts in COMPOSITE.items():
        total[layer] = sum(total[p] for p in parts)
        own[layer] = sum(own[p] for p in parts)
        if gone.issuperset(parts):
            gone.add(layer)
    own["synthesis.self"] = own["op"]

    out: dict[str, float | None] = {}
    for name, layer, what in METRICS:
        value = total[layer] if what == "s" else tracer.counters[f"{layer}.{what}"]
        out[name] = None if layer in gone else value / ops
    out["synthesis.self_s"] = own["op"] / ops
    wall = total["op"]
    for layer in SHARE_LAYERS:
        out[f"share.{layer}"] = None if layer in gone else own[layer] / (wall or 1.0)
    return out
