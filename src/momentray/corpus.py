"""Fixed corpus of set-pair configurations for the inequality sweeps.

The corpus is built deterministically in code (and can be round-tripped
through JSON), so measured constants are comparable across runs and
machines.  Every entry keeps the parameter interval over the source set's
first-axis span and the window over the target's, which the pairing
identity requires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .sets import BoxUnionSet, Interval
from .sharpness import CounterexampleSpec, build_counterexample_f, build_xf_lower_bound
from .transform import QuadSpec, bilinear_form

CORPUS_VERSION = 1

# coarse spec used only to reject non-incident random draws
_PROBE_QUAD = QuadSpec(step=1.0 / 64.0)


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    E: BoxUnionSet
    F: BoxUnionSet
    interval: Interval
    window: Interval
    tags: tuple = ()

    def __post_init__(self):
        # d = 1 has no line complex
        if self.E.dim != self.F.dim or self.E.dim < 2:
            raise ValueError(
                f"entry {self.entry_id!r}: E and F must share a dimension of at "
                f"least 2, got {self.E.dim} and {self.F.dim}"
            )

    @property
    def dim(self):
        return self.E.dim


def _entry(entry_id, e_bounds, f_bounds, tags):
    E = BoxUnionSet(e_bounds)
    F = BoxUnionSet(f_bounds)
    return CorpusEntry(
        entry_id=entry_id,
        E=E,
        F=F,
        interval=E.first_axis_span(),
        window=F.first_axis_span(),
        tags=tuple(tags),
    )


def _box(*sides):
    return [list(s) for s in sides]


def _family_piece_entry(d, k):
    spec = CounterexampleSpec(dim=d, n_start=k, k_max=k)
    E = build_counterexample_f(spec).region
    F = build_xf_lower_bound(spec).region
    return CorpusEntry(
        entry_id=f"d{d}-family-k{k}",
        E=E,
        F=F,
        interval=E.first_axis_span(),
        window=F.first_axis_span(),
        tags=("family",),
    )


def _random_union_entry(d, index, rng):
    cells_per_axis = 4 if d == 2 else 3
    width = 2.0 / cells_per_axis
    total = cells_per_axis**d

    def pick_union(count):
        chosen = rng.choice(total, size=count, replace=False)
        bounds = []
        for flat in sorted(chosen):
            idx = np.unravel_index(flat, (cells_per_axis,) * d)
            lo = -1.0 + np.array(idx) * width + 0.05 * width
            hi = lo + 0.9 * width
            bounds.append(np.stack([lo, hi], axis=1))
        return BoxUnionSet(bounds)

    while True:
        E = pick_union(int(rng.integers(2, 4)))
        F = pick_union(int(rng.integers(2, 4)))
        span = E.first_axis_span()
        if bilinear_form(E, F, (span.lo, span.hi), _PROBE_QUAD) > 1e-4:
            break
    return CorpusEntry(
        entry_id=f"d{d}-random-{index}",
        E=E,
        F=F,
        interval=span,
        window=F.first_axis_span(),
        tags=("random",),
    )


def build_default_corpus():
    """The versioned list of configurations used by the sweep checks."""
    entries = [
        _entry("d2-unit", [_box((0, 1), (0, 1))], [_box((0, 1), (0, 1))], ("box",)),
        _entry(
            "d2-offset-x",
            [_box((0, 1), (0, 1))],
            [_box((0.2, 1.2), (0, 1))],
            ("box",),
        ),
        _entry(
            "d2-offset-y",
            [_box((0, 1), (0, 1))],
            [_box((0, 1), (0.3, 1.3))],
            ("box",),
        ),
        _entry(
            "d2-tall-source",
            [_box((0, 1), (-1, 1))],
            [_box((0, 1), (0, 1))],
            ("box",),
        ),
        _entry(
            "d2-thin-source-x",
            [_box((-0.1, 0.1), (-1, 1))],
            [_box((-1, 1), (-1, 1))],
            ("slab",),
        ),
        _entry(
            "d2-thin-source-y",
            [_box((-1, 1), (-0.1, 0.1))],
            [_box((-1, 1), (-1, 1))],
            ("slab",),
        ),
        _entry(
            "d2-thin-target",
            [_box((-1, 1), (-1, 1))],
            [_box((-1, 1), (-0.05, 0.05))],
            ("slab",),
        ),
        _entry(
            "d2-wide-source",
            [_box((-2, 2), (-1, 1))],
            [_box((0, 1), (0, 1))],
            ("box",),
        ),
        _entry(
            "d2-nested",
            [_box((-1, 1), (-1, 1))],
            [_box((-0.5, 0.5), (-0.5, 0.5))],
            ("box",),
        ),
        _entry(
            "d2-split-source",
            [_box((-1, -0.2), (0, 1)), _box((0.2, 1), (0, 1))],
            [_box((-0.5, 0.5), (0, 1))],
            ("union",),
        ),
        _entry(
            "d2-split-target",
            [_box((-0.5, 0.5), (0, 1))],
            [_box((-1, -0.2), (0, 1)), _box((0.2, 1), (0, 1))],
            ("union",),
        ),
        _family_piece_entry(2, 2),
        _family_piece_entry(2, 3),
        _family_piece_entry(2, 4),
        _entry("d3-unit", [_box((0, 1), (0, 1), (0, 1))], [_box((0, 1), (0, 1), (0, 1))], ("box",)),
        _entry(
            "d3-offset",
            [_box((0, 1), (0, 1), (0, 1))],
            [_box((0, 1), (0.2, 1.2), (0, 1))],
            ("box",),
        ),
        _entry(
            "d3-tall-source",
            [_box((0, 1), (-1, 1), (-1, 1))],
            [_box((0, 1), (0, 1), (0, 1))],
            ("box",),
        ),
        _entry(
            "d3-thin-source-x",
            [_box((-0.1, 0.1), (-1, 1), (-1, 1))],
            [_box((-1, 1), (-1, 1), (-1, 1))],
            ("slab",),
        ),
        _entry(
            "d3-thin-source-z",
            [_box((-1, 1), (-1, 1), (-0.1, 0.1))],
            [_box((-1, 1), (-1, 1), (-1, 1))],
            ("slab",),
        ),
        _entry(
            "d3-thin-target",
            [_box((-1, 1), (-1, 1), (-1, 1))],
            [_box((-1, 1), (-1, 1), (-0.05, 0.05))],
            ("slab",),
        ),
        _entry(
            "d3-nested",
            [_box((-1, 1), (-1, 1), (-1, 1))],
            [_box((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5))],
            ("box",),
        ),
        _entry(
            "d3-split-source",
            [
                _box((-1, -0.2), (0, 1), (0, 1)),
                _box((0.2, 1), (0, 1), (0, 1)),
            ],
            [_box((-0.5, 0.5), (0, 1), (0, 1))],
            ("union",),
        ),
        _family_piece_entry(3, 2),
        _family_piece_entry(3, 3),
    ]
    rng = np.random.default_rng(7)
    for i in range(4):
        entries.append(_random_union_entry(2, i, rng))
    for i in range(4):
        entries.append(_random_union_entry(3, i, rng))
    ids = [e.entry_id for e in entries]
    if len(set(ids)) != len(ids):
        raise RuntimeError("corpus ids must be unique")
    return entries


def entry_to_jsonable(entry):
    return {
        "id": entry.entry_id,
        "dim": entry.dim,
        "E": entry.E.to_jsonable(),
        "F": entry.F.to_jsonable(),
        "interval": [entry.interval.lo, entry.interval.hi],
        "window": [entry.window.lo, entry.window.hi],
        "tags": list(entry.tags),
    }


def entry_from_jsonable(data):
    entry = CorpusEntry(
        entry_id=data["id"],
        E=BoxUnionSet(data["E"]),
        F=BoxUnionSet(data["F"]),
        interval=Interval(*data["interval"]),
        window=Interval(*data["window"]),
        tags=tuple(data.get("tags", ())),
    )
    if "dim" in data and data["dim"] != entry.dim:
        raise ValueError(
            f"entry {entry.entry_id!r}: dim {data['dim']!r} disagrees with its "
            f"{entry.dim}-d boxes"
        )
    return entry


def save_corpus(entries, path):
    payload = {
        "version": CORPUS_VERSION,
        "entries": [entry_to_jsonable(e) for e in entries],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_corpus(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != CORPUS_VERSION:
        raise ValueError(f"unsupported corpus version: {payload.get('version')!r}")
    return [entry_from_jsonable(item) for item in payload["entries"]]
