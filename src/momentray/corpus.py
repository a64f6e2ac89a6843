"""Fixed corpus of set-pair configurations for the inequality sweeps.

The corpus is data written in code (load_corpus reads one of the same form
from JSON), so measured constants are comparable across runs and machines.
Every entry keeps the parameter interval over the source set's first-axis
span and the window over the target's, which the pairing identity requires.

The eight ``random`` entries are frozen seed-7 draws: unions of two or three
cells of a lattice on [-1, 1]^d, held as flat cell indices.  A loop once
drew them on every build from numpy.random.default_rng(7) and kept a pair
once its pairing at step 1/64 exceeded 1e-4; on numpy 2.4.6 it rejected one
draw, the first for d3-random-1.  They are frozen because numpy keeps its
bit-generator streams stable but not what Generator.choice and integers
make of them, so a drawn corpus could change with the numpy version, and
because the draw and its probe pairings cost every build time.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .sets import BoxUnionSet, Interval

CORPUS_VERSION = 1

# The frozen seed-7 draws, (E cells, F cells) per entry, as flat indices in
# np.unravel_index order into the 4 x 4 (d = 2) or 3 x 3 x 3 (d = 3) lattice.
_RANDOM_UNIONS = {
    2: (
        ((8, 10, 14), (0, 3, 4)),
        ((0, 7, 13), (7, 13)),
        ((4, 11), (6, 7, 8)),
        ((12, 13, 15), (7, 14)),
    ),
    3: (
        ((4, 16, 22), (0, 3)),
        ((6, 26), (5, 26)),
        ((5, 9, 18), (4, 17, 20)),
        ((4, 13, 22), (1, 15, 20)),
    ),
}


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
    """Piece k of the example family: E is c_k +- k^-i on axis i and F, the
    minorant's piece, c_k +- k^-i / 2, with c_k = (0, k^2, ..., k^d)."""
    center = np.zeros(d)
    center[1:] = float(k) ** np.arange(2, d + 1)
    sides = float(k) ** np.arange(1, d + 1)
    e_half, f_half = 1.0 / sides, 0.5 / sides
    return _entry(
        f"d{d}-family-k{k}",
        [np.stack([center - e_half, center + e_half], axis=1)],
        [np.stack([center - f_half, center + f_half], axis=1)],
        ("family",),
    )


def _lattice_union(d, cells):
    """(count, d, 2) bounds of the given lattice cells, each shrunk to 0.9 of a
    cell width about its center."""
    cells_per_axis = 4 if d == 2 else 3
    width = 2.0 / cells_per_axis
    idx = np.stack(np.unravel_index(cells, (cells_per_axis,) * d), axis=1)
    lo = -1.0 + idx * width + 0.05 * width
    return np.stack([lo, lo + 0.9 * width], axis=2)


def build_default_corpus():
    """The versioned list of configurations used by the sweep checks.

    The last eight, d2-random-0..3 and d3-random-0..3, are the frozen seed-7
    draws of _RANDOM_UNIONS, taken once by the old draw-and-probe loop on
    numpy 2.4.6 (one draw rejected); frozen, they cannot move with numpy's
    Generator methods, and a build neither draws nor pairs.
    """
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
    entries += [
        _entry(f"d{d}-random-{i}", _lattice_union(d, e), _lattice_union(d, f), ("random",))
        for d, unions in _RANDOM_UNIONS.items()
        for i, (e, f) in enumerate(unions)
    ]
    return _checked(entries)


def _checked(entries):
    """The entries, refused when there are none or two share an id: a sweep
    over no entry checks nothing, and an id names one entry."""
    if not entries:
        raise ValueError("corpus has no entries")
    repeated = [i for i, n in Counter(e.entry_id for e in entries).items() if n > 1]
    if repeated:
        raise ValueError(f"corpus ids must be unique; repeated: {repeated}")
    return entries


def entry_from_jsonable(data):
    if not isinstance(data["id"], str):
        raise ValueError(f"entry id {data['id']!r} is not a string")
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


def load_corpus(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("a corpus file holds one JSON object")
    if payload.get("version") != CORPUS_VERSION:
        raise ValueError(f"unsupported corpus version: {payload.get('version')!r}")
    return _checked([entry_from_jsonable(item) for item in payload["entries"]])
