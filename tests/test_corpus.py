"""Tests for the deterministic configuration corpus."""

import hashlib
import json
import subprocess
import sys

import pytest

from momentray.corpus import CORPUS_VERSION, build_default_corpus, entry_from_jsonable, load_corpus
from momentray.transform import QuadSpec, bilinear_form
from oracles import entry_to_jsonable, save_corpus

PROBE = QuadSpec(step=1.0 / 64.0)

# per CORPUS_VERSION, the SHA-256 of the sorted-key JSON of every entry in order
CORPUS_SHA256 = {1: "6be75fd84240d918a5694d0459c9744ec1f30ca324299598a9b3fa4e48207f55"}


@pytest.fixture(scope="module")
def corpus():
    return build_default_corpus()


def test_corpus_size_and_unique_ids(corpus):
    assert len(corpus) >= 30
    ids = [e.entry_id for e in corpus]
    assert len(set(ids)) == len(ids)


def test_corpus_dimensions_covered(corpus):
    assert {e.dim for e in corpus} == {2, 3}
    tags = {tag for e in corpus for tag in e.tags}
    assert "family" in tags and "random" in tags


def test_corpus_is_pinned(corpus):
    text = json.dumps([entry_to_jsonable(e) for e in corpus], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256.get(CORPUS_VERSION), (
        "the default corpus changed: bump CORPUS_VERSION and record the new hash"
    )


def test_every_entry_is_incident(corpus):
    """Every entry pairs above 1e-5 at step 1/64; the frozen random unions,
    kept by a draw-and-probe loop at that bar, above 1e-4."""
    for entry in corpus:
        t = bilinear_form(entry.E, entry.F, entry.interval, PROBE)
        assert t > (1e-4 if "random" in entry.tags else 1e-5), entry.entry_id


def test_build_imports_no_random_or_polynomial():
    """A corpus build in a fresh interpreter draws nothing and pairs nothing,
    so it loads no numpy.random or numpy.polynomial module that importing
    numpy and the corpus module had not loaded (numpy 1.x loads them all
    eagerly, numpy 2.x on first use)."""
    code = (
        "import sys\n"
        "import numpy\n"
        "from momentray.corpus import build_default_corpus\n"
        "before = set(sys.modules)\n"
        "build_default_corpus()\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(m for m in new if m.startswith(('numpy.random', 'numpy.polynomial'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_intervals_cover_first_axis_spans(corpus):
    for entry in corpus:
        espan = entry.E.first_axis_span()
        fspan = entry.F.first_axis_span()
        assert entry.interval.lo <= espan.lo and espan.hi <= entry.interval.hi
        assert entry.window.lo <= fspan.lo and fspan.hi <= entry.window.hi


def test_build_is_deterministic(corpus):
    again = build_default_corpus()
    assert [entry_to_jsonable(e) for e in corpus] == [
        entry_to_jsonable(e) for e in again
    ]


def test_entry_json_round_trip(corpus):
    entry = corpus[0]
    clone = entry_from_jsonable(entry_to_jsonable(entry))
    assert entry_to_jsonable(clone) == entry_to_jsonable(entry)
    assert clone.dim == entry.dim
    assert clone.E.measure == entry.E.measure


def test_corpus_file_round_trip(tmp_path, corpus):
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert [entry_to_jsonable(e) for e in loaded] == [
        entry_to_jsonable(e) for e in corpus
    ]


def test_load_rejects_version_mismatch(tmp_path, corpus):
    path = tmp_path / "corpus.json"
    save_corpus(corpus[:2], path)
    payload = json.loads(path.read_text())
    payload["version"] = CORPUS_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_corpus(path)
