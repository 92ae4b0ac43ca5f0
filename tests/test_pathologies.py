"""Pinned pathology regression suite.

Every JSON entry committed under ``benchmarks/pathologies/`` was
discovered by ``repro fuzz``, greedily minimized, and promoted; each
pins the exact score and coloring digest observed at promotion time.
These tests replay every committed entry and demand a bitwise match --
any drift in the pipeline's cost or output on these adversarial
instances fails here before it can silently land.
"""

import pytest

from repro.experiments.spec import PATHOLOGY_DIR, SUITES, pathology_suite
from repro.fuzz import load_entries, replay_entry

ENTRIES = [entry for _path, entry in load_entries(PATHOLOGY_DIR)]


def _ids():
    return [e["id"] for e in ENTRIES]


class TestCommittedPathologies:
    def test_suite_is_seeded(self):
        # the repo ships at least two minimized pathological instances
        assert len(ENTRIES) >= 2

    def test_pathology_suite_registered(self):
        spec = SUITES["pathology"]
        cells = spec.cells()
        assert len(cells) == len(ENTRIES)
        assert all(c.to_dict()["suite"] == "pathology" for c in cells)

    @pytest.mark.parametrize("entry", ENTRIES, ids=_ids())
    def test_entry_is_deterministic_and_pinned(self, entry):
        # only deterministic objectives may be promoted: a pinned score
        # must be bitwise reproducible, which wall-clock never is
        assert entry["deterministic"] is True
        assert entry["cell"]["suite"] == "pathology"
        assert entry["metrics"].get("coloring_digest")

    @pytest.mark.parametrize("entry", ENTRIES, ids=_ids())
    def test_replay_reproduces_score_and_digest(self, entry):
        result = replay_entry(entry, timeout_s=120.0)
        assert result["status"] == "ok"
        assert result["score_ok"], (
            f"{entry['id']}: score drifted "
            f"{entry['score']} -> {result['score']}"
        )
        assert result["digest_ok"], (
            f"{entry['id']}: coloring digest drifted from "
            f"{entry['metrics']['coloring_digest']}"
        )
        assert result["ok"]


class TestCorruptPathologyEntries:
    @pytest.mark.parametrize(
        "text",
        ["{not json", "[1]", '{"id": "x"}'],
        ids=["bad_json", "not_object", "no_cell"],
    )
    def test_pathology_suite_names_the_file(self, tmp_path, text):
        (tmp_path / "x.json").write_text(text)
        with pytest.raises(ValueError, match="x.json"):
            pathology_suite(tmp_path)
