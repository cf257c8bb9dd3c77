"""tools/same_outputs.py on the first benchmark pass of each workload at
seed 7, its comparison and --record.  The full check (8 passes, seeds 7-9) is the
tool itself, a step of CI.  Loading the tool puts perfbench/ on sys.path,
as the tool does when run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

NOTHING = "e3b0c44298fc1c14"  # the digest of no results: sha256 of b""

# (results, instance_test_set results, completion trace) of the first
# pass at seed 7
FIRST_PASS = {
    "graver-lift": ("21367365a5be71ee", NOTHING, "d84259bea4ca137d"),
    "bounded-qp": ("08ee99f09e3b1e5b", "1cc17e86e1c60e20", "5fbbe0805a91ec52"),
    "qap-n3": ("833cf6215fd277b6", "8906d95405d0b58a", "f1ab970cbe45fad6"),
    "walk-dense": ("b16a8d5c486808b7", NOTHING, "bb488e678ddfb074"),
}


@pytest.mark.parametrize("name", list(FIRST_PASS))
def test_first_pass_digests(name):
    assert same_outputs.run(name, 7, 1) == FIRST_PASS[name]


def test_every_difference_is_reported():
    want = {"results": {"w 7": "a", "w 8": "b"}, "instance_test_set": {"w 7": "c"}}
    assert same_outputs.mismatches(want, want) == []
    got = {"results": {"w 7": "a", "w 9": "d"}, "instance_test_set": {"w 7": "x"}}
    assert same_outputs.mismatches(got, want) == [
        "instance_test_set w 7: x, recorded c",
        "results w 8: None, recorded b",
        "results w 9: d, recorded None",
    ]


class TestRecord:
    """--record rewrites just the digests it names and compares the rest."""

    RECORDED = {"results": {"w 7": "a", "w 8": "b"}, "completion": {"w 7": "c"}}
    GOT = {"results": {"w 7": "a", "w 8": "B"}, "completion": {"w 7": "C"}}

    def test_only_the_named_entries_change(self):
        got = same_outputs.record(self.GOT, self.RECORDED, ["completion w 7"])
        assert got == {"results": {"w 7": "a", "w 8": "b"}, "completion": {"w 7": "C"}}
        assert same_outputs.mismatches(self.GOT, got) == ["results w 8: B, recorded b"]
        assert self.RECORDED["completion"] == {"w 7": "c"}

    @pytest.mark.parametrize("name", ["completion w 9", "nothing w 7", "results"])
    def test_unknown_key_refused(self, name):
        with pytest.raises(ValueError, match="no digest"):
            same_outputs.record(self.GOT, self.RECORDED, ["results w 8", name])

    def run_main(self, monkeypatch, tmp_path, capsys, argv, digests=None):
        path = tmp_path / "digests.json"
        path.write_text(json.dumps(self.RECORDED))
        monkeypatch.setattr(same_outputs, "DIGESTS", path)
        monkeypatch.setattr(same_outputs, "digests", digests or (lambda: self.GOT))
        code = same_outputs.main(argv)
        return code, json.loads(path.read_text()), capsys.readouterr().err

    def test_main_records_and_still_compares(self, monkeypatch, tmp_path, capsys):
        code, written, err = self.run_main(monkeypatch, tmp_path, capsys,
                                           ["--record", "completion w 7"])
        assert written == {"results": {"w 7": "a", "w 8": "b"}, "completion": {"w 7": "C"}}
        assert (code, err) == (1, "same_outputs: results w 8: B, recorded b\n")
        code, written, err = self.run_main(monkeypatch, tmp_path, capsys,
                                           ["--record", "completion w 7", "results w 8"])
        assert written == self.GOT and (code, err) == (0, "")

    def test_main_writes_nothing_on_an_unknown_key(self, monkeypatch, tmp_path, capsys):
        # refused before any digest is computed
        def digests():
            raise AssertionError("digests computed for an unknown key")

        code, written, err = self.run_main(monkeypatch, tmp_path, capsys,
                                           ["--record", "completion w 7", "results w 9"],
                                           digests)
        assert (code, written) == (2, self.RECORDED) and "results w 9" in err

    def test_main_accepts_a_key_of_the_scheme_before_it_is_recorded(
            self, monkeypatch, tmp_path, capsys):
        # "bases trace 4" is a key digests() fills, though not recorded here
        code, written, err = self.run_main(monkeypatch, tmp_path, capsys,
                                           ["--record", "bases trace 4"],
                                           lambda: {**self.GOT, "bases": {"trace 4": "T"}})
        assert written["bases"] == {"trace 4": "T"} and code == 1


def test_recorded_digests_cover_every_workload_and_seed():
    recorded = json.loads(same_outputs.DIGESTS.read_text())
    seeds = same_outputs.SEEDS
    assert sorted(recorded["results"]) == sorted(
        "%s %d" % (w, s) for w in (*same_outputs.WORKLOADS, same_outputs.SIGNED)
        for s in seeds)
    assert sorted(recorded["instance_test_set"]) == sorted(
        "%s %d" % (w, s) for w in same_outputs.TEST_SET_WORKLOADS for s in seeds)
    assert sorted(recorded["completion"]) == sorted(
        "%s %d" % (w, s) for w in same_outputs.WORKLOADS for s in seeds)
    # the key scheme --record checks names against is the recorded one
    assert {kind: sorted(keys) for kind, keys in same_outputs.keys().items()} == {
        kind: sorted(entries) for kind, entries in recorded.items()}


def test_completion_trace_is_the_debug_records():
    """The completion digest reads the DEBUG records of the graver and
    testset loggers and nothing above DEBUG, and leaves their levels as
    it found them."""
    graver = same_outputs.logging.getLogger("graveropt.graver")
    level = graver.level
    with same_outputs.recorded_completion() as trace:
        graver.debug("lift step %d", 1)
        graver.info("not a completion record")
        same_outputs.logging.getLogger("graveropt.testset").debug("box: %d", 2)
    graver.debug("after")
    assert trace == ["lift step 1", "box: 2"]
    assert graver.level == level


def test_signed_draws_match_their_recording():
    """Every draw of seed 7 has a negative pair in W = 2Q (a term row
    with a -1), and the draws' solve_qap results hash to the digest
    recorded before to_cip rephrased such data pairwise."""
    draws = same_outputs.signed_draws(7)
    assert all(any(-1 in t.coeffs for t in same_outputs.qap.to_cip(q).objective.terms)
               for q in draws)
    recorded = json.loads(same_outputs.DIGESTS.read_text())
    assert same_outputs.signed(7) == recorded["results"]["qap-signed 7"]


def test_bases_entry_covers_both_limits():
    """The bases digests and their trace digests, recorded at the
    default int64 limit and at 4, agree: the completion's dtype never
    changes a basis, nor a lift step's start columns, |det|,
    candidates, rounds or elements."""
    recorded = json.loads(same_outputs.DIGESTS.read_text())["bases"]
    assert sorted(recorded) == ["limit 4", "limit default", "trace 4", "trace default"]
    assert recorded["limit 4"] == recorded["limit default"]
    assert recorded["trace 4"] == recorded["trace default"]
    matrices = same_outputs.basis_matrices()
    assert len(matrices) == 716 and len(set(matrices)) > 650
