import importlib.util
from pathlib import Path

import numpy as np
import pytest

from acoufilt import io_formats
from acoufilt.io_formats import read_touchstone

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _digest(rm="0x1.0000000000000p+0", converged=True, sha="ab", sessions=1):
    fit = {"params": {"rm": rm, "lm": "0x1.8p-30"}, "iterations": 3, "converged": converged}
    return {"synth": [{"evaluations": 600, "cost": "-0x1.2p+1"}],
            "fit": [fit, {"error": "SearchError: MBVD fit diverged"}],
            "files": [{"session": i, "exit_codes": [0] * 5, "sha256": {"fit.kv": sha}}
                      for i in range(sessions)],
            "reads": [{"header": {"format": "RI"}, "s": "ef"},
                      {"error": "FormatError", "line": 2, "message": "line 2: ..."}]}


def test_identical_digests_have_no_differences():
    assert compare_outputs.differences(_digest(), _digest()) == []


def test_each_differing_leaf_is_named_by_its_path():
    a, b = _digest(), _digest(rm="0x1.0000000000001p+0", converged=False, sha="cd")
    assert compare_outputs.differences(a, b) == [
        "files[0].sha256.fit.kv: 'ab' in A, 'cd' in B",
        "fit[0].converged: True in A, False in B",
        "fit[0].params.rm: '0x1.0000000000000p+0' in A, '0x1.0000000000001p+0' in B",
    ]


def test_missing_keys_and_entries_are_differences():
    a, b = _digest(sessions=2), _digest()
    del b["fit"][0]["iterations"]
    b["fit"][1]["traceback"] = "..."
    assert compare_outputs.differences(a, b) == [
        "files: 2 entries in A, 1 in B",
        "fit[0].iterations: only in A",
        "fit[1].traceback: only in B",
    ]


@pytest.mark.parametrize("other, code", [(_digest(), 0), (_digest(sha="cd"), 1)])
def test_exit_status_is_1_when_any_output_differs(monkeypatch, capsys, other, code):
    digests = iter([_digest(), other])
    monkeypatch.setattr(compare_outputs, "_run_tree", lambda tree: next(digests))
    assert compare_outputs.main(["A", "B"]) == code
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == (f"{code} differences in 1 synth outcomes, 2 fit results, 1 outputs "
                    "of 1 files sessions and 2 Touchstone reads (1 read, 1 errors)")


def test_the_corpus_holds_each_kind_of_text():
    texts = compare_outputs.touchstone_corpus()
    assert texts == compare_outputs.touchstone_corpus() != compare_outputs.touchstone_corpus(1)
    assert compare_outputs.READ_CHUNK == io_formats._READ_CHUNK
    assert sum(len(t) > 2 * compare_outputs.READ_CHUNK for t in texts) == 6
    assert any(t.startswith("! ") for t in texts)
    assert any("\r\n" in t for t in texts)
    assert any(not t.endswith("\n") for t in texts)
    noise = " ".join("%.16e" % v for v in (0.8, 0.3, 45.0, 0.2)) + "\n"
    assert any(noise in t for t in texts)
    # Each overflowing token in each format's frequency column (0) and in
    # the first (1) and second (2) column of a pair.
    placed = set()
    for t in texts:
        fmt = next((word for line in t.splitlines() if line.startswith("# ")
                    for word in line.split() if word in ("RI", "MA", "DB")), None)
        for line in t.splitlines():
            for i, tok in enumerate(line.split()):
                if tok in compare_outputs._OVERFLOWING:
                    placed.add((fmt, 0 if i == 0 else 2 - i % 2, tok))
    assert placed >= {(fmt, column, tok) for fmt in ("RI", "MA", "DB") for column in (0, 1, 2)
                      for tok in compare_outputs._OVERFLOWING}
    assert all(tok not in t for t in texts if len(t) > 2 * compare_outputs.READ_CHUNK
               for tok in compare_outputs._OVERFLOWING)


def test_read_outcomes_name_the_bits_or_the_error():
    text = "# GHz S RI R 50\n1 0.5 -0.25\n"
    data = read_touchstone(text)
    got = compare_outputs._read_outcome(read_touchstone, text)
    assert got["header"] == {"frequency_unit": "GHz", "parameter": "S", "format": "RI",
                             "reference_resistance": (50.0).hex()}
    flipped = data.s.copy()
    flipped.imag = np.nextafter(flipped.imag, 0.0)
    with_flip = compare_outputs._read_outcome(
        lambda t: io_formats.TouchstoneData(data.header, data.freq_hz, flipped), text)
    assert compare_outputs.differences(got, with_flip) == [
        f"s: {got['s']!r} in A, {with_flip['s']!r} in B"]
    assert compare_outputs._read_outcome(read_touchstone, text + "2 0.5\n") == {
        "error": "FormatError", "line": 3,
        "message": "line 3: expected 3 (1-port) or 9 (2-port) columns, got 2"}
