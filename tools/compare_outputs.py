"""Compare what two source trees compute on the benchmark's inputs.

    python3 tools/compare_outputs.py TREE_A TREE_B

Each tree is run in one subprocess of its own, which imports that tree's
``src/acoufilt`` and ``perfbench/workloads.py`` and prints a digest: the
outcome of each ``synth`` spec, each ``fit`` result with its floats in hex,
the sha256 of every file that each ``files`` session writes, run in a
temporary directory, and the outcome of ``read_touchstone`` on each text of
a seeded corpus (``touchstone_corpus``): the header and the sha256 of the
frequency and S bits, or the error's class, line and message.  Inputs are
taken in the order of seed 0.  Every difference between the two digests is
printed; the exit status is 1 if there is any, else 0.  Standard library
only, besides each tree's packages.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path


def _plain(v):
    """v as JSON: dataclasses as dicts, floats in hex, enums by name."""
    if dataclasses.is_dataclass(v):
        return {f.name: _plain(getattr(v, f.name)) for f in dataclasses.fields(v)}
    if hasattr(v, "item"):  # a numpy scalar
        v = v.item()
    if isinstance(v, enum.Enum):
        return v.name
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


# Characters per pass of the Touchstone table reader (io_formats._READ_CHUNK):
# the corpus's long texts are read in more than one pass.
READ_CHUNK = 3 * 2**16
# Numbers outside the table reader's proven range, rounding ties, and zeros.
_ODD_NUMBERS = (0.0, -0.0, 5e-324, 1e-290, 1e290, 9007199254740993.0, 18014398509481983.0)
# What a character edit puts in: digits and the writer's characters, and
# characters the line walk reads or refuses.
_EDIT_CHARS = "0123456789.e+- \nE!#x\t"


def touchstone_corpus(seed: int = 0, count: int = 3000) -> list[str]:
    """count seeded Touchstone texts: one- and two-port "%.16e" rows in RI,
    MA or DB format, some with CRLF endings, a leading comment, noise rows
    or no final newline, then 0 to 3 character edits.  Every 500th text is
    longer than two READ_CHUNKs and has at most one edit."""
    rng = random.Random(seed)
    texts = []
    for i in range(count):
        long = i % 500 == 0
        fmt = rng.choice(("RI", "MA", "DB"))
        width = rng.choice((3, 9))
        rows = 2 * READ_CHUNK // (23 * width) + 1 if long else rng.randint(1, 24)
        lines = ["! measured by hand"] if rng.random() < 0.125 else []
        lines.append(f"# {rng.choice(('Hz', 'MHz', 'GHz'))} S {fmt} R {rng.choice((50, 75))}")
        freqs = list(itertools.accumulate(rng.uniform(0.001, 1.0) for _ in range(rows)))
        for f in freqs:
            row = [f]
            for _ in range(width // 2):
                if fmt == "RI":
                    pair = [rng.gauss(0.0, 0.5), rng.gauss(0.0, 0.5)]
                else:
                    mag = rng.random()
                    pair = [20.0 * math.log10(mag) if fmt == "DB" else mag,
                            rng.uniform(-180.0, 180.0)]
                if rng.random() < 0.02:
                    # Not as a DB magnitude, which would mostly overflow.
                    pair[1 if fmt == "DB" else rng.randrange(2)] = rng.choice(_ODD_NUMBERS)
                row += pair
            lines.append(" ".join("%.16e" % v for v in row))
        if width == 9 and rng.random() < 0.125:
            # The noise block starts at the first frequency, below the last.
            lines += [" ".join("%.16e" % v for v in (freqs[0] + k, 0.8, 0.3, 45.0, 0.2))
                      for k in range(rng.randint(1, 3))]
        end = "\r\n" if rng.random() < 0.125 else "\n"
        text = end.join(lines) + (end if rng.random() >= 0.125 else "")
        for _ in range(rng.randint(0, 1 if long else 3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.choice(("insert", "replace", "delete"))
            text = (text[:at] + (rng.choice(_EDIT_CHARS) if edit != "delete" else "")
                    + text[at + (edit != "insert"):])
        texts.append(text)
    return texts


def _read_outcome(read, text: str) -> dict:
    """read(text) as JSON: the header and the sha256 of the frequency and S
    bits, or the class, line and message of its error."""
    try:
        data = read(text)
    except Exception as exc:
        return {"error": type(exc).__name__, "line": getattr(exc, "line", None),
                "message": str(exc)}
    return {"header": _plain(data.header),
            "freq": hashlib.sha256(data.freq_hz.tobytes()).hexdigest(),
            "s": hashlib.sha256(data.s.tobytes()).hexdigest()}


def _outcome(workload, item, opdir):
    """The op's result as JSON, or the class and message of its error."""
    try:
        return _plain(workload.op(workload.prepare(item, opdir)))
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def digest(tree: Path) -> dict:
    """The digest of tree, whose packages must be the ones on sys.path."""
    import acoufilt
    import workloads
    from acoufilt.io_formats import read_touchstone

    for module in (acoufilt, workloads):
        if tree not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"{module.__name__} is not imported from {tree}")
    out = {"files": []}
    for name in ("synth", "fit"):
        w = workloads.WORKLOADS[name]()
        out[name] = [_outcome(w, item, None) for item in w.inputs(0)]
    w = workloads.Files()
    with tempfile.TemporaryDirectory() as tmp:
        for session in w.inputs(0):
            opdir = Path(tmp, str(session.index))
            opdir.mkdir()
            prepared = w.prepare(session, str(opdir))
            inputs = set(opdir.iterdir())
            codes = w.op(prepared)
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(set(opdir.iterdir()) - inputs)}
            out["files"].append({"session": session.index, "exit_codes": codes,
                                 "sha256": files})
    out["reads"] = [_read_outcome(read_touchstone, text) for text in touchstone_corpus()]
    return out


def differences(a, b, path: str = "") -> list[str]:
    """One line per leaf where the digests a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        lines = []
        for key in sorted(a.keys() | b.keys(), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in b:
                lines.append(f"{where}: only in A")
            elif key not in a:
                lines.append(f"{where}: only in B")
            else:
                lines += differences(a[key], b[key], where)
        return lines
    if isinstance(a, list) and isinstance(b, list):
        lines = [] if len(a) == len(b) else [f"{path}: {len(a)} entries in A, {len(b)} in B"]
        for i, (x, y) in enumerate(zip(a, b)):
            lines += differences(x, y, f"{path}[{i}]")
        return lines
    return [] if a == b else [f"{path}: {a!r} in A, {b!r} in B"]


def _run_tree(tree: Path) -> dict:
    """The digest of tree, computed in a subprocess that imports its packages."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree / "perfbench")])
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, __file__, "--digest", str(tree)], env=env,
                              cwd=cwd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    parser.add_argument("--digest", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digest:
        json.dump(digest(args.digest), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees, TREE_A and TREE_B")
    a, b = (_run_tree(tree.resolve()) for tree in args.trees)
    lines = differences(a, b)
    for line in lines:
        print(line)
    outputs = sum(len(s["sha256"]) for s in a["files"])
    errors = sum("error" in r for r in a["reads"])
    print(f"{len(lines)} differences in {len(a['synth'])} synth outcomes, "
          f"{len(a['fit'])} fit results, {outputs} outputs of "
          f"{len(a['files'])} files sessions and {len(a['reads'])} Touchstone reads "
          f"({len(a['reads']) - errors} read, {errors} errors)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
