"""Compare what two source trees compute on the benchmark's inputs.

    python3 tools/compare_outputs.py TREE_A TREE_B

Each tree is run in one subprocess of its own, which imports that tree's
``src/acoufilt`` and ``perfbench/workloads.py`` and prints a digest: the
outcome of each ``synth`` spec, each ``fit`` result with its floats in hex,
and the sha256 of every file that each ``files`` session writes, run in a
temporary directory.  Inputs are taken in the order of seed 0.  Every
difference between the two digests is printed; the exit status is 1 if
there is any, else 0.  Standard library only, besides each tree's packages.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import os
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
    print(f"{len(lines)} differences in {len(a['synth'])} synth outcomes, "
          f"{len(a['fit'])} fit results and {outputs} outputs of "
          f"{len(a['files'])} files sessions")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
