"""By how much the artifacts of two tools/artifact_digests.py --keep runs differ.

    python3 tools/artifact_diff.py A B

A and B hold one subdirectory per config. For every artifact that is not
byte-identical (config_used.txt, which names its directory, is skipped) it
prints one line:

    <config> <artifact> max_rel <x> (<column>) differing <columns>

Each artifact is read as a table. A `key = v1,v2,...` line (report.txt) gives
the columns key[0], key[1], ...; any other line splits at commas or
whitespace into positional columns, named by the CSV header line where there
is one (the chain CSVs). A column's scale is the largest magnitude of its
numbers in either file, and max_rel is the largest |a - b| over the scale of
its column. In a chain CSV, a c_ column whose values agree better after a
change of sign (|a + b| < |a - b|) is listed as sign-flipped, and counts with
its aligned difference: an eigenvector's sign is arbitrary. The line also
gives the number of rows whose `accepted` flag differs. An artifact whose
lines, comments or non-numeric tokens (nan and inf among them) differ is
reported as `layout differs`. The last line counts the artifacts compared, identical and different.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

SKIP = {"config_used.txt"}


def number(token: str) -> float | None:
    """The token's value if it is a finite number; nan and inf count as text."""
    try:
        x = float(token)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def table(path: str) -> tuple:
    """(layout, columns): layout holds every comment and non-numeric token,
    columns maps a column name to its numbers in file order."""
    layout, columns = [], {}
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                layout.append(line)
                continue
            key, sep, value = line.partition(" = ")
            if sep:
                names = [f"{key}[{i}]" for i in range(value.count(",") + 1)]
                tokens = value.split(",")
            else:
                tokens = re.split(r"[,\s]+", line.strip())
                if header is None and all(number(t) is None for t in tokens):
                    header = tokens
                    layout.append(line)
                    continue
                names = [header[i] if header and i < len(header) else str(i)
                         for i in range(len(tokens))]
            for name, token in zip(names, tokens):
                x = number(token)
                if x is None:
                    layout.append((name, token))
                else:
                    columns.setdefault(name, []).append(x)
    return layout, columns


def compare(path_a: str, path_b: str) -> str:
    """The report line of two artifacts that are not byte-identical."""
    layout_a, cols_a = table(path_a)
    layout_b, cols_b = table(path_b)
    if layout_a != layout_b or {k: len(v) for k, v in cols_a.items()} != {
            k: len(v) for k, v in cols_b.items()}:
        return "layout differs"
    chain = os.path.basename(path_a).startswith("chain_")
    rel, flipped = {}, []
    for name, a in cols_a.items():
        b = cols_b[name]
        scale = max(max(abs(x) for x in a), max(abs(y) for y in b)) or 1.0
        diff = max(abs(x - y) for x, y in zip(a, b))
        if chain and name.startswith("c_"):
            aligned = max(abs(x + y) for x, y in zip(a, b))
            if aligned < diff:
                flipped.append(name)
                diff = aligned
        if diff > 0:
            rel[name] = diff / scale
    parts = []
    if rel:
        worst = max(rel, key=rel.get)
        parts.append(f"max_rel {rel[worst]:.2e} ({worst}) differing {','.join(rel)}")
    else:
        parts.append("max_rel 0")
    if flipped:
        parts.append(f"sign-flipped {','.join(flipped)}")
    if "accepted" in cols_a:
        changed = sum(x != y for x, y in zip(cols_a["accepted"], cols_b["accepted"]))
        parts.append(f"accepted rows differing {changed}")
    return " ".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="artifact directory of the first run")
    parser.add_argument("b", help="artifact directory of the second run")
    args = parser.parse_args()

    compared = identical = 0
    for config in sorted(set(os.listdir(args.a)) | set(os.listdir(args.b))):
        dirs = [os.path.join(root, config) for root in (args.a, args.b)]
        names = [set(os.listdir(d)) - SKIP if os.path.isdir(d) else set()
                 for d in dirs]
        for name in sorted(names[0] ^ names[1]):
            print(f"{config} {name} only in {'A' if name in names[0] else 'B'}")
        for name in sorted(names[0] & names[1]):
            paths = [os.path.join(d, name) for d in dirs]
            compared += 1
            with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
                if fa.read() == fb.read():
                    identical += 1
                    continue
            print(f"{config} {name} {compare(*paths)}", flush=True)
    print(f"{compared} artifacts compared: {identical} identical, "
          f"{compared - identical} differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
