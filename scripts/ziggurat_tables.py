#!/usr/bin/env python3
"""Print `lacsim/_ziggurat.py`: numpy's normal ziggurat tables as source constants.

numpy's `Generator.standard_normal` draws from a 256-layer ziggurat whose
tables `ki_double` (uint64[256]) and `wi_double` (float64[256]) are
read-only data of the member `src_distributions_distributions.c.o` of
`numpy/random/lib/libnpyrandom.a`.  This script extracts that member with
`ar x`, finds the two symbols with `readelf -sW` and their section's file
offset with `readelf -SW`, and prints a module holding the 512 values.

    python scripts/ziggurat_tables.py > src/lacsim/_ziggurat.py
"""
import argparse
import subprocess
import tempfile
from pathlib import Path

import numpy as np

MEMBER = "src_distributions_distributions.c.o"
SYMBOLS = {"ki_double": "<u8", "wi_double": "<f8"}
SIZE = 256


def default_archive() -> Path:
    return Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _readelf(flag: str, path: Path) -> list[list[str]]:
    text = subprocess.run(["readelf", flag, str(path)], check=True, capture_output=True,
                          text=True).stdout
    return [line.replace("[ ", "[").split() for line in text.splitlines()]


def read_tables(archive: Path) -> tuple[list[int], list[float]]:
    """(ki, wi) as numpy's build of `archive` holds them."""
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["ar", "x", str(archive), MEMBER], cwd=tmp, check=True)
        obj = Path(tmp) / MEMBER
        data = obj.read_bytes()
        # section rows read "[Nr] Name Type Address Off Size ..."
        offsets = {row[0].strip("[]"): int(row[4], 16) for row in _readelf("-SW", obj)
                   if len(row) > 5 and row[0].startswith("[") and row[0][1:-1].isdigit()}
        # symbol rows read "Num: Value Size Type Bind Vis Ndx Name"
        tables = {}
        for row in _readelf("-sW", obj):
            if len(row) == 8 and row[7] in SYMBOLS:
                value, size, section = int(row[1], 16), int(row[2]), row[6]
                if size != 8 * SIZE:
                    raise ValueError(f"{row[7]} is {size} bytes, not {8 * SIZE}")
                start = offsets[section] + value
                tables[row[7]] = np.frombuffer(data[start:start + size], dtype=SYMBOLS[row[7]])
    missing = set(SYMBOLS) - set(tables)
    if missing:
        raise ValueError(f"{archive} has no symbol {', '.join(sorted(missing))}")
    return tables["ki_double"].tolist(), tables["wi_double"].tolist()


def render(ki: list[int], wi: list[float]) -> str:
    """The source text of `lacsim/_ziggurat.py` for these tables."""
    lines = ['"""numpy\'s 256-layer ziggurat tables for `Generator.standard_normal`.',
             "",
             "`ki_double` and `wi_double` of numpy/random/src/distributions, as numpy's",
             "build holds them; generated by scripts/ziggurat_tables.py.",
             '"""', "", "KI = ("]
    lines += ["    " + " ".join(f"0x{v:016x}," for v in ki[j:j + 4]) for j in range(0, SIZE, 4)]
    lines += [")", "", "WI = ("]
    lines += ["    " + " ".join(f"{v!r}," for v in wi[j:j + 3]) for j in range(0, SIZE, 3)]
    lines += [")", ""]
    return "\n".join(lines)


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    print(render(*read_tables(default_archive())), end="")


if __name__ == "__main__":
    main()
