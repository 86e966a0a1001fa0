"""File framing of every JSON and CSV file the package writes.

JSON files are written with two-space indentation and a final newline; the
model, space and scene formats are objects tagged {"format": "lensdist-<kind>",
"version": N}.  CSV files have one fixed header row, then LF-ended rows whose
text cells are written as they are and numbers with 17 significant digits, so
they read back exactly.  The readers accept CRLF line ends too.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, Sequence


def check_header(data, kind: str, fmt: str, version: int) -> None:
    """Raise ValueError unless data is an object tagged with fmt and version, free of booleans."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} JSON must be an object")
    if data.get("format") != fmt:
        raise ValueError(f"expected format {fmt!r}, got {data.get('format')!r}")
    if data.get("version") != version:
        raise ValueError(f"unsupported {kind} version {data.get('version')!r}")
    pending = [data]
    while pending:  # no field is boolean, and Python would take true for the number 1
        item = pending.pop()
        if isinstance(item, bool):
            raise ValueError(f"{kind} JSON holds {json.dumps(item)} where a number belongs")
        if isinstance(item, (dict, list)):
            pending.extend(item.values() if isinstance(item, dict) else item)


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON ({err})") from err


def save_json(path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header, then one line per row: a str cell as it is, any other as a float."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else format(float(v), ".17g") for v in row])


def read_csv(path, header: Sequence[str]) -> list[list[str]]:
    """The nonempty rows after the header; each must have len(header) cells."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)!r}, got {found!r}")
        rows = [row for row in reader if row]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: expected {len(header)} fields, got row {row!r}")
    return rows
