"""Exception types shared across the package, the framing every text
format shares (the line reader that names a bad line, the header check of
a CSV input, and the writer of a CSV table output), and the field type
check of the config dataclasses.

The CLI maps these onto exit codes: bad input or configuration exits 2,
runtime failures (including optimizer divergence) exit 3, and commands
whose result set is empty exit 4.
"""

import csv
import dataclasses
import numbers
from contextlib import nullcontext


class InputDataError(ValueError):
    """A file, record, or configuration value failed validation."""


def checked_lines(lines, parse, first_lineno: int = 1) -> list:
    """parse(line) for each raw line of `lines` that is not blank (all
    whitespace), in order, with None results dropped.

    parse holds one format's rules for a single line: it returns None for a
    line the format skips and raises InputDataError for a bad one, which is
    raised again as 'line N: <message>'. Lines count from first_lineno, and
    every line counts, skipped ones included.
    """
    rows = []
    try:
        for lineno, line in enumerate(lines, first_lineno):
            if not line.isspace() and (row := parse(line)) is not None:
                rows.append(row)
    except InputDataError as exc:
        raise InputDataError(f"line {lineno}: {exc}") from None
    return rows


def checked_header(fh, header: str) -> None:
    """Read fh's first line; raise InputDataError unless it strips to header."""
    got = fh.readline().strip()
    if got != header:
        raise InputDataError(f"expected header {header!r}, got {got!r}")


def open_out(out):
    """`out` as a context manager of a writable text file: a path is opened
    for the block and closed after it, an open file is used as it is."""
    return (nullcontext(out) if hasattr(out, "write")
            else open(out, "w", encoding="utf-8", newline=""))


def write_csv(out, header: str, rows) -> None:
    """The comma-separated header, then each row of the iterable rows, as CSV
    with \\n line ends to `out`, a path or an open text file. Cells go
    through str(), so a float that must round-trip is passed as its repr()."""
    with open_out(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


_NUMBERS = {int: numbers.Integral, float: numbers.Real}


def _is_a(value, kind) -> bool:
    """value fits a field annotated `kind`; a tuple field holds reals, and
    a bool is not a number."""
    if kind is tuple and isinstance(value, (list, tuple)):
        return all(_is_a(v, float) for v in value)
    return isinstance(value, _NUMBERS.get(kind, kind)) and not isinstance(value, bool)


def checked_fields(config) -> None:
    """Check every field of the dataclass instance `config` against its
    annotation and store it as that type: int(value), float(value), a
    tuple of floats or the str. A value that does not fit raises
    InputDataError "config key 'X': expected <type>, got <value>".
    """
    for field in dataclasses.fields(config):
        value, kind = getattr(config, field.name), field.type
        ok = _is_a(value, kind)
        if ok:
            try:
                value = tuple(map(float, value)) if kind is tuple else kind(value)
            except OverflowError:  # an int too large for a float
                ok = False
        if not ok:
            raise InputDataError(
                f"config key {field.name!r}: expected {kind.__name__}, got {value!r}")
        object.__setattr__(config, field.name, value)  # frozen dataclasses too


class EmptyResultError(RuntimeError):
    """A command produced no output rows."""


class TrainingDivergedError(RuntimeError):
    """Loss or a gradient became non-finite during optimization."""

    def __init__(self, epoch: int, detail: str = ""):
        self.epoch = epoch
        msg = f"training diverged at epoch {epoch}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)
