"""Exception types shared across the package, and the line reader that
names a text input's bad line.

The CLI maps these onto exit codes: bad input or configuration exits 2,
runtime failures (including optimizer divergence) exit 3, and commands
whose result set is empty exit 4.
"""


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
