"""File formats: matrix-set JSON, CSV/JSON reports, and SVG plots.

The matrix-set schema is::

    {"d": int,
     "matrices": [{"label": str, "rows": [[[re, im], ...], ...]}, ...]}

Complex entries are [re, im] pairs.  Floats are serialised with 17
significant digits so a load/emit round trip is bit exact.  All writes
go through a temporary file in the destination directory followed by a
rename, so an interrupted run never leaves a partial report behind.
"""

import json
import math
import os
import tempfile

__all__ = [
    "MatrixSetFormatError",
    "load_matrix_set",
    "save_matrix_set",
    "format_number",
    "write_atomic",
    "write_csv",
    "write_metadata",
    "write_gap_svg",
]


class MatrixSetFormatError(ValueError):
    pass


def format_number(x):
    """A float as text with 17 significant digits (round-trip exact)."""
    return "%.17g" % float(x)


def _is_real(value):
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _entry(value, label, position):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_real(part) for part in value)
    ):
        raise MatrixSetFormatError(
            "matrix %r entry %r must be a [re, im] pair" % (label, position)
        )
    re, im = float(value[0]), float(value[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise MatrixSetFormatError("matrix %r entry %r is not finite" % (label, position))
    return complex(re, im)


def load_matrix_set(path):
    """Read and validate a matrix set, with precise schema errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixSetFormatError(
            "parse error at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        ) from exc
    if not isinstance(doc, dict) or "d" not in doc or "matrices" not in doc:
        raise MatrixSetFormatError("document must carry 'd' and 'matrices'")
    d = doc["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise MatrixSetFormatError("'d' must be a positive integer")
    entries = doc["matrices"]
    if not isinstance(entries, list) or not entries:
        raise MatrixSetFormatError("'matrices' must be a nonempty list")
    matrices, labels = [], []
    for idx, item in enumerate(entries):
        if not isinstance(item, dict) or "rows" not in item:
            raise MatrixSetFormatError("matrix %d must be an object with 'rows'" % idx)
        label = str(item.get("label", idx))
        rows = item["rows"]
        if not isinstance(rows, list) or len(rows) != d:
            raise MatrixSetFormatError(
                "matrix %r has %s rows, expected %d"
                % (label, len(rows) if isinstance(rows, list) else "non-list", d)
            )
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != d:
                raise MatrixSetFormatError(
                    "matrix %r row %d has length %s, expected %d"
                    % (label, i, len(row) if isinstance(row, list) else "non-list", d)
                )
        matrices.append([[_entry(z, label, (i, j)) for j, z in enumerate(row)] for i, row in enumerate(rows)])
        labels.append(label)
    from .bounds import MatrixSet  # numpy: only the commands that read a family load it

    return MatrixSet(matrices, labels=labels)


def save_matrix_set(mset, path):
    doc = {
        "d": mset.d,
        "matrices": [
            {
                "label": mset.labels[k],
                "rows": [[[z.real, z.imag] for z in row] for row in A],
            }
            for k, A in enumerate(mset.matrices)
        ],
    }
    write_atomic(path, json.dumps(doc, indent=2) + "\n")


def write_atomic(path, text):
    """Write text then rename into place; no partial file survives.  A
    temporary file that cannot be made raises the ``OSError`` of ``path``,
    not of the temporary name."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jsrkit-", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value):
    if isinstance(value, float):
        return format_number(value)
    return str(value)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def _strict(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def write_metadata(path, payload):
    """Write ``payload`` as RFC 8259 JSON: NaN and infinities become ``null``."""
    text = json.dumps(_strict(payload), indent=2, default=str, allow_nan=False)
    write_atomic(path, text + "\n")


def write_gap_svg(path, ns, gaps):
    """A dependency-free log-log polyline plot of the gap column."""
    pts = [(n, g) for n, g in zip(ns, gaps) if g > 0]
    width, height, pad = 480, 320, 48
    if len(pts) < 2:
        write_atomic(
            path,
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
            '<text x="10" y="20">insufficient positive gaps to plot</text></svg>\n'
            % (width, height),
        )
        return
    xs = [math.log10(p[0]) for p in pts]
    ys = [math.log10(p[1]) for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def place(x, y):
        px = pad + (x - x_lo) / x_span * (width - 2 * pad)
        py = height - pad - (y - y_lo) / y_span * (height - 2 * pad)
        return "%.2f,%.2f" % (px, py)

    polyline = " ".join(place(x, y) for x, y in zip(xs, ys))
    svg = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">\n'
        '<rect width="100%%" height="100%%" fill="white"/>\n'
        '<text x="%d" y="24" font-size="14">gap vs n (log-log)</text>\n'
        '<polyline points="%s" fill="none" stroke="black" stroke-width="1.5"/>\n'
        "</svg>\n" % (width, height, pad, polyline)
    )
    write_atomic(path, svg)
