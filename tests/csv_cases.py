"""Hypothesis strategies for CSV files: tidy tables, and the malformed and
unusual input a loader must read exactly as ``csv.reader`` does.

``csv_files`` draws a schema (or takes one) and returns the file's text
with the schema and the ``header`` flag to load it with. Each column gets a
mode: cells drawn at random (missing tokens, unknown categories, ``nan``,
``inf``, ``1_000`` and unparsable text among them), one constant value, or
the missing token throughout. Cells may be padded with ASCII or Unicode
whitespace (``\\x1c`` and ``\\x85`` included, which ``float()`` or
``str.splitlines`` treat differently from ``str.strip``) or quoted, with a
comma, a newline or a doubled quote inside. Lines end in LF, CRLF or a bare
CR, mixed within a file; blank lines fall between rows. With
``malformed=True`` a file may also hold ragged rows, a header that does not
match, and NUL bytes.
"""

import string

from hypothesis import strategies as st

from proxyaudit.data import CATEGORICAL, NUMERIC, ColumnSchema

WHITESPACE = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000")
LINE_ENDINGS = ("\n", "\r\n", "\r")
MISSING_TOKENS = ("?", "", "-1", "nan", "NA", " ?")
NUMBERS = (
    "0", "1", "-2.5", "1e3", "1_000", "+.5", "3.0", "\u0663", "nan", "inf", "-inf",
    "1e400", "abc", "0x10", "1,5", "1 2",
)
CATEGORIES = ("a", "b", "red", "c=1", "\u00e9", "x y")
UNKNOWN = ("zzz", "A", "", "\u00e9\u00e9", "b,c", "l\u2029m", "p\x1cq")
NAMES = ("sex", "age", "zone", "score", "\u00e9t\u00e9")


@st.composite
def schemas(draw, max_columns=4):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=max_columns, unique=True))
    schema = []
    for name in names:
        token = draw(st.sampled_from(MISSING_TOKENS))
        if draw(st.booleans()):
            cats = draw(st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=4, unique=True))
            schema.append(ColumnSchema(name, CATEGORICAL, tuple(cats), token))
        else:
            schema.append(ColumnSchema(name, NUMERIC, missing_token=token))
    return tuple(schema)


def _values(col):
    """Strategy for one unpadded cell value of ``col``."""
    if col.kind == CATEGORICAL:
        pool = col.categories + UNKNOWN
    else:
        pool = NUMBERS
    return st.one_of(
        st.sampled_from(pool),
        st.just(col.missing_token),
        st.floats(allow_nan=False, width=32).map(repr),
        st.text(string.ascii_letters + string.digits + ".-", max_size=4),
    )


@st.composite
def _column(draw, col, n_rows):
    mode = draw(st.sampled_from(("random", "random", "constant", "missing")))
    if mode == "constant":
        return [draw(_values(col))] * n_rows
    if mode == "missing":
        return [col.missing_token] * n_rows
    return draw(st.lists(_values(col), min_size=n_rows, max_size=n_rows))


@st.composite
def _dressed(draw, value, quotes, odd):
    """The cell as written: bare, padded with whitespace, or quoted; with
    ``odd``, sometimes holding a NUL or a stray quote."""
    pad = st.text(st.sampled_from(WHITESPACE), max_size=2)
    how = draw(st.sampled_from(("bare",) * 6 + ("padded",) * 3 + ("quoted",) * quotes + ("odd",) * odd))
    if how == "odd":
        return draw(st.sampled_from((value + "\x00", '"' + value, value + '"x', "\x00")))
    if how == "quoted" or any(c in value for c in ',"\r\n'):
        inner = draw(st.sampled_from((value, value + ",x", value + "\nx", value + '"q"', value + "\r\n")))
        lead = draw(pad) if odd else ""  # a quote after whitespace is a literal
        return lead + '"' + inner.replace('"', '""') + '"'
    if how == "padded":
        return draw(pad) + value + draw(pad)
    return value


@st.composite
def csv_files(draw, schema=None, *, header=None, min_rows=0, max_rows=12, malformed=True):
    """``(text, schema, header)`` for one CSV file; ``schema`` and ``header``
    are drawn unless given."""
    if schema is None:
        schema = draw(schemas())
    n_rows = draw(st.integers(min_rows, max_rows))
    columns = [draw(_column(col, n_rows)) for col in schema]
    quotes = draw(st.booleans())
    odd = malformed and draw(st.integers(0, 3)) == 0
    rows = [[draw(_dressed(v, quotes, odd)) for v in row] for row in zip(*columns)]
    if malformed and n_rows and draw(st.integers(0, 2)) == 0:
        for i in draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=2)):
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["extra"]
    if header is None:
        header = draw(st.booleans())
    if header:
        names = draw(st.permutations([c.name for c in schema]))
        if malformed and draw(st.integers(0, 5)) == 0:
            names = names[1:] + ["other"]
        pad = st.text(st.sampled_from(" \t"), max_size=1)
        rows.insert(0, [draw(pad) + n + draw(pad) for n in names])
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(("", " ", "\t")), max_size=1))
        lines.append(",".join(row))
    endings = draw(st.lists(st.sampled_from(LINE_ENDINGS), min_size=1, max_size=3))
    text = "".join(line + draw(st.sampled_from(endings)) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, schema, header
