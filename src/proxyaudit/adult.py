"""Loader for the UCI Adult census dataset (the 48,842-row benchmark).

The canonical distribution ships two files, ``adult.data`` (32,561 rows) and
``adult.test`` (16,281 rows).  This module concatenates them into one
:class:`~proxyaudit.data.Dataset`, normalizing the distribution quirks:

* ``adult.test`` opens with a ``|1x3 Cross validator`` comment line;
* its income labels carry a trailing period (``<=50K.``);
* cells are padded with spaces and use ``?`` as the missing token.

Categories are taken verbatim from the files (after whitespace trimming) so
that category-level counts match the published figures exactly.
"""

import os
import tempfile
from pathlib import Path

from .data import ColumnSchema, load_csv

DATA_FILE = "adult.data"
TEST_FILE = "adult.test"
ADULT_DIR_ENV = "PROXYAUDIT_ADULT_DIR"

_WORKCLASS = (
    "Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov", "Local-gov",
    "State-gov", "Without-pay", "Never-worked",
)
_EDUCATION = (
    "Bachelors", "Some-college", "11th", "HS-grad", "Prof-school",
    "Assoc-acdm", "Assoc-voc", "9th", "7th-8th", "12th", "Masters", "1st-4th",
    "10th", "Doctorate", "5th-6th", "Preschool",
)
_MARITAL_STATUS = (
    "Married-civ-spouse", "Divorced", "Never-married", "Separated", "Widowed",
    "Married-spouse-absent", "Married-AF-spouse",
)
_OCCUPATION = (
    "Tech-support", "Craft-repair", "Other-service", "Sales",
    "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
    "Machine-op-inspct", "Adm-clerical", "Farming-fishing", "Transport-moving",
    "Priv-house-serv", "Protective-serv", "Armed-Forces",
)
_RELATIONSHIP = (
    "Wife", "Own-child", "Husband", "Not-in-family", "Other-relative",
    "Unmarried",
)
_RACE = ("White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other", "Black")
_SEX = ("Female", "Male")
_NATIVE_COUNTRY = (
    "United-States", "Cambodia", "England", "Puerto-Rico", "Canada", "Germany",
    "Outlying-US(Guam-USVI-etc)", "India", "Japan", "Greece", "South", "China",
    "Cuba", "Iran", "Honduras", "Philippines", "Italy", "Poland", "Jamaica",
    "Vietnam", "Mexico", "Portugal", "Ireland", "France",
    "Dominican-Republic", "Laos", "Ecuador", "Taiwan", "Haiti", "Columbia",
    "Hungary", "Guatemala", "Nicaragua", "Scotland", "Thailand", "Yugoslavia",
    "El-Salvador", "Trinadad&Tobago", "Peru", "Hong", "Holand-Netherlands",
)
_INCOME = ("<=50K", ">50K")


def adult_schema():
    """Column schemas for the canonical Adult files, in file column order."""
    return (
        ColumnSchema("age", "numeric"),
        ColumnSchema("workclass", "categorical", categories=_WORKCLASS),
        ColumnSchema("fnlwgt", "numeric"),
        ColumnSchema("education", "categorical", categories=_EDUCATION),
        ColumnSchema("education-num", "numeric"),
        ColumnSchema("marital-status", "categorical", categories=_MARITAL_STATUS),
        ColumnSchema("occupation", "categorical", categories=_OCCUPATION),
        ColumnSchema("relationship", "categorical", categories=_RELATIONSHIP),
        ColumnSchema("race", "categorical", categories=_RACE),
        ColumnSchema("sex", "categorical", categories=_SEX),
        ColumnSchema("capital-gain", "numeric"),
        ColumnSchema("capital-loss", "numeric"),
        ColumnSchema("hours-per-week", "numeric"),
        ColumnSchema("native-country", "categorical", categories=_NATIVE_COUNTRY),
        ColumnSchema("income", "categorical", categories=_INCOME),
    )


def _normalized_lines(path):
    """Yield data lines of one distribution file with labels cleaned up.

    Skips comment (``|``) and blank lines; strips padding around cells and a
    trailing period off the final (income) field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("|"):
                continue
            cells = [c.strip() for c in line.split(",")]
            cells[-1] = cells[-1].rstrip(".")
            yield ",".join(cells)


def load_adult(directory):
    """Load ``adult.data`` + ``adult.test`` from ``directory`` as one Dataset.

    Rows appear in file order, training file first.  Raises
    ``FileNotFoundError`` naming the missing file if the directory does not
    hold the canonical pair (see ``scripts/fetch_adult.py`` to download them).
    """
    directory = Path(directory)
    parts = [directory / DATA_FILE, directory / TEST_FILE]
    for part in parts:
        if not part.is_file():
            raise FileNotFoundError(
                f"{part} not found; fetch the canonical files with "
                "scripts/fetch_adult.py"
            )
    with tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", suffix=".csv", delete=False
    ) as tmp:
        for part in parts:
            for line in _normalized_lines(part):
                tmp.write(line + "\n")
        combined = tmp.name
    try:
        return load_csv(combined, adult_schema(), header=False)
    finally:
        os.unlink(combined)


def locate_adult_dir(default=None):
    """Directory holding the Adult files, or None if unavailable.

    Checks the ``PROXYAUDIT_ADULT_DIR`` environment variable first, then the
    supplied ``default`` path; a directory counts only if both files exist.
    """
    candidates = []
    env = os.environ.get(ADULT_DIR_ENV)
    if env:
        candidates.append(Path(env))
    if default is not None:
        candidates.append(Path(default))
    for cand in candidates:
        if (cand / DATA_FILE).is_file() and (cand / TEST_FILE).is_file():
            return cand
    return None
