import numpy as np
import pytest

from policylock import ColumnFrame

ACCEPTANCE_LINES = []


def record_criterion(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"[{status}] criterion {number:02d} {name}{suffix}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def build_frame(feature_data, treatments=None, outcomes=None, row_ids=None,
                valid=None):
    """feature_data: dict name -> list of values (None means NULL)."""
    names = list(feature_data)
    n = len(next(iter(feature_data.values()))) if names else len(treatments or [])
    values, valids = [], []
    for name in names:
        col = np.zeros(n)
        ok = np.ones(n, dtype=bool)
        for i, v in enumerate(feature_data[name]):
            if v is None:
                ok[i] = False
            else:
                col[i] = v
        values.append(col)
        valids.append(ok if valid is None else np.asarray(valid[name], dtype=bool))
    if row_ids is None:
        row_ids = np.arange(n)
    if treatments is None:
        treatments = ["control"] * n
    if outcomes is None:
        outcomes = [0] * n
    return ColumnFrame(row_ids, names, values, valids,
                       np.array(treatments, dtype=object), np.array(outcomes))


def leaf_child_forest_text(child):
    """Text of a two-tree forest over ``f00`` whose last node line, a leaf of
    tree 1, carries left child ``child`` where the format writes -1."""
    from policylock import forest_to_text, random_forest
    lines = forest_to_text(random_forest(2, 2, ("f00",), ("control", "treat"),
                                         seed=1)).splitlines()
    fields = lines[-1].split()
    assert fields[0] == "leaf" and fields[3] == "-1"
    fields[3] = str(child)
    return "\n".join(lines[:-1] + [" ".join(fields)]) + "\n"


@pytest.fixture
def six_row_frame():
    # two bins (cut at 0.5), two treatments, hand-checkable counts
    return build_frame(
        {"x": [0.1, 0.2, 0.6, 0.7, 0.4, 0.9]},
        treatments=["control", "treat", "control", "treat", "treat", "control"],
        outcomes=[1, 0, 0, 1, 1, 1],
    )
