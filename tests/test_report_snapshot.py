"""Every shipped report, compared exactly with a recorded snapshot.

``report_snapshot.json`` holds, for each tag of ``certification_matrix()``
and ``brownian_cases()``, the theorem, direction, ``repr`` of the value,
applicability and the (ident, status) list of the assumption checks.  A
refactor of the calculators or of the tag dispatch must leave all of them
unchanged.  Regenerate the file only for an intended change of a bound:

    PYTHONPATH=src python tests/test_report_snapshot.py > tests/report_snapshot.json
"""

import json
import sys
from pathlib import Path

from stopbounds.bounds import THEOREMS
from stopbounds.harness import bound_report, brownian_report
from stopbounds.scenarios import brownian_cases, certification_matrix

SNAPSHOT = Path(__file__).with_name("report_snapshot.json")


def _entry(name, tag, report):
    return [name, tag, report.theorem, report.direction, repr(report.value),
            report.applicable, [[c.ident, c.status] for c in report.assumptions]]


def shipped_reports():
    entries = [_entry(row["bundle"].name, tag, bound_report(tag, row["bundle"]))
               for row in certification_matrix(10) for tag in row["tags"]]
    entries += [_entry(case["bundle"].name, tag, brownian_report(tag, case["bundle"]))
                for case in brownian_cases(10) for tag in case["tags"]]
    return entries


def test_shipped_reports_match_the_snapshot():
    recorded = json.loads(SNAPSHOT.read_text())
    current = shipped_reports()
    assert len(recorded) == len(current) == 155
    for old, new in zip(recorded, current):
        assert old == new, old[:2]


def test_every_shipped_report_carries_its_records_direction():
    entries = shipped_reports()
    assert len(entries) == 155
    for name, tag, theorem, direction, *_ in entries:
        assert (theorem, direction) == (tag, THEOREMS[tag].direction), (name, tag)


def test_only_the_unsettled_concavity_checks_read_declared():
    # every other hypothesis of a built-in report is computed from its region
    declared = [(entry[1], ident) for entry in shipped_reports()
                for ident, status in entry[6] if status == "declared"]
    assert len(declared) == 11
    assert set(declared) <= {(tag, "g-concave") for tag in (
        "T12-samplemean", "T13-samplemean-naturals", "T-try88-bounded", "Brown3")}


if __name__ == "__main__":
    sys.stdout.write("[\n" + ",\n".join(json.dumps(e) for e in shipped_reports()) + "\n]\n")
