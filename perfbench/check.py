"""The output check: per-epoch records against a stored reference and
against the other runs of the same workload and seed.

An epoch record is compared through the SHA-256 of its canonical JSON
(``EpochRecord.deterministic_dict()`` with sorted keys; floats print
with every digit), so a one-ulp change in any field changes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REFERENCES = Path(__file__).resolve().parent / "references.json"

Records = List[dict]


def epoch_digest(record: dict) -> str:
    payload = json.dumps(record, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> Optional[List[str]]:
    """Stored per-epoch digests for ``workload`` at ``seed``, if any."""
    if not REFERENCES.exists():
        return None
    stored = json.loads(REFERENCES.read_text())
    return stored.get(workload, {}).get(str(seed))


def failed_epochs(runs: Sequence[Optional[Records]], epochs: int,
                  reference: Optional[Sequence[str]]
                  ) -> Tuple[int, List[str]]:
    """(failed epoch count over all runs, one line per failure).

    An epoch of a run fails when its solve failed, when its digest
    differs from the reference, or when it differs from the same
    epoch of any other run. A run that crashed or returned the wrong
    number of epochs fails all its epochs.
    """
    problems: List[str] = []
    digests: List[Optional[List[str]]] = []
    for index, records in enumerate(runs):
        if records is None or len(records) != epochs:
            got = "no records" if records is None else \
                f"{len(records)} records"
            problems.append(f"run {index}: {got}, expected {epochs}")
            digests.append(None)
        else:
            digests.append([epoch_digest(r) for r in records])
    failed = 0
    for index, run_digests in enumerate(digests):
        if run_digests is None:
            failed += epochs
            continue
        records = runs[index]
        for epoch, digest in enumerate(run_digests):
            why = []
            if not records[epoch]["solve_ok"]:
                why.append(f"solve failed: {records[epoch]['solve_error']}")
            if reference is not None and digest != reference[epoch]:
                why.append("differs from the stored reference")
            others = [i for i, other in enumerate(digests)
                      if i != index and other is not None and
                      other[epoch] != digest]
            if others:
                why.append(f"differs from run(s) {others}")
            if why:
                failed += 1
                problems.append(f"run {index} epoch {epoch}: "
                                + "; ".join(why))
    return failed, problems


def field_differences(a: Records, b: Records) -> List[str]:
    """The (epoch, field) pairs where two runs disagree, for reports."""
    out = []
    for epoch, (left, right) in enumerate(zip(a, b)):
        for key in sorted(left):
            if left[key] != right.get(key):
                out.append(f"epoch {epoch} {key}: {left[key]!r} vs "
                           f"{right.get(key)!r}")
    return out


def write_references(entries: Dict[str, Dict[str, List[str]]]) -> None:
    REFERENCES.write_text(json.dumps(entries, indent=1, sort_keys=True)
                          + "\n")
