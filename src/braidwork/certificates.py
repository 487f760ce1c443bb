"""Check results and the machine-readable certificates that collect them.

Every check of the package returns ``CheckResult`` rows.  A certificate
collects such rows with stable ids, a summary, and a reproducibility
hash.  The hash covers a canonical JSON dump of the body with all timing
fields removed, so two runs over identical inputs with the same tool
version produce byte-identical hashed bodies.  This module imports
nothing from the rest of the package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Iterable

TOOL_VERSION = "0.1.0"


@dataclasses.dataclass(frozen=True)
class CheckResult:
    id: str
    source: str
    status: str  # verified | failed | degenerate | skipped
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "verified"


@dataclasses.dataclass
class Certificate:
    command: str
    inputs: dict
    results: list[dict]

    @staticmethod
    def build(
        command: str,
        inputs: dict,
        results: Iterable[tuple[CheckResult, float | None]],
    ) -> "Certificate":
        rows = []
        for result, timing_ms in results:
            row = {
                "id": result.id,
                "source": result.source,
                "status": result.status,
            }
            if result.witness is not None:
                witness = dict(result.witness)
                # identity rows carry their words at the top level
                for key in ("lhs", "rhs"):
                    if key in witness:
                        row[key] = witness.pop(key)
                if witness:
                    row["witness"] = witness
            if timing_ms is not None:
                row["timing_ms"] = round(timing_ms, 3)
            rows.append(row)
        rows.sort(key=lambda r: r["id"])
        return Certificate(command=command, inputs=inputs, results=rows)

    @property
    def summary(self) -> dict:
        counts = {"verified": 0, "failed": 0, "skipped": 0, "degenerate": 0}
        for row in self.results:
            counts[row["status"]] = counts.get(row["status"], 0) + 1
        return counts

    @property
    def exit_code(self) -> int:
        return 0 if self.summary["failed"] == 0 else 1

    def _body(self) -> dict:
        return {
            "tool_version": TOOL_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "summary": self.summary,
        }

    def body_hash(self) -> str:
        """The SHA-256 of the body's canonical dump: keys sorted, no spaces,
        and no row's ``timing_ms``.

        Each row is copied without ``timing_ms`` and the body is dumped once;
        ``self.results`` keeps its timings.  The digest is that of dumping
        the body, loading it back and dumping it sorted, on the
        precondition that every dict key in the body is a str and every
        leaf a JSON scalar (str, int, float, bool or None) inside lists,
        tuples and dicts: a non-str key would sort differently before the
        round trip (or not at all), where a load turns it into a str.
        """
        body = self._body()
        rows = []
        for row in self.results:
            row = dict(row)
            row.pop("timing_ms", None)
            rows.append(row)
        body["results"] = rows
        dump = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(dump.encode()).hexdigest()

    def to_json(self) -> dict:
        body = self._body()
        body["body_sha256"] = self.body_hash()
        return body

    def render_text(self) -> str:
        lines = [f"# {self.command} (tool {TOOL_VERSION})"]
        for row in self.results:
            mark = {"verified": "ok", "failed": "FAIL",
                    "skipped": "skip", "degenerate": "degen"}[row["status"]]
            timing = f" [{row['timing_ms']:.0f} ms]" if "timing_ms" in row else ""
            lines.append(f"{mark:>6}  {row['id']}  ({row['source']}){timing}")
            if row["status"] == "failed" and "witness" in row:
                lines.append(f"        witness: {json.dumps(row['witness'])}")
        counts = self.summary
        lines.append(
            f"summary: {counts['verified']} verified, {counts['failed']} failed, "
            f"{counts['skipped']} skipped, {counts['degenerate']} degenerate"
        )
        lines.append(f"body sha256: {self.body_hash()}")
        return "\n".join(lines)
