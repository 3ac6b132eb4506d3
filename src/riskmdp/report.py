"""Solver output record shared by all criteria and emitted by the CLI."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field


@dataclass
class SolveReport:
    """Value table, policy, and convergence diagnostics of one solve.

    ``value`` and ``policy`` are keyed by state id in declared order.
    ``extras`` carries criterion-specific fields (gain/bias/rho for the
    ergodic criterion; eta_star/sandwich_width/n_trunc/stage_policy for the
    total-reward criterion) and is flattened into the JSON output.
    """

    criterion: str
    value: dict
    policy: dict | None
    iterations: int
    residual: float
    error_bound: float
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "criterion": self.criterion,
            "value": self.value,
            "policy": self.policy,
            "iterations": self.iterations,
            "residual": self.residual,
            "error_bound": self.error_bound,
        }
        out.update(self.extras)
        return out

    def to_json(self):
        # joins the encoder's chunks in batches: json.dumps holds them all at
        # once, several times the text of a long stage policy
        chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(self.to_dict())
        parts = []
        while part := "".join(itertools.islice(chunks, 8192)):
            parts.append(part)
        return "".join(parts) + "\n"

    def to_tsv(self):
        lines = ["state\tvalue\taction"]
        for s, v in self.value.items():
            a = self.policy.get(s, "") if self.policy else ""
            lines.append(f"{s}\t{v!r}\t{a}")
        lines.append(f"# criterion={self.criterion} iterations={self.iterations} "
                     f"residual={self.residual!r} error_bound={self.error_bound!r}")
        for k, v in self.extras.items():
            if not isinstance(v, (dict, list)):
                lines.append(f"# {k}={v!r}")
        return "\n".join(lines) + "\n"
