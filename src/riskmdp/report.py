"""Solver output record shared by all criteria and emitted by the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class SolveReport:
    """Value table, policy, and convergence diagnostics of one solve.

    ``value`` and ``policy`` are keyed by state id in declared order.
    ``extras`` carries criterion-specific fields (method/safeguarded for the
    recursive criterion; gain/bias/rho for the ergodic criterion;
    eta_star/sandwich_width/n_trunc/stage_policy for the total-reward
    criterion) and is flattened into the JSON output.
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
        """The report as JSON with indent 2, except that each rule of a stage
        policy takes one line: one line per state would make a long stage
        policy most of the text.  The rules are joined into one string and
        spliced in; at its peak the encode holds about three times the text."""
        out = self.to_dict()
        rules = out.get("stage_policy")
        if not rules:
            return json.dumps(out, indent=2, allow_nan=False) + "\n"
        text = json.dumps({**out, "stage_policy": []}, indent=2, allow_nan=False) + "\n"
        flat = ",\n    ".join(json.dumps(rule, allow_nan=False) for rule in rules)
        # the one top-level key indented by two spaces
        return text.replace('\n  "stage_policy": []', f'\n  "stage_policy": [\n    {flat}\n  ]', 1)

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
