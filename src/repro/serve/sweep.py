"""Policy sweeps: one trace, every scheduler, side by side.

Policies run one after another in ``policies`` order.  A pool would buy
no speed: service reports carry live plans (step lambdas) that cannot
pickle back from a process pool, and threads serialize the pure-Python
DES on the GIL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.backends.base import Environment
from repro.core.frame import Frame
from repro.serve.doctor import cluster_fractions
from repro.serve.jobs import JobSpec
from repro.serve.policies import POLICY_NAMES
from repro.serve.service import PreprocessingService, ServiceReport


@dataclass
class PolicySweepResult:
    """Reports for one trace under several policies, submission order."""

    reports: list[ServiceReport] = field(default_factory=list)

    def report(self, policy: str) -> ServiceReport:
        for report in self.reports:
            if report.policy == policy:
                return report
        raise KeyError(f"no report for policy {policy!r}")

    def frame(self) -> Frame:
        """One comparison row per policy."""
        records = []
        for report in self.reports:
            fractions = cluster_fractions(report)
            records.append({
                "policy": report.policy,
                "makespan_s": report.makespan,
                "aggregate_sps": report.aggregate_sps,
                "p99_epoch_s": report.p99_epoch_seconds,
                "mean_queue_s": report.mean_queue_delay,
                "cache_hit": report.cache_hit_ratio,
                "offline_runs": report.offline_runs,
                "deduped": report.offline_deduped,
                "slo_viol": report.total_slo_violations,
                "bound": max(fractions, key=fractions.get),
            })
        return Frame.from_records(records)

    def best_policy(self) -> str:
        """Highest aggregate throughput (ties: first submitted)."""
        return max(self.reports,
                   key=lambda report: report.aggregate_sps).policy


def sweep_policies(jobs: Sequence[JobSpec],
                   policies: Sequence[str] = POLICY_NAMES,
                   slots: int = 2,
                   environment: Optional[Environment] = None,
                   tie_break: str = "arrival") -> PolicySweepResult:
    """Run ``jobs`` under every policy; results in ``policies`` order."""
    return PolicySweepResult(reports=[
        PreprocessingService(policy=policy, slots=slots,
                             environment=environment,
                             tie_break=tie_break).run(list(jobs))
        for policy in policies])
