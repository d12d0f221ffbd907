"""The ``sweep`` workload: sampled-source distance stats over 163,840
servers with a two-worker pool — the only workload on
:mod:`repro.metrics.engine` and the shared-memory hand-off."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from e2ebench import checks, inputs, spans


@dataclass
class Outcome:
    stats: Any
    seed: int
    span: Any


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    params: Dict[str, int]
    sources: int = 512
    #: the pool size: two workers keep the load inside two cores.
    workers: int = 2

    def trial(self, graph, seed: int, t: int, rec, run_id: str) -> Outcome:
        from repro.metrics.engine import sweep_graph_distance_stats

        source_seed = inputs.child(seed, self.name, "sources", t)
        with rec.span("trial", run_id):
            with rec.span("sweep.pool") as span:
                stats = sweep_graph_distance_stats(
                    graph, sample_sources=self.sources, seed=source_seed, workers=self.workers
                )
            span.counts.update(sources=self.sources, pairs=stats.pairs)
        return Outcome(stats, source_seed, span)

    def units(self, outcome: Outcome) -> int:
        """Server pairs measured."""
        return outcome.stats.pairs

    def check(self, graph, outcome: Outcome, seed: int, t: int) -> List[str]:
        from repro.topology.registry import create

        spec = create("abccc", **self.params)
        return checks.sweep(
            outcome.stats, self.sources, len(graph.server_indices), spec.abccc
        )

    def layers(self, graph, outcome: Outcome) -> Dict[str, float]:
        return spans.layer_metrics({"sweep.pool": outcome.span})

    def once(self, graph, outcome: Outcome, rec) -> Dict[str, Any]:
        """Traced-only comparisons, outside any trial: the hand-off on its
        own, and the same sources in one process (which must agree)."""
        from repro.metrics.engine import sweep_graph_distance_stats
        from repro.topology.shm import export_graph

        with rec.span("sweep.handoff", "aux") as handoff:
            export_graph(graph).release()
        with rec.span("sweep.inproc", "aux") as inproc:
            stats = sweep_graph_distance_stats(
                graph, sample_sources=self.sources, seed=outcome.seed, workers=1
            )
        problems = []
        if stats != outcome.stats:
            problems.append("one-process sweep disagrees with the pool sweep")
        return {
            "layers": {"sweep.handoff_s": handoff.duration, "sweep.inproc_s": inproc.duration},
            "problems": problems,
        }


SWEEP = SweepWorkload(name="sweep", params={"n": 8, "k": 4, "s": 2})
