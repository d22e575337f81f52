"""Round-synchronous bookkeeping for the message exchange.

Counts what a real deployment would transmit: per dual sweep, one
aggregate feedback to each source and one scaled push from each source to
its route; consensus and aggregation rounds are tracked separately since
the headline iteration count excludes them. A Newton solve is charged
from the steps it executed, after its loop, by this module alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["MessageMetrics", "consensus_rounds"]


def consensus_rounds(network, cert) -> int:
    """Rounds of a price solve's max-consensus passes, comm_diameter each."""
    return cert.consensus_passes * network.comm_diameter


@dataclass
class MessageMetrics:
    dual_rounds: int = 0
    init_pushes: int = 0
    init_feedbacks: int = 0
    dual_pushes: int = 0
    dual_feedbacks: int = 0
    consensus_execs: int = 0
    consensus_rounds: int = 0
    summation_rounds: int = 0
    aux_construction_rounds: int = 0

    @classmethod
    def from_trace(cls, network, trace, construction_rounds: int) -> MessageMetrics:
        """A finished Newton solve's totals, from its trace records. Each
        step's price solve costs an init exchange (local Hessian/gradient
        push, all-ones feedback, scaled price push) and one feedback to and
        one push from every source per sweep."""
        S = network.num_sources
        sweeps = sum(rec.certificate.dual_iters for rec in trace)
        return cls(
            dual_rounds=sweeps,
            init_pushes=2 * S * len(trace),
            init_feedbacks=S * len(trace),
            dual_pushes=S * sweeps,
            dual_feedbacks=S * sweeps,
            consensus_execs=sum(rec.certificate.consensus_passes for rec in trace),
            consensus_rounds=sum(rec.consensus_rounds for rec in trace),
            summation_rounds=sum(rec.summation_rounds for rec in trace),
            aux_construction_rounds=construction_rounds,
        )

    def totals(self) -> dict:
        return asdict(self)
