"""Round-synchronous bookkeeping for the message exchange.

Counts what a real deployment would transmit: per dual sweep, one
aggregate feedback to each source and one scaled push from each source to
its route; consensus and aggregation rounds are tracked separately since
the headline iteration count excludes them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["MessageMetrics"]


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

    def count_dual_round(self, num_sources: int, times: int = 1) -> None:
        """Charge `times` price sweeps, each one feedback to and one push
        from every source."""
        self.dual_rounds += times
        self.dual_feedbacks += times * num_sources
        self.dual_pushes += times * num_sources

    def count_price_solve(self, network, cert) -> None:
        """Charge one error-controlled price solve from its certificate:
        the init exchange, its sweeps, and its max-consensus passes, each
        comm_diameter rounds."""
        S = network.num_sources
        # init: local Hessian/gradient push, all-ones feedback, scaled price push
        self.init_pushes += 2 * S
        self.init_feedbacks += S
        self.count_dual_round(S, cert.dual_iters)
        self.consensus_execs += cert.consensus_passes
        self.consensus_rounds += cert.consensus_passes * network.comm_diameter

    def totals(self) -> dict:
        return asdict(self)
