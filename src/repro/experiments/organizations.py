"""Three network organizations head to head (Section 1's taxonomy).

The paper's introduction sorts interconnects into a progression — shared
buses (simple, non-scalable), multistage UCL networks (scalable
bandwidth, universally growing latency), and NUCL meshes (scalable, and
exploitable by locality).  With all three modeled in the same
operating-point framework, one sweep shows the whole argument:

* the bus collapses beyond a few dozen processors (per-node bandwidth
  falls as 1/N);
* the butterfly holds per-node bandwidth but pays log N latency on every
  message;
* the torus matches or beats the butterfly *if and only if* the
  application's locality is exploited.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import render_table
from repro.core.bus import SharedBusModel
from repro.core.combined import solve
from repro.core.indirect import IndirectNetworkModel
from repro.experiments.alewife import MESSAGE_FLITS, alewife_system
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(quick: bool = False) -> ExperimentResult:
    """Sweep machine sizes across bus / butterfly / torus organizations."""
    system = alewife_system(contexts=1)
    node = system.node
    bus = SharedBusModel(message_size=MESSAGE_FLITS)
    butterfly = IndirectNetworkModel(switch_radix=4, message_size=MESSAGE_FLITS)

    count = 6 if quick else 10
    sizes = np.logspace(1, np.log10(4096), count)

    rows = []
    series = {"sizes": [], "bus": [], "butterfly": [],
              "torus_ideal": [], "torus_random": []}
    for processors in sizes:
        gain = system.expected_gain(max(processors, 4.0))
        bus_point = solve(node, bus, float(processors))
        butterfly_point = solve(
            node, butterfly, float(butterfly.stages_for(max(processors, 4.0)))
        )
        rates = {
            "bus": bus_point.transaction_rate,
            "butterfly": butterfly_point.transaction_rate,
            "torus_ideal": gain.ideal.transaction_rate,
            "torus_random": gain.random.transaction_rate,
        }
        series["sizes"].append(float(processors))
        for key, value in rates.items():
            series[key].append(value)
        baseline = rates["torus_ideal"]
        rows.append(
            (
                f"{int(round(processors)):,}",
                round(rates["bus"] / baseline, 3),
                round(rates["butterfly"] / baseline, 3),
                round(rates["torus_random"] / baseline, 3),
                1.0,
            )
        )

    table = render_table(
        [
            "N",
            "shared bus",
            "butterfly (UCL)",
            "torus, random map",
            "torus, ideal map",
        ],
        rows,
        title="Per-processor transaction rate, normalized to the "
        "ideally-mapped torus (p = 1)",
    )

    # Where does the bus fall to half the torus's per-node performance?
    knee = None
    for processors, bus_rate, ideal_rate in zip(
        series["sizes"], series["bus"], series["torus_ideal"]
    ):
        if bus_rate < 0.5 * ideal_rate:
            knee = processors
            break

    notes = [
        "Per-node bus bandwidth falls as 1/N: the feedback keeps the "
        "model finite, but throughput collapses — 'unable to support "
        "reasonable communication loads from more than a few dozen "
        "processors.'",
        "The butterfly and the well-mapped torus both scale; the torus "
        "only *matches* the butterfly when locality is ignored, and "
        "wins when it is exploited.",
    ]
    if knee is not None:
        notes.insert(
            0,
            f"The bus drops below half the ideal torus's per-node rate "
            f"by N ~ {knee:,.0f}.",
        )

    return ExperimentResult(
        experiment="organizations",
        title="Bus vs multistage vs mesh: the Section 1 taxonomy, quantified",
        tables=[table],
        notes=notes,
        data=series,
    )
