"""The paper's figure claims, priced on the compiled path.

Figures 4–6: the hull of optimality is the paper's, every sampled
point of every plotted partition lies within 1% of the predicted
curve, and Figure 6's caption holds ({3,4} beats both classical
algorithms by more than a factor of two at 40-byte blocks).  E9: the
model agrees with the simulated machine within 1% across a grid of
dimensions, block sizes and partitions.

Every point is priced with :func:`repro.sim.fastpath.exchange_time`,
which equals the event engine's virtual time float for float; one
byte-verified event-engine run per figure spot-checks that equality.
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import FIGURE_SPECS, figure_data, multiphase_interp
from repro.analysis.hull import PAPER_HULLS
from repro.comm.program import simulate_exchange
from repro.core.partitions import canonical
from repro.model.cost import multiphase_time
from repro.sim.fastpath import exchange_time

#: (figure, headline block size, headline partition)
FIGURES = [
    (4, 40, (3, 2)),
    (5, 24, (3, 3)),
    (6, 40, (4, 3)),
]

SIM_BLOCKS = (0, 8, 24, 40, 80, 160, 240, 320, 400)

#: E9: (d, m, partition) points of the prediction-vs-measurement grid
AGREEMENT_GRID = [
    (4, 0, (2, 2)),
    (4, 100, (4,)),
    (5, 24, (3, 2)),
    (5, 200, (5,)),
    (5, 40, (1, 1, 1, 1, 1)),
    (6, 40, (3, 3)),
    (6, 160, (6,)),
    (7, 40, (4, 3)),
]


@pytest.mark.parametrize(
    "figure,headline_m,headline_partition", FIGURES,
    ids=[f"figure{figure}" for figure, _, _ in FIGURES],
)
class TestFigures:
    def test_hull_is_the_papers(self, figure, headline_m, headline_partition, ipsc):
        data = figure_data(figure, params=ipsc, simulate=False)
        d = FIGURE_SPECS[figure].d
        reproduced = tuple(canonical(h) for h in data.hull_partitions)
        assert reproduced == tuple(canonical(h) for h in PAPER_HULLS[d])

    def test_every_sampled_point_within_one_percent(
        self, figure, headline_m, headline_partition, ipsc
    ):
        data = figure_data(figure, params=ipsc, simulate=False)
        d = FIGURE_SPECS[figure].d
        for curve in data.curves:
            for m in SIM_BLOCKS:
                measured = exchange_time(d, m, curve.partition, ipsc)
                predicted = multiphase_interp(curve, m)
                assert measured == pytest.approx(predicted, rel=0.01), (curve.label, m)

    def test_event_engine_spot_check(self, figure, headline_m, headline_partition, ipsc):
        """The paper's headline configuration, moved byte for byte on
        the event engine, takes exactly the compiled price."""
        d = FIGURE_SPECS[figure].d
        result = simulate_exchange(d, headline_m, headline_partition, ipsc)
        result.verify()
        assert result.time_us == exchange_time(d, headline_m, headline_partition, ipsc)


def test_figure6_factor_two_claim(ipsc):
    """Figure 6 caption: at d=7, m=40 the multiphase {3,4} beats both
    classical algorithms by more than a factor of two."""
    d, m = 7, 40
    t_34 = exchange_time(d, m, (4, 3), ipsc)
    t_se = exchange_time(d, m, (1,) * 7, ipsc)
    t_ocs = exchange_time(d, m, (7,), ipsc)
    assert min(t_se, t_ocs) / t_34 > 2.0


def test_model_vs_simulation_within_one_percent(ipsc):
    """E9: the dashed (predicted) and solid (measured) curves agree."""
    for d, m, partition in AGREEMENT_GRID:
        predicted = multiphase_time(m, d, partition, ipsc)
        measured = exchange_time(d, m, partition, ipsc)
        assert measured == pytest.approx(predicted, rel=0.01), (d, m, partition)
