"""Tests for the transaction model (paper Section 2.2, Eqs 7-8)."""

import pytest

from repro.core.transaction import TransactionModel
from repro.errors import ParameterError
from repro.units import ALEWIFE_CLOCKS, EQUAL_CLOCKS


@pytest.fixture
def coherence():
    # Alewife-like constants: c ~= 2, g = 3.2.
    return TransactionModel(
        critical_messages=2.0, messages_per_transaction=3.2, fixed_overhead=80.0
    )


class TestConstruction:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_critical_messages(self, bad):
        with pytest.raises(ParameterError):
            TransactionModel(critical_messages=bad)

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_rejects_nonpositive_messages_per_transaction(self, bad):
        with pytest.raises(ParameterError):
            TransactionModel(messages_per_transaction=bad)

    def test_rejects_negative_fixed_overhead(self):
        with pytest.raises(ParameterError):
            TransactionModel(fixed_overhead=-1.0)

    def test_defaults_are_simple_request_reply(self):
        model = TransactionModel()
        assert model.critical_messages == 2.0
        assert model.messages_per_transaction == 2.0
        assert model.fixed_overhead == 0.0


class TestEq7:
    def test_latency_with_equal_clocks(self, coherence):
        # T_t = c*T_m + T_f with no conversion: 2*100 + 80 = 280.
        assert coherence.transaction_latency(100.0, EQUAL_CLOCKS) == pytest.approx(
            280.0
        )

    def test_latency_converts_message_part_only(self, coherence):
        # With the network 2x faster, 100 network cycles = 50 processor
        # cycles, so T_t = 2*50 + 80 = 180 processor cycles.
        assert coherence.transaction_latency(100.0, ALEWIFE_CLOCKS) == pytest.approx(
            180.0
        )

    def test_zero_message_latency_leaves_fixed_overhead(self, coherence):
        assert coherence.transaction_latency(0.0, EQUAL_CLOCKS) == pytest.approx(80.0)
