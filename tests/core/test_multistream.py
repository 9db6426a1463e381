"""Fleet-invariance suite: the batched multi-stream engine vs its oracle.

Every row of a :class:`repro.core.MultiStreamSession` must be
**bit-equal** to a lone :class:`repro.core.StreamingSession` over the
same plan fed the same chunks in the same order — whatever the other
rows are doing, however ragged the chunk lengths, and across arbitrary
interleavings of ``process`` / ``reset`` / join (``open``) / leave
(``close``).  The hypothesis class drives exactly that action schedule;
the grid class pins deterministic coverage across topologies and
precisions (the CI tier-1 "Streaming conformance suite" runs this file
alongside the split-invariance suite).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.precision import PRECISION_POLICIES
from repro.compile import compile_plan
from repro.core import (
    AdaptPNC,
    MultiStreamSession,
    PTPNC,
    PrintedTemporalClassifier,
    StreamingSession,
)


def _plan(model_cls=AdaptPNC, n_classes=3, seed=0, **kw):
    return compile_plan(model_cls(n_classes, rng=np.random.default_rng(seed), **kw))


def _assert_row_state_agrees(fleet, row, oracle):
    assert fleet.steps_seen(row) == oracle.steps_seen
    mine, theirs = fleet.last_logits(row), oracle.last_logits
    assert (mine is None) == (theirs is None)
    if mine is not None:
        assert np.array_equal(mine, theirs)


class TestFleetOracleGrid:
    """Deterministic bit-equality grid: topologies, precisions, raggedness."""

    @pytest.mark.parametrize("model_cls", [PTPNC, AdaptPNC])
    @pytest.mark.parametrize(
        "capacity, max_len",
        [(1, 12), (3, 12), (8, 12), (8, 256)],
        ids=["1", "3", "8", "8-long"],
    )
    def test_ragged_rounds_bit_equal_oracle(self, model_cls, capacity, max_len):
        plan = _plan(model_cls)
        fleet = MultiStreamSession(plan, capacity=capacity)
        rng = np.random.default_rng(7)
        rows = [fleet.open() for _ in range(capacity)]
        oracles = {r: StreamingSession(plan) for r in rows}
        for _ in range(6):
            chunks = {
                r: rng.standard_normal(int(rng.integers(1, max_len + 1)))
                for r in rows
            }
            results = fleet.process_many(chunks)
            assert set(results) == set(rows)
            for r, chunk in chunks.items():
                assert np.array_equal(results[r], oracles[r].process(chunk))
        for r in rows:
            _assert_row_state_agrees(fleet, r, oracles[r])

    @pytest.mark.parametrize("precision", PRECISION_POLICIES)
    def test_precision_policies(self, precision):
        model = AdaptPNC(2, rng=np.random.default_rng(1))
        plan = compile_plan(model, precision=precision)
        fleet = MultiStreamSession(plan, capacity=4)
        rng = np.random.default_rng(2)
        rows = [fleet.open() for _ in range(4)]
        oracles = {r: StreamingSession(plan) for r in rows}
        for _ in range(4):
            chunks = {r: rng.standard_normal(5) for r in rows}
            results = fleet.process_many(chunks)
            for r in rows:
                assert np.array_equal(results[r], oracles[r].process(chunks[r]))
                assert results[r].dtype == plan.dtype

    def test_multivariate_channels(self):
        model = PrintedTemporalClassifier(
            2, hidden_size=4, in_channels=3, rng=np.random.default_rng(3)
        )
        plan = compile_plan(model)
        fleet = MultiStreamSession(plan, capacity=3)
        rng = np.random.default_rng(4)
        rows = [fleet.open() for _ in range(3)]
        oracles = {r: StreamingSession(plan) for r in rows}
        for _ in range(3):
            chunks = {
                r: rng.standard_normal((int(rng.integers(1, 7)), 3)) for r in rows
            }
            results = fleet.process_many(chunks)
            for r in rows:
                assert np.array_equal(results[r], oracles[r].process(chunks[r]))

    def test_subset_of_rows_per_call(self):
        """Rows sitting a round out keep their state bit-for-bit."""
        plan = _plan()
        fleet = MultiStreamSession(plan, capacity=4)
        rng = np.random.default_rng(5)
        rows = [fleet.open() for _ in range(4)]
        oracles = {r: StreamingSession(plan) for r in rows}
        for i in range(8):
            sub = [r for r in rows if (r + i) % 3 != 0] or rows[:1]
            chunks = {r: rng.standard_normal(int(rng.integers(1, 9))) for r in sub}
            results = fleet.process_many(chunks)
            for r in sub:
                assert np.array_equal(results[r], oracles[r].process(chunks[r]))
        for r in rows:
            _assert_row_state_agrees(fleet, r, oracles[r])

        # The serving shape: a capacity-64 fleet, every row occupied and
        # charged, 2-4 rows stepping long ragged chunks per call while the
        # rest sit idle; a last round steps every row to expose any idle
        # row whose carried state moved.
        fleet = MultiStreamSession(plan, capacity=64)
        rows = [fleet.open() for _ in range(64)]
        oracles = {r: StreamingSession(plan) for r in rows}
        rounds = [rows] + [
            list(rng.choice(rows, size=int(rng.integers(2, 5)), replace=False))
            for _ in range(10)
        ] + [rows]
        for sub in rounds:
            chunks = {
                int(r): rng.standard_normal(int(rng.integers(1, 257))) for r in sub
            }
            results = fleet.process_many(chunks)
            for r, chunk in chunks.items():
                assert np.array_equal(results[r], oracles[r].process(chunk))
        for r in rows:
            _assert_row_state_agrees(fleet, r, oracles[r])

    def test_single_call_matches_chunked_fleet(self):
        """The split-invariance contract holds inside the fleet too."""
        plan = _plan()
        rng = np.random.default_rng(6)
        x = rng.standard_normal(48)
        one = MultiStreamSession(plan, capacity=2)
        r1 = one.open()
        whole = one.process(r1, x)
        many = MultiStreamSession(plan, capacity=2)
        r2 = many.open()
        pieces = [many.process(r2, x[lo : lo + 7]) for lo in range(0, 48, 7)]
        assert np.array_equal(np.concatenate(pieces, axis=0), whole)


class TestFleetLifecycle:
    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            MultiStreamSession(_plan(), capacity=0)

    def test_open_exhaustion_and_reuse(self):
        fleet = MultiStreamSession(_plan(), capacity=2)
        a, b = fleet.open(), fleet.open()
        assert {a, b} == {0, 1}
        assert fleet.occupancy == 2 and fleet.free_rows == 0
        with pytest.raises(RuntimeError, match="full"):
            fleet.open()
        fleet.close(a)
        assert fleet.free_rows == 1
        assert fleet.open() == a  # the freed row is reusable

    def test_unopened_row_rejected_everywhere(self):
        fleet = MultiStreamSession(_plan(), capacity=2)
        row = fleet.open()
        for bad in (row + 1, -1, 99):
            with pytest.raises(KeyError):
                fleet.process_many({bad: np.zeros(3)})
            with pytest.raises(KeyError):
                fleet.reset(bad)
            with pytest.raises(KeyError):
                fleet.close(bad)
            with pytest.raises(KeyError):
                fleet.steps_seen(bad)

    def test_close_then_reopen_is_discharged(self):
        """A reused row starts from zero state, like a fresh session."""
        plan = _plan()
        fleet = MultiStreamSession(plan, capacity=1)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(20)
        row = fleet.open()
        fleet.process(row, rng.standard_normal(30))  # pollute the row
        fleet.close(row)
        row2 = fleet.open()
        assert row2 == row
        assert fleet.steps_seen(row2) == 0 and fleet.last_logits(row2) is None
        assert np.array_equal(
            fleet.process(row2, x), StreamingSession(plan).process(x)
        )

    def test_reset_matches_oracle_reset(self):
        plan = _plan()
        fleet = MultiStreamSession(plan, capacity=2)
        oracle = StreamingSession(plan)
        rng = np.random.default_rng(9)
        row = fleet.open()
        x1, x2 = rng.standard_normal(11), rng.standard_normal(13)
        fleet.process(row, x1)
        oracle.process(x1)
        fleet.reset(row)
        oracle.reset()
        assert fleet.steps_seen(row) == 0
        assert np.array_equal(fleet.process(row, x2), oracle.process(x2))

    def test_predict_and_empty_mapping(self):
        fleet = MultiStreamSession(_plan(), capacity=1)
        row = fleet.open()
        with pytest.raises(ValueError, match="no samples"):
            fleet.predict(row)
        assert fleet.process_many({}) == {}
        fleet.process(row, np.ones(4))
        assert fleet.predict(row) == int(np.argmax(fleet.last_logits(row)))


@st.composite
def action_schedule(draw):
    """A random interleaving of process/reset/join/leave actions."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["process", "reset", "join", "leave"]),
                st.integers(min_value=0, max_value=7),  # stream selector
                st.integers(min_value=1, max_value=10),  # chunk length
            ),
            min_size=1,
            max_size=24,
        )
    )


class TestFleetHypothesis:
    """Random process/reset/join/leave interleavings stay on the oracle."""

    @settings(max_examples=25, deadline=None)
    @given(schedule=action_schedule(), seed=st.integers(0, 2**31 - 1))
    def test_interleavings_bit_equal_oracle(self, schedule, seed, shared_plan):
        plan = shared_plan
        fleet = MultiStreamSession(plan, capacity=4)
        rng = np.random.default_rng(seed)
        rows = []
        oracles = {}
        for action, selector, length in schedule:
            if action == "join":
                if fleet.free_rows:
                    row = fleet.open()
                    rows.append(row)
                    oracles[row] = StreamingSession(plan)
                continue
            if not rows:
                continue
            row = rows[selector % len(rows)]
            if action == "leave":
                fleet.close(row)
                rows.remove(row)
                del oracles[row]
            elif action == "reset":
                fleet.reset(row)
                oracles[row].reset()
            else:  # process — a ragged batch around the selected row
                batch = {row}
                batch.update(
                    r for r in rows if rng.random() < 0.5 and len(batch) < 4
                )
                chunks = {
                    r: rng.standard_normal(
                        length if r == row else int(rng.integers(1, 11))
                    )
                    for r in batch
                }
                results = fleet.process_many(chunks)
                for r, chunk in chunks.items():
                    expected = oracles[r].process(chunk)
                    assert np.array_equal(results[r], expected)
        for r in rows:
            _assert_row_state_agrees(fleet, r, oracles[r])


@pytest.fixture(scope="module")
def shared_plan():
    """One compiled plan for the hypothesis class (compilation is the
    slow part; plans are stateless for streaming, so sharing is safe)."""
    return _plan(AdaptPNC, n_classes=2, seed=11)
