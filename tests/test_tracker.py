import numpy as np

from aerotrack.perception import TargetObservation
from aerotrack.tracker import RELOCATING, TRACKING, ModeState, relocation_update

DT = 0.125  # exact in binary, so streak sums hit the timeout exactly


def lost(t=0.0):
    return TargetObservation.invalid(t)


def seen(t=0.0):
    return TargetObservation(position_world=np.zeros(3), timestamp=t, valid=True)


class TestRelocationUpdate:
    def test_enters_relocation_exactly_at_timeout(self):
        state = ModeState()
        for _ in range(3):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
            assert state.mode == TRACKING
        state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        assert state.invalid_streak == 0.5
        assert state.mode == RELOCATING
        assert state.time_since_loss == 0.0

    def test_time_since_loss_accumulates_while_relocating(self):
        state = ModeState()
        for _ in range(4):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        for k in range(1, 6):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
            assert state.mode == RELOCATING
            assert state.time_since_loss == k * DT

    def test_reacquisition_keeps_time_since_loss(self):
        state = ModeState()
        for _ in range(7):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        state = relocation_update(state, seen(), DT, loss_timeout=0.5)
        assert state.mode == TRACKING
        assert state.invalid_streak == 0.0
        assert state.time_since_loss == 3 * DT
        # the next loss restarts the clock once the timeout passes again
        for _ in range(4):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        assert state.mode == RELOCATING
        assert state.time_since_loss == 0.0

    def test_short_dropout_stays_tracking(self):
        state = ModeState()
        for _ in range(3):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        state = relocation_update(state, seen(), DT, loss_timeout=0.5)
        for _ in range(3):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        assert state.mode == TRACKING
