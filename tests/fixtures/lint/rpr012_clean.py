"""RPR012 true negatives: timers declared from setup-reachable code."""


class UpFrontTimer:
    def __init__(self, delays):
        self.wake_at_rounds = [1]
        self._arm(delays)

    def _arm(self, delays):
        self.wake_at_rounds = sorted(delays)
