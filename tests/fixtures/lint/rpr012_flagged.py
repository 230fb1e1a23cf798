"""RPR012 true positives: timers assigned after the engine snapshot."""


class LateTimer:
    def __init__(self):
        self.wake_at_rounds = [1]

    def on_message(self, node, message):
        self.wake_at_rounds = [node.round + 4]

    def initialize(self, node):
        self.wake_at_rounds = [5]

    def on_start(self, node):
        self._arm(node)

    def _arm(self, node):
        self.wake_at_rounds = [2, 4, 8]
