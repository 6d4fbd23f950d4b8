"""Fixture: the sanctioned injection shapes — O504 must stay quiet."""


class InjectedExporter:
    def __init__(self, metrics, clock, sink):
        # ok: clock and sink arrive by injection; nothing is acquired
        self.metrics = metrics
        self.clock = clock
        self.sink = sink
        self.next_due = clock.now() + 10.0

    def sample(self):
        # ok: method bodies may persist through the injected sink
        self.sink.write("{}\n")
        return self.clock.now()


def export_to(path, snapshot):
    # ok: an explicit export helper opening on demand is not wiring
    with open(path, "w") as fh:
        fh.write(snapshot)
