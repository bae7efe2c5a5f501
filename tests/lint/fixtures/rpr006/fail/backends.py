"""RPR006 failing fixture: a backend missing protocol surface."""


class Backend:
    # BUG under RPR006: the protocol class itself is missing run_pairs
    # and sweep_gathering.
    def run(self):
        raise NotImplementedError

    def run_gathering(self):
        raise NotImplementedError

    def run_many(self):
        raise NotImplementedError

    def run_gathering_many(self):
        raise NotImplementedError

    def sweep_delay_pairs(self):
        raise NotImplementedError


class ShardBackend:
    # BUG under RPR006: named like a backend, defines almost nothing and
    # inherits nothing.
    def run(self):
        return None
