"""RPR006 passing fixture: the full protocol, direct and inherited."""


class Backend:
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

    def sweep_gathering(self):
        raise NotImplementedError

    def run_pairs(self):
        raise NotImplementedError


class ReferenceBackend(Backend):
    # overriding a subset is fine: the rest arrives through the MRO
    def run(self):
        return None

    def sweep_gathering(self):
        return None


class StackedBackend(ReferenceBackend):
    # depth-2 inheritance still reaches the whole surface
    def run_pairs(self):
        return None
