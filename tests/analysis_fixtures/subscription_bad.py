# module: fixtures.subscription_bad
# Known-bad corpus for the subscription-lifecycle check: tokens that
# can reach the function exit without unsubscribe/detach — the raise
# path (the PR 7 _future_for leak class) and the early return.


class Client:
    def __init__(self):
        self.ready = False

    def leak_on_raise(self, pubsub, topic, callback):
        token = pubsub.subscribe(topic, callback)  # EXPECT: subscription-lifecycle
        if not self.ready:
            raise RuntimeError("not ready")  # token delivers into a dead callback forever
        pubsub.unsubscribe(token)

    def leak_on_early_return(self, pubsub, prefix, callback, armed):
        token = pubsub.subscribe(prefix, callback)  # EXPECT: subscription-lifecycle
        if not armed:
            return None  # leaks the token
        pubsub.unsubscribe(token)
        return None
